"""Benchmark of ``schatten_widths``: end-to-end and per-layer metrics.

    python3 bench/run.py --workload calib-n2 --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  One run is one process.  It measures set-up in fresh
child processes, then runs the workload's job list in passes until
``--seconds`` would be exceeded (at least one pass), checks every job's
output and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all from untraced passes:

    setup_s      median over child processes of the time to import the
                 package, load the oracle battery and build the job inputs
    wall_s       median over passes of the time to run the whole job list
    job_p50_s    median over jobs of each job's median time over passes
    job_max_s    the largest of those per-job medians
    peak_rss_mb  this process's memory high-water mark

Every time is wall-clock time at the reference speed of
``machine.SPEED_REFERENCE_S``: a call's wall time (``time.perf_counter``)
scaled by the calibration chunks of ``machine.speed_chunk`` timed just
before and just after it, of the kind ``workloads.SPEED`` names for the
workload (set-up uses the ``"small"`` kind).  On a shared virtual machine
one core's speed moves by up to 1.9x while other tenants load the host,
and the raw times of a run follow it; the scaled times move much less.
The details line holds every pass's raw wall time, CPU time and speed
scale, and the metrics on the raw wall clock.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.layer_metrics`` per traced pass; span times
are raw wall-clock times.  The line before the last holds the details:
machine, per-job values and times, pins, the span table of a traced run,
and ``"claim": null`` -- this benchmark claims no gain.  Every
fixed-input job is checked against its value in ``bench/pinned.json``;
the ``jobs`` entries of the details line hold the values a new pin would
take.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import machine

machine.pin_threads()

SETUP_PROBES = 9
# A calibration chunk follows each run of calls that took this long.
SPEED_EVERY_S = 0.1
PINS = machine.ROOT / "bench" / "pinned.json"
TMP_ROOT = machine.ROOT / ".bench_tmp"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> dict:
    """Time, in this process, to import the package and build the job list."""
    cpu, start = time.process_time(), time.perf_counter()
    machine.add_package_path()
    import workloads

    workloads.build(workload, seed, str(TMP_ROOT), json.loads(PINS.read_text())[workload])
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    chunk = statistics.median(machine.speed_chunk("small") for _ in range(5))
    return {"s": wall * machine.SPEED_REFERENCE_S["small"] / chunk, "wall": wall, "cpu": cpu}


def measure_setup(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(machine.ROOT / "bench" / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout))
    return times


def call_jobs(jobs, speed: str, tracer=None) -> list[tuple]:
    """Call every job once and time only the call.

    Returns ``(job, row, result)`` triples; ``result`` is None when the
    call raised, which fails the job.  A row's ``wall`` is the call's wall
    time, ``cpu`` its CPU time and ``s`` its time at the reference speed:
    ``wall`` times ``scale``, the reference time of the ``speed`` chunk over
    the mean of the chunks timed before and after the run of calls it
    belongs to.
    """
    calls, pending = [], []
    reference = machine.SPEED_REFERENCE_S[speed]
    before = machine.speed_chunk(speed)
    for job in jobs:
        cpu, start = time.process_time(), time.perf_counter()
        try:
            result = tracer.span("bench.job", job.run) if tracer else job.run()
            ok = True
        except Exception:  # a job that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        row = {"id": job.id, "wall": time.perf_counter() - start,
               "cpu": time.process_time() - cpu, "value": None, "ok": ok}
        calls.append((job, row, result))
        pending.append(row)
        if job is jobs[-1] or sum(r["wall"] for r in pending) >= SPEED_EVERY_S:
            after = machine.speed_chunk(speed)
            scale = reference / ((before + after) / 2)
            for r in pending:
                r["s"], r["scale"] = r["wall"] * scale, scale
            before, pending = after, []
    return calls


def run_pass(jobs, speed: str, tracer=None) -> list[dict]:
    """Run every job once, then check each output.

    With a tracer the calls run while it is installed and the checks after
    it is removed, so the library calls a check makes are not traced.
    """
    if tracer is None:
        calls = call_jobs(jobs, speed)
    else:
        with tracer:
            calls = call_jobs(jobs, speed, tracer)
    rows = []
    for job, row, result in calls:
        if row["ok"]:
            try:
                value, ok = job.check(result)
            except Exception:  # a check that cannot read the output fails the job
                traceback.print_exc(file=sys.stderr)
                value, ok = None, False
            row.update(value=value, ok=bool(ok))
            if tracer is not None:
                tracer.counters["cli.bytes_out"] += getattr(result, "bytes_out", 0)
        rows.append(row)
    return rows


def moved(value, pin) -> bool:
    """True when ``value`` moved from its pinned value, or either is missing."""
    import workloads

    if value is None or pin is None or isinstance(value, str) or isinstance(pin, str):
        return value != pin
    return abs(value - pin) > workloads.MOVED_REL * max(abs(pin), 1e-300)


def measure(jobs, speed: str, seconds: float, trace: bool):
    """Passes until the next one could exceed ``seconds``; at least one.

    Returns (untraced passes, traced passes, tracer).
    """
    import tracer as tracing

    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    # the first chunk of a process runs cold (first BLAS calls, page
    # faults) and would scale the first pass down
    machine.speed_chunk(speed)
    durations = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        untraced.append(run_pass(jobs, speed))
        if trace:
            traced.append(run_pass(jobs, speed, tracer))
        durations.append(time.perf_counter() - start)
        if time.perf_counter() - begin + max(durations) > seconds:
            return untraced, traced, tracer


def pass_time(rows, clock: str = "s") -> float:
    return sum(r[clock] for r in rows)


def job_times(passes, clock: str = "s") -> dict:
    """Each job's median time over ``passes``."""
    times: dict = {}
    for rows in passes:
        for r in rows:
            times.setdefault(r["id"], []).append(r[clock])
    return {job: statistics.median(t) for job, t in times.items()}


def end_to_end(untraced, setup_times, clock: str = "s") -> dict:
    per_job = job_times(untraced, clock)
    return {
        "setup_s": (statistics.median(t[clock] for t in setup_times), "s"),
        "wall_s": (statistics.median(pass_time(rows, clock) for rows in untraced), "s"),
        "job_p50_s": (statistics.median(per_job.values()), "s"),
        "job_max_s": (max(per_job.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def pass_summary(passes) -> dict:
    return {
        "s": [pass_time(rows) for rows in passes],
        "raw_wall_s": [pass_time(rows, "wall") for rows in passes],
        "raw_cpu_s": [pass_time(rows, "cpu") for rows in passes],
        "median_scale": [statistics.median(r["scale"] for r in rows) for rows in passes],
    }


def details(args, jobs, untraced, traced, tracer, pins, setup_times, values_moved) -> dict:
    first = {r["id"]: r for r in untraced[0]}
    per_job = job_times(untraced)
    fixed = []
    unpinned = {"jobs": 0, "failed": 0}
    for job in jobs:
        row = first[job.id]
        if job.fixed:
            fixed.append({
                "id": job.id, "value": row["value"], "pinned": pins.get(job.id),
                "ok": row["ok"], "median_s": per_job[job.id],
            })
        else:
            unpinned["jobs"] += 1
            unpinned["failed"] += not row["ok"]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.describe(),
        "passes": {"untraced": pass_summary(untraced), "traced": pass_summary(traced)},
        "setup_probes_s": setup_times,
        "jobs": sorted(fixed, key=lambda j: j["id"]),
        "seed_dependent_jobs": unpinned,
        "values_moved": values_moved,
    }
    if tracer is None:
        # the same metrics on the raw wall clock, for comparison
        out["raw_wall_clock_metrics"] = {
            name: value for name, (value, _) in end_to_end(untraced, setup_times, "wall").items()}
    else:
        out["absent_layers"] = tracer.absent
        out["spans"] = tracer.span_table(scale=len(traced))
    out["claim"] = None
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    try:
        machine.add_package_path()
        import schatten_widths  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import schatten_widths from this checkout: {exc}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())[args.workload]
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        jobs = workloads.build(args.workload, args.seed, tmpdir, pins)
        random.Random(args.seed).shuffle(jobs)  # the seed also fixes the job order
        untraced, traced, tracer = measure(jobs, workloads.SPEED[args.workload], args.seconds,
                                          bool(args.trace))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    every = untraced + traced
    attempted = sum(len(rows) for rows in every)
    failed = sum(not r["ok"] for rows in every for r in rows)
    fixed = {job.id for job in jobs if job.fixed}
    values_moved = max(
        sum(moved(r["value"], pins.get(r["id"])) for r in rows if r["id"] in fixed)
        for rows in every
    )
    if args.trace:
        overhead = (statistics.median(pass_time(rows) for rows in traced)
                    - statistics.median(pass_time(rows) for rows in untraced))
        metrics = tracing.layer_metrics(tracer, len(traced), overhead, values_moved)
    else:
        metrics = end_to_end(untraced, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps(details(args, jobs, untraced, traced, tracer, pins, setup_times, values_moved)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
