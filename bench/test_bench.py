"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run a small slice of every workload but the slowest (recovery-n32).
"""
from __future__ import annotations

import tempfile

import machine

machine.pin_threads()
machine.add_package_path()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from schatten_widths import distances  # noqa: E402
from schatten_widths.operators import SubspaceBasis, orthonormal_columns  # noqa: E402

SLICE = {
    "calib-n2": ("estimate:kolmogorov(1,2)n=3", "oracle:approx(2,inf)n=4"),
    "search-n3": ("norm(2,inf)N=3", "distance(q=1,dim=4)N=3", "distance(q=inf,dim=1)N=3"),
    "closed-form": ("cli:envelope(1,2)N=128:gelfand", "littlewood:0", "littlewood:1", "hull:0"),
}


@pytest.fixture(scope="module")
def slice_jobs():
    with tempfile.TemporaryDirectory() as tmpdir:
        pins = run.json.loads(run.PINS.read_text())
        jobs = []
        for name, ids in SLICE.items():
            by_id = {j.id: j for j in workloads.build(name, 5, tmpdir, pins.get(name))}
            jobs.extend(by_id[i] for i in ids)
        yield jobs


def test_slice_uses_pinned_inputs():
    pins = run.json.loads(run.PINS.read_text())
    for name, ids in SLICE.items():
        fixed = [i for i in ids if not i.startswith(("littlewood", "hull"))]
        assert all(i in pins[name] for i in fixed), name


def test_every_workload_has_a_speed_kind():
    assert set(workloads.SPEED) == set(workloads.NAMES)
    assert set(workloads.SPEED.values()) <= set(machine.SPEED_REFERENCE_S)


def test_traced_and_untraced_runs_agree(slice_jobs):
    plain = run.run_pass(slice_jobs, "small")
    t = tracing.Tracer()
    traced = run.run_pass(slice_jobs, "small", t)
    assert [r["id"] for r in plain] == [r["id"] for r in traced]
    assert [r["value"] for r in plain] == [r["value"] for r in traced]
    assert [r["ok"] for r in plain] == [r["ok"] for r in traced]
    assert all(r["ok"] for r in plain)
    # the traced pass saw every layer this slice reaches
    spans = t.by_span()
    for span in ("core.svd", "distances.distance_schatten", "envelope.value"):
        assert spans[span][0] > 0, span
    # one span per job that calls the layer's public function
    assert spans["estimators"][0] == 2
    assert spans["oracle.net_oracle"][0] == 1
    assert spans["cli.main"][0] == 1
    assert t.counters["cli.bytes_out"] > 0


def test_self_times_sum_to_traced_wall(slice_jobs):
    t = tracing.Tracer()
    rows = run.run_pass(slice_jobs, "small", t)
    # every span was opened inside a job: the checks run untraced
    top = {span: calls for (span, parent), (calls, _, _) in t.stats.items() if parent is None}
    assert top == {"bench.job": len(slice_jobs)}
    self_sum = sum(own for _, _, own in t.stats.values())
    # spans are timed on the wall clock, inside each row's own timing
    wall = run.pass_time(rows, "wall")
    assert wall - 1e-4 * len(rows) <= self_sum <= wall
    # a row's reported time is its wall time at the reference speed
    for r in rows:
        assert r["scale"] > 0 and r["s"] == pytest.approx(r["wall"] * r["scale"], rel=1e-12)
    # every span's time is its self time plus its children's total time
    children = {}
    for (span, parent), (_, total, _) in t.stats.items():
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + total
    for span, (_, total, own) in t.by_span().items():
        assert total == pytest.approx(own + children.get(span, 0.0), rel=1e-9, abs=1e-9)


def test_tracer_restores_every_binding():
    import schatten_widths
    from schatten_widths import ascent, cli, core, estimators

    before = (core.schatten_norm, ascent.schatten_norm, estimators.jacobi_svd,
              schatten_widths.schatten_norm, dict(cli._ESTIMATORS),
              schatten_widths.EnvelopeProfile.value)
    with tracing.Tracer():
        assert ascent.schatten_norm is not before[1]
        assert estimators.jacobi_svd is not before[2]
        assert cli._ESTIMATORS["norm"] is not before[4]["norm"]
    after = (core.schatten_norm, ascent.schatten_norm, estimators.jacobi_svd,
             schatten_widths.schatten_norm, dict(cli._ESTIMATORS),
             schatten_widths.EnvelopeProfile.value)
    assert after == before


def test_missing_name_is_an_absent_layer(monkeypatch):
    from schatten_widths import core

    monkeypatch.delattr(core, "jacobi_svd")
    t = tracing.Tracer()
    with t:
        pass
    assert "core.jacobi_svd" in t.absent
    metrics = tracing.layer_metrics(t, 1, 0.0, 0)
    assert metrics["recovery.nuclear_decoder.calls"] == (0.0, "count")


SOLVERS = {
    "_closed_form_frobenius": "frobenius",
    "_codim_one_distance": "codim1",
    "_distance_2x2": "n2",
    "_spectral_homotopy": "spectral",
    "_irls": "irls",
}


def _basis(rng, N: int, dim: int) -> SubspaceBasis:
    return SubspaceBasis(orthonormal_columns(rng.standard_normal((N * N, dim))), N)


@pytest.mark.parametrize("N,dim,q,path", [
    (3, 0, "1", "trivial"),
    (3, 4, "2", "frobenius"),
    (3, 8, "1", "codim1"),
    (2, 2, "1", "n2"),
    (3, 4, "inf", "spectral"),
    (3, 4, "3/2", "irls"),
])
def test_distance_path_matches_dispatch(monkeypatch, N, dim, q, path):
    called = []
    for attr, name in SOLVERS.items():
        original = getattr(distances, attr)

        def spy(*args, _original=original, _name=name, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(distances, attr, spy)
    rng = np.random.default_rng(7)
    basis = _basis(rng, N, dim) if dim else SubspaceBasis(np.zeros((N * N, 0)), N)
    x = rng.standard_normal((N, N))
    assert tracing.distance_path(x, basis, q) == path
    distances.distance_schatten(x, basis, q)
    assert called[:1] == ([] if path == "trivial" else [path])
