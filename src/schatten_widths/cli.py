"""Command-line frontend for envelopes, certificates, estimators, recovery.

Five subcommands tie the library into reproducible, file-emitting runs:

* ``envelope``  — sweep an index range and emit the two-sided envelope as
  plot-ready rows (regime tag, sharpness, both values per index);
* ``bounds``    — emit every applicable certificate at one index, with
  optional Monte-Carlo re-verification;
* ``estimate``  — run the norm/width estimators on one embedding;
* ``recovery``  — run the measurement-count sweep of the recovery
  experiment;
* ``suite``     — run the numbered acceptance checks and exit nonzero on
  the first failure.

Command modules load on first use: this module imports the exponent,
core, envelope and estimator modules, and ``bounds``, ``recovery`` and
``suite`` import the certificates, the recovery experiment and the
acceptance checks when they run, so a command loads only what it uses.

Outputs are deterministic: identical configuration (including seed)
produces byte-identical CSV, floats are rendered with ``%.12g``, and no
timestamps are emitted.  Exponents are parsed as exact rationals
(``4/3``) or ``inf`` so regime boundaries never drift through floats.
JSON payloads carry a ``schema_version`` and are built in full before
they are written.  CSV carries the configuration and the regime constants
in ``#`` comment headers, and its rows are written one by one as they are
made, so an envelope sweep of any length runs in flat memory.  An envelope
row is a line template: its fixed fields (kind, exponents and N before the
index; regime, sharpness, log factor and notes after the two values) are
rendered by the ``csv`` module once per run and once per regime segment,
and each row formats only its index and its two values.  A CSV field that
holds a comma (the regime label ``n in (lo, hi]``) is quoted by the ``csv``
module, so read the output with a CSV parser, not by splitting lines on
commas.  When ``--output`` is a relative path it lands in
``$SCHATTEN_WIDTHS_OUTPUT_DIR`` if that is set, else the working
directory.

Exit status: 0 on success, 1 when ``suite`` has a failing check, 2 on
a usage or input error (an ``error:`` line on standard error), and 141,
the SIGPIPE status, without a message when the reader of standard output
closes it early (``| head``).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from .core import EmbeddingSpec
from .envelope import DEFAULT_CONSTANTS, ConstantsRegistry, EnvelopeValue, envelope_profile
from .estimators import (
    estimate_approx,
    estimate_gelfand,
    estimate_kolmogorov,
    operator_norm_estimate,
)
from .exponents import as_exponent, format_exponent

__all__ = ["main", "run"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "SCHATTEN_WIDTHS_OUTPUT_DIR"

_ESTIMATORS = {
    "norm": operator_norm_estimate,
    "approximation": estimate_approx,
    "gelfand": estimate_gelfand,
    "kolmogorov": estimate_kolmogorov,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _config_line(args: argparse.Namespace) -> str:
    """Deterministic one-line rendering of the run parameters."""
    command = args.command
    parts = [f"command={command}"]
    if command != "suite":
        parts += [f"p={format_exponent(args.p)}", f"q={format_exponent(args.q)}", f"N={args.N}"]
    if command in ("bounds", "estimate") and args.n is not None:
        parts.append(f"n={args.n}")
    if command == "envelope" and args.n_range is not None:
        parts.append(f"n={args.n_range[0]}:{args.n_range[1]}")
    if command in ("envelope", "bounds", "estimate"):
        parts.append(f"kind={args.kind}")
    if command == "recovery":
        parts.append("m=" + ",".join(str(m) for m in args.m_list))
        parts.append(f"budget={args.budget}")
        parts.append(f"tol={_fmt(args.tol)}")
    if command == "bounds" and args.verify:
        parts.append(f"verify=1 samples={args.samples}")
    if command == "estimate":
        parts.append(f"restarts={args.restarts}")
    if command == "suite" and args.checks:
        parts.append("checks=" + ",".join(str(c) for c in args.checks))
    parts.append(f"seed={args.seed}")
    return " ".join(parts)


def _fmt(x) -> str:
    """Render a float deterministically as %.12g.

    Twelve significant digits do not round-trip a double (that takes 17);
    the CSV pins depend on this format, so it stays."""
    return "%.12g" % float(x)


def _json_safe(obj):
    """Recursively convert numpy scalars/arrays and exotic floats for JSON."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return format_exponent(obj) if obj == math.inf else repr(obj)
    return obj


# ---------------------------------------------------------------------------
# row builders, one per command
# ---------------------------------------------------------------------------


class _Table(NamedTuple):
    """A command's output: column names, one list per row in column order,
    (``--format json`` only) one ``detail`` object per row, and optionally
    the CSV body as finished lines, which then stand in for ``rows``."""

    fields: Sequence[str]
    rows: Iterable[list]
    details: Optional[Sequence] = None
    lines: Optional[Iterable[str]] = None


_ENVELOPE_FIELDS = (
    "kind", "p", "q", "N", "n",
    "value_lower", "value_upper", "regime", "sharpness", "log_factor", "notes",
)
_BOUNDS_FIELDS = (
    "kind", "p", "q", "N", "n", "direction", "method", "value", "exact_constant", "witness",
)
_VERIFY_FIELDS = ("verified", "max_ratio", "verify_samples")
_ESTIMATE_FIELDS = (
    "kind", "p", "q", "N", "n", "value", "method", "restarts", "seed", "converged",
)
_RECOVERY_FIELDS = ("m", "worst_error", "envelope", "ratio")


def _csv_line(fields: Sequence) -> str:
    """``fields`` as the CSV writer renders them, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _envelope_tail(ev: EnvelopeValue) -> list:
    """The four envelope fields after the two values; fixed within a segment."""
    return [ev.regime, ev.sharpness, int(ev.log_factor), "|".join(ev.notes)]


def _envelope_lines(head: list, values: Iterable[tuple[int, EnvelopeValue]]) -> Iterator[str]:
    """CSV body lines of ``(n, EnvelopeValue)`` pairs from a line template.

    The prefix (``head`` plus the comma before n) is rendered once and each
    distinct tail once, both by the ``csv`` module; a row then formats only
    its index and its two ``%.12g`` values, which hold no comma, quote or
    newline and so never need quoting."""
    prefix = _csv_line(head) + ","
    suffixes: dict[tuple, str] = {}
    for n, ev in values:
        key = (ev.regime, ev.sharpness, ev.log_factor, ev.notes)
        suffix = suffixes.get(key)
        if suffix is None:
            suffix = suffixes[key] = "," + _csv_line(_envelope_tail(ev)) + "\n"
        yield f"{prefix}{n},{_fmt(ev.value_lower)},{_fmt(ev.value_upper)}{suffix}"


def _envelope_rows(args: argparse.Namespace) -> _Table:
    """One row per index, made from the profile's sweep as it is written,
    so no sweep is ever held in memory whole.  The CSV body comes from the
    line template of ``_envelope_lines``; ``--format json`` reads ``rows``."""
    N = args.N
    prof = envelope_profile(args.kind, args.p, args.q, N, args.constants)
    lo, hi = args.n_range if args.n_range is not None else (1, N * N)
    hi = min(hi, N * N)
    if lo > hi:
        raise ValueError(f"empty index range after clipping to 1..{N * N}")
    head = [args.kind, format_exponent(args.p), format_exponent(args.q), N]
    rows = (
        [*head, n, _fmt(ev.value_lower), _fmt(ev.value_upper), *_envelope_tail(ev)]
        for n, ev in enumerate(prof.sweep(lo, hi), lo)
    )
    lines = _envelope_lines(head, enumerate(prof.sweep(lo, hi), lo))
    return _Table(_ENVELOPE_FIELDS, rows, lines=lines)


def _witness_text(witness: dict) -> str:
    parts = []
    for key in sorted(witness):
        val = witness[key]
        parts.append(f"{key}={_fmt(val) if isinstance(val, float) else val}")
    return ";".join(parts)


def _bounds_rows(args: argparse.Namespace) -> _Table:
    from .certificates import lower_certificates, upper_certificates, verify_certificate

    spec = EmbeddingSpec(args.p, args.q, args.N, args.n)
    certs = upper_certificates(spec, args.kind) + lower_certificates(spec, args.kind)
    p, q = format_exponent(args.p), format_exponent(args.q)
    rows = []
    for cert in certs:
        row = [
            args.kind, p, q, args.N, args.n, cert.direction, cert.method,
            _fmt(cert.value), int(cert.exact_constant), _witness_text(cert.witness),
        ]
        if args.verify:
            report = verify_certificate(cert, samples=args.samples, seed=args.seed)
            row += [int(report.passed), _fmt(report.max_ratio), report.samples]
        rows.append(row)
    fields = _BOUNDS_FIELDS + _VERIFY_FIELDS if args.verify else _BOUNDS_FIELDS
    return _Table(fields, rows)


def _estimate_rows(args: argparse.Namespace) -> _Table:
    needs_index = args.kind != "norm"
    spec = EmbeddingSpec(args.p, args.q, args.N, args.n if needs_index else None)
    fn = _ESTIMATORS[args.kind]
    est = fn(spec, restarts=args.restarts, seed=args.seed)
    row = [
        est.snumber_kind, format_exponent(args.p), format_exponent(args.q), args.N,
        args.n if needs_index else "", _fmt(est.value), est.method, est.restarts,
        est.seed, int(est.converged),
    ]
    return _Table(_ESTIMATE_FIELDS, [row], [est.detail])


def _recovery_rows(args: argparse.Namespace) -> _Table:
    from .recovery import compare_to_envelope, worst_case_error

    rows, details = [], []
    for m in args.m_list:
        res = worst_case_error(
            args.N,
            args.p,
            args.q,
            m,
            test_budget=args.budget,
            seed=args.seed,
            tol=args.tol,
        )
        comp = compare_to_envelope(res)
        rows.append([m, _fmt(res.worst_error), _fmt(comp.envelope), _fmt(comp.ratio)])
        details.append(
            {
                "errors": list(res.errors),
                "labels": list(res.labels),
                "diagnostics": res.diagnostics,
            }
        )
    return _Table(_RECOVERY_FIELDS, rows, details)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _header_lines(args: argparse.Namespace) -> list[str]:
    lines = [
        f"# schatten-widths {args.command}",
        f"# schema_version: {SCHEMA_VERSION}",
        f"# config: {_config_line(args)}",
    ]
    if args.command == "envelope":
        lines.append(f"# constants: {args.constants.describe()}")
    return lines


def _emit_csv(args: argparse.Namespace, table: _Table, body: Iterable, out: TextIO) -> None:
    """Header comments, the column names, then ``body``: the table's
    finished lines if it has them, else its rows."""
    out.write("".join(line + "\n" for line in _header_lines(args)))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.fields)
    if table.lines is None:
        writer.writerows(body)
    else:
        out.writelines(body)


def _json_text(args: argparse.Namespace, table: _Table) -> str:
    payload_rows = [dict(zip(table.fields, row)) for row in table.rows]
    if table.details is not None:
        for row, detail in zip(payload_rows, table.details):
            row["detail"] = _json_safe(detail)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_line(args),
        "rows": payload_rows,
    }
    if args.command == "envelope":
        payload["constants"] = args.constants.describe()
    return json.dumps(payload, indent=2) + "\n"


def _resolve_output(path_text: str) -> Path:
    path = Path(path_text).expanduser()
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base).expanduser() / path
    return path


@contextlib.contextmanager
def _output(path_text: Optional[str]) -> Iterator[TextIO]:
    """Standard output, or the ``--output`` file, created on entry."""
    if path_text is None:
        yield sys.stdout
        return
    path = _resolve_output(path_text)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yield fh
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _run_suite(args: argparse.Namespace) -> int:
    from . import acceptance

    numbers = args.checks or acceptance.check_numbers()
    results = acceptance.run_suite(numbers, echo=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.output is not None:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "suite",
            "config": _config_line(args),
            "results": [
                {
                    "number": r.number,
                    "slug": r.slug,
                    "passed": r.passed,
                    "runtime_s": round(r.runtime_s, 3),
                    "budget_s": r.budget_s,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        with _output(args.output) as out:
            out.write(json.dumps(report, indent=2) + "\n")
    return 1 if failed else 0


_ROW_BUILDERS = {
    "envelope": _envelope_rows,
    "bounds": _bounds_rows,
    "estimate": _estimate_rows,
    "recovery": _recovery_rows,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the process exit code."""
    if args.command == "suite":
        return _run_suite(args)
    table = _ROW_BUILDERS[args.command](args)
    if args.fmt == "json":
        text = _json_text(args, table)
        with _output(args.output) as out:
            out.write(text)
        return 0
    # make the first row before the output file, so an error leaves none
    body = iter(table.rows if table.lines is None else table.lines)
    first = list(itertools.islice(body, 1))
    with _output(args.output) as out:
        _emit_csv(args, table, itertools.chain(first, body), out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_n_range(text: str) -> tuple[int, int]:
    left, _, right = text.partition(":")
    lo = int(left)
    hi = int(right) if right else lo
    if lo < 1 or hi < lo:
        raise ValueError(f"bad index range {text!r}")
    return lo, hi


def _parse_m_list(text: str) -> tuple[int, ...]:
    ms = tuple(int(part) for part in text.split(",") if part)
    if not ms or any(m < 0 for m in ms):
        raise ValueError(f"bad measurement list {text!r}")
    return ms


def _parse_checks(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    sub.add_argument(
        "--output",
        default=None,
        help=f"output file (relative paths land in ${OUTPUT_DIR_ENV} when set; default: stdout)",
    )


def _add_embedding_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", type=as_exponent, required=True, help="source exponent (rational or inf)")
    sub.add_argument("-q", type=as_exponent, required=True, help="target exponent (rational or inf)")
    sub.add_argument("-N", type=int, required=True, help="matrix side length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schatten-widths",
        description=__doc__.splitlines()[0],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    env = subparsers.add_parser("envelope", help="two-sided envelope sweep over n")
    _add_embedding_args(env)
    env.add_argument(
        "--kind",
        choices=("approximation", "gelfand", "kolmogorov"),
        default="approximation",
    )
    env.add_argument(
        "--n-range",
        type=_parse_n_range,
        default=None,
        metavar="LO:HI",
        help="index range, LO >= 1 (default 1:N^2); HI is clipped to N^2",
    )
    env.add_argument(
        "--constants",
        default=None,
        metavar="FILE",
        help="JSON file overriding the regime constants",
    )
    env.set_defaults(seed=0)
    _add_common_output(env)

    bounds = subparsers.add_parser("bounds", help="all applicable certificates at one index")
    _add_embedding_args(bounds)
    bounds.add_argument("-n", type=int, required=True, help="s-number index")
    bounds.add_argument(
        "--kind",
        choices=("approximation", "gelfand", "kolmogorov"),
        default="approximation",
    )
    bounds.add_argument("--verify", action="store_true", help="re-verify every certificate")
    bounds.add_argument("--samples", type=int, default=200, help="verification sample count")
    bounds.add_argument("--seed", type=int, default=0)
    _add_common_output(bounds)

    est = subparsers.add_parser("estimate", help="run a norm/width estimator")
    _add_embedding_args(est)
    est.add_argument("-n", type=int, default=None, help="s-number index (not used by kind=norm)")
    est.add_argument(
        "--kind",
        choices=("norm", "approximation", "gelfand", "kolmogorov"),
        default="norm",
    )
    est.add_argument("--restarts", type=int, default=6)
    est.add_argument("--seed", type=int, default=0)
    _add_common_output(est)

    rec = subparsers.add_parser("recovery", help="measurement-count sweep of the recovery error")
    _add_embedding_args(rec)
    rec.add_argument(
        "--m-list",
        type=_parse_m_list,
        required=True,
        metavar="M1,M2,...",
        help="measurement counts to sweep",
    )
    rec.add_argument("--budget", type=int, default=12, help="test matrices per sweep point")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--tol", type=float, default=1e-6, help="decoder feasibility tolerance")
    _add_common_output(rec)

    suite = subparsers.add_parser("suite", help="run the acceptance checks")
    suite.add_argument(
        "--checks",
        type=_parse_checks,
        default=(),
        metavar="1,2,...",
        help="subset of check numbers (default: all)",
    )
    suite.add_argument(
        "--seed",
        type=int,
        default=7,
        help="recorded for provenance; the checks pin their own seeds internally",
    )
    suite.add_argument("--output", default=None, help="also write a JSON report here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "envelope":
            args.constants = (
                ConstantsRegistry.from_json_dict(
                    json.loads(Path(args.constants).expanduser().read_text())
                )
                if args.constants
                else DEFAULT_CONSTANTS
            )
        if args.command == "estimate" and args.kind != "norm" and args.n is None:
            raise ValueError(f"estimate with kind={args.kind} requires -n")
        return run(args)
    except BrokenPipeError:
        # the reader of standard output left early (``| head``): not a
        # usage error.  Point stdout at the null device so the final flush
        # at exit does not raise again, and exit as SIGPIPE would.
        with contextlib.suppress(OSError, ValueError):  # an in-memory stdout has no fd
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, NotImplementedError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
