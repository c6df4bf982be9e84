"""Regenerate or check the frozen net-oracle reference values.

The calibration checks compare the fast estimators against net-oracle
values that were computed once and committed as package data at
``src/schatten_widths/data/oracle_battery.json``.  At N = 2 the
estimators answer every battery point from an exact anchor, without a
search, so the battery cross-checks those anchors against the net.  This
script recomputes that file.  Run it only when the oracle or the battery
itself changes.
The timings are printed, not written, so a re-freeze rewrites only the
values and frame counts that moved.  The package is imported from this
checkout's ``src``, so no install and no ``PYTHONPATH`` is needed.  Either
mode takes about 0.4 s (0.11 s of oracle calls; the rest is the
interpreter and the imports) on a 2-core Xeon VM at one BLAS thread:

    python3 tests/fixtures/regenerate.py

With ``--check`` it recomputes every point at the file's own resolution
and seed, compares each value (relative tolerance 1e-12) and frame count
with the committed one, prints every difference, writes nothing, and
exits 1 if any point differs:

    python3 tests/fixtures/regenerate.py --check
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time

# import the package from this checkout's src, with or without PYTHONPATH
ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from schatten_widths.core import EmbeddingSpec
from schatten_widths.exponents import format_exponent
from schatten_widths.oracle import DEFAULT_ORACLE_SEED, net_oracle

# (kind, p, q, n, part of the 12-point calibration battery?)
BATTERY = [
    ("kolmogorov", "1", "2", 2, True),
    ("kolmogorov", "1", "2", 3, True),
    ("kolmogorov", "1", "2", 4, True),
    ("kolmogorov", "1/2", "2", 3, True),
    ("kolmogorov", "inf", "2", 2, True),
    ("kolmogorov", "2", "1", 3, True),
    ("kolmogorov", "1", "inf", 2, True),
    ("kolmogorov", "4/3", "2", 3, True),
    ("approx", "2", "inf", 4, True),
    ("approx", "2", "inf", 2, True),
    ("approx", "1", "2", 3, True),
    ("approx", "inf", "2", 2, True),
    # extra frozen points exercised by the unit tests only
    ("gelfand", "2", "4", 2, False),
    ("gelfand", "1/2", "1", 2, False),
    ("kolmogorov", "2", "2", 3, False),
]

DEFAULT_OUTPUT = ROOT / "src" / "schatten_widths" / "data" / "oracle_battery.json"

# value tolerance of ``--check``; frame counts must agree exactly
CHECK_REL = 1e-12


def compute(h: float, seed: int) -> list[dict]:
    """Run the oracle on every battery point, printing one line each."""
    points = []
    for kind, p, q, n, in_battery in BATTERY:
        spec = EmbeddingSpec(p, q, 2, n)
        start = time.perf_counter()
        est = net_oracle(spec, kind, h=h, seed=seed)
        elapsed = time.perf_counter() - start
        points.append(
            {
                "kind": kind,
                "p": format_exponent(spec.p),
                "q": format_exponent(spec.q),
                "n": n,
                "battery": in_battery,
                "value": est.value,
                "error_bar": est.detail["error_bar"],
                "path": est.detail["path"],
                "frames": est.restarts,
            }
        )
        print(
            f"{kind:<10} p={points[-1]['p']:<4} q={points[-1]['q']:<4} n={n}: "
            f"{est.value:.6f}  ({elapsed:.3f}s, path={est.detail['path']})"
        )
    return points


def differences(committed: list[dict], fresh: list[dict]) -> list[str]:
    """Lines naming each point whose value or frame count moved."""
    def key(pt: dict) -> tuple:
        return pt["kind"], pt["p"], pt["q"], pt["n"]

    old = {key(pt): pt for pt in committed}
    lines = []
    for pt in fresh:
        name = "{} p={} q={} n={}".format(*key(pt))
        ref = old.pop(key(pt), None)
        if ref is None:
            lines.append(f"{name}: not in the committed file")
            continue
        if not math.isclose(pt["value"], ref["value"], rel_tol=CHECK_REL, abs_tol=0.0):
            lines.append(f"{name}: value {pt['value']!r} != committed {ref['value']!r}")
        if pt["frames"] != ref["frames"]:
            lines.append(f"{name}: frames {pt['frames']} != committed {ref['frames']}")
    lines.extend("{} p={} q={} n={}: committed but not recomputed".format(*k) for k in old)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--h", type=float, default=0.05, help="net resolution")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_ORACLE_SEED, help="sampling seed"
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON fixture (with --check: the file to check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute at the file's h and seed and compare; write nothing",
    )
    args = parser.parse_args()

    if args.check:
        committed = json.loads(args.output.read_text())
        fresh = compute(committed["h"], committed["seed"])
        lines = differences(committed["points"], fresh)
        for line in lines:
            print(f"MISMATCH {line}")
        if lines:
            print(f"{len(lines)} difference(s) from {args.output}")
            return 1
        print(f"all {len(fresh)} points reproduce {args.output}")
        return 0

    start = time.perf_counter()
    points = compute(args.h, args.seed)
    total = time.perf_counter() - start
    payload = {"h": args.h, "seed": args.seed, "points": points}
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} ({total:.2f}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
