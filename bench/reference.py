"""One-shot reference record: the acceptance suite, run once.

    python3 bench/reference.py

Writes ``bench/reference_suite.json``: each check's ``runtime_s``,
``passed`` and ``detail`` beside the machine description.  This is the per-check baseline of the acceptance
suite; it is not part of the repeated benchmark runs (it takes minutes).
"""
from __future__ import annotations

import json
import sys
import time

import machine

machine.pin_threads()
machine.add_package_path()

from schatten_widths import acceptance  # noqa: E402

OUTPUT = machine.ROOT / "bench" / "reference_suite.json"


def main() -> int:
    start = time.perf_counter()
    results = acceptance.run_suite(echo=print)
    record = {
        "machine": machine.describe(),
        "total_s": time.perf_counter() - start,
        "checks": [
            {
                "number": r.number,
                "slug": r.slug,
                "passed": r.passed,
                "runtime_s": r.runtime_s,
                "budget_s": r.budget_s,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    with open(OUTPUT, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
