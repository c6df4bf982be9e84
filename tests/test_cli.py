"""Command-line interface: determinism, formats, file output, exit codes."""
import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import schatten_widths
from schatten_widths.cli import OUTPUT_DIR_ENV, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(out):
    """Data rows of a CSV output (header first), ``#`` comment lines dropped.

    Fields such as the regime label ``n in (lo, hi]`` hold a comma and are
    quoted by the writer, so rows are read with a CSV parser, never split.
    """
    return list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_csv_is_deterministic_and_pinned(capsys):
    argv = ["envelope", "-p", "1", "-q", "inf", "-N", "16", "--kind", "gelfand"]
    code, out1, err = _run(capsys, argv)
    assert code == 0 and err == ""
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2  # byte-identical

    lines = out1.splitlines()
    assert lines[0] == "# schatten-widths envelope"
    assert lines[1] == "# schema_version: 1"
    assert lines[2].startswith("# config: ")
    assert lines[3] == "# constants: c_universal=1/2"
    header, *data = _csv_rows(out1)
    assert header == [
        "kind", "p", "q", "N", "n",
        "value_lower", "value_upper", "regime", "sharpness", "log_factor", "notes",
    ]
    # every positional check below relies on rows as wide as the header
    assert all(len(row) == len(header) for row in data)
    rows = {int(row[4]): row for row in data}
    assert len(rows) == 256
    # regime boundaries land exactly where the constants put them
    assert rows[128][7] == "square/small-index n in (0, 128]"
    assert rows[129][7].startswith("square/intermediate")
    assert rows[250][7].startswith("square/large-index")
    assert rows[128][5] == "0.353553390593"
    assert rows[129][5] == "0.176776695297"  # %.12g of 2**-2.5
    assert rows[256][5] == "0.0625"
    assert rows[249][10] == "monotone-lift"


def test_envelope_respects_a_constants_file(capsys, tmp_path):
    consts = tmp_path / "consts.json"
    consts.write_text(json.dumps({"c_universal": "1/4"}))
    code, out, _ = _run(
        capsys,
        ["envelope", "-p", "1", "-q", "inf", "-N", "16",
         "--kind", "gelfand", "--constants", str(consts), "--n-range", "192:193"],
    )
    assert code == 0
    assert "# constants: c_universal=1/4" in out
    rows = _csv_rows(out)
    assert rows[1][7] == "square/small-index n in (0, 192]"
    assert rows[2][7].startswith("square/intermediate")


def test_a_constants_file_does_not_outlive_its_call(capsys, tmp_path):
    # main parses with one parser per process; a --constants call must not
    # leave its registry behind for the next call
    consts = tmp_path / "consts.json"
    consts.write_text(json.dumps({"c_universal": "1/4"}))
    argv = ["envelope", "-p", "1", "-q", "inf", "-N", "4", "--kind", "gelfand"]
    code, out, _ = _run(capsys, argv + ["--constants", str(consts)])
    assert code == 0 and "# constants: c_universal=1/4" in out
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[3] == "# constants: c_universal=1/2"


def test_envelope_n_range_clips_and_rejects_empty(capsys):
    code, out, _ = _run(
        capsys, ["envelope", "-p", "2", "-q", "2", "-N", "3", "--n-range", "7:99"]
    )
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1 + 3  # header + n in {7, 8, 9}
    code, _, err = _run(
        capsys, ["envelope", "-p", "2", "-q", "2", "-N", "3", "--n-range", "12:15"]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_recovery_reports_a_bad_tolerance_as_a_usage_error(capsys, tol):
    code, out, err = _run(capsys, ["recovery", "-p", "1", "-q", "2", "-N", "4",
                                   "--m-list", "4", "--tol", tol])
    assert code == 2 and out == ""
    assert "error: tol must be positive and finite" in err


def test_envelope_rejects_an_empty_matrix_side_before_the_range(capsys):
    code, out, err = _run(capsys, ["envelope", "-p", "1", "-q", "2", "-N", "0"])
    assert code == 2 and out == ""
    assert "error: N must be a positive integer, got 0" in err


_QUOTING_EXPONENTS = ("1/2", "1", "4/3", "2", "4", "inf")
# full ranges, and ranges that start inside a regime segment (the last one
# runs past N^2 and is clipped)
_QUOTING_RANGES = (
    (1, None), (2, None), (2, "3:4"), (3, None), (3, "5:9"),
    (16, "37:41"), (16, "122:140"), (16, "250:300"),
)


@pytest.mark.parametrize("kind", ["approximation", "gelfand", "kolmogorov"])
def test_envelope_csv_body_is_the_csv_writer_of_the_json_rows(capsys, kind):
    # the CSV body is rendered from a line template; it must be byte for
    # byte what the csv module writes for the rows of --format json
    tails = []
    for p, q in itertools.product(_QUOTING_EXPONENTS, repeat=2):
        for N, n_range in _QUOTING_RANGES:
            argv = ["envelope", "-p", p, "-q", q, "-N", str(N), "--kind", kind]
            if n_range is not None:
                argv += ["--n-range", n_range]
            code, out, _ = _run(capsys, argv)
            assert code == 0
            code, text, _ = _run(capsys, argv + ["--format", "json"])
            assert code == 0
            payload = json.loads(text)
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(payload["rows"][0].keys())
            writer.writerows(row.values() for row in payload["rows"])
            body = "".join(l for l in out.splitlines(True) if not l.startswith("#"))
            assert body == expected.getvalue(), argv
            tails += [(p, q, N, row["notes"]) for row in payload["rows"]]
    # the grid holds lifted rows and notes that the writer has to quote
    if kind == "approximation":
        assert any(t[:3] == ("1/2", "4/3", 2) and t[3].endswith("monotone-lift") for t in tails)
    if kind == "kolmogorov":
        assert any(t[:3] == ("1", "1/2", 2) and "," in t[3] for t in tails)


def test_envelope_json_bytes_are_pinned(capsys):
    argv = ["envelope", "-p", "1/2", "-q", "4/3", "-N", "8", "--kind", "approximation",
            "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "0b5373e91e572dedff2a32bdb802c266340908478c67b89a3c74e472bfa9ce7d"
    )


# sha256 of ``envelope -p 1 -q 2 -N 128 --kind <kind>``, as pinned for the
# benchmark's closed-form workload
ENVELOPE_128_SHA256 = {
    "approximation": "3b7d21671275f5d7d4c83c6672d7a7962855a09ca477f5d3a1f330c541f90678",
    "gelfand": "ffca1561a26f41de49cec78eb1cd6787a010afa9403f202a4669a6deabc79233",
    "kolmogorov": "83c32184e5ec47e8c6be2b40bd89ca9b2fc1363e5a01fdb520af01bebf887c4e",
}


@pytest.mark.parametrize("kind", sorted(ENVELOPE_128_SHA256))
def test_envelope_128_bytes_are_pinned(capsys, tmp_path, kind):
    target = tmp_path / "env.csv"
    argv = ["envelope", "-p", "1", "-q", "2", "-N", "128", "--kind", kind]
    code, out, _ = _run(capsys, argv + ["--output", str(target)])
    assert code == 0 and out == f"wrote {target}\n"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ENVELOPE_128_SHA256[kind]


@pytest.mark.parametrize(
    "argv",
    [
        ["envelope", "-p", "4/3", "-q", "4", "-N", "6", "--kind", "approximation"],
        ["bounds", "-p", "2", "-q", "1", "-N", "4", "-n", "5", "--verify", "--samples", "20"],
    ],
    ids=["envelope", "bounds-verify"],
)
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    target = tmp_path / "out.csv"
    code, _, _ = _run(capsys, argv + ["--output", str(target)])
    assert code == 0
    assert target.read_bytes() == out.encode()


def test_empty_n_range_with_output_makes_no_file(capsys, tmp_path):
    target = tmp_path / "sub" / "env.csv"
    code, out, err = _run(
        capsys,
        ["envelope", "-p", "2", "-q", "2", "-N", "3",
         "--n-range", "12:15", "--output", str(target)],
    )
    assert code == 2 and out == ""
    assert "error:" in err
    assert not target.exists()


def test_envelope_sweep_streams_in_flat_memory(capsys, tmp_path):
    # 65,536 rows (about 10 MB of CSV) are written as they are made
    target = tmp_path / "env.csv"
    tracemalloc.start()
    try:
        code = main(
            ["envelope", "-p", "1", "-q", "2", "-N", "256", "--kind", "gelfand",
             "--output", str(target)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert target.stat().st_size > 5_000_000
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_pins_the_column_zero_certificate(capsys):
    code, out, _ = _run(capsys, ["bounds", "-p", "inf", "-q", "1", "-N", "4", "-n", "9"])
    assert code == 0
    by_method = {row[6]: row for row in _csv_rows(out)[1:]}
    row = by_method["column-zero"]
    assert row[5] == "upper"
    assert row[7] == "2"
    assert row[8] == "1"  # exact constant
    assert row[9] == "kept_columns=2;projection_rank=8;residual_columns=2"
    assert "trivial-norm" in by_method
    assert "multiplicativity" not in by_method  # p > q here


def test_bounds_verify_adds_verification_columns(capsys):
    code, out, _ = _run(
        capsys,
        ["bounds", "-p", "2", "-q", "2", "-N", "2", "-n", "1",
         "--verify", "--samples", "10", "--seed", "3"],
    )
    assert code == 0
    header, *data = _csv_rows(out)
    assert header[-3:] == ["verified", "max_ratio", "verify_samples"]
    for row in data:
        assert row[-3] == "1"  # everything verifies


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_bounds_verify_without_samples_is_an_error(capsys, samples):
    code, out, err = _run(
        capsys,
        ["bounds", "-p", "2", "-q", "1", "-N", "4", "-n", "5", "--verify", "--samples", samples],
    )
    assert code == 2
    assert "error: samples must be a positive integer" in err
    assert "verified" not in out


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_norm_runs_without_an_index(capsys):
    code, out, _ = _run(capsys, ["estimate", "-p", "inf", "-q", "1", "-N", "3"])
    assert code == 0
    row = _csv_rows(out)[1]
    assert row[0] == "operator-norm"
    assert row[5] == "3"  # exact value 3 printed compactly
    assert row[9] == "1"  # converged


def test_estimate_prints_the_direct_gelfand_ascent_flag(capsys):
    # the direct (quasi-norm domain) Gelfand search reports whether its
    # final ascent converged; at N = 2 every index is an anchor
    code, out, _ = _run(
        capsys,
        ["estimate", "--kind", "gelfand", "-p", "1/2", "-q", "1", "-N", "3", "-n", "8"],
    )
    assert code == 0
    row = _csv_rows(out)[1]
    assert row[0] == "gelfand" and row[6] == "pg-search"
    assert row[9] == "1"  # converged


def test_estimate_width_requires_an_index(capsys):
    code, _, err = _run(
        capsys, ["estimate", "-p", "1", "-q", "2", "-N", "2", "--kind", "kolmogorov"]
    )
    assert code == 2
    assert "requires -n" in err


@pytest.mark.parametrize("kind", ["norm", "kolmogorov"])
def test_estimate_rejects_a_non_positive_restart_count(capsys, kind):
    code, out, err = _run(
        capsys,
        ["estimate", "--kind", kind, "-p", "1", "-q", "2", "-N", "2", "-n", "3",
         "--restarts", "0"],
    )
    assert code == 2 and out == ""
    assert "error: restarts must be a positive integer" in err


def test_estimate_json_carries_detail(capsys):
    # a searched point (at N = 2 every index is an anchor); at seed 0 the
    # search reads 1/sqrt(2), the sup over its winner span{I, E_12 - E_21}
    code, out, _ = _run(
        capsys,
        ["estimate", "-p", "1", "-q", "2", "-N", "3", "-n", "8",
         "--kind", "kolmogorov", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "estimate"
    assert "config" in payload
    (row,) = payload["rows"]
    assert row["kind"] == "kolmogorov"
    assert float(row["value"]) == pytest.approx(2.0**-0.5, rel=1e-6)
    assert "winner" in row["detail"]


def test_estimate_reports_the_exact_quasi_diagonal_kolmogorov_number(capsys):
    # every Kolmogorov number of S_1/2 -> S_1/2 is 1, also above n = N
    code, out, _ = _run(
        capsys,
        ["estimate", "--kind", "kolmogorov", "-p", "1/2", "-q", "1/2", "-N", "3", "-n", "6",
         "--format", "json"],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert float(row["value"]) == 1.0
    assert row["method"] == "identity-exact"
    assert row["detail"] == {"reduction": "rank-one-annihilator"}


def test_estimate_reports_the_exact_quasi_approximation_number(capsys):
    # p <= q <= 1: d_n = 1 = ||id||, and d_n <= a_n <= ||id||
    code, out, _ = _run(
        capsys,
        ["estimate", "--kind", "approximation", "-p", "1/2", "-q", "3/4", "-N", "3", "-n", "5",
         "--format", "json"],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert float(row["value"]) == 1.0
    assert row["method"] == "identity-exact"
    assert row["detail"] == {"reduction": "width-sandwich"}


@pytest.mark.parametrize("kind, p, q, N, n, method, reduction, value", [
    ("kolmogorov", "1", "inf", "3", "2", "anchor-exact", "rank-one-member", "1"),
    ("approximation", "1/2", "4/3", "3", "9", "anchor-exact", "last-index", "0.759835685652"),
    ("gelfand", "2", "1", "4", "3", "anchor-exact", "hurwitz-radon", "2"),
    ("approximation", "1/2", "4", "2", "3", "anchor-exact", "hurwitz-radon-tail",
     "0.594603557501"),
    ("approximation", "3/4", "inf", "3", "4", "pg-search", "quasi-domain-collapse", None),
])
def test_estimate_names_the_anchor_rule(capsys, kind, p, q, N, n, method, reduction, value):
    code, out, _ = _run(
        capsys,
        ["estimate", "--kind", kind, "-p", p, "-q", q, "-N", N, "-n", n, "--format", "json"],
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["method"] == method
    assert row["detail"]["reduction"] == reduction
    if value is not None:
        assert row["value"] == value


def test_estimate_refuses_a_quasi_codomain_below_the_domain(capsys):
    code, out, err = _run(
        capsys, ["estimate", "--kind", "kolmogorov", "-p", "1", "-q", "1/2", "-N", "2", "-n", "2"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: quasi-norm codomains are supported")


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recovery_sweep_endpoints(capsys):
    code, out, _ = _run(
        capsys,
        ["recovery", "-p", "1", "-q", "2", "-N", "3", "--m-list", "0,9", "--budget", "3"],
    )
    assert code == 0
    header, first, last = _csv_rows(out)
    assert header == ["m", "worst_error", "envelope", "ratio"]
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"
    assert last[0] == "9"
    assert float(last[1]) <= 1e-8  # full information: exact recovery


def test_recovery_rejects_an_empty_matrix_side(capsys):
    code, out, err = _run(capsys, ["recovery", "-p", "1", "-q", "2", "-N", "0", "--m-list", "0"])
    assert code == 2 and out == ""
    assert "error: N must be a positive integer" in err


# ---------------------------------------------------------------------------
# output files and the output-directory environment variable
# ---------------------------------------------------------------------------


def test_output_file_and_env_var_redirect(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code, out, _ = _run(
        capsys,
        ["envelope", "-p", "2", "-q", "2", "-N", "2", "--output", "sub/env.csv"],
    )
    assert code == 0
    target = tmp_path / "sub" / "env.csv"
    assert f"wrote {target}" in out
    assert target.read_text().startswith("# schatten-widths envelope")

    # absolute paths ignore the env var
    absolute = tmp_path / "direct.csv"
    code, out, _ = _run(
        capsys,
        ["envelope", "-p", "2", "-q", "2", "-N", "2", "--output", str(absolute)],
    )
    assert code == 0
    assert absolute.exists()


def test_identical_runs_write_identical_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["estimate", "-p", "1", "-q", "inf", "-N", "2", "--seed", "4"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_subset_runs_and_reports(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["suite", "--checks", "4", "--output", str(report)])
    assert code == 0
    assert "check 4" in out
    assert "1/1 checks passed" in out
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 1
    (entry,) = payload["results"]
    assert entry["number"] == 4
    assert entry["passed"] is True
    assert entry["budget_s"] == 60


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_bad_exponent_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "-p", "zero", "-q", "2", "-N", "2"])
    assert exc.value.code == 2


def test_unreadable_constants_file_is_a_clean_error(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = _run(
        capsys,
        ["envelope", "-p", "1", "-q", "2", "-N", "2", "--constants", str(missing)],
    )
    assert code == 2
    assert "error:" in err


def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = _run(
        capsys, ["envelope", "-p", "1", "-q", "2", "-N", "2", "--output", str(blocker / "x.csv")]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["envelope", "-p", "1", "-q", "2", "-N", "4"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_envelope_piped_into_head_exits_quietly():
    # ``schatten-widths envelope -p 1 -q 2 -N 64 | head -1``: the output
    # (about 0.5 MB) outgrows the pipe buffer, so the writer sees the
    # closed pipe while it still has rows to write
    env = dict(os.environ)
    package_root = str(pathlib.Path(schatten_widths.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "schatten_widths.cli", "envelope", "-p", "1", "-q", "2", "-N", "64"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"# schatten-widths envelope")
    assert code == 141
    assert err == b""
