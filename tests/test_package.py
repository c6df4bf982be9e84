"""The package namespace: public names bound on first read, and the
modules that ``import schatten_widths`` and the CLI load."""
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import schatten_widths as sw

#: the public names of the package, sorted
PUBLIC = sorted([
    "CheckResult", "Certificate", "ConstantsRegistry", "DEFAULT_CONSTANTS",
    "DEFAULT_ORACLE_SEED", "DecoderResult", "EmbeddingSpec", "EnvelopeProfile",
    "EnvelopeRatio", "EnvelopeValue", "Estimate", "Exponent", "HullDecomposition",
    "HullTerm", "INF", "InfoMap", "LittlewoodReport", "RecoveryResult", "SubspaceBasis",
    "VerificationReport", "apply_info_map", "as_exponent", "build_info_map",
    "check_numbers", "compare_to_envelope", "distance_schatten", "dual_exponent",
    "embedding_norm", "envelope_profile", "estimate_approx", "estimate_gelfand",
    "estimate_kolmogorov", "format_exponent", "hull_decompose", "littlewood_check",
    "load_frozen_battery", "lower_certificates", "net_oracle", "nuclear_decoder",
    "operator_norm_estimate", "pi2_embedding", "recovery_envelope", "run_check",
    "run_suite", "schatten_norm", "singular_values", "subspace_from_matrices", "svd",
    "unvec", "upper_certificates", "vec", "verify_certificate", "worst_case_error",
])


def _modules_loaded_by(code):
    """The ``schatten_widths`` submodules loaded after running ``code`` in a
    fresh interpreter."""
    env = dict(os.environ)
    package_root = str(pathlib.Path(sw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    report = (
        "import json, sys; print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('schatten_widths.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(json.loads(out.stdout))


def test_importing_the_package_loads_no_submodule():
    assert _modules_loaded_by("import schatten_widths") == set()


def test_importing_the_cli_leaves_the_command_modules_unloaded():
    loaded = _modules_loaded_by("import schatten_widths.cli")
    assert "schatten_widths.cli" in loaded
    deferred = {"acceptance", "certificates", "recovery", "oracle", "distances"}
    assert not loaded & {f"schatten_widths.{name}" for name in deferred}


def test_reading_a_name_loads_only_what_its_module_needs():
    loaded = _modules_loaded_by("import schatten_widths as sw; sw.as_exponent")
    assert loaded == {"schatten_widths.exponents"}


def test_the_public_names_are_the_defining_modules_objects():
    assert sorted(sw.__all__) == PUBLIC
    for name, module in sw._EXPORTS.items():
        assert getattr(sw, name) is getattr(importlib.import_module(f"schatten_widths.{module}"), name)
        assert name in vars(sw)  # bound on first read
    assert set(PUBLIC) <= set(dir(sw))


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from schatten_widths import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


def test_submodules_resolve_as_attributes():
    for name in sorted(sw._SUBMODULES):
        assert getattr(sw, name) is importlib.import_module(f"schatten_widths.{name}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="schatten_widths.*no_such_name"):
        sw.no_such_name
    with pytest.raises(ImportError):
        exec("from schatten_widths import no_such_name", {})
