"""s-numbers of Schatten-class embeddings.

Tools for the identity embeddings ``S_p^N -> S_q^N`` on real N x N
matrices: closed-form two-sided envelopes for approximation, Gelfand and
Kolmogorov numbers, certified one-sided bounds with verifiable witnesses,
randomized estimators, a brute-force net oracle at N=2, and a nuclear-norm
recovery experiment matching the Gelfand widths of quasi-norm balls.

Names load on first use.  ``import schatten_widths`` imports no
submodule; the first read of a public name (``schatten_widths.net_oracle``)
or of a submodule (``schatten_widths.oracle``) imports the module that
defines it and binds the name here, so later reads are plain attribute
lookups.  A process pays only for the modules it uses.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

#: the public names, by the submodule that defines them
_NAMES_BY_MODULE = {
    "exponents": ("INF", "Exponent", "as_exponent", "dual_exponent", "format_exponent"),
    "core": (
        "EmbeddingSpec", "HullDecomposition", "HullTerm", "LittlewoodReport", "embedding_norm",
        "hull_decompose", "littlewood_check", "pi2_embedding", "schatten_norm",
        "singular_values", "svd",
    ),
    "envelope": (
        "DEFAULT_CONSTANTS", "ConstantsRegistry", "EnvelopeProfile", "EnvelopeValue",
        "envelope_profile", "recovery_envelope",
    ),
    "certificates": (
        "Certificate", "VerificationReport", "lower_certificates", "upper_certificates",
        "verify_certificate",
    ),
    "operators": ("SubspaceBasis", "subspace_from_matrices", "unvec", "vec"),
    "distances": ("distance_schatten",),
    "estimators": (
        "Estimate", "estimate_approx", "estimate_gelfand", "estimate_kolmogorov",
        "operator_norm_estimate",
    ),
    "oracle": ("DEFAULT_ORACLE_SEED", "load_frozen_battery", "net_oracle"),
    "recovery": (
        "DecoderResult", "EnvelopeRatio", "InfoMap", "RecoveryResult", "apply_info_map",
        "build_info_map", "compare_to_envelope", "nuclear_decoder", "worst_case_error",
    ),
    "acceptance": ("CheckResult", "check_numbers", "run_check", "run_suite"),
}

#: each public name and the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

_SUBMODULES = frozenset({*_NAMES_BY_MODULE, "ascent", "cli"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines the public
    name ``name`` and bind the name here (PEP 562)."""
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
