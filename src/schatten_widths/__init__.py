"""s-numbers of Schatten-class embeddings.

Tools for the identity embeddings ``S_p^N -> S_q^N`` on real N x N
matrices: closed-form two-sided envelopes for approximation, Gelfand and
Kolmogorov numbers, certified one-sided bounds with verifiable witnesses,
randomized estimators, a brute-force net oracle at N=2, and a nuclear-norm
recovery experiment matching the Gelfand widths of quasi-norm balls.
"""
from .exponents import INF, Exponent, as_exponent, dual_exponent, format_exponent
from .core import (
    EmbeddingSpec,
    HullDecomposition,
    HullTerm,
    LittlewoodReport,
    embedding_norm,
    hull_decompose,
    littlewood_check,
    pi2_embedding,
    schatten_norm,
    singular_values,
    svd,
)
from .envelope import (
    DEFAULT_CONSTANTS,
    ConstantsRegistry,
    CritExponents,
    EnvelopeProfile,
    EnvelopeValue,
    approx_envelope,
    conjectured_envelope,
    crit_exponents,
    envelope_profile,
    gelfand_envelope,
    kolmogorov_envelope,
    recovery_envelope,
)
from .certificates import (
    Certificate,
    VerificationReport,
    lower_certificates,
    upper_certificates,
    verify_certificate,
)
from .operators import (
    OperatorOnMatrices,
    SubspaceBasis,
    identity_operator,
    subspace_from_matrices,
    unvec,
    vec,
)
from .distances import distance_schatten
from .estimators import (
    Estimate,
    estimate_approx,
    estimate_gelfand,
    estimate_kolmogorov,
    operator_norm_estimate,
)
from .oracle import DEFAULT_ORACLE_SEED, load_frozen_battery, net_oracle
from .recovery import (
    DecoderResult,
    EnvelopeRatio,
    InfoMap,
    RecoveryResult,
    apply_info_map,
    build_info_map,
    compare_to_envelope,
    nuclear_decoder,
    worst_case_error,
)
from .acceptance import CheckResult, check_numbers, run_check, run_suite

__version__ = "0.1.0"
