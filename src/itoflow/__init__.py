"""Exact quasi-shuffle and surjection algebra for logarithms of Ito flows.

The symbolic layer works over bracket words (iterated integrals against
products of semimartingale components, bracket = multiset block) and over
surjections (operations reshuffling such integrals).  The numeric layer
evaluates words pathwise on discretized drivers and compares flow-map
truncations for linear matrix equations.

All symbolic coefficients are exact rationals.  The combinatorial kernels
underneath (surjection enumeration, quasi-shuffle interleavings, diamond
embeddings) are plain Python in ``itoflow.kernels``.
"""

from ._config import (
    CapExceeded,
    FloatRangeError,
    caps,
    grade_cap,
    weight_cap,
)
from .kernels import BACKEND
from .words import (
    UNIT_WORD,
    BracketWord,
    Expansion,
    WordParseError,
    block,
    parse_word,
)
from .quasishuffle import (
    bullet,
    half_down,
    half_up,
    qsh,
    qsh_via_surjections,
    shuffle,
    shuffle_projection,
)
from .surjections import (
    Composition,
    SurjElement,
    Surjection,
    apply_element,
    apply_surjection,
    compositions_of,
    descent_sum_exact,
    descent_sum_within,
    diamond,
    embed_composition,
    enumerate_grade,
    enumerate_surjections,
    pack,
    parse_surjection,
)
from .logseries import (
    exp_element,
    identity_series,
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    strichartz_restriction,
    subset_alternating_sum,
)
from .flowmaps import (
    DriverAlphabet,
    LogTerm,
    apply_vanishing_rules,
    linear_field_log,
    log_flow_terms,
)
from .matrixseries import (
    MatrixExpansion,
    entry_letter,
    matrix_exp,
    matrix_ito_taylor,
    matrix_log,
)
from .paths import (
    BundleFormatError,
    DriverSpec,
    GridResolutionWarning,
    PathBundle,
    SamplePath,
    bundle_from_binary,
    bundle_from_csv,
    bundle_to_binary,
    bundle_to_csv,
    discrete_bracket,
    make_grid,
    read_bundle,
    rng_for,
    simulate,
    simulate_bundle,
    write_bundle,
)
from .evaluate import Evaluator
from .flows import (
    FlowProblem,
    compare_flows,
    flow_reference,
    truncated_expm,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BracketWord",
    "BundleFormatError",
    "CapExceeded",
    "Composition",
    "DriverAlphabet",
    "DriverSpec",
    "Evaluator",
    "Expansion",
    "FloatRangeError",
    "FlowProblem",
    "GridResolutionWarning",
    "LogTerm",
    "MatrixExpansion",
    "PathBundle",
    "SUITES",
    "SamplePath",
    "SurjElement",
    "Surjection",
    "UNIT_WORD",
    "WordParseError",
    "apply_element",
    "apply_surjection",
    "apply_vanishing_rules",
    "block",
    "bullet",
    "bundle_from_binary",
    "bundle_from_csv",
    "bundle_to_binary",
    "bundle_to_csv",
    "caps",
    "compare_flows",
    "compositions_of",
    "descent_sum_exact",
    "descent_sum_within",
    "diamond",
    "discrete_bracket",
    "embed_composition",
    "entry_letter",
    "enumerate_grade",
    "enumerate_surjections",
    "exp_element",
    "flow_reference",
    "grade_cap",
    "half_down",
    "half_up",
    "identity_series",
    "linear_field_log",
    "log_flow_terms",
    "log_identity_closed_form",
    "log_identity_series",
    "log_identity_subset_form",
    "make_grid",
    "matrix_exp",
    "matrix_ito_taylor",
    "matrix_log",
    "pack",
    "parse_surjection",
    "parse_word",
    "qsh",
    "qsh_via_surjections",
    "read_bundle",
    "rng_for",
    "run_suite",
    "shuffle",
    "shuffle_projection",
    "simulate",
    "simulate_bundle",
    "strichartz_restriction",
    "subset_alternating_sum",
    "truncated_expm",
    "weight_cap",
    "write_bundle",
]
