"""Minimal linear codes from defining sets in affine space: family
constructors, exact closed-form weight distributions, and an exhaustive
oracle that cross-checks every formula."""

from .field import GF, FieldError, field_of_order, make_field
from .combinat import (
    count_A,
    enumerate_part_multisets,
    gamma_cap,
    multinomial,
    phi,
    psi,
    surjections,
)
from .pointset import (
    BudgetExceeded,
    DefiningSet,
    ParameterError,
    family1,
    family2,
    family3,
    family4,
    is_cutting,
    is_scale_invariant,
    tilde_join,
)
from .code import (
    CodeSummary,
    MinimalityResult,
    WeightDistribution,
    ab_check,
    codeword,
    dimension,
    is_minimal_direct,
    summarize,
    weight_distribution_bruteforce,
)
from .spectra import (
    SpectrumReport,
    family1_distribution,
    family1_length,
    family1_tilde_distribution,
    family2_length,
    family2_min_weight,
    family3_length,
    family3_min_weight,
    family4_distribution,
    family4_length,
    family4_tilde_distribution,
    lambda_r_pos,
    lambda_r_zero,
    tilde_transfer,
)

__version__ = "0.1.0"
