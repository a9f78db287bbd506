"""Desk-scale laboratory for primes p in short intervals with ||p*alpha|| small.

Building blocks: exact continued-fraction arithmetic and certified angle
oracles (alpha), segmented sieving and arithmetic tables (sieve), the
periodized Gaussian weight and its Fourier form (smoothing), closed-form
exponential sums and the standard min-sum estimate (expsum), the bilinear
decomposition with its type I/II sums and bound chains (vaughan), and the
experiment runners, sweeps and acceptance suite on top.
"""

from .alpha import (
    AlphaSpec,
    AngleOracle,
    Convergent,
    build_angle_oracle,
    cf_terms,
    convergents,
    find_q_in_window,
    parse_alpha,
)
from .config import (
    AdmissibilityReport,
    ExperimentConfig,
    check_admissible,
    config_from_dict,
    select_q,
)
from .expsum import (
    MinSumInstance,
    empirical_constant,
    linear_exp_sum,
    min_sum,
    standard_estimate_bound,
)
from .experiments import (
    run_bound_suite,
    run_prime_count,
    run_smoothed_sum,
    sweep,
)
from .report import SumReport, report_to_json, reports_to_csv
from .sieve import (
    IntervalSieve,
    SmallTables,
    mangoldt_sum_interval,
    primes_with_small_angle,
    sieve_interval,
    small_tables,
)
from .smoothing import (
    SmoothingKernel,
    build_kernel,
    f_direct,
    f_fourier,
    truncation_bound,
)
from .vaughan import (
    SumContext,
    VaughanParams,
    gamma_counts,
    s1_type_i,
    t1_sum,
    t2_bound_chain,
    t2_sum,
    t3_t4_t5_split,
    vaughan_pieces,
)

__version__ = "0.1.0"
