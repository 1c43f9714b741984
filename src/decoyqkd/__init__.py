"""Decoy-state QKD session simulation and finite-statistics security estimation.

The package has four layers: probability primitives (`stats`), the physical
source/channel model (`channel`), session simulation under pluggable
photon-number-splitting attacks (`attacks`), and the estimation procedures
that certify vacuum/single-photon detection counts and the secure key rate
without an i.i.d. assumption (`estimator`).  `harness` and `cli` add config
files, experiment orchestration, and CSV/JSON artifact emission.
"""

__version__ = "0.1.0"

from .stats import (
    RngStream,
    as_generator,
    binary_entropy,
    chernoff_binomial_tail_bound,
    chernoff_multiplier,
    poisson_pmf,
    total_variance_decompose,
)
from .channel import (
    ChannelParams,
    ProtocolConfig,
    SourceSpec,
    UndefinedPosteriorError,
    default_n_max,
    photon_number_pmf,
    photon_yield,
    source_posteriors,
    total_yield,
)
from .attacks import (
    AttackContractError,
    AttackSpec,
    SessionPublic,
    SessionRecord,
    VarianceReport,
    analytic_variance_report,
    attack_detections,
    sample_photon_counts,
    sift,
    simulate_session,
    split_by_source,
)
from .estimator import (
    BoundParams,
    EpsilonBudget,
    EstimationResult,
    InfeasibleSessionError,
    KeyRateParams,
    MinimizationResult,
    bayes_dark_posterior,
    build_epsilon_budget,
    coverage_probability,
    estimate_session,
    grid_minimize_detection,
    iid_baseline_estimate,
    key_rate,
    minimize_detection_count,
    share_lower_bound,
    share_upper_bound,
    sifted_lower_bound,
    total_lower_bound,
    total_upper_bound,
)
