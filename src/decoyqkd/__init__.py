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
    chernoff_binomial_tail_bound,
    poisson_pmf,
    total_variance_decompose,
)
from .channel import (
    ChannelParams,
    ProtocolConfig,
    SourceSpec,
    source_posteriors,
    total_yield,
)
from .attacks import (
    AttackSpec,
    SessionPublic,
    analytic_variance_report,
    simulate_session,
)
from .estimator import (
    BoundParams,
    KeyRateParams,
    bayes_dark_posterior,
    build_epsilon_budget,
    coverage_probability,
    estimate_session,
    grid_minimize_detection,
    iid_baseline_estimate,
    minimize_detection_count,
    share_lower_bound,
    share_upper_bound,
    total_lower_bound,
    total_upper_bound,
)
