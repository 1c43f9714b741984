"""Physical model: decoy sources, channel yields, and photon-number mixtures.

The source set is a list of weak coherent sources with distinct intensities,
one of which is selected at random for every pulse.  All probabilities here
describe the channel without an eavesdropper; attack modules override the
per-photon-number yields.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _st

from .stats import poisson_pmf

__all__ = [
    "SourceSpec",
    "ChannelParams",
    "ProtocolConfig",
    "validate_sources",
    "photon_yield",
    "total_yield",
    "photon_number_pmf",
    "source_posteriors",
    "default_n_max",
    "UndefinedPosteriorError",
]

N_MAX_CAP = 40


class UndefinedPosteriorError(ValueError):
    """No source assigns mass to the requested photon number."""


@dataclass(frozen=True)
class SourceSpec:
    """One decoy source: label, mean photon number, selection probability."""

    label: str
    mu: float
    q: float

    def __post_init__(self):
        if not (self.mu >= 0) or math.isinf(self.mu):
            raise ValueError(f"source {self.label}: mu must be finite and >= 0, got {self.mu}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"source {self.label}: selection probability must lie in (0, 1], got {self.q}")


@dataclass(frozen=True)
class ChannelParams:
    """Transmission/detection efficiency eta and dark-count rate y0."""

    eta: float
    y0: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 <= self.y0 < 1.0:
            raise ValueError(f"y0 must lie in [0, 1), got {self.y0}")


def validate_sources(sources) -> tuple[SourceSpec, ...]:
    """Check normalization and label uniqueness of a source set."""
    sources = tuple(sources)
    if not sources:
        raise ValueError("at least one source is required")
    labels = [s.label for s in sources]
    if len(set(labels)) != len(labels):
        raise ValueError(f"source labels must be unique, got {labels}")
    qsum = math.fsum(s.q for s in sources)
    if abs(qsum - 1.0) > 1e-12:
        raise ValueError(f"source selection probabilities must sum to 1 within 1e-12, got {qsum!r}")
    return sources


def photon_yield(n: int, channel: ChannelParams) -> float:
    """Detection probability for an n-photon pulse: y0 at n=0, else 1-(1-eta)^n.

    Every caller routes through here, so this is the single place to swap in
    a different loss model.
    """
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n}")
    if n == 0:
        return channel.y0
    return -math.expm1(n * math.log1p(-channel.eta)) if channel.eta < 1.0 else 1.0


def total_yield(mu: float, channel: ChannelParams) -> float:
    """Pulse detection probability for a source of intensity mu.

    Closed form e^-mu * y0 + 1 - e^(-mu*eta); equals the Poisson-weighted
    sum of per-photon-number yields.
    """
    if not mu >= 0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    return math.exp(-mu) * channel.y0 - math.expm1(-mu * channel.eta)


def photon_number_pmf(n: int, sources) -> float:
    """Mixture probability that a pulse carries n photons, over the source set."""
    sources = validate_sources(sources)
    return math.fsum(s.q * poisson_pmf(n, s.mu) for s in sources)


def _log_weights(n: int, sources) -> np.ndarray:
    """log of q^i e^{-mu^i} (mu^i)^n per source (-inf where the mass is zero)."""
    out = np.full(len(sources), -np.inf)
    for j, s in enumerate(sources):
        if s.mu == 0.0:
            if n == 0:
                out[j] = math.log(s.q)
        else:
            out[j] = math.log(s.q) - s.mu + n * math.log(s.mu)
    return out


def source_posteriors(n: int, sources) -> np.ndarray:
    """Probability vector that an n-photon pulse came from each source.

    Log-space softmax of q^i e^{-mu^i} (mu^i)^n, stable for large n.
    """
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n}")
    sources = validate_sources(sources)
    logw = _log_weights(n, sources)
    top = logw.max()
    if not np.isfinite(top):
        raise UndefinedPosteriorError(f"no source assigns mass to photon number {n}")
    w = np.exp(logw - top)
    return w / w.sum()


def _tail_mass(n: int, sources) -> float:
    """Mixture probability of a pulse carrying more than n photons."""
    return float(sum(s.q * _st.poisson.sf(n, s.mu) for s in sources if s.mu > 0))


def default_n_max(K: int, sources, tail_budget: float = 1e-3) -> int:
    """Smallest cutoff with K * Pr[n > cutoff] below the tail budget, capped at 40."""
    for n in range(2, N_MAX_CAP):
        if K * _tail_mass(n, sources) < tail_budget:
            return n
    return N_MAX_CAP


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters: sources, channel, pulse count, photon-number cutoff.

    n_max defaults to the smallest cutoff whose ignored tail is expected to
    contain fewer than tail_budget pulses (capped at 40).  Passing a smaller
    n_max is allowed for reduced test instances; the constructor then emits
    a warning and the simulator reports any overflow pulses it actually saw.
    """

    sources: tuple[SourceSpec, ...]
    channel: ChannelParams
    K: int
    n_max: int | None = None
    tail_budget: float = 1e-3
    expected_overflow: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "sources", validate_sources(self.sources))
        if self.K < 1:
            raise ValueError(f"total pulse count K must be >= 1, got {self.K}")
        if not self.tail_budget > 0:
            raise ValueError(f"tail budget must be > 0, got {self.tail_budget}")
        if self.n_max is None:
            object.__setattr__(self, "n_max", default_n_max(self.K, self.sources, self.tail_budget))
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        object.__setattr__(self, "expected_overflow", self.K * _tail_mass(self.n_max, self.sources))
        if self.expected_overflow > self.tail_budget:
            warnings.warn(
                f"expected {self.expected_overflow:.3g} pulses above n_max={self.n_max}, "
                f"over the tail budget {self.tail_budget:.3g}",
                stacklevel=2,
            )

    @property
    def qs(self) -> np.ndarray:
        return np.array([s.q for s in self.sources])

    @property
    def mus(self) -> np.ndarray:
        return np.array([s.mu for s in self.sources])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.sources)

    def photon_class_pmf(self, mu: float) -> np.ndarray:
        """Per-class probabilities (n = 0..n_max, then the overflow bucket)."""
        probs = np.array([poisson_pmf(n, mu) for n in range(self.n_max + 1)])
        total = probs.sum()
        if total > 1.0:  # float roundoff when the tail is below double precision
            probs = probs / total
            total = 1.0
        return np.append(probs, 1.0 - total)
