"""Physical model: decoy sources, channel yields, and photon-number mixtures.

The source set is a list of weak coherent sources with distinct intensities,
one of which is selected at random for every pulse.  All probabilities here
describe the channel without an eavesdropper; attack modules override the
per-photon-number yields.

The sources' Poisson mixture has three views, its pmf p_n, the source
posteriors q_n^i and its tail mass, each evaluated in one place over an
array of photon numbers (a single n gives a float, or one posterior vector).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import pdtrc

from .stats import libm, poisson_pmf

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


def _photon_numbers(n) -> np.ndarray:
    """n as a 1-D array of photon numbers, checked to be >= 0."""
    ns = np.atleast_1d(np.asarray(n))
    if np.any(ns < 0):
        raise ValueError(f"photon count must be >= 0, got {n}")
    return ns


def photon_yield(n, channel: ChannelParams):
    """Detection probability for an n-photon pulse: y0 at n=0, else 1-(1-eta)^n.

    Every caller routes through here, so this is the single place to swap in
    a different loss model.
    """
    ns = _photon_numbers(n)
    y = -libm(math.expm1, ns * math.log1p(-channel.eta)) if channel.eta < 1.0 else np.ones(len(ns))
    y[ns == 0] = channel.y0
    return y if np.ndim(n) else float(y[0])


def total_yield(mu: float, channel: ChannelParams) -> float:
    """Pulse detection probability for a source of intensity mu.

    Closed form e^-mu * y0 + 1 - e^(-mu*eta); equals the Poisson-weighted
    sum of per-photon-number yields.
    """
    if not mu >= 0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    return math.exp(-mu) * channel.y0 - math.expm1(-mu * channel.eta)


def _mixture(sources) -> tuple[np.ndarray, np.ndarray]:
    """The validated source set as columns (q^i, mu^i), shape (S, 1) each."""
    sources = validate_sources(sources)
    return np.array([[s.q] for s in sources]), np.array([[s.mu] for s in sources])


def photon_number_pmf(n, sources):
    """Mixture probability p_n = sum_i q^i Poisson(n; mu^i), summed over sources by math.fsum."""
    q, mu = _mixture(sources)
    terms = q * poisson_pmf(_photon_numbers(n), mu)  # (S, N)
    p = np.fromiter(map(math.fsum, terms.T.tolist()), float, terms.shape[1])
    return p if np.ndim(n) else float(p[0])


def source_posteriors(n, sources) -> np.ndarray:
    """Probability q_n^i that an n-photon pulse came from source i.

    Log-space softmax of q^i e^{-mu^i} (mu^i)^n, stable for large n.  An
    array of N photon numbers gives the (N, S) matrix, with a zero row for a
    class no source can emit; for a single such n, UndefinedPosteriorError.
    """
    q, mu = _mixture(sources)
    ns = _photon_numbers(n)[:, None]
    emits = (mu > 0.0).T
    log_q = libm(math.log, q).T
    log_mu = libm(math.log, np.where(emits, mu.T, 1.0))
    logw = np.where(emits, log_q - mu.T + ns * log_mu, np.where(ns == 0, log_q, -np.inf))
    top = logw.max(axis=1, keepdims=True)
    defined = np.isfinite(top)
    if np.ndim(n) == 0 and not defined[0, 0]:
        raise UndefinedPosteriorError(f"no source assigns mass to photon number {n}")
    w = np.exp(logw - np.where(defined, top, 0.0))  # rows of undefined classes are 0
    post = np.divide(w, w.sum(axis=1, keepdims=True), out=np.zeros_like(w), where=defined)
    return post if np.ndim(n) else post[0]


def _tail_mass(n, sources) -> np.ndarray:
    """Mixture probability Pr[a pulse carries more than n photons], per entry of the array n."""
    q, mu = _mixture(sources)
    return (q * pdtrc(n, mu)).sum(axis=0)  # pdtrc(n, 0) = 0: the vacuum adds nothing


def _cutoff(overflow: np.ndarray, tail_budget: float) -> int:
    """Smallest n in 2..N_MAX_CAP-1 with overflow[n] below the budget, else N_MAX_CAP."""
    below = np.flatnonzero(overflow[2:N_MAX_CAP] < tail_budget)
    return int(below[0]) + 2 if below.size else N_MAX_CAP


def default_n_max(K: int, sources, tail_budget: float = 1e-3) -> int:
    """Smallest cutoff with K * Pr[n > cutoff] below the tail budget, capped at 40."""
    return _cutoff(K * _tail_mass(np.arange(N_MAX_CAP), sources), tail_budget)


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
        if self.n_max is not None and self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        # overflow[n]: the expected pulses above cutoff n
        overflow = self.K * _tail_mass(np.arange(max(self.n_max or 0, N_MAX_CAP) + 1), self.sources)
        if self.n_max is None:
            object.__setattr__(self, "n_max", _cutoff(overflow, self.tail_budget))
        object.__setattr__(self, "expected_overflow", float(overflow[self.n_max]))
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

    def photon_class_pmf(self, mu) -> np.ndarray:
        """Per-class probabilities (n = 0..n_max, then the overflow bucket), a row per entry of mu."""
        probs = poisson_pmf(np.arange(self.n_max + 1), np.asarray(mu)[..., None])
        total = probs.sum(axis=-1, keepdims=True)  # above 1 by roundoff when the tail is negligible
        probs = np.where(total > 1.0, probs / total, probs)
        return np.concatenate([probs, 1.0 - np.minimum(total, 1.0)], axis=-1)
