"""Session simulation under pluggable photon-number-splitting attacks.

The eavesdropper sees photon numbers but never the source, so a session
factors into: photon-number sampling per source, attack-controlled
detections per photon class, a source split driven by the photon-number
posterior, and basis sifting.  The config-only quantities (class pmfs,
yields, posteriors) come from channel as one array per call, and each step
is one random draw over all classes.  The block-correlated attack decides
blocks of tau^2 pulses at once, which multiplies the conditional variance
of the detection counts by tau^2 while leaving every mean unchanged.

Pulses above the cutoff n_max are kept in an explicit overflow class
(treated as photon number n_max + 1) so all accounting identities hold
exactly; the expected overflow is bounded by the config tail budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .channel import (ChannelParams, ProtocolConfig, UndefinedPosteriorError, photon_number_pmf,
                      photon_yield, source_posteriors)
from .stats import RngStream, as_generator

__all__ = [
    "AttackSpec",
    "SessionPublic",
    "SessionRecord",
    "VarianceReport",
    "AttackContractError",
    "sample_photon_counts",
    "attack_detections",
    "split_by_source",
    "sift",
    "simulate_session",
    "analytic_variance_report",
]

ATTACK_KINDS = ("none", "iid", "block_correlated", "custom")


class AttackContractError(RuntimeError):
    """A custom attack law returned detection counts outside [0, k_n]."""


@dataclass(frozen=True)
class AttackSpec:
    """Eavesdropping strategy applied to the per-photon-number pulse counts.

    kind "none"/"iid" draw detections independently per pulse; the block
    attack decides blocks of tau^2 pulses at once; "custom" delegates the
    whole conditional law Pr(d_0, d_1, ... | k_0, k_1, ...) to a callable
    receiving the k-vector and the generator.
    """

    kind: str = "none"
    tau: int = 1
    yields_override: Mapping[int, float] | None = None
    custom_law: Callable[[np.ndarray, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if self.tau < 1 or self.tau != int(self.tau):
            raise ValueError(f"tau must be an integer >= 1, got {self.tau}")
        if self.yields_override is not None:
            for n, y in self.yields_override.items():
                if n < 0 or not 0.0 <= y <= 1.0:
                    raise ValueError(f"yield override for n={n} must lie in [0, 1], got {y}")
        if (self.kind == "custom") != (self.custom_law is not None):
            raise ValueError("custom_law must be supplied exactly when kind='custom'")

    def yield_for(self, n, channel: ChannelParams):
        """Detection probability of an n-photon pulse under this attack (n: int or array)."""
        ns = np.atleast_1d(n)
        y = photon_yield(ns, channel)
        for m, override in (self.yields_override or {}).items():
            y[ns == m] = override
        return y if np.ndim(n) else float(y[0])


@dataclass(frozen=True)
class SessionPublic:
    """What Alice and Bob learn by public discussion after a session."""

    K: int
    K_i: tuple[int, ...]
    D_iE: tuple[int, ...]
    D_E: int
    F_E: int


@dataclass(frozen=True)
class SessionRecord:
    """Full transcript of one simulated session.

    The hidden per-photon-number arrays (k_n, d_nE, d_niE, f_nE) are ground
    truth no protocol party observes; they are retained so estimator
    soundness can be checked against them.  Array index n_max + 1 is the
    overflow class.
    """

    K: int
    K_i: tuple[int, ...]
    D_iE: tuple[int, ...]
    D_E: int
    F_E: int
    k_n: np.ndarray
    d_nE: np.ndarray
    d_niE: np.ndarray
    f_nE: np.ndarray
    n_max: int
    labels: tuple[str, ...]
    seed: tuple[int, int] | None
    overflow_pulses: int = 0
    warnings: tuple[str, ...] = ()

    def public(self) -> SessionPublic:
        return SessionPublic(self.K, self.K_i, self.D_iE, self.D_E, self.F_E)

    def check_identities(self) -> None:
        """Assert the exact accounting identities; raises AssertionError on breakage."""
        assert sum(self.K_i) == self.K
        assert int(self.k_n.sum()) == self.K
        assert int(self.d_nE.sum()) == self.D_E
        assert sum(self.D_iE) == self.D_E
        assert np.array_equal(self.d_niE.sum(axis=1), self.d_nE)
        assert np.array_equal(self.d_niE.sum(axis=0), np.asarray(self.D_iE))
        assert np.all(self.d_nE <= self.k_n) and np.all(self.d_nE >= 0)
        assert np.all(self.f_nE <= self.d_nE)
        assert int(self.f_nE.sum()) == self.F_E

    def to_dict(self) -> dict:
        return {
            "public": {
                "K": self.K,
                "K_i": list(self.K_i),
                "D_iE": list(self.D_iE),
                "D_E": self.D_E,
                "F_E": self.F_E,
            },
            "hidden": {
                "k_n": self.k_n.tolist(),
                "d_nE": self.d_nE.tolist(),
                "d_niE": self.d_niE.tolist(),
                "f_nE": self.f_nE.tolist(),
            },
            "n_max": self.n_max,
            "labels": list(self.labels),
            "seed": list(self.seed) if self.seed is not None else None,
            "overflow_pulses": self.overflow_pulses,
            "warnings": list(self.warnings),
        }


def sample_photon_counts(config: ProtocolConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-source pulse counts K_i and per-(source, class) photon counts.

    Equivalent to sampling every pulse independently: the source is picked
    with probability q_i, then the photon number from Poisson(mu_i).
    Returns (K_i shape (S,), k_ni shape (S, n_max + 2)); the last class
    collects pulses above n_max.
    """
    gen = as_generator(rng)
    K_i = gen.multinomial(config.K, config.qs)
    return K_i, gen.multinomial(K_i, config.photon_class_pmf(config.mus))


def attack_detections(attack: AttackSpec, k_n, channel: ChannelParams, rng) -> np.ndarray:
    """Sample the detection counts d_n for each photon class given pulse counts k_n.

    Blocks of tau^2 pulses (tau = 1 for none/iid) are detected all-or-nothing
    with probability y_n and the k_n mod tau^2 remainder pulses one by one,
    drawn class by class, blocks first: mean y_n k_n, and variance
    tau^2 y_n (1 - y_n) k_n whenever tau^2 divides k_n.
    """
    gen = as_generator(rng)
    k_n = np.asarray(k_n, dtype=np.int64)
    if np.any(k_n < 0):
        raise ValueError("pulse counts must be >= 0")
    if attack.kind == "custom":
        d = np.asarray(attack.custom_law(k_n.copy(), gen), dtype=np.int64)
        if d.shape != k_n.shape or np.any(d < 0) or np.any(d > k_n):
            raise AttackContractError("custom law must return counts with 0 <= d_n <= k_n")
        return d
    tau2 = attack.tau * attack.tau if attack.kind == "block_correlated" else 1
    y = attack.yield_for(np.arange(len(k_n)), channel)
    draws = gen.binomial(np.concatenate(np.divmod(k_n[:, None], tau2), axis=1), y[:, None])
    return tau2 * draws[:, 0] + draws[:, 1]


def split_by_source(d_n, sources, rng) -> np.ndarray:
    """Attribute each class's detections to sources via the photon-number posterior.

    Multinomial split with probabilities q_n^i, so the per-source marginals
    are binomial and the split sums to d_n exactly.  Returns shape
    (len(d_n), len(sources)).
    """
    gen = as_generator(rng)
    d_n = np.asarray(d_n, dtype=np.int64)
    post = source_posteriors(np.arange(len(d_n)), sources)
    if np.any((d_n > 0) & ~post.any(axis=1)):
        raise UndefinedPosteriorError("detections in a photon class that no source can emit")
    return gen.multinomial(d_n, post)  # a class with no detections draws nothing


def sift(d_n, rng) -> tuple[np.ndarray, int]:
    """Basis sifting: each detection survives with probability 1/2, independently."""
    f_n = as_generator(rng).binomial(np.asarray(d_n, dtype=np.int64), 0.5)
    return f_n, int(f_n.sum())


def simulate_session(config: ProtocolConfig, attack: AttackSpec, rng) -> SessionRecord:
    """Run one full session; deterministic given (config, attack, rng stream)."""
    seed = (rng.seed, rng.stream_id) if isinstance(rng, RngStream) else None
    gen = as_generator(rng)
    K_i, k_ni = sample_photon_counts(config, gen)
    k_n = k_ni.sum(axis=0)
    d_n = attack_detections(attack, k_n, config.channel, gen)
    d_ni = split_by_source(d_n, config.sources, gen)
    f_n, F_E = sift(d_n, gen)
    overflow = int(k_n[-1])
    warn: tuple[str, ...] = ()
    if overflow > config.tail_budget:
        warn = (f"overflow bucket holds {overflow} pulses, over tail budget {config.tail_budget:.3g}",)
    return SessionRecord(
        K=config.K,
        K_i=tuple(int(v) for v in K_i),
        D_iE=tuple(int(v) for v in d_ni.sum(axis=0)),
        D_E=int(d_n.sum()),
        F_E=F_E,
        k_n=k_n,
        d_nE=d_n,
        d_niE=d_ni,
        f_nE=f_n,
        n_max=config.n_max,
        labels=config.labels,
        seed=seed,
        overflow_pulses=overflow,
        warnings=warn,
    )


@dataclass(frozen=True)
class VarianceReport:
    """Closed-form spread of the per-source detection rates Z_i = D_i / K_i.

    var_ni[n, j] is the variance of the source-j detections from n-photon
    pulses; sigma_i[j] aggregates them into the standard deviation of Z_j
    assuming the photon classes contribute independently (large-K limit).
    """

    tau: int
    labels: tuple[str, ...]
    sigma_i: np.ndarray
    var_ni: np.ndarray

    def sigma(self, label: str) -> float:
        return float(self.sigma_i[self.labels.index(label)])

    def to_row(self) -> dict:
        row = {"tau": self.tau}
        row.update({f"sigma_{lab}": float(s) for lab, s in zip(self.labels, self.sigma_i)})
        return row


def analytic_variance_report(config: ProtocolConfig, tau: int) -> VarianceReport:
    """Evaluate the correlated-attack variance formula for every (n, source).

    var(d_n^i) = [(tau^2 - 1) q_n^i (1 - y_n) + (1 - q_n^i y_n p_n)] q_n^i y_n p_n K
    summed over n = 0..n_max; tau = 1 reduces to the i.i.d. binomial value.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    ns = np.arange(config.n_max + 1)
    q_ni = source_posteriors(ns, config.sources)  # (N, S) in C order, as the sum below needs
    p_n = photon_number_pmf(ns, config.sources)[:, None]
    y_n = photon_yield(ns, config.channel)[:, None]
    var_ni = ((tau * tau - 1) * q_ni * (1 - y_n) + (1 - q_ni * y_n * p_n)) * q_ni * y_n * p_n * config.K
    sigma_i = np.sqrt(var_ni.sum(axis=0)) / (config.qs * config.K)
    return VarianceReport(tau=int(tau), labels=config.labels, sigma_i=sigma_i, var_ni=var_ni)
