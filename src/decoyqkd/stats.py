"""Probability primitives shared by the simulator and the estimators.

Everything here is pure: samplers take an explicit random stream, the tail
bounds and entropies are closed-form, and the law-of-total-variance helper
enumerates exact finite joints (in rational arithmetic, so it can serve as
a bit-tight oracle for the attack-variance formulas).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "RngStream",
    "as_generator",
    "poisson_pmf",
    "chernoff_multiplier",
    "chernoff_binomial_tail_bound",
    "binary_entropy",
    "total_variance_decompose",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: same (seed, stream_id) -> same samples.

    Distinct stream_ids under one seed yield statistically independent
    streams (numpy SeedSequence spawn keys), which is what the Monte Carlo
    drivers use to parallelize sessions reproducibly.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def as_generator(rng) -> np.random.Generator:
    """Normalize an RngStream, Generator, or integer seed to a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def libm(fn, x) -> np.ndarray:
    """fn, a math-module function, on every entry of x (numpy's SIMD versions differ in the last bit)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def poisson_pmf(n, mu):
    """Probability that a coherent pulse of mean photon number mu carries n photons.

    Evaluated in log space; exact 1.0 at (0, 0) and 0.0 for n >= 1 when mu = 0.
    n and mu broadcast against each other: scalars give a float, arrays an
    array of the broadcast shape.
    """
    n, mu = np.asarray(n), np.asarray(mu, dtype=float)
    if (n < 0).any() or (n != n // 1).any():
        raise ValueError(f"photon count must be a nonnegative integer, got {n}")
    if not (mu >= 0).all() or np.isinf(mu).any():
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu}")
    emits = mu > 0.0
    log_mu = libm(math.log, np.where(emits, mu, 1.0))
    p = np.where(emits, libm(math.exp, n * log_mu - mu - libm(math.lgamma, n + 1)), n == 0)
    return float(p) if p.ndim == 0 else p


def chernoff_multiplier(epsilon: float) -> float:
    """Gaussian-approximation multiplier c = 2*sqrt(|ln epsilon|).

    A band of c standard deviations around a binomial mean has tail mass
    below epsilon only where the normal approximation holds; it is not a
    bound for small counts.  Only the i.i.d. baseline uses it, to model the
    textbook analysis.  The certified estimator takes its bands from the
    Bernstein envelope instead (see chernoff_binomial_tail_bound).
    Natural logarithm throughout; c = 0 exactly when epsilon = 1.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"error probability must lie in (0, 1], got {epsilon}")
    return 2.0 * math.sqrt(abs(math.log(epsilon)))


def chernoff_binomial_tail_bound(k: float, n: int, a: float) -> float:
    """Bernstein bound on Pr[X > k] for X ~ Binomial(n, a).

    With v = n a (1-a) and t = k - n a >= 0, returns
    exp(-(9/4) (sqrt(2v + 4t/3) - sqrt(2v))^2), the exact inverse of the
    half-width t = sqrt(2 v L) + L/3 at which Bernstein's inequality
    (Boucheron-Lugosi-Massart, Concentration Inequalities, Thm 2.10)
    gives Pr[X - n a >= t] <= e^-L.  It holds for every deviation, the
    Poisson regime of strongly skewed binomials included, and by symmetry
    for the lower tail Pr[X < n a - t].  Returns 1 for k below the mean,
    where the one-sided bound is vacuous (callers apply the two-sided
    factor 2 themselves).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"success probability must lie strictly in (0, 1), got {a}")
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    mean = n * a
    if k < mean:
        return 1.0
    two_v = 2.0 * n * a * (1.0 - a)
    root = math.sqrt(two_v + 4.0 * (k - mean) / 3.0) - math.sqrt(two_v)
    return math.exp(-2.25 * root * root)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits; 0*log2(0) := 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def total_variance_decompose(joint: np.ndarray) -> tuple[float, float]:
    """Evaluate both sides of Var[Y] = E[Var[Y|X]] + Var[E[Y|X]] on a finite joint.

    ``joint[x, y]`` is Pr(X=x, Y=y) on support {0..Kx} x {0..Ky} and must be
    normalized to 1 within 1e-12.  Both sides are computed in exact rational
    arithmetic (double inputs are dyadic rationals), so each returned float
    is the correctly rounded value of the same real number and the identity
    holds to the last ulp.  Used as the oracle for the conditional-variance
    composition behind the correlated-attack formulas.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint distribution must be a 2-D array")
    if np.any(joint < 0):
        raise ValueError("joint distribution entries must be >= 0")
    total = math.fsum(joint.ravel().tolist())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"joint distribution must be normalized: |sum - 1| = {abs(total - 1.0):.3e}")

    rows = [[Fraction(v) for v in row] for row in joint.tolist()]
    s = sum(sum(row) for row in rows)  # exact mass, divides out below
    ny = joint.shape[1]
    ys = [Fraction(y) for y in range(ny)]

    # lhs from the Y marginal
    marg = [sum(rows[x][y] for x in range(joint.shape[0])) for y in range(ny)]
    ey = sum(m * y for m, y in zip(marg, ys)) / s
    ey2 = sum(m * y * y for m, y in zip(marg, ys)) / s
    lhs = ey2 - ey * ey

    # rhs from the conditionals; zero-mass x rows carry no weight
    e_cond_var = Fraction(0)
    e_cond_mean = Fraction(0)
    e_cond_mean2 = Fraction(0)
    for row in rows:
        fx = sum(row)
        if fx == 0:
            continue
        m1 = sum(p * y for p, y in zip(row, ys)) / fx
        m2 = sum(p * y * y for p, y in zip(row, ys)) / fx
        w = fx / s
        e_cond_var += w * (m2 - m1 * m1)
        e_cond_mean += w * m1
        e_cond_mean2 += w * m1 * m1
    rhs = e_cond_var + (e_cond_mean2 - e_cond_mean * e_cond_mean)
    return float(lhs), float(rhs)
