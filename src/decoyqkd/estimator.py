"""Finite-statistics estimation of vacuum and single-photon detection counts.

Given only the public transcript (per-source pulse and detection totals),
the estimator lower-bounds the detections caused by empty and single-photon
pulses, then the same-basis (sifted) counts, then the secure key rate --
with a caller-chosen failure budget and no independence assumption on the
attack.  The only distributional fact used is that the source split of each
photon class is binomial with the known posterior q_n^i, which holds for
any attack because the eavesdropper cannot see the source.

The per-class confidence statements come from one Bernstein envelope,
q d +/- (sqrt(2 q(1-q) d L) + L/3), and become quadratic constraints on
x_n = sqrt(d_n).  The vacuum source emits only class 0, so its upper band
alone bounds the vacuum count in closed form.  The single-photon
minimization is convex in d and solved in x by SLSQP; a Lagrangian dual
bound certifies each result, so the deterministic start grid runs past its
first start only while the duality gap stays open.  A start outside the
bands first goes to the phase-I problem (the smallest band violation),
whose dual bound certifies every protocol abort.  An exhaustive grid
oracle on n_max = 2 checks the solver independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy import optimize as _opt
from scipy import stats as _st

from .channel import ProtocolConfig, photon_number_pmf, photon_yield, source_posteriors
from .stats import binary_entropy, chernoff_multiplier, poisson_pmf

__all__ = [
    "EpsilonBudget",
    "BoundParams",
    "KeyRateParams",
    "MinimizationResult",
    "EstimationResult",
    "InfeasibleSessionError",
    "build_epsilon_budget",
    "share_upper_bound",
    "share_lower_bound",
    "total_lower_bound",
    "total_upper_bound",
    "minimize_detection_count",
    "grid_minimize_detection",
    "sifted_lower_bound",
    "key_rate",
    "check_transcript",
    "estimate_session",
    "iid_baseline_estimate",
    "bayes_dark_posterior",
    "coverage_probability",
]

LN2 = math.log(2.0)
# minimizer gates: band violations relative to each row's scale (_band_system),
# the duality gap relative to the best value with a one-detection floor
FEASIBILITY_TOL = 1e-8  # largest violation of an accepted solution
ABORT_TOL = 1e-6        # violation a phase-I dual bound must prove before an abort
GAP_TOL = 1e-10         # duality gap that ends the multi-start search


class InfeasibleSessionError(RuntimeError):
    """The transcript admits no detection counts inside the confidence bands.

    Honest data is feasible with probability >= 1 - eps_bar, so this is a
    protocol-abort signal: no key is claimable.
    """


@dataclass(frozen=True)
class EpsilonBudget:
    """Decomposition of the total failure budget across estimation steps.

    eps_n[n] is the two-sided budget for photon class n.  With
    L_n = ln(2/eps_n), each side of the class band misses with probability
    at most e^-L_n = eps_n/2 under the Bernstein envelope of half-width
    c_n sqrt(q(1-q)d) + b_n, where c_n = sqrt(2 L_n) and b_n = L_n/3.
    delta_bar, c_delta and b_delta cover the one-sided sifting step the
    same way, with L_delta = ln(2/eps_dsp).  eps_bar = num_sources *
    sum(eps_n) and eps_bar + delta_bar <= eps_dsp by construction.
    """

    eps_dsp: float
    n_max: int
    num_sources: int
    eps_n: np.ndarray
    c_n: np.ndarray
    b_n: np.ndarray
    eps_bar: float
    delta_bar: float
    c_delta: float
    b_delta: float

    def to_dict(self) -> dict:
        return {
            "eps_dsp": self.eps_dsp,
            "n_max": self.n_max,
            "num_sources": self.num_sources,
            "eps_n": self.eps_n.tolist(),
            "c_n": self.c_n.tolist(),
            "b_n": self.b_n.tolist(),
            "eps_bar": self.eps_bar,
            "delta_bar": self.delta_bar,
            "c_delta": self.c_delta,
            "b_delta": self.b_delta,
        }


def build_epsilon_budget(eps_dsp: float, n_max: int, num_sources: int = 3) -> EpsilonBudget:
    """Allocate eps_dsp across photon classes and the sifting step.

    eps_n = eps_dsp / (4 * num_sources) * 2^-n (the halving series), so the
    union over sources and classes stays below eps_dsp / 2; the other half
    is spent on the sifting deviation.  Each budget becomes the Bernstein
    envelope terms c = sqrt(2L) and b = L/3, with L = ln(2/eps_n) per class
    and L = ln(2/eps_dsp) for sifting.  Meaningful security needs
    eps_dsp < 1; values up to 24 are accepted for bound arithmetic (the
    log argument changes sign at 24, which is rejected).
    """
    if not 0.0 < eps_dsp < 24.0:
        raise ValueError(f"eps_dsp must lie in (0, 24), got {eps_dsp}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    ns = np.arange(n_max + 1)
    eps_n = eps_dsp / (4.0 * num_sources) * 0.5 ** ns
    L_n = np.abs(math.log(8.0 * num_sources / eps_dsp) + ns * LN2)  # ln(2 / eps_n)
    L_delta = abs(math.log(2.0 / eps_dsp))
    eps_bar = float(num_sources * eps_n.sum())
    return EpsilonBudget(eps_dsp=eps_dsp, n_max=n_max, num_sources=num_sources,
                         eps_n=eps_n, c_n=np.sqrt(2.0 * L_n), b_n=L_n / 3.0, eps_bar=eps_bar,
                         delta_bar=eps_dsp / 2.0, c_delta=math.sqrt(2.0 * L_delta),
                         b_delta=L_delta / 3.0)


@dataclass(frozen=True)
class BoundParams:
    """Parameters of one per-class confidence envelope q d +/- (c sqrt(q(1-q)d) + b).

    q is the source posterior for the class, c the multiplier of the
    standard-deviation term and b the offset (default 0).  The budget's
    c_n = sqrt(2 L_n) and b_n = L_n/3 make this the Bernstein envelope, whose
    per-side miss probability is at most e^-L_n for every d.  At q = 1 the
    share is the whole class, so neither term applies and both bounds
    collapse to the identity (see _envelope).
    """

    q: float
    c: float
    b: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"posterior probability must lie in (0, 1], got {self.q}")
        if not self.c >= 0.0:
            raise ValueError(f"multiplier must be >= 0, got {self.c}")
        if not self.b >= 0.0:
            raise ValueError(f"offset must be >= 0, got {self.b}")


def _envelope(q, c, b):
    """The one definition of the confidence envelope, elementwise.

    Returns (q, a, beta) such that a share of a class with total d lies in
    q d +/- (a sqrt(d) + beta): a = c sqrt(q(1-q)), and beta = b only where
    0 < q < 1.  At q = 1 the share is the whole class and at q = 0 it is
    empty, so neither deviates.  Scalars and arrays (c and b broadcast
    against q) alike.
    """
    a = c * np.sqrt(q * (1.0 - q))
    beta = np.where((q > 0.0) & (q < 1.0), b, 0.0)
    return q, a, beta


def _root(q, a, r):
    """Nonnegative root z of q z^2 + a z = r (q > 0), elementwise.

    A positive a inverts the upper band q z^2 + a z, a negative one the
    lower band q z^2 - |a| z; NaN where the lower band never reaches r.
    """
    return (-a + np.sqrt(a * a + 4.0 * q * r)) / (2.0 * q)


def share_upper_bound(total: float, p: BoundParams) -> float:
    """Upper envelope of the per-source share of a class total: q d + c sqrt(q(1-q)d) + b."""
    if total < 0:
        raise ValueError(f"count must be >= 0, got {total}")
    q, a, beta = _envelope(p.q, p.c, p.b)
    return float(q * total + a * math.sqrt(total) + beta)


def share_lower_bound(total: float, p: BoundParams) -> float:
    """Lower envelope of the per-source share: q d - c sqrt(q(1-q)d) - b."""
    if total < 0:
        raise ValueError(f"count must be >= 0, got {total}")
    q, a, beta = _envelope(p.q, p.c, p.b)
    return float(q * total - a * math.sqrt(total) - beta)


def total_lower_bound(share: float, p: BoundParams) -> float:
    """Lower confidence bound on the class total given an observed share.

    Exact functional inverse of share_upper_bound, obtained by solving the
    quadratic in sqrt(total); monotone increasing, and 0 for every share up
    to share_upper_bound(0) = b.
    """
    if share < 0:
        raise ValueError(f"count must be >= 0, got {share}")
    q, a, beta = _envelope(p.q, p.c, p.b)
    z = _root(q, a, max(share - beta, 0.0))
    return float(z * z)


def total_upper_bound(share: float, p: BoundParams) -> float:
    """Upper confidence bound on the class total given an observed share.

    Inverse of share_lower_bound on its increasing branch; at share 0 the
    value is the largest total whose lower envelope is still 0, which is
    c^2 (1-q)/q when b = 0.
    """
    if share < 0:
        raise ValueError(f"count must be >= 0, got {share}")
    q, a, beta = _envelope(p.q, p.c, p.b)
    z = _root(q, -a, share + beta)
    return float(z * z)


@dataclass(frozen=True)
class KeyRateParams:
    """Error-correction and privacy-amplification inputs to the key-rate formula."""

    kappa_ec: float = 1.2
    kappa_pa: float = 1.0
    ber: float = 0.0
    b1_max: float = 0.0

    def __post_init__(self):
        if self.kappa_ec < 0 or self.kappa_pa < 0:
            raise ValueError("correction coefficients must be >= 0")
        if not 0.0 <= self.ber <= 1.0 or not 0.0 <= self.b1_max <= 1.0:
            raise ValueError("error rates must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"kappa_ec": self.kappa_ec, "kappa_pa": self.kappa_pa,
                "ber": self.ber, "b1_max": self.b1_max}


# ---------------------------------------------------------------------------
# constrained minimization of a per-class detection count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one detection-count minimization.

    dual_bound is the best Lagrangian lower bound found (detections): no
    point inside the bands has a smaller d_target.  A max_iterations
    result reports 0, the bound its conservative d_star = 0 rests on.
    """

    d_star: float
    x: np.ndarray
    status: str  # optimal | max_iterations
    residual: float
    dual_bound: float


def _constraint_matrices(config: ProtocolConfig,
                         budget: EpsilonBudget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The envelope terms of every (source, class) pair, n <= n_max.

    Q[i, n] = q_n^i and A[i, n] = c_n sqrt(q_n^i (1 - q_n^i)) come from
    _envelope, and beta[i] sums its per-class offsets: source i's share
    envelope is Q[i] @ d +/- (A[i] @ sqrt(d) + beta[i]).  Classes no source
    can emit (vacuum-only source sets) get zero columns: they contribute to
    no constraint and attract no detections.
    """
    N = config.n_max + 1
    if budget.n_max < config.n_max:
        raise ValueError(f"budget covers classes up to {budget.n_max}, config needs {config.n_max}")
    Q = np.ascontiguousarray(source_posteriors(np.arange(N), config.sources).T)
    Q, A, B = _envelope(Q, budget.c_n[:N], budget.b_n[:N])
    return Q, A, B @ np.ones(N)  # beta[i]: the row sums of the per-class offsets


def _config_terms(config: ProtocolConfig, budget: EpsilonBudget) -> tuple:
    """Everything the minimizer needs that depends on (config, budget) only.

    Returns (Q, A, beta) from _constraint_matrices plus the photon-number
    pmf p[n] and the honest counts' roots sqrt(y_n p_n K) of the start grid;
    estimate_session builds them once, for the d1 solve and the closed-form d0.
    """
    ns = np.arange(config.n_max + 1)
    p = photon_number_pmf(ns, config.sources)
    honest = np.sqrt(np.clip(photon_yield(ns, config.channel) * p * config.K, 0.0, None))
    return (*_constraint_matrices(config, budget), p, honest)


def _start_points(p: np.ndarray, honest: np.ndarray, target: int, D_E: float,
                  x_cap: float) -> Iterator[np.ndarray]:
    """Fixed eight-point start grid in x = sqrt(d) units, each built when it is needed."""

    def fit(s):  # into the box, and scaled down to the total D_E
        s = np.clip(s, 0.0, x_cap)
        tot = float((s * s).sum())
        return s * math.sqrt(D_E / tot) if D_E > 0 and tot > D_E else s

    yield fit(honest)
    N = len(p)
    prop = np.sqrt(D_E * p / max(p.sum(), 1e-300))
    yield fit(prop)
    no_target = prop.copy()
    if p.sum() - p[target] > 0:
        no_target[:] = np.sqrt(D_E * p / max(p.sum() - p[target], 1e-300))
    no_target[target] = 0.0
    yield fit(no_target)
    yield fit(np.full(N, math.sqrt(max(D_E, 0.0) / N)))
    high = np.full(N, math.sqrt(0.001 * max(D_E, 0.0) / N))
    high[-1] = math.sqrt(0.999 * max(D_E, 0.0))
    for s in (high, 0.5 * honest, 1.5 * honest, 0.5 * (honest + high)):
        yield fit(s)


def _band_system(Q, A, beta, D_i, D_E):
    """Every band as one slack vector G @ d + H @ sqrt(d) + g >= 0.

    Rows: the S upper bands Q d + A sqrt(d) + beta - D_i, the S lower bands
    D_i + beta - Q d + A sqrt(d), then the total cap D_E - sum(d).
    row_scale is each row's magnitude (max(|D_i|, 1), resp. max(D_E, 1)),
    the unit of the residual gate.
    """
    N = Q.shape[1]
    G = np.vstack([Q, -Q, -np.ones((1, N))])
    H = np.vstack([A, A, np.zeros((1, N))])
    g = np.concatenate([beta - D_i, D_i + beta, [D_E]])
    s = np.maximum(np.abs(D_i), 1.0)
    row_scale = np.concatenate([s, s, [max(D_E, 1.0)]])
    return G, H, g, row_scale


def _relative_residual(x, system, K) -> float:
    """Worst violation of the band system (and of d_n <= K), relative to each row's scale."""
    G, H, g, row_scale = system
    x = np.asarray(x, dtype=float)
    d = x * x
    slack = G @ d + H @ x + g
    return max(0.0, float(np.max(-slack / row_scale)), (d.max() - K) / max(K, 1.0))


def _dual_bound(lam, G, H, g, weights, Xcap: float) -> float:
    """Weak-duality lower bound on min weights @ X^2 s.t. G X^2 + H X + g >= 0, 0 <= X <= Xcap.

    For any multipliers lam >= 0 (negative entries are clipped to 0),
    theta(lam) = min over the box of weights @ X^2 - lam @ (G X^2 + H X + g)
    is at most the constrained minimum, convex problem or not (Boyd &
    Vandenberghe, Convex Optimization, sec. 5.2).  The Lagrangian separates
    into c_n z^2 - e_n z per coordinate, with c = weights - lam @ G and
    e = lam @ H >= 0; its minimum over [0, Xcap] lies at e / (2c) clipped
    to Xcap when c > 0, else at Xcap.
    """
    lam = np.clip(lam, 0.0, None)
    c = weights - lam @ G
    e = lam @ H
    z = np.full(len(c), Xcap)
    curved = c > 0.0
    z[curved] = np.minimum(e[curved] / (2.0 * c[curved]), Xcap)
    return float(np.sum(c * z * z - e * z) - lam @ g)


def minimize_detection_count(public, config: ProtocolConfig, budget: EpsilonBudget,
                             target: int) -> MinimizationResult:
    """Smallest d_target compatible with all per-source confidence bands.

    Minimizes x_target^2 over x_n = sqrt(d_n) >= 0, n = 0..n_max, subject
    to, for each source i, the Bernstein envelope of the budget

        sum_n q_n^i x_n^2 + c_n sqrt(q_n^i (1-q_n^i)) x_n + beta_i >= D_i
        sum_n q_n^i x_n^2 - c_n sqrt(q_n^i (1-q_n^i)) x_n - beta_i <= D_i

    with beta_i the sum of b_n over the classes with 0 < q_n^i < 1 (each
    band is the sum of share_upper_bound/share_lower_bound over the
    classes), plus d_n <= K and sum_n d_n <= D_E, a valid tightening since
    unseen classes contribute nonnegative detections.  In d = x^2 the
    problem is convex (a linear objective, upper bands q d + a sqrt(d)
    concave, lower bands q d - a sqrt(d) convex, a linear cap); it is
    solved in x, where all bands and the cap form one vector constraint,
    quadratic in x, with an analytic Jacobian.  SLSQP runs from a fixed
    8-point start grid; accepted solutions satisfy the constraints within
    FEASIBILITY_TOL relative.  While no point is accepted, a start outside
    the bands first goes to the phase-I problem (Boyd & Vandenberghe,
    Convex Optimization, sec. 11.4.1): minimize the largest relative
    violation t >= 0 of the same constraint, which stops at the first
    point inside the bands.  The same dual bound as below, with a zero
    objective and the multipliers normalized to the violation's units,
    lower-bounds t over the whole box for any multipliers (sec. 5.8); when
    it exceeds ABORT_TOL no point can be accepted and
    InfeasibleSessionError is raised (protocol abort).  Otherwise SLSQP
    minimizes the objective from the phase-I point.  After each start the
    solver's multipliers give a Lagrangian dual bound (_dual_bound); once
    the best accepted value is within GAP_TOL (relative, one-detection
    floor) of it, no start can do better and the search stops.  If no
    start yields an accepted point and none proves the violation, the
    result is the conservative d_target = 0 with status "max_iterations"
    and the smallest violation found as its residual.  estimate_session
    runs target 1 only; target 0 serves the grid-oracle checks of its
    closed-form d0*.
    """
    return _minimize_count(public, config, _config_terms(config, budget), target)


def _minimize_count(public, config: ProtocolConfig, terms: tuple, target: int) -> MinimizationResult:
    """minimize_detection_count with the config terms (_config_terms) given."""
    if target not in range(config.n_max + 1):
        raise ValueError(f"target class must lie in 0..{config.n_max}, got {target}")
    D_i = np.asarray(public.D_iE, dtype=float)
    if len(D_i) != len(config.sources):
        raise ValueError("transcript and config disagree on the number of sources")
    D_E = float(public.D_E)
    Q, A, beta, p, honest = terms
    system = _band_system(Q, A, beta, D_i, D_E)
    if D_E == 0.0:
        x0 = np.zeros(config.n_max + 1)
        res = _relative_residual(x0, system, config.K)
        if res > FEASIBILITY_TOL:
            raise InfeasibleSessionError("empty transcript is outside the confidence bands")
        return MinimizationResult(0.0, x0, "optimal", res, 0.0)

    N = config.n_max + 1
    scale = math.sqrt(D_E)
    x_cap = math.sqrt(min(float(config.K), D_E))

    # scaled units: X = x / sqrt(D_E); dividing the band system by D_E gives
    # con(X) = G @ X^2 + (H / sqrt(D_E)) @ X + g / D_E >= 0, and -con / w is
    # each row's violation in the residual gate's units
    G, H, g, row_scale = system
    H = H / scale
    g = g / D_E
    w = row_scale / D_E
    Xcap = x_cap / scale
    weights = np.eye(N)[target]  # the objective X_target^2 as weights @ X^2

    def obj(X):
        return X[target] * X[target]

    def obj_jac(X):
        grad = np.zeros(N)
        grad[target] = 2.0 * X[target]
        return grad

    def con(X):
        return G @ (X * X) + H @ X + g

    def con_jac(X):
        return 2.0 * G * X + H

    cons = {"type": "ineq", "fun": con, "jac": con_jac}
    bounds = [(0.0, Xcap)] * N

    # phase I in Y = (X, t): minimize t >= 0 subject to con(X) + t w >= 0; it
    # stops at the first point inside the bands instead of going deeper
    e_t = np.append(np.zeros(N), 1.0)
    cons_t = {"type": "ineq", "fun": lambda Y: con(Y[:N]) + Y[N] * w,
              "jac": lambda Y: np.hstack([con_jac(Y[:N]), w[:, None]])}
    bounds_t = bounds + [(0.0, None)]

    best: tuple[float, np.ndarray] | None = None

    def consider(X) -> float:
        nonlocal best
        X = np.clip(X, 0.0, Xcap)
        res = _relative_residual(X * scale, system, config.K)
        if res <= FEASIBILITY_TOL:
            val = obj(X)
            if best is None or val < best[0]:
                best = (val, X)
        return res

    lower = 0.0  # the best dual bound so far: no feasible point lies below it
    least = math.inf  # the smallest violation found by phase I
    for x0 in _start_points(p, honest, target, D_E, x_cap):
        X0 = x0 / scale
        # a feasible start stands on its own if the solve diverges; until a
        # point is accepted, a start outside the bands goes to phase I first
        if consider(X0) > FEASIBILITY_TOL and best is None:
            Y0 = np.append(X0, max(0.0, float(np.max(-con(X0) / w))))
            sol = _opt.minimize(lambda Y: Y[N], Y0, jac=lambda Y: e_t, bounds=bounds_t,
                                constraints=cons_t, method="SLSQP",
                                options={"maxiter": 300, "ftol": 1e-12})
            # with lam @ w = 1 the Lagrangian loses t, and its minimum over the
            # box bounds the smallest violation from below, whatever bounds t
            lam = np.clip(sol.multipliers, 0.0, None)
            norm = float(lam @ w)
            proof = _dual_bound(lam / norm, G, H, g, 0.0, Xcap) if norm > 0.0 else -math.inf
            if proof > ABORT_TOL:
                raise InfeasibleSessionError(
                    f"no detection counts satisfy the confidence bands "
                    f"(every point violates them by at least {proof:.3e})")
            X0 = np.clip(sol.x[:N], 0.0, Xcap)
            least = min(least, consider(X0))
        sol = _opt.minimize(obj, X0, jac=obj_jac, bounds=bounds, constraints=cons,
                            method="SLSQP", options={"maxiter": 300, "ftol": 1e-12})
        consider(sol.x)
        lower = max(lower, _dual_bound(sol.multipliers, G, H, g, weights, Xcap))
        if best is not None and best[0] - lower <= GAP_TOL * max(best[0], 1.0 / D_E):
            break

    if best is not None:
        X = best[1]
        x = X * scale
        return MinimizationResult(float(x[target] ** 2), x, "optimal",
                                  _relative_residual(x, system, config.K), lower * D_E)
    return MinimizationResult(0.0, np.zeros(N), "max_iterations", least, 0.0)


def _target_axis_window(z_cap: float, qt: float, at: float, r_up: np.ndarray,
                        r_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact feasible interval of the target coordinate z for one source.

    Given the residuals r_up = D_i - beta_i - (other upper terms) and
    r_lo = D_i + beta_i - (other lower terms), solves q z^2 + a z >= r_up and q z^2 - a z <= r_lo
    for z >= 0 in closed form.  Returns (z_min, z_max) arrays; an empty
    interval is signalled by z_min > z_max.
    """
    if qt <= 0.0:
        # the target class cannot contribute to this source
        z_min = np.where(r_up > 0.0, np.inf, 0.0)
        z_max = np.where(r_lo < 0.0, -np.inf, z_cap)
        return z_min, z_max
    z_min = np.where(r_up > 0.0, _root(qt, at, np.clip(r_up, 0.0, None)), 0.0)
    with np.errstate(invalid="ignore"):
        z_hi = _root(qt, -at, r_lo)  # NaN where the lower band excludes every z
    empty = np.isnan(z_hi)
    # the lower band's smaller root a/q - z_hi is positive only when r_lo < 0
    z_lo = np.where(r_lo < 0.0, at / qt - z_hi, 0.0)
    z_min = np.where(empty, np.inf, np.maximum(z_min, z_lo))
    z_max = np.where(empty, -np.inf, z_hi)
    return z_min, z_max


def grid_minimize_detection(public, config: ProtocolConfig, budget: EpsilonBudget,
                            target: int) -> float | None:
    """Brute-force grid oracle for the detection-count minimum.

    Exhaustively scans the non-target coordinates x_n = sqrt(d_n) on an
    axis-aligned grid at resolution 1e-3 sqrt(K) and, for every grid
    point, solves the target coordinate exactly from the quadratic
    constraint intervals.  Supports n_max = 2 (ProtocolConfig
    rejects smaller cutoffs), so two non-target axes.  Axes are first
    narrowed by single-constraint relaxation bounds that provably contain
    the feasible set.  Independent of the multi-start solver by
    construction; returns None when the scanned region is infeasible.
    """
    N = config.n_max + 1
    if N != 3:
        raise ValueError("grid oracle supports n_max = 2 only")
    Q, A, beta = _constraint_matrices(config, budget)
    D_i = np.asarray(public.D_iE, dtype=float)
    D_up, D_lo = D_i - beta, D_i + beta  # right-hand sides of the upper and lower bands
    D_E = float(public.D_E)
    h = 1e-3 * math.sqrt(config.K)
    x_cap = math.sqrt(min(float(config.K), D_E))
    nsrc = len(D_i)

    # provable per-axis windows: relax every other axis against its extreme term
    term_min = -(A * A) / (4.0 * np.clip(Q, 1e-300, None))  # min of q x^2 - a x
    term_min[Q == 0] = 0.0
    ub = np.full(N, x_cap)
    for n in range(N):
        for i in range(nsrc):
            if Q[i, n] <= 0:
                continue
            rhs = D_lo[i] - (term_min[i].sum() - term_min[i, n])
            ub[n] = min(ub[n], _root(Q[i, n], -A[i, n], max(rhs, 0.0)) + h)
    lb = np.zeros(N)
    up_max = np.array([[Q[i, n] * ub[n] ** 2 + A[i, n] * ub[n] for n in range(N)] for i in range(nsrc)])
    for n in range(N):
        for i in range(nsrc):
            if Q[i, n] <= 0:
                continue
            rhs = D_up[i] - (up_max[i].sum() - up_max[i, n])
            if rhs <= 0:
                continue
            lb[n] = max(lb[n], _root(Q[i, n], A[i, n], rhs) - h)

    def axis(n):
        lo = math.floor(max(lb[n], 0.0) / h) * h
        return np.arange(lo, min(ub[n], x_cap) + h, h)

    u, v = (n for n in range(N) if n != target)  # the two scanned axes

    def eval_pairs(gu: np.ndarray, gv: np.ndarray):
        """Exact minimal target coordinate per (gu x gv) grid pair on axes (u, v); -inf max = empty."""
        cap_sq = D_E - (gu[:, None] ** 2 + gv[None, :] ** 2)
        z_max = np.sqrt(np.clip(cap_sq, 0.0, None))
        z_max[cap_sq < 0.0] = -np.inf
        z_min = np.zeros_like(z_max)
        for i in range(nsrc):
            r_up = D_up[i] - ((Q[i, u] * gu ** 2 + A[i, u] * gu)[:, None]
                             + (Q[i, v] * gv ** 2 + A[i, v] * gv)[None, :])
            r_lo = D_lo[i] - ((Q[i, u] * gu ** 2 - A[i, u] * gu)[:, None]
                             + (Q[i, v] * gv ** 2 - A[i, v] * gv)[None, :])
            zi_min, zi_max = _target_axis_window(x_cap, Q[i, target], A[i, target], r_up, r_lo)
            z_min = np.maximum(z_min, zi_min)
            z_max = np.minimum(z_max, zi_max)
        z_max = np.minimum(z_max, x_cap)
        return z_min, z_min <= z_max

    gu, gv = axis(u), axis(v)
    z_min, feasible = eval_pairs(gu, gv)
    if not feasible.any():
        return None
    masked = np.where(feasible, z_min, np.inf)
    iu, iv = np.unravel_index(np.argmin(masked), masked.shape)
    best = float(masked[iu, iv])
    cu, cv = float(gu[iu]), float(gv[iv])
    # local subdivision removes the complement-axis quantization bias
    span = 3.0 * h
    for _ in range(3):
        su = np.linspace(max(cu - span, 0.0), min(cu + span, x_cap), 41)
        sv = np.linspace(max(cv - span, 0.0), min(cv + span, x_cap), 41)
        z_min, feasible = eval_pairs(su, sv)
        if feasible.any():
            masked = np.where(feasible, z_min, np.inf)
            iu, iv = np.unravel_index(np.argmin(masked), masked.shape)
            if masked[iu, iv] < best:
                best = float(masked[iu, iv])
                cu, cv = float(su[iu]), float(sv[iv])
        span /= 12.0
    return best * best


# ---------------------------------------------------------------------------
# sifting, key rate, end-to-end estimation
# ---------------------------------------------------------------------------


def sifted_lower_bound(d_star: float, D_E: float, F_E: float, budget: EpsilonBudget) -> float:
    """Lower bound on the same-basis detections from a class with d_star total.

    The lower Bernstein envelope F r - c_delta sqrt(F r (1-r)) - b_delta
    with r = d_star / D_E, c_delta = sqrt(2 L_delta) and b_delta =
    L_delta/3, so it misses with probability at most e^-L_delta =
    delta_bar.  Clamped at 0; a negative bound means "claim nothing",
    never an error.
    """
    if D_E <= 0:
        return 0.0
    r = min(max(d_star / D_E, 0.0), 1.0)
    val = F_E * r - budget.c_delta * math.sqrt(F_E * r * (1.0 - r)) - budget.b_delta
    return max(0.0, val)


def key_rate(f0_star: float, f1_star: float, F_E: float, K: int,
             params: KeyRateParams) -> tuple[float, float]:
    """Secure key length and per-pulse rate after EC/PA penalties.

    key_length = f0 + f1 - kappa_ec F H2(BER) - kappa_pa f1 H2(b1_max),
    clamped to [0, F_E]; the rate is key_length / K.
    """
    if min(f0_star, f1_star, F_E) < 0 or K < 1:
        raise ValueError("counts must be >= 0 and K >= 1")
    kl = (f0_star + f1_star
          - params.kappa_ec * F_E * binary_entropy(params.ber)
          - params.kappa_pa * f1_star * binary_entropy(params.b1_max))
    kl = min(max(kl, 0.0), F_E)
    return kl / K, kl


@dataclass(frozen=True)
class EstimationResult:
    """Certified lower bounds and key rate for one session, with diagnostics."""

    d0_star: float
    d1_star: float
    f0_star: float
    f1_star: float
    key_rate_s: float
    key_length: float
    budget: EpsilonBudget
    solver_status: str  # optimal | infeasible | max_iterations
    solver_residual: float

    def to_dict(self) -> dict:
        return {
            "d0_star": self.d0_star,
            "d1_star": self.d1_star,
            "f0_star": self.f0_star,
            "f1_star": self.f1_star,
            "key_rate_s": self.key_rate_s,
            "key_length": self.key_length,
            "budget": self.budget.to_dict(),
            "solver_status": self.solver_status,
            "solver_residual": self.solver_residual,
        }


def check_transcript(public, config: ProtocolConfig) -> None:
    """Reject a transcript that contradicts itself or the config.

    The per-source lists must have one entry per config source, K must be
    the config's, sum(K_i) = K, sum(D_iE) = D_E and F_E <= D_E.  Raises
    ValueError whose message starts with the offending field's name.
    """
    S = len(config.sources)
    lists = {"K_i": public.K_i, "D_iE": public.D_iE}
    for key, values in lists.items():
        if len(values) != S:
            raise ValueError(f"{key} lists {len(values)} sources, the config's protocol.sources {S}")
    if public.K != config.K:
        raise ValueError(f"K = {public.K} differs from the config's protocol.K = {config.K}")
    for key, total, value in (("K_i", "K", public.K), ("D_iE", "D_E", public.D_E)):
        if sum(lists[key]) != value:
            raise ValueError(f"{key} sums to {sum(lists[key])}, not {total} = {value}")
    if public.F_E > public.D_E:
        raise ValueError(f"F_E = {public.F_E} exceeds D_E = {public.D_E}")


def estimate_session(public, config: ProtocolConfig, eps_dsp: float,
                     params: KeyRateParams | None = None) -> EstimationResult:
    """End-to-end estimation: budget, one minimization, sifted bounds, key rate.

    The transcript must pass check_transcript and the config must have a
    vacuum source (mu = 0); ValueError otherwise.  d1* is the minimum of
    minimize_detection_count(target=1), which alone decides the status, the
    residual and the abort.  d0* needs no solve: a vacuum source's
    posterior row is zero beyond class 0, so with every other class at 0
    its upper band q_0 d0 + a_0 sqrt(d0) + beta >= D_i inverts in closed
    form, and d0* is the largest of these roots over the vacuum sources
    (as Ma, Qi, Zhao and Lo, PRA 72, 012326, 2005, bound Y_0).  Dropping
    the other bands can only lower the minimum, so this relaxation of
    minimize_detection_count(target=0) is a valid lower bound on every
    transcript.  The union bound in the budget already covers both counts.
    A transcript outside the confidence bands yields a zero-key result with
    status "infeasible" (protocol abort).
    """
    check_transcript(public, config)
    if params is None:
        params = KeyRateParams()
    vacuum = config.mus == 0.0
    if not vacuum.any():
        raise ValueError("sources include no vacuum source (mu = 0), which bounds d0")
    budget = build_epsilon_budget(eps_dsp, config.n_max, len(config.sources))
    terms = _config_terms(config, budget)
    try:
        r1 = _minimize_count(public, config, terms, 1)
    except InfeasibleSessionError:
        status, residual, d0, d1 = "infeasible", 0.0, 0.0, 0.0
    else:
        status, residual, d1 = r1.status, r1.residual, r1.d_star
        # d0*: the largest root of the vacuum sources' upper bands, others at 0
        Q, A, beta = terms[:3]
        D_U = np.asarray(public.D_iE, dtype=float)[vacuum]
        z = _root(Q[vacuum, 0], A[vacuum, 0], np.maximum(D_U - beta[vacuum], 0.0))
        d0 = float(np.max(z * z))
    f0 = sifted_lower_bound(d0, public.D_E, public.F_E, budget)
    f1 = sifted_lower_bound(d1, public.D_E, public.F_E, budget)
    s, kl = key_rate(f0, f1, public.F_E, config.K, params)
    if status == "infeasible":
        s, kl = 0.0, 0.0
    return EstimationResult(d0_star=d0, d1_star=d1, f0_star=f0, f1_star=f1,
                            key_rate_s=s, key_length=kl, budget=budget,
                            solver_status=status, solver_residual=residual)


# ---------------------------------------------------------------------------
# i.i.d. baseline, dark-count posterior, interval coverage
# ---------------------------------------------------------------------------


def iid_baseline_estimate(public, config: ProtocolConfig, eps_bar: float) -> tuple[float, float]:
    """Minimum vacuum and single-photon yields under the i.i.d. assumption.

    Linear program over yields y_n in [0, 1], n <= n_max: each source's
    Poisson-weighted yield sum must stay within the binomial confidence band
    around its observed rate (chernoff_multiplier standard deviations,
    evaluated at the observed rate: the textbook Gaussian approximation).  The expansion is truncated at n_max; the dropped tail is below
    the config tail budget.  Valid only when the attack really is i.i.d. --
    the coverage experiments show how correlated attacks break it.
    """
    c = chernoff_multiplier(eps_bar)
    K_i = np.asarray(public.K_i, dtype=float)
    if np.any(K_i < 1):
        raise ValueError("every source needs at least one pulse for the baseline")
    Z = np.asarray(public.D_iE, dtype=float) / K_i
    sigma = np.sqrt(np.clip(Z * (1.0 - Z), 0.0, None) / (config.qs * config.K))
    N = config.n_max + 1
    P = poisson_pmf(np.arange(N), config.mus[:, None])
    A_ub = np.vstack([P, -P])
    b_ub = np.concatenate([Z + c * sigma, -(Z - c * sigma)])
    y_min = []
    for cost in np.eye(N)[:2]:  # minimize y_0, then y_1
        sol = _opt.linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * N, method="highs")
        if not sol.success:
            raise InfeasibleSessionError(f"baseline linear program infeasible: {sol.message}")
        y_min.append(float(sol.fun))
    return y_min[0], y_min[1]


def bayes_dark_posterior(D_U: int, K_U: int, tau: int, grid: Sequence[float]) -> np.ndarray:
    """Posterior over the dark-count rate from a vacuum source, uniform prior.

    Under the block attack only K_U / tau^2 independent decisions were made,
    so the likelihood is y^(D_U/tau^2) (1-y)^((K_U-D_U)/tau^2); exponents are
    kept as exact ratios (no rounding), which preserves the mode at D_U/K_U
    for every tau.  Evaluated in log space and normalized to sum 1 on the
    grid.
    """
    if not 0 <= D_U <= K_U:
        raise ValueError(f"need 0 <= D_U <= K_U, got D_U={D_U}, K_U={K_U}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0) or np.any(grid > 1):
        raise ValueError("grid must be a nonempty subset of [0, 1]")
    a = D_U / (tau * tau)
    b = (K_U - D_U) / (tau * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(a > 0, a * np.log(grid), 0.0) + np.where(b > 0, b * np.log1p(-grid), 0.0)
    logp = np.where(np.isnan(logp), -np.inf, logp)
    top = logp.max()
    if not np.isfinite(top):
        raise ValueError("posterior has no mass on the grid")
    w = np.exp(logp - top)
    return w / w.sum()


def coverage_probability(K_U: int, y0: float, tau: int, c: float) -> float:
    """Exact probability that the dark-count rate lands inside the i.i.d. band.

    The band is E[Z] +/- c * sigma(tau=1) (binomial standard deviation); the
    true law is the block attack at scale tau, i.e. d0 = tau^2 B + C with
    B ~ Binomial(K_U // tau^2, y0) and an i.i.d. remainder C.  Computed by
    summing the exact pmf, no sampling.
    """
    if tau < 1 or tau != int(tau):
        raise ValueError(f"tau must be an integer >= 1, got {tau}")
    tau2 = int(tau) * int(tau)
    if tau2 > K_U:
        raise ValueError(f"block size tau^2 = {tau2} exceeds the pulse count {K_U}")
    if not 0.0 <= y0 <= 1.0:
        raise ValueError(f"y0 must lie in [0, 1], got {y0}")
    if c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    center = y0 * K_U
    half = c * math.sqrt(y0 * (1.0 - y0) * K_U)
    lo, hi = center - half, center + half
    if y0 in (0.0, 1.0):
        return 1.0  # deterministic count sits exactly at the center
    blocks, rem = divmod(int(K_U), tau2)
    if rem == 0:
        lo_b = math.ceil(lo / tau2)
        hi_b = math.floor(hi / tau2)
        return float(_st.binom.cdf(hi_b, blocks, y0) - _st.binom.cdf(lo_b - 1, blocks, y0))
    cs = np.arange(rem + 1)
    w = _st.binom.pmf(cs, rem, y0)
    hi_b = np.floor((hi - cs) / tau2)
    lo_b = np.ceil((lo - cs) / tau2)
    probs = _st.binom.cdf(hi_b, blocks, y0) - _st.binom.cdf(lo_b - 1, blocks, y0)
    return float(np.sum(w * np.clip(probs, 0.0, 1.0)))
