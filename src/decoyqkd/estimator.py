"""Finite-statistics estimation of vacuum and single-photon detection counts.

Given only the public transcript (per-source pulse and detection totals),
the estimator lower-bounds the detections caused by empty and single-photon
pulses, then the same-basis (sifted) counts, then the secure key rate --
with a caller-chosen failure budget and no independence assumption on the
attack.  The only distributional fact used is that the source split of each
photon class is binomial with the known posterior q_n^i, which holds for
any attack because the eavesdropper cannot see the source.

The per-class confidence statements are inverted into quadratic constraints
on sqrt(d_n); the minimization over that (nonconvex) region is done by a
deterministic multi-start local solver, validated against an exhaustive
grid oracle on small cutoffs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as _opt
from scipy import stats as _st

from .channel import ProtocolConfig, source_posteriors
from .stats import binary_entropy, chernoff_multiplier

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
    "estimate_session",
    "iid_baseline_estimate",
    "bayes_dark_posterior",
    "coverage_probability",
]

LN2 = math.log(2.0)


class InfeasibleSessionError(RuntimeError):
    """The transcript admits no detection counts inside the confidence bands.

    Honest data is feasible with probability >= 1 - eps_bar, so this is a
    protocol-abort signal: no key is claimable.
    """


@dataclass(frozen=True)
class EpsilonBudget:
    """Decomposition of the total failure budget across estimation steps.

    eps_n[n] is the two-sided budget for photon class n, c_n[n] the matching
    deviation multiplier; delta_bar and c_delta cover the sifting step.
    eps_bar = num_sources * sum(eps_n) and eps_bar + delta_bar <= eps_dsp by
    construction.
    """

    eps_dsp: float
    n_max: int
    num_sources: int
    eps_n: np.ndarray
    c_n: np.ndarray
    eps_bar: float
    delta_bar: float
    c_delta: float

    def to_dict(self) -> dict:
        return {
            "eps_dsp": self.eps_dsp,
            "n_max": self.n_max,
            "num_sources": self.num_sources,
            "eps_n": self.eps_n.tolist(),
            "c_n": self.c_n.tolist(),
            "eps_bar": self.eps_bar,
            "delta_bar": self.delta_bar,
            "c_delta": self.c_delta,
        }


def build_epsilon_budget(eps_dsp: float, n_max: int, num_sources: int = 3) -> EpsilonBudget:
    """Allocate eps_dsp across photon classes and the sifting step.

    eps_n = eps_dsp / (4 * num_sources) * 2^-n (the halving series), so the
    union over sources and classes stays below eps_dsp / 2; the other half
    is spent on the sifting deviation.  Meaningful security needs
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
    c_n = 2.0 * np.sqrt(np.abs(math.log(eps_dsp / (8.0 * num_sources)) - ns * LN2))
    eps_bar = float(num_sources * eps_n.sum())
    delta_bar = eps_dsp / 2.0
    c_delta = 2.0 * math.sqrt(abs(math.log(eps_dsp / 2.0)))
    return EpsilonBudget(eps_dsp=eps_dsp, n_max=n_max, num_sources=num_sources,
                         eps_n=eps_n, c_n=c_n, eps_bar=eps_bar,
                         delta_bar=delta_bar, c_delta=c_delta)


@dataclass(frozen=True)
class BoundParams:
    """Parameters of one per-class confidence envelope.

    q is the source posterior for the class (q = 1 collapses both bounds to
    the identity: the class is then attributed to a single source), c the
    deviation multiplier.
    """

    q: float
    c: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"posterior probability must lie in (0, 1], got {self.q}")
        if not self.c >= 0.0:
            raise ValueError(f"multiplier must be >= 0, got {self.c}")


def share_upper_bound(total: float, p: BoundParams) -> float:
    """Upper envelope of the per-source share of a class total: q d + c sqrt(q(1-q)d)."""
    if total < 0:
        raise ValueError(f"count must be >= 0, got {total}")
    return p.q * total + p.c * math.sqrt(p.q * (1.0 - p.q) * total)


def share_lower_bound(total: float, p: BoundParams) -> float:
    """Lower envelope of the per-source share: q d - c sqrt(q(1-q)d)."""
    if total < 0:
        raise ValueError(f"count must be >= 0, got {total}")
    return p.q * total - p.c * math.sqrt(p.q * (1.0 - p.q) * total)


def total_lower_bound(share: float, p: BoundParams) -> float:
    """Lower confidence bound on the class total given an observed share.

    Exact functional inverse of share_upper_bound, obtained by solving the
    quadratic in sqrt(total); monotone increasing with value 0 at share 0.
    """
    if share < 0:
        raise ValueError(f"count must be >= 0, got {share}")
    cs = p.c * math.sqrt(p.q * (1.0 - p.q))
    root = (-cs + math.sqrt(cs * cs + 4.0 * p.q * share)) / (2.0 * p.q)
    return root * root


def total_upper_bound(share: float, p: BoundParams) -> float:
    """Upper confidence bound on the class total given an observed share.

    Inverse of share_lower_bound on its increasing branch; at share 0 the
    value is c^2 (1-q)/q, the largest total whose lower envelope is still 0.
    """
    if share < 0:
        raise ValueError(f"count must be >= 0, got {share}")
    cs = p.c * math.sqrt(p.q * (1.0 - p.q))
    root = (cs + math.sqrt(cs * cs + 4.0 * p.q * share)) / (2.0 * p.q)
    return root * root


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
    """Outcome of one detection-count minimization."""

    d_star: float
    x: np.ndarray
    status: str  # optimal | max_iterations
    residual: float


def _constraint_matrices(config: ProtocolConfig, budget: EpsilonBudget) -> tuple[np.ndarray, np.ndarray]:
    """Q[i, n] = q_n^i and A[i, n] = c_n sqrt(q_n^i (1 - q_n^i)) for n <= n_max.

    Classes no source can emit (vacuum-only source sets) get zero columns:
    they contribute to no constraint and attract no detections.
    """
    from .channel import UndefinedPosteriorError

    N = config.n_max + 1
    if budget.n_max < config.n_max:
        raise ValueError(f"budget covers classes up to {budget.n_max}, config needs {config.n_max}")
    S = len(config.sources)
    Q = np.zeros((S, N))
    for n in range(N):
        try:
            Q[:, n] = source_posteriors(n, config.sources)
        except UndefinedPosteriorError:
            pass
    A = budget.c_n[np.newaxis, :N] * np.sqrt(Q * (1.0 - Q))
    return Q, A


def _start_points(config: ProtocolConfig, target: int, D_E: float, x_cap: float) -> list[np.ndarray]:
    """Fixed eight-point start grid in x = sqrt(d) units."""
    from .channel import photon_number_pmf, photon_yield

    N = config.n_max + 1
    p = np.array([photon_number_pmf(n, config.sources) for n in range(N)])
    y = np.array([photon_yield(n, config.channel) for n in range(N)])
    honest = np.sqrt(np.clip(y * p * config.K, 0.0, None))
    prop = np.sqrt(D_E * p / max(p.sum(), 1e-300))
    no_target = prop.copy()
    if p.sum() - p[target] > 0:
        no_target[:] = np.sqrt(D_E * p / max(p.sum() - p[target], 1e-300))
    no_target[target] = 0.0
    unif = np.full(N, math.sqrt(max(D_E, 0.0) / N))
    high = np.full(N, math.sqrt(0.001 * max(D_E, 0.0) / N))
    high[-1] = math.sqrt(0.999 * max(D_E, 0.0))
    starts = [honest, prop, no_target, unif, high,
              0.5 * honest, 1.5 * honest, 0.5 * (honest + high)]
    out = []
    for s in starts:
        s = np.clip(s, 0.0, x_cap)
        tot = float((s * s).sum())
        if D_E > 0 and tot > D_E:
            s = s * math.sqrt(D_E / tot)
        out.append(s)
    return out


def _relative_residual(x, Q, A, D_i, D_E, K, cap_total) -> float:
    """Worst constraint violation, scaled by the constraint magnitude."""
    x = np.asarray(x, dtype=float)
    d = x * x
    s = np.maximum(np.abs(D_i), 1.0)
    res = max(0.0, float(np.max((D_i - (Q @ d + A @ x)) / s)),
              float(np.max((Q @ d - A @ x - D_i) / s)), (d.max() - K) / max(K, 1.0))
    if cap_total:
        res = max(res, (d.sum() - D_E) / max(D_E, 1.0))
    return res


def minimize_detection_count(public, config: ProtocolConfig, budget: EpsilonBudget,
                             target: int, cap_total: bool = True) -> MinimizationResult:
    """Smallest d_target compatible with all per-source confidence bands.

    Minimizes x_target^2 over x_n = sqrt(d_n) >= 0, n = 0..n_max, subject
    to, for each source i,

        sum_n q_n^i x_n^2 + c_n sqrt(q_n^i (1-q_n^i)) x_n >= D_i
        sum_n q_n^i x_n^2 - c_n sqrt(q_n^i (1-q_n^i)) x_n <= D_i

    plus d_n <= K and (cap_total, default on) sum_n d_n <= D_E, a valid
    tightening since unseen classes contribute nonnegative detections.
    All bands (and the cap) form one vector constraint, quadratic in x,
    with an analytic Jacobian.  Deterministic multi-start SLSQP from a fixed
    8-point grid; accepted solutions satisfy the constraints within 1e-8
    relative.  When no start yields one, L-BFGS-B minimizes the squared
    violation of the same constraint with its exact gradient: if that
    still leaves a residual above 1e-6, InfeasibleSessionError is raised
    (protocol abort); otherwise the result is the conservative d_target = 0
    with status "max_iterations".
    """
    if target not in range(config.n_max + 1):
        raise ValueError(f"target class must lie in 0..{config.n_max}, got {target}")
    D_i = np.asarray(public.D_iE, dtype=float)
    if len(D_i) != len(config.sources):
        raise ValueError("transcript and config disagree on the number of sources")
    D_E = float(public.D_E)
    if D_E == 0.0:
        x0 = np.zeros(config.n_max + 1)
        res = _relative_residual(x0, *_constraint_matrices(config, budget), D_i, D_E, config.K, cap_total)
        if res > 1e-8:
            raise InfeasibleSessionError("empty transcript is outside the confidence bands")
        return MinimizationResult(0.0, x0, "optimal", res)

    Q, A = _constraint_matrices(config, budget)
    N = config.n_max + 1
    scale = math.sqrt(D_E)
    x_cap = math.sqrt(min(float(config.K), D_E) if cap_total else float(config.K))

    # scaled units: X = x / sqrt(D_E); dividing the constraints by D_E gives
    # Q @ X^2 + (A / sqrt(D_E)) @ X compared against D_i / D_E
    a = A / scale
    b = D_i / D_E
    Xcap = x_cap / scale

    def obj(X):
        return X[target] * X[target]

    def obj_jac(X):
        g = np.zeros(N)
        g[target] = 2.0 * X[target]
        return g

    # every band in one vector constraint con(X) = G @ X^2 + H @ X + g0 >= 0:
    # S upper bands, S lower bands, then the total cap when it is enforced
    m = 2 * len(D_i) + int(cap_total)
    G = np.vstack([Q, -Q, -np.ones((1, N))])[:m]
    H = np.vstack([a, a, np.zeros((1, N))])[:m]
    g0 = np.concatenate([-b, b, [1.0]])[:m]

    def con(X):
        return G @ (X * X) + H @ X + g0

    def con_jac(X):
        return 2.0 * G * X + H

    cons = {"type": "ineq", "fun": con, "jac": con_jac}
    bounds = [(0.0, Xcap)] * N

    best: tuple[float, np.ndarray] | None = None

    def consider(X):
        nonlocal best
        X = np.clip(X, 0.0, Xcap)
        res = _relative_residual(X * scale, Q, A, D_i, D_E, config.K, cap_total)
        if res <= 1e-8:
            val = obj(X)
            if best is None or val < best[0]:
                best = (val, X)

    for x0 in _start_points(config, target, D_E, x_cap):
        X0 = x0 / scale
        consider(X0)  # a feasible start stands on its own if the solve diverges
        sol = _opt.minimize(obj, X0, jac=obj_jac, bounds=bounds, constraints=cons,
                            method="SLSQP", options={"maxiter": 300, "ftol": 1e-12})
        consider(sol.x)

    if best is not None:
        X = best[1]
        x = X * scale
        return MinimizationResult(float(x[target] ** 2), x, "optimal",
                                  _relative_residual(x, Q, A, D_i, D_E, config.K, cap_total))

    # no feasible local solution: look for any feasible point before declaring abort
    def infeas(X):
        v = np.minimum(con(X), 0.0)
        return float(v @ v), 2.0 * v @ con_jac(X)

    worst = math.inf
    for x0 in _start_points(config, target, D_E, x_cap):
        sol = _opt.minimize(infeas, x0 / scale, jac=True, bounds=bounds, method="L-BFGS-B",
                            options={"maxiter": 500})
        X = np.clip(sol.x, 0.0, Xcap)
        worst = min(worst, _relative_residual(X * scale, Q, A, D_i, D_E, config.K, cap_total))
    if worst > 1e-6:
        raise InfeasibleSessionError(
            f"no detection counts satisfy the confidence bands (best residual {worst:.3e})")
    return MinimizationResult(0.0, np.zeros(N), "max_iterations", worst)


def _target_axis_window(z_cap: float, qt: float, at: float, r_up: np.ndarray,
                        r_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact feasible interval of the target coordinate z for one source.

    Given the residuals r_up = D_i - (other upper terms) and r_lo = D_i -
    (other lower terms), solves q z^2 + a z >= r_up and q z^2 - a z <= r_lo
    for z >= 0 in closed form.  Returns (z_min, z_max) arrays; an empty
    interval is signalled by z_min > z_max.
    """
    if qt <= 0.0:
        # the target class cannot contribute to this source
        z_min = np.where(r_up > 0.0, np.inf, 0.0)
        z_max = np.where(r_lo < 0.0, -np.inf, z_cap)
        return z_min, z_max
    z_min = np.where(
        r_up > 0.0,
        (-at + np.sqrt(at * at + 4.0 * qt * np.clip(r_up, 0.0, None))) / (2.0 * qt),
        0.0,
    )
    disc = at * at + 4.0 * qt * r_lo
    neg = disc < 0.0
    sq = np.sqrt(np.clip(disc, 0.0, None))
    z_hi = (at + sq) / (2.0 * qt)
    z_lo = np.where(r_lo < 0.0, (at - sq) / (2.0 * qt), 0.0)
    z_min = np.maximum(z_min, z_lo)
    z_max = np.where(neg, -np.inf, z_hi)
    return z_min, z_max


def grid_minimize_detection(public, config: ProtocolConfig, budget: EpsilonBudget,
                            target: int, cap_total: bool = True,
                            resolution: float | None = None) -> float | None:
    """Brute-force grid oracle for the detection-count minimum.

    Exhaustively scans the non-target coordinates x_n = sqrt(d_n) on an
    axis-aligned grid at the given resolution (default 1e-3 sqrt(K)) and,
    for every grid point, solves the target coordinate exactly from the
    quadratic constraint intervals.  Supports n_max <= 2.  Axes are first
    narrowed by single-constraint relaxation bounds that provably contain
    the feasible set.  Independent of the multi-start solver by
    construction; returns None when the scanned region is infeasible.
    """
    N = config.n_max + 1
    if N > 3:
        raise ValueError("grid oracle supports n_max <= 2")
    Q, A = _constraint_matrices(config, budget)
    D_i = np.asarray(public.D_iE, dtype=float)
    D_E = float(public.D_E)
    h = resolution if resolution is not None else 1e-3 * math.sqrt(config.K)
    x_cap = math.sqrt(min(float(config.K), D_E) if cap_total else float(config.K))
    nsrc = len(D_i)

    # provable per-axis windows: relax every other axis against its extreme term
    term_min = -(A * A) / (4.0 * np.clip(Q, 1e-300, None))  # min of q x^2 - a x
    term_min[Q == 0] = 0.0
    ub = np.full(N, x_cap)
    for n in range(N):
        for i in range(nsrc):
            if Q[i, n] <= 0:
                continue
            rhs = D_i[i] - (term_min[i].sum() - term_min[i, n])
            root = (A[i, n] + math.sqrt(A[i, n] ** 2 + 4.0 * Q[i, n] * max(rhs, 0.0))) / (2.0 * Q[i, n])
            ub[n] = min(ub[n], root + h)
    lb = np.zeros(N)
    up_max = np.array([[Q[i, n] * ub[n] ** 2 + A[i, n] * ub[n] for n in range(N)] for i in range(nsrc)])
    for n in range(N):
        for i in range(nsrc):
            if Q[i, n] <= 0:
                continue
            rhs = D_i[i] - (up_max[i].sum() - up_max[i, n])
            if rhs <= 0:
                continue
            root = (-A[i, n] + math.sqrt(A[i, n] ** 2 + 4.0 * Q[i, n] * rhs)) / (2.0 * Q[i, n])
            lb[n] = max(lb[n], root - h)

    def axis(n):
        lo = math.floor(max(lb[n], 0.0) / h) * h
        return np.arange(lo, min(ub[n], x_cap) + h, h)

    others = [n for n in range(N) if n != target]
    z_box = math.sqrt(float(config.K))

    def eval_pairs(gu: np.ndarray, gv: np.ndarray, u: int, v: int):
        """Exact minimal target coordinate per (gu x gv) grid pair; -inf max = empty."""
        if cap_total:
            cap_sq = D_E - (gu[:, None] ** 2 + gv[None, :] ** 2)
            z_max = np.sqrt(np.clip(cap_sq, 0.0, None))
            z_max[cap_sq < 0.0] = -np.inf
        else:
            z_max = np.full((len(gu), len(gv)), z_box)
        z_min = np.zeros_like(z_max)
        for i in range(nsrc):
            r_up = D_i[i] - ((Q[i, u] * gu ** 2 + A[i, u] * gu)[:, None]
                             + (Q[i, v] * gv ** 2 + A[i, v] * gv)[None, :])
            r_lo = D_i[i] - ((Q[i, u] * gu ** 2 - A[i, u] * gu)[:, None]
                             + (Q[i, v] * gv ** 2 - A[i, v] * gv)[None, :])
            zi_min, zi_max = _target_axis_window(z_box, Q[i, target], A[i, target], r_up, r_lo)
            z_min = np.maximum(z_min, zi_min)
            z_max = np.minimum(z_max, zi_max)
        z_max = np.minimum(z_max, z_box)
        return z_min, z_min <= z_max

    if len(others) == 2:
        u, v = others
        gu, gv = axis(u), axis(v)
        z_min, feasible = eval_pairs(gu, gv, u, v)
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
            z_min, feasible = eval_pairs(su, sv, u, v)
            if feasible.any():
                masked = np.where(feasible, z_min, np.inf)
                iu, iv = np.unravel_index(np.argmin(masked), masked.shape)
                if masked[iu, iv] < best:
                    best = float(masked[iu, iv])
                    cu, cv = float(su[iu]), float(sv[iv])
            span /= 12.0
        return best * best

    if len(others) == 1:
        (u,) = others
        gu = axis(u)
        z_min, feasible = eval_pairs(gu, np.zeros(1), u, target)  # dummy second axis
        z_min, feasible = z_min[:, 0], feasible[:, 0]
        if not feasible.any():
            return None
        masked = np.where(feasible, z_min, np.inf)
        iu = int(np.argmin(masked))
        best, cu = float(masked[iu]), float(gu[iu])
        span = 3.0 * h
        for _ in range(3):
            su = np.linspace(max(cu - span, 0.0), min(cu + span, x_cap), 201)
            z_min, feasible = eval_pairs(su, np.zeros(1), u, target)
            z_min, feasible = z_min[:, 0], feasible[:, 0]
            if feasible.any():
                masked = np.where(feasible, z_min, np.inf)
                iu = int(np.argmin(masked))
                if masked[iu] < best:
                    best, cu = float(masked[iu]), float(su[iu])
            span /= 12.0
        return best * best

    # single-class problem: solve the target window directly
    z_min = np.zeros(1)
    z_max = np.full(1, x_cap)
    for i in range(nsrc):
        zi_min, zi_max = _target_axis_window(x_cap, Q[i, target], A[i, target],
                                             np.array([D_i[i]]), np.array([D_i[i]]))
        z_min = np.maximum(z_min, zi_min)
        z_max = np.minimum(z_max, zi_max)
    if z_min[0] > z_max[0]:
        return None
    return float(z_min[0] ** 2)


# ---------------------------------------------------------------------------
# sifting, key rate, end-to-end estimation
# ---------------------------------------------------------------------------


def sifted_lower_bound(d_star: float, D_E: float, F_E: float, budget: EpsilonBudget) -> float:
    """Lower bound on the same-basis detections from a class with d_star total.

    F r - c_delta sqrt(F r (1-r)) with r = d_star / D_E, clamped at 0; a
    negative bound means "claim nothing", never an error.
    """
    if D_E <= 0:
        return 0.0
    r = min(max(d_star / D_E, 0.0), 1.0)
    val = F_E * r - budget.c_delta * math.sqrt(F_E * r * (1.0 - r))
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
    solver_gap: float | None = None

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
            "solver_gap": self.solver_gap,
        }


def estimate_session(public, config: ProtocolConfig, eps_dsp: float,
                     params: KeyRateParams | None = None, *,
                     cap_total: bool = True, oracle_gap: bool = False) -> EstimationResult:
    """End-to-end estimation: budget, two minimizations, sifted bounds, key rate.

    The vacuum and single-photon counts are minimized independently; the
    union bound in the budget already covers both.  An infeasible transcript
    yields a zero-key result with status "infeasible" (protocol abort).
    """
    if params is None:
        params = KeyRateParams()
    budget = build_epsilon_budget(eps_dsp, config.n_max, len(config.sources))
    status = "optimal"
    residual = 0.0
    gap = None
    try:
        r0 = minimize_detection_count(public, config, budget, 0, cap_total=cap_total)
        r1 = minimize_detection_count(public, config, budget, 1, cap_total=cap_total)
        d0, d1 = r0.d_star, r1.d_star
        residual = max(r0.residual, r1.residual)
        if "max_iterations" in (r0.status, r1.status):
            status = "max_iterations"
        if oracle_gap and config.n_max <= 2:
            gaps = []
            for target, r in ((0, r0), (1, r1)):
                g = grid_minimize_detection(public, config, budget, target, cap_total=cap_total)
                if g is not None:
                    gaps.append(abs(r.d_star - g) / max(g, 1.0))
            gap = max(gaps) if gaps else None
    except InfeasibleSessionError:
        status = "infeasible"
        d0 = d1 = 0.0
    f0 = sifted_lower_bound(d0, public.D_E, public.F_E, budget)
    f1 = sifted_lower_bound(d1, public.D_E, public.F_E, budget)
    s, kl = key_rate(f0, f1, public.F_E, config.K, params)
    if status == "infeasible":
        s, kl = 0.0, 0.0
    return EstimationResult(d0_star=d0, d1_star=d1, f0_star=f0, f1_star=f1,
                            key_rate_s=s, key_length=kl, budget=budget,
                            solver_status=status, solver_residual=residual,
                            solver_gap=gap)


# ---------------------------------------------------------------------------
# i.i.d. baseline, dark-count posterior, interval coverage
# ---------------------------------------------------------------------------


def iid_baseline_estimate(public, config: ProtocolConfig, eps_bar: float) -> tuple[float, float]:
    """Minimum vacuum and single-photon yields under the i.i.d. assumption.

    Linear program over yields y_n in [0, 1], n <= n_max: each source's
    Poisson-weighted yield sum must stay within the binomial confidence band
    around its observed rate (standard deviation evaluated at the observed
    rate).  The expansion is truncated at n_max; the dropped tail is below
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
    from .stats import poisson_pmf

    P = np.array([[poisson_pmf(n, s.mu) for n in range(N)] for s in config.sources])
    A_ub = np.vstack([P, -P])
    b_ub = np.concatenate([Z + c * sigma, -(Z - c * sigma)])
    y0_min = y1_min = None
    for tgt in (0, 1):
        cost = np.zeros(N)
        cost[tgt] = 1.0
        sol = _opt.linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * N, method="highs")
        if not sol.success:
            raise InfeasibleSessionError(f"baseline linear program infeasible: {sol.message}")
        if tgt == 0:
            y0_min = float(sol.fun)
        else:
            y1_min = float(sol.fun)
    return y0_min, y1_min


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
