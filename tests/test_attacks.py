"""Tests for session simulation and the correlated-attack variance analysis."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from decoyqkd.attacks import (
    AttackContractError,
    AttackSpec,
    analytic_variance_report,
    attack_detections,
    sample_photon_counts,
    sift,
    simulate_session,
    split_by_source,
)
from decoyqkd.channel import (
    ChannelParams,
    ProtocolConfig,
    SourceSpec,
    photon_number_pmf,
    source_posteriors,
    total_yield,
)
from decoyqkd.stats import RngStream, total_variance_decompose

FIG_TRIO = (SourceSpec("U", 0.0, 0.01), SourceSpec("V", 0.063, 0.0275), SourceSpec("W", 0.5, 0.9625))
FIG_CH = ChannelParams(eta=1e-3, y0=2e-6)

BRIGHT_TRIO = (SourceSpec("U", 0.0, 0.1), SourceSpec("V", 0.1, 0.3), SourceSpec("W", 0.5, 0.6))
BRIGHT_CH = ChannelParams(eta=0.1, y0=1e-5)


def bright_config(K=10**6):
    return ProtocolConfig(sources=BRIGHT_TRIO, channel=BRIGHT_CH, K=K)


class TestAttackSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="weird")
        with pytest.raises(ValueError):
            AttackSpec(kind="block_correlated", tau=0)
        with pytest.raises(ValueError):
            AttackSpec(kind="iid", yields_override={1: 1.5})
        with pytest.raises(ValueError):
            AttackSpec(kind="custom")  # missing law
        with pytest.raises(ValueError):
            AttackSpec(kind="iid", custom_law=lambda k, g: k)

    def test_yield_override(self):
        att = AttackSpec(kind="iid", yields_override={1: 0.0})
        assert att.yield_for(1, BRIGHT_CH) == 0.0
        assert att.yield_for(0, BRIGHT_CH) == BRIGHT_CH.y0


class TestSamplePhotonCounts:
    def test_vacuum_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=(SourceSpec("U", 0.0, 1.0),),
                                 channel=BRIGHT_CH, K=5000, n_max=2)
        K_i, k_ni = sample_photon_counts(cfg, RngStream(1))
        assert K_i[0] == 5000
        assert k_ni[0, 0] == 5000
        assert k_ni[0, 1:].sum() == 0

    def test_single_photon_count_at_scale(self):
        # one K=1e6 draw lands within 5 sigma of p_1 K
        cfg = bright_config(K=10**6)
        _, k_ni = sample_photon_counts(cfg, RngStream(61))
        p1 = photon_number_pmf(1, cfg.sources)
        sd = math.sqrt(p1 * (1 - p1) * cfg.K)
        assert abs(k_ni.sum(axis=0)[1] - p1 * cfg.K) <= 5 * sd

    def test_moments(self):
        # E[k_n] = p_n K and Var[k_n] = p_n (1 - p_n) K, checked by Monte Carlo
        cfg = bright_config(K=10**4)
        gen = RngStream(23).generator()
        trials = 10**4
        counts = np.zeros((trials, cfg.n_max + 2), dtype=np.int64)
        for t in range(trials):
            _, k_ni = sample_photon_counts(cfg, gen)
            counts[t] = k_ni.sum(axis=0)
        for n in range(4):
            p_n = photon_number_pmf(n, cfg.sources)
            mean, var = p_n * cfg.K, p_n * (1 - p_n) * cfg.K
            se_mean = math.sqrt(var / trials)
            assert abs(counts[:, n].mean() - mean) <= 5 * se_mean
            se_var = var * math.sqrt(2.0 / (trials - 1)) * 2  # loose kurtosis allowance
            assert abs(counts[:, n].var(ddof=1) - var) <= 5 * se_var


class TestAttackDetections:
    def test_full_yield(self):
        att = AttackSpec(kind="iid", yields_override={n: 1.0 for n in range(6)})
        k = np.array([10, 20, 30, 0, 5, 7])
        d = attack_detections(att, k, BRIGHT_CH, RngStream(3))
        assert np.array_equal(d, k)

    def test_block_tau1_matches_iid(self):
        # distributionally identical at tau=1: two-sample variance ratio test
        # at the 1% level over 1e3 trials each
        from scipy.stats import f as f_dist

        gen = RngStream(17).generator()
        k = np.array([10**4])
        y = 0.3
        att_iid = AttackSpec(kind="iid", yields_override={0: y})
        att_blk = AttackSpec(kind="block_correlated", tau=1, yields_override={0: y})
        n = 1000
        a = np.array([attack_detections(att_iid, k, BRIGHT_CH, gen)[0] for _ in range(n)])
        b = np.array([attack_detections(att_blk, k, BRIGHT_CH, gen)[0] for _ in range(n)])
        ratio = a.var(ddof=1) / b.var(ddof=1)
        lo, hi = f_dist.ppf(0.005, n - 1, n - 1), f_dist.ppf(0.995, n - 1, n - 1)
        assert lo <= ratio <= hi

    def test_block_variance_scales(self):
        gen = RngStream(29).generator()
        k = np.array([10**4])
        att = AttackSpec(kind="block_correlated", tau=10, yields_override={0: 0.3})
        d = np.array([attack_detections(att, k, BRIGHT_CH, gen)[0] for _ in range(4000)])
        expect = 100 * 0.3 * 0.7 * 10**4
        assert abs(d.var(ddof=1) - expect) / expect <= 0.10
        assert abs(d.mean() - 0.3 * 10**4) <= 5 * math.sqrt(expect / 4000)

    def test_custom_law_contract(self):
        bad = AttackSpec(kind="custom", custom_law=lambda k, g: k + 1)
        with pytest.raises(AttackContractError):
            attack_detections(bad, np.array([5, 5]), BRIGHT_CH, RngStream(1))

    def test_custom_law_used(self):
        half = AttackSpec(kind="custom", custom_law=lambda k, g: k // 2)
        d = attack_detections(half, np.array([8, 9]), BRIGHT_CH, RngStream(1))
        assert np.array_equal(d, [4, 4])


class TestSplitBySource:
    def test_zero_detections(self):
        out = split_by_source(np.zeros(3, dtype=int), BRIGHT_TRIO, RngStream(1))
        assert out.sum() == 0

    def test_vacuum_gets_no_photon_classes(self):
        d = np.array([0, 50, 50])
        out = split_by_source(d, BRIGHT_TRIO, RngStream(5))
        assert out[1, 0] == 0 and out[2, 0] == 0  # vacuum source posterior is 0 for n >= 1
        assert np.array_equal(out.sum(axis=1), d)

    def test_conditional_mean(self):
        gen = RngStream(31).generator()
        d = np.array([0, 2000, 0])
        q = source_posteriors(1, BRIGHT_TRIO)
        draws = np.array([split_by_source(d, BRIGHT_TRIO, gen)[1] for _ in range(10**4)])
        for j in range(3):
            se = math.sqrt(max(2000 * q[j] * (1 - q[j]), 1e-12) / 10**4)
            assert abs(draws[:, j].mean() - q[j] * 2000) <= 5 * se + 1e-9


class TestSift:
    def test_zero(self):
        f, F = sift(np.zeros(4, dtype=int), RngStream(1))
        assert F == 0 and f.sum() == 0

    def test_moments(self):
        gen = RngStream(37).generator()
        d = np.array([10**6])
        draws = np.array([sift(d, gen)[1] for _ in range(2000)])
        se = math.sqrt(0.25 * 10**6 / 2000)
        assert abs(draws.mean() - 5e5) <= 5 * se
        assert abs(draws.std(ddof=1) - 500) <= 0.1 * 500


class TestSimulateSession:
    def test_perfect_channel_counts_every_photon_pulse(self):
        # eta=1, y0=0: every non-vacuum pulse is detected
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=(SourceSpec("S", 2.5, 1.0),),
                                 channel=ChannelParams(1.0, 0.0), K=20000, n_max=8)
        s = simulate_session(cfg, AttackSpec("none"), RngStream(11))
        assert s.D_E == cfg.K - s.k_n[0]

    def test_detection_rate_matches_total_yield(self):
        cfg = bright_config()
        s = simulate_session(cfg, AttackSpec("none"), RngStream(13))
        j = 1  # decoy source V
        Y = total_yield(cfg.sources[j].mu, cfg.channel)
        z = s.D_iE[j] / s.K_i[j]
        se = math.sqrt(Y * (1 - Y) / s.K_i[j])
        assert abs(z - Y) <= 5 * se

    def test_deterministic(self):
        cfg = bright_config(K=10**5)
        att = AttackSpec("block_correlated", tau=5)
        a = simulate_session(cfg, att, RngStream(99, 4))
        b = simulate_session(cfg, att, RngStream(99, 4))
        assert a.to_dict() == b.to_dict()

    def test_accounting_identities_randomized(self):
        # exact identities on 1000 randomized sessions
        gen = np.random.default_rng(101)
        kinds = ["none", "iid", "block_correlated"]
        for trial in range(1000):
            mus = sorted(gen.uniform(0.05, 1.5, size=2))
            qs = gen.dirichlet(np.ones(3))
            sources = (SourceSpec("U", 0.0, qs[0]), SourceSpec("V", mus[0], qs[1]),
                       SourceSpec("W", mus[1], qs[2]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = ProtocolConfig(
                    sources=sources,
                    channel=ChannelParams(gen.uniform(0.05, 0.9), gen.uniform(0.0, 0.05)),
                    K=int(gen.integers(100, 5000)), n_max=6)
            kind = kinds[trial % 3]
            att = AttackSpec(kind, tau=int(gen.integers(1, 5)) if kind == "block_correlated" else 1)
            s = simulate_session(cfg, att, RngStream(7, trial))
            s.check_identities()

    def test_huge_pulse_count(self):
        # K=1e10 runs in milliseconds (no per-pulse loops) with exact accounting
        cfg = ProtocolConfig(
            sources=(SourceSpec("U", 0.0, 0.01), SourceSpec("V", 0.063, 0.0275),
                     SourceSpec("W", 0.5, 0.9625)),
            channel=FIG_CH, K=10**10)
        s = simulate_session(cfg, AttackSpec("none"), RngStream(77))
        s.check_identities()
        Y = total_yield(0.5, FIG_CH)
        z = s.D_iE[2] / s.K_i[2]
        assert abs(z - Y) <= 5 * math.sqrt(Y * (1 - Y) / s.K_i[2])

    def test_overflow_recorded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=BRIGHT_TRIO, channel=BRIGHT_CH, K=10**5, n_max=2)
        s = simulate_session(cfg, AttackSpec("none"), RngStream(41))
        assert s.overflow_pulses > 0
        assert s.warnings
        assert int(s.k_n.sum()) == cfg.K


class TestDrawOrder:
    """Literal sessions: any change to the order of the random draws shows here."""

    ATTACKS = {"none": AttackSpec("none"),
               "iid": AttackSpec("iid", yields_override={1: 0.9, 2: 0.0}),
               "block": AttackSpec("block_correlated", tau=3)}  # blocks and remainders both nonzero
    # (k_n, d_nE, d_niE, f_nE) for streams 0 and 1 of seed 5
    EXPECTED = {
        ("none", 0): ([293, 90, 15, 1, 1], [13, 46, 12, 0, 1],
                      [[1, 5, 7], [0, 5, 41], [0, 0, 12], [0, 0, 0], [0, 0, 1]], [6, 23, 3, 0, 0]),
        ("none", 1): ([289, 93, 16, 2, 0], [10, 48, 10, 2, 0],
                      [[1, 3, 6], [0, 8, 40], [0, 1, 9], [0, 0, 2], [0, 0, 0]], [3, 22, 8, 1, 0]),
        ("iid", 0): ([293, 90, 15, 1, 1], [13, 84, 0, 1, 1],
                     [[5, 5, 3], [0, 8, 76], [0, 0, 0], [0, 0, 1], [0, 0, 1]], [4, 40, 0, 0, 0]),
        ("iid", 1): ([289, 93, 16, 2, 0], [10, 85, 0, 2, 0],
                     [[3, 3, 4], [0, 11, 74], [0, 0, 0], [0, 0, 2], [0, 0, 0]], [6, 33, 0, 0, 0]),
        ("block", 0): ([293, 90, 15, 1, 1], [9, 27, 11, 1, 1],
                       [[1, 3, 5], [0, 1, 26], [0, 0, 11], [0, 0, 1], [0, 0, 1]], [2, 11, 7, 1, 1]),
        ("block", 1): ([289, 93, 16, 2, 0], [0, 48, 14, 2, 0],
                       [[0, 0, 0], [0, 8, 40], [0, 1, 13], [0, 0, 2], [0, 0, 0]], [0, 20, 6, 2, 0]),
    }

    @pytest.mark.parametrize("attack, stream", sorted(EXPECTED))
    def test_pinned_session(self, attack, stream):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=BRIGHT_TRIO, channel=ChannelParams(eta=0.5, y0=0.05),
                                 K=400, n_max=3)
        hidden = simulate_session(cfg, self.ATTACKS[attack], RngStream(5, stream)).to_dict()["hidden"]
        got = tuple(hidden[key] for key in ("k_n", "d_nE", "d_niE", "f_nE"))
        assert got == self.EXPECTED[attack, stream]


class TestAnalyticVariance:
    def test_tau1_matches_binomial_rate_spread(self):
        # tau=1 reduces to sqrt(Y(mu)(1-Y(mu)) / (q K)) within 1%
        cfg = ProtocolConfig(sources=FIG_TRIO, channel=FIG_CH, K=10**10)
        rep = analytic_variance_report(cfg, 1)
        for j, s in enumerate(cfg.sources):
            Y = total_yield(s.mu, cfg.channel)
            iid = math.sqrt(Y * (1 - Y) / (s.q * cfg.K))
            assert abs(rep.sigma_i[j] - iid) / iid <= 0.01

    def test_reference_value_and_tau_scaling(self):
        cfg = ProtocolConfig(sources=FIG_TRIO, channel=FIG_CH, K=10**10)
        rep1 = analytic_variance_report(cfg, 1)
        assert abs(rep1.sigma("U") - 1.4142e-7) / 1.4142e-7 <= 0.01
        r100 = analytic_variance_report(cfg, 100)
        r50 = analytic_variance_report(cfg, 50)
        assert abs(r100.sigma("U") / r50.sigma("U") - 2.0) <= 0.04

    def test_aggregation_consistent(self):
        cfg = bright_config()
        rep = analytic_variance_report(cfg, 7)
        recomputed = np.sqrt(rep.var_ni.sum(axis=0)) / (cfg.qs * cfg.K)
        np.testing.assert_allclose(rep.sigma_i, recomputed, rtol=1e-12)
        assert np.all(rep.var_ni >= 0)

    def test_row_export(self):
        cfg = bright_config()
        row = analytic_variance_report(cfg, 3).to_row()
        assert set(row) == {"tau", "sigma_U", "sigma_V", "sigma_W"}


class TestVarianceComposition:
    """The conditional-variance composition behind the attack formulas, exactly."""

    def test_exact_chain_with_stated_moments(self):
        # X two-point {21, 28} with E[X]=24, Var[X]=12 (the binomial moments for
        # K=48, p=1/2); Y|X three-point with mean y k and variance tau^2 y(1-y) k.
        # The composed variance must equal tau^2 y(1-y) E[X] + y^2 Var[X] exactly.
        tau, y = 3, Fraction(1, 2)
        xs = {21: Fraction(4, 7), 28: Fraction(3, 7)}
        K = 33  # max Y support value covers the largest X
        joint = np.zeros((29, 29))
        for k, fx in xs.items():
            mu = y * k
            v = tau**2 * y * (1 - y) * k
            c = int(mu) - 1
            pi_k = (v + mu * mu - mu * c) / (k * (k - c))
            pi_c = (mu * k - v - mu * mu) / (c * (k - c))
            pi_0 = 1 - pi_k - pi_c
            assert min(pi_0, pi_c, pi_k) >= 0
            joint[k, 0] = float(fx * pi_0)
            joint[k, c] = float(fx * pi_c)
            joint[k, k] = float(fx * pi_k)
        lhs, rhs = total_variance_decompose(joint[:, :29])
        assert abs(lhs - rhs) <= 1e-12
        closed = tau**2 * y * (1 - y) * 24 + y * y * 12
        assert abs(lhs - float(closed)) <= 1e-12

    def test_binomial_chain_tau1(self):
        # full enumeration of X ~ Bin(K, p), Y|X ~ Bin(X, y): the iid case
        K, p, y = 40, Fraction(1, 4), Fraction(3, 5)
        fx = [math.comb(K, k) * p**k * (1 - p) ** (K - k) for k in range(K + 1)]
        joint = np.zeros((K + 1, K + 1))
        for k in range(K + 1):
            for m in range(k + 1):
                joint[k, m] = float(fx[k] * math.comb(k, m) * y**m * (1 - y) ** (k - m))
        lhs, rhs = total_variance_decompose(joint)
        assert abs(lhs - rhs) <= 1e-12
        closed = float(y * (1 - y) * p * K + y * y * p * (1 - p) * K)
        assert abs(lhs - closed) <= 1e-10  # float rounding of the 41x41 pmf entries
