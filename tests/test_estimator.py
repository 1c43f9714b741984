"""Tests for the estimation procedures: budgets, bounds, solver, baselines."""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyqkd import (
    AttackSpec,
    BoundParams,
    ChannelParams,
    InfeasibleSessionError,
    KeyRateParams,
    ProtocolConfig,
    RngStream,
    SessionPublic,
    SourceSpec,
    bayes_dark_posterior,
    build_epsilon_budget,
    chernoff_multiplier,
    coverage_probability,
    estimate_session,
    grid_minimize_detection,
    iid_baseline_estimate,
    key_rate,
    minimize_detection_count,
    poisson_pmf,
    share_lower_bound,
    share_upper_bound,
    sifted_lower_bound,
    simulate_session,
    source_posteriors,
    total_lower_bound,
    total_upper_bound,
    total_yield,
)
from decoyqkd.harness import load_config

BRIGHT_TRIO = (SourceSpec("U", 0.0, 0.1), SourceSpec("V", 0.1, 0.3), SourceSpec("W", 0.5, 0.6))
BRIGHT_CH = ChannelParams(eta=0.1, y0=1e-5)


def bright_config(K=10**6):
    return ProtocolConfig(sources=BRIGHT_TRIO, channel=BRIGHT_CH, K=K)


class TestEpsilonBudget:
    def test_three_source_series(self):
        b = build_epsilon_budget(1e-7, 12, 3)
        np.testing.assert_allclose(b.eps_n[0], 1e-7 / 12, rtol=1e-14)
        np.testing.assert_allclose(b.eps_n[5], 1e-7 / 12 / 32, rtol=1e-14)
        # frozen: 2 sqrt(|ln(1e-7 / 24)|)
        np.testing.assert_allclose(b.c_n[0], 8.785476533758716, rtol=1e-12)
        np.testing.assert_allclose(b.c_delta, 8.200303124035907, rtol=1e-12)

    def test_multiplier_increments(self):
        b = build_epsilon_budget(0.01, 8, 3)
        diffs = np.diff(b.c_n**2)
        np.testing.assert_allclose(diffs, 4 * math.log(2), rtol=1e-12)

    def test_log_flip_case(self):
        # |log| keeps the formula meaningful up to the sign-flip point
        b = build_epsilon_budget(24 / math.e, 3, 3)
        np.testing.assert_allclose(b.c_n[0] ** 2, 4.0, rtol=1e-12)

    def test_domain(self):
        for bad in (0.0, -1.0, 24.0, 30.0):
            with pytest.raises(ValueError):
                build_epsilon_budget(bad, 5, 3)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_budget_arithmetic(self, eps):
        b = build_epsilon_budget(eps, 12, 3)
        assert b.eps_bar <= eps / 2
        assert b.eps_bar + b.delta_bar <= eps
        np.testing.assert_allclose(b.c_delta, chernoff_multiplier(eps / 2), rtol=1e-14)

    def test_sifting_multiplier_zero_at_two(self):
        assert build_epsilon_budget(2.0, 3, 3).c_delta == 0.0

    def test_source_count_generalization(self):
        b = build_epsilon_budget(0.01, 10, 5)
        assert b.eps_bar <= 0.01 / 2
        assert b.eps_bar + b.delta_bar <= 0.01


class TestBoundFunctions:
    def test_forward_examples(self):
        p = BoundParams(q=0.5, c=2.0)
        assert share_upper_bound(0.0, p) == 0.0
        assert share_upper_bound(100.0, BoundParams(q=0.5, c=0.0)) == 50.0
        np.testing.assert_allclose(share_upper_bound(100.0, p), 60.0, rtol=1e-14)

    def test_lower_bound_examples(self):
        p = BoundParams(q=0.5, c=2.0)
        assert total_lower_bound(0.0, p) == 0.0
        np.testing.assert_allclose(total_lower_bound(60.0, p), 100.0, rtol=1e-12)
        np.testing.assert_allclose(total_lower_bound(42.0, BoundParams(q=0.7, c=0.0)), 60.0, rtol=1e-14)

    def test_upper_bound_examples(self):
        p = BoundParams(q=0.5, c=2.0)
        np.testing.assert_allclose(total_upper_bound(0.0, p), 4.0, rtol=1e-12)  # c^2 (1-q)/q
        np.testing.assert_allclose(total_upper_bound(30.0, BoundParams(q=0.3, c=0.0)), 100.0, rtol=1e-14)
        p2 = BoundParams(q=0.1, c=3.0)
        u = share_lower_bound(1e4, p2)
        np.testing.assert_allclose(total_upper_bound(u, p2), 1e4, rtol=1e-9)

    def test_roundtrip_grid(self):
        # the lower-bound inverse must undo the forward map across the full grid
        for d in (0.0, 1.0, 10.0, 1e3, 1e6):
            for q in (0.016, 0.1, 0.5, 0.99):
                for c in (0.0, 1.0, 8.8):
                    p = BoundParams(q=q, c=c)
                    back = total_lower_bound(share_upper_bound(d, p), p)
                    assert abs(back - d) <= 1e-9 * max(1.0, d)
                    # the upper-bound inverse undoes the lower envelope only on
                    # its increasing branch, d >= c^2 (1-q)/q
                    if d >= c * c * (1 - q) / q:
                        back_up = total_upper_bound(share_lower_bound(d, p), p)
                        assert abs(back_up - d) <= 1e-9 * max(1.0, d)

    def test_degenerate_q_one(self):
        # a class attributed to a single source: both bounds collapse
        p = BoundParams(q=1.0, c=5.0)
        assert total_lower_bound(123.0, p) == pytest.approx(123.0, rel=1e-12)
        assert total_upper_bound(123.0, p) == pytest.approx(123.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundParams(q=0.0, c=1.0)
        with pytest.raises(ValueError):
            BoundParams(q=0.5, c=-1.0)
        with pytest.raises(ValueError):
            share_upper_bound(-1.0, BoundParams(q=0.5, c=1.0))

    @given(u=st.floats(0.0, 1e9), q=st.floats(1e-6, 1.0), c=st.floats(0.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_ordering(self, u, q, c):
        p = BoundParams(q=q, c=c)
        assert total_upper_bound(u, p) >= total_lower_bound(u, p) - 1e-9

    @given(q=st.floats(1e-4, 0.9999), c=st.floats(0.0, 12.0),
           u=st.floats(0.0, 1e8), du=st.floats(1e-3, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, q, c, u, du):
        p = BoundParams(q=q, c=c)
        assert total_lower_bound(u + du, p) > total_lower_bound(u, p)
        assert total_upper_bound(u + du, p) > total_upper_bound(u, p)
        assert share_upper_bound(u + du, p) > share_upper_bound(u, p)


class TestMinimizer:
    def test_degenerate_single_vacuum_source(self):
        # q -> 1 collapses the bands to equality: d0* equals the observed count
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=(SourceSpec("U", 0.0, 1.0),),
                                 channel=ChannelParams(0.5, 0.01), K=10**6, n_max=2)
        budget = build_epsilon_budget(0.01, cfg.n_max, 1)
        pub = SessionPublic(K=10**6, K_i=(10**6,), D_iE=(10123,), D_E=10123, F_E=5061)
        r = minimize_detection_count(pub, cfg, budget, 0)
        assert r.status == "optimal"
        assert abs(r.d_star - 10123) <= 1e-6 * 10123

    def test_zero_transcript(self):
        cfg = bright_config()
        budget = build_epsilon_budget(0.01, cfg.n_max, 3)
        pub = SessionPublic(K=10**6, K_i=(10**5, 3 * 10**5, 6 * 10**5), D_iE=(0, 0, 0), D_E=0, F_E=0)
        r = minimize_detection_count(pub, cfg, budget, 1)
        assert r.d_star == 0.0 and r.status == "optimal"

    def test_infeasible_transcript(self):
        # detections attributed entirely to the vacuum source cannot be explained
        cfg = bright_config()
        budget = build_epsilon_budget(0.01, cfg.n_max, 3)
        pub = SessionPublic(K=10**6, K_i=(10**5, 3 * 10**5, 6 * 10**5),
                            D_iE=(10**6, 0, 0), D_E=10**6, F_E=5 * 10**5)
        with pytest.raises(InfeasibleSessionError):
            minimize_detection_count(pub, cfg, budget, 0)

    def test_matches_grid_oracle_fixed_instance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(
                sources=(SourceSpec("U", 0.0, 0.2), SourceSpec("V", 0.4, 0.3), SourceSpec("W", 1.1, 0.5)),
                channel=ChannelParams(0.4, 0.02), K=10**6, n_max=2)
        budget = build_epsilon_budget(0.05, cfg.n_max, 3)
        d_true = np.array([0.22, 0.18, 0.25]) * cfg.K
        Q = np.array([source_posteriors(n, cfg.sources) for n in range(3)]).T
        A = budget.c_n[None, :3] * np.sqrt(Q * (1 - Q))
        D_i = Q @ d_true + np.array([0.4, -0.3, 0.2]) * (A @ np.sqrt(d_true))
        pub = SessionPublic(K=cfg.K, K_i=(200000, 300000, 500000),
                            D_iE=tuple(int(v) for v in np.round(D_i)),
                            D_E=int(d_true.sum() * 1.02), F_E=int(d_true.sum() * 0.51))
        for target in (0, 1):
            r = minimize_detection_count(pub, cfg, budget, target)
            g = grid_minimize_detection(pub, cfg, budget, target)
            assert r.status == "optimal"
            assert abs(r.d_star - g) <= 0.005 * max(g, 1.0)

    def test_grid_oracle_detects_infeasibility(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=BRIGHT_TRIO, channel=BRIGHT_CH, K=10**6, n_max=2)
        budget = build_epsilon_budget(0.01, cfg.n_max, 3)
        pub = SessionPublic(K=10**6, K_i=(10**5, 3 * 10**5, 6 * 10**5),
                            D_iE=(10**6, 0, 0), D_E=10**6, F_E=5 * 10**5)
        for target in (0, 1):
            assert grid_minimize_detection(pub, cfg, budget, target) is None

    def test_target_validation(self):
        cfg = bright_config()
        budget = build_epsilon_budget(0.01, cfg.n_max, 3)
        pub = SessionPublic(K=10**6, K_i=(1, 1, 1), D_iE=(0, 0, 0), D_E=0, F_E=0)
        with pytest.raises(ValueError):
            minimize_detection_count(pub, cfg, budget, cfg.n_max + 1)


class TestSiftedLowerBound:
    def test_trivial(self):
        b = build_epsilon_budget(0.01, 5, 3)
        assert sifted_lower_bound(0.0, 1e6, 5e5, b) == 0.0
        assert sifted_lower_bound(100.0, 0.0, 0.0, b) == 0.0

    def test_zero_multiplier_is_proportional(self):
        b = build_epsilon_budget(2.0, 5, 3)  # c_delta = 0
        np.testing.assert_allclose(sifted_lower_bound(1e4, 1e6, 5e5, b), 5e5 * 0.01, rtol=1e-14)

    def test_reference_value(self):
        # frozen: 5000 - 2 sqrt(|ln 5e-8|) * sqrt(5e5 * 0.01 * 0.99)
        b = build_epsilon_budget(1e-7, 5, 3)
        val = sifted_lower_bound(1e4, 1e6, 5e5, b)
        np.testing.assert_allclose(val, 4423.0575348753903, rtol=1e-12)

    def test_clamped(self):
        b = build_epsilon_budget(1e-7, 5, 3)
        assert sifted_lower_bound(1.0, 1e6, 5e5, b) == 0.0


class TestKeyRate:
    def test_no_penalties(self):
        s, kl = key_rate(100.0, 900.0, 1e4, 10**6, KeyRateParams(ber=0.0, b1_max=0.0))
        assert kl == 1000.0 and s == 1000.0 / 10**6

    def test_full_single_photon_penalty(self):
        # b1_max = 1/2 makes the single-photon term cancel exactly
        s, kl = key_rate(100.0, 900.0, 1e4, 10**6,
                         KeyRateParams(kappa_ec=0.0, kappa_pa=1.0, ber=0.0, b1_max=0.5))
        np.testing.assert_allclose(kl, 100.0, rtol=1e-12)

    def test_clamped_to_zero(self):
        # frozen: 1000 - 1.2e4 H2(0.02) - 900 H2(0.03) = -872.239... -> 0
        params = KeyRateParams(kappa_ec=1.2, kappa_pa=1.0, ber=0.02, b1_max=0.03)
        s, kl = key_rate(100.0, 900.0, 1e4, 10**6, params)
        assert kl == 0.0 and s == 0.0

    def test_monotone_in_error_rates(self):
        base = key_rate(500.0, 4000.0, 10**4, 10**6, KeyRateParams(ber=0.01, b1_max=0.01))[1]
        worse_ber = key_rate(500.0, 4000.0, 10**4, 10**6, KeyRateParams(ber=0.05, b1_max=0.01))[1]
        worse_b1 = key_rate(500.0, 4000.0, 10**4, 10**6, KeyRateParams(ber=0.01, b1_max=0.05))[1]
        assert worse_ber < base and worse_b1 < base

    def test_capped_by_sifted_detections(self):
        _, kl = key_rate(1e6, 1e6, 1e4, 10**6, KeyRateParams())
        assert kl <= 1e4

    def test_zero_inputs_give_zero(self):
        s, kl = key_rate(0.0, 0.0, 0.0, 10**6, KeyRateParams(ber=0.1, b1_max=0.1))
        assert s == 0.0 and kl == 0.0


class TestEstimateSession:
    def test_all_blocking_attack_yields_no_key(self):
        cfg = bright_config(K=10**5)
        att = AttackSpec(kind="iid", yields_override={n: 0.0 for n in range(cfg.n_max + 2)})
        s = simulate_session(cfg, att, RngStream(5))
        assert s.D_E == 0
        res = estimate_session(s.public(), cfg, 0.01)
        assert res.key_length == 0.0

    def test_honest_session_sound(self):
        cfg = bright_config()
        s = simulate_session(cfg, AttackSpec("none"), RngStream(8, 2))
        res = estimate_session(s.public(), cfg, 0.01)
        assert res.solver_status == "optimal"
        assert res.d0_star <= s.d_nE[0] + 1e-9
        assert res.d1_star <= s.d_nE[1] + 1e-9
        assert res.f0_star <= s.f_nE[0] + 1e-9
        assert res.f1_star <= s.f_nE[1] + 1e-9
        assert res.key_length <= s.F_E
        assert res.key_length > 0

    def test_infeasible_gives_abort_status(self):
        cfg = bright_config()
        pub = SessionPublic(K=10**6, K_i=(10**5, 3 * 10**5, 6 * 10**5),
                            D_iE=(10**6, 0, 0), D_E=10**6, F_E=5 * 10**5)
        res = estimate_session(pub, cfg, 0.01)
        assert res.solver_status == "infeasible"
        assert res.key_length == 0.0 and res.key_rate_s == 0.0

    def test_photon_splitting_attack_collapses_single_photon_bound(self):
        cfg = bright_config()
        # block single photons, raise multi-photon yields so the bright source's
        # total rate looks honest while the weak decoy's rate is deficient
        p_multi = 1.0 - poisson_pmf(0, 0.5) - poisson_pmf(1, 0.5)
        y_comp = (total_yield(0.5, cfg.channel) - poisson_pmf(0, 0.5) * cfg.channel.y0) / p_multi
        overrides = {1: 0.0}
        overrides.update({n: min(1.0, y_comp) for n in range(2, cfg.n_max + 2)})
        honest = simulate_session(cfg, AttackSpec("none"), RngStream(21, 0))
        attacked = simulate_session(cfg, AttackSpec("iid", yields_override=overrides), RngStream(21, 1))
        res_h = estimate_session(honest.public(), cfg, 0.01)
        res_a = estimate_session(attacked.public(), cfg, 0.01)
        assert res_a.f1_star < 0.5 * res_h.f1_star

    def test_sound_under_cross_class_correlated_custom_law(self):
        # one global coin rescales every class at once: correlations across
        # photon numbers do not break the bounds, because only the source
        # split is assumed binomial
        import numpy as np

        def law(k, gen):
            scale = 0.12 if gen.random() < 0.5 else 0.08
            return np.minimum(k, np.round(k * scale).astype(np.int64))

        cfg = bright_config()
        attack = AttackSpec("custom", custom_law=law)
        for i in range(60):
            s = simulate_session(cfg, attack, RngStream(909, i))
            r = estimate_session(s.public(), cfg, 0.01)
            assert r.d0_star <= s.d_nE[0] + 1e-9
            assert r.d1_star <= s.d_nE[1] + 1e-9
            assert r.f1_star <= s.f_nE[1] + 1e-9

    def test_total_cap_is_a_tightening(self):
        # dropping the sum constraint enlarges the feasible region, so the
        # minimized count can only decrease
        cfg = bright_config()
        s = simulate_session(cfg, AttackSpec("none"), RngStream(111))
        budget = build_epsilon_budget(0.01, cfg.n_max, 3)
        for target in (0, 1):
            with_cap = minimize_detection_count(s.public(), cfg, budget, target, cap_total=True)
            without = minimize_detection_count(s.public(), cfg, budget, target, cap_total=False)
            assert without.d_star <= with_cap.d_star + 1e-6 * max(1.0, with_cap.d_star)

    def test_oracle_gap_diagnostic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=BRIGHT_TRIO, channel=ChannelParams(0.4, 0.02),
                                 K=10**5, n_max=2)
        s = simulate_session(cfg, AttackSpec("none"), RngStream(33))
        res = estimate_session(s.public(), cfg, 0.05, oracle_gap=True)
        assert res.solver_gap is not None
        assert res.solver_gap <= 0.01

    def test_result_serializes(self):
        import json

        cfg = bright_config(K=10**5)
        s = simulate_session(cfg, AttackSpec("none"), RngStream(3))
        res = estimate_session(s.public(), cfg, 0.01)
        doc = json.dumps(res.to_dict())
        assert "eps_bar" in doc and "solver_status" in doc


REPO = Path(__file__).resolve().parent.parent

# Certified values of seeded sessions on the shipped configs, pinned at 1e-9
# relative (1e-9 detections absolute for the near-zero d0*): a solver change
# that moves any certificate fails here.  Columns:
# config, attack kind ("tampered" = vacuum source inflated 10x), stream id,
# d0*, d1*, f0*, f1*, key length, solver status.
GOLDEN = [
    ("bright", "block_correlated", 0, 38.14660934009842, 14755.935952298778, 0.0,
     7136.2806648707265, 3007.7583653074153, "optimal"),
    ("bright", "block_correlated", 1, 2.607912214642384e-18, 13806.468391122422, 0.0,
     6589.503517137108, 2520.2554068006843, "optimal"),
    ("bright", "block_correlated", 2, 0.0, 16593.396223397463, 0.0,
     8060.526217804018, 3729.7641975237584, "optimal"),
    ("bright", "none", 0, 2.028706514492506, 15300.756721218724, 0.0,
     7413.4937083467585, 3196.1193481306586, "optimal"),
    ("bright", "none", 1, 0.9559796913259164, 14975.415796998162, 0.0,
     7266.007780938369, 3119.2264609645936, "optimal"),
    ("bright", "none", 2, 0.2547651117552141, 16482.062851299153, 0.0,
     7925.379040269118, 3670.109839715115, "optimal"),
    ("bright", "tampered", 0, 0.0, 0.0, 0.0, 0.0, 0.0, "infeasible"),
    ("fig1", "block_correlated", 0, 6710.896272563262, 2408569.099439588, 2881.209870075465,
     1198102.297398154, 560582.1850561935, "optimal"),
    ("fig1", "block_correlated", 1, 6189.899326596696, 2407409.006945923, 2638.418147126184,
     1197092.1565958643, 559892.5690217536, "optimal"),
    ("fig1", "block_correlated", 2, 6667.242053036568, 2503980.618172424, 2861.5680315937466,
     1246043.4083027286, 594506.4011554421, "optimal"),
    ("fig1", "none", 0, 5760.737952385961, 2481075.299819177, 2441.489116345788,
     1234608.025441401, 586139.0420632237, "optimal"),
    ("fig1", "none", 1, 6319.553772977387, 2458655.2675776314, 2698.387407242689,
     1222641.7790021978, 576990.5695159071, "optimal"),
    ("fig1", "none", 2, 6623.630066068861, 2474760.9105306533, 2839.3831358296206,
     1230666.46914949, 583654.5378928414, "optimal"),
    ("fig1", "tampered", 0, 0.0, 0.0, 0.0, 0.0, 0.0, "infeasible"),
]


def _golden_public(cfg, kind: str, stream: int) -> SessionPublic:
    attack = AttackSpec("block_correlated", 10) if kind == "block_correlated" else AttackSpec("none")
    pub = simulate_session(cfg.protocol, attack, RngStream(cfg.seed, stream)).public()
    if kind != "tampered":
        return pub
    # no split of the photon classes explains this many vacuum-source clicks
    add = int(10.0 * max(pub.D_E - pub.D_iE[0], 100))
    return SessionPublic(K=pub.K, K_i=pub.K_i, D_iE=(pub.D_iE[0] + add,) + pub.D_iE[1:],
                         D_E=pub.D_E + add, F_E=pub.F_E)


@pytest.fixture(scope="module")
def golden_sessions():
    cfgs = {name: load_config(REPO / "configs" / f"{name}.json") for name in ("bright", "fig1")}
    return [(row, cfgs[row[0]], _golden_public(cfgs[row[0]], row[1], row[2])) for row in GOLDEN]


class TestCertifiedValues:
    def test_golden_certificates(self, golden_sessions):
        for row, cfg, pub in golden_sessions:
            r = estimate_session(pub, cfg.protocol, cfg.eps_dsp, cfg.key_params)
            got = (r.d0_star, r.d1_star, r.f0_star, r.f1_star, r.key_length)
            assert got == pytest.approx(row[3:8], rel=1e-9, abs=1e-9), row[:3]
            assert r.solver_status == row[8], row[:3]

    def test_optimum_inside_every_envelope(self, golden_sessions):
        # the minimizer's stacked constraints must agree with the scalar
        # envelope definitions at every optimum it reports
        checked = 0
        for row, cfg, pub in golden_sessions:
            if row[8] != "optimal":
                continue
            budget = build_epsilon_budget(cfg.eps_dsp, cfg.protocol.n_max, len(cfg.protocol.sources))
            q = np.array([source_posteriors(n, cfg.protocol.sources)
                          for n in range(cfg.protocol.n_max + 1)])
            for target in (0, 1):
                r = minimize_detection_count(pub, cfg.protocol, budget, target)
                assert r.status == "optimal"
                d = r.x * r.x
                for i, D in enumerate(pub.D_iE):
                    params = [(d[n], BoundParams(q[n, i], budget.c_n[n]))
                              for n in range(len(d)) if q[n, i] > 0]
                    tol = 1e-8 * max(D, 1.0)
                    assert sum(share_upper_bound(dn, p) for dn, p in params) >= D - tol, (row[:3], i)
                    assert sum(share_lower_bound(dn, p) for dn, p in params) <= D + tol, (row[:3], i)
                checked += 1
        assert checked == 24


class TestIidBaseline:
    def test_exact_recovery_with_zero_width(self):
        # square system: three sources, three unknown yields, zero-width bands
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(
                sources=(SourceSpec("U", 0.0, 0.2), SourceSpec("V", 0.3, 0.3), SourceSpec("W", 0.9, 0.5)),
                channel=ChannelParams(0.2, 1e-4), K=10**6, n_max=2)
        y_true = np.array([0.013, 0.21, 0.37])
        P = np.array([[poisson_pmf(n, s.mu) for n in range(3)] for s in cfg.sources])
        Z = P @ y_true
        K_i = (np.array([0.2, 0.3, 0.5]) * cfg.K).astype(int)
        pub = SessionPublic(K=cfg.K, K_i=tuple(K_i), D_iE=tuple(Z * K_i),
                            D_E=int((Z * K_i).sum()), F_E=int((Z * K_i).sum() / 2))
        y0_min, y1_min = iid_baseline_estimate(pub, cfg, eps_bar=1.0)  # c = 0
        assert abs(y0_min - y_true[0]) <= 1e-6
        assert abs(y1_min - y_true[1]) <= 1e-6

    def test_single_photon_yield_tightens_with_pulses(self):
        # under an honest iid channel the single-photon lower bound approaches
        # eta from below as the session grows
        est = {}
        for K in (10**5, 10**6, 10**7):
            cfg = bright_config(K=K)
            vals = []
            for j in range(3):
                s = simulate_session(cfg, AttackSpec("iid"), RngStream(55, 10 * j + int(math.log10(K))))
                vals.append(iid_baseline_estimate(s.public(), cfg, eps_bar=0.01)[1])
            est[K] = float(np.mean(vals))
        assert est[10**5] <= est[10**6] <= est[10**7] <= BRIGHT_CH.eta * 1.02

    def test_infeasible(self):
        cfg = bright_config()
        pub = SessionPublic(K=10**6, K_i=(10**5, 3 * 10**5, 6 * 10**5),
                            D_iE=(10**5, 0, 10), D_E=10**5 + 10, F_E=5 * 10**4)
        with pytest.raises(InfeasibleSessionError):
            iid_baseline_estimate(pub, cfg, eps_bar=0.01)

    def test_block_attack_breaks_claimed_confidence(self):
        # under a tau=10 block attack the LP's vacuum-yield lower bound
        # overshoots the true dark-count rate far more often than the
        # binomial model's nominal failure probability promises (the source
        # split dilutes the correlation, but the rate spread still inflates
        # severalfold)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ProtocolConfig(sources=BRIGHT_TRIO, channel=ChannelParams(0.1, 0.01), K=10**6)
        eps_bar = 0.1  # the bands claim failure probability <= eps_bar

        def failure_rate(attack, base_stream):
            failures = 0
            for i in range(200):
                s = simulate_session(cfg, attack, RngStream(base_stream, i))
                try:
                    y0_min, _ = iid_baseline_estimate(s.public(), cfg, eps_bar=eps_bar)
                except InfeasibleSessionError:
                    failures += 1
                    continue
                failures += y0_min > cfg.channel.y0
            return failures / 200

        blocked = failure_rate(AttackSpec("block_correlated", tau=10), 404)
        honest = failure_rate(AttackSpec("iid"), 405)
        assert blocked > 1.5 * eps_bar
        assert honest <= eps_bar / 2
        assert blocked > 4 * max(honest, 0.01)

    def test_general_estimator_is_more_conservative(self):
        # the attack-agnostic single-photon bound never exceeds what the
        # i.i.d. baseline would imply on the same honest transcript
        cfg = bright_config()
        p1 = sum(s.q * poisson_pmf(1, s.mu) for s in cfg.sources)
        for stream in range(3):
            s = simulate_session(cfg, AttackSpec("iid"), RngStream(77, stream))
            res = estimate_session(s.public(), cfg, 0.01)
            _, y1_min = iid_baseline_estimate(s.public(), cfg, eps_bar=0.005)
            baseline_f1 = y1_min * p1 * cfg.K / 2
            assert res.f1_star <= baseline_f1


class TestBayesPosterior:
    def test_uniform_for_empty_session(self):
        grid = np.linspace(0, 1, 101)
        post = bayes_dark_posterior(0, 0, 3, grid)
        np.testing.assert_allclose(post, np.full(101, 1 / 101), rtol=1e-12)

    @pytest.mark.parametrize("tau", [1, 3, 10])
    def test_mode_at_observed_rate(self, tau):
        grid = np.linspace(0, 0.01, 1001)  # contains 1e-3 exactly
        post = bayes_dark_posterior(1000, 10**6, tau, grid)
        assert grid[int(np.argmax(post))] == pytest.approx(1e-3, abs=1e-12)

    def test_width_scales_with_tau(self):
        grid = np.linspace(0.0, 5e-3, 20001)

        def std(p):
            m = (p * grid).sum()
            return math.sqrt((p * grid * grid).sum() - m * m)

        s1 = std(bayes_dark_posterior(1000, 10**6, 1, grid))
        s10 = std(bayes_dark_posterior(1000, 10**6, 10, grid))
        assert abs(s10 / s1 - 10.0) <= 1.0

    def test_domain(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            bayes_dark_posterior(11, 10, 1, grid)
        with pytest.raises(ValueError):
            bayes_dark_posterior(1, 10, 0, grid)
        with pytest.raises(ValueError):
            bayes_dark_posterior(1, 10, 1, np.array([0.5, 1.5]))


class TestCoverage:
    def test_wide_interval_covers(self):
        cov = coverage_probability(10**6, 0.01, 1, 10.0)
        assert cov >= 1 - 2 * math.exp(-25)

    def test_zero_width_is_point_mass(self):
        from scipy.stats import binom

        cov = coverage_probability(10**4, 0.01, 1, 0.0)
        np.testing.assert_allclose(cov, binom.pmf(100, 10**4, 0.01), rtol=1e-12)

    def test_degenerate_rate(self):
        assert coverage_probability(10**4, 0.0, 5, 1.0) == 1.0
        assert coverage_probability(10**4, 1.0, 5, 1.0) == 1.0

    def test_monotone_in_tau(self):
        for c in (1.0, 2.0, 3.0):
            vals = [coverage_probability(10**6, 0.01, t, c) for t in (1, 2, 5, 10)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_remainder_blocks(self):
        # K_U not divisible by tau^2: exact convolution stays a probability
        cov = coverage_probability(10**4 + 37, 0.01, 7, 2.0)
        assert 0.0 <= cov <= 1.0

    def test_oversized_block(self):
        with pytest.raises(ValueError):
            coverage_probability(10, 0.1, 10, 1.0)
