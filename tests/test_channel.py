"""Tests for the source/channel model."""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from decoyqkd.attacks import analytic_variance_report
from decoyqkd.channel import (
    ChannelParams,
    ProtocolConfig,
    SourceSpec,
    UndefinedPosteriorError,
    _tail_mass,
    default_n_max,
    photon_number_pmf,
    photon_yield,
    source_posteriors,
    total_yield,
)
from decoyqkd.harness import load_config
from decoyqkd.stats import poisson_pmf

REPO = Path(__file__).resolve().parent.parent

# three-source layout used throughout: vacuum + weak decoy + signal
U = SourceSpec("U", 0.0, 0.01)
V = SourceSpec("V", 0.063, 0.0275)
W = SourceSpec("W", 0.5, 0.9625)
TRIO = (U, V, W)
CH = ChannelParams(eta=1e-3, y0=2e-6)


class TestSourceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec("X", -0.1, 0.5)
        with pytest.raises(ValueError):
            SourceSpec("X", 0.1, 0.0)
        with pytest.raises(ValueError):
            SourceSpec("X", 0.1, 1.5)

    def test_normalization_enforced(self):
        bad = (SourceSpec("A", 0.0, 0.5), SourceSpec("B", 0.1, 0.4))
        with pytest.raises(ValueError, match="sum to 1"):
            photon_number_pmf(0, bad)


class TestYields:
    def test_vacuum_is_dark_count(self):
        assert photon_yield(0, CH) == CH.y0

    def test_single_photon_is_eta(self):
        np.testing.assert_allclose(photon_yield(1, CH), 1e-3, rtol=1e-12)

    def test_two_photon(self):
        assert photon_yield(2, ChannelParams(0.5, 0.0)) == pytest.approx(0.75, rel=1e-14)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(0.5, 1.0)


class TestTotalYield:
    def test_vacuum(self):
        assert total_yield(0.0, CH) == CH.y0

    def test_weak_decoy_value(self):
        # frozen: e^-0.063 * 2e-6 + 1 - e^(-6.3e-5)
        assert abs(total_yield(0.063, CH) - 6.487590248905211e-05) <= 1e-9

    @pytest.mark.parametrize("mu", [0.01, 0.063, 0.5, 1.0, 2.0])
    def test_matches_series(self, mu):
        series = math.fsum(poisson_pmf(n, mu) * photon_yield(n, CH) for n in range(61))
        assert abs(total_yield(mu, CH) - series) <= 1e-10

    def test_strictly_increasing(self):
        mus = np.linspace(0.0, 2.0, 50)
        vals = [total_yield(m, CH) for m in mus]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPhotonNumberMix:
    def test_all_vacuum(self):
        only = (SourceSpec("U", 0.0, 1.0),)
        assert photon_number_pmf(0, only) == 1.0
        assert photon_number_pmf(3, only) == 0.0

    def test_p0_value(self):
        # frozen: 0.01 + 0.0275 e^-0.063 + 0.9625 e^-0.5
        np.testing.assert_allclose(photon_number_pmf(0, TRIO), 0.6196067054998609, rtol=1e-12)

    def test_sums_to_one(self):
        total = math.fsum(photon_number_pmf(n, TRIO) for n in range(61))
        assert abs(total - 1.0) <= 1e-12


class TestSourcePosterior:
    def test_vacuum_source_cannot_emit_photons(self):
        assert source_posteriors(1, TRIO)[0] == 0.0
        assert source_posteriors(4, TRIO)[0] == 0.0

    def test_values(self):
        np.testing.assert_allclose(source_posteriors(0, TRIO)[0], 0.016139270139003113, rtol=1e-12)
        np.testing.assert_allclose(source_posteriors(1, TRIO)[1], 0.005542115656444675, rtol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 80])
    def test_normalized(self, n):
        assert abs(source_posteriors(n, TRIO).sum() - 1.0) <= 1e-12

    def test_undefined(self):
        only = (SourceSpec("U", 0.0, 1.0),)
        with pytest.raises(UndefinedPosteriorError):
            source_posteriors(2, only)

    def test_largest_mu_dominates(self):
        # q_n(1-q_n) for the brightest source decays monotonically past a crossover,
        # which is what justifies truncating the photon-number expansion
        vals = [source_posteriors(n, TRIO)[2] for n in range(2, 81)]
        spread = [q * (1 - q) for q in vals]
        crossover = int(np.argmax(spread))
        tail = spread[crossover:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
        assert spread[-1] < 1e-12


class TestProtocolConfig:
    def test_default_cutoff(self):
        pinned = {"bright": (9, 0.00010258020930997778), "fig1": (12, 0.00011866923944466048)}
        for name, (n_max, overflow) in pinned.items():
            cfg = load_config(REPO / "configs" / f"{name}.json").protocol
            assert (cfg.n_max, cfg.expected_overflow) == (n_max, overflow)
            assert cfg.expected_overflow <= cfg.tail_budget
            # minimal: one class fewer would exceed the tail budget
            assert cfg.K * _reference_tail(cfg.n_max - 1, cfg.sources) >= cfg.tail_budget

    def test_cutoff_cap(self):
        bright = (SourceSpec("U", 0.0, 0.01), SourceSpec("V", 1.0, 0.09), SourceSpec("W", 6.0, 0.9))
        assert default_n_max(10**12, bright) <= 40

    def test_small_cutoff_warns(self):
        with pytest.warns(UserWarning, match="tail budget"):
            ProtocolConfig(sources=TRIO, channel=CH, K=10**6, n_max=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(sources=TRIO, channel=CH, K=0)
        with pytest.raises(ValueError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ProtocolConfig(sources=TRIO, channel=CH, K=100, n_max=1)

    def test_class_pmf(self):
        cfg = ProtocolConfig(sources=TRIO, channel=CH, K=10**6)
        for s in cfg.sources:
            pmf = cfg.photon_class_pmf(s.mu)
            assert len(pmf) == cfg.n_max + 2
            np.testing.assert_allclose(pmf.sum(), 1.0, atol=1e-12)


def _reference_tail(n, sources):
    return sum(s.q * stats.poisson.sf(n, s.mu) for s in sources if s.mu > 0)


def _reference_posterior(n, sources):
    logw = np.array([math.log(s.q) - s.mu + n * math.log(s.mu) if s.mu > 0
                     else (math.log(s.q) if n == 0 else -math.inf) for s in sources])
    if not np.isfinite(logw.max()):
        return np.zeros(len(sources))
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _reference_poisson(n, mu):
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) if mu > 0 else float(n == 0)


def _reference_pmf(n, sources):
    return math.fsum(s.q * _reference_poisson(n, s.mu) for s in sources)


def _reference_class_pmf(n_max, mu):
    probs = np.array([_reference_poisson(n, mu) for n in range(n_max + 1)])
    total = probs.sum()
    if total > 1.0:
        probs, total = probs / total, 1.0
    return np.append(probs, 1.0 - total)


def _random_decoy_sets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 5))
        mus = [0.0] + sorted(rng.uniform(0.01, 3.0, k).tolist())
        qs = rng.dirichlet(np.ones(k + 1)).tolist()
        qs[-1] = 1.0 - math.fsum(qs[:-1])
        yield tuple(SourceSpec(f"S{j}", mu, q) for j, (mu, q) in enumerate(zip(mus, qs)))


# TRIO with CH at K = 1e10 is fig1.json; with the bright channel at K = 1e6 the
# second set is bright.json
SOURCE_SETS = [TRIO, load_config(REPO / "configs" / "bright.json").protocol.sources,
               *_random_decoy_sets(2013, 12)]


class TestArrayViews:
    """The array views equal the per-class scalar formulas to the last bit."""

    NS = np.arange(42)

    @pytest.mark.parametrize("sources", SOURCE_SETS)
    def test_mixture_views(self, sources):
        assert np.array_equal(source_posteriors(self.NS, sources),
                              [_reference_posterior(n, sources) for n in self.NS])
        assert np.array_equal(photon_number_pmf(self.NS, sources),
                              [_reference_pmf(n, sources) for n in self.NS])
        assert np.array_equal(_tail_mass(self.NS, sources),
                              [_reference_tail(n, sources) for n in self.NS])
        cfg = ProtocolConfig(sources=sources, channel=CH, K=10**10)
        assert np.array_equal(cfg.photon_class_pmf(cfg.mus),
                              [_reference_class_pmf(cfg.n_max, s.mu) for s in sources])

    @pytest.mark.parametrize("sources", SOURCE_SETS)
    def test_variance_report(self, sources):
        # the reference fills var_ni row by row and sums it over classes in
        # that (C) order; another summation order changes the last bits
        for channel, K in ((CH, 10**10), (ChannelParams(0.1, 1e-5), 10**6)):
            cfg = ProtocolConfig(sources=sources, channel=channel, K=K)
            for tau in (1, 10):
                var_ni = np.zeros((cfg.n_max + 1, len(sources)))
                for n in range(cfg.n_max + 1):
                    p_n = _reference_pmf(n, sources)
                    y_n = channel.y0 if n == 0 else -math.expm1(n * math.log1p(-channel.eta))
                    q = _reference_posterior(n, sources)
                    var_ni[n] = ((tau * tau - 1) * q * (1 - y_n) + (1 - q * y_n * p_n)) * q * y_n * p_n * K
                report = analytic_variance_report(cfg, tau)
                assert np.array_equal(report.var_ni, var_ni)
                assert np.array_equal(report.sigma_i, np.sqrt(var_ni.sum(axis=0)) / (cfg.qs * K))
