"""Tests for the source/channel model."""
import math
import warnings

import numpy as np
import pytest

from decoyqkd.channel import (
    ChannelParams,
    ProtocolConfig,
    SourceSpec,
    UndefinedPosteriorError,
    default_n_max,
    photon_number_pmf,
    photon_yield,
    source_posteriors,
    total_yield,
)
from decoyqkd.stats import poisson_pmf

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
        cfg = ProtocolConfig(sources=TRIO, channel=CH, K=10**10)
        assert cfg.n_max == default_n_max(10**10, TRIO)
        assert 2 <= cfg.n_max <= 40
        assert cfg.expected_overflow <= cfg.tail_budget

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
