"""Tests for the probability primitives."""
import math
from fractions import Fraction

import numpy as np
import pytest

from decoyqkd.stats import (
    RngStream,
    binary_entropy,
    chernoff_binomial_tail_bound,
    chernoff_multiplier,
    poisson_pmf,
    total_variance_decompose,
)


class TestPoissonPmf:
    @pytest.mark.parametrize("n, mu, expected", [
        (0, 0.0, 1.0),
        (3, 0.0, 0.0),
        (1, 0.063, 0.05915343884241539),   # frozen 40-digit evaluation of e^-0.063 * 0.063
        (2, 1.0, 0.18393972058572116),     # frozen e^-1 / 2
    ])
    def test_values(self, n, mu, expected):
        np.testing.assert_allclose(poisson_pmf(n, mu), expected, rtol=1e-12)

    @pytest.mark.parametrize("n, mu", [(-1, 0.5), (2.5, 0.5), (1, -0.1), (1, math.inf)])
    def test_domain(self, n, mu):
        with pytest.raises(ValueError):
            poisson_pmf(n, mu)

    @pytest.mark.parametrize("mu", [0.063, 0.5, 1.0, 2.0, 5.0])
    def test_sums_to_one(self, mu):
        total = math.fsum(poisson_pmf(n, mu) for n in range(200))
        assert abs(total - 1.0) <= 1e-10

    def test_large_n_stable(self):
        # log-space evaluation keeps huge factorials finite
        assert 0.0 < poisson_pmf(300, 1.0) < 1e-300 or poisson_pmf(300, 1.0) == 0.0
        assert poisson_pmf(150, 150.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 150), rel=1e-2)


class TestChernoff:
    def test_multiplier(self):
        assert chernoff_multiplier(1.0) == 0.0
        np.testing.assert_allclose(chernoff_multiplier(math.exp(-4.0)), 4.0, rtol=1e-12)
        # frozen: 2 sqrt(ln 1e7)
        np.testing.assert_allclose(chernoff_multiplier(1e-7), 8.029469634031458, rtol=1e-12)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                chernoff_multiplier(bad)

    def test_tail_bound_values(self):
        assert chernoff_binomial_tail_bound(5.0, 10, 0.5) == 1.0  # at the mean
        assert chernoff_binomial_tail_bound(2.0, 10, 0.5) == 1.0  # below the mean: vacuous
        # frozen 40-digit evaluations of exp(-(9/4)(sqrt(2v + 4t/3) - sqrt(2v))^2)
        np.testing.assert_allclose(chernoff_binomial_tail_bound(8, 10, 0.5),
                                   0.26898966942215738, rtol=1e-12)  # v = 2.5, t = 3
        np.testing.assert_allclose(chernoff_binomial_tail_bound(5, 100, 0.01),
                                   0.022683995312180497, rtol=1e-12)  # v = 0.99, t = 4
        for bad_a in (0.0, 1.0):
            with pytest.raises(ValueError):
                chernoff_binomial_tail_bound(5, 10, bad_a)

    def test_dominates_exact_tail(self):
        # exact rational tails never exceed the bound, at any deviation
        assert Fraction(11, 1024) <= chernoff_binomial_tail_bound(8, 10, 0.5)
        for n in (5, 13, 30):
            for a_pct in (3, 27, 50, 91):
                a = Fraction(a_pct, 100)
                af = a_pct / 100
                pmf = [math.comb(n, m) * a**m * (1 - a) ** (n - m) for m in range(n + 1)]
                for k in range(math.ceil(n * a_pct / 100), n + 1):
                    tail = sum(pmf[k + 1:], Fraction(0))
                    assert tail <= chernoff_binomial_tail_bound(k, n, af)

    def test_known_failure_outside_regime(self):
        # regression anchor: Pr[X > 3] for Binomial(5, 0.03) exceeded the old
        # sub-Gaussian expression exp(-(k-na)^2 / (4a(1-a)n)) by ~4.5x in this
        # extreme-deviation Poisson regime; the Bernstein bound dominates it
        exact_tail = Fraction(4941, 1250000000)
        bound = chernoff_binomial_tail_bound(3, 5, 0.03)
        # frozen 40-digit evaluation at v = 0.1455, t = 2.85
        np.testing.assert_allclose(bound, 0.0070863310716187612, rtol=1e-12)
        assert exact_tail <= bound


class TestBinaryEntropy:
    @pytest.mark.parametrize("x, expected", [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, 1.0),
        (0.11, 0.499915958164528),  # frozen 40-digit evaluation
    ])
    def test_values(self, x, expected):
        np.testing.assert_allclose(binary_entropy(x), expected, rtol=1e-12, atol=1e-15)

    def test_domain(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_symmetry(self):
        for x in (0.02, 0.11, 0.3):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-13)


class TestTotalVarianceDecompose:
    def test_independent(self):
        # product joint: the conditional-mean variance term vanishes
        fx = np.array([0.25, 0.5, 0.25])
        gy = np.array([0.125, 0.375, 0.375, 0.125])
        joint = np.outer(fx, gy)
        lhs, rhs = total_variance_decompose(joint)
        var_y = (gy * np.arange(4) ** 2).sum() - ((gy * np.arange(4)).sum()) ** 2
        np.testing.assert_allclose(lhs, var_y, rtol=1e-13)
        assert abs(lhs - rhs) <= 1e-12

    def test_deterministic(self):
        # Y = X: all variance comes from the conditional mean
        fx = np.array([0.2, 0.3, 0.5])
        joint = np.diag(fx)
        lhs, rhs = total_variance_decompose(joint)
        var_x = (fx * np.arange(3) ** 2).sum() - ((fx * np.arange(3)).sum()) ** 2
        np.testing.assert_allclose(lhs, var_x, rtol=1e-13)
        assert abs(lhs - rhs) <= 1e-12

    def test_random_joints(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            joint = rng.random((21, 21))
            joint /= joint.sum()
            lhs, rhs = total_variance_decompose(joint)
            assert abs(lhs - rhs) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            total_variance_decompose(np.full((3, 3), 0.2))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().integers(0, 10**9, size=16)
        b = RngStream(42, 3).generator().integers(0, 10**9, size=16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().integers(0, 10**9, size=16)
        b = RngStream(42, 1).generator().integers(0, 10**9, size=16)
        assert not np.array_equal(a, b)
