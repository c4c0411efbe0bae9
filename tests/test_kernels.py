"""Squared-exponential covariance construction."""

import math

import numpy as np
import pytest

from ellslice import InvalidConfig, KernelConfig, factorize, squared_exponential


class TestKernelConfig:
    def test_defaults(self):
        cfg = KernelConfig()
        assert cfg.lengthscale == 1.0 and cfg.signal_variance == 1.0

    # 1e-200 and 1e200 are finite, but their squares are not positive floats
    # a bool is not a number, though True passes a range check as 1
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e-200, 1e200, True])
    def test_rejects_bad_lengthscale(self, bad):
        with pytest.raises(InvalidConfig):
            KernelConfig(lengthscale=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, True])
    def test_rejects_bad_signal_variance(self, bad):
        with pytest.raises(InvalidConfig):
            KernelConfig(signal_variance=bad)


class TestSquaredExponential:
    def test_diagonal_is_exactly_signal_variance(self):
        rng = np.random.default_rng(0)
        cov = squared_exponential(rng.uniform(size=(30, 4)), KernelConfig(signal_variance=2.5))
        np.testing.assert_array_equal(np.diag(cov), np.full(30, 2.5))

    @pytest.mark.parametrize("n", [1, 5])
    def test_vector_is_points_of_one_dimension(self, n):
        x, cfg = np.linspace(0.0, 1.0, n), KernelConfig(lengthscale=0.3)
        cov = squared_exponential(x, cfg)
        assert cov.shape == (n, n)
        np.testing.assert_array_equal(cov, squared_exponential(x[:, None], cfg))

    def test_unit_separation_value(self):
        cov = squared_exponential(np.array([[0.0], [1.0]]), KernelConfig())
        assert math.isclose(cov[0, 1], math.exp(-0.5), rel_tol=1e-15)

    def test_huge_lengthscale_saturates(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(size=(10, 3))
        cov = squared_exponential(inputs, KernelConfig(lengthscale=1e6, signal_variance=1.5))
        assert np.all(np.abs(cov - 1.5) < 1e-6)

    @pytest.mark.parametrize("lengthscale, gap", [(1e-160, 0.5), (1e-150, 1e5), (1.0, 1e155)])
    def test_overflowing_scaled_distance_gives_zero(self, lengthscale, gap):
        """A squared distance, or its ratio to the lengthscale squared, that
        overflows is an entry exp(-inf) = 0, without a warning."""
        cov = squared_exponential(np.array([0.0, gap]), KernelConfig(lengthscale, 2.0))
        np.testing.assert_array_equal(cov, [[2.0, 0.0], [0.0, 2.0]])

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(2)
        cov = squared_exponential(rng.standard_normal((40, 2)), KernelConfig(0.7, 1.3))
        np.testing.assert_array_equal(cov, cov.T)

    def test_lengthscale_controls_decay(self):
        inputs = np.array([[0.0], [1.0]])
        wide = squared_exponential(inputs, KernelConfig(lengthscale=10.0))
        narrow = squared_exponential(inputs, KernelConfig(lengthscale=0.1))
        assert narrow[0, 1] < wide[0, 1]

    def test_factorizable_on_random_inputs(self):
        """SE covariances stay (numerically) PSD: factorization succeeds with
        at most the escalated jitter on 100 random unit-cube input sets."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            d = int(rng.integers(1, 5))
            cov = squared_exponential(rng.uniform(size=(n, d)), KernelConfig())
            prior = factorize(cov)
            assert prior.jitter <= 100 * 1e-10 * np.max(np.diag(cov))

    def test_row_permutation_permutes_covariance(self):
        rng = np.random.default_rng(4)
        inputs = rng.uniform(size=(12, 2))
        perm = rng.permutation(12)
        cov = squared_exponential(inputs, KernelConfig())
        cov_perm = squared_exponential(inputs[perm], KernelConfig())
        np.testing.assert_array_equal(cov_perm, cov[np.ix_(perm, perm)])

    def test_rejects_bad_input_shape(self):
        with pytest.raises(ValueError):
            squared_exponential(np.zeros((0, 1)), KernelConfig())
        with pytest.raises(ValueError):
            squared_exponential(np.array([[np.inf]]), KernelConfig())
