"""Likelihood models, dataset generators, the conjugate oracle, and binning."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, log_ndtr

from ellslice import (
    CLASSIFICATION_KERNEL,
    ClassificationData,
    ConstantLikelihood,
    CoxData,
    DimensionMismatch,
    InvalidConfig,
    KernelConfig,
    RegressionData,
    bin_events,
    chain_rng,
    factorize,
    generate_classification_dataset,
    generate_regression_dataset,
    gp_regression_posterior_oracle,
    mining_event_times,
    read_event_times,
    squared_exponential,
)
from ellslice.harness import build_dataset, build_prior

LOG_2PI = math.log(2 * math.pi)


class TestRegressionLikelihood:
    def test_zero_residual_unit_noise(self):
        f = np.array([0.4, -1.2, 2.0])
        data = RegressionData(y=f.copy(), noise_variance=1.0)
        assert math.isclose(data.log_lik(f), -1.5 * LOG_2PI)

    def test_single_point_unit_residual(self):
        data = RegressionData(y=np.array([1.0]), noise_variance=1.0)
        assert math.isclose(data.log_lik(np.array([0.0])), -0.5 * LOG_2PI - 0.5)

    def test_matches_per_term_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(3)
            f = rng.standard_normal(3)
            var = float(rng.uniform(0.01, 2.0))
            data = RegressionData(y=y, noise_variance=var)
            per_term = sum(
                -0.5 * LOG_2PI - 0.5 * math.log(var) - (yi - fi) ** 2 / (2 * var)
                for yi, fi in zip(y, f)
            )
            assert abs(data.log_lik(f) - per_term) < 1e-12

    def test_monotone_in_residual_magnitude(self):
        data = RegressionData(y=np.array([0.0]), noise_variance=0.5)
        values = [data.log_lik(np.array([r])) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_length_mismatch_rejected(self):
        data = RegressionData(y=np.zeros(3), noise_variance=1.0)
        with pytest.raises(DimensionMismatch):
            data.log_lik(np.zeros(4))

    def test_zero_variance_container_rejects_evaluation(self):
        data = RegressionData(y=np.zeros(2), noise_variance=0.0)
        with pytest.raises(ValueError):
            data.log_lik(np.zeros(2))

    @pytest.mark.parametrize("y", [np.zeros((2, 2)), np.float64(1.0)])
    def test_non_vector_observations_rejected(self, y):
        with pytest.raises(ValueError, match="vector"):
            RegressionData(y=y, noise_variance=1.0)

    @pytest.mark.parametrize("var", [-1.0, math.inf, math.nan])
    def test_invalid_noise_variance_rejected(self, var):
        with pytest.raises(ValueError, match="noise_variance"):
            RegressionData(y=np.zeros(2), noise_variance=var)


class TestClassificationLikelihood:
    def test_logistic_at_zero(self):
        data = ClassificationData(labels=np.array([1, -1, 1, 1]), link="logistic")
        assert math.isclose(data.log_lik(np.zeros(4)), 4 * math.log(0.5))

    def test_probit_at_zero(self):
        data = ClassificationData(labels=np.array([1, -1]), link="probit")
        assert math.isclose(data.log_lik(np.zeros(2)), 2 * math.log(0.5))

    def test_logistic_stable_against_extended_precision(self):
        """log sigma(a) for a = -40: stable evaluation matches mpmath."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        data = ClassificationData(labels=np.array([1]), link="logistic")
        ours = data.log_lik(np.array([-40.0]))
        exact = float(-mpmath.log(1 + mpmath.exp(mpmath.mpf(40))))
        assert math.isclose(ours, exact, rel_tol=1e-12)
        assert -40.1 < ours < -39.9

    def test_logistic_finite_at_extreme_latents(self):
        data = ClassificationData(labels=np.array([1, -1]), link="logistic")
        assert math.isfinite(data.log_lik(np.array([1e6, 1e6])))
        assert math.isfinite(data.log_lik(np.array([-1e6, -1e6])))

    def test_probit_matches_gaussian_cdf(self):
        from scipy.stats import norm

        rng = np.random.default_rng(1)
        labels = np.where(rng.uniform(size=5) < 0.5, -1, 1)
        f = rng.standard_normal(5)
        data = ClassificationData(labels=labels, link="probit")
        direct = float(np.sum(np.log(norm.cdf(labels * f))))
        assert math.isclose(data.log_lik(f), direct, rel_tol=1e-9)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            ClassificationData(labels=np.array([1, 0, -1]), link="logistic")

    def test_bad_link_rejected(self):
        with pytest.raises(ValueError):
            ClassificationData(labels=np.array([1]), link="cauchit")


class TestCoxLikelihood:
    def test_empty_counts_zero_latents(self):
        data = CoxData(counts=np.zeros(5, dtype=int), offset=-0.3)
        assert math.isclose(data.log_lik(np.zeros(5)), -5 * math.exp(-0.3))

    def test_single_bin_known_value(self):
        data = CoxData(counts=np.array([2]), offset=0.0)
        assert math.isclose(data.log_lik(np.zeros(1)), -1.0 - math.log(2.0))

    def test_matches_per_bin_summation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = rng.poisson(2.0, size=6)
            f = rng.standard_normal(6)
            m = float(rng.uniform(-2, 1))
            data = CoxData(counts=counts, offset=m)
            per_bin = sum(
                y * (fi + m) - math.exp(fi + m) - math.lgamma(y + 1)
                for y, fi in zip(counts, f)
            )
            assert abs(data.log_lik(f) - per_bin) < 1e-9

    def test_mining_counts_at_zero_latents(self):
        data = bin_events(mining_event_times(), 50.0)
        value = data.log_lik(np.zeros(data.n))
        per_bin = sum(
            y * data.offset - math.exp(data.offset) - math.lgamma(y + 1)
            for y in data.counts
        )
        assert math.isfinite(value)
        assert abs(value - per_bin) < 1e-9

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CoxData(counts=np.array([1, -1]), offset=0.0)

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError):
            CoxData(counts=np.array([1.5]), offset=0.0)

    @pytest.mark.parametrize("counts", [
        pytest.param(np.array([np.inf, 1.0]), id="inf"),
        pytest.param(np.array([np.nan, 1.0]), id="nan"),
        pytest.param(np.array([2.0**63, 1.0]), id="float-2^63"),
        pytest.param(np.array([2**63, 1], dtype=np.uint64), id="uint64-2^63"),
    ])
    def test_counts_past_int64_rejected_before_the_cast(self, counts):
        # the int64 cast would turn each into a negative count
        with pytest.raises(ValueError, match="counts must be"):
            CoxData(counts=counts, offset=0.0)

    def test_largest_int64_count_accepted(self):
        top = np.iinfo(np.int64).max
        for counts in (np.array([top, 0]), np.array([top, 0], dtype=np.uint64)):
            assert CoxData(counts=counts, offset=0.0).counts[0] == top

    def test_huge_latent_does_not_overflow(self):
        data = CoxData(counts=np.array([3]), offset=0.0)
        assert data.log_lik(np.array([800.0])) == -math.inf


def _reference_log_lik(data, f):
    """Each likelihood's expression with every constant, conversion and
    reduction evaluated afresh in NumPy: ``log_lik`` must equal it bit for bit."""
    with np.errstate(over="ignore"):
        if isinstance(data, RegressionData):
            resid = data.y - f
            return float(-0.5 * data.n * (LOG_2PI + math.log(data.noise_variance))
                         - 0.5 * (resid @ resid) / data.noise_variance)
        if isinstance(data, CoxData):
            log_rate = f + data.offset
            return float(np.sum(data.counts * log_rate - np.exp(log_rate)
                                - gammaln(data.counts + 1.0)))
        a = data.labels * f
        if data.link == "logistic":
            return float(-np.sum(np.logaddexp(0.0, -a)))
        return float(np.sum(log_ndtr(a)))


def _random_labels(rng, link):
    return ClassificationData(np.where(rng.uniform(size=200) < 0.5, -1.0, 1.0), link)


class TestLogLikIsTheReferenceExpression:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: RegressionData(rng.standard_normal(200), 0.3), id="regression"),
        pytest.param(lambda rng: CoxData(rng.poisson(2.0, size=811), -0.4), id="cox"),
        pytest.param(lambda rng: _random_labels(rng, "logistic"), id="logistic"),
        pytest.param(lambda rng: _random_labels(rng, "probit"), id="probit"),
    ])
    def test_bit_identical_on_random_latents(self, make):
        rng = np.random.default_rng(14)
        data = make(rng)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(30):
                f = scale * rng.standard_normal(data.n)
                assert data.log_lik(f) == _reference_log_lik(data, f)

    def test_cox_overflow_is_minus_inf_without_a_warning(self):
        data = CoxData(counts=np.array([3, 0]), offset=0.0)
        f = np.array([800.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert data.log_lik(f) == -math.inf
        assert _reference_log_lik(data, f) == -math.inf

    def test_subnormal_noise_variance_is_minus_inf_at_zero(self):
        data = RegressionData(y=np.array([0.5, -1.0, 2.0]), noise_variance=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert data.log_lik(np.zeros(3)) == -math.inf
        assert _reference_log_lik(data, np.zeros(3)) == -math.inf


def _plane_pairs(rng):
    """Coefficients (a, b) the slice operators score: ellipse pairs
    (cos t, sin t) and line pairs (1, eps) with |eps| <= pi."""
    ellipse = [(math.cos(t), math.sin(t)) for t in rng.uniform(0.0, 2 * math.pi, size=40)]
    line = [(1.0, e) for e in rng.uniform(-math.pi, math.pi, size=40)]
    return ellipse + line + [(1.0, 0.0), (0.0, 1.0), (1.0, math.pi), (1.0, -math.pi)]


def _on_point(data, u, v, a, b):
    """log L at the point formed as the operators form it."""
    return data.log_lik(u + b * v if a == 1.0 else u * a + v * b)


@pytest.fixture(scope="module")
def benchmark_regression():
    """The benchmark's regression dataset (n=200, d=1) and its low-rank prior."""
    ds = build_dataset({"kind": "regression", "n": 200, "dims": 1}, KernelConfig(), chain_rng(1))
    return ds.data, build_prior(ds)


class TestRegressionPlane:
    def _planes(self, data, prior, rng):
        """Planes through prior draws, and through states near the data,
        where the expansion cancels most."""
        for _ in range(5):
            yield prior.sample(rng), prior.sample(rng)
            yield data.y + 0.05 * rng.standard_normal(data.n), prior.sample(rng)

    def _check_within_bound(self, data, prior, rng):
        for u, v in self._planes(data, prior, rng):
            score = data.on_plane(u, v)
            for a, b in _plane_pairs(rng):
                value, bound = score(a, b)
                gap = abs(value - _on_point(data, u, v, a, b))
                assert gap <= bound, (a, b, gap, bound)

    def test_within_bound_on_small_data(self):
        rng = np.random.default_rng(160)
        inputs, data, _ = generate_regression_dataset(24, 1, KernelConfig(), 0.1, rng)
        self._check_within_bound(data, factorize(squared_exponential(inputs, KernelConfig())), rng)

    def test_within_bound_at_benchmark_size(self, benchmark_regression):
        data, prior = benchmark_regression
        assert (data.n, prior.rank) == (200, 9)
        self._check_within_bound(data, prior, np.random.default_rng(161))

    def test_bound_is_tight_enough_to_decide(self, benchmark_regression):
        """At benchmark size the bound is far below the spread of slice
        heights (order 1), so almost no proposal needs a direct re-score."""
        data, prior = benchmark_regression
        rng = np.random.default_rng(162)
        score = data.on_plane(prior.sample(rng), prior.sample(rng))
        assert all(score(a, b)[1] < 1e-6 for a, b in _plane_pairs(rng))

    def test_zero_noise_variance_raises_like_log_lik(self):
        data = RegressionData(y=np.array([0.5, -1.0]), noise_variance=0.0)
        with pytest.raises(ValueError, match="noise_variance must be positive") as direct:
            data.log_lik(np.zeros(2))
        with pytest.raises(ValueError) as plane:
            data.on_plane(np.zeros(2), np.ones(2))
        assert str(plane.value) == str(direct.value)

    def test_wrong_length_rejected(self):
        data = RegressionData(y=np.zeros(3), noise_variance=1.0)
        with pytest.raises(DimensionMismatch):
            data.on_plane(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            data.on_plane(np.zeros(3), np.zeros(4))

    def test_huge_latent_scores_minus_inf_never_nan(self):
        rng = np.random.default_rng(163)
        data = RegressionData(y=rng.standard_normal(5), noise_variance=0.5)
        u, v = np.full(5, 1e200), rng.standard_normal(5)
        # the dot products overflow, and NumPy says so, as it does in log_lik
        with np.errstate(over="ignore"):
            score = data.on_plane(u, v)
            for a, b in _plane_pairs(rng):
                value, bound = score(a, b)
                assert not math.isnan(value) and not math.isnan(bound)
                if a != 0.0:
                    assert value == -math.inf == _on_point(data, u, v, a, b)
        # at a = 0 the point is finite but the expansion overflowed: the
        # bound is inf, so an operator re-scores it directly
        assert score(0.0, 1.0) == (-math.inf, math.inf)


def _small_cox():
    """20 bins of 60 uniform events and their dense squared-exponential prior."""
    events = np.sort(chain_rng(5, 2).uniform(0.0, 1000.0, size=60))
    data = bin_events(events, 50.0)
    centers = ((np.arange(data.n) + 0.5) * 50.0).reshape(-1, 1)
    return data, factorize(squared_exponential(centers, KernelConfig(lengthscale=200.0)))


@pytest.fixture(scope="module")
def mining_cox():
    """The packaged coal-mining data (n=811) and its low-rank prior, as the
    benchmark builds them."""
    ds = build_dataset({"kind": "cox"}, KernelConfig(), chain_rng(1))
    return ds.data, build_prior(ds)


def _exact_cox_log_lik(data, u, v, a, b):
    """log L at the exact point a*u + b*v, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        total = mpf(0)
        for c, ui, vi in zip(data.counts.tolist(), u.tolist(), v.tolist()):
            x = mpf(a) * mpf(ui) + mpf(b) * mpf(vi) + mpf(data.offset)
            total += c * x - mpmath.exp(x) - mpmath.loggamma(c + 1)
        return total


class TestCoxPlane:
    def _planes(self, data, prior, rng):
        """Planes through prior draws, and through states near the log counts,
        where the count and intensity terms nearly balance."""
        near = np.log(data.counts + 0.5) - data.offset
        for _ in range(5):
            yield prior.sample(rng), prior.sample(rng)
            yield near + 0.05 * rng.standard_normal(data.n), prior.sample(rng)

    def _check_within_bound(self, data, prior, rng):
        for u, v in self._planes(data, prior, rng):
            score = data.on_plane(u, v)
            for a, b in _plane_pairs(rng):
                value, bound = score(a, b)
                gap = abs(value - _on_point(data, u, v, a, b))
                assert gap <= bound, (a, b, gap, bound)

    def test_within_bound_on_small_data(self):
        data, prior = _small_cox()
        assert (data.n, prior.backend) == (20, "dense")
        self._check_within_bound(data, prior, np.random.default_rng(170))

    def test_within_bound_at_benchmark_size(self, mining_cox):
        data, prior = mining_cox
        assert (data.n, prior.rank) == (811, 15)
        self._check_within_bound(data, prior, np.random.default_rng(171))

    @pytest.mark.parametrize("size", ["small", "benchmark"])
    def test_score_and_log_lik_within_bound_of_exact(self, size, mining_cox):
        """Against a 50-digit reference at the exact point, both the score
        and the direct value lie within the bound."""
        data, prior = _small_cox() if size == "small" else mining_cox
        rng = np.random.default_rng(172)
        planes = list(self._planes(data, prior, rng))[:2]
        pairs = _plane_pairs(rng)
        pairs = pairs if size == "small" else pairs[::10]
        for u, v in planes:
            score = data.on_plane(u, v)
            for a, b in pairs:
                value, bound = score(a, b)
                exact = _exact_cox_log_lik(data, u, v, a, b)
                assert abs(value - exact) <= bound, (a, b)
                assert abs(_on_point(data, u, v, a, b) - exact) <= bound, (a, b)

    def test_bound_is_tight_enough_to_decide(self, mining_cox):
        """At benchmark size the bound is far below the spread of slice
        heights (order 1), so almost no proposal needs a direct re-score."""
        data, prior = mining_cox
        rng = np.random.default_rng(173)
        for u, v in self._planes(data, prior, rng):
            score = data.on_plane(u, v)
            assert all(score(a, b)[1] < 1e-6 for a, b in _plane_pairs(rng))

    @pytest.mark.parametrize("scale", [1000.0, 1e200, 1e308])
    def test_huge_latent_is_minus_inf_with_infinite_bound(self, scale):
        """Where exp could overflow, the score is -inf with bound inf, so an
        operator re-scores directly; no NumPy warning is raised on the way."""
        rng = np.random.default_rng(174)
        data = CoxData(counts=rng.poisson(2.0, size=5), offset=0.3)
        u, v = np.full(5, scale), rng.standard_normal(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = data.on_plane(u, v)
            for a, b in _plane_pairs(rng):
                value, bound = score(a, b)
                assert not math.isnan(value) and not math.isnan(bound)
                if abs(a) * scale >= 700.0:
                    assert (value, bound) == (-math.inf, math.inf), (a, b)
                else:  # nearer the small direction the plane may score as usual
                    assert abs(value - _on_point(data, u, v, a, b)) <= bound
        if scale == 1e308:  # c.u overflows: the point is finite, but no count term is
            assert score(0.0, 1.0) == (-math.inf, math.inf)
        else:
            assert score(0.0, 1.0)[1] < 1e-10

    def test_wrong_length_rejected(self):
        data = CoxData(counts=np.array([1, 0, 2]), offset=0.0)
        with pytest.raises(DimensionMismatch):
            data.on_plane(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            data.on_plane(np.zeros(3), np.zeros(4))


class TestConstantLikelihood:
    def test_value_and_length_check(self):
        model = ConstantLikelihood(3, value=-1.5)
        assert model.log_lik(np.zeros(3)) == -1.5
        with pytest.raises(DimensionMismatch):
            model.log_lik(np.zeros(2))


class TestGenerateRegression:
    def test_zero_noise_copies_latents(self):
        _, data, latents = generate_regression_dataset(
            20, 2, KernelConfig(), 0.0, chain_rng(0)
        )
        np.testing.assert_array_equal(data.y, latents)

    def test_residual_variance_at_defaults(self):
        """N=200, D=1, noise std 0.3: the (y - f) sample variance sits inside
        the central chi-square band around 0.09."""
        _, data, latents = generate_regression_dataset(
            200, 1, KernelConfig(), 0.3, chain_rng(1)
        )
        resid_var = np.var(data.y - latents)
        assert 0.06 <= resid_var <= 0.12

    def test_inputs_inside_unit_cube(self):
        inputs, _, _ = generate_regression_dataset(50, 3, KernelConfig(), 0.1, chain_rng(2))
        assert inputs.shape == (50, 3)
        assert np.all((inputs >= 0.0) & (inputs <= 1.0))

    def test_fixed_seed_reproducible(self):
        a = generate_regression_dataset(10, 1, KernelConfig(), 0.3, chain_rng(3))
        b = generate_regression_dataset(10, 1, KernelConfig(), 0.3, chain_rng(3))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1].y, b[1].y)
        np.testing.assert_array_equal(a[2], b[2])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_regression_dataset(0, 1, KernelConfig(), 0.3, chain_rng(4))
        with pytest.raises(ValueError):
            generate_regression_dataset(5, 1, KernelConfig(), -0.1, chain_rng(4))

    # 1e200 squares to inf; 1e-160 to a subnormal variance no chain can start on
    @pytest.mark.parametrize("n, dims, noise_std", [
        (0, 1, 0.3), (5, 0, 0.3), (5, 1, -0.1), (5, 1, 1e200), (5, 1, 1e-160)])
    def test_bad_arguments_rejected_before_any_draw(self, n, dims, noise_std):
        rng = chain_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            generate_regression_dataset(n, dims, KernelConfig(), noise_std, rng)
        assert rng.bit_generator.state == before


class TestGenerateClassification:
    def test_labels_are_signs(self):
        _, data, _ = generate_classification_dataset(
            100, 2, CLASSIFICATION_KERNEL, chain_rng(5)
        )
        assert set(np.unique(data.labels)) <= {-1, 1}

    def test_default_kernel_matches_surrogate_settings(self):
        assert math.isclose(CLASSIFICATION_KERNEL.lengthscale, math.exp(2.5))
        assert math.isclose(CLASSIFICATION_KERNEL.signal_variance, math.exp(7.0))

    def test_fixed_seed_reproducible(self):
        a = generate_classification_dataset(30, 1, CLASSIFICATION_KERNEL, chain_rng(6))
        b = generate_classification_dataset(30, 1, CLASSIFICATION_KERNEL, chain_rng(6))
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_probit_link_accepted(self):
        _, data, _ = generate_classification_dataset(
            20, 1, CLASSIFICATION_KERNEL, chain_rng(7), link="probit"
        )
        assert data.link == "probit"

    @pytest.mark.parametrize("n, dims, link, match", [
        (0, 1, "logistic", "n and dims"), (5, 0, "logistic", "n and dims"),
        (5, 1, "cauchit", "link"),
    ])
    def test_bad_arguments_rejected_before_any_draw(self, n, dims, link, match):
        rng = chain_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            generate_classification_dataset(n, dims, CLASSIFICATION_KERNEL, rng, link=link)
        assert rng.bit_generator.state == before


class TestPosteriorOracle:
    def test_no_information_limit(self):
        prior = factorize(np.eye(3))
        data = RegressionData(y=np.array([5.0, -2.0, 1.0]), noise_variance=1e12)
        mean, cov = gp_regression_posterior_oracle(prior, data)
        assert np.max(np.abs(mean)) < 1e-6
        np.testing.assert_allclose(cov, np.eye(3), atol=1e-6)

    def test_scalar_formula(self):
        prior = factorize(np.array([[1.0]]))
        data = RegressionData(y=np.array([1.0]), noise_variance=0.09)
        mean, cov = gp_regression_posterior_oracle(prior, data)
        assert math.isclose(mean[0], 1.0 / 1.09)
        assert math.isclose(cov[0, 0], 0.09 / 1.09)

    def test_conditions_on_the_jittered_prior(self):
        """Duplicate inputs make the covariance singular; the chain's prior is
        N(0, cov + jitter*I), and the oracle must condition on that prior.
        y lies along the jitter-only eigenvector, where prior and noise
        variance are equal, so the exact mean is y / 2."""
        prior = factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert prior.jitter == 1e-10
        data = RegressionData(y=np.array([1.0, -1.0]), noise_variance=1e-10)
        mean, _ = gp_regression_posterior_oracle(prior, data)
        np.testing.assert_allclose(mean, [0.5, -0.5], atol=1e-4)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = chain_rng(8)
        inputs = rng.uniform(size=(25, 2))
        cov_prior = squared_exponential(inputs, KernelConfig())
        prior = factorize(cov_prior)
        data = RegressionData(y=rng.standard_normal(25), noise_variance=0.09)
        _, cov_post = gp_regression_posterior_oracle(prior, data)
        assert np.all(np.diag(cov_post) <= np.diag(cov_prior) + 1e-12)

    def test_oracle_consistent_with_exact_sampling(self):
        """10^5 draws of mean + chol(cov) @ z reproduce the oracle moments,
        validating the oracle before it judges any chain."""
        rng = chain_rng(9)
        inputs = rng.uniform(size=(5, 1))
        prior = factorize(squared_exponential(inputs, KernelConfig()))
        data = RegressionData(y=rng.standard_normal(5), noise_variance=0.09)
        mean, cov = gp_regression_posterior_oracle(prior, data)
        chol = factorize(cov).chol
        z = rng.standard_normal((100_000, 5))
        draws = mean + z @ chol.T
        emp_mean = draws.mean(axis=0)
        emp_cov = np.cov(draws.T)
        assert np.max(np.abs(emp_mean - mean)) < 5 * np.sqrt(np.diag(cov).max() / 1e5) * 3
        assert np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov) < 0.05

    def test_size_mismatch_rejected(self):
        prior = factorize(np.eye(2))
        data = RegressionData(y=np.zeros(3), noise_variance=1.0)
        with pytest.raises(DimensionMismatch):
            gp_regression_posterior_oracle(prior, data)


class TestBinEvents:
    def test_boundary_convention(self):
        data = bin_events(np.array([0.0, 49.9, 50.0]), 50.0)
        np.testing.assert_array_equal(data.counts, [2, 1])
        assert math.isclose(data.offset, math.log(3 / 2))

    def test_no_events_is_degenerate(self):
        with pytest.raises(ValueError):
            bin_events(np.array([]), 50.0)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            bin_events(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("times, width, match", [
        ([1.0], math.inf, "bin_width"), ([1.0], math.nan, "bin_width"),
        ([0.0, math.nan], 50.0, "event times"), ([0.0, math.inf], 50.0, "event times"),
    ])
    def test_non_finite_rejected(self, times, width, match):
        with pytest.raises(ValueError, match=match):
            bin_events(np.array(times), width)

    def test_origin_defaults_to_first_event(self):
        data = bin_events(np.array([100.0, 149.0]), 50.0)
        np.testing.assert_array_equal(data.counts, [2])


class TestMiningRecord:
    def test_totals(self):
        times = mining_event_times()
        assert len(times) == 191
        assert times[0] == 0.0
        assert times[-1] == 40549.0
        assert np.all(np.diff(times) > 0)

    def test_bins_to_expected_shape(self):
        data = bin_events(mining_event_times(), 50.0)
        assert data.n == 811
        assert int(data.counts.sum()) == 191
        assert math.isclose(data.offset, math.log(191 / 811))


class TestReadEventTimes:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0\n\n12.5\n40549.0\n")
        np.testing.assert_array_equal(read_event_times(path), [0.0, 12.5, 40549.0])

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(InvalidConfig):
            read_event_times(path)
