"""Covariance validation, factorization, prior densities, and rotations."""

import math

import numpy as np
import pytest
import scipy.linalg

from ellslice import (
    DimensionMismatch,
    GaussianPrior,
    NotPositiveDefinite,
    factorize,
    squared_exponential,
    KernelConfig,
    chain_rng,
)
from ellslice.gaussian import check_covariance
from ellslice.harness import build_dataset, build_prior
from reference_operators import rotate


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestCheckCovariance:
    def test_accepts_valid(self):
        check_covariance(np.array([[2.0, 0.5], [0.5, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_covariance(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            check_covariance(np.array([[1.0, 0.2], [0.4, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_covariance(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestFactorize:
    def test_identity_needs_no_jitter(self):
        prior = factorize(np.eye(2))
        np.testing.assert_array_equal(prior.chol, np.eye(2))
        assert prior.jitter == 0.0

    def test_diagonal_roots(self):
        prior = factorize(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(np.diag(prior.chol), [2.0, 3.0])

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cov = random_spd(rng, 6)
            prior = factorize(cov)
            err = np.max(np.abs(prior.chol @ prior.chol.T - (cov + prior.jitter * np.eye(6))))
            assert err <= 1e-8 * np.max(np.diag(cov))

    def test_near_duplicate_inputs_repaired_with_jitter(self):
        # two almost-identical rows make the SE covariance numerically singular
        inputs = np.array([[0.0], [1e-9]])
        cov = squared_exponential(inputs, KernelConfig())
        prior = factorize(cov)
        assert prior.jitter > 0.0
        err = np.max(np.abs(prior.chol @ prior.chol.T - (cov + prior.jitter * np.eye(2))))
        assert err <= 1e-8 * np.max(np.diag(cov))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_lower_triangular_positive_diagonal(self):
        rng = np.random.default_rng(1)
        prior = factorize(random_spd(rng, 5))
        assert np.allclose(prior.chol, np.tril(prior.chol))
        assert np.all(np.diag(prior.chol) > 0)


class TestSample:
    def test_identity_covariance_passes_through_normals(self):
        prior = factorize(np.eye(3))
        draw = prior.sample(np.random.default_rng(7))
        raw = np.random.default_rng(7).standard_normal(3)
        np.testing.assert_array_equal(draw, raw)

    def test_scalar_variance_within_chi_square_bounds(self):
        prior = factorize(np.array([[4.0]]))
        rng = np.random.default_rng(3)
        draws = np.array([prior.sample(rng)[0] for _ in range(10_000)])
        assert 3.6 <= draws.var() <= 4.4

    def test_identically_seeded_streams_agree(self):
        prior = factorize(np.array([[2.0, 0.3], [0.3, 1.0]]))
        a = prior.sample(np.random.default_rng(11))
        b = prior.sample(np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_sample_covariance_close_in_frobenius(self):
        """10^5 draws land within 5% relative Frobenius error of the target."""
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        prior = factorize(cov)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((100_000, 2))
        draws = z @ prior.chol.T
        emp = draws.T @ draws / len(draws)
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05


class TestDrawAndWhiten:
    def test_draw_returns_factor_times_noise(self):
        prior = factorize(random_spd(np.random.default_rng(2), 6))
        nu, z = prior.draw(np.random.default_rng(4))
        np.testing.assert_array_equal(z, np.random.default_rng(4).standard_normal(6))
        np.testing.assert_array_equal(nu, prior.chol @ z)

    def test_draw_consumes_the_stream_as_sample_does(self):
        prior = factorize(random_spd(np.random.default_rng(3), 5))
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            np.testing.assert_array_equal(prior.draw(a)[0], prior.sample(b))
        assert a.uniform() == b.uniform()

    def test_whiten_inverts_the_draw(self):
        prior = factorize(random_spd(np.random.default_rng(5), 7))
        nu, z = prior.draw(np.random.default_rng(6))
        np.testing.assert_allclose(prior.whiten(nu), z, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        prior = factorize(random_spd(np.random.default_rng(7), 4))
        f = np.array([0.5, bad, -1.0, 2.0])
        with pytest.raises(ValueError):
            prior.whiten(f)
        with pytest.raises(ValueError):
            prior.log_density(f)

    @pytest.mark.parametrize("n", [1, 2, 50, 200])
    def test_whiten_is_the_scipy_solve_bit_for_bit(self, n):
        """The direct LAPACK call makes the same solve as the SciPy wrapper."""
        rng = np.random.default_rng(n)
        prior = factorize(random_spd(rng, n))
        for _ in range(20):
            f = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            expected = scipy.linalg.solve_triangular(prior.chol, f, lower=True,
                                                     check_finite=False)
            np.testing.assert_array_equal(prior.whiten(f), expected)

    def test_zero_on_root_diagonal_raises(self):
        chol = np.tril(random_spd(np.random.default_rng(12), 4))
        chol[2, 2] = 0.0
        with np.errstate(divide="ignore"):  # log|A| is -inf
            prior = GaussianPrior(cov=chol @ chol.T, chol=chol)
        with pytest.raises(np.linalg.LinAlgError):
            prior.whiten(np.ones(4))

    def test_whiten_leaves_a_read_only_vector_untouched(self):
        prior = factorize(random_spd(np.random.default_rng(13), 6))
        f = np.random.default_rng(14).standard_normal(6)
        kept = f.copy()
        f.flags.writeable = False
        prior.whiten(f)
        np.testing.assert_array_equal(f, kept)

    def test_whiten_wrong_length_rejected(self):
        prior = factorize(np.eye(3))
        with pytest.raises(DimensionMismatch):
            prior.whiten(np.zeros(4))

    def test_log_norm_is_the_density_at_zero(self):
        cov = random_spd(np.random.default_rng(10), 5)
        prior = factorize(cov)
        expected = -0.5 * (5 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
        assert prior.log_norm == pytest.approx(expected, rel=1e-12)
        assert prior.log_density(np.zeros(5)) == prior.log_norm
        # a NumPy scalar, as it was when summed per call; its repr is pinned
        # through the line-slice log_threshold in tests/test_trace_digests.py
        assert type(prior.log_norm) is np.float64


# the package's default cox prior (n=811, rank 15) and the regression
# prior of the benchmark's d=1 dataset (n=200, rank 9): both need jitter
BENCHMARK_PRIORS = {
    "cox": {"kind": "cox"},
    "regression": {"kind": "regression", "n": 200, "dims": 1},
}


@pytest.fixture(scope="module", params=sorted(BENCHMARK_PRIORS))
def low_rank_prior(request):
    spec = BENCHMARK_PRIORS[request.param]
    return build_prior(build_dataset(spec, KernelConfig(), chain_rng(1)))


def _root(prior):
    """The low-rank prior's root A as a dense matrix, from its documented form."""
    j = prior.jitter
    scale = np.sqrt(prior.eig + j) - math.sqrt(j)
    return math.sqrt(j) * np.eye(prior.n) + (prior.basis * scale) @ prior.basis.T


class TestLowRankRoot:
    def test_benchmark_priors_take_the_low_rank_root(self, low_rank_prior):
        prior = low_rank_prior
        assert prior.backend == "low-rank" and prior.chol is None
        assert prior.jitter == 1e-10
        assert 2 * prior.rank < prior.n
        assert prior.basis.shape == (prior.n, prior.rank) and prior.eig.shape == (prior.rank,)

    def test_whiten_inverts_the_draw(self, low_rank_prior):
        prior = low_rank_prior
        rng = np.random.default_rng(3)
        for _ in range(5):
            nu, z = prior.draw(rng)
            np.testing.assert_allclose(prior.whiten(nu), z, rtol=0, atol=1e-8)

    def test_draw_consumes_n_normals_and_returns_them(self, low_rank_prior):
        prior = low_rank_prior
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        nu, z = prior.draw(a)
        np.testing.assert_array_equal(z, b.standard_normal(prior.n))
        np.testing.assert_allclose(nu, _root(prior) @ z, rtol=0, atol=1e-12)
        assert a.uniform() == b.uniform()

    def test_root_squares_to_the_jittered_covariance(self, low_rank_prior):
        prior = low_rank_prior
        root = _root(prior)
        target = prior.cov + prior.jitter * np.eye(prior.n)
        assert np.max(np.abs(root @ root.T - target)) <= 1e-3 * prior.jitter

    def test_draws_have_the_target_covariance(self, low_rank_prior):
        """2*10^4 draws land within 5% relative Frobenius error of cov + jitter*I."""
        prior = low_rank_prior
        rng = np.random.default_rng(5)
        emp = np.zeros((prior.n, prior.n))
        for _ in range(20):
            draws = np.array([prior.sample(rng) for _ in range(1000)])
            emp += draws.T @ draws
        emp /= 20_000
        target = prior.cov + prior.jitter * np.eye(prior.n)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05

    def test_log_norm_is_minus_log_det_of_the_root(self, low_rank_prior):
        prior = low_rank_prior
        log_det = np.sum(np.log(np.linalg.eigvalsh(_root(prior))))
        expected = -0.5 * prior.n * math.log(2 * math.pi) - log_det
        assert prior.log_norm == pytest.approx(expected, rel=1e-10)
        assert type(prior.log_norm) is np.float64
        f, z = prior.draw(np.random.default_rng(9))
        assert prior.log_density(f) == pytest.approx(prior.log_norm - 0.5 * z @ z, rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, low_rank_prior, bad):
        f = np.zeros(low_rank_prior.n)
        f[7] = bad
        with pytest.raises(ValueError):
            low_rank_prior.whiten(f)
        with pytest.raises(DimensionMismatch):
            low_rank_prior.whiten(np.zeros(low_rank_prior.n + 1))

    @pytest.mark.parametrize("change, field", [
        ({"jitter": 0.0}, "jitter"),
        ({"jitter": -1e-10}, "jitter"),
        ({"jitter": math.nan}, "jitter"),
        ({"jitter": math.inf}, "jitter"),
        ({"basis": None}, "basis"),
        ({"basis": None, "eig": None}, "basis"),
        ({"eig": None}, "eig"),
        ({"basis": np.full((1, 4), 0.5)}, "basis"),
        ({"rank": 3}, "basis"),
        ({"eig": np.ones(2)}, "eig"),
    ], ids=["jitter-zero", "jitter-negative", "jitter-nan", "jitter-inf", "no-basis",
            "no-basis-or-eig", "no-eig", "basis-transposed", "rank-mismatch", "eig-short"])
    def test_malformed_low_rank_root_rejected(self, change, field):
        """A low-rank root (``chol=None``) needs a finite positive jitter,
        ``basis`` of shape (n, rank) and ``eig`` of shape (rank,); anything
        else is a ValueError naming the field."""
        kwargs = dict(cov=np.ones((4, 4)), chol=None, jitter=1e-10, rank=1,
                      basis=np.full((4, 1), 0.5), eig=np.array([4.0]))
        assert GaussianPrior(**kwargs).backend == "low-rank"
        with pytest.raises(ValueError, match=f"needs (a finite )?{field}"):
            GaussianPrior(**dict(kwargs, **change))

    def test_full_rank_prior_keeps_the_dense_root(self):
        """The d=10 regression prior needs no jitter: it keeps ``chol`` and
        draws exactly ``chol @ z``."""
        spec = {"kind": "regression", "n": 200, "dims": 10}
        prior = build_prior(build_dataset(spec, KernelConfig(), chain_rng(1)))
        assert (prior.backend, prior.jitter, prior.rank) == ("dense", 0.0, 200)
        assert prior.basis is None and prior.eig is None
        nu, z = prior.draw(np.random.default_rng(4))
        np.testing.assert_array_equal(nu, prior.chol @ z)

    def test_jittered_prior_of_high_rank_stays_dense(self):
        """Rank 18 of 20 fails the 2r < n cost rule: the dense factor stays."""
        centers = ((np.arange(20) + 0.5) * 50.0).reshape(-1, 1)
        prior = factorize(squared_exponential(centers, KernelConfig(lengthscale=200.0)))
        assert (prior.backend, prior.rank) == ("dense", 18) and prior.jitter > 0.0
        err = np.max(np.abs(prior.chol @ prior.chol.T - (prior.cov + prior.jitter * np.eye(20))))
        assert err <= 1e-8 * np.max(np.diag(prior.cov))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        prior = factorize(np.array([[1.0]]))
        assert math.isclose(prior.log_density(np.array([0.0])), -0.5 * math.log(2 * math.pi))

    def test_standard_normal_at_one(self):
        prior = factorize(np.array([[1.0]]))
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert math.isclose(prior.log_density(np.array([1.0])), expected)

    def test_matches_brute_force_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            cov = random_spd(rng, 4)
            prior = factorize(cov)
            f = rng.standard_normal(4)
            direct = -0.5 * (
                4 * math.log(2 * math.pi)
                + math.log(np.linalg.det(cov))
                + f @ np.linalg.inv(cov) @ f
            )
            assert abs(prior.log_density(f) - direct) < 1e-10

    def test_wrong_length_rejected(self):
        prior = factorize(np.eye(3))
        with pytest.raises(DimensionMismatch):
            prior.log_density(np.zeros(2))


class TestRotate:
    def test_zero_angle_is_identity(self):
        f, nu = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        f2, nu2 = rotate(f, nu, 0.0)
        np.testing.assert_array_equal(f2, f)
        np.testing.assert_array_equal(nu2, nu)

    def test_quarter_turn_swaps(self):
        f, nu = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        f2, nu2 = rotate(f, nu, math.pi / 2)
        np.testing.assert_allclose(f2, nu, atol=1e-15)
        np.testing.assert_allclose(nu2, -f, atol=1e-15)

    def test_half_turn_negates(self):
        f, nu = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        f2, nu2 = rotate(f, nu, math.pi)
        np.testing.assert_allclose(f2, -f, atol=1e-15)
        np.testing.assert_allclose(nu2, -nu, atol=1e-15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            rotate(np.zeros(2), np.zeros(3), 0.1)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(13)
        f, nu = rng.standard_normal(5), rng.standard_normal(5)
        t1, t2 = 0.7, -1.9
        step1 = rotate(*rotate(f, nu, t1), t2)
        direct = rotate(f, nu, t1 + t2)
        np.testing.assert_allclose(step1[0], direct[0], atol=1e-10)
        np.testing.assert_allclose(step1[1], direct[1], atol=1e-10)

    def test_unit_jacobian_at_sampled_angles(self):
        """``rotate`` is linear in (f, nu): its 2n x 2n matrix, built column
        by column from basis vectors, has determinant 1."""
        rng = np.random.default_rng(17)
        n = 3
        basis = np.eye(2 * n)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            jacobian = np.column_stack(
                [np.concatenate(rotate(e[:n], e[n:], theta)) for e in basis])
            assert abs(np.linalg.det(jacobian) - 1.0) < 1e-12

    def test_joint_prior_density_invariant(self):
        """Rotating (f, nu) by any angle preserves the joint prior density."""
        rng = np.random.default_rng(21)
        cov = random_spd(rng, 10)
        prior = factorize(cov)
        for _ in range(200):
            f = prior.sample(rng)
            nu = prior.sample(rng)
            theta = rng.uniform(0, 2 * math.pi)
            f2, nu2 = rotate(f, nu, theta)
            before = prior.log_density(f) + prior.log_density(nu)
            after = prior.log_density(f2) + prior.log_density(nu2)
            assert abs(after - before) < 1e-8
