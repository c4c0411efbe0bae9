"""Transition-operator contracts: slice invariants, M-H limits, accounting."""

import math

import numpy as np
import pytest

from ellslice import (
    ChainError,
    ConstantLikelihood,
    InvalidConfig,
    KernelConfig,
    MhConfig,
    NonFiniteLikelihood,
    RegressionData,
    SamplerState,
    ShrinkLimitExceeded,
    chain_rng,
    effective_sample_size,
    elliptical_slice_aux_step,
    elliptical_slice_step,
    factorize,
    line_slice_step,
    make_operator,
    neal_mh_step,
    run_chain,
)
from ellslice.harness import build_dataset, build_prior
from ellslice.samplers import LINE_WIDTH, _line_log_prior, _uniform

TWO_PI = 2.0 * math.pi


def scalar_prior(var=1.0):
    return factorize(np.array([[var]]))


class SpikeAtStart:
    """Likelihood that is zero everywhere except (near) the recorded point."""

    def __init__(self, f0, tol=0.0):
        self.n = len(f0)
        self.f0 = np.array(f0, dtype=float)
        self.tol = tol

    def log_lik(self, f):
        if np.max(np.abs(f - self.f0)) <= self.tol:
            return 0.0
        return -math.inf


class PoisonedLikelihood:
    """Returns NaN after a set number of evaluations."""

    def __init__(self, n, poison_after):
        self.n = n
        self.calls = 0
        self.poison_after = poison_after

    def log_lik(self, f):
        self.calls += 1
        if self.calls > self.poison_after:
            return math.nan
        return 0.0


class TestConfigs:
    @pytest.mark.parametrize("bad", [1.5, -1.01, True, False])
    def test_epsilon_bounds(self, bad):
        with pytest.raises(InvalidConfig):
            MhConfig(epsilon=bad)

    def test_rng_is_required(self):
        state = SamplerState(f=np.zeros(1))
        with pytest.raises(ValueError):
            elliptical_slice_step(state, scalar_prior(), ConstantLikelihood(1))


class TestEllipticalStep:
    def test_constant_likelihood_accepts_first_proposal(self):
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        state = SamplerState(f=np.array([0.3]))
        for seed in range(50):
            res = elliptical_slice_step(state, prior, model, rng=chain_rng(seed))
            assert res.accepted
            assert len(res.angles) == 1

    def test_replay_reconstructs_accepted_point(self):
        """With captured randomness the move is f*cos(theta) + nu*sin(theta)."""
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        state = SamplerState(f=np.array([1.7]))
        res = elliptical_slice_step(state, prior, model, rng=chain_rng(42))
        replay = chain_rng(42)
        nu = prior.sample(replay)
        replay.uniform()  # threshold draw
        theta = replay.uniform(0.0, TWO_PI)
        assert theta == res.angles[0]
        expected = state.f * math.cos(theta) + nu * math.sin(theta)
        np.testing.assert_array_equal(res.new_state.f, expected)

    def test_slice_threshold_strictly_cleared(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([2.0]), noise_variance=0.25)
        state = SamplerState(f=np.array([0.0]))
        rng = chain_rng(7)
        for _ in range(2000):
            res = elliptical_slice_step(state, prior, data, rng=rng)
            assert res.accepted
            assert res.new_state.log_lik > res.log_threshold
            state = res.new_state

    def test_conjugate_posterior_mean(self):
        """1-D prior N(0,1), likelihood N(5, 0.1^2): chain mean matches the
        analytic posterior mean within 3 ESS-corrected standard errors."""
        prior = scalar_prior()
        data = RegressionData(y=np.array([5.0]), noise_variance=0.01)
        trace = run_chain(
            np.array([5.0]), make_operator("elliptical"), prior, data,
            n_burn=100, n_keep=10_000, thin=1, rng=chain_rng(3),
        )
        post_var = 1.0 / (1.0 + 1.0 / 0.01)
        post_mean = post_var * 5.0 / 0.01
        ess = effective_sample_size(trace.snapshots[:, 0]).ess
        se = math.sqrt(post_var / ess)
        assert abs(trace.snapshots[:, 0].mean() - post_mean) < 3 * se

    def test_initial_coefficient_decays(self):
        """The start point's coefficient prod(cos(theta)) dies off quickly."""
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        state = SamplerState(f=np.array([1.0]))
        rng = chain_rng(11)
        coeff = 1.0
        for _ in range(100):
            res = elliptical_slice_step(state, prior, model, rng=rng)
            coeff *= math.cos(res.angles[-1])
            state = res.new_state
        assert abs(coeff) < 1e-3

    def test_zero_likelihood_start_rejected(self):
        state = SamplerState(f=np.array([3.0]))
        model = SpikeAtStart(np.array([0.0]))  # -inf at f=3
        with pytest.raises(ValueError):
            elliptical_slice_step(state, scalar_prior(), model, rng=chain_rng(0))

    def test_shrink_limit_raises(self):
        # slice is a single point, so no proposal ever clears the threshold
        state = SamplerState(f=np.array([0.0]))
        model = SpikeAtStart(np.array([0.0]))
        with pytest.raises(ShrinkLimitExceeded):
            elliptical_slice_step(state, scalar_prior(), model, rng=chain_rng(1))

    def test_nan_likelihood_raises(self):
        state = SamplerState(f=np.array([0.0]), log_lik=0.0)
        with pytest.raises(NonFiniteLikelihood):
            elliptical_slice_step(
                state, scalar_prior(), PoisonedLikelihood(1, 0), rng=chain_rng(2)
            )

    def test_eval_accounting_matches_proposals(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([4.0]), noise_variance=0.04)
        state = SamplerState(f=np.array([4.0]), log_lik=data.log_lik(np.array([4.0])))
        rng = chain_rng(9)
        for _ in range(200):
            before = state.lik_evals
            res = elliptical_slice_step(state, prior, data, rng=rng)
            assert res.new_state.lik_evals - before == len(res.angles)
            assert res.new_state.prior_evals == state.prior_evals  # never touched
            state = res.new_state

    def test_uncached_start_costs_one_extra_eval(self):
        state = SamplerState(f=np.array([0.2]))  # no cached log_lik
        res = elliptical_slice_step(
            state, scalar_prior(), ConstantLikelihood(1), rng=chain_rng(12)
        )
        assert res.new_state.lik_evals == len(res.angles) + 1


class TestAuxiliaryVariant:
    def test_prior_recovery_moments(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        prior = factorize(cov)
        trace = run_chain(
            np.zeros(2), make_operator("elliptical-aux"), prior,
            ConstantLikelihood(2), n_burn=100, n_keep=10_000, thin=1,
            rng=chain_rng(17),
        )
        emp = np.cov(trace.snapshots.T)
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.10

    def test_replay_determinism(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([1.0]), noise_variance=0.5)
        state = SamplerState(f=np.array([0.4]))
        a = elliptical_slice_aux_step(state, prior, data, rng=chain_rng(23))
        b = elliptical_slice_aux_step(state, prior, data, rng=chain_rng(23))
        np.testing.assert_array_equal(a.new_state.f, b.new_state.f)
        assert a.angles == b.angles

    def test_slice_threshold_strictly_cleared(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([-1.0]), noise_variance=0.25)
        state = SamplerState(f=np.array([0.0]))
        rng = chain_rng(29)
        for _ in range(1000):
            res = elliptical_slice_aux_step(state, prior, data, rng=rng)
            assert res.accepted
            assert res.new_state.log_lik > res.log_threshold
            state = res.new_state


class TestNealMh:
    def test_zero_epsilon_is_null_move(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([1.0]), noise_variance=0.1)
        state = SamplerState(f=np.array([0.7]))
        rng = chain_rng(31)
        for _ in range(100):
            res = neal_mh_step(state, prior, data, MhConfig(epsilon=0.0), rng=rng)
            assert res.accepted
            np.testing.assert_array_equal(res.new_state.f, state.f)
            state = res.new_state

    def test_unit_epsilon_proposes_prior_draw(self):
        prior = scalar_prior(4.0)
        model = ConstantLikelihood(1)
        state = SamplerState(f=np.array([100.0]))
        res = neal_mh_step(state, prior, model, MhConfig(epsilon=1.0), rng=chain_rng(37))
        nu = prior.sample(chain_rng(37))
        np.testing.assert_array_equal(res.new_state.f, nu)

    def test_constant_likelihood_always_accepts(self):
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        rng = chain_rng(41)
        for eps in (0.1, 0.5, 0.9, 1.0):
            state = SamplerState(f=np.array([0.0]))
            for _ in range(50):
                res = neal_mh_step(state, prior, model, MhConfig(epsilon=eps), rng=rng)
                assert res.accepted
                state = res.new_state

    def test_rejection_copies_state(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([0.0]), noise_variance=1e-6)
        state = SamplerState(f=np.array([0.0]))
        rng = chain_rng(43)
        rejections = 0
        for _ in range(200):
            res = neal_mh_step(state, prior, data, MhConfig(epsilon=0.99), rng=rng)
            if not res.accepted:
                rejections += 1
                np.testing.assert_array_equal(res.new_state.f, state.f)
                assert res.new_state.log_lik == state.log_lik or state.log_lik is None
                assert res.new_state.lik_evals > state.lik_evals
            state = res.new_state
        assert rejections > 100  # near-delta likelihood rejects most big moves

    def test_stationary_moments_match_conjugate_posterior(self):
        """Detailed-balance smoke test: the M-H chain reproduces the exact
        1-D posterior's mean and variance within 3 standard errors."""
        prior = scalar_prior()
        data = RegressionData(y=np.array([2.0]), noise_variance=0.5)
        trace = run_chain(
            np.array([1.0]), make_operator("neal-mh", epsilon=0.5), prior, data,
            n_burn=1000, n_keep=100_000, thin=1, rng=chain_rng(47),
        )
        post_var = 1.0 / (1.0 + 1.0 / 0.5)
        post_mean = post_var * 2.0 / 0.5
        xs = trace.snapshots[:, 0]
        ess = effective_sample_size(xs).ess
        assert abs(xs.mean() - post_mean) < 3 * math.sqrt(post_var / ess)
        # variance of the variance estimate: 2*sigma^4 / ess for a Gaussian
        assert abs(xs.var() - post_var) < 3 * post_var * math.sqrt(2.0 / ess)


class TestLineSlice:
    def test_always_terminates_and_accepts(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([1.5]), noise_variance=0.1)
        state = SamplerState(f=np.array([1.5]))
        rng = chain_rng(53)
        for _ in range(500):
            res = line_slice_step(state, prior, data, rng=rng)
            assert res.accepted
            state = res.new_state

    def test_prior_evals_track_proposals(self):
        """Each proposal pays one prior density on top of the threshold's."""
        prior = scalar_prior()
        data = RegressionData(y=np.array([2.0]), noise_variance=0.05)
        state = SamplerState(f=np.array([2.0]), log_lik=data.log_lik(np.array([2.0])))
        rng = chain_rng(59)
        for _ in range(300):
            before = state.prior_evals
            res = line_slice_step(state, prior, data, rng=rng)
            assert res.new_state.prior_evals - before == len(res.angles) + 1
            state = res.new_state

    def test_step_positions_respect_initial_bracket(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([0.5]), noise_variance=0.2)
        state = SamplerState(f=np.array([0.5]))
        rng = chain_rng(61)
        for _ in range(300):
            res = line_slice_step(state, prior, data, rng=rng)
            assert all(-LINE_WIDTH <= e <= LINE_WIDTH for e in res.angles)
            state = res.new_state

    def test_conjugate_posterior_mean(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([5.0]), noise_variance=0.01)
        trace = run_chain(
            np.array([5.0]), make_operator("line-slice"), prior, data,
            n_burn=100, n_keep=10_000, thin=1, rng=chain_rng(67),
        )
        post_var = 1.0 / (1.0 + 100.0)
        post_mean = post_var * 500.0
        xs = trace.snapshots[:, 0]
        ess = effective_sample_size(xs).ess
        assert abs(xs.mean() - post_mean) < 3 * math.sqrt(post_var / ess)

    @pytest.mark.parametrize("kind", ["cox", "regression"])
    def test_whitened_prior_term_matches_log_density_at_benchmark_size(self, kind):
        """The per-step quadratic equals the direct log-density on the
        default cox (n=811) and regression (n=200) priors, both of which
        need jitter 1e-10 to factorize."""
        prior = build_prior(build_dataset({"kind": kind}, KernelConfig(), chain_rng(1)))
        assert prior.n == {"cox": 811, "regression": 200}[kind]
        assert prior.jitter == 1e-10
        rng = chain_rng(71)
        for _ in range(20):
            f = prior.sample(rng)
            nu, z = prior.draw(rng)
            log_prior = _line_log_prior(prior, f, z)
            for eps in rng.uniform(-math.pi, math.pi, size=5):
                direct = prior.log_density(f + eps * nu)
                assert log_prior(eps) == pytest.approx(direct, rel=1e-9)


class TestMakeOperator:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            make_operator("hamiltonian")

    def test_aux_variant_takes_no_params(self):
        with pytest.raises(InvalidConfig):
            make_operator("elliptical-aux", bracket_width=1.0)

    def test_params_forwarded(self):
        step = make_operator("neal-mh", epsilon=0.0)
        state = SamplerState(f=np.array([0.9]))
        res = step(state, scalar_prior(), ConstantLikelihood(1), chain_rng(71))
        np.testing.assert_array_equal(res.new_state.f, state.f)

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidConfig):
            make_operator("elliptical", bracket_width=-1.0)
        for kind in ("elliptical", "line-slice"):
            with pytest.raises(InvalidConfig, match="takes no parameters"):
                make_operator(kind, max_shrinks=5)
        with pytest.raises(InvalidConfig, match="epsilon"):
            make_operator("neal-mh", epsilon=0.1, max_shrinks=5)
        with pytest.raises(InvalidConfig):
            make_operator("neal-mh", epsilon="0.1")


class TestChainRng:
    def test_same_stream_reproduces(self):
        a = chain_rng(5, 1, 2).standard_normal(4)
        b = chain_rng(5, 1, 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = chain_rng(5, 1, 2).standard_normal(4)
        b = chain_rng(5, 1, 3).standard_normal(4)
        assert not np.array_equal(a, b)


class TestUniformDraws:
    def test_helper_matches_generator_uniform_bit_for_bit(self):
        """The operators draw every uniform through ``_uniform``; its value and
        the stream after it must be ``Generator.uniform``'s, or recorded
        traces would no longer reproduce."""
        ours, numpys = np.random.default_rng(2010), np.random.default_rng(2010)

        def draw(lo=None, hi=None):
            if lo is None:
                x, y = _uniform(ours), numpys.uniform()
            else:
                x, y = _uniform(ours, lo, hi), numpys.uniform(lo, hi)
            assert x == y and type(x) is type(y)
            return x

        for _ in range(200):
            draw()
            draw(0.0, TWO_PI)
            theta = draw(0.0, TWO_PI)
            lo, hi = theta - TWO_PI, theta
            while hi - lo > 1e-12:  # shrink toward 0 as the slice loop does
                x = draw(lo, hi)
                if x < 0.0:
                    lo = x
                else:
                    hi = x
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestRunChain:
    def test_single_step_trace(self):
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        trace = run_chain(
            np.zeros(1), make_operator("elliptical"), prior, model,
            n_burn=0, n_keep=1, rng=chain_rng(73),
        )
        assert trace.n_kept == 1
        assert trace.log_lik[0] == 0.0
        assert trace.accepted[0]

    def test_rerun_is_bitwise_identical(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([1.0]), noise_variance=0.3)
        kwargs = dict(n_burn=50, n_keep=200, thin=2)
        t1 = run_chain(np.zeros(1), make_operator("elliptical"), prior, data,
                       rng=chain_rng(79), **kwargs)
        t2 = run_chain(np.zeros(1), make_operator("elliptical"), prior, data,
                       rng=chain_rng(79), **kwargs)
        np.testing.assert_array_equal(t1.log_lik, t2.log_lik)
        np.testing.assert_array_equal(t1.lik_evals_cum, t2.lik_evals_cum)
        np.testing.assert_array_equal(t1.snapshots, t2.snapshots)

    def test_prior_recovery_within_monte_carlo_error(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        prior = factorize(cov)
        trace = run_chain(
            np.array([5.0, -5.0]), make_operator("elliptical"), prior,
            ConstantLikelihood(2), n_burn=100, n_keep=10_000, thin=1,
            rng=chain_rng(83),
        )
        for j in range(2):
            xs = trace.snapshots[:, j]
            ess = effective_sample_size(xs).ess
            assert abs(xs.mean()) < 3 * math.sqrt(cov[j, j] / ess)
            assert abs(xs.var() - cov[j, j]) < 3 * cov[j, j] * math.sqrt(2.0 / ess)

    def test_thinning_snapshot_count(self):
        prior = scalar_prior()
        trace = run_chain(
            np.zeros(1), make_operator("elliptical"), prior, ConstantLikelihood(1),
            n_burn=0, n_keep=100, thin=7, rng=chain_rng(89),
        )
        assert len(trace.snapshots) == math.ceil(100 / 7)

    def test_no_thinning_means_no_snapshots(self):
        trace = run_chain(
            np.zeros(1), make_operator("elliptical"), scalar_prior(),
            ConstantLikelihood(1), n_burn=0, n_keep=20, rng=chain_rng(97),
        )
        assert trace.snapshots is None

    def test_operator_failure_carries_iteration(self):
        model = PoisonedLikelihood(1, poison_after=6)
        with pytest.raises(ChainError) as info:
            run_chain(
                np.zeros(1), make_operator("elliptical"), scalar_prior(), model,
                n_burn=0, n_keep=50, rng=chain_rng(101),
            )
        # first iteration costs 2 evals (threshold + proposal), then 1 each
        assert info.value.iteration == 5
        assert "iteration 5" in str(info.value)

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            run_chain(np.zeros(1), make_operator("elliptical"), scalar_prior(),
                      ConstantLikelihood(1), n_burn=0, n_keep=0, rng=chain_rng(0))
        with pytest.raises(ValueError):
            run_chain(np.zeros(1), make_operator("elliptical"), scalar_prior(),
                      ConstantLikelihood(1), n_burn=-1, n_keep=5, rng=chain_rng(0))
