"""Transition-operator contracts: slice invariants, M-H limits, accounting."""

import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from ellslice import (
    ChainError,
    ConstantLikelihood,
    CoxData,
    GaussianPrior,
    InvalidConfig,
    KernelConfig,
    NonFiniteLikelihood,
    RegressionData,
    SamplerState,
    ShrinkLimitExceeded,
    block_update,
    chain_rng,
    contiguous_partitions,
    effective_sample_size,
    elliptical_slice_step,
    factorize,
    line_slice_step,
    make_operator,
    neal_mh_step,
    run_chain,
)
from ellslice.harness import build_dataset, build_prior
from ellslice.samplers import LINE_WIDTH, _line_log_prior, _slice_shrink, _uniform
from reference_operators import elliptical_slice_aux_step

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


class DirectOnly:
    """A model seen only through ``log_lik``, whose calls it counts: its
    plane method is hidden, so the operators evaluate every proposal
    directly."""

    def __init__(self, model):
        self.n = model.n
        self._model = model
        self.calls = 0

    def log_lik(self, f):
        self.calls += 1
        return self._model.log_lik(f)


class CountedPlane(DirectOnly):
    """Forwards a model's plane method and counts its direct evaluations."""

    def __init__(self, model):
        super().__init__(model)
        self.on_plane = model.on_plane


class Rejected(Exception):
    """Raised by :class:`RejectingRng`."""


class RejectingRng:
    """An RNG whose every draw raises :class:`Rejected`: the shrink loop
    draws only after it rejects a proposal."""

    def random(self):
        raise Rejected


# (coeffs, log_prior) of each plane operator's proposals, built as
# elliptical_slice_step and line_slice_step build them
PLANE_CURVES = {
    "elliptical": (lambda t: (math.cos(t), math.sin(t)), None),
    "line-slice": (lambda e: (1.0, e), lambda e: 3.7 - 0.5 * e * e),
}

SLICE_STEPS = [
    pytest.param(elliptical_slice_step, id="elliptical"),
    pytest.param(line_slice_step, id="line-slice"),
]


class TestConfigs:
    @pytest.mark.parametrize("bad", [1.5, -1.01, True, False])
    def test_epsilon_bounds(self, bad):
        with pytest.raises(InvalidConfig):
            make_operator("neal-mh", epsilon=bad)

    def test_rng_is_required(self):
        state = SamplerState(f=np.zeros(1))
        for step in (elliptical_slice_step, neal_mh_step, line_slice_step):
            with pytest.raises(TypeError):
                step(state, scalar_prior(), ConstantLikelihood(1))


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

    @pytest.mark.parametrize("step", SLICE_STEPS)
    def test_shrink_limit_raises(self, step):
        # slice is a single point, so no proposal ever clears the threshold
        state = SamplerState(f=np.array([0.0]))
        model = SpikeAtStart(np.array([0.0]))
        with pytest.raises(ShrinkLimitExceeded):
            step(state, scalar_prior(), model, rng=chain_rng(1))

    @pytest.mark.parametrize("step", SLICE_STEPS)
    def test_nan_likelihood_raises(self, step):
        state = SamplerState(f=np.array([0.0]), log_lik=0.0)
        with pytest.raises(NonFiniteLikelihood):
            step(state, scalar_prior(), PoisonedLikelihood(1, 0), rng=chain_rng(2))

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
            np.zeros(2), elliptical_slice_aux_step, prior,
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
            res = neal_mh_step(state, prior, data, rng, epsilon=0.0)
            assert res.accepted
            np.testing.assert_array_equal(res.new_state.f, state.f)
            state = res.new_state

    def test_unit_epsilon_proposes_prior_draw(self):
        prior = scalar_prior(4.0)
        model = ConstantLikelihood(1)
        state = SamplerState(f=np.array([100.0]))
        res = neal_mh_step(state, prior, model, chain_rng(37), epsilon=1.0)
        nu = prior.sample(chain_rng(37))
        np.testing.assert_array_equal(res.new_state.f, nu)

    def test_constant_likelihood_always_accepts(self):
        prior = scalar_prior()
        model = ConstantLikelihood(1)
        rng = chain_rng(41)
        for eps in (0.1, 0.5, 0.9, 1.0):
            state = SamplerState(f=np.array([0.0]))
            for _ in range(50):
                res = neal_mh_step(state, prior, model, rng, epsilon=eps)
                assert res.accepted
                state = res.new_state

    def test_rejection_copies_state(self):
        prior = scalar_prior()
        data = RegressionData(y=np.array([0.0]), noise_variance=1e-6)
        state = SamplerState(f=np.array([0.0]))
        rng = chain_rng(43)
        rejections = 0
        for _ in range(200):
            res = neal_mh_step(state, prior, data, rng, epsilon=0.99)
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
            log_prior, _ = _line_log_prior(prior, SamplerState(f), z)
            for eps in rng.uniform(-math.pi, math.pi, size=5):
                direct = prior.log_density(f + eps * nu)
                assert log_prior(eps) == pytest.approx(direct, rel=1e-9)


# dataset specs of the carry's benchmark-size priors, with the root each takes
CARRY_PRIORS = {
    "regression-d1": ({"kind": "regression", "n": 200, "dims": 1}, "low-rank"),
    "regression-d10": ({"kind": "regression", "n": 200, "dims": 10}, "dense"),
    "cox": ({"kind": "cox"}, "low-rank"),
}


class TestWhitenedCarry:
    """A line-slice step returns its state with the whitened form w + eps*z
    of the accepted point, and the next step under the same prior reads it
    instead of whitening that state again."""

    @pytest.fixture
    def whitens(self, monkeypatch):
        """A list that gets one entry per ``GaussianPrior.whiten`` call."""
        calls = []
        whiten = GaussianPrior.whiten

        def spy(prior, f):
            calls.append(f)
            return whiten(prior, f)

        monkeypatch.setattr(GaussianPrior, "whiten", spy)
        return calls

    @pytest.mark.parametrize("name", sorted(CARRY_PRIORS))
    def test_carry_stays_exact_at_benchmark_size(self, name):
        """After every 1000 of 10^4 steps, the prior term from the carried w
        and from the carried w.w matches the direct log-density."""
        spec, backend = CARRY_PRIORS[name]
        ds = build_dataset(spec, KernelConfig(), chain_rng(1))
        prior = build_prior(ds)
        assert prior.backend == backend
        state = SamplerState(np.zeros(prior.n))
        rng = chain_rng(79)
        for _ in range(10):
            for _ in range(1000):
                state = line_slice_step(state, prior, ds.data, rng).new_state
            carried_prior, carried_f, w, ww = state._whitened
            assert carried_prior is prior and carried_f is state.f
            direct = prior.log_density(state.f)
            assert prior.log_norm - 0.5 * float(w.dot(w)) == pytest.approx(direct, rel=1e-9)
            assert prior.log_norm - 0.5 * ww == pytest.approx(direct, rel=1e-9)

    def test_chain_whitens_once(self, whitens):
        prior = factorize(np.eye(3) + 0.5)
        data = RegressionData(y=np.array([0.5, -1.0, 2.0]), noise_variance=0.3)
        run_chain(np.zeros(3), make_operator("line-slice"), prior, data,
                  n_burn=100, n_keep=100, rng=chain_rng(83))
        assert len(whitens) == 1

    def test_stale_carry_is_never_read(self, whitens):
        """A new f, a state from another operator or another prior object
        over the same covariance each costs a whitening; a carried state
        under its own prior does not."""
        cov = np.eye(3) + 0.5
        prior = factorize(cov)
        data = RegressionData(y=np.array([0.5, -1.0, 2.0]), noise_variance=0.3)
        rng = chain_rng(89)

        def whitens_in_step(state, step_prior=prior):
            before = len(whitens)
            new_state = line_slice_step(state, step_prior, data, rng).new_state
            return len(whitens) - before, new_state

        fresh, state = whitens_in_step(SamplerState(np.zeros(3)))
        assert fresh == 1
        assert whitens_in_step(state)[0] == 0
        assert whitens_in_step(replace(state, f=state.f.copy()))[0] == 1
        assert whitens_in_step(state, factorize(cov))[0] == 1
        _, rebound = whitens_in_step(state)
        rebound.f = rebound.f.copy()
        assert whitens_in_step(rebound)[0] == 1
        other = elliptical_slice_step(state, prior, data, rng).new_state
        assert whitens_in_step(other)[0] == 1

    def test_block_sweep_whitens_once_per_update(self, whitens):
        prior = factorize(np.eye(8) + 0.5)
        data = RegressionData(y=np.linspace(-1.0, 1.0, 8), noise_variance=0.3)
        parts = contiguous_partitions(8, 4)
        state = SamplerState(np.zeros(8))
        rng = chain_rng(97)
        for _ in range(3):
            for part in parts:
                state = block_update(state, prior, data, part,
                                     make_operator("line-slice"), rng).new_state
        assert len(whitens) == 3 * len(parts)


def _near_data_regression(rng):
    """Small regression data and a plane through a state near the data,
    where the expansion cancels most."""
    data = RegressionData(rng.standard_normal(24), 0.05)
    return data, data.y + 0.1 * rng.standard_normal(24), rng.standard_normal(24)


def _near_data_cox(rng):
    """Small cox data and a plane through a state near its log counts."""
    counts = rng.poisson(3.0, size=24)
    data = CoxData(counts, 1.0)
    return data, np.log(counts + 0.5) - 1.0, rng.standard_normal(24)


NEAR_DATA = {"regression": _near_data_regression, "cox": _near_data_cox}

# (dataset spec, prior rank) of each benchmark model: both take the low-rank root
BENCHMARK_MODELS = {
    "regression": ({"kind": "regression", "n": 200, "dims": 1}, 9),
    "cox": ({"kind": "cox"}, 15),
}

PLANE_CASES = [
    pytest.param(model, kind, id=kind if model == "regression" else f"{model}-{kind}")
    for model in sorted(NEAR_DATA) for kind in sorted(PLANE_CURVES)
]


class TestPlaneScoring:
    @pytest.mark.parametrize("model, kind", PLANE_CASES)
    def test_near_threshold_decision_is_the_direct_one(self, model, kind):
        """A threshold between a proposal's scored target and its direct
        one, for every proposal where they differ: the score alone would
        decide wrongly, the shrink loop must evaluate the point and decide
        as the direct evaluation does."""
        coeffs, log_prior = PLANE_CURVES[kind]
        target = (lambda x, ll: ll) if log_prior is None else (lambda x, ll: log_prior(x) + ll)
        rng = np.random.default_rng(164)
        data, u, v = NEAR_DATA[model](rng)
        score = data.on_plane(u, v)
        seen = set()
        for x in rng.uniform(-math.pi, math.pi, size=2000):
            a, b = coeffs(x)
            point = u * a + v * b
            expanded = target(x, score(a, b)[0])
            direct = target(x, data.log_lik(point))
            if expanded == direct:
                continue
            seen.add(expanded > direct)
            # just below the larger, so the smaller does not clear it
            log_y = math.nextafter(max(expanded, direct), -math.inf)
            assert (expanded > log_y) != (direct > log_y)
            # the bracket [min(x, 0), max(x, 0)] holds x alone, so the loop
            # returns x's point or draws, which RejectingRng turns into Rejected
            try:
                positions, f_prop, log_lik = _slice_shrink(
                    data, u, v, coeffs, log_y, x, min(x, 0.0), max(x, 0.0),
                    RejectingRng(), log_prior)
            except Rejected:
                accepted = False
            else:
                accepted = True
                assert positions == [x]
            assert accepted == (direct > log_y)
            if direct > log_y:
                assert f_prop.tobytes() == point.tobytes()
                assert log_lik == data.log_lik(f_prop)
        assert seen == {True, False}

    @pytest.mark.parametrize("model, kind", PLANE_CASES)
    def test_bit_identical_to_direct_path_at_benchmark_size(self, model, kind):
        """Chains on the benchmark's data (regression n=200, d=1, and the
        coal-mining cox data, n=811, each with its low-rank root) are the
        same bits whether proposals are scored on the plane or evaluated
        directly; the plane path evaluates directly only at the start, once
        per accepted point and for rare re-scores."""
        spec, rank = BENCHMARK_MODELS[model]
        ds = build_dataset(spec, KernelConfig(), chain_rng(1))
        prior = build_prior(ds)
        assert prior.rank == rank
        counted = CountedPlane(ds.data)
        kwargs = dict(n_burn=300, n_keep=2000, thin=1)
        traces = [
            run_chain(np.zeros(ds.data.n), make_operator(kind), prior, data,
                      rng=chain_rng(165), **kwargs)
            for data in (counted, DirectOnly(ds.data))
        ]
        for name in ("log_lik", "lik_evals_cum", "prior_evals_cum", "accepted", "snapshots"):
            fast, direct = (getattr(t, name) for t in traces)
            assert fast.tobytes() == direct.tobytes(), name
        steps = 2300
        assert steps + 1 <= counted.calls < 1 + 1.01 * steps
        assert traces[0].lik_evals_cum[-1] > 1.5 * steps

    @pytest.mark.parametrize("blocked", [False, True], ids=["whole", "block-update"])
    @pytest.mark.parametrize("kind", sorted(PLANE_CURVES))
    def test_direct_path_evaluates_each_proposal_once(self, kind, blocked):
        """A model without a plane method (classification, and any model
        under block_update) is evaluated once per proposal plus once at the
        start, so an accepted point is never evaluated twice."""
        spec = {"kind": "classification", "n": 24, "dims": 10}
        ds = build_dataset(spec, KernelConfig(), chain_rng(1))
        counted = DirectOnly(ds.data)
        step = make_operator(kind)
        if blocked:
            parts, inner = itertools.cycle(contiguous_partitions(24, 2)), step
            step = lambda state, prior, model, rng: block_update(  # noqa: E731
                state, prior, model, next(parts), inner, rng)
        trace = run_chain(np.zeros(24), step, build_prior(ds), counted,
                          n_burn=100, n_keep=500, rng=chain_rng(166))
        assert counted.calls == trace.lik_evals_cum[-1]
        assert trace.lik_evals_cum[-1] > 1 + 600  # some proposals were rejected


class TestMakeOperator:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            make_operator("hamiltonian")

    def test_augmented_form_is_an_unknown_kind(self):
        """The augmented-model form is a test reference, not a sampler kind."""
        with pytest.raises(InvalidConfig, match="unknown sampler kind 'elliptical-aux'") as err:
            make_operator("elliptical-aux")
        assert "('elliptical', 'neal-mh', 'line-slice')" in str(err.value)

    def test_params_forwarded(self):
        step = make_operator("neal-mh", epsilon=0.0)
        state = SamplerState(f=np.array([0.9]))
        res = step(state, scalar_prior(), ConstantLikelihood(1), chain_rng(71))
        np.testing.assert_array_equal(res.new_state.f, state.f)

    def test_default_epsilon_binds_nothing(self):
        assert make_operator("neal-mh") is neal_mh_step

    @pytest.mark.parametrize("kind, params", [
        ("elliptical", {}), ("line-slice", {}), ("neal-mh", {}), ("neal-mh", {"epsilon": 0.3}),
    ], ids=["elliptical", "line-slice", "neal-mh", "neal-mh-epsilon"])
    def test_step_functions_pickle(self, kind, params):
        """A step function crosses a process boundary intact: its unpickled
        copy takes the same step on the same stream."""
        step = make_operator(kind, **params)
        clone = pickle.loads(pickle.dumps(step))
        ds = build_dataset({"kind": "regression", "n": 20}, KernelConfig(), chain_rng(1))
        prior = build_prior(ds)
        state = SamplerState(f=prior.sample(chain_rng(2)))
        want = step(state, prior, ds.data, chain_rng(3))
        got = clone(state, prior, ds.data, chain_rng(3))
        np.testing.assert_array_equal(got.new_state.f, want.new_state.f)
        assert (got.accepted, got.new_state.lik_evals) == (want.accepted, want.new_state.lik_evals)

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

    def test_chain_error_survives_pickling(self):
        error = ChainError(12, NonFiniteLikelihood("log-likelihood returned NaN"))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ChainError
        assert copy.iteration == 12
        assert str(copy) == "sampler failed at chain iteration 12: log-likelihood returned NaN"

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            run_chain(np.zeros(1), make_operator("elliptical"), scalar_prior(),
                      ConstantLikelihood(1), n_burn=0, n_keep=0, rng=chain_rng(0))
        with pytest.raises(ValueError):
            run_chain(np.zeros(1), make_operator("elliptical"), scalar_prior(),
                      ConstantLikelihood(1), n_burn=-1, n_keep=5, rng=chain_rng(0))
