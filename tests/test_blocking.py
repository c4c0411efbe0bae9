"""Conditional-Gaussian block updates and partition helpers."""

import math
import traceback

import numpy as np
import pytest
import scipy.linalg

from ellslice import (
    BlockPartition,
    DimensionMismatch,
    NotPositiveDefinite,
    RegressionData,
    SamplerState,
    block_update,
    chain_rng,
    conditional_gaussian,
    contiguous_partitions,
    effective_sample_size,
    factorize,
    make_operator,
    make_partition,
    run_chain,
    squared_exponential,
    KernelConfig,
)
from ellslice import blocking, harness
from reference_operators import ConstantLikelihood


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def dense_conditional(cov, part, f):
    """Mean and covariance of f_A given f_B under N(0, cov), formed with
    ``np.linalg.solve``, independently of ``blocking``."""
    a, b = part.subset, part.complement
    cov_ab, cov_bb = cov[np.ix_(a, b)], cov[np.ix_(b, b)]
    return (cov_ab @ np.linalg.solve(cov_bb, f[b]),
            cov[np.ix_(a, a)] - cov_ab @ np.linalg.solve(cov_bb, cov_ab.T))


class TestPartitions:
    def test_make_partition_orders_complement(self):
        part = make_partition(5, [3, 1])
        assert list(part.subset) == [1, 3]
        assert list(part.complement) == [0, 2, 4]

    def test_subset_must_be_non_empty(self):
        with pytest.raises(ValueError):
            make_partition(4, [])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            make_partition(4, [1, 1])

    @pytest.mark.parametrize("subset", [[True, False], [0.9, 2.7]])
    def test_non_integer_subset_rejected(self, subset):
        # a boolean mask would be read as the indices 1 and 0, and floats
        # would be truncated
        with pytest.raises(ValueError, match="integer"):
            make_partition(5, subset)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_partition(4, [4])

    def test_full_subset_gives_empty_complement(self):
        part = make_partition(3, [0, 1, 2])
        assert len(part.complement) == 0

    def test_contiguous_partitions_cover(self):
        parts = contiguous_partitions(10, 3)
        assert len(parts) == 3
        covered = sorted(i for p in parts for i in p.subset)
        assert covered == list(range(10))

    @pytest.mark.parametrize("n_blocks", [0, 11])
    def test_contiguous_partitions_block_count_out_of_range_rejected(self, n_blocks):
        with pytest.raises(ValueError, match="n_blocks"):
            contiguous_partitions(10, n_blocks)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            BlockPartition(subset=(0, 1), complement=(1, 2), n=3)


class TestConditionalGaussian:
    """The pair (gain G, block prior N(0, S)) that block_update uses: the
    subset's conditional given f_B is N(G f_B, S)."""

    def test_independent_blocks(self):
        prior = factorize(np.diag([1.0, 2.0, 3.0]))
        gain, block_prior = conditional_gaussian(prior, make_partition(3, [0]))
        np.testing.assert_allclose(gain.dot([5.0, -5.0]), [0.0])
        np.testing.assert_allclose(block_prior.cov, [[1.0]])

    def test_full_subset_recovers_prior(self):
        rng = chain_rng(1)
        cov = random_spd(rng, 4)
        gain, block_prior = conditional_gaussian(factorize(cov), make_partition(4, [0, 1, 2, 3]))
        assert gain.shape == (4, 0)
        np.testing.assert_allclose(gain.dot(np.array([])), np.zeros(4))
        np.testing.assert_allclose(block_prior.cov, cov)

    def test_two_by_two_hand_case(self):
        prior = factorize(np.array([[1.0, 0.5], [0.5, 1.0]]))
        gain, block_prior = conditional_gaussian(prior, make_partition(2, [0]))
        assert math.isclose(gain.dot([2.0])[0], 1.0)
        assert math.isclose(block_prior.cov[0, 0], 0.75)

    def test_matches_dense_inverse_oracle(self):
        """Schur-complement solves agree with explicit matrix inversion on
        100 random 6x6 covariances."""
        rng = chain_rng(2)
        for _ in range(100):
            cov = random_spd(rng, 6)
            size = int(rng.integers(1, 6))
            part = make_partition(6, rng.choice(6, size=size, replace=False))
            f_b = rng.standard_normal(len(part.complement))
            gain, block_prior = conditional_gaussian(factorize(cov), part)
            A = np.ix_(part.subset, part.subset)
            AB = np.ix_(part.subset, part.complement)
            B = np.ix_(part.complement, part.complement)
            inv_bb = np.linalg.inv(cov[B])
            mean = cov[AB] @ inv_bb @ f_b
            schur = cov[A] - cov[AB] @ inv_bb @ cov[AB].T
            assert np.max(np.abs(gain.dot(f_b) - mean)) < 1e-8
            assert np.max(np.abs(block_prior.cov - schur)) < 1e-8

    def test_wrong_complement_length_rejected(self):
        """A partition of 3 latents has a complement one short for a prior of
        4; it is rejected before anything is cached."""
        prior = factorize(np.eye(4))
        with pytest.raises(DimensionMismatch, match="partition of 3 latents, prior of 4"):
            conditional_gaussian(prior, make_partition(3, [0]))
        assert prior.conditionals == {}


class TestBlockUpdate:
    def test_complement_entries_bitwise_unchanged(self):
        rng = chain_rng(3)
        inputs = rng.uniform(size=(8, 1))
        prior = factorize(squared_exponential(inputs, KernelConfig()))
        data = RegressionData(y=rng.standard_normal(8), noise_variance=0.09)
        part = make_partition(8, [1, 4, 6])
        state = SamplerState(f=prior.sample(rng), log_lik=None)
        for _ in range(50):
            res = block_update(state, prior, data, part, make_operator("elliptical"), rng)
            np.testing.assert_array_equal(
                res.new_state.f[part.complement], state.f[part.complement]
            )
            state = res.new_state

    def test_constant_likelihood_recovers_conditional_prior(self):
        """With no likelihood, repeated block updates sample f_A from its
        conditional N(m, S) given the frozen complement."""
        rng = chain_rng(4)
        cov = random_spd(rng, 4)
        prior = factorize(cov)
        model = ConstantLikelihood(4)
        part = make_partition(4, [0, 2])
        f0 = prior.sample(rng)
        cond_mean, cond_cov = dense_conditional(cov, part, f0)

        state = SamplerState(f=f0.copy())
        samples = np.empty((10_000, 2))
        for i in range(10_000):
            res = block_update(state, prior, model, part, make_operator("elliptical"), rng)
            samples[i] = res.new_state.f[part.subset]
            state = res.new_state

        for j in range(2):
            ess = effective_sample_size(samples[:, j]).ess
            se = math.sqrt(cond_cov[j, j] / ess)
            assert abs(samples[:, j].mean() - cond_mean[j]) < 3 * se
        emp = np.cov(samples.T)
        assert np.linalg.norm(emp - cond_cov) / np.linalg.norm(cond_cov) < 0.10

    def test_full_subset_matches_full_space_operator(self):
        """Updating every index through the block path is statistically the
        same transition as the plain operator: compare posterior moments."""
        rng = chain_rng(5)
        cov = np.array([[1.0, 0.6], [0.6, 1.2]])
        prior = factorize(cov)
        data = RegressionData(y=np.array([1.0, -1.0]), noise_variance=0.5)
        part = make_partition(2, [0, 1])

        state = SamplerState(f=np.zeros(2))
        blocked = np.empty((20_000, 2))
        for i in range(20_000):
            res = block_update(state, prior, data, part, make_operator("elliptical"), rng)
            blocked[i] = res.new_state.f
            state = res.new_state

        rng2 = chain_rng(6)
        state = SamplerState(f=np.zeros(2))
        step = make_operator("elliptical")
        full = np.empty((20_000, 2))
        for i in range(20_000):
            res = step(state, prior, data, rng2)
            full[i] = res.new_state.f
            state = res.new_state

        for j in range(2):
            ess_b = effective_sample_size(blocked[:, j]).ess
            ess_f = effective_sample_size(full[:, j]).ess
            se = math.sqrt(blocked[:, j].var() / ess_b + full[:, j].var() / ess_f)
            assert abs(blocked[:, j].mean() - full[:, j].mean()) < 3 * se

    def test_counters_carry_through(self):
        rng = chain_rng(7)
        cov = random_spd(rng, 5)
        prior = factorize(cov)
        data = RegressionData(y=rng.standard_normal(5), noise_variance=0.2)
        part = make_partition(5, [0, 1])
        state = SamplerState(f=prior.sample(rng))
        res = block_update(state, prior, data, part, make_operator("line-slice"), rng)
        assert res.new_state.lik_evals > 0
        assert res.new_state.prior_evals >= 2  # line slice pays prior densities

    def test_alternating_blocks_recover_joint_prior(self):
        """Two-block Gibbs sweeps under constant likelihood reproduce the
        full prior covariance within 10% Frobenius."""
        # inputs spaced a lengthscale apart keep cross-block correlation
        # moderate; a near-singular covariance would stall any block Gibbs
        rng = chain_rng(8)
        inputs = np.arange(6, dtype=float)[:, None]
        cov = squared_exponential(inputs, KernelConfig(0.6, 1.0))
        prior = factorize(cov)
        model = ConstantLikelihood(6)
        first, second = contiguous_partitions(6, 2)

        state = SamplerState(f=prior.sample(rng))
        step = make_operator("elliptical")
        samples = np.empty((10_000, 6))
        for i in range(10_000):
            state = block_update(state, prior, model, first, step, rng).new_state
            state = block_update(state, prior, model, second, step, rng).new_state
            samples[i] = state.f
        emp = np.cov(samples.T)
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.10


def recording(step_fn, seen):
    """``step_fn``, also recording the centered block state and block prior
    that block_update hands it."""
    def step(state, prior, model, rng):
        seen.append((state.f.copy(), prior))
        return step_fn(state, prior, model, rng)
    return step


class TestBlockUpdateChecks:
    def setup_method(self):
        rng = chain_rng(9)
        self.prior = factorize(random_spd(rng, 8))
        self.data = RegressionData(y=rng.standard_normal(8), noise_variance=0.2)
        self.state = SamplerState(f=self.prior.sample(rng))
        self.rng = rng

    def update(self, state, part):
        return block_update(state, self.prior, self.data, part,
                            make_operator("elliptical"), self.rng)

    @pytest.mark.parametrize("n", [6, 10])
    def test_partition_of_another_size_rejected_before_cache(self, n):
        self.update(self.state, make_partition(8, [0, 1]))
        cached = list(self.prior.conditionals)
        with pytest.raises(DimensionMismatch):
            self.update(SamplerState(f=np.zeros(n)), make_partition(n, [0, 1]))
        assert list(self.prior.conditionals) == cached

    @pytest.mark.parametrize("length", [7, 9])
    def test_state_of_wrong_length_rejected(self, length):
        state = SamplerState(f=np.zeros(length))
        with pytest.raises(DimensionMismatch):
            self.update(state, make_partition(8, [0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_complement_rejected(self, bad):
        """A non-finite complement value fails through the conditional mean,
        both on a partition's first update and with the cached gain."""
        f = self.state.f.copy()
        f[5] = bad
        for part in (make_partition(8, [0, 1]), make_partition(8, [0, 1])):
            with pytest.raises(ValueError, match="non-finite conditional mean"):
                self.update(SamplerState(f=f), part)
            assert len(self.prior.conditionals) == 1

    def test_complement_order_is_part_of_the_partition(self):
        """Partitions with one subset but differently ordered complements
        each get the conditional of their own ordering."""
        for complement in ([1, 2, 3, 4, 5, 6, 7], [7, 3, 1, 5, 2, 6, 4]):
            part = BlockPartition(subset=[0], complement=complement, n=8)
            seen = []
            block_update(self.state, self.prior, self.data, part,
                         recording(make_operator("elliptical"), seen), self.rng)
            mean, _ = dense_conditional(self.prior.cov, part, self.state.f)
            np.testing.assert_allclose(seen[0][0], self.state.f[part.subset] - mean,
                                       rtol=0, atol=1e-12)

    def test_partitions_that_share_index_bytes_get_their_own_conditional(self):
        """[0] | [1..7] and [0, 1] | [2..7] list the same indices in the same
        order, as do the first blocks of 2- and 4-block contiguous splits;
        each must still get the conditional of its own split."""
        parts = [make_partition(8, [0]), make_partition(8, [0, 1]),
                 contiguous_partitions(8, 2)[0], contiguous_partitions(8, 4)[0]]
        for part in parts:
            seen = []
            res = block_update(self.state, self.prior, self.data, part,
                               recording(make_operator("elliptical"), seen), self.rng)
            (inner_f, block_prior), = seen
            mean, schur = dense_conditional(self.prior.cov, part, self.state.f)
            np.testing.assert_allclose(inner_f, self.state.f[part.subset] - mean,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(block_prior.cov, schur, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(res.new_state.f[part.complement],
                                          self.state.f[part.complement])
        # contiguous_partitions(8, 4)[0] is make_partition(8, [0, 1]) again
        assert len(self.prior.conditionals) == 3

    def test_conditional_that_does_not_factorize_fails_every_call(self):
        """f_0 is a copy of f_1 under this prior, so the conditional of f_0
        given the rest has zero variance."""
        prior = factorize(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        data = RegressionData(y=np.zeros(3), noise_variance=0.2)
        part = make_partition(3, [0])
        f = np.array([0.5, 0.5, -1.0])
        state = SamplerState(f=f)
        errors = []
        for _ in range(3):
            with pytest.raises(NotPositiveDefinite) as info:
                block_update(state, prior, data, part, make_operator("elliptical"), self.rng)
            errors.append(info.value)
        assert len({str(e) for e in errors}) == 1
        assert len({id(e) for e in errors}) == 3
        assert len({len(traceback.extract_tb(e.__traceback__)) for e in errors}) == 1
        assert state.f is f
        np.testing.assert_array_equal(f, [0.5, 0.5, -1.0])
        # the other block's conditional is well defined
        block_update(state, prior, data, make_partition(3, [1, 2]),
                     make_operator("elliptical"), self.rng)

    def test_one_conditional_per_update(self, monkeypatch):
        """Every update takes its pair from the module global
        ``blocking.conditional_gaussian``, where a tracer patches it: one
        call per update, cached or not, failing or not."""
        calls = []
        shipped = blocking.conditional_gaussian

        def counting(prior, part):
            calls.append(part)
            return shipped(prior, part)

        monkeypatch.setattr(blocking, "conditional_gaussian", counting)
        cov = np.eye(5)
        cov[:2, :2] = 1.0  # f_0 is a copy of f_1: the conditional of f_0 fails
        prior = factorize(cov)
        data = RegressionData(y=np.zeros(5), noise_variance=0.2)
        parts = [make_partition(5, [0]), make_partition(5, [1, 2]),
                 make_partition(5, [3]), make_partition(5, [4])]
        state = SamplerState(f=np.zeros(5))
        updates = failed = 0
        for _ in range(2):
            for part in parts:
                updates += 1
                try:
                    state = block_update(state, prior, data, part,
                                         make_operator("elliptical"), self.rng).new_state
                except NotPositiveDefinite:
                    failed += 1
        assert failed == 2
        assert len(calls) == updates
        assert all(seen is part for seen, part in zip(calls, parts + parts))


class TestBenchmarkSize:
    """The n=200, d=10 regression prior and four contiguous blocks that the
    block-sweep benchmark uses."""

    def setup_method(self):
        cfg = {"kind": "regression", "n": 200, "dims": 10}
        self.ds = harness.build_dataset(cfg, KernelConfig(), chain_rng(7, 0, 10))
        self.prior = harness.build_prior(self.ds)
        self.parts = contiguous_partitions(200, 4)

    def test_cached_conditionals_match_dense_oracle(self):
        """What every update hands its step is the cached pair from
        ``conditional_gaussian`` and, independently of ``blocking``,
        Cov_AB Cov_BB^-1 and its Schur complement formed with
        ``np.linalg.solve``. The 2-block split has 100x100 gains, where a
        gain that is not transposed still has a valid shape."""
        rng = chain_rng(10)
        step_fn = make_operator("elliptical")
        cov = self.prior.cov
        state = SamplerState(f=self.prior.sample(rng))
        for parts in (self.parts, contiguous_partitions(200, 2)):
            for _ in range(3):
                for part in parts:
                    a, b = part.subset, part.complement
                    seen = []
                    res = block_update(state, self.prior, self.ds.data, part,
                                       recording(step_fn, seen), rng)
                    (inner_f, block_prior), = seen
                    gain, cached = conditional_gaussian(self.prior, part)
                    assert block_prior is cached
                    assert inner_f.tobytes() == (state.f[a] - gain.dot(state.f[b])).tobytes()
                    mean, schur = dense_conditional(cov, part, state.f)
                    np.testing.assert_allclose(inner_f, state.f[a] - mean, rtol=0, atol=1e-10)
                    np.testing.assert_allclose(block_prior.cov, schur, rtol=0, atol=1e-10)
                    state = res.new_state

    def test_low_rank_prior_gives_conditionals_or_not_positive_definite(self):
        """The d=1 prior keeps the low-rank root, which has no ``chol``. Its
        150x150 complement blocks still factorize through the jittered
        Cholesky, so each update either runs or raises NotPositiveDefinite
        (ROADMAP item 2), never another error."""
        cfg = {"kind": "regression", "n": 200, "dims": 1}
        ds = harness.build_dataset(cfg, KernelConfig(), chain_rng(7, 0, 1))
        prior = harness.build_prior(ds)
        assert prior.backend == "low-rank"
        state = SamplerState(f=np.zeros(200))
        for part in self.parts:
            try:
                block_update(state, prior, ds.data, part, make_operator("elliptical"),
                             chain_rng(12))
            except NotPositiveDefinite:
                pass

    def test_at_most_two_factorizations_per_partition(self, monkeypatch):
        calls = []

        def counting(cov):
            calls.append(cov.shape)
            return factorize(cov)

        monkeypatch.setattr(blocking, "factorize", counting)
        rng = chain_rng(11)
        step_fn = make_operator("elliptical")
        state = SamplerState(f=np.zeros(200))
        for _ in range(10):
            for part in self.parts:
                state = block_update(state, self.prior, self.ds.data, part, step_fn, rng).new_state
        assert len(calls) <= 2 * len(self.parts)

    def test_rejected_mh_update_keeps_f_bit_for_bit(self):
        """A rejected block update returns the input latents bit for bit, not
        (f_A - m) + m, and every update's cached log-likelihood is exactly
        the likelihood of the latents it returns."""
        rng = chain_rng(3)
        step_fn = make_operator("neal-mh", epsilon=0.9)
        f = self.prior.sample(rng)
        state = SamplerState(f=f, log_lik=self.ds.data.log_lik(f))
        rejected = 0
        for _ in range(40):
            for part in self.parts:
                res = block_update(state, self.prior, self.ds.data, part, step_fn, rng)
                new = res.new_state
                if not res.accepted:
                    rejected += 1
                    assert new.f.tobytes() == state.f.tobytes()
                assert new.log_lik == self.ds.data.log_lik(new.f)
                state = new
        assert rejected >= 40

    def test_cached_update_makes_no_solve(self, monkeypatch):
        """Once a sweep has cached each partition's gain, an update takes
        its conditional mean as one product with the gain."""
        calls = []
        cho_solve = scipy.linalg.cho_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return cho_solve(*args, **kwargs)

        rng = chain_rng(11)
        step_fn = make_operator("elliptical")
        state = SamplerState(f=np.zeros(200))
        for sweep in range(11):
            if sweep == 1:
                monkeypatch.setattr(scipy.linalg, "cho_solve", counting)
            for part in self.parts:
                state = block_update(state, self.prior, self.ds.data, part, step_fn, rng).new_state
        assert calls == []

    def test_cached_line_slice_makes_no_wrapped_triangular_solve(self, monkeypatch):
        """Whitening calls LAPACK directly: neither a cached line-slice block
        sweep nor a line-slice chain on a dense prior goes through the
        Python wrapper ``scipy.linalg.solve_triangular``."""

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve_triangular called")

        assert self.prior.backend == "dense"
        rng = chain_rng(11)
        step_fn = make_operator("line-slice")
        state = SamplerState(f=np.zeros(200))
        for sweep in range(3):
            if sweep == 1:
                monkeypatch.setattr(scipy.linalg, "solve_triangular", refuse)
            for part in self.parts:
                state = block_update(state, self.prior, self.ds.data, part, step_fn, rng).new_state
        run_chain(np.zeros(200), step_fn, self.prior, self.ds.data,
                  n_burn=0, n_keep=5, thin=1, rng=rng)
