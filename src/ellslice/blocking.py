"""Conditional-Gaussian block updates.

Any transition operator can be restricted to a subset A of the latents: the
prior over f_A given the complement f_B is Gaussian with mean
m = Cov_AB Cov_BB^-1 f_B and Schur-complement covariance
S = Cov_AA - Cov_AB Cov_BB^-1 Cov_BA. A change of variables g = f_A - m
turns the conditional posterior back into the zero-mean form every operator
expects, so block updates compose with all of them.

:func:`conditional_gaussian` is the one place a block conditional is
computed: per partition, the gain G = Cov_AB Cov_BB^-1 and the block prior
N(0, S), cached on the prior. :func:`block_update` takes m = G f_B from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite
from .gaussian import GaussianPrior, factorize, jittered_cholesky
from .samplers import SamplerState, StepFn, StepResult


@dataclass(frozen=True)
class BlockPartition:
    """Index split (subset to update, fixed complement) covering 0..n-1."""

    subset: np.ndarray
    complement: np.ndarray
    n: int

    def __post_init__(self):
        a = np.asarray(self.subset, dtype=np.int64)
        b = np.asarray(self.complement, dtype=np.int64)
        object.__setattr__(self, "subset", a)
        object.__setattr__(self, "complement", b)
        if a.size == 0:
            raise ValueError("subset must be non-empty")
        merged = np.concatenate([a, b])
        if merged.size != self.n or not np.array_equal(
            np.sort(merged), np.arange(self.n)
        ):
            raise ValueError("subset and complement must partition 0..n-1")


def make_partition(n: int, subset) -> BlockPartition:
    """Partition with the complement derived from the subset (kept sorted)."""
    subset = np.asarray(subset)
    if subset.size and subset.dtype.kind not in "iu":  # a mask or floats would be misread
        raise ValueError(f"subset must hold integer indices, not {subset.dtype}")
    subset = subset.astype(np.int64)
    if subset.size and (subset.min() < 0 or subset.max() >= n):
        raise ValueError(f"subset indices must lie in 0..{n - 1}")
    unique = np.unique(subset)
    if unique.size != subset.size:
        raise ValueError("subset contains duplicate indices")
    mask = np.zeros(n, dtype=bool)
    mask[unique] = True
    return BlockPartition(subset=unique, complement=np.flatnonzero(~mask), n=n)


def contiguous_partitions(n: int, n_blocks: int) -> list[BlockPartition]:
    """Split 0..n-1 into consecutive blocks of near-equal size."""
    if not 1 <= n_blocks <= n:
        raise ValueError("need 1 <= n_blocks <= n")
    edges = np.linspace(0, n, n_blocks + 1).astype(int)
    return [
        make_partition(n, np.arange(lo, hi))
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    ]


def conditional_gaussian(
    prior: GaussianPrior, part: BlockPartition
) -> tuple[np.ndarray, GaussianPrior]:
    """The subset's gain G = Cov_AB Cov_BB^-1 (|A| x |B|) and block prior
    N(0, S), S = Cov_AA - G Cov_BA symmetrized: its conditional given f_B
    is N(G f_B, S), and an empty complement gives the marginal.

    G is X^T for Cov_BB X = Cov_BA, solved through a Cholesky factor; no
    inverse is formed. The pair, or the message of a failure to factorize,
    is computed on first use and kept in ``prior.conditionals``, so every
    later call on a failing partition raises a fresh NotPositiveDefinite
    with the same message.

    Raises
    ------
    DimensionMismatch
        If ``part`` does not have the prior's size.
    NotPositiveDefinite
        If the complement block or S cannot be factorized.
    """
    if part.n != prior.n:
        raise DimensionMismatch(f"partition of {part.n} latents, prior of {prior.n}")
    # two fields, so the subset's end is part of the key: concatenated bytes
    # of different splits (say [0] | [1..7] and [0, 1] | [2..7]) coincide
    key = (part.subset.tobytes(), part.complement.tobytes())
    entry = prior.conditionals.get(key)
    if entry is None:
        a, b = part.subset, part.complement
        cov = prior.cov
        try:
            if b.size == 0:
                entry = (np.zeros((a.size, 0)), factorize(cov[np.ix_(a, a)]))
            else:
                cov_ab = cov[np.ix_(a, b)]
                chol_bb = jittered_cholesky(cov[np.ix_(b, b)])[0]
                x = scipy.linalg.cho_solve((chol_bb, True), cov_ab.T)
                schur = cov[np.ix_(a, a)] - cov_ab @ x
                entry = (x.T, factorize(0.5 * (schur + schur.T)))
        except NotPositiveDefinite as exc:
            entry = str(exc)
        prior.conditionals[key] = entry
    if isinstance(entry, str):
        raise NotPositiveDefinite(entry)
    return entry


class _BlockLikelihood:
    """Likelihood over the centered block, complement held fixed."""

    def __init__(self, model, part: BlockPartition, mean, f_full):
        self.model = model
        self.part = part
        self.mean = mean
        self.f_full = f_full  # private working copy, complement entries fixed
        self.n = part.subset.size

    def log_lik(self, g: np.ndarray) -> float:
        self.f_full[self.part.subset] = g + self.mean
        return self.model.log_lik(self.f_full)


def block_update(
    state: SamplerState,
    prior: GaussianPrior,
    model,
    part: BlockPartition,
    step_fn: StepFn,
    rng: np.random.Generator,
) -> StepResult:
    """Update only the subset block of the latents with any operator.

    Runs ``step_fn`` on the centered block variable g = f_A - m under the
    conditional prior N(0, S); complement entries are untouched. Evaluation
    counters carry through from the inner step, and the returned state is
    built afresh, so it carries no line-slice whitened form. When the inner
    step returns the centered block it was given (a rejected M-H proposal),
    the result holds ``state.f`` itself: f_A is not rebuilt as (f_A - m) + m,
    which can differ from f_A in its last bits.

    The gain G = Cov_AB Cov_BB^-1 and the factor of S do not depend on f_B,
    so :func:`conditional_gaussian` computes them once per partition and
    caches them on ``prior`` (which owns the covariance, so the cache never
    goes stale). After the first call on a partition an update costs one
    product m = G f_B plus the inner step, instead of two Cholesky
    factorizations. A partition whose conditional does not factorize raises
    NotPositiveDefinite on every call. Entries are kept for the prior's
    lifetime, one per distinct partition, so callers should reuse partitions
    rather than draw new index sets every sweep.

    Raises
    ------
    DimensionMismatch
        If ``part`` or ``state.f`` does not have the prior's size.
    NotPositiveDefinite
        If the partition's conditional cannot be factorized.
    ValueError
        If the complement values give a non-finite conditional mean.
    """
    if np.shape(state.f) != (part.n,):
        raise DimensionMismatch(
            f"state has shape {np.shape(state.f)}, expected ({part.n},)"
        )
    gain, block_prior = conditional_gaussian(prior, part)
    mean = gain.dot(state.f[part.complement])
    if not np.isfinite(mean).all():
        raise ValueError("complement values give a non-finite conditional mean")
    block_model = _BlockLikelihood(model, part, mean, state.f.copy())

    inner = SamplerState(state.f[part.subset] - mean, state.log_lik,
                         state.lik_evals, state.prior_evals)
    result = step_fn(inner, block_prior, block_model, rng)

    new = result.new_state
    if new.f is inner.f:  # rejected: (f_A - m) + m need not be f_A in floats
        f_new = state.f
    else:
        f_new = state.f.copy()
        f_new[part.subset] = new.f + mean
    return StepResult(SamplerState(f_new, new.log_lik, new.lik_evals, new.prior_evals),
                      result.accepted, result.angles, result.log_threshold)
