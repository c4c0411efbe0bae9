"""Conditional-Gaussian block updates.

Any transition operator can be restricted to a subset A of the latents: the
prior over f_A given the complement f_B is Gaussian with mean
m = Cov_AB Cov_BB^-1 f_B and Schur-complement covariance
S = Cov_AA - Cov_AB Cov_BB^-1 Cov_BA. A change of variables g = f_A - m
turns the conditional posterior back into the zero-mean form every operator
expects, so block updates compose with all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch
from .gaussian import GaussianPrior, factorize
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
    subset = np.asarray(subset, dtype=np.int64)
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


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional prior N(mean, cov) over the subset block."""

    mean: np.ndarray
    cov: np.ndarray


def conditional_gaussian(
    cov: np.ndarray, part: BlockPartition, f_complement: np.ndarray
) -> ConditionalGaussian:
    """Conditional of N(0, cov) on the subset given complement values.

    Solves through a Cholesky factorization of the complement block; never
    forms an explicit inverse. An empty complement returns the marginal
    prior over the subset.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (part.n, part.n):
        raise DimensionMismatch(f"covariance shape {cov.shape} != ({part.n}, {part.n})")
    f_b = np.asarray(f_complement, dtype=float)
    if f_b.shape != (part.complement.size,):
        raise DimensionMismatch(
            f"complement values have shape {f_b.shape}, expected ({part.complement.size},)"
        )
    a, b = part.subset, part.complement
    cov_aa = cov[np.ix_(a, a)]
    if b.size == 0:
        return ConditionalGaussian(mean=np.zeros(a.size), cov=cov_aa)
    cov_ab = cov[np.ix_(a, b)]
    chol_bb = factorize(cov[np.ix_(b, b)]).chol
    mean = cov_ab @ scipy.linalg.cho_solve((chol_bb, True), f_b)
    schur = cov_aa - cov_ab @ scipy.linalg.cho_solve((chol_bb, True), cov_ab.T)
    return ConditionalGaussian(mean=mean, cov=0.5 * (schur + schur.T))


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
    counters carry through from the inner step.
    """
    cond = conditional_gaussian(prior.cov, part, state.f[part.complement])
    block_prior = factorize(cond.cov)
    block_model = _BlockLikelihood(model, part, cond.mean, state.f.copy())

    inner = replace(state, f=state.f[part.subset] - cond.mean)
    result = step_fn(inner, block_prior, block_model, rng)

    f_new = state.f.copy()
    f_new[part.subset] = result.new_state.f + cond.mean
    return replace(result, new_state=replace(result.new_state, f=f_new))
