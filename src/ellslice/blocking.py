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


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional prior N(mean, cov) over the subset block."""

    mean: np.ndarray
    cov: np.ndarray


def _gain_and_schur(cov: np.ndarray, part: BlockPartition) -> tuple[np.ndarray, np.ndarray]:
    """G = Cov_AB Cov_BB^-1 (|A| x |B|, so |A| x 0 for an empty complement)
    and the symmetrized Schur complement S = Cov_AA - G Cov_BA, so the
    subset's conditional is N(G f_B, S). Solves Cov_BB X = Cov_BA for
    G = X^T: the one place G and S are computed."""
    a, b = part.subset, part.complement
    cov_aa = cov[np.ix_(a, a)]
    if b.size == 0:
        return np.zeros((a.size, 0)), cov_aa
    cov_ab = cov[np.ix_(a, b)]
    chol_bb = jittered_cholesky(cov[np.ix_(b, b)])[0]
    x = scipy.linalg.cho_solve((chol_bb, True), cov_ab.T)
    schur = cov_aa - cov_ab @ x
    return x.T, 0.5 * (schur + schur.T)


def _conditional_mean(gain: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """m = G f_B: one matrix-vector product."""
    m = gain @ f_b
    if not np.isfinite(m).all():
        raise ValueError("complement values give a non-finite conditional mean")
    return m


def conditional_gaussian(
    cov: np.ndarray, part: BlockPartition, f_complement: np.ndarray
) -> ConditionalGaussian:
    """Conditional of N(0, cov) on the subset given complement values.

    Forms the gain Cov_AB Cov_BB^-1 through a Cholesky factorization of the
    complement block; never forms an explicit inverse. An empty complement
    returns the marginal prior over the subset. This is the dense oracle: it
    factorizes on every call, where :func:`block_update` reuses the same
    gain and Schur complement per partition.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (part.n, part.n):
        raise DimensionMismatch(f"covariance shape {cov.shape} != ({part.n}, {part.n})")
    f_b = np.asarray(f_complement, dtype=float)
    if f_b.shape != (part.complement.size,):
        raise DimensionMismatch(
            f"complement values have shape {f_b.shape}, expected ({part.complement.size},)"
        )
    gain, schur = _gain_and_schur(cov, part)
    return ConditionalGaussian(mean=_conditional_mean(gain, f_b), cov=schur)


def _block_conditional(
    prior: GaussianPrior, part: BlockPartition
) -> tuple[np.ndarray, GaussianPrior]:
    """The partition's gain G and block prior N(0, S), computed on first use
    and kept in ``prior.conditionals``.

    A conditional that does not factorize is remembered too: every later
    call raises a fresh NotPositiveDefinite with the same message.
    """
    # two fields, so the subset's end is part of the key: concatenated bytes
    # of different splits (say [0] | [1..7] and [0, 1] | [2..7]) coincide
    key = (part.subset.tobytes(), part.complement.tobytes())
    entry = prior.conditionals.get(key)
    if entry is None:
        try:
            gain, schur = _gain_and_schur(prior.cov, part)
            entry = (gain, factorize(schur))
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
    counters carry through from the inner step.

    The gain G = Cov_AB Cov_BB^-1 and the factor of S do not depend on f_B,
    so they are computed once per partition and cached on ``prior`` (which
    owns the covariance, so the cache never goes stale). After the first
    call on a partition an update costs one product m = G f_B plus the inner
    step, instead of two Cholesky factorizations. A partition whose conditional
    does not factorize raises NotPositiveDefinite on every call. Entries are
    kept for the prior's lifetime, one per distinct partition, so callers
    should reuse partitions rather than draw new index sets every sweep.

    Raises
    ------
    DimensionMismatch
        If ``part`` or ``state.f`` does not have the prior's size.
    NotPositiveDefinite
        If the partition's conditional cannot be factorized.
    """
    if part.n != prior.n:
        raise DimensionMismatch(f"partition of {part.n} latents, prior of {prior.n}")
    if np.shape(state.f) != (part.n,):
        raise DimensionMismatch(
            f"state has shape {np.shape(state.f)}, expected ({part.n},)"
        )
    gain, block_prior = _block_conditional(prior, part)
    mean = _conditional_mean(gain, state.f[part.complement])
    block_model = _BlockLikelihood(model, part, mean, state.f.copy())

    inner = replace(state, f=state.f[part.subset] - mean)
    result = step_fn(inner, block_prior, block_model, rng)

    f_new = state.f.copy()
    f_new[part.subset] = result.new_state.f + mean
    return replace(result, new_state=replace(result.new_state, f=f_new))
