"""Reference forms the tests check the shipped operators against.

The paper derives the elliptical slice update from an augmented model: a
pair (nu0, nu1) of prior draws and an angle theta with
f = nu0*sin(theta) + nu1*cos(theta). :func:`elliptical_slice_aux_step` runs
that two-stage form literally. It is equivalent in distribution to
:func:`ellslice.samplers.elliptical_slice_step`, which acceptance 5 checks,
and its pinned trace digests live with the others in
``test_trace_digests.py``. :class:`ConstantLikelihood` is the likelihood
under which the posterior is the prior. None of them is part of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ellslice import DimensionMismatch, GaussianPrior, SamplerState, StepResult
from ellslice.models import _check_length
from ellslice.samplers import (
    TWO_PI,
    LikelihoodModel,
    _advance,
    _log_slice_height,
    _slice_shrink,
    _start,
    _uniforms,
)


@dataclass(frozen=True)
class ConstantLikelihood:
    """log L == value everywhere; the posterior is the prior."""

    n: int
    value: float = 0.0

    def log_lik(self, f: np.ndarray) -> float:
        _check_length(f, self.n)
        return self.value


def rotate(
    f: np.ndarray, nu: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the pair (f, nu) by angle theta in their shared plane.

    Returns ``(nu*sin(theta) + f*cos(theta), nu*cos(theta) - f*sin(theta))``.
    The map has unit Jacobian and leaves the joint N(0, cov) density of the
    pair unchanged for any theta.
    """
    f = np.asarray(f, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if f.shape != nu.shape:
        raise DimensionMismatch(f"shape mismatch: {f.shape} vs {nu.shape}")
    c, s = math.cos(theta), math.sin(theta)
    return nu * s + f * c, nu * c - f * s


class _LogLikOnly:
    """A model seen only through ``log_lik``, without its plane method."""

    def __init__(self, model: LikelihoodModel):
        self.n = model.n
        self.log_lik = model.log_lik


def elliptical_slice_aux_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator,
) -> StepResult:
    """The two-stage augmented-model form of the elliptical update.

    Stage one resamples the ellipse parameterization (nu0, nu1, theta)
    holding the current state fixed: theta ~ Uniform[0, 2*pi), nu ~ N(0, cov),
    (nu0, nu1) = :func:`rotate` (nu, f, theta), so that
    nu0*sin(theta) + nu1*cos(theta) reproduces f exactly. Stage two
    slice-samples the angle against L(nu0*sin + nu1*cos) with the same
    shrink rule as :func:`~ellslice.samplers.elliptical_slice_step`, the
    bracket re-centered at the entry angle, forming each proposal as
    nu0*sin + nu1*cos. The model is seen without its plane method, so every
    proposal is evaluated directly.

    Its uniforms come from one source, as the packaged slice steps' do:
    theta, the slice height, the first offset and one per shrink, in that
    order. Its first batch is drawn for theta, before nu.
    """
    cur_log_lik, evals = _start(state, model)
    uniforms = _uniforms(rng)
    theta0 = TWO_PI * next(uniforms)
    nu0, nu1 = rotate(prior.sample(rng), state.f, theta0)
    # the current angle theta0 reproduces the current state, so its cached
    # likelihood seeds the slice threshold
    log_y = _log_slice_height(cur_log_lik, uniforms)

    offset = TWO_PI * next(uniforms)
    offsets, f_new, log_lik = _slice_shrink(
        _LogLikOnly(model), nu0, nu1,
        lambda o: (math.sin(theta0 + o), math.cos(theta0 + o)),
        log_y, offset, offset - TWO_PI, offset, uniforms,
    )
    new_state = _advance(state, f_new, log_lik, evals + len(offsets))
    return StepResult(new_state, True, [theta0 + o for o in offsets], log_y)
