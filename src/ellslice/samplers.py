"""MCMC transition operators for targets of the form N(f; 0, cov) * L(f).

Four operators share one contract: step(state, prior, model, rng) returns a
:class:`StepResult` with the new state and per-step diagnostics. All of them
propose moves built from a single auxiliary draw nu ~ N(0, cov):

* :func:`elliptical_slice_step` -- rejection-free slice sampling on the
  ellipse f*cos(t) + nu*sin(t), with bracket shrinkage toward the current
  state (the recommended operator).
* :func:`elliptical_slice_aux_step` -- the two-stage augmented-model variant
  (resample the ellipse parameterization, then slice-sample the angle);
  equivalent in distribution, kept as a reference implementation.
* :func:`neal_mh_step` -- Metropolis-Hastings with proposal
  sqrt(1-eps^2)*f + eps*nu and a fixed step size eps.
* :func:`line_slice_step` -- slice sampling along the straight line
  f + eps*nu, which (unlike the ellipse) must evaluate the prior density at
  every proposal; in whitened coordinates that costs O(1) per proposal.

The three slice operators differ only in their curve, their first draw and
bracket, and (for the line) the prior term of the target; they share one
bracket-shrink loop, :func:`_slice_shrink`. They have no free parameters:
the ellipse bracket is a full revolution, the line bracket has width
:data:`LINE_WIDTH`, and :data:`MAX_SHRINKS` is a safety bound, not a knob.
Only Metropolis-Hastings takes a step size.

Operators never mutate their inputs; each chain owns its RNG stream.
Every uniform an operator draws is ``lo + (hi - lo) * rng.random()``
(:func:`_uniform`), the arithmetic ``Generator.uniform(lo, hi)`` does on the
same double, so traces recorded when the operators called
``rng.uniform`` reproduce bit for bit.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .diagnostics import ChainTrace
from .errors import (
    ChainError,
    EllsliceError,
    InvalidConfig,
    NonFiniteLikelihood,
    ShrinkLimitExceeded,
)
from .gaussian import GaussianPrior, rotate

TWO_PI = 2.0 * math.pi
# width of the line-slice bracket in units of the prior draw nu
LINE_WIDTH = math.pi
# shrinks after which a slice counts as numerically empty
MAX_SHRINKS = 1000


class LikelihoodModel(Protocol):
    """Anything mapping a latent vector to a log-likelihood."""

    n: int

    def log_lik(self, f: np.ndarray) -> float: ...


@dataclass
class SamplerState:
    """Current latent vector with its cached log-likelihood and counters.

    ``log_lik`` may be None for a freshly constructed state; the first step
    then computes it (and counts the evaluation).
    """

    f: np.ndarray
    log_lik: float | None = None
    lik_evals: int = 0
    prior_evals: int = 0


@dataclass(frozen=True)
class MhConfig:
    """Step size for the Metropolis-Hastings operator."""

    epsilon: float = 0.5

    def __post_init__(self):
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not abs(eps) <= 1.0:
            raise InvalidConfig(f"epsilon must be a number in [-1, 1], got {eps!r}")


@dataclass
class StepResult:
    """One transition: new state plus diagnostics for tests and accounting.

    ``angles`` is the ordered sequence of positions considered (angles on
    the ellipse, step fractions on the line), so its length is the number
    of proposals; it is empty for Metropolis-Hastings, which makes exactly
    one. ``log_threshold`` is the slice height log(y), None for
    Metropolis-Hastings.
    """

    new_state: SamplerState
    accepted: bool
    angles: list[float] = field(default_factory=list)
    log_threshold: float | None = None


StepFn = Callable[
    [SamplerState, GaussianPrior, "LikelihoodModel", np.random.Generator], StepResult
]


def _eval_log_lik(model: LikelihoodModel, f: np.ndarray) -> float:
    value = float(model.log_lik(f))
    if math.isnan(value):
        raise NonFiniteLikelihood("log-likelihood returned NaN")
    return value


def _start(
    state: SamplerState, model: LikelihoodModel, rng: np.random.Generator | None
) -> tuple[float, int]:
    """Current log-likelihood and how many evaluations resolving it cost.

    Every operator begins here: it requires an RNG and a start with non-zero
    likelihood, and evaluates the likelihood only when none is cached.
    """
    if rng is None:
        raise ValueError("rng is required")
    if state.log_lik is None:
        log_lik, evals = _eval_log_lik(model, state.f), 1
    else:
        log_lik, evals = state.log_lik, 0
    if not math.isfinite(log_lik):
        raise NonFiniteLikelihood(
            "initial state has zero likelihood (log L = -inf); "
            "start the chain from a point with non-zero likelihood"
        )
    return log_lik, evals


def _advance(
    state: SamplerState, f: np.ndarray, log_lik: float, lik_evals: int, prior_evals: int = 0
) -> SamplerState:
    """The next state, with this step's evaluations added to the counters."""
    return SamplerState(
        f, log_lik, state.lik_evals + lik_evals, state.prior_evals + prior_evals
    )


def _uniform(rng: np.random.Generator, lo: float = 0.0, hi: float = 1.0) -> float:
    """A draw from Uniform[lo, hi): ``lo + (hi - lo) * rng.random()``.

    This is the arithmetic ``rng.uniform(lo, hi)`` does on the same double,
    so the value and the stream position match it bit for bit, at a third of
    the cost of that call.
    """
    return lo + (hi - lo) * rng.random()


def _log_slice_height(log_target: float, rng: np.random.Generator) -> float:
    u = _uniform(rng)
    return log_target + (math.log(u) if u > 0.0 else -math.inf)


def _slice_shrink(
    propose: Callable[[float], tuple[np.ndarray, float, float]],
    log_y: float,
    x: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> tuple[list[float], np.ndarray, float]:
    """Shrink the bracket [lo, hi] around 0 until a proposal clears the slice.

    ``propose(x)`` returns ``(point, log_lik, log_target)`` for position
    ``x``; position 0 is the current state, so the bracket always keeps it.
    ``x`` is the first position, already drawn by the caller. Returns the
    positions tried in order, the accepted point and its log-likelihood.

    Raises
    ------
    ShrinkLimitExceeded
        After :data:`MAX_SHRINKS` shrinks; the slice is numerically empty.
    """
    positions: list[float] = []
    for _ in range(MAX_SHRINKS + 1):
        positions.append(x)
        point, log_lik, log_target = propose(x)
        if log_target > log_y:
            return positions, point, log_lik
        if x < 0.0:
            lo = x
        else:
            hi = x
        assert lo <= 0.0 <= hi, "bracket lost the current state"
        x = _uniform(rng, lo, hi)
    raise ShrinkLimitExceeded(f"no acceptable point after {MAX_SHRINKS} bracket shrinks")


def elliptical_slice_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """One elliptical slice sampling transition.

    Draws nu ~ N(0, cov) to fix an ellipse through the current state, draws
    a log-likelihood threshold uniformly under the current value, then
    proposes angles from a bracket that shrinks toward the current state
    (angle 0) until a proposal clears the threshold. The first proposal's
    angle also sets both edges of the full-revolution bracket, so the move
    has no free parameters.

    There are no rejections: the returned ``accepted`` is always True.

    Raises
    ------
    ShrinkLimitExceeded
        After :data:`MAX_SHRINKS` shrinks; the slice is numerically empty.
    NonFiniteLikelihood
        If the likelihood returns NaN at a proposal.
    """
    cur_log_lik, evals = _start(state, model, rng)
    nu = prior.sample(rng)
    log_y = _log_slice_height(cur_log_lik, rng)

    def propose(theta):
        f_prop = state.f * math.cos(theta) + nu * math.sin(theta)
        log_lik = _eval_log_lik(model, f_prop)
        return f_prop, log_lik, log_lik

    theta = _uniform(rng, 0.0, TWO_PI)
    angles, f_new, log_lik = _slice_shrink(propose, log_y, theta, theta - TWO_PI, theta, rng)
    new_state = _advance(state, f_new, log_lik, evals + len(angles))
    return StepResult(new_state, True, angles, log_y)


def elliptical_slice_aux_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """The two-stage augmented-model form of the elliptical update.

    Stage one resamples the ellipse parameterization (nu0, nu1, theta)
    holding the current state fixed: theta ~ Uniform[0, 2*pi), nu ~ N(0, cov),
    (nu0, nu1) = :func:`~ellslice.gaussian.rotate` (nu, f, theta), so that
    nu0*sin(theta) + nu1*cos(theta) reproduces f exactly. Stage two
    slice-samples the angle against L(nu0*sin + nu1*cos) with the same
    shrink rule as :func:`elliptical_slice_step`, the bracket re-centered at
    the entry angle. Statistically equivalent to the one-stage operator;
    retained so the equivalence is testable.
    """
    cur_log_lik, evals = _start(state, model, rng)
    theta0 = _uniform(rng, 0.0, TWO_PI)
    nu0, nu1 = rotate(prior.sample(rng), state.f, theta0)
    # the current angle theta0 reproduces the current state, so its cached
    # likelihood seeds the slice threshold
    log_y = _log_slice_height(cur_log_lik, rng)

    def propose(offset):
        theta = theta0 + offset
        f_prop = nu0 * math.sin(theta) + nu1 * math.cos(theta)
        log_lik = _eval_log_lik(model, f_prop)
        return f_prop, log_lik, log_lik

    offset = _uniform(rng, 0.0, TWO_PI)
    offsets, f_new, log_lik = _slice_shrink(propose, log_y, offset, offset - TWO_PI, offset, rng)
    new_state = _advance(state, f_new, log_lik, evals + len(offsets))
    return StepResult(new_state, True, [theta0 + o for o in offsets], log_y)


def neal_mh_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    cfg: MhConfig = MhConfig(),
    rng: np.random.Generator | None = None,
) -> StepResult:
    """Metropolis-Hastings with proposal sqrt(1-eps^2)*f + eps*nu.

    The proposal leaves the Gaussian prior invariant for any fixed eps in
    [-1, 1] (a prior draw at eps = 1, the current state at eps = 0), so the
    acceptance ratio reduces to the likelihood ratio. On rejection the new
    state is a copy of the current one with counters advanced.
    """
    cur_log_lik, evals = _start(state, model, rng)
    nu = prior.sample(rng)
    eps = cfg.epsilon
    f_prop = math.sqrt(1.0 - eps * eps) * state.f + eps * nu
    prop_log_lik = _eval_log_lik(model, f_prop)

    accepted = _uniform(rng) < math.exp(min(prop_log_lik - cur_log_lik, 0.0))
    f_new, log_lik = (f_prop, prop_log_lik) if accepted else (state.f.copy(), cur_log_lik)
    return StepResult(_advance(state, f_new, log_lik, evals + 1), accepted)


def _line_log_prior(
    prior: GaussianPrior, f: np.ndarray, z: np.ndarray
) -> Callable[[float], float]:
    """The prior log-density at f + eps*nu as a function of eps, for nu = A z
    with A the prior's root.

    In whitened coordinates the line is w + eps*z with w = A^-1 f, so the
    log-density is log_norm - (w.w + eps*(2 w.z + eps z.z))/2: one whitening
    solve and three dot products up front, then O(1) per eps.
    """
    w = prior.whiten(f)
    c, ww, wz2, zz = prior.log_norm, float(w @ w), 2.0 * float(w @ z), float(z @ z)
    return lambda eps: c - 0.5 * (ww + eps * (wz2 + eps * zz))


def line_slice_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """Slice sampling along the straight line f + eps*nu.

    The prior density does not cancel along a line the way it does around
    the ellipse, so the slice is taken through the full log posterior and
    every proposal evaluates the prior log-density on top of the
    likelihood; :func:`_line_log_prior` makes that one whitening solve per
    step and O(1) per proposal. The initial bracket of width
    :data:`LINE_WIDTH` is positioned uniformly at random around eps = 0 and
    shrinks toward it.
    """
    cur_log_lik, evals = _start(state, model, rng)
    nu, z = prior.draw(rng)
    log_prior = _line_log_prior(prior, state.f, z)
    # the current state's prior density seeds the threshold: one prior eval
    log_y = _log_slice_height(log_prior(0.0) + cur_log_lik, rng)

    def propose(eps):
        f_prop = state.f + eps * nu
        log_lik = _eval_log_lik(model, f_prop)
        return f_prop, log_lik, log_prior(eps) + log_lik

    u = _uniform(rng)
    eps_min, eps_max = -LINE_WIDTH * u, LINE_WIDTH * (1.0 - u)
    eps = _uniform(rng, eps_min, eps_max)
    steps, f_new, log_lik = _slice_shrink(propose, log_y, eps, eps_min, eps_max, rng)
    new_state = _advance(state, f_new, log_lik, evals + len(steps), 1 + len(steps))
    return StepResult(new_state, True, steps, log_y)


OPERATOR_KINDS = ("elliptical", "elliptical-aux", "neal-mh", "line-slice")

_PARAMETER_FREE = {
    "elliptical": elliptical_slice_step,
    "elliptical-aux": elliptical_slice_aux_step,
    "line-slice": line_slice_step,
}


def make_operator(kind: str, **params) -> StepFn:
    """Build a step function from a (kind, parameters) spec.

    Only ``neal-mh`` takes a parameter, its step size ``epsilon``; any other
    parameter, or any parameter for a slice operator, is an error.
    """
    if kind not in OPERATOR_KINDS:
        raise InvalidConfig(f"unknown sampler kind {kind!r}; expected one of {OPERATOR_KINDS}")
    if kind == "neal-mh":
        if set(params) - {"epsilon"}:
            raise InvalidConfig(f"neal-mh takes only 'epsilon', got {sorted(params)}")
        cfg = MhConfig(**params)
        return lambda state, prior, model, rng: neal_mh_step(state, prior, model, cfg, rng)
    if params:
        raise InvalidConfig(f"{kind} takes no parameters, got {sorted(params)}")
    return _PARAMETER_FREE[kind]


def chain_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Independent, schedule-free RNG stream for (seed, chain/cell indices)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=stream))


def run_chain(
    initial: np.ndarray,
    step_fn: StepFn,
    prior: GaussianPrior,
    model: LikelihoodModel,
    *,
    n_burn: int,
    n_keep: int,
    thin: int = 0,
    rng: np.random.Generator,
) -> ChainTrace:
    """Apply an operator ``n_burn + n_keep`` times and record the kept part.

    Records log-likelihood, cumulative evaluation counts, and the accepted
    flag every kept iteration; snapshots the latent vector every ``thin``
    kept iterations (0 disables snapshots). Operator errors are re-raised as
    :class:`ChainError` carrying the failing iteration index.
    """
    if n_keep < 1:
        raise ValueError("n_keep must be >= 1")
    if n_burn < 0 or thin < 0:
        raise ValueError("n_burn and thin must be non-negative")

    state = SamplerState(f=np.array(initial, dtype=float))
    log_lik = np.empty(n_keep)
    lik_evals = np.empty(n_keep, dtype=np.int64)
    prior_evals = np.empty(n_keep, dtype=np.int64)
    accepted = np.empty(n_keep, dtype=bool)
    snapshots = [] if thin > 0 else None

    start = time.perf_counter()
    for i in range(n_burn + n_keep):
        try:
            result = step_fn(state, prior, model, rng)
        except EllsliceError as exc:
            raise ChainError(i, exc) from exc
        state = result.new_state
        k = i - n_burn
        if k >= 0:
            log_lik[k] = state.log_lik
            lik_evals[k] = state.lik_evals
            prior_evals[k] = state.prior_evals
            accepted[k] = result.accepted
            if snapshots is not None and k % thin == 0:
                snapshots.append(state.f.copy())

    return ChainTrace(
        log_lik=log_lik,
        lik_evals_cum=lik_evals,
        prior_evals_cum=prior_evals,
        accepted=accepted,
        snapshots=np.array(snapshots) if snapshots is not None else None,
        wall_time=time.perf_counter() - start,
    )
