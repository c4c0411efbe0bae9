"""MCMC transition operators for targets of the form N(f; 0, cov) * L(f).

Three operators share one contract: step(state, prior, model, rng) returns a
:class:`StepResult` with the new state and per-step diagnostics. All of them
propose moves built from a single auxiliary draw nu ~ N(0, cov):

* :func:`elliptical_slice_step` -- rejection-free slice sampling on the
  ellipse f*cos(t) + nu*sin(t), with bracket shrinkage toward the current
  state (the recommended operator).
* :func:`neal_mh_step` -- Metropolis-Hastings with proposal
  sqrt(1-eps^2)*f + eps*nu and a fixed step size, the keyword ``epsilon``.
* :func:`line_slice_step` -- slice sampling along the straight line
  f + eps*nu, which (unlike the ellipse) must evaluate the prior density at
  every proposal; in whitened coordinates that costs O(1) per proposal, and
  the state it returns carries its whitened form, so a chain of line-slice
  steps whitens once, at its start.

The two slice operators differ only in their curve, their first draw and
bracket, and (for the line) the prior term of the target; they share one
bracket-shrink loop, :func:`_slice_shrink`. They have no free parameters:
the ellipse bracket is a full revolution, the line bracket has width
:data:`LINE_WIDTH`, and :data:`MAX_SHRINKS` is a safety bound, not a knob.
Only Metropolis-Hastings takes a step size.

Every proposal of the elliptical and line-slice operators lies in the plane
of the current state f and the draw nu, and :func:`_slice_shrink` forms it
one way, ``f * a + nu * b`` (the line at a = 1). A model may define
``on_plane(u, v)``, returning one function ``score(a, b) -> (log_lik,
bound)``: log L(a*u + b*v) scored without forming the point, and a float64
bound on its rounding error. Gaussian regression scores in O(1)
(:meth:`~ellslice.models.RegressionData.on_plane`); the Cox model's count
term is O(1) and its sum of intensities one fused O(n) pass
(:meth:`~ellslice.models.CoxData.on_plane`). A model without the method is
scored by :func:`_defer`, which never decides. The loop rejects a proposal
on its score only when the score lies below the slice height by more than
its bound; it forms and evaluates every other proposal with ``log_lik``, so
every decision, state and trace is bit for bit the one of evaluating each
point directly. Classification and block likelihoods therefore evaluate
every proposal, as Metropolis-Hastings does. ``lik_evals`` counts proposals
either way.

Operators never mutate their inputs; each chain owns its RNG stream.
A slice step draws its prior draw nu first, then takes every uniform it
uses, in order, from :func:`_uniforms`: one ``rng.random(UNIFORM_BATCH)``
call, and one more batch only for a step that uses more than
:data:`UNIFORM_BATCH` of them. A uniform on [lo, hi) is
``lo + (hi - lo) * u``. The unused tail of a step's last batch is
discarded, so the next step's draws start after it. Metropolis-Hastings
draws its one uniform with ``rng.random()``.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from .diagnostics import ChainTrace
from .errors import (
    ChainError,
    EllsliceError,
    InvalidConfig,
    NonFiniteLikelihood,
    ShrinkLimitExceeded,
)
from .gaussian import GaussianPrior

TWO_PI = 2.0 * math.pi
# width of the line-slice bracket in units of the prior draw nu
LINE_WIDTH = math.pi
# shrinks after which a slice counts as numerically empty
MAX_SHRINKS = 1000
# uniforms a slice step draws per Generator call: its slice height, first
# position (the line also its bracket offset) and one per shrink. Chains on
# the benchmark's n=200 regression and cox data use 7-10 per step on
# average, 16-18 at the 99th percentile and at most 24.
UNIFORM_BATCH = 32


class LikelihoodModel(Protocol):
    """Anything mapping a latent vector to a log-likelihood.

    A model may also define ``on_plane(u, v)``, returning
    ``score(a, b) -> (log_lik, bound)``: log L at a*u + b*v and a bound on
    its float64 distance from ``log_lik`` at ``u * a + v * b``, inf where it
    cannot bound it. :func:`_slice_shrink` then rejects proposals on their
    score without forming them; a model without the method is scored by
    :func:`_defer`, so every proposal is formed and evaluated.
    """

    n: int

    def log_lik(self, f: np.ndarray) -> float: ...


@dataclass
class SamplerState:
    """Current latent vector with its cached log-likelihood and counters.

    ``log_lik`` may be None for a freshly constructed state; the first step
    then computes it (and counts the evaluation). ``lik_evals`` counts
    likelihood evaluations: one per proposal, plus that one. ``prior_evals``
    counts prior log-density terms: a line-slice step adds one for its slice
    height and one per proposal, each O(1) given the whitened state; the
    elliptical and Metropolis-Hastings steps add none, as the prior cancels
    on their proposals.

    A line-slice step stores the whitened form of the state it returns in a
    private field, which the next line-slice step reads when its prior and
    ``f`` are the very objects stored. Any other state, including one made
    by ``dataclasses.replace`` or by another operator, has none and is
    whitened with one solve. The carry assumes ``f`` is not written in
    place, as no operator does.
    """

    f: np.ndarray
    log_lik: float | None = None
    lik_evals: int = 0
    prior_evals: int = 0
    # (prior, f, w, w.w) with w = A^-1 f, set by the line-slice step that
    # made this state; init=False, so dataclasses.replace and _advance drop it
    _whitened: tuple | None = field(default=None, init=False, repr=False, compare=False)


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


def _start(state: SamplerState, model: LikelihoodModel) -> tuple[float, int]:
    """Current log-likelihood and how many evaluations resolving it cost.

    Every operator begins here: it requires a start with non-zero
    likelihood, and evaluates the likelihood only when none is cached.
    """
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


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The Uniform[0, 1) draws of one slice step, in the order it uses them.

    They are the values of ``rng.random(UNIFORM_BATCH)``, and of one more
    such call each time a batch runs out; a batch is drawn at the first
    value taken from it. The k-th value equals the k-th of successive
    ``rng.random()`` calls from the same stream position, but a step pays
    for one Generator call instead of one per uniform.
    """
    while True:
        yield from rng.random(UNIFORM_BATCH).tolist()


def _log_slice_height(log_target: float, uniforms: Iterator[float]) -> float:
    u = next(uniforms)
    return log_target + (math.log(u) if u > 0.0 else -math.inf)


def _defer(a: float, b: float) -> tuple[float, float]:
    """The plane scorer of a model without ``on_plane``: it never decides."""
    return -math.inf, math.inf


def _slice_shrink(
    model: LikelihoodModel,
    u: np.ndarray,
    v: np.ndarray,
    coeffs: Callable[[float], tuple[float, float]],
    log_y: float,
    x: float,
    lo: float,
    hi: float,
    uniforms: Iterator[float],
    log_prior: Callable[[float], float] | None = None,
) -> tuple[list[float], np.ndarray, float]:
    """Shrink the bracket [lo, hi] around 0 until a proposal clears the slice.

    The proposal at position ``x`` is the point ``u * a + v * b`` with
    ``(a, b) = coeffs(x)``; its target is log L there plus ``log_prior(x)``,
    if given. Position 0 is the current state, so the bracket always keeps
    it. ``x`` is the first position, already drawn by the caller. Each
    shrink draws the next position as ``lo + (hi - lo) * u``, with u the
    next value of ``uniforms``, the step's source from :func:`_uniforms`.
    Returns the positions tried in order, the accepted point and its
    log-likelihood.

    Each proposal is first scored with the model's ``on_plane(u, v)``, or
    with :func:`_defer` if it has none. A score decides a rejection only
    when its target is finite and farther below ``log_y`` than the bound
    plus the rounding of adding the prior term, so a rejected point is never
    formed. Any other proposal is formed and evaluated with ``log_lik``, and
    that value decides, so every decision is the one of evaluating each
    point directly.

    Raises
    ------
    ShrinkLimitExceeded
        After :data:`MAX_SHRINKS` shrinks; the slice is numerically empty.
    NonFiniteLikelihood
        If the likelihood returns NaN at a proposal.
    """
    on_plane = getattr(model, "on_plane", None)
    score = _defer if on_plane is None else on_plane(u, v)
    positions: list[float] = []
    for _ in range(MAX_SHRINKS + 1):
        positions.append(x)
        a, b = coeffs(x)
        prior_term = 0.0 if log_prior is None else log_prior(x)
        log_lik, bound = score(a, b)
        log_target = prior_term + log_lik
        if not (
            math.isfinite(log_target)
            and log_y - log_target > bound + 4.0 * math.ulp(log_target)
        ):
            f_prop = u * a + v * b
            log_lik = _eval_log_lik(model, f_prop)
            if prior_term + log_lik > log_y:
                return positions, f_prop, log_lik
        if x < 0.0:
            lo = x
        else:
            hi = x
        assert lo <= 0.0 <= hi, "bracket lost the current state"
        x = lo + (hi - lo) * next(uniforms)
    raise ShrinkLimitExceeded(f"no acceptable point after {MAX_SHRINKS} bracket shrinks")


def elliptical_slice_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator,
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
    cur_log_lik, evals = _start(state, model)
    nu = prior.sample(rng)
    uniforms = _uniforms(rng)
    log_y = _log_slice_height(cur_log_lik, uniforms)

    theta = TWO_PI * next(uniforms)
    angles, f_new, log_lik = _slice_shrink(
        model, state.f, nu, lambda t: (math.cos(t), math.sin(t)),
        log_y, theta, theta - TWO_PI, theta, uniforms,
    )
    new_state = _advance(state, f_new, log_lik, evals + len(angles))
    return StepResult(new_state, True, angles, log_y)


def neal_mh_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator,
    epsilon: float = 0.5,
) -> StepResult:
    """Metropolis-Hastings with proposal sqrt(1-eps^2)*f + eps*nu.

    The proposal leaves the Gaussian prior invariant for any fixed eps in
    [-1, 1], the range :func:`make_operator` checks (a prior draw at
    eps = 1, the current state at eps = 0), so the
    acceptance ratio reduces to the likelihood ratio. On rejection the new
    state shares the current one's latents (no operator writes them in
    place) with counters advanced.
    """
    cur_log_lik, evals = _start(state, model)
    nu = prior.sample(rng)
    f_prop = math.sqrt(1.0 - epsilon * epsilon) * state.f + epsilon * nu
    prop_log_lik = _eval_log_lik(model, f_prop)

    accepted = rng.random() < math.exp(min(prop_log_lik - cur_log_lik, 0.0))
    f_new, log_lik = (f_prop, prop_log_lik) if accepted else (state.f, cur_log_lik)
    return StepResult(_advance(state, f_new, log_lik, evals + 1), accepted)


def _line_log_prior(
    prior: GaussianPrior, state: SamplerState, z: np.ndarray
) -> tuple[Callable[[float], float], Callable[[float], tuple[np.ndarray, float]]]:
    """The prior log-density at f + eps*nu as a function of eps, for f the
    state's latents and nu = A z with A the prior's root, and the whitened
    point at eps.

    In whitened coordinates the line is w + eps*z with w = A^-1 f, so the
    log-density is log_norm - (w.w + eps*(2 w.z + eps z.z))/2: O(1) per eps
    after two dot products. w and w.w come from the state's carry when a
    line-slice step under this same prior made the state and its ``f``,
    else from one whitening solve. The second function returns the carry
    of the point at eps, w + eps*z and its squared norm.
    """
    carry = state._whitened
    if carry is not None and carry[0] is prior and carry[1] is state.f:
        w, ww = carry[2], carry[3]
    else:
        w = prior.whiten(state.f)
        ww = float(w.dot(w))
    c, wz2, zz = float(prior.log_norm), 2.0 * float(w.dot(z)), float(z.dot(z))
    return (
        lambda eps: c - 0.5 * (ww + eps * (wz2 + eps * zz)),
        lambda eps: (w + eps * z, ww + eps * (wz2 + eps * zz)),
    )


def line_slice_step(
    state: SamplerState,
    prior: GaussianPrior,
    model: LikelihoodModel,
    rng: np.random.Generator,
) -> StepResult:
    """Slice sampling along the straight line f + eps*nu.

    The prior density does not cancel along a line the way it does around
    the ellipse, so the slice is taken through the full log posterior and
    every proposal evaluates the prior log-density on top of the
    likelihood; :func:`_line_log_prior` makes that O(1) per proposal. The
    returned state carries its whitened form, so a chain of line-slice
    steps makes one whitening solve, at its start. The initial bracket of
    width :data:`LINE_WIDTH` is positioned uniformly at random around
    eps = 0 and shrinks toward it.
    """
    cur_log_lik, evals = _start(state, model)
    nu, z = prior.draw(rng)
    log_prior, whitened_at = _line_log_prior(prior, state, z)
    uniforms = _uniforms(rng)
    # the current state's prior density seeds the threshold: one prior eval
    log_y = _log_slice_height(log_prior(0.0) + cur_log_lik, uniforms)

    u = next(uniforms)
    eps_min, eps_max = -LINE_WIDTH * u, LINE_WIDTH * (1.0 - u)
    eps = eps_min + (eps_max - eps_min) * next(uniforms)
    # a = 1.0: f * 1.0 + nu * eps is f + eps * nu bit for bit
    steps, f_new, log_lik = _slice_shrink(
        model, state.f, nu, lambda e: (1.0, e), log_y, eps, eps_min, eps_max, uniforms,
        log_prior,
    )
    new_state = _advance(state, f_new, log_lik, evals + len(steps), 1 + len(steps))
    new_state._whitened = (prior, f_new, *whitened_at(steps[-1]))
    return StepResult(new_state, True, steps, log_y)


# every sampler kind and its step function; neal-mh's also takes its epsilon
_OPERATORS = {
    "elliptical": elliptical_slice_step,
    "neal-mh": neal_mh_step,
    "line-slice": line_slice_step,
}
OPERATOR_KINDS = tuple(_OPERATORS)


def make_operator(kind: str, **params) -> StepFn:
    """Build a step function from a (kind, parameters) spec.

    Only ``neal-mh`` takes a parameter, its step size ``epsilon``; any other
    parameter, or any parameter for a slice operator, is an error. The
    result is a module-level function or a ``functools.partial`` of one, so
    it pickles.
    """
    if kind not in OPERATOR_KINDS:
        raise InvalidConfig(f"unknown sampler kind {kind!r}; expected one of {OPERATOR_KINDS}")
    step = _OPERATORS[kind]
    if not params:
        return step
    if kind != "neal-mh":
        raise InvalidConfig(f"{kind} takes no parameters, got {sorted(params)}")
    if set(params) != {"epsilon"}:
        raise InvalidConfig(f"neal-mh takes only 'epsilon', got {sorted(params)}")
    eps = params["epsilon"]
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not abs(eps) <= 1.0:
        raise InvalidConfig(f"epsilon must be a number in [-1, 1], got {eps!r}")
    return functools.partial(step, epsilon=eps)


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
