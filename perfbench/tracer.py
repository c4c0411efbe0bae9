"""Layer tracing for the benchmark's traced run, done entirely from outside
the library.

Hot calls (prior draws and log-densities, likelihood evaluations, transition
steps, block updates) only update counters and busy-time sums; coarse calls
(CLI subcommands, chains, tuning, trace writes and reads) also record spans
with a name, start, end and parent, kept in memory until the run ends.

Layers are reached without editing the package: the prior and likelihood
objects are wrapped in proxies (the samplers accept any object with the
same methods), step functions are wrapped, and calls the package makes
internally are intercepted by rebinding the module attribute it looks up
(``harness.write_trace_csv``, ``blocking.factorize`` and so on).
:meth:`Tracer.installed` restores every binding on exit.

Counters are kept per phase (``setup`` or ``round``) so that a run with one
traced set-up and several identical traced rounds can report per-unit
figures: set-up work plus one round's work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

_clock = time.perf_counter

def model_tag(model) -> str:
    """Short name of a likelihood model (``CoxData`` -> ``cox``), used to
    report ``log_lik`` per model."""
    return type(model).__name__.removesuffix("Data").lower()


class Stat:
    """Calls, busy seconds and a summed amount (bytes, trace length, ...)."""

    __slots__ = ("calls", "busy", "amount")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.amount = 0.0


class StepStat:
    """Transition-step counters for one sampler kind.

    ``self_busy`` is step time minus the prior and likelihood calls made
    inside the step; ``hist`` maps proposals-per-step to a step count.
    """

    __slots__ = ("calls", "busy", "self_busy", "proposals", "evals", "useful", "hist")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_busy = 0.0
        self.proposals = 0
        self.evals = 0
        self.useful = 0
        self.hist: dict[int, int] = {}


class NullTracer:
    """Tracing switched off: every wrapper returns its argument unchanged."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def wrap_step(self, fn, kind: str):
        return fn

    def timed(self, fn, name: str, span: str | None = None):
        return fn


class Tracer(NullTracer):
    """Counters, busy times and spans of one traced run."""

    def __init__(self):
        self.phases: dict[str, dict] = {"setup": {}, "round": {}}
        self.stats = self.phases["setup"]
        self.child_busy = 0.0  # prior and likelihood time, read by step wrappers
        self.max_jitter = 0.0
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = _clock()

    # -- bookkeeping -------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.stats = self.phases[phase]

    def stat(self, name: str) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def step_stat(self, kind: str) -> StepStat:
        key = "samplers.step." + kind
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = StepStat()
        return s

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": _clock() - self._origin,
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = _clock() - self._origin

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name: str, span: str | None = None):
        """Wrap ``fn`` so its calls count under ``name`` (and open a span)."""
        def wrapper(*args, **kwargs):
            cm = self.span(span) if span else contextlib.nullcontext()
            t0 = _clock()
            try:
                with cm:
                    return fn(*args, **kwargs)
            finally:
                s = self.stat(name)
                s.calls += 1
                s.busy += _clock() - t0
        return wrapper

    def wrap_step(self, fn, kind: str):
        def step(state, prior, model, rng):
            c0 = self.child_busy
            t0 = _clock()
            result = fn(state, prior, model, rng)
            dt = _clock() - t0
            st = self.step_stat(kind)
            st.calls += 1
            st.busy += dt
            st.self_busy += dt - (self.child_busy - c0)
            # Metropolis-Hastings records no angles but makes one proposal
            p = len(result.angles) or 1
            st.proposals += p
            st.hist[p] = st.hist.get(p, 0) + 1
            st.evals += result.new_state.lik_evals - state.lik_evals
            st.useful += bool(result.accepted)
            return result
        return step

    def wrap_factorize(self, fn):
        def factorize(*args, **kwargs):
            t0 = _clock()
            try:
                prior = fn(*args, **kwargs)
            finally:
                s = self.stat("gaussian.factorize")
                s.calls += 1
                s.busy += _clock() - t0
            self.max_jitter = max(self.max_jitter, float(prior.jitter))
            return TracedPrior(prior, self)
        return factorize

    def wrap_dataset_fn(self, fn, name: str):
        """Dataset builders return a Dataset whose model counts ``log_lik``."""
        timed = self.timed(fn, name)

        def build(*args, **kwargs):
            ds = timed(*args, **kwargs)
            return dataclasses.replace(ds, data=TracedModel(ds.data, self))
        return build

    def _wrap_write_trace(self, fn):
        def write_trace_csv(path, trace, comment):
            with self.span("write_trace", path=_short(path)):
                t0 = _clock()
                fn(path, trace, comment)
                dt = _clock() - t0
            s = self.stat("harness.write_trace")
            s.calls += 1
            s.busy += dt
            s.amount += os.path.getsize(path)
        return write_trace_csv

    def _wrap_read_trace(self, fn):
        timed = self.timed(fn, "harness.read_trace")

        def read_trace_csv(path):
            with self.span("read_trace", path=_short(path)):
                return timed(path)
        return read_trace_csv

    def _wrap_ess(self, fn):
        timed = self.timed(fn, "diagnostics.ess")

        def effective_sample_size(series):
            self.stat("diagnostics.ess").amount += len(series)
            return timed(series)
        return effective_sample_size

    def _patches(self):
        from ellslice import blocking, diagnostics, harness, models

        fact = self.wrap_factorize
        kern = lambda fn: self.timed(fn, "kernels.squared_exponential")
        return [
            (harness, "build_dataset",
             self.wrap_dataset_fn(harness.build_dataset, "models.build_dataset")),
            (harness, "load_dataset",
             self.wrap_dataset_fn(harness.load_dataset, "harness.load_dataset")),
            (harness, "factorize", fact(harness.factorize)),
            (models, "factorize", fact(models.factorize)),
            (blocking, "factorize", fact(blocking.factorize)),
            (harness, "squared_exponential", kern(harness.squared_exponential)),
            (models, "squared_exponential", kern(models.squared_exponential)),
            (harness, "make_operator",
             lambda kind, _mk=harness.make_operator, **p: self.wrap_step(_mk(kind, **p), kind)),
            (harness, "run_chain", self.timed(harness.run_chain, "harness.run_chain", span="chain")),
            (harness, "write_trace_csv", self._wrap_write_trace(harness.write_trace_csv)),
            (harness, "read_trace_csv", self._wrap_read_trace(harness.read_trace_csv)),
            (harness, "effective_sample_size", self._wrap_ess(harness.effective_sample_size)),
            (diagnostics, "effective_sample_size", self._wrap_ess(diagnostics.effective_sample_size)),
            (harness, "cli_tune_mh", self.timed(harness.cli_tune_mh, "harness.tune_mh", span="tune")),
            (blocking, "conditional_gaussian",
             self.timed(blocking.conditional_gaussian, "blocking.conditional_gaussian")),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Rebind the package's internal call sites to traced wrappers."""
        patches = self._patches()
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, wrapper in patches:
                setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in saved:
                setattr(mod, name, original)


class TracedPrior:
    """Counts ``sample`` and ``log_density``; everything else is delegated."""

    def __init__(self, prior, tracer: Tracer):
        self._prior = prior
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._prior, name)

    def sample(self, rng):
        t = self._tracer
        t0 = _clock()
        try:
            return self._prior.sample(rng)
        finally:
            dt = _clock() - t0
            t.child_busy += dt
            s = t.stat("gaussian.sample")
            s.calls += 1
            s.busy += dt

    def log_density(self, f):
        t = self._tracer
        t0 = _clock()
        try:
            return self._prior.log_density(f)
        finally:
            dt = _clock() - t0
            t.child_busy += dt
            s = t.stat("gaussian.log_density")
            s.calls += 1
            s.busy += dt


class TracedModel:
    """Counts ``log_lik`` per model kind; everything else is delegated."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self._key = "models.log_lik." + model_tag(model)

    def __getattr__(self, name):
        return getattr(self._model, name)

    def log_lik(self, f):
        t = self._tracer
        t0 = _clock()
        try:
            return self._model.log_lik(f)
        finally:
            dt = _clock() - t0
            t.child_busy += dt
            s = t.stat(self._key)
            s.calls += 1
            s.busy += dt


def unwrap(obj):
    """The object behind a tracing proxy (or ``obj`` itself)."""
    return getattr(obj, "_model", None) or getattr(obj, "_prior", None) or obj


def _short(path) -> str:
    """Last three path components: enough to name the cell and repeat."""
    parts = os.fspath(path).split(os.sep)
    return "/".join(parts[-3:])
