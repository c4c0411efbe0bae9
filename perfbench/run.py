"""Benchmark of the ellslice package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reg-tune-matrix --seed 1 --seconds 40 --trace 0

The workloads, metrics and bounds are listed in BENCHMARK.json and described
in perfbench/README.md. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The lines before it repeat every metric as
``metric <name> <value> <unit>``, together with those printed for reading
only, the environment and any failed operations. The times in the
end-to-end metrics are normalized to host speed (see reference.py); the
same figures as measured are printed as ``measured.*``.

The package is imported from ``src/`` beside this directory; nothing is
installed. Outputs go to ``.perfbench/`` at the checkout root: the round's
scratch files (removed at exit), ``record-*.json`` (the deterministic
outcome of a round: no wall-clock data, byte-identical for one seed) and,
for a traced run, ``spans-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_clock = time.perf_counter

WORKLOAD_NAMES = ("reg-tune-matrix", "cox-mining", "block-sweep")

# BLAS runs single-threaded: steadier on a shared machine, and the plain
# single-threaded baseline. Never more than the cores present.
BLAS_THREADS = 1

# Set-ups per untraced run, spread over its measuring time. Each is a fresh
# interpreter importing the package plus the workload's own set-up.
SETUP_SAMPLES = 7
MIN_ROUNDS = 3          # per kind of round (untraced, traced)


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long (at least %d rounds run)" % MIN_ROUNDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: minimal chains, for the smoke test")
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_seconds(src: Path) -> float:
    """Time for a fresh interpreter to import the package."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import ellslice; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def _blas_record() -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    import ctypes
    import glob

    import numpy
    import scipy

    record = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        blas = pkg.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        record[f"{pkg.__name__}_blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                record[f"{pkg.__name__}_blas_threads"] = int(fn())
    return record


def _environment(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": threads,
        **_blas_record(),
    }


def _diff(a, b, path=""):
    """First key path at which two records differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if a.get(key) != b.get(key):
                return _diff(a.get(key), b.get(key), f"{path}/{key}")
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _diff(x, y, f"{path}[{i}]")
    return f"{path or '/'}: {a!r} != {b!r}"


def _run(args, root: Path):
    """Set up, run rounds for ``args.seconds`` and check them. Returns the
    check lines, set-up times as (measured, normalized) pairs, round
    results, number of random streams, tracer, host-speed reference and
    spans path.

    Set-ups and the pieces of every round are bracketed by passes of a
    host-speed reference, which give their normalizing factors (see
    reference.py).
    """
    from reference import Meter
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, CheckFailed

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.scale, work)
    plain = NullTracer()
    tracer = Tracer() if args.trace else None

    meter = Meter(workload.reference)
    setup_times = []

    def set_up():
        with meter.piece() as p:
            import_s = _import_seconds(root / "src")
            t0 = _clock()
            state = workload.setup(plain)
            seconds = import_s + _clock() - t0
        setup_times.append((seconds, p))
        return state

    samples = 1 if tracer else SETUP_SAMPLES
    try:
        with (tracer or plain).span("workload", workload=args.workload, seed=args.seed):
            state = set_up()
            if tracer:
                with tracer.installed(), tracer.span("setup"):
                    traced_state = workload.setup(tracer)
                tracer.set_phase("round")
            workload.prepare(state)
            meter.refresh()

            results, round_times = [], []
            k = workload.streams
            start = _clock()
            while True:
                r = len(results)
                n_traced = sum(x.traced for x in results)
                enough = r >= k and r - n_traced >= MIN_ROUNDS and (
                    not tracer or n_traced >= MIN_ROUNDS)
                if enough and _clock() - start + _median(round_times) > args.seconds:
                    break
                r0 = _clock()
                if tracer and r % 2 == 1:
                    with tracer.installed(), tracer.span("round", r=r):
                        result = workload.run_round(traced_state, tracer, meter, r)
                    result.traced = True
                else:
                    result = workload.run_round(state, plain, meter, r)
                round_times.append(_clock() - r0)
                result.stream = r % k
                results.append(result)
                if r >= k and result.record != results[r % k].record:
                    raise CheckFailed(workload.name, "all", f"round {r}",
                                      f"round does not reproduce round {r % k}: "
                                      + _diff(results[r % k].record, result.record))
                if len(setup_times) < samples and (
                        _clock() - start >= len(setup_times) * args.seconds / samples):
                    set_up()
            while len(setup_times) < samples:
                set_up()
            notes = workload.check(results[:k])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.scale}"
    (out_dir / f"record-{stem}.json").write_text(
        json.dumps([x.record for x in results[:k]], sort_keys=True, indent=1) + "\n")
    setup_times = [(seconds, seconds * p.scale) for seconds, p in setup_times]
    return notes, setup_times, results, k, tracer, meter.reference, out_dir / f"spans-{stem}.json"


def _typical(rounds, key) -> list:
    """Per random stream, the element-wise median over that stream's rounds
    of ``key(round)`` (a time or a list of chain times)."""
    by_stream = {}
    for x in rounds:
        by_stream.setdefault(x.stream, []).append(key(x))
    out = []
    for s in sorted(by_stream):
        values = by_stream[s]
        if isinstance(values[0], list):
            out.append([statistics.median(col) for col in zip(*values)])
        else:
            out.append(statistics.median(values))
    return out


def _end_to_end(sample, rounds, setup_s: float, normalized=True) -> tuple[dict, dict]:
    """(metrics in the result line, metrics printed for reading only).

    ``sample`` is the first round of every random stream: the ESS metrics
    pool it, so they are exact for a seed. Every round of a stream repeats
    the same work, so timings take each chain's median time over the
    untraced ``rounds`` of its stream, normalized to host speed unless
    ``normalized`` is false.
    """
    from workloads import SAMPLERS

    walls = _typical(rounds, lambda x: x.wall(normalized))
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (sum(walls) / len(walls), "s")}
    extra = {}
    for kind in SAMPLERS:
        seconds = sum(map(sum, _typical(rounds, lambda x: x.chain_seconds(kind, normalized))))
        steps = sum(sum(x.steps.get(kind, [])) for x in sample)
        metrics[f"steps_per_s.{kind}"] = (steps / seconds if seconds else 0.0, "1/s")
        ess = sum(x.ess.get(kind, 0.0) for x in sample)
        evals = sum(x.lik_evals.get(kind, 0) for x in sample)
        if evals and seconds > 0:
            extra[f"ess_per_s.{kind}"] = (ess / seconds, "1/s")
            extra[f"ess_per_kevals.{kind}"] = (1e3 * ess / evals, "1/kevals")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(x.attempted for x in rounds)
    extra["failed_frac"] = (sum(len(x.failures) for x in rounds) / attempted, "ratio")
    return metrics, extra


def _per_layer(tracer, rounds, traced) -> dict:
    """Per-layer metrics of one unit of work: the set-up plus one round."""
    from workloads import SAMPLERS

    n = len(traced)
    setup, rnd = tracer.phases["setup"], tracer.phases["round"]

    def total(name, attr):
        s, r = setup.get(name), rnd.get(name)
        return (getattr(s, attr) if s else 0) + (getattr(r, attr) if r else 0) / n

    def calls(name):
        return total(name, "calls")

    def mean_busy(name, scale):
        c = calls(name)
        return total(name, "busy") / c * scale if c else 0.0

    m = {}
    for name in ("gaussian.sample", "gaussian.log_density"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".us"] = (mean_busy(name, 1e6), "us")
    m["gaussian.factorize.calls"] = (calls("gaussian.factorize"), "count")
    m["gaussian.factorize.s"] = (total("gaussian.factorize", "busy"), "s")
    m["gaussian.jitter"] = (tracer.max_jitter, "1")
    m["kernels.squared_exponential.s"] = (total("kernels.squared_exponential", "busy"), "s")
    for tag in ("regression", "cox"):
        m[f"models.log_lik.calls.{tag}"] = (calls(f"models.log_lik.{tag}"), "count")
        m[f"models.log_lik.us.{tag}"] = (mean_busy(f"models.log_lik.{tag}", 1e6), "us")
    m["models.build_dataset.s"] = (total("models.build_dataset", "busy"), "s")
    for kind in SAMPLERS:
        key = "samplers.step." + kind
        st = rnd.get(key)
        steps = st.calls if st else 0
        props = st.proposals if st else 0
        hist = sorted(st.hist.items()) if st else []

        def quantile(q):
            # smallest proposal count covering a share q of the steps
            seen = 0
            for value, count in hist:
                seen += count
                if seen >= q * steps:
                    return value
            return 0
        m[f"samplers.step.calls.{kind}"] = (steps / n, "count")
        m[f"samplers.step.us.{kind}"] = (st.busy / steps * 1e6 if steps else 0.0, "us")
        m[f"samplers.step.self_us.{kind}"] = (st.self_busy / steps * 1e6 if steps else 0.0, "us")
        m[f"samplers.self_us_per_proposal.{kind}"] = (
            st.self_busy / props * 1e6 if props else 0.0, "us")
        m[f"samplers.proposals_per_step.p50.{kind}"] = (quantile(0.5), "count")
        m[f"samplers.proposals_per_step.p99.{kind}"] = (quantile(0.99), "count")
        m[f"samplers.proposals_per_step.max.{kind}"] = (hist[-1][0] if hist else 0, "count")
        m[f"samplers.evals_per_step.{kind}"] = (st.evals / steps if steps else 0.0, "count")
        m[f"samplers.useful_frac.{kind}"] = (st.useful / props if props else 0.0, "ratio")
    m["blocking.block_update.calls"] = (calls("blocking.block_update"), "count")
    m["blocking.block_update.us"] = (mean_busy("blocking.block_update", 1e6), "us")
    m["blocking.conditional_gaussian.us"] = (mean_busy("blocking.conditional_gaussian", 1e6), "us")
    m["blocking.failed"] = (
        sum(1 for x in traced for f in x.failures if "block" in f) / n, "count")
    m["diagnostics.ess.calls"] = (calls("diagnostics.ess"), "count")
    m["diagnostics.ess.ms"] = (mean_busy("diagnostics.ess", 1e3), "ms")
    c = calls("diagnostics.ess")
    m["diagnostics.ess.trace_len"] = (total("diagnostics.ess", "amount") / c if c else 0.0, "count")
    m["harness.write_trace.ms"] = (mean_busy("harness.write_trace", 1e3), "ms")
    c = calls("harness.write_trace")
    m["harness.write_trace.bytes"] = (
        total("harness.write_trace", "amount") / c if c else 0.0, "B")
    m["harness.read_trace.ms"] = (mean_busy("harness.read_trace", 1e3), "ms")
    m["harness.tune_mh.s"] = (total("harness.tune_mh", "busy"), "s")
    for sub in ("generate", "tune-mh", "benchmark", "diagnose"):
        m[f"cli.main.s.{sub}"] = (total(f"cli.main.{sub}", "busy"), "s")
    untraced = statistics.mean(_typical(rounds, lambda x: x.wall()))
    overhead = statistics.mean(_typical(traced, lambda x: x.wall())) - untraced
    m["tracing.overhead_s"] = (overhead, "s")
    m["tracing.overhead_frac"] = (overhead / untraced if untraced else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ellslice" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {src / 'ellslice'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    from workloads import CheckFailed

    env = _environment(args, threads)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        notes, setup_times, results, k, tracer, reference, spans_path = _run(args, root)
    except CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    rounds = [x for x in results if not x.traced]
    traced = [x for x in results if x.traced]
    attempted = sum(x.attempted for x in results)
    failures = [f for x in results for f in x.failures]
    metrics, extra = _end_to_end(results[:k], rounds, _median([n for _, n in setup_times]))
    measured, _ = _end_to_end(results[:k], rounds, _median([m for m, _ in setup_times]),
                              normalized=False)
    extra.update({"measured." + name: value for name, value in measured.items()
                  if name != "peak_rss_mb"})
    if tracer:
        layer = _per_layer(tracer, rounds, traced)
        spans_path.write_text(json.dumps(
            {"env": env, "spans": tracer.spans,
             "metrics": {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}},
            sort_keys=True) + "\n")
        reported = layer
    else:
        reported = metrics

    passes = reference.passes
    print(f"reference kind={reference.kind} passes={len(passes)} median_s={_median(passes):.4g} "
          f"min_s={min(passes):.4g} max_s={max(passes):.4g}")
    print(f"rounds untraced={len(rounds)} traced={len(traced)} setup_s(measured/normalized)="
          + " ".join(f"{m:.4g}/{n:.4g}" for m, n in setup_times))
    for i, x in enumerate(results):
        rates = " ".join(f"{s}={sum(x.steps[s]) / sum(x.seconds[s]):.6g}"
                         for s in x.seconds if sum(x.seconds[s]))
        print(f"round {i} {'traced' if x.traced else 'untraced'} wall={x.wall(False):.6g} "
              f"normalized={x.wall():.6g} {rates}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {float(value)!r} {unit}")
    if tracer:
        for name, (value, unit) in layer.items():
            print(f"metric {name} {float(value)!r} {unit}")
    for line in notes:
        print(line)
    groups = {}
    for f in failures:
        groups.setdefault((f["type"], f["cell"]), []).append(f)
    for (kind, cell), items in sorted(groups.items()):
        where = {key: v for key, v in items[0].items() if key not in ("type", "message", "cell")}
        print(f"failure type={kind} cell={cell} count={len(items)} first={where} "
              f"message={items[0]['message']!r}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
