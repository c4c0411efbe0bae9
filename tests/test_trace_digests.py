"""Pinned sha256 digests of fixed-seed chains and block sweeps.

A refactor of the transition operators must not change a single bit of what
they produce: the digests below pin the log-likelihood trace, both
cumulative evaluation columns, the acceptance flags and every latent
snapshot of short chains, plus the full step record of block-update sweeps.
Any change in how random numbers are consumed shows up here.

A change that alters the draws on purpose re-baselines the table: run
``PYTHONPATH=src python tests/test_trace_digests.py`` and paste its output.
The ``elliptical-aux`` entries pin the augmented-model reference form
(``reference_operators.elliptical_slice_aux_step``), which the package does
not ship; every other entry builds its step function with ``make_operator``.
Priors stay small (n <= 40) so the digests depend little on the BLAS build,
except three paths the benchmark runs: ``cox-mining``, the packaged
coal-mining data (n=811) with its low-rank root, pinned for the two
operators that score proposals on a plane; ``regression-n200``, the
n=200, d=1 regression data with its low-rank root, pinned for the three
packaged operators; and ``regression-n200-d10``, the n=200, d=10 regression
data with its dense root, whose block sweeps over
``contiguous_partitions(200, 4)`` are pinned for the three packaged
operators, as the block-sweep benchmark runs them. Each model's prior root
is pinned too (:data:`ROOTS`), so a change in which root ``factorize`` picks
fails by name before any digest does.

Every digest is computed in a fresh interpreter whose OpenBLAS runs one
thread (:data:`BLAS_THREADS`, set through ``OPENBLAS_NUM_THREADS``), as the
benchmark runs it, whatever thread count the test process has. A BLAS
product may sum in another order with another thread count: on a 2-core
host the ``regression-n200`` chains and the ``regression-n200-d10`` block
sweeps differ between one thread and two.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellslice
from ellslice import (
    KernelConfig,
    SamplerState,
    bin_events,
    block_update,
    chain_rng,
    contiguous_partitions,
    factorize,
    generate_classification_dataset,
    generate_regression_dataset,
    make_operator,
    run_chain,
    squared_exponential,
)
from ellslice.harness import build_dataset, build_prior
from reference_operators import elliptical_slice_aux_step

OPERATORS = {
    "elliptical": make_operator("elliptical"),
    "elliptical-aux": elliptical_slice_aux_step,
    "neal-mh": make_operator("neal-mh", epsilon=0.3),
    "line-slice": make_operator("line-slice"),
}


def _regression(n=24):
    inputs, data, _ = generate_regression_dataset(n, 2, KernelConfig(), 0.3, chain_rng(5, 0))
    return factorize(squared_exponential(inputs, KernelConfig())), data


def _classification(n=24):
    kernel = KernelConfig(lengthscale=0.5, signal_variance=4.0)
    inputs, data, _ = generate_classification_dataset(n, 1, kernel, chain_rng(5, 1))
    return factorize(squared_exponential(inputs, kernel)), data


def _cox():
    events = np.sort(chain_rng(5, 2).uniform(0.0, 1000.0, size=60))
    data = bin_events(events, 50.0)
    centers = ((np.arange(data.n) + 0.5) * 50.0).reshape(-1, 1)
    return factorize(squared_exponential(centers, KernelConfig(lengthscale=200.0))), data


@functools.cache  # an n=811 root takes most of a second to build
def _cox_mining():
    ds = build_dataset({"kind": "cox"}, KernelConfig(), chain_rng(5, 3))
    return build_prior(ds), ds.data


@functools.cache
def _regression_n200():
    ds = build_dataset({"kind": "regression", "n": 200, "dims": 1}, KernelConfig(), chain_rng(5, 4))
    return build_prior(ds), ds.data


@functools.cache
def _regression_n200_d10():
    ds = build_dataset({"kind": "regression", "n": 200, "dims": 10}, KernelConfig(), chain_rng(5, 5))
    return build_prior(ds), ds.data


MODELS = {"regression": _regression, "classification": _classification, "cox": _cox,
          "cox-mining": _cox_mining, "regression-n200": _regression_n200,
          "regression-n200-d10": _regression_n200_d10}

# (backend, numerical rank, jitter) of each model's prior; cox needs jitter
# but its rank 18 of 20 fails the 2r < n rule, so it keeps the dense root
ROOTS = {
    "regression": ("dense", 24, 0.0),
    "classification": ("low-rank", 11, 4e-10),
    "cox": ("dense", 18, 1e-10),
    "cox-mining": ("low-rank", 15, 1e-10),
    "regression-n200": ("low-rank", 9, 1e-10),
    "regression-n200-d10": ("dense", 200, 0.0),
}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_prior_root_is_pinned(model):
    prior, _ = MODELS[model]()
    assert (prior.backend, prior.rank, prior.jitter) == ROOTS[model]


def chain_digest(model: str, operator: str) -> str:
    prior, data = MODELS[model]()
    trace = run_chain(
        np.zeros(data.n), OPERATORS[operator], prior, data,
        n_burn=20, n_keep=100, thin=1, rng=chain_rng(11, 3),
    )
    h = hashlib.sha256()
    for column in (trace.log_lik, trace.lik_evals_cum, trace.prior_evals_cum,
                   trace.accepted, trace.snapshots):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def block_sweep_digest(model: str, operator: str, sweeps: int = 5) -> str:
    prior, data = MODELS[model]()
    step_fn = OPERATORS[operator]
    parts = contiguous_partitions(data.n, 4)
    rng = chain_rng(13, 4)
    state = SamplerState(f=np.zeros(data.n))
    h = hashlib.sha256()
    for _ in range(sweeps):
        for part in parts:
            res = block_update(state, prior, data, part, step_fn, rng)
            state = res.new_state
            h.update(state.f.tobytes())
            h.update(np.array(res.angles, dtype=float).tobytes())
            h.update(repr((state.log_lik, state.lik_evals, state.prior_evals,
                           res.accepted, res.log_threshold)).encode())
    return h.hexdigest()


PACKAGED = ("elliptical", "neal-mh", "line-slice")
# the operators whose chains each benchmark-size model pins (the small
# models pin all four), and those whose block sweeps each model pins
LARGE_MODEL_OPERATORS = {
    "cox-mining": ("elliptical", "line-slice"),
    "regression-n200": PACKAGED,
    "regression-n200-d10": (),
}
BLOCK_MODEL_OPERATORS = {"regression": tuple(OPERATORS), "regression-n200-d10": PACKAGED}
CASES = [("chain", m, op) for m in MODELS for op in LARGE_MODEL_OPERATORS.get(m, OPERATORS)] + [
    ("block", m, op) for m, ops in BLOCK_MODEL_OPERATORS.items() for op in ops
]


def digest(case) -> str:
    what, model, operator = case
    return (chain_digest if what == "chain" else block_sweep_digest)(model, operator)


EXPECTED = {
    ('chain', 'regression', 'elliptical'):
        '076fae513360a19060b81cc8c1e7ee1bad9b0f8aacfcd10263103912a537b9c3',
    ('chain', 'regression', 'elliptical-aux'):
        '5e406efcd0691bbe3ce72c76ce19812ceca62ba0966f4897cdfae4a6a8463981',
    ('chain', 'regression', 'neal-mh'):
        'e44d9c07ea9195d021287c095e083ddb30e591272908dc758d35a2509a11eb6b',
    ('chain', 'regression', 'line-slice'):
        'd85f132bf6ade541d4541fc56fd36286b2ea5cdfe4386f23b89f88ebf9471a5f',
    ('chain', 'classification', 'elliptical'):
        '9d6c88f1dc4fe3cbc5120ee838a93c907f09e74066dfab78635740c189bd8f77',
    ('chain', 'classification', 'elliptical-aux'):
        '4ce8c02069da68bc698e9558fe4baf1bc77ce04128a1f07afeb1854a990938d6',
    ('chain', 'classification', 'neal-mh'):
        '30a05327ea61c3cb9880ff90708453b0a7f12a9ba0f20103851433b13a794001',
    ('chain', 'classification', 'line-slice'):
        '5e568388bdfea27e7577da7a2e106b5fb4441dd3a8abe1902b852ab9dc02d8a5',
    ('chain', 'cox', 'elliptical'):
        '3be603898da5c150248d0b3169c3bbed0556cdb7f36862b2440c276c878b1569',
    ('chain', 'cox', 'elliptical-aux'):
        '85a686cfe23e98555d83bd846d4b1478c5b8f382c3656268419cabf78662e9d1',
    ('chain', 'cox', 'neal-mh'):
        '28c55e1c1b75f4ecb4aa368f080953d64631e42147f85a9908374fb705555da6',
    ('chain', 'cox', 'line-slice'):
        'd1ef5377c6261ed0dc1c0c228da5db6f7e6606f3b9bcabf940fc3fd70fbdd240',
    ('chain', 'cox-mining', 'elliptical'):
        '54f04731864ab765036ff79a61e2126ddb6da373a92acb456e49748241495c75',
    ('chain', 'cox-mining', 'line-slice'):
        '8ff6fdc3c17c27f2320b0b70b0ee5e2de8e5002c86a0720341a9816d286c55a3',
    ('chain', 'regression-n200', 'elliptical'):
        '1c2fee606f032c03ee283c4d5bd0f8beb549e840874b617ab40450ea7cb21bf6',
    ('chain', 'regression-n200', 'neal-mh'):
        '039d454df7d9555388f63bc9e9f0672912f5801792ab0613fc9933f887870abb',
    ('chain', 'regression-n200', 'line-slice'):
        '33223fa5a095aaa15462c891f3445eb4a8db758472db749699e3f5e5d5fb6579',
    ('block', 'regression', 'elliptical'):
        'e72e66719edeef9f2f68eeaa25f47d38889d99ccf21699e758b715a8886025c1',
    ('block', 'regression', 'elliptical-aux'):
        'e198661ade313fb09fc0533bede0704cdeb05af22119529e0f0a97dbab27613a',
    ('block', 'regression', 'neal-mh'):
        '71e50421396a369700a4e63b89c6ffe079d00d971a12abb91a752ef0d50d5248',
    ('block', 'regression', 'line-slice'):
        'fb1652e52b0611fd58b2f5befb82d014f61476a75abe340b2892e8252550144b',
    ('block', 'regression-n200-d10', 'elliptical'):
        'a2e7becb31cd15f34f72c6c89378dde3bf85c4bd8fb2af2266d49ea81a36b11d',
    ('block', 'regression-n200-d10', 'neal-mh'):
        '3428c904f61b3bbe64bc889b59097aa727bfe6874d016046ad6550865f2ca678',
    ('block', 'regression-n200-d10', 'line-slice'):
        '0ffea2afa9466fa99779d74a6796233fc7d8d8dcc2be81b5757387922b6aac1b',
}


BLAS_THREADS = 1


@functools.cache
def pinned_digests() -> dict[tuple[str, str, str], str]:
    """Every case's digest, computed by this module run as a script with
    ``--json`` in a fresh interpreter whose BLAS runs BLAS_THREADS threads."""
    path = os.pathsep.join(filter(None, [str(Path(ellslice.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), PYTHONPATH=path)
    worker = subprocess.run([sys.executable, __file__, "--json"], env=env,
                            capture_output=True, text=True)
    assert worker.returncode == 0, worker.stderr
    return {tuple(case): value for case, value in json.loads(worker.stdout)}


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_digest_is_pinned(case):
    assert pinned_digests()[case] == EXPECTED[case]


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:  # the worker of pinned_digests
        print(json.dumps([[case, digest(case)] for case in CASES]))
    else:
        print("EXPECTED = {")
        for case, value in pinned_digests().items():
            print(f"    {case!r}:\n        {value!r},")
        print("}")
