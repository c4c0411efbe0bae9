"""Host-speed reference: a fixed computation timed alongside the workload.

The machine this benchmark runs on shares its cores with other tenants, and
its speed changes by up to about 2x, drifting within a second or two and
staying slow or fast for seconds to minutes. A run that falls in a slow
state reads slow from end to end, and no statistic over its rounds can undo
that. So the work is timed in pieces of a few seconds at most (a set-up, a
chain, a CLI call), each bracketed by passes of a reference computation
that never touches the package, and a piece's time is scaled by how much
slower than nominal the reference ran around it:

    normalized = measured * NOMINAL_S / median(reference passes around it)

Normalized times read as seconds on a host that runs the reference in
``NOMINAL_S`` seconds. A change to the package moves the measured time and
not the reference, so it moves the normalized time in full.

The host's slow states slow different kinds of work by different amounts,
so there are three references, and each workload uses the one closest to
its own work:

- ``loop``: an interpreter-bound loop of small-vector NumPy calls, like a
  sampler's shrink loop (the ``reg-tune-matrix`` steps);
- ``lapack``: Cholesky factorizations and solves of order 200, like the
  block conditionals of ``block-sweep``;
- ``matvec``: memory-bound matrix-vector products of order 811, like the
  prior draws and log-densities on ``cox-mining``.

Their inputs come from a fixed seed, never from the workload seed.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter

# Typical time of one pass of each reference on the host the benchmark was
# calibrated on (2-core shared Intel Xeon VM at 2.0 GHz, NumPy 2.4 with
# single-threaded OpenBLAS 0.3.31).
NOMINAL_S = {"loop": 0.050, "lapack": 0.050, "matvec": 0.040}

# Passes on each side of a piece whose median sets its host speed: one pass
# lasts about 50 ms and can catch a burst that the piece does not see.
WINDOW = 2


class Reference:
    """One of the reference computations; ``passes`` holds the time of
    every pass."""

    def __init__(self, kind: str):
        self.kind = kind
        self._part, self._repeats = {
            "loop": (self._loop, 8000),
            "lapack": (self._lapack, 36),
            "matvec": (self._matvec, 150),
        }[kind]
        rng = np.random.default_rng(20100101)
        a = rng.standard_normal((200, 200))
        self._cov = a @ a.T / 200 + np.eye(200)
        self._rhs = rng.standard_normal((200, 50))
        self._big = rng.standard_normal((811, 811)) / 30.0
        self._z = rng.standard_normal(811)
        self.passes: list[float] = []
        self.run()  # touch the inputs and warm the caches

    def run(self) -> float:
        """Time one pass, in seconds."""
        t0 = _clock()
        self._part(self._repeats)
        seconds = _clock() - t0
        self.passes.append(seconds)
        return seconds

    @staticmethod
    def _loop(repeats: int) -> None:
        """Interpreter-bound: small-vector calls in a Python loop."""
        g = np.random.default_rng(1)
        v = np.zeros(50)
        acc = 0.0
        for _ in range(repeats):
            u = g.standard_normal(50)
            v = 0.5 * v + u
            acc += float(v @ u)
            if acc > 1.0:
                acc -= 1.0

    def _lapack(self, repeats: int) -> None:
        """Small dense LAPACK."""
        for _ in range(repeats):
            np.linalg.cholesky(self._cov)
            np.linalg.solve(self._cov, self._rhs)

    def _matvec(self, repeats: int) -> None:
        """Memory-bound matrix-vector products."""
        z = self._z
        for _ in range(repeats):
            z = self._big @ z
            z /= float(np.abs(z).max())


@dataclass
class Piece:
    """A timed piece of work: ``seconds`` as measured, and the index in
    ``reference.passes`` of the pass that followed it."""

    reference: Reference
    seconds: float = 0.0
    after: int = 0

    @property
    def scale(self) -> float:
        """Factor that normalizes ``seconds``: the nominal time of a pass
        over the median of the WINDOW passes on each side of the piece. Call
        it once the run has made its last pass."""
        passes = self.reference.passes
        near = passes[max(0, self.after - WINDOW):self.after + WINDOW]
        return NOMINAL_S[self.reference.kind] / statistics.median(near)


class Meter:
    """Times pieces of work, running a reference pass after each; the pass
    before a piece is the one after the previous piece."""

    def __init__(self, kind: str):
        self.reference = Reference(kind)

    def refresh(self) -> None:
        """New reference pass after untimed work, so the next piece is
        bracketed by passes adjacent to it."""
        self.reference.run()

    @contextlib.contextmanager
    def piece(self):
        p = Piece(self.reference)
        t0 = _clock()
        yield p
        p.seconds = _clock() - t0
        p.after = len(self.reference.passes)
        self.reference.run()
