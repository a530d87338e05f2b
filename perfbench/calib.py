"""Host-speed calibration for the end-to-end timings.

The benchmark runs on virtual CPUs of a shared host whose speed drifts by a
quarter or more from minute to minute: the same instructions simply take
longer, and CPU time drifts with wall time.  A fixed burst of work, owned by
the benchmark and calling nothing in snlab, is therefore run between
operations, and each operation's wall time is scaled by how long its nearest
bursts took:

    normalised time = wall time * reference burst time / burst time

That is the operation's time on the reference machine at a typical speed,
whose kernel times ``REF_KERNEL_S`` holds.  The kernels stand for the kinds
of work snlab does: interpreter loops, small numpy operations and banded
Cholesky solves as in ``sl1d``; a sparse LU with blocks of solves and a
generalized dense symmetric eigensolve, as in the Steklov Schur complement
of ``fem2d.solve``, the latter also at the size of a thin strip's boundary
block; a scatter-add as in assembly.  Interpreted code gains and loses more
with the host's speed than dense LAPACK does, so each workload's burst mixes
the kernels of the layers it spends its time in.  Because a burst never
touches snlab, a change to snlab moves the operations and not the bursts.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh
from scipy.sparse.linalg import splu

# the default mix; ``thin`` and ``large`` ask for ``geig_large`` instead
KERNELS = ("python", "banded", "schur", "geig", "scatter")
# typical time of each kernel on the reference machine; they fix the unit of
# the normalised timings and nothing else (see README.md)
REF_KERNEL_S = {"python": 0.0030, "banded": 0.0017, "schur": 0.0075,
                "geig": 0.0035, "scatter": 0.00085, "geig_large": 0.020}


class Calibration:
    """Fixed inputs built once; ``burst()`` runs the kernels of ``mix``,
    ``repeat`` times over, and returns seconds."""

    def __init__(self, mix=KERNELS, repeat: int = 1):
        self.steps = [getattr(self, "_" + k) for k in mix] * repeat
        self.ref_s = repeat * sum(REF_KERNEL_S[k] for k in mix)
        n = 512
        ab = np.zeros((2, n))
        ab[1] = 2.0 + 1e-3
        ab[0, 1:] = -1.0
        self.band = cholesky_banded(ab)
        self.x0 = np.linspace(0.0, 1.0, n)
        m = 32
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        self.lap = (sparse.kron(sparse.eye(m), t) + sparse.kron(t, sparse.eye(m))).tocsc()
        self.coupling = sparse.random(m * m, 64, density=0.01, random_state=1, format="csc")
        rng = np.random.default_rng(0)
        self.pencils = {}
        for n in (200, 400):
            a = rng.standard_normal((n, n))
            self.pencils[n] = (a @ a.T, np.eye(n) + 0.1 * np.diag(rng.random(n)))
        self.cells = rng.integers(0, 4000, size=(60000, 6))
        self.vals = rng.standard_normal((60000, 6))
        self.bursts = []                  # timed pass of every burst
        self.spent_s = 0.0                # all the time bursts took, warm-up included
        self._kernels()                   # first call pays for lazy set-up

    def _python(self) -> float:
        acc = {}
        for i in range(16000):
            k = i % 97
            acc[k] = acc.get(k, 0.0) + i * 0.5
        return sum(acc.values())

    def _banded(self) -> float:
        x = self.x0.copy()
        for _ in range(40):
            x = cho_solve_banded((self.band, False), x)
            x -= x.mean()
            x /= np.linalg.norm(x)
        return float(x[0])

    def _schur(self) -> float:
        lu = splu(self.lap)
        total = 0.0
        for lo in range(0, self.coupling.shape[1], 32):
            block = self.coupling[:, lo:lo + 32]
            total += float((block.T @ lu.solve(block.toarray()))[0, 0])
        return total

    def _geig(self) -> float:
        return float(eigh(*self.pencils[200], eigvals_only=True)[-1])

    def _geig_large(self) -> float:
        return float(eigh(*self.pencils[400], eigvals_only=True)[-1])

    def _scatter(self) -> float:
        return float(np.bincount(self.cells.ravel(), weights=self.vals.ravel(),
                                 minlength=4000)[0])

    def _kernels(self) -> None:
        for step in self.steps:
            step()

    def burst(self) -> float:
        """Run the kernels once to warm the caches, whatever ran before, then
        time them once more."""
        start = perf_counter()
        self._kernels()
        t0 = perf_counter()
        self._kernels()
        end = perf_counter()
        self.spent_s += end - start
        self.bursts.append(end - t0)
        return end - t0

    def scale(self, bursts) -> float:
        """Factor that turns a wall time taken between these bursts into
        reference time."""
        return self.ref_s * len(bursts) / sum(bursts)


class NoCalibration(Calibration):
    """Stand-in for traced runs, whose spans must account for all the time
    inside a round: no burst runs, and every scale is 1."""

    def __init__(self):
        self.bursts = []
        self.spent_s = 0.0
        self.ref_s = 1.0

    def burst(self) -> float:
        return self.ref_s
