"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is a share of a machine whose speed drifts by up to 2x
for minutes at a time.  The worker runs this yardstick right before each
timed op and once after the last one, and the gated times are op latencies
divided by the mean of the two yardstick times around the op: the cost of
the op in yardsticks, which a slow phase of the host changes far less than
it changes seconds.

The yardstick is the benchmark's own code, so no change to plap moves it.
Its three parts mirror what plap spends its time on: Python-level calls on
small numpy arrays (the per-pole loop), vectorised numpy on a few thousand
elements (the radial kernel and the concave terms), and a sparse LU solve
(the comparison solver).
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SMALL_CALLS = 300
BROADCAST_REPEATS = 7
GRID = 8                    # the sparse solve is a 7-point Laplacian on GRID^3 nodes
REPEATS = 3                 # a measurement is the median of this many back-to-back runs


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.uniform(-1.0, 1.0, (240, 3))
        self.poles = rng.uniform(-1.0, 1.0, (40, 3))
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.identity(GRID)
        self.matrix = (sp.kron(sp.kron(lap, eye), eye) + sp.kron(sp.kron(eye, lap), eye)
                       + sp.kron(sp.kron(eye, eye), lap)).tocsc()
        self.rhs = rng.standard_normal(GRID ** 3)
        self.expected = self._work()

    def _work(self):
        acc = 0.0
        for i in range(SMALL_CALLS):
            d = self.points[i % len(self.points)] - self.poles[i % len(self.poles)]
            r = float(np.sqrt(np.dot(d, d)))
            acc += r ** -0.5 + float(np.max(np.abs(d)))
        for _ in range(BROADCAST_REPEATS):
            diff = self.points[:, None, :] - self.poles[None, :, :]
            r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            acc += float(np.sum(r ** -1.5 * np.log1p(r)))
        acc += float(spla.spsolve(self.matrix, self.rhs) @ self.rhs)
        return acc

    def measure(self):
        """Seconds taken by one run of the fixed computation: the median of
        REPEATS runs, so that one run stalled by a brief hiccup of the host
        (which a long op averages away) does not set the figure."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            value = self._work()
            times.append(time.perf_counter() - start)
            if value != self.expected:
                raise RuntimeError("yardstick computed a different value")
        return sorted(times)[REPEATS // 2]
