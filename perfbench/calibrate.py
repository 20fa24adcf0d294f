"""Host-speed probe: a fixed numpy/scipy kernel that uses no dpgbem code.

The benchmark's host shares its cores with other machines, and its speed
drifts by 10-25% over minutes, which moves every study of a run alike.
The parent times this kernel right before and right after each study; a
study's wall time divided by the mean of the two probe times is a measure
of the program from which much of that drift cancels.  The kernel mixes
the kinds of work a study does: an interpreted loop over small numpy
calls, a dense rank-one product, a scatter into a sparse matrix and a
sparse LU factorization.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median probe time on a 2-vCPU Xeon VM (2.1 GHz); a host as fast as that
# one reports a study's normalized time as its wall time.
REFERENCE_S = 0.6


def _laplacian_2d(n):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    i = sp.identity(n)
    return (sp.kron(t, i) + sp.kron(i, t)).tocsc()


class Probe:
    """Inputs of the kernel, made once; `seconds()` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.laplacian = _laplacian_2d(180)
        self.rhs = np.ones(self.laplacian.shape[0])
        self.g = rng.random(3000)
        self.small = rng.random((6, 6)) + 6.0 * np.eye(6)
        self.idx = rng.integers(0, 300_000, 2_000_000)
        self.vals = rng.random(2_000_000)

    def seconds(self):
        start = time.perf_counter()
        small = self.small
        for k in range(30_000):
            float(np.dot(small, small[k % 6])[k % 6]) + small[1:4, 2:5].sum()
        for _ in range(3):
            outer = np.outer(self.g, self.g)
            outer += 1.0
            outer.sum()
            del outer
        n = 300_000
        for _ in range(2):
            np.bincount(self.idx, weights=self.vals, minlength=n)
            sp.coo_matrix((self.vals, (self.idx, self.idx[::-1])),
                          shape=(n, n)).tocsr()
        spla.splu(self.laplacian).solve(self.rhs)
        return time.perf_counter() - start
