"""The cosine design-matrix kernel, in NumPy.

Building the design matrix (one basis evaluation per point and multi-index)
is the inner loop behind every projection and reconstruction in this
package. There is one implementation; ``backend_name`` names it in reports.
"""


import numpy as np

_SQRT2 = np.sqrt(2.0)


def cosine_design(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Design matrix of the tensor-product cosine basis.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Evaluation points in [0, 1]^d.
    indices : ndarray, shape (m, d)
        Non-negative integer multi-indices.

    Returns
    -------
    ndarray, shape (n, m)
        Entry (j, a) is the a-th basis function evaluated at point j.
    """
    n, d = points.shape
    m = indices.shape[0]
    if m == 0:
        return np.ones((n, 0))
    out = None
    for axis in range(d):
        degs = indices[:, axis]
        kmax = int(degs.max())
        table = np.empty((n, kmax + 1))
        table[:, 0] = 1.0
        if kmax >= 1:
            u = np.pi * points[:, axis]
            table[:, 1:] = _SQRT2 * np.cos(u[:, None] * np.arange(1, kmax + 1))
        vals = table[:, degs]
        out = vals if out is None else out * vals
    return out


def backend_name() -> str:
    """Name of the kernel backend recorded in reports: always "numpy"."""
    return "numpy"
