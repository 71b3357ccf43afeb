"""The cosine design-matrix kernel, in NumPy.

Building the design matrix (one basis evaluation per point and multi-index)
is the inner loop behind every projection and reconstruction in this
package. There is one implementation; ``backend_name`` names it in reports.

Per axis with largest degree K, the kernel evaluates cos(k*u) directly only
for k = 1..s with s = ceil(K/4), and fills the later degrees s rows at a
time with the strided recurrence

    cos((k+s)u) = 2 cos(su) cos(ku) - cos((k-s)u),

at most three steps, so about K/4 float64 cosines per point instead of K.
Every operation is elementwise over points and laid out the same way for
one observation or a stack of them, so each slice of a stacked call is
bit-identical to the call on that slice alone.
"""


import numpy as np

_SQRT2 = np.sqrt(2.0)


def _axis_table(u: np.ndarray, kmax: int) -> np.ndarray:
    """(kmax + 1, N) table of sqrt(2) * cos(k * u) for the N angles ``u``,
    with row 0 set to one."""
    table = np.empty((kmax + 1, u.shape[0]))
    table[0] = 1.0
    if kmax == 0:
        return table
    s = -(-kmax // 4)
    if s == 1:
        np.cos(u, table[1])
    else:
        np.cos(np.arange(1.0, s + 1.0)[:, None] * u, table[1 : s + 1])
    two_cs = table[s] * 2.0
    # rows k - s of the first step are s - 1 down to 0 (cos is even)
    below = table[s - 1 :: -1]
    for start in range(s + 1, kmax + 1, s):
        stop = min(start + s, kmax + 1)
        dst = table[start:stop]
        np.multiply(two_cs, table[start - s : stop - s], dst)
        np.subtract(dst, below[: stop - start], dst)
        below = table[start - s : start]
    table[1:] *= _SQRT2
    return table


def cosine_design(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Design matrix of the tensor-product cosine basis.

    Parameters
    ----------
    points : ndarray, shape (n, d) or (B, n, d)
        Evaluation points in [0, 1]^d, or a stack of B such point sets.
    indices : ndarray, shape (m, d)
        Non-negative integer multi-indices.

    Returns
    -------
    ndarray, shape (n, m) or (B, n, m)
        Entry (j, a) is the a-th basis function evaluated at point j. The
        result is a transposed view of an (m, B * n) array, so each (n, m)
        matrix has unit stride down its columns; slice b of a stacked call
        is bit-identical to the call on ``points[b]``.
    """
    d = points.shape[-1]
    flat = points.reshape(-1, d)
    m = indices.shape[0]
    out = np.ones((0, flat.shape[0])) if m == 0 else None
    for axis in range(d if m else 0):
        degs = indices[:, axis]
        # argmax: a cheaper maximum than a reduction at prediction size
        table = _axis_table(np.pi * flat[:, axis], int(degs[degs.argmax()]))
        vals = table.take(degs, 0)
        if out is None:
            out = vals
        else:
            out *= vals
    if points.ndim == 2:
        return out.T
    return out.reshape(m, points.shape[0], points.shape[1]).transpose(1, 2, 0)


def backend_name() -> str:
    """Name of the kernel backend recorded in reports: always "numpy"."""
    return "numpy"
