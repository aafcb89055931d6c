"""Small dense matrix-calculus kernel.

Half-vectorization order is column major over the lower triangle
(including the diagonal): positions (0,0), (1,0), ..., (r-1,0), (1,1), ...
Half-vecs are taken through cached index maps rather than materialized
elimination matrices, since they sit inside per-subject, per-iteration
gradient evaluations.

All functions broadcast over leading batch dimensions.
"""

from functools import lru_cache

import numpy as np

from .exceptions import NotPositiveDefiniteError


@lru_cache(maxsize=None)
def tri_indices(r):
    """(rows, cols) of the lower triangle in half-vec order."""
    rows = np.concatenate([np.arange(j, r) for j in range(r)])
    cols = np.concatenate([np.full(r - j, j) for j in range(r)])
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=None)
def diag_positions(r):
    """Positions of (j, j) entries inside a length r(r+1)/2 half-vec."""
    rows, cols = tri_indices(r)
    pos = np.flatnonzero(rows == cols)
    pos.setflags(write=False)
    return pos


def half_len(r):
    return r * (r + 1) // 2


def halfvec(a):
    """v(A): vec(A) with all superdiagonal entries removed."""
    a = np.asarray(a, dtype=float)
    rows, cols = tri_indices(a.shape[-1])
    return a[..., rows, cols]


def cholesky(s):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The input is symmetrized first; matrices assembled from floating point
    products are symmetric only to round-off. Raises
    NotPositiveDefiniteError when a leading minor is not positive, or when
    the input contains non-finite entries. Batched over leading dims.
    """
    s = np.asarray(s, dtype=float)
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    try:
        out = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(str(err)) from None
    if not np.all(np.isfinite(out)):
        raise NotPositiveDefiniteError("non-finite Cholesky factor")
    return out


def solve_lower(L, b, trans=False):
    """x with L x = b, or L' x = b when trans, for lower-triangular L.

    Substitution, one column per sweep: with D the diagonal of L and
    N = D^{-1} T - I for T = L (or L'), which is strictly triangular, r - 1
    sweeps of x <- D^{-1} b - N x are exact. b (..., r) broadcasts against
    L (..., r, r).
    """
    d = np.diagonal(L, axis1=-2, axis2=-1)
    c = b / d
    r = L.shape[-1]
    if r == 1:  # nothing below the diagonal
        return c
    N = (np.swapaxes(L, -1, -2) if trans else L) / d[..., :, None] - np.eye(r)
    x = c
    for _ in range(r - 1):
        x = c - (N @ x[..., None])[..., 0]
    return x


def dweight(m):
    """Diagonal chain-rule scaling for a log-diagonal triangular factor.

    Returns the length r(r+1)/2 vector with M_ii at the diagonal half-vec
    positions and 1 elsewhere; multiplies half-vec gradients when the
    factor's diagonal is optimized on the log scale.
    """
    m = np.asarray(m, dtype=float)
    r = m.shape[-1]
    out = np.ones(m.shape[:-2] + (half_len(r),), dtype=float)
    out[..., diag_positions(r)] = np.diagonal(m, axis1=-2, axis2=-1)
    return out


def unpack_lower(h, r):
    """Inverse of halfvec on lower-triangular matrices."""
    h = np.asarray(h, dtype=float)
    rows, cols = tri_indices(r)
    out = np.zeros(h.shape[:-1] + (r, r), dtype=float)
    out[..., rows, cols] = h
    return out


def unpack_log_diag(h, r):
    """Lower-triangular matrix from a half-vec that holds the log of each
    diagonal entry (the C* and omega parameterizations)."""
    out = unpack_lower(h, r)
    diag = np.einsum("...ii->...i", out)  # a writable view
    np.exp(diag, out=diag)
    return out
