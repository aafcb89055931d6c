"""Small dense matrix-calculus kernel.

Half-vectorization order is column major over the lower triangle
(including the diagonal): positions (0,0), (1,0), ..., (r-1,0), (1,1), ...
The elimination/duplication/commutation/symmetrizer operators are applied
through cached index maps rather than materialized matrices, since they sit
inside per-subject, per-iteration gradient evaluations.

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


@lru_cache(maxsize=None)
def _comm_perm(r):
    # vec(A^T)[i + j*r] = vec(A)[j + i*r]
    i, j = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    perm = (j + i * r).ravel(order="F")
    perm.setflags(write=False)
    return perm


def half_len(r):
    return r * (r + 1) // 2


def vec(a):
    """Stack the columns of the trailing square matrix into a vector."""
    a = np.asarray(a, dtype=float)
    r = a.shape[-1]
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (r * r,))


def halfvec(a):
    """v(A): vec(A) with all superdiagonal entries removed."""
    a = np.asarray(a, dtype=float)
    rows, cols = tri_indices(a.shape[-1])
    return a[..., rows, cols]


def elim_apply(x, r):
    """Apply the elimination map: elim_apply(vec(A), r) == halfvec(A)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != r * r:
        raise ValueError(f"expected trailing length {r * r}, got {x.shape[-1]}")
    rows, cols = tri_indices(r)
    return x[..., rows + cols * r]


def dup_apply(h, r=None):
    """Apply the duplication map: dup_apply(halfvec(A)) == vec(A) for symmetric A."""
    h = np.asarray(h, dtype=float)
    if r is None:
        r = int(round((np.sqrt(8 * h.shape[-1] + 1) - 1) / 2))
    if h.shape[-1] != half_len(r):
        raise ValueError(f"expected trailing length {half_len(r)}, got {h.shape[-1]}")
    rows, cols = tri_indices(r)
    out = np.zeros(h.shape[:-1] + (r * r,), dtype=float)
    out[..., rows + cols * r] = h
    out[..., cols + rows * r] = h
    return out


def comm_apply(x, r):
    """Apply the commutation map: comm_apply(vec(A), r) == vec(A^T)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != r * r:
        raise ValueError(f"expected trailing length {r * r}, got {x.shape[-1]}")
    return x[..., _comm_perm(r)]


def sym_apply(x, r):
    """Apply the symmetrizer map: sym_apply(vec(A), r) == vec((A + A^T)/2)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + comm_apply(x, r))


def dg(a):
    """Diagonal matrix obtained by zeroing the off-diagonal entries of A."""
    a = np.asarray(a, dtype=float)
    r = a.shape[-1]
    out = np.zeros_like(a)
    idx = np.arange(r)
    out[..., idx, idx] = a[..., idx, idx]
    return out


def tri_lower(a):
    """Lower-triangular matrix obtained by zeroing the superdiagonal of A."""
    return np.tril(np.asarray(a, dtype=float))


def k_op(a):
    """k(A) = lower-triangle(A) - diag(A)/2."""
    return tri_lower(a) - 0.5 * dg(a)


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


def cholesky_flags(s):
    """Batched Cholesky returning a per-matrix success mask instead of raising.

    Failures are reported in the mask and the corresponding factors are NaN.
    Used where individual bad elements of a batch must be identified
    (posterior draw rejection).
    """
    s = np.asarray(s, dtype=float)
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    try:
        out = np.linalg.cholesky(s)
        ok = np.all(np.isfinite(out), axis=(-1, -2))
        if np.all(ok):
            return out, ok
    except np.linalg.LinAlgError:
        pass
    # slow path: locate the failing elements one by one
    r = s.shape[-1]
    flat = s.reshape((-1, r, r))
    out = np.full_like(flat, np.nan)
    ok = np.zeros(flat.shape[0], dtype=bool)
    for i in range(flat.shape[0]):
        if not np.all(np.isfinite(flat[i])):
            continue
        try:
            out[i] = np.linalg.cholesky(flat[i])
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return out.reshape(s.shape), ok.reshape(s.shape[:-2])


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


def chol_diff(L, dS):
    """Directional derivative of the Cholesky factor.

    Given L with L L^T = S and a symmetric perturbation dS, returns dL such
    that dL L^T + L dL^T = dS, via dL = L k(L^{-1} dS L^{-T}). Serves as an
    oracle for gradient code.
    """
    L = np.asarray(L, dtype=float)
    dS = np.asarray(dS, dtype=float)
    t = np.linalg.solve(L, dS)
    a = np.linalg.solve(L, np.swapaxes(t, -1, -2))
    a = np.swapaxes(a, -1, -2)
    return L @ k_op(a)


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
