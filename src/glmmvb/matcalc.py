"""Small dense matrix-calculus kernel.

Half-vectorization order is column major over the lower triangle
(including the diagonal): positions (0,0), (1,0), ..., (r-1,0), (1,1), ...
Half-vecs are taken through cached index maps rather than materialized
elimination matrices, since they sit inside per-subject, per-iteration
gradient evaluations.

All functions broadcast over leading batch dimensions.
"""

import math
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
def eye(r):
    """The identity of order r, read-only."""
    out = np.eye(r)
    out.setflags(write=False)
    return out


def half_len(r):
    return r * (r + 1) // 2


def halfvec(a):
    """v(A): vec(A) with all superdiagonal entries removed."""
    a = np.asarray(a, dtype=float)
    rows, cols = tri_indices(a.shape[-1])
    return a[..., rows, cols]


def _require(ok):
    """Raise NotPositiveDefiniteError unless ok holds everywhere."""
    if not ok.all():
        raise NotPositiveDefiniteError("matrix is not positive definite")


def _lapack(routine, *args):
    """A numpy.linalg routine whose LinAlgError becomes NotPositiveDefiniteError."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(str(err)) from None


# A 2 x 2 determinant a d - b^2 carries a rounding error of a few eps * a d,
# more when the entries are themselves sums of products; below this share of
# a d the block is singular to working precision (its correlation is 1 to
# within round-off), where LAPACK's last pivot has the sign of its round-off.
SINGULAR_RTOL = 16 * np.finfo(float).eps


def cholesky(s):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The input is symmetrized first; matrices assembled from floating point
    products are symmetric only to round-off. sqrt for r = 1, LAPACK above.
    Raises NotPositiveDefiniteError when a leading minor is not positive, or
    when the input contains non-finite entries. Batched over leading dims.
    cholesky, spd_inv and spd_inv_cholesky read an input of another layout
    as a C-ordered copy: their results are C ordered, with the same bytes
    whatever the input's layout.
    """
    s = np.ascontiguousarray(s, dtype=float)
    if s.shape[-1] == 1:
        _require((s > 0) & (s < np.inf))
        return np.sqrt(s)
    out = _lapack(np.linalg.cholesky, 0.5 * (s + s.swapaxes(-1, -2)))
    _require(np.isfinite(out))
    return out


def _det2(a, b, d):
    """The determinant of [[a, b], [b, d]]; raises unless a > 0 and it
    exceeds SINGULAR_RTOL * a d."""
    ad = a * d
    det = ad - b * b
    _require((a > 0) & (det > SINGULAR_RTOL * ad))
    return det


def _entries2(s):
    """(a, b, d, det) of 2 x 2 blocks' symmetric part [[a, b], [b, d]],
    raising as _det2."""
    a, b, d = s[..., 0, 0], 0.5 * (s[..., 1, 0] + s[..., 0, 1]), s[..., 1, 1]
    return a, b, d, _det2(a, b, d)


def _inv2(s):
    """(inverse, b, d) of 2 x 2 blocks: the adjugate of the symmetric part
    over its determinant; raises as _entries2, and unless it is finite."""
    a, b, d, det = _entries2(s)
    out = np.empty_like(s)
    out[..., 0, 0] = d
    out[..., 1, 0] = out[..., 0, 1] = -b
    out[..., 1, 1] = a
    out /= det[..., None, None]
    _require(np.isfinite(out))
    return out, b, d


def spd_inv(s):
    """Symmetric inverse of a symmetric positive definite matrix.

    Closed forms for r <= 2 (1/x; the adjugate of the symmetric part over
    its determinant), LAPACK's inverse symmetrized above. Raises
    NotPositiveDefiniteError for a singular matrix, a non-finite input or
    result, and for r <= 2 also a pivot that is not positive or a
    determinant within round-off of zero (see SINGULAR_RTOL). Batched over
    leading dims.
    """
    s = np.ascontiguousarray(s, dtype=float)
    r = s.shape[-1]
    if r == 2:
        return _inv2(s)[0]
    if r == 1:
        _require((s > 0) & (s < np.inf))
        out = 1.0 / s
    else:
        out = _lapack(np.linalg.inv, s)
        out = 0.5 * (out + out.swapaxes(-1, -2))
    _require(np.isfinite(out))
    return out


@lru_cache(maxsize=None)
def _sym_positions(e):
    """The half-vec position of each entry of a symmetric r x r matrix, (r, r),
    for half-vecs of length e = r(r+1)/2."""
    r = (math.isqrt(8 * e + 1) - 1) // 2
    pos = np.empty((r, r), dtype=int)
    rows, cols = tri_indices(r)
    pos[rows, cols] = pos[cols, rows] = np.arange(e)
    pos.setflags(write=False)
    return pos


def sym_blocks(h):
    """The symmetric blocks (..., m, r, r) given as half-vec columns h
    (..., r(r+1)/2, m), model._ObsMajor's layout of the a2 precisions; C
    ordered, whatever the leading dims (an indexing result's own order
    depends on them, and a later reduction's order on its)."""
    return np.ascontiguousarray(h.swapaxes(-1, -2)[..., _sym_positions(h.shape[-2])])


def spd_solve(h, g):
    """x with S x = g for the blocks S of half-vec columns h (sym_blocks) and
    right-hand sides g (..., r, m), column by column: (..., r, m). For r = 1
    spd_inv's 1 / x of h itself; for r = 2 adj(S) g / det from the entries
    a, b, d, the rows of h: the bytes of spd_inv(S) times g without forming
    the inverse; matvec(spd_inv(S), g) above. Raises as spd_inv does, but
    for r = 2 not for a non-finite result. Batched over leading dims."""
    r = g.shape[-2]
    if r == 1:  # the blocks are h's one row
        _require((h > 0) & (h < np.inf))
        inv = 1.0 / h
        _require(np.isfinite(inv))
        return inv * g
    if r > 2:
        return matvec(spd_inv(sym_blocks(h)), g.swapaxes(-1, -2)).swapaxes(-1, -2)
    a, b, d = h[..., 0, :], h[..., 1, :], h[..., 2, :]
    det = _det2(a, b, d)[..., None, :]
    # (d/det g0 - b/det g1, a/det g1 - b/det g0): (d, a) and g reversed
    return h[..., ::-2, :] / det * g - b[..., None, :] / det * g[..., ::-1, :]


def spd_inv_cholesky(s):
    """(S^{-1}, the lower Cholesky factor of S^{-1}) for symmetric positive
    definite S, raising as spd_inv does.

    For r = 2 the factor follows from the entries [[a, b], [b, d]] of S
    without factoring the inverse: l11 = sqrt(d / det), the inverse's first
    pivot, l21 = -b l11 / d = -b / sqrt(d det) and l22 = 1 / sqrt(d), where
    the inverse's checks hold for S. For r = 1 the factor is sqrt(1 / x),
    which spd_inv's checks keep positive and finite; cholesky(S^{-1}) above.
    """
    s = np.ascontiguousarray(s, dtype=float)
    if s.shape[-1] != 2:
        inv = spd_inv(s)
        return inv, np.sqrt(inv) if s.shape[-1] == 1 else cholesky(inv)
    inv, b, d = _inv2(s)
    out = np.zeros_like(inv)
    l11 = out[..., 0, 0] = np.sqrt(inv[..., 0, 0])
    out[..., 1, 0] = -b * l11 / d
    out[..., 1, 1] = 1.0 / np.sqrt(d)
    return inv, out


def solve_lower(L, b, trans=False):
    """x with L x = b, or L' x = b when trans, for lower-triangular L.

    Substitution, one column per sweep: with D the diagonal of L and
    N = D^{-1} T - I for T = L (or L'), which is strictly triangular, r - 1
    sweeps of x <- D^{-1} b - N x are exact. b (..., r) broadcasts against
    L (..., r, r).
    """
    d = L.diagonal(0, -2, -1)
    c = b / d
    r = L.shape[-1]
    if r == 1:  # nothing below the diagonal
        return c
    N = (L.swapaxes(-1, -2) if trans else L) / d[..., :, None] - eye(r)
    x = c
    for _ in range(r - 1):
        x = c - (N @ x[..., None])[..., 0]
    return x


def matvec(a, x):
    """A x for blocks A (..., r, s) and vectors x (..., s): (..., r), as s
    elementwise products summed in column order. Each entry of the result
    is computed from its own row alone, so a row of a batch equals that row
    computed on its own (no leading axis goes into one BLAS product), and
    small blocks cost s multiply-adds over the batch instead of a BLAS call each.
    """
    out = a[..., 0] * x[..., 0, None]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * x[..., k, None]
    return out


def absmax(x):
    """max_k |x_k| over axis -2, the components of column vectors (..., r, m)
    (spd_solve's layout), one row at a time: (..., m)."""
    a = np.abs(x)
    out = a[..., 0, :]
    for k in range(1, x.shape[-2]):
        out = np.maximum(out, a[..., k, :])
    return out


def matvec_rows(a, x):
    """A x_i for one matrix A (..., r, s) per leading index and rows x_i of
    x (..., n, s): (..., n, r), one matrix product per leading index."""
    return x @ a.swapaxes(-1, -2)


def matvec_fixed(a, x):
    """A x for one fixed array A (m..., s), such as a design, and vectors x
    (..., s): (..., m...), one matrix-vector product of A's rows, flattened
    to (prod(m), s), per leading index of x."""
    rows = a.reshape(-1, a.shape[-1]) @ x[..., None]
    return rows.reshape(x.shape[:-1] + a.shape[:-1])


def dweight(m):
    """Diagonal chain-rule scaling for a log-diagonal triangular factor.

    Returns the length r(r+1)/2 vector with M_ii at the diagonal half-vec
    positions and 1 elsewhere; multiplies half-vec gradients when the
    factor's diagonal is optimized on the log scale.
    """
    m = np.asarray(m, dtype=float)
    r = m.shape[-1]
    out = np.ones(m.shape[:-2] + (half_len(r),), dtype=float)
    out[..., diag_positions(r)] = m.diagonal(0, -2, -1)
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
    diag = out.reshape(out.shape[:-2] + (r * r,))[..., ::r + 1]  # a writable view
    np.exp(diag, out=diag)
    return out
