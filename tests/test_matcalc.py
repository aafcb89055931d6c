import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import matcalc
from glmmvb.exceptions import NotPositiveDefiniteError

import oracles
from conftest import fd_gradient, random_spd


class TestVecOperators:
    def test_vec_column_stacking(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(oracles.vec(a), [1, 2, 3, 4])

    def test_vec_identity(self):
        np.testing.assert_array_equal(oracles.vec(np.eye(2)), [1, 0, 0, 1])

    def test_vec_order_one(self):
        np.testing.assert_array_equal(oracles.vec([[5.0]]), [5.0])

    def test_halfvec_drops_superdiagonal(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(matcalc.halfvec(a), [1, 2, 4])

    def test_elim_matches_halfvec(self, rng):
        for r in range(1, 6):
            a = rng.standard_normal((r, r))
            np.testing.assert_array_equal(oracles.elim_apply(oracles.vec(a), r),
                                          matcalc.halfvec(a))

    def test_dup_recovers_symmetric(self, rng):
        for r in range(1, 6):
            a = random_spd(rng, r)
            np.testing.assert_array_equal(oracles.dup_apply(matcalc.halfvec(a), r),
                                          oracles.vec(a))

    def test_lower_triangular_unpack_roundtrip(self, rng):
        # E_r^T v(A) = vec(A) for lower-triangular A
        for r in range(1, 6):
            a = np.tril(rng.standard_normal((r, r)))
            np.testing.assert_array_equal(matcalc.unpack_lower(matcalc.halfvec(a), r), a)

    def test_elim_dup_identity(self):
        for r in range(1, 7):
            k = matcalc.half_len(r)
            eye = np.eye(k)
            out = oracles.elim_apply(oracles.dup_apply(eye, r), r)
            np.testing.assert_array_equal(out, eye)

    def test_comm_transposes(self):
        np.testing.assert_array_equal(oracles.comm_apply([1.0, 2, 3, 4], 2),
                                      [1, 3, 2, 4])

    def test_comm_involution_and_fixed_point(self, rng):
        for r in range(1, 6):
            x = rng.standard_normal(r * r)
            np.testing.assert_array_equal(oracles.comm_apply(oracles.comm_apply(x, r), r), x)
            s = random_spd(rng, r)
            np.testing.assert_array_equal(oracles.comm_apply(oracles.vec(s), r),
                                          oracles.vec(s))

    def test_sym_apply(self, rng):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(oracles.sym_apply(oracles.vec(a), 2),
                                      oracles.vec([[0.0, 1.0], [1.0, 0.0]]))
        x = rng.standard_normal(9)
        np.testing.assert_allclose(oracles.sym_apply(oracles.sym_apply(x, 3), 3),
                                   oracles.sym_apply(x, 3), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracles.elim_apply(np.zeros(3), 2)
        with pytest.raises(ValueError):
            oracles.comm_apply(np.zeros(3), 2)
        with pytest.raises(ValueError):
            oracles.dup_apply(np.zeros(4), 2)


class TestDiagonalOperators:
    def test_dg(self):
        np.testing.assert_array_equal(oracles.dg([[1.0, 2.0], [3.0, 4.0]]),
                                      [[1, 0], [0, 4]])

    def test_k_op_diagonal(self):
        np.testing.assert_array_equal(oracles.k_op(np.eye(2)), 0.5 * np.eye(2))

    def test_k_op_general(self):
        np.testing.assert_array_equal(oracles.k_op([[2.0, 9.0], [4.0, 6.0]]),
                                      [[1, 0], [4, 3]])

    def test_dweight(self):
        np.testing.assert_array_equal(matcalc.dweight(np.eye(3)), np.ones(6))
        np.testing.assert_array_equal(matcalc.dweight([[3.5]]), [3.5])
        np.testing.assert_array_equal(matcalc.dweight([[2.0, 0.0], [3.0, 5.0]]),
                                      [2, 1, 5])


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(matcalc.cholesky(np.eye(3)), np.eye(3))

    def test_hand_case(self):
        np.testing.assert_allclose(matcalc.cholesky([[4.0, 2.0], [2.0, 2.0]]),
                                   [[2, 0], [1, 1]], atol=1e-14)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            matcalc.cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_roundtrip_random(self, rng):
        for _ in range(1000):
            r = int(rng.integers(1, 6))
            s = random_spd(rng, r)
            L = matcalc.cholesky(s)
            err = np.abs(L @ L.T - s).max() / np.abs(s).max()
            assert err < 1e-12


SMALL_KERNELS = {"inv": matcalc.spd_inv, "cholesky": matcalc.cholesky,
                 "inv_cholesky": matcalc.spd_inv_cholesky}


def _spd_batch(rng, lead, r, log_cond, log_scale):
    """Random SPD blocks: a random rotation of eigenvalues spread over up to
    10^log_cond, times 10^log_scale."""
    q, _ = np.linalg.qr(rng.standard_normal(lead + (r, r)))
    log_eig = rng.uniform(0.0, log_cond, lead + (r,))
    log_eig[..., 0] = log_cond  # every block as ill-conditioned as asked
    log_eig[..., -1] = 0.0
    s = (q * 10.0 ** (log_eig + log_scale)[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def _lapack_fails(fn, *args):
    """Whether a LAPACK routine raises or returns a non-finite result."""
    try:
        out = fn(*args)
    except np.linalg.LinAlgError:
        return True
    return not np.all(np.isfinite(out))


def _bad_block(rng, r, kind):
    """A (r, r) block that is not numerically SPD."""
    if kind == "singular":  # exactly: powers of two keep every step exact
        z = 2.0 ** rng.integers(-3, 4, r) * rng.integers(1, 8, r)
        z[0] = 2.0 ** rng.integers(-3, 4)
        if r != 2:  # r = 3: a zero row, which LAPACK's LU meets as a zero pivot
            z[-1] = 0.0
        return np.outer(z, z)
    s = _spd_batch(rng, (), r, 2.0, 0.0)
    i, j = rng.integers(0, r, 2)
    if kind == "indefinite":
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        eig = 10.0 ** rng.uniform(-2, 2, r)
        eig[i] = -eig[i]
        return (q * eig) @ q.T
    s[i, j] = s[j, i] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[kind]
    if kind == "negative":
        s[i, i] = -1.0
    return s


class TestLayoutIndependence:
    # a Fortran-ordered input, and one whose leading axes are a transposed
    # view, give C-ordered results with the bytes of the C-ordered input's
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("name", list(SMALL_KERNELS))
    def test_results_are_c_ordered_whatever_the_input_layout(self, name, r):
        fn = SMALL_KERNELS[name]
        s = _spd_batch(np.random.default_rng(r), (3, 4), r, 1.0, 0.0)
        swapped = np.ascontiguousarray(s.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        want = fn(s)
        for x in (np.asfortranarray(s), swapped):
            got = fn(x)
            for a, b in zip(*(v if isinstance(v, tuple) else (v,) for v in (got, want))):
                assert a.flags.c_contiguous and b.flags.c_contiguous
                assert a.tobytes() == b.tobytes()


class TestSmallBlockKernels:
    """Closed forms (r = 1 for cholesky, r <= 2 for the inverses) against
    LAPACK, which serves the rest."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), lead=st.sampled_from([(), (5,), (3, 4)]),
           log_cond=st.floats(0.0, 8.0), log_scale=st.floats(-30.0, 30.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_agree_with_lapack(self, r, lead, log_cond, log_scale, seed):
        rng = np.random.default_rng(seed)
        s = _spd_batch(rng, lead, r, 0.0 if r == 1 else log_cond, log_scale)
        pairs = [(matcalc.spd_inv(s), np.linalg.inv(s)),
                 (matcalc.cholesky(s), np.linalg.cholesky(s))]
        if r == 1:
            for got, want in pairs:
                np.testing.assert_array_equal(got, want)
            return
        cond = np.linalg.cond(s)
        for got, want in pairs:
            err = np.abs(got - want).reshape(lead + (-1,)).max(axis=-1)
            size = np.abs(want).reshape(lead + (-1,)).max(axis=-1)
            assert np.all(err <= 1e-12 * cond * size)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), lead=st.sampled_from([(), (5,), (3, 4)]),
           log_cond=st.floats(0.0, 8.0), log_scale=st.floats(-30.0, 30.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_inverse_with_its_factor(self, r, lead, log_cond, log_scale, seed):
        # the inverse is spd_inv's, and L L' = S^{-1}: for r = 2 L is built
        # from S's entries, not by factoring the inverse
        rng = np.random.default_rng(seed)
        s = _spd_batch(rng, lead, r, 0.0 if r == 1 else log_cond, log_scale)
        inv, L = matcalc.spd_inv_cholesky(s)
        np.testing.assert_array_equal(inv, matcalc.spd_inv(s))
        if r == 1:
            np.testing.assert_array_equal(L, np.linalg.cholesky(np.linalg.inv(s)))
            return
        np.testing.assert_array_equal(L, np.tril(L))
        assert np.all(np.diagonal(L, axis1=-2, axis2=-1) > 0)
        err = np.abs(L @ np.swapaxes(L, -1, -2) - inv).reshape(lead + (-1,)).max(axis=-1)
        size = np.abs(inv).reshape(lead + (-1,)).max(axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.cond(s) * size)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), lead=st.sampled_from([(), (5,), (3, 4)]),
           kind=st.sampled_from(["singular", "indefinite", "nan", "inf", "negative"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_raise_where_lapack_fails(self, r, lead, kind, seed):
        # r <= 2: on a block that LAPACK's Cholesky rejects or factors to
        # non-finite entries; r = 3: where the LAPACK routine itself fails
        rng = np.random.default_rng(seed)
        s = _spd_batch(rng, lead, r, 2.0, 0.0)
        at = tuple(int(rng.integers(0, k)) for k in lead)
        s[at] = _bad_block(rng, r, kind)
        chol_fails = _lapack_fails(np.linalg.cholesky, s)
        want = {"cholesky": chol_fails,
                "inv": chol_fails if r <= 2 else _lapack_fails(np.linalg.inv, s)}
        want["inv_cholesky"] = chol_fails if r <= 2 else _lapack_fails(
            lambda x: np.linalg.cholesky(np.linalg.inv(x)), s)
        assert chol_fails or r == 3
        for name, kernel in SMALL_KERNELS.items():
            try:
                kernel(s)
                raised = False
            except NotPositiveDefiniteError:
                raised = True
            assert raised == want[name], name

    @pytest.mark.parametrize("name", SMALL_KERNELS)
    @pytest.mark.parametrize("block", [
        [[0.0]], [[-2.0]], [[np.nan]],
        [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, np.nan], [np.nan, 2.0]],
        [[np.nan, 0.0], [0.0, 1.0]]],
        ids=["singular1", "indefinite1", "nan1", "singular2", "indefinite2", "nan2", "nan2diag"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_spd_blocks_raise(self, name, block, batched):
        s = np.array(block)
        if batched:  # behind a good block
            s = np.stack([np.eye(len(block)), s])
        with pytest.raises(NotPositiveDefiniteError):
            SMALL_KERNELS[name](s)

    @pytest.mark.parametrize("name", ["inv", "inv_cholesky"])
    def test_rank_one_round_off_raises(self, name):
        # z z' with an inexact product: singular to round-off, its computed
        # determinant is a few eps * a d
        z = np.array([1.0, 0.3])
        s = 0.7 * np.outer(z, z)
        assert abs(np.linalg.det(s)) < 1e-15
        with pytest.raises(NotPositiveDefiniteError):
            SMALL_KERNELS[name](s)

    @pytest.mark.parametrize("block", [[[1e-310]], [[1e-310, 0.0], [0.0, 1.0]]],
                             ids=["r1", "r2"])
    def test_overflowing_inverse_raises(self, block):
        # SPD with a finite Cholesky factor, but 1 / 1e-310 overflows
        np.testing.assert_array_equal(np.isfinite(matcalc.cholesky(block)), True)
        with pytest.raises(NotPositiveDefiniteError), np.errstate(over="ignore"):
            matcalc.spd_inv(block)

    @pytest.mark.parametrize("x", [0.0, -1.0, 5e-324, np.inf, np.nan],
                             ids=["zero", "negative", "subnormal", "inf", "nan"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_order_one_inverse_with_factor_checks_once(self, x, batched):
        # r = 1: spd_inv's checks alone reject every non-positive, non-finite
        # or overflowing input, and the factor is the inverse's sqrt
        s = np.array([[[2.0]], [[x]]]) if batched else np.array([[x]])
        with pytest.raises(NotPositiveDefiniteError, match="^matrix is not positive definite$"), \
                np.errstate(over="ignore"):
            matcalc.spd_inv_cholesky(s)
        good = np.array([[[2.0]], [[1e-300]], [[1e300]]])
        inv, L = matcalc.spd_inv_cholesky(good)
        assert L.tobytes() == matcalc.cholesky(inv).tobytes()

    def test_symmetric_results(self, rng):
        s = _spd_batch(rng, (6,), 2, 4.0, 0.0)
        s[..., 0, 1] += 1e-13  # symmetric to round-off only
        inv = matcalc.spd_inv(s)
        np.testing.assert_array_equal(inv, np.swapaxes(inv, -1, -2))
        np.testing.assert_array_equal(matcalc.cholesky(s), np.tril(matcalc.cholesky(s)))


class TestCholDiff:
    def test_identity_direction(self):
        np.testing.assert_allclose(oracles.chol_diff(np.eye(2), 2 * np.eye(2)),
                                   np.eye(2), atol=1e-14)

    def test_zero_direction(self, rng):
        s = random_spd(rng, 3)
        L = matcalc.cholesky(s)
        np.testing.assert_array_equal(oracles.chol_diff(L, np.zeros((3, 3))),
                                      np.zeros((3, 3)))

    def test_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(100):
            r = int(rng.integers(1, 4))
            s = random_spd(rng, r)
            d = rng.standard_normal((r, r))
            d = d + d.T
            L = matcalc.cholesky(s)
            dl = oracles.chol_diff(L, d)
            fd = (matcalc.cholesky(s + eps * d) - matcalc.cholesky(s - eps * d)) / (2 * eps)
            assert np.abs(dl - fd).max() / (1 + np.abs(fd).max()) < 1e-4

    def test_product_rule(self, rng):
        s = random_spd(rng, 3)
        d = rng.standard_normal((3, 3))
        d = d + d.T
        L = matcalc.cholesky(s)
        dl = oracles.chol_diff(L, d)
        np.testing.assert_allclose(dl @ L.T + L @ dl.T, d, atol=1e-10)


class TestLogDiagJacobian:
    def test_determinant_identity(self, rng):
        # |d v(W W^T) / d omega| where omega packs W with log diagonal
        for r in (1, 2, 3):
            k = matcalc.half_len(r)
            omega = 0.5 * rng.standard_normal(k)

            def v_of_omega(om):
                W = matcalc.unpack_lower(om, r)
                idx = np.arange(r)
                W[..., idx, idx] = np.exp(W[..., idx, idx])
                return matcalc.halfvec(W @ W.swapaxes(-1, -2))

            J_t = fd_gradient(v_of_omega, omega, h=1e-6)  # |J'| = |J|
            logdet = np.linalg.slogdet(J_t)[1]
            diag = np.exp(omega[matcalc.diag_positions(r)])
            u = np.arange(r + 1, 1, -1)
            expected = r * np.log(2.0) + (u * np.log(diag)).sum()
            assert abs(logdet - expected) < 1e-6


# np.linalg outside matcalc, as (module, enclosing function): the global
# block's triangular solve, and the pooled GLM's rank check and IRLS solve
LINALG_OUTSIDE_MATCALC = {("engine", "VariationalState.cinv_t"), ("model", "fit_pooled_glm")}


def _linalg_uses(source):
    """(enclosing function, line) of each linalg attribute or import in a module."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        names = ([a.name for a in node.names] + [getattr(node, "module", None) or ""]
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                or any(name.split(".")[-1] == "linalg" for name in names)):
            uses.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


class TestLinalgStaysInMatcalc:
    def test_other_modules_call_the_kernels(self):
        package = pathlib.Path(matcalc.__file__).parent
        found = {(path.stem, scope, line)
                 for path in package.glob("*.py") if path.stem != "matcalc"
                 for scope, line in _linalg_uses(path.read_text())}
        assert {(module, scope) for module, scope, _ in found} == LINALG_OUTSIDE_MATCALC, \
            sorted(found)

    def test_finds_attributes_and_imports(self):
        source = ("import numpy.linalg\nfrom scipy import linalg\n"
                  "class A:\n    def f(self):\n        return np.linalg.inv(x)\n")
        assert _linalg_uses(source) == [("", 1), ("", 2), ("A.f", 5)]
