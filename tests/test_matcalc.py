import numpy as np
import pytest

from glmmvb import matcalc
from glmmvb.exceptions import NotPositiveDefiniteError

import oracles
from conftest import random_spd


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
                W[idx, idx] = np.exp(W[idx, idx])
                return matcalc.halfvec(W @ W.T)

            h = 1e-6
            J = np.zeros((k, k))
            for col in range(k):
                e = np.zeros(k)
                e[col] = h
                J[:, col] = (v_of_omega(omega + e) - v_of_omega(omega - e)) / (2 * h)
            logdet = np.linalg.slogdet(J)[1]
            diag = np.exp(omega[matcalc.diag_positions(r)])
            u = np.arange(r + 1, 1, -1)
            expected = r * np.log(2.0) + (u * np.log(diag)).sum()
            assert abs(logdet - expected) < 1e-6
