"""Tests for the dense linear algebra layer."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctrl import constructions as co
from uctrl import linalg as la

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def leibniz_det(m: np.ndarray) -> complex:
    """Independent oracle: plain Leibniz expansion sum_pi sgn(pi) prod M[i, pi(i)]."""
    n = m.shape[0]
    total = 0.0 + 0.0j
    for p in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, pi in enumerate(p):
            term *= m[i, pi]
        total += la.perm_sign(p) * term
    return total


finite = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)


def matrix_strategy(n):
    return st.lists(finite, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda xs: (np.array(xs[: n * n]) + 1j * np.array(xs[n * n :])).reshape(n, n)
    )


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(la.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_x_tensor_projector(self):
        m = la.kron(X, P0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = 1.0
        expected[0, 2] = 1.0
        np.testing.assert_allclose(m, expected)

    @settings(max_examples=25, deadline=None)
    @given(matrix_strategy(2), matrix_strategy(2), matrix_strategy(2), matrix_strategy(2))
    def test_mixed_product(self, a, b, c, d):
        lhs = la.kron(a, b) @ la.kron(c, d)
        rhs = la.kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestEmbed:
    def test_single_factor_positions(self):
        np.testing.assert_allclose(la.embed(X, [0], [2, 2]), la.kron(X, np.eye(2)))
        np.testing.assert_allclose(la.embed(X, [1], [2, 2]), la.kron(np.eye(2), X))

    def test_swap_reversed_targets_matches_basis_relabeling(self):
        # Oracle: enumerate all 8 basis vectors; swapping factors 2 and 0
        # sends |a,b,c> to |c,b,a> regardless of target order listing.
        m = la.embed(la.swap_matrix(2), [2, 0], [2, 2, 2])
        expected = np.zeros((8, 8))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    expected[(c << 2) + (b << 1) + a, (a << 2) + (b << 1) + c] = 1.0
        np.testing.assert_allclose(m, expected)

    def test_nontrivial_op_on_permuted_targets(self):
        rng = np.random.default_rng(7)
        op = random_complex(rng, 4)
        full = la.embed(op, [2, 0], [2, 3, 2])
        # oracle: move op onto ordered factors via explicit basis map
        expected = np.zeros((12, 12), dtype=complex)
        for a, b, c in itertools.product(range(2), range(3), range(2)):
            for a2, c2 in itertools.product(range(2), range(2)):
                # op maps |c2,a2> (factor2, factor0) to sum over |c,a>
                row = a * 6 + b * 2 + c
                col = a2 * 6 + b * 2 + c2
                expected[row, col] += op[c * 2 + a, c2 * 2 + a2]
        np.testing.assert_allclose(full, expected, atol=1e-12)

    def test_kron_consistency(self):
        rng = np.random.default_rng(1)
        a, b = random_complex(rng, 2), random_complex(rng, 3)
        lhs = la.embed(a, [0], [2, 3]) @ la.embed(b, [1], [2, 3])
        np.testing.assert_allclose(lhs, la.kron(a, b), atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            la.embed(X, [0, 0], [2, 2])
        with pytest.raises(ValueError):
            la.embed(X, [0], [3, 3])


class TestApplyToFactors:
    def test_matches_embed(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2, 2)
        op = random_complex(rng, 6)
        cols = random_complex(rng, 24, 5)
        fast = la.apply_to_factors(cols, op, [3, 1], dims)
        slow = la.embed(op, [3, 1], dims) @ cols
        np.testing.assert_allclose(fast, slow, atol=1e-11)

    def test_single_column(self):
        rng = np.random.default_rng(4)
        v = random_complex(rng, 8, 1)[:, 0]
        out = la.apply_to_factors(v, X, [1], (2, 2, 2))
        np.testing.assert_allclose(out, la.embed(X, [1], [2, 2, 2]) @ v)


class TestControlled:
    def test_cnot(self):
        cnot = la.controlled(X, 0, 1, [1], [2, 2])
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        np.testing.assert_allclose(cnot, expected)

    def test_polarity_zero_definition(self):
        rng = np.random.default_rng(5)
        u = la.haar_unitary(3, 11)
        m = la.controlled(u, 0, 0, [1], [2, 3])
        expected = la.kron(P0, u) + la.kron(np.eye(2) - P0, np.eye(3))
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_polarities_compose_to_embed(self):
        u = la.haar_unitary(2, 2)
        both = la.controlled(u, 0, 0, [1], [2, 2]) @ la.controlled(u, 0, 1, [1], [2, 2])
        np.testing.assert_allclose(both, la.embed(u, [1], [2, 2]), atol=1e-12)

    def test_ctrl_in_targets_rejected(self):
        with pytest.raises(ValueError):
            la.controlled(X, 0, 1, [0], [2, 2])


class TestNorms:
    def test_unitary_trace_norm(self):
        u = la.haar_unitary(4, 0)
        assert abs(la.trace_norm(u) - 4.0) < 1e-10

    def test_diag(self):
        m = np.diag([3.0, -4.0]).astype(complex)
        assert abs(la.trace_norm(m) - 7.0) < 1e-12
        assert abs(la.op_norm(m) - 4.0) < 1e-12

    def test_trace_norm_vs_eigen_oracle(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, 3)
        # independent oracle: singular values from eigenvalues of M^dagger M
        ev = np.linalg.eigvalsh(m.conj().T @ m)
        np.testing.assert_allclose(la.trace_norm(m), np.sqrt(np.clip(ev, 0, None)).sum(), atol=1e-10)

    def test_op_norm_vs_power_iteration(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, 5)
        g = m.conj().T @ m
        v = np.ones(5, dtype=complex)
        for _ in range(500):
            v = g @ v
            v = v / np.linalg.norm(v)
        sigma = math.sqrt(abs(np.vdot(v, g @ v).real))
        assert abs(la.op_norm(m) - sigma) < 1e-8

    def test_unitary_op_norm(self):
        assert abs(la.op_norm(la.haar_unitary(3, 3)) - 1.0) < 1e-10

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            la.trace_norm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            la.op_norm(np.ones((2, 3)))

    @settings(max_examples=20, deadline=None)
    @given(matrix_strategy(3), matrix_strategy(3))
    def test_tracenorm_opnorm_submultiplicative(self, x, y):
        assert la.trace_norm(x @ y) <= la.trace_norm(x) * la.op_norm(y) + 1e-12


class TestHaar:
    def test_unitarity(self):
        for d in (1, 2, 5):
            u = la.haar_unitary(d, 123)
            assert la.is_unitary(u, 1e-12)

    def test_determinism(self):
        np.testing.assert_array_equal(la.haar_unitary(3, 7), la.haar_unitary(3, 7))
        assert not np.allclose(la.haar_unitary(3, 7), la.haar_unitary(3, 8))

    def test_moment(self):
        # Haar moment <|U_00|^2> = 1/d
        rng_vals = [abs(u[0, 0]) ** 2 for u in la.haar_unitaries(2, 10_000, 42)]
        assert abs(np.mean(rng_vals) - 0.5) < 0.02


class TestSymDet:
    def test_identity(self):
        assert abs(la.sym_det(np.eye(3)) - 1.0) < 1e-12

    def test_2x2(self):
        m = np.array([[1 + 2j, 3], [4j, 5 - 1j]])
        assert abs(la.sym_det(m) - (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_leibniz(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            m = random_complex(rng, n)
            assert abs(la.sym_det(m) - leibniz_det(m)) < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            la.sym_det(np.eye(7))


class TestPermSign:
    def test_known_signs(self):
        assert la.perm_sign((0, 1, 2)) == 1
        assert la.perm_sign((1, 0, 2)) == -1
        assert la.perm_sign((1, 2, 0)) == 1

    def test_multiplicative_under_composition(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = tuple(rng.permutation(5))
            q = tuple(rng.permutation(5))
            comp = tuple(p[q[i]] for i in range(5))
            assert la.perm_sign(comp) == la.perm_sign(p) * la.perm_sign(q)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            la.perm_sign((0, 0, 1))


class TestSymMinor:
    def test_identity(self):
        assert abs(la.sym_minor(np.eye(3), 0, 0) - 1.0) < 1e-12

    def test_2x2(self):
        m = np.array([[1 + 1j, 2], [3, 4 - 2j]])
        assert abs(la.sym_minor(m, 0, 0) - m[1, 1]) < 1e-12
        assert abs(la.sym_minor(m, 0, 1) - m[1, 0]) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_delete_and_det_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        m = random_complex(rng, n)
        for i in range(n):
            for j in range(n):
                sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
                oracle = leibniz_det(sub) if n > 1 else 1.0
                assert abs(la.sym_minor(m, i, j) - oracle) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_sym_det_of_deleted_submatrix(self, n):
        rng = np.random.default_rng(210 + n)
        m = random_complex(rng, n)
        for i in range(n):
            for j in range(n):
                sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
                oracle = la.sym_det(sub) if n > 1 else 1.0
                assert abs(la.sym_minor(m, i, j) - oracle) < 1e-10

    def test_index_guard(self):
        with pytest.raises(ValueError):
            la.sym_minor(np.eye(3), 3, 0)


class TestCofactor:
    def test_identity(self):
        np.testing.assert_allclose(la.cofactor_matrix(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diag_phase(self):
        theta = 0.83
        u = np.diag([1.0, np.exp(1j * theta)])
        expected = np.diag([np.exp(1j * theta), 1.0])
        np.testing.assert_allclose(la.cofactor_matrix(u), expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary_identity(self, d):
        for s in range(5):
            u = la.haar_unitary(d, 300 + s)
            np.testing.assert_allclose(
                la.cofactor_matrix(u), leibniz_det(u) * u.conj(), atol=1e-10
            )


class TestPrincipalRoot:
    def test_identity(self):
        np.testing.assert_allclose(la.principal_root(np.eye(3), 4), np.eye(3), atol=1e-12)

    def test_branch_at_pi(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(la.principal_root(u, 2), np.diag([1.0, 1j]), atol=1e-12)

    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 4), (3, 5)])
    def test_power_recovers(self, d, k):
        u = la.haar_unitary(d, 31 * d + k)
        r = la.principal_root(u, k)
        assert la.is_unitary(r, 1e-10)
        acc = np.eye(d, dtype=complex)
        for _ in range(k):
            acc = acc @ r
        assert la.spectral_norm(acc - u) < 1e-9

    def test_branch_cut_witness(self):
        eps = 1e-6
        below = la.principal_root(np.diag([1.0, np.exp(1j * (np.pi - eps))]), 2)
        above = la.principal_root(np.diag([1.0, np.exp(1j * (np.pi + eps))]), 2)
        assert la.op_norm(below - above) >= 0.5

    def test_nonunitary_rejected(self):
        with pytest.raises(ValueError):
            la.principal_root(np.diag([1.0, 2.0]), 2)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(17)
        rho = random_complex(rng, 2)
        sigma = random_complex(rng, 2)
        out = la.partial_trace(la.kron(rho, sigma), [2, 2], keep=[0])
        np.testing.assert_allclose(out, np.trace(sigma) * rho, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(18)
        m = random_complex(rng, 12)
        out = la.partial_trace(m, [2, 3, 2], keep=[1])
        assert abs(np.trace(out) - np.trace(m)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_entangled(self, d):
        psi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            psi[i * d + i] = 1 / np.sqrt(d)
        rho = np.outer(psi, psi.conj())
        for keep in ([0], [1]):
            out = la.partial_trace(rho, [d, d], keep=keep)
            np.testing.assert_allclose(out, np.eye(d) / d, atol=1e-12)

    def test_keep_order(self):
        rng = np.random.default_rng(19)
        a, b = random_complex(rng, 2), random_complex(rng, 3)
        m = la.kron(a, b)
        out = la.partial_trace(m, [2, 3], keep=[1, 0])
        np.testing.assert_allclose(out, la.kron(b, a), atol=1e-12)


class TestCompleteUnitary:
    def test_pinned_column_kept_exactly(self):
        v = np.array([1.0, 1.0j, -1.0, 0.0]) / np.sqrt(3)
        u = la.complete_unitary(4, {0: v})
        np.testing.assert_array_equal(u[:, 0], v)
        assert la.is_unitary(u, 1e-12)

    def test_multiple_pins(self):
        rng = np.random.default_rng(23)
        q = la.haar_unitary(5, 77)
        pins = {0: q[:, 0], 2: q[:, 1]}
        u = la.complete_unitary(5, pins)
        assert la.is_unitary(u, 1e-10)
        np.testing.assert_allclose(u[:, 0], q[:, 0])
        np.testing.assert_allclose(u[:, 2], q[:, 1])

    def test_deterministic(self):
        v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        np.testing.assert_array_equal(
            la.complete_unitary(4, {0: v}), la.complete_unitary(4, {0: v})
        )

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="wrong dimension"):
            la.complete_unitary(4, {0: np.ones(3) / np.sqrt(3)})

    def test_dependent_pins_rejected(self):
        e0 = la.basis_state(4, 0)
        with pytest.raises(ValueError, match="not linearly independent"):
            la.complete_unitary(4, {0: e0, 1: e0})

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_preparations(self, d):
        # the pinned states come out bit for bit; the completion is unitary
        # and reproducible
        stride = d ** (d - 2) if d > 2 else 1
        cases = [(co.chi_prep_unitary, {0: co.chi_state(d)}),
                 (co.bell_prep_unitary, {0: co.bell_state(d)}),
                 (co.conj_prep_unitary, {j * stride: co.minor_isometry(d)[:, j] for j in range(d)})]
        for prep, pins in cases:
            u = prep(d)
            for idx, v in pins.items():
                np.testing.assert_array_equal(u[:, idx], v)
            assert la.is_unitary(u, 1e-12)
            np.testing.assert_array_equal(prep(d), u)


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(29)
        m = random_complex(rng, 3, 4)
        back = la.matrix_from_json(la.matrix_to_json(m))
        np.testing.assert_allclose(back, m, atol=0)

    def test_shape_mismatch(self):
        bad = {"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(ValueError):
            la.matrix_from_json(bad)


class TestLayout:
    def test_roles(self):
        lay = la.RegisterLayout.of([2, 3, 3], ["control", "task", "anc"])
        assert lay.control_index == 0
        assert lay.h_indices == (0, 1)
        assert lay.ancilla_indices == (2,)
        assert lay.total_dim == 18

    def test_two_controls_rejected(self):
        with pytest.raises(ValueError):
            la.RegisterLayout.of([2, 2], ["control", "control"])

    def test_nonqubit_control_rejected(self):
        with pytest.raises(ValueError):
            la.RegisterLayout.of([3, 2], ["control", "task"])
