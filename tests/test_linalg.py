"""Tests for the dense linear algebra layer."""
from __future__ import annotations

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from uctrl import constructions as co
from uctrl import ir
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp

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


def factor_orders(dims):
    """Every (dims, order) pair with order a tuple of distinct factors, the
    empty one and all orders of all of them included."""
    return [(dims, order) for r in range(len(dims) + 1)
            for order in itertools.permutations(range(len(dims)), r)]


def digits(index, dims, factors):
    """Flat index of the listed factors' digits of a full-space index."""
    digit = np.unravel_index(index, dims)
    return int(np.ravel_multi_index([digit[f] for f in factors], [dims[f] for f in factors]))


def matrix_strategy(n):
    return st.lists(finite, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda xs: (np.array(xs[: n * n]) + 1j * np.array(xs[n * n :])).reshape(n, n)
    )


class TestRejectedInputs:
    """An input the linear algebra layer cannot take is a ValueError that says why."""

    @pytest.mark.parametrize("call,message", [
        (lambda: la.require_unitary(np.ones((3, 2, 3))),
         "matrix must be a stack of square matrices, got shape (3, 2, 3)"),
        (lambda: la.RegisterLayout.of([2, 1]), "factor dimension must be >= 2, got 1"),
        (lambda: la.controlled_block(X, 2), "polarity must be 0 or 1"),
        (lambda: la.controlled(X, 0, 1, [1], [3, 2]), "control factor must have dimension 2"),
        (lambda: la.haar_unitary(0, 0), "dimension must be >= 1"),
        (lambda: la.partial_trace(np.eye(3), [2, 2], [0]),
         "matrix shape (3, 3) does not match layout dims (2, 2)"),
        (lambda: la.partial_trace(np.eye(4), [2, 2], [2]), "keep index 2 out of range"),
        (lambda: la.sym_minor(np.eye(6), 0, 0), "sym_minor supports n <= 5, got 6"),
        (lambda: la.cofactor_matrix(np.eye(6)), "cofactor_matrix supports n <= 5, got 6"),
        (lambda: la.partial_trace(np.eye(4), [2, 2], [0, 0]), "duplicate keep index 0"),
        (lambda: la.controlled(X, 5, 1, [1], [2, 2]), "control factor 5 outside layout of 2 factors"),
        (lambda: la.RegisterLayout.of([]), "a register layout needs at least one factor"),
    ], ids=["nonsquare-stack", "factor-dimension", "polarity", "nonqubit-control", "haar-0",
            "partial-trace-shape", "keep-index", "minor-size", "cofactor-size",
            "keep-duplicate", "control-index", "empty-layout"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_spectral_norm_of_a_vector(self):
        # a 1-D array is not a matrix: no vector norm in its place
        with pytest.raises(ValueError):
            la.spectral_norm(np.ones(3))


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

    @pytest.mark.parametrize("dims,targets", factor_orders((2, 3, 2)) + factor_orders((2, 2, 3)))
    def test_every_target_order_matches_digit_maps(self, dims, targets):
        # entry (r, c) is op's entry on the targets' digits when every other
        # factor's digit agrees, and 0 otherwise
        n = math.prod(dims)
        rest = [f for f in range(len(dims)) if f not in targets]
        op = random_complex(np.random.default_rng(len(targets)), la.target_dim(targets, dims))
        expected = np.zeros((n, n), dtype=complex)
        for r, c in itertools.product(range(n), repeat=2):
            if digits(r, dims, rest) == digits(c, dims, rest):
                expected[r, c] = op[digits(r, dims, targets), digits(c, dims, targets)]
        np.testing.assert_array_equal(la.embed(op, targets, dims), expected)


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

    def test_trace_norm_stack(self):
        rng = np.random.default_rng(10)
        stack = np.stack([random_complex(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        vals = la.trace_norm(stack)
        assert vals.shape == (2, 3)
        per_matrix = [[la.trace_norm(m) for m in row] for row in stack]
        np.testing.assert_allclose(vals, per_matrix, rtol=0, atol=1e-13)

    def test_nonsquare_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            la.trace_norm(np.ones((4, 2, 3)))

    def test_spectral_norm_of_empty_matrix(self):
        assert la.spectral_norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("norm", [la.spectral_norm, la.trace_norm])
    def test_matrix_is_the_stack_of_one(self, norm):
        # one matrix gives a float, bit for bit its value in a stack of one
        rng = np.random.default_rng(11)
        for n in (1, 3, 8):
            m = random_complex(rng, n)
            val = norm(m)
            assert type(val) is float and val == norm(m[None])[0]

    @settings(max_examples=20, deadline=None)
    @given(matrix_strategy(3), matrix_strategy(3))
    def test_tracenorm_opnorm_submultiplicative(self, x, y):
        assert la.trace_norm(x @ y) <= la.trace_norm(x) * la.op_norm(y) + 1e-12


class TestNormWithin:
    """``norm_within(m, tol)`` is ``spectral_norm(m) <= tol``, whether the
    Frobenius bound or the SVD settles it."""

    TOL = 1e-10

    @staticmethod
    def _scaled(rng, r, c, norm):
        m = random_complex(rng, r, c)
        return m * (norm / la.spectral_norm(m))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (1, 5)])
    def test_single_matches_spectral(self, shape):
        rng = np.random.default_rng(41)
        # spectral norms from well below to above tol; the Frobenius norm of
        # each is larger, so the middle ones need the SVD
        for factor in (0.1, 0.5, 0.9, 0.99, 1.01, 2.0):
            m = self._scaled(rng, *shape, factor * self.TOL)
            assert la.norm_within(m, self.TOL) is (la.spectral_norm(m) <= self.TOL)

    def test_stack_mixed_verdicts(self):
        rng = np.random.default_rng(42)
        factors = [0.1, 0.9, 1.1, 0.2, 3.0, 0.99]
        stack = np.stack([self._scaled(rng, 3, 3, f * self.TOL) for f in factors]).reshape(2, 3, 3, 3)
        got = la.norm_within(stack, self.TOL)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, la.spectral_norm(stack) <= self.TOL)
        assert got.any() and not got.all()
        # both ways of settling a pass occur in this stack
        fro = np.linalg.norm(stack, axis=(-2, -1))
        assert (got & (fro <= self.TOL)).any() and (got & (fro > self.TOL)).any()

    @pytest.mark.parametrize("factor,expected", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_rank_one_defect_at_tol(self, factor, expected):
        # rank one: the spectral and Frobenius norms are equal
        rng = np.random.default_rng(43)
        u, v = random_complex(rng, 4, 1), random_complex(rng, 1, 4)
        m = u @ v / (np.linalg.norm(u) * np.linalg.norm(v)) * factor * self.TOL
        assert abs(np.linalg.norm(m) - la.spectral_norm(m)) <= 1e-14 * self.TOL
        assert la.norm_within(m, self.TOL) is expected
        assert la.norm_within(np.stack([m, m]), self.TOL).tolist() == [expected] * 2
        assert (la.spectral_norm(m) <= self.TOL) is expected

    def test_svd_fallback_keeps_unitary(self):
        # the unitarity defect of a slightly scaled Haar unitary is 6e-11 in
        # the spectral norm but 9.6e-10 in the Frobenius norm: only the SVD
        # passes it
        q = la.haar_unitary(256, 44) * (1 + 3e-11)
        defect = la.dagger(q) @ q - np.eye(256)
        assert la.spectral_norm(defect) <= la.UNITARY_TOL < np.linalg.norm(defect)
        assert la.norm_within(defect, la.UNITARY_TOL)
        assert la.is_unitary(q)
        la.require_unitary(np.stack([q, np.eye(256)]))
        layout = la.RegisterLayout.of([256], ["task"])
        mo.OracleAlgorithm("scaled", 256, layout, (mo.FixedStep(q, (0,)), mo.QueryStep(mo.ID, (0,))))

    def test_huge_entry_fails_before_its_product(self):
        # an entry above sqrt(1 + tol) puts the largest singular value above
        # it: not unitary, decided before m^dagger m could overflow, and a
        # stack names the first such matrix
        q = la.haar_unitary(3, 45)
        huge = q.copy()
        huge[1, 2] = 1.7e308
        just = q * (1 + 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not la.is_unitary(huge) and not la.is_unitary(just)
            with pytest.raises(ValueError, match="at index 1 is not unitary"):
                la.require_unitary(np.stack([q, huge, just]))
            la.require_unitary(np.stack([q, q]))
        # ``just`` has no large entry: it fails by the norm of its defect
        assert la.spectral_norm(la.dagger(just) @ just - np.eye(3)) > self.TOL
        assert la.entry_above(np.stack([q, huge, just]), math.sqrt(1 + self.TOL)).tolist() \
            == [False, True, False]
        assert not la.entry_above(np.full((2, 2), np.nan), 1.0)

    def test_empty(self):
        assert la.norm_within(np.zeros((0, 0), dtype=complex), self.TOL) is True
        assert la.norm_within(np.zeros((3, 0, 2)), self.TOL).tolist() == [True] * 3
        assert la.norm_within(np.zeros((0, 2, 2)), self.TOL).shape == (0,)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_nan_raises_like_spectral_norm(self, shape):
        m = np.zeros(shape, dtype=complex)
        m[..., 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            la.spectral_norm(m)
        with pytest.raises(np.linalg.LinAlgError):
            la.norm_within(m, self.TOL)


class TestEigenvalueNorms:
    """The phase scans' eigenvalue kernels give the SVD norms: the trace norm
    of Hermitian matrices and the spectral norm of tall ones, on stacks of
    random, zero, rank-one and achiever-scale (entries about 1e-15)
    matrices."""

    @staticmethod
    def stacks(rng, shape):
        """(label, stack) pairs of (*shape) matrices: random, zero, rank one
        and random at scale 1e-15."""
        *lead, r, c = shape
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v, w = (rng.standard_normal((*lead, n, 1)) + 1j * rng.standard_normal((*lead, n, 1))
                for n in (r, c))
        yield "random", z
        yield "zero", np.zeros(shape, dtype=complex)
        yield "rank-one", v @ la.dagger(w)
        yield "achiever-scale", 1e-15 * z

    @pytest.mark.parametrize("shape", [(4, 4), (9, 4, 4), (2, 3, 8, 8)])
    def test_hermitian_trace_norm_is_trace_norm(self, shape):
        rng = np.random.default_rng(51)
        for label, m in self.stacks(rng, shape):
            h = m + la.dagger(m) if label != "rank-one" else m @ la.dagger(m)
            got = la.hermitian_trace_norm(h)
            assert np.shape(got) == shape[:-2]
            np.testing.assert_allclose(got, la.trace_norm(h), rtol=1e-13, atol=0, err_msg=label)

    @pytest.mark.parametrize("shape", [(5, 5), (24, 8), (64, 24, 8), (2, 3, 18, 6)])
    def test_gram_spectral_norm_is_spectral_norm(self, shape):
        rng = np.random.default_rng(52)
        for label, m in self.stacks(rng, shape):
            got = la.gram_spectral_norm(m)
            assert np.shape(got) == shape[:-2]
            np.testing.assert_allclose(got, la.spectral_norm(m), rtol=1e-13, atol=0, err_msg=label)

    @pytest.mark.parametrize("kernel", [la.hermitian_trace_norm, la.gram_spectral_norm])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape,at", [((3, 3), (2, 0)), ((3, 3), (0, 2)), ((4, 3, 3), (1, 2, 0))])
    def test_non_finite_raises_like_the_svd(self, kernel, bad, shape, at):
        # eigvalsh of a NaN matrix may return finite eigenvalues without an
        # error; the kernels raise on a NaN where the SVD does, upper triangle
        # included, and on an infinity, where the SVD returns NaN norms
        m = np.eye(3) * np.ones(shape, dtype=complex)
        m[at] = bad
        svd_norm = la.trace_norm if kernel is la.hermitian_trace_norm else la.spectral_norm
        if np.isnan(bad):
            with pytest.raises(np.linalg.LinAlgError):
                svd_norm(m)
        else:
            assert np.isnan(np.sum(svd_norm(m)))
        with pytest.raises(np.linalg.LinAlgError):
            kernel(m)


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


class TestSignedPermutations:
    def test_shared_table_is_read_only(self):
        # every caller gets the same cached arrays, so none may write them
        # (the write puts back the same values, so a writable table survives)
        for a in la.signed_permutations(3):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0].copy()


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

    def test_one_by_one_is_one(self):
        for entry in (5.0, -2j, 0.0):
            assert la.sym_minor(np.array([[entry]]), 0, 0) == 1


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


def schur_root(u, k):
    """Reference principal k-th root of one unitary from its complex Schur form."""
    t, q = scipy.linalg.schur(u, output="complex")
    return (q * np.exp(1j * np.angle(np.diagonal(t)) / k)) @ la.dagger(q)


def conjugated(angles, seed):
    """The unitary with eigenvalues e^{i angles} in a Haar eigenbasis."""
    w = la.haar_unitary(len(angles), seed)
    return (w * np.exp(1j * np.asarray(angles))) @ la.dagger(w)


# gamma = atan(sqrt(2) - 1): a mixed Hermitian part (U + U^dagger)/2 +
# tan(gamma) (U - U^dagger)/(2i) takes one value at e^{i alpha} and
# e^{i (2 gamma - alpha)}, and its turning points for the second mix
# -1/tan(gamma) sit at 5 pi/8 and -3 pi/8
GAMMA = math.pi / 8


class TestBatchedPrincipalRoot:
    """Stacks and single matrices against scipy's Schur root of one matrix at
    a time."""

    @staticmethod
    def per_matrix(us, k):
        return np.stack([schur_root(u, k) for u in us])

    @pytest.mark.parametrize("d,K", [(2, 2 ** 14), (3, 256)])
    def test_central_loop_bit_identical(self, d, K):
        us = tp.central_loop(d, K)
        got = la.principal_root(us, d)
        assert got.shape == us.shape
        assert got.tobytes() == self.per_matrix(us, d).tobytes()

    @pytest.mark.parametrize("d,n", [(2, 4096), (3, 2048), (4, 2048), (8, 512)])
    def test_haar_stack_matches_schur(self, d, n):
        us = np.stack(la.haar_unitaries(d, n, 7000 + d))
        np.testing.assert_allclose(la.principal_root(us, d), self.per_matrix(us, d),
                                   rtol=0, atol=1e-12)

    def test_mixed_hermitian_collision_matches_schur(self):
        # e^{i alpha} and e^{i (2 gamma - alpha)} collide in the mixed
        # Hermitian part; they stay apart in the Cayley transform
        us = np.stack(la.haar_unitaries(2, 8, 7100))
        w = la.haar_unitary(2, 7101)
        for b, alpha in zip((2, 5), (0.3, 2.5)):
            us[b] = (w * np.exp(1j * np.array([alpha, 2 * GAMMA - alpha]))) @ w.conj().T
        np.testing.assert_allclose(la.principal_root(us, 2), self.per_matrix(us, 2),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("centre", [math.pi / 8, 5 * math.pi / 8, 9 * math.pi / 8, 0.3, -2.0])
    def test_cluster_matches_schur(self, d, centre):
        # two eigenvalues delta apart, the rest spread over the circle
        rest = list(np.random.default_rng(7300 + d).uniform(-math.pi, math.pi, d - 2))
        us = np.stack([conjugated([centre - delta / 2, centre + delta / 2] + rest, 7310 + j)
                       for j, delta in enumerate((0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3))])
        np.testing.assert_allclose(la.principal_root(us, d), self.per_matrix(us, d),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 6])
    def test_two_mix_trap_matches_schur(self, d):
        # a collision under the first mix and a 1e-7 cluster at a turning
        # point of the second
        rest = [-2.0, -1.0][:d - 4]
        angles = [0.3, 2 * GAMMA - 0.3, 5 * GAMMA, 5 * GAMMA + 1e-7] + rest
        us = np.stack([conjugated(angles, 7400 + j) for j in range(8)])
        for k in (4, 6):
            np.testing.assert_allclose(la.principal_root(us, k), self.per_matrix(us, k),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_near_the_cut_matches_schur(self, side):
        deltas = 10.0 ** np.arange(-13, -5)
        us = np.stack([conjugated([math.pi + side * delta, 0.7 * j - 2.0], 7500 + j)
                       for j, delta in enumerate(deltas)])
        np.testing.assert_allclose(la.principal_root(us, 2), self.per_matrix(us, 2),
                                   rtol=0, atol=1e-12)

    def test_branch_cut_neighbours_bit_identical(self):
        us = np.stack([np.diag([1.0, np.exp(1j * (np.pi + s * 1e-9))]) for s in (-1, 1)])
        got = la.principal_root(us, 2)
        assert got.tobytes() == self.per_matrix(us, 2).tobytes()
        assert la.op_norm(got[0] - got[1]) >= 0.5

    def test_eigenvalue_on_the_cut_either_branch(self):
        # an eigenvalue at -1 in a Haar basis: rounding puts it on either side
        # of the cut, the same side for a matrix alone and in a stack, and
        # either side gives a root of U
        ws = la.haar_unitaries(2, 256, 7200)
        alphas = np.random.default_rng(7201).uniform(-3.0, 3.0, 256)
        us = np.stack([(w * np.exp(1j * np.array([a, np.pi]))) @ w.conj().T
                       for w, a in zip(ws, alphas)])
        got = la.principal_root(us, 2)
        assert got.tobytes() == np.stack([la.principal_root(u, 2) for u in us]).tobytes()
        np.testing.assert_allclose(got @ got, us, rtol=0, atol=1e-12)
        assert np.abs(np.angle(np.linalg.eigvals(got))).max() <= np.pi / 2 + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_single_is_the_stack_of_one(self, d):
        us = np.stack(la.haar_unitaries(d, 64, 7600 + d))
        got = la.principal_root(us, d)
        assert got.tobytes() == np.stack([la.principal_root(u, d) for u in us]).tobytes()

    def test_empty_stack(self):
        assert la.principal_root(np.zeros((0, 3, 3), dtype=complex), 2).shape == (0, 3, 3)

    def test_bad_input_rejected(self):
        us = tp.central_loop(2, 16)
        us[7] *= 1.5
        with pytest.raises(ValueError, match="index 7"):
            la.principal_root(us, 2)
        with pytest.raises(ValueError):
            la.principal_root(tp.central_loop(2, 16), 0)


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

    @pytest.mark.parametrize("dims,keep", factor_orders((2, 3, 2)) + factor_orders((2, 2, 3)))
    def test_every_keep_order_matches_digit_sum(self, dims, keep):
        # out[a, b] sums m[r, c] over the (r, c) whose kept digits are a and b
        # and whose traced digits agree
        n = math.prod(dims)
        rest = [f for f in range(len(dims)) if f not in keep]
        m = random_complex(np.random.default_rng(20), n)
        k = math.prod(dims[f] for f in keep)
        expected = np.zeros((k, k), dtype=complex)
        for r, c in itertools.product(range(n), repeat=2):
            if digits(r, dims, rest) == digits(c, dims, rest):
                expected[digits(r, dims, keep), digits(c, dims, keep)] += m[r, c]
        np.testing.assert_allclose(la.partial_trace(m, dims, keep), expected, rtol=0, atol=1e-12)


class TestSwapMatrix:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_definition_by_bytes(self, d):
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i, j in itertools.product(range(d), repeat=2):
            expected[j * d + i, i * d + j] = 1.0
        m = la.swap_matrix(d)
        assert (m.dtype, m.shape) == (expected.dtype, expected.shape)
        assert m.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("field,value", [("rows", 2.0), ("cols", True), ("im", 0), ("re", [1.0, 0.0])])
    def test_fields_checked(self, field, value):
        # each value broadcasts or compares equal to the right shape, but
        # is not what the wire format says
        good = la.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError):
            la.matrix_from_json({**good, field: value})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_non_finite_rejected(self, field, text):
        # Python's json reads each of these as a float; none is a matrix entry
        good = la.matrix_to_json(np.eye(2))
        bad = json.loads(f"[[{text}, 0.0], [0.0, 1.0]]")
        with pytest.raises(ValueError, match="finite"):
            la.matrix_from_json({**good, field: bad})

    @pytest.mark.parametrize("entry", ["1.5", True, None], ids=["string", "bool", "null"])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_non_numeric_rejected(self, field, entry):
        good = la.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError, match="numbers"):
            la.matrix_from_json({**good, field: [[entry, 0], [0, 1]]})

    def test_integer_entries_accepted(self):
        m = la.matrix_from_json({"rows": 2, "cols": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, -1]]})
        np.testing.assert_array_equal(m, [[0, 1], [1, -1j]])
        assert m.dtype == complex

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_integers_beyond_int64_load_as_floats(self, field):
        # np.asarray gives such integers object dtype; they are still numbers
        good = la.matrix_to_json(np.zeros((2, 2)))
        m = la.matrix_from_json({**good, field: [[10**30, -(2**70)], [0.5, 2**63]]})
        part = m.real if field == "re" else m.imag
        np.testing.assert_array_equal(part, [[1e30, -float(2**70)], [0.5, float(2**63)]])
        assert m.dtype == complex

    @pytest.mark.parametrize("entry", [10**400, -(10**400)], ids=["positive", "negative"])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_integer_beyond_float_not_finite(self, field, entry):
        good = la.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            la.matrix_from_json({**good, field: [[entry, 0], [0, 1]]})

    @pytest.mark.parametrize("entry", ["1.5", True, None], ids=["string", "bool", "null"])
    def test_non_numeric_beside_huge_integer_rejected(self, entry):
        good = la.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError, match="numbers"):
            la.matrix_from_json({**good, "re": [[10**30, entry], [0, 1]]})

    def test_signed_zeros_kept(self):
        m = np.empty((1, 2), dtype=complex)
        m.real, m.imag = [[-0.0, 1.0]], [[1.0, -0.0]]
        back = la.matrix_from_json(la.matrix_to_json(m))
        assert np.signbit(back.real).tolist() == [[True, False]]
        assert np.signbit(back.imag).tolist() == [[False, True]]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 5e-324, 1e300,
                                            math.nan, math.inf, -math.inf]) | st.floats(),
                           min_size=16, max_size=16))
    def test_float_array_json_is_json_dumps(self, shape, values):
        a = np.array(values[:shape[0] * shape[1]]).reshape(shape)
        assert la.float_array_json(a) == json.dumps(a.tolist())
        assert la.float_array_json(a.T) == json.dumps(a.T.tolist())  # not contiguous

    @pytest.mark.parametrize("a", [
        np.array([[1.0, -2.5], [0.1, 3.0]]), np.zeros((2, 3)), np.full((3, 2), -0.0),
        np.zeros((0, 3)), np.zeros((3, 0)),
    ], ids=["no-zero", "all-zeros", "negative-zeros", "no-rows", "no-cols"])
    def test_float_array_json_cases(self, a):
        assert la.float_array_json(a) == json.dumps(a.tolist())

    @settings(max_examples=200, derandomize=True)
    @given(text=st.text(alphabet="truefals \"", max_size=12),
           word=st.sampled_from(["true", "false"]))
    def test_boolean_literal_search(self, text, word):
        assert ir._holds_word(text, word) == (word in text)

    def test_no_caller_skips_the_boolean_scan(self):
        with pytest.raises(TypeError):
            la.matrix_from_json({"rows": 1, "cols": 2, "re": [[True, 0.5]], "im": [[0, 0]]},
                                _bool_free=True)

    @pytest.mark.parametrize("entry", [True, False])
    def test_boolean_in_tuple_rows_rejected(self, entry):
        # only an array skips the scan of its entries' types
        with pytest.raises(ValueError, match="numbers"):
            la.matrix_from_json({"rows": 1, "cols": 2, "re": ((entry, 0.5),), "im": ((0, 0),)})

    def test_array_entries_are_the_lists(self):
        rng = np.random.default_rng(31)
        lists = la.matrix_to_json(random_complex(rng, 3, 2))
        arrays = {**lists, "re": np.array(lists["re"]), "im": np.array(lists["im"])}
        want, got = la.matrix_from_json(lists), la.matrix_from_json(arrays)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("entry", ["true", "false"])
    def test_boolean_in_a_file_rejected(self, entry, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 2, "re": [[0.5, %s]], "im": [[0, 0]]}' % entry)
        with pytest.raises(ValueError, match="numbers"):
            la.matrix_from_json(path)
        path.write_text('{"rows": 1, "cols": 2, "re": [[0.5, 1]], "im": [[0, 0]]}')
        np.testing.assert_array_equal(la.matrix_from_json(str(path)), [[0.5, 1]])


class TestLayout:
    def test_roles(self):
        lay = la.RegisterLayout.of([2, 3, 3], ["control", "task", "anc"])
        assert lay.control_index == 0
        assert lay.h_indices == (0, 1)
        assert lay.ancilla_indices == (2,)
        assert lay.total_dim == 18
        with pytest.raises(ValueError, match="3 factor dimensions but 2 roles"):
            la.RegisterLayout.of([2, 3, 3], ["control", "task"])

    def test_derived_values_computed_once(self):
        lay = la.RegisterLayout.of([2, 3, 3], ["control", "task", "anc"])
        for name in ("dims", "h_indices", "ancilla_indices"):
            assert getattr(lay, name) is getattr(lay, name)
        assert lay.dims == (2, 3, 3)
        assert lay.h_indices == (0, 1) and lay.ancilla_indices == (2,)
        assert lay.total_dim == 18 and type(lay.total_dim) is int
        # equality and hashing still come from the factors alone
        fresh = la.RegisterLayout.of([2, 3, 3], ["control", "task", "anc"])
        assert lay == fresh and hash(lay) == hash(fresh)
        assert lay != la.RegisterLayout.of([2, 3, 3], ["control", "task", "task"])

    def test_task_rows(self):
        # index c * 6 + a * 2 + t of control c, ancilla a = 0 and task t
        lay = la.RegisterLayout.of([2, 3, 2], ["control", "anc", "task"])
        assert lay.task_rows.tolist() == [0, 1, 6, 7]
        assert lay.task_rows is lay.task_rows and not lay.task_rows.flags.writeable
        assert la.RegisterLayout.of([3, 2], ["anc", "anc"]).task_rows.tolist() == [0]

    def test_two_controls_rejected(self):
        with pytest.raises(ValueError):
            la.RegisterLayout.of([2, 2], ["control", "control"])

    def test_nonqubit_control_rejected(self):
        with pytest.raises(ValueError):
            la.RegisterLayout.of([3, 2], ["control", "task"])
