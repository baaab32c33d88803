"""Tests for the circuit builders."""
from __future__ import annotations

import math

import numpy as np
import pytest

from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def wrap_diff(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


class TestRejectedInputs:
    """Each builder names the oracle dimensions and powers it supports."""

    @pytest.mark.parametrize("name,d,message", [
        ("kitaev", 1, "oracle dimension must be >= 2"),
        ("dong", 1, "dong supports 2 <= d <= 4"),
        ("dong", 5, "dong supports 2 <= d <= 4"),
        ("neutraliser", 1, "neutraliser supports 2 <= d <= 4"),
        ("neutraliser", 5, "neutraliser supports 2 <= d <= 4"),
        ("conjugation", 1, "conjugation supports 2 <= d <= 4"),
        ("conjugation", 5, "conjugation supports 2 <= d <= 4"),
        ("transpose", 1, "transpose supports 2 <= d <= 4"),
        ("transpose", 5, "transpose supports 2 <= d <= 4"),
        ("inverse", 1, "inverse supports 2 <= d <= 3"),
        ("inverse", 4, "inverse supports 2 <= d <= 3"),
        ("spin-echo", 1, "spin-echo supports d in {2, 3}"),
        ("spin-echo", 4, "spin-echo supports d in {2, 3}"),
    ])
    def test_builder_d_range(self, name, d, message):
        with pytest.raises(ValueError) as info:
            co.BUILDERS[name](d)
        assert str(info.value) == message

    @pytest.mark.parametrize("make,message", [
        (lambda: co.chi_state(1), "chi_state supports 2 <= d <= 5 (dimension d^d)"),
        (lambda: co.minor_isometry(1), "minor isometry needs d >= 2"),
        (lambda: co.power_cUm(2, 0), "m must be a nonzero integer"),
        (lambda: co.power_cUm(2, 10), "|m| must be at most 8"),
        (lambda: co.build("power", 2), "power needs m"),
        (lambda: co.power_cUm(5, 5), "power supports 2 <= d <= 4"),
        (lambda: co.build("power", 1, 2), "power supports 2 <= d <= 4"),
        (lambda: co.build("bogus", 2), "unknown construction 'bogus'; choose from "
                                       "['conjugation', 'dong', 'inverse', 'kitaev', "
                                       "'neutraliser', 'spin-echo', 'transpose', 'power']"),
    ], ids=["chi", "minor-isometry", "power-m-zero", "power-m-large", "power-no-m",
            "power-d-large", "power-d-small", "unknown"])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


class TestChiState:
    def test_d2_singlet(self):
        chi = co.chi_state(2)
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1 / np.sqrt(2)   # |01>
        expected[2] = -1 / np.sqrt(2)  # |10>
        np.testing.assert_allclose(chi, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_determinant_expectation(self, d):
        chi = co.chi_state(d)
        for s in range(5):
            u = la.haar_unitary(d, 900 + s)
            w = chi
            for _ in range(d):
                w = la.apply_to_factors(w, u, [_], [d] * d)
            assert abs(np.vdot(chi, w) - np.linalg.det(u)) < 1e-10

    def test_antisymmetry_under_swap(self):
        chi = co.chi_state(3)
        swapped = la.apply_to_factors(chi, la.swap_matrix(3), [0, 1], [3, 3, 3])
        np.testing.assert_allclose(swapped, -chi, atol=1e-12)
        swapped = la.apply_to_factors(chi, la.swap_matrix(3), [1, 2], [3, 3, 3])
        np.testing.assert_allclose(swapped, -chi, atol=1e-12)

    def test_norm(self):
        for d in (2, 3, 4):
            assert abs(np.linalg.norm(co.chi_state(d)) - 1.0) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            co.chi_state(6)


class TestBellState:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ricochet_identity(self, d):
        rng = np.random.default_rng(d)
        psi = co.bell_state(d)
        for _ in range(100):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = la.apply_to_factors(psi, m, [0], [d, d])
            rhs = la.apply_to_factors(psi, m.T, [1], [d, d])
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_teleportation_contraction(self, d):
        # (<psi+| x Id)(Id x |psi+>) = Id / d
        psi = co.bell_state(d)
        psi_mat = psi.reshape(d, d)
        contr = np.zeros((d, d), dtype=complex)
        for i in range(d):
            vec = np.kron(la.basis_state(d, i), psi).reshape(d, d, d)
            contr[:, i] = np.einsum("ab,abc->c", psi_mat.conj(), vec)
        np.testing.assert_allclose(contr, np.eye(d) / d, atol=1e-12)


class TestKitaev:
    def test_identity_oracle(self):
        alg = co.kitaev_cswap(2)
        np.testing.assert_allclose(alg.eval(np.eye(2, dtype=complex)), np.eye(8), atol=1e-12)

    def test_block_structure_z(self):
        alg = co.kitaev_cswap(2)
        got = alg.eval(Z)
        expected = la.kron(np.diag([1.0, 0.0]), np.eye(2), Z) + la.kron(
            np.diag([0.0, 1.0]), Z, np.eye(2))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_query_count(self):
        assert co.kitaev_cswap(3).query_count == 1

    def test_eigenvector_ancilla_gives_controlled_u(self):
        # with the ancilla set to an eigenvector the circuit acts as the
        # controlled oracle up to the eigenvalue phase on the 0 branch
        d = 2
        alg = co.kitaev_cswap(d)
        u = la.haar_unitary(d, 33)
        evals, evecs = np.linalg.eig(u)
        v = evecs[:, 0]
        mu = evals[0]
        full = alg.eval(u)
        emb = np.kron(np.eye(2 * d), v[:, None])  # (8 x 4) embedding of |c,xi>|v>
        got = full @ emb
        ctrl = la.kron(np.diag([mu, 0.0]), np.eye(d)) + la.kron(np.diag([0.0, 1.0]), u)
        expected = np.kron(ctrl, v[:, None])
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestNeutraliser:
    def test_identity_oracle(self):
        alg = co.neutraliser_parallel(2)
        np.testing.assert_allclose(alg.eval(np.eye(2, dtype=complex)), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_state_scaled_by_det(self, d):
        alg = co.neutraliser_parallel(d)
        for s in range(20 if d == 2 else 5):
            u = la.haar_unitary(d, 1000 + s)
            v = alg.apply_cols(u, la.basis_state(d ** d, 0))
            det = np.linalg.det(u)
            assert abs(v[0] - det) < 1e-10
            assert np.linalg.norm(v - det * la.basis_state(d ** d, 0)) < 1e-10

    def test_degree(self):
        assert mo.static_homogeneity(co.neutraliser_parallel(3).query_letters) == 3


class TestDong:
    def test_identity_oracle(self):
        alg = co.dong_cUd(2)
        np.testing.assert_allclose(alg.eval(np.eye(2, dtype=complex)), np.eye(16), atol=1e-12)

    def test_diagonal_task_factor(self):
        th = 1.21
        u = np.diag([1.0, np.exp(1j * th)])
        res = mo.check_exact(co.dong_cUd(2), mo.cum_task(2, 2), u)
        assert res.achieved
        assert wrap_diff(res.phase, -th) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_exactness(self, d):
        alg = co.dong_cUd(d)
        task = mo.cum_task(d, d)
        for s in range(5):
            u = la.haar_unitary(d, 1100 + s)
            res = mo.check_exact(alg, task, u)
            assert res.achieved and res.residual <= 1e-9
            assert wrap_diff(res.phase, -np.angle(np.linalg.det(u))) < 1e-8
            assert abs(res.success_prob - 1.0) < 1e-10


class TestPower:
    def test_m_equals_d_is_dong_behaviour(self):
        u = la.haar_unitary(2, 1200)
        a = co.power_cUm(2, 2).eval(u)
        b = co.dong_cUd(2).eval(u)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_m4(self):
        alg = co.power_cUm(2, 4)
        u = la.haar_unitary(2, 1201)
        res = mo.check_exact(alg, mo.cum_task(2, 4), u)
        assert res.achieved
        assert wrap_diff(res.phase, -2 * np.angle(np.linalg.det(u))) < 1e-8

    def test_negative_power_diag(self):
        th = 0.67
        u = np.diag([1.0, np.exp(1j * th)])
        res = mo.check_exact(co.power_cUm(2, -2), mo.cum_task(2, -2), u)
        assert res.achieved
        # the control-1 block applies U^{-2}
        assert res.residual <= 1e-9

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            co.power_cUm(2, 3)

    def test_degrees(self):
        assert mo.static_homogeneity(co.power_cUm(2, 4).query_letters) == 4
        assert mo.static_homogeneity(co.power_cUm(2, -2).query_letters) == -2


class TestConjugation:
    def test_d2_is_minor_conjugation(self):
        alg = co.conjugation(2)
        e = np.array([[0, -1], [1, 0]], dtype=complex)  # |1><0| - |0><1|
        u = la.haar_unitary(2, 1300)
        np.testing.assert_allclose(alg.eval(u), la.dagger(e) @ u @ e, atol=1e-12)
        np.testing.assert_allclose(alg.eval(np.eye(2, dtype=complex)), np.eye(2), atol=1e-12)

    def test_d2_matches_cofactor(self):
        alg = co.conjugation(2)
        u = la.haar_unitary(2, 1301)
        np.testing.assert_allclose(alg.eval(u), la.cofactor_matrix(u), atol=1e-10)

    def test_minor_isometry_gives_cofactor(self):
        for d in (2, 3, 4):
            e = co.minor_isometry(d)
            u = la.haar_unitary(d, 1302 + d)
            big = u
            for _ in range(d - 2):
                big = np.kron(big, u)
            got = la.dagger(e) @ big @ e
            np.testing.assert_allclose(got, la.cofactor_matrix(u), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_clean_prob_one(self, d):
        alg = co.conjugation(d)
        task = mo.conjugation_task(d)
        us = la.haar_unitaries(d, 5, 1310 + d)
        for u in us:
            res = mo.check_exact(alg, task, u)
            assert res.achieved and res.residual <= 1e-9
            assert abs(res.success_prob - 1.0) < 1e-10
        assert mo.check_clean(alg, task, us).clean

    def test_query_count(self):
        for d in (2, 3, 4):
            assert co.conjugation(d).query_count == d - 1


class TestTranspose:
    def test_identity_oracle(self):
        d = 2
        alg = co.transpose_via_teleport(d)
        res = mo.check_exact(alg, mo.transpose_task(d), np.eye(d, dtype=complex))
        assert res.achieved
        assert abs(res.success_prob - 1 / d**2) < 1e-12

    def test_hadamard_symmetric(self):
        alg = co.transpose_via_teleport(2)
        res = mo.check_exact(alg, mo.transpose_task(2), H)
        assert res.achieved  # H is symmetric so the transpose is H itself

    @pytest.mark.parametrize("d", [2, 3])
    def test_probability_and_exactness(self, d):
        alg = co.transpose_via_teleport(d)
        task = mo.transpose_task(d)
        for s in range(5):
            u = la.haar_unitary(d, 1400 + s)
            res = mo.check_exact(alg, task, u)
            assert res.achieved
            assert abs(res.success_prob - 1 / d**2) < 1e-10

    def test_clean_constant_garbage(self):
        alg = co.transpose_via_teleport(2)
        assert mo.check_clean(alg, mo.transpose_task(2), la.haar_unitaries(2, 8, 9)).clean


class TestInverse:
    def test_identity_oracle(self):
        alg = co.inverse(2)
        res = mo.check_exact(alg, mo.inverse_task(2), np.eye(2, dtype=complex))
        assert res.achieved and abs(res.success_prob - 0.25) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_inverse_task_factor(self, d):
        alg = co.inverse(d)
        task = mo.inverse_task(d)
        for s in range(5):
            u = la.haar_unitary(d, 1500 + s)
            res = mo.check_exact(alg, task, u)
            assert res.achieved and res.residual <= 1e-9
            assert abs(res.success_prob - 1 / d**2) < 1e-10
        assert mo.check_clean(alg, task, la.haar_unitaries(d, 6, 1510 + d)).clean

    def test_d2_projector_is_the_bell_projector(self):
        psi = co.bell_state(2)
        p, targets = co.inverse(2).projector
        assert np.array_equal(p, np.outer(psi, psi.conj())) and targets == (0, 1)

    def test_query_count_is_minus_one_mod_d(self):
        for d in (2, 3):
            n = co.inverse(d).query_count
            assert n == d - 1
            assert (n + 1) % d == 0

    def test_degree(self):
        assert mo.static_homogeneity(co.inverse(3).query_letters) == 2


class TestSpinEcho:
    def test_identity_oracle(self):
        d = 2
        alg = co.spin_echo_cUd(d)
        res = mo.check_exact(alg, mo.cum_task(d, d), np.eye(d, dtype=complex))
        assert res.achieved
        assert abs(res.success_prob - 1 / d**2) < 1e-10

    def test_d2_projector_is_the_bell_projector(self):
        psi = co.bell_state(2)
        p, targets = co.spin_echo_cUd(2).projector
        assert np.array_equal(p, np.outer(psi, psi.conj())) and targets == (1, 2)

    def test_diagonal_branches(self):
        th = 0.59
        u = np.diag([1.0, np.exp(1j * th)])
        res = mo.check_exact(co.spin_echo_cUd(2), mo.cum_task(2, 2), u)
        assert res.achieved
        assert wrap_diff(res.phase, -th) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_exactness_and_probability(self, d):
        alg = co.spin_echo_cUd(d)
        task = mo.cum_task(d, d)
        for s in range(5):
            u = la.haar_unitary(d, 1600 + s)
            res = mo.check_exact(alg, task, u)
            assert res.achieved and res.residual <= 1e-9
            assert wrap_diff(res.phase, -np.angle(np.linalg.det(u))) < 1e-8
            assert abs(res.success_prob - 1 / d**2) < 1e-10

    def test_degree(self):
        for d in (2, 3):
            assert mo.static_homogeneity(co.spin_echo_cUd(d).query_letters) == d


class TestComposedRoot:
    def test_identity_behaviour(self):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        np.testing.assert_allclose(ev.eval(np.eye(2, dtype=complex)), np.eye(16), atol=1e-12)

    def test_away_from_cut_exact_member(self):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        u = np.diag([1.0, np.exp(0.2j)])
        res = mo.check_exact(ev, mo.cum_task(2, 1), u)
        assert res.achieved
        root_det = np.linalg.det(la.principal_root(u, 2))
        assert wrap_diff(res.phase, -np.angle(root_det)) < 1e-8

    def test_bad_root_rejected(self):
        ev = co.composed_root_cU(2, lambda u: np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="root"):
            ev.eval(np.diag([1.0, np.exp(0.2j)]))

    def test_root_order_must_match_template(self):
        # a d = 3 root map around the d = 2 template takes no oracle at all
        with pytest.raises(ValueError, match="root order d = 3 does not match the "
                                             "template's oracle dimension 2"):
            co.ComposedRootEvaluator(d=3, root=lambda u: la.principal_root(u, 3),
                                     inner=co.dong_cUd(2))

    def test_pointwise_exact_across_cut(self):
        # the phase selection jumps at the cut but each side remains an exact
        # family member; see the topology tests for the loop-level statement
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        task = mo.cum_task(2, 1)
        for th in (np.pi - 1e-6, np.pi + 1e-6):
            res = mo.check_exact(ev, task, np.diag([1.0, np.exp(1j * th)]))
            assert res.achieved and res.residual <= 1e-9


class TestRegisterBookkeeping:
    """Each evaluator fixes its register bookkeeping at construction, as plain
    attributes holding what its layout implies."""

    NAMES = ("oracle_dim", "layout", "dims", "total_dim", "h_factors", "h_dim",
             "out_factors", "k_out_factors")
    CASES = [pytest.param(lambda name=name, d=d: co.build(name, d), id=f"{name}-{d}")
             for name in co.BUILDERS for d in (2, 3)]
    CASES += [
        pytest.param(lambda: co.build("power", 2, 4), id="power-2-4"),
        pytest.param(lambda: co.composed_root_cU(2, lambda u: la.principal_root(u, 2)),
                     id="root-composed-2"),
    ]

    @pytest.mark.parametrize("make", CASES)
    def test_plain_attributes_with_layout_values(self, make):
        alg = make()
        assert set(self.NAMES) <= set(vars(alg))
        dims = alg.layout.dims
        assert alg.dims == dims
        assert alg.total_dim == math.prod(dims) and type(alg.total_dim) is int
        assert alg.h_factors == alg.layout.h_indices
        assert alg.h_dim == math.prod(dims[i] for i in alg.h_factors)
        assert type(alg.h_dim) is int
        assert math.prod(dims[i] for i in alg.out_factors) == alg.h_dim
        assert sorted(alg.out_factors + alg.k_out_factors) == list(range(len(dims)))
        if isinstance(alg, co.ComposedRootEvaluator):
            for name in self.NAMES:
                assert getattr(alg, name) == getattr(alg.inner, name)
        else:
            letters = tuple(s.letter for s in alg.steps if isinstance(s, mo.QueryStep))
            assert {"query_letters", "query_count"} <= set(vars(alg))
            assert alg.query_letters == letters and alg.query_count == len(letters)


class TestHomogeneityOfAllBuilders:
    CASES = [
        (lambda: co.kitaev_cswap(2), 1),
        (lambda: co.kitaev_cswap(3), 1),
        (lambda: co.dong_cUd(2), 2),
        (lambda: co.dong_cUd(3), 3),
        (lambda: co.power_cUm(2, 4), 4),
        (lambda: co.power_cUm(2, -2), -2),
        (lambda: co.neutraliser_parallel(2), 2),
        (lambda: co.conjugation(3), 2),
        (lambda: co.transpose_via_teleport(2), 1),
        (lambda: co.inverse(2), 1),
        (lambda: co.inverse(3), 2),
        (lambda: co.spin_echo_cUd(2), 2),
    ]

    @pytest.mark.parametrize("make,degree", CASES)
    def test_static_equals_numeric(self, make, degree):
        alg = make()
        assert mo.static_homogeneity(alg.query_letters) == degree
        rng = np.random.default_rng(1700 + degree)
        u = la.haar_unitary(alg.oracle_dim, 1701 + degree)
        for _ in range(3):
            lam = np.exp(2j * np.pi * rng.random())
            assert mo.numeric_homogeneity_check(alg, u, lam, degree) <= 1e-9
