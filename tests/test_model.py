"""Tests for the oracle-program model and its verification predicates."""
from __future__ import annotations

import numpy as np
import pytest

from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo
from uctrl.linalg import RegisterLayout

X = np.array([[0, 1], [1, 0]], dtype=complex)


def wrap_diff(a: float, b: float) -> float:
    return abs(np.angle(np.exp(1j * (a - b))))


def trivial_alg(d: int) -> mo.OracleAlgorithm:
    layout = RegisterLayout.of([d], ["task"])
    return mo.OracleAlgorithm("trivial", d, layout, (mo.FixedStep(np.eye(d, dtype=complex), (0,)),))


def whole_space_query(d: int) -> mo.OracleAlgorithm:
    layout = RegisterLayout.of([d], ["task"])
    return mo.OracleAlgorithm("query", d, layout, (mo.QueryStep(mo.ID, (0,)),))


def nonclean_dong2() -> mo.OracleAlgorithm:
    base = co.dong_cUd(2)
    steps = base.steps + (mo.QueryStep(mo.ID, (2,)),)
    return mo.OracleAlgorithm("dong-nonclean", 2, base.layout, steps)


def postselect_to_zero(d: int) -> mo.OracleAlgorithm:
    layout = RegisterLayout.of([d], ["task"])
    return mo.OracleAlgorithm(
        "zero-postselect", d, layout, (mo.QueryStep(mo.ID, (0,)),),
        projector=(co.zero_projector(d), (0,)))


class TestEval:
    def test_no_queries_identity(self):
        alg = trivial_alg(3)
        for s in range(3):
            u = la.haar_unitary(3, s)
            np.testing.assert_allclose(alg.eval(u), np.eye(3), atol=1e-12)

    def test_single_query_whole_space(self):
        alg = whole_space_query(3)
        u = la.haar_unitary(3, 4)
        np.testing.assert_allclose(alg.eval(u), u, atol=1e-12)

    def test_dong_matches_block_structure(self):
        # zero-ancilla restriction must equal the controlled power times the
        # determinant-phase garbage on the all-zero ancilla column
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 11)
        b = alg.task_block(u)
        det = np.linalg.det(u)
        t = mo.control_phase_matrix(u @ u, -np.angle(det))
        g = det * la.basis_state(4, 0)
        expected = np.einsum("yx,k->ykx", t, g).reshape(4, 4, 4)
        got = mo.out_split(alg, b)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_nonunitary_oracle_rejected(self):
        with pytest.raises(ValueError):
            trivial_alg(2).eval(np.diag([1.0, 2.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trivial_alg(2).eval(np.eye(3, dtype=complex))


class TestSuccessProb:
    def test_unitary_program_prob_one(self):
        alg = whole_space_query(2)
        u = la.haar_unitary(2, 1)
        for s in range(2):
            assert abs(mo.success_prob(alg, u, la.basis_state(2, s)) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_transpose_quarter(self, d):
        alg = co.transpose_via_teleport(d)
        rng = np.random.default_rng(5)
        for s in range(3):
            u = la.haar_unitary(d, 60 + s)
            state = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            state /= np.linalg.norm(state)
            assert abs(mo.success_prob(alg, u, state) - 1 / d**2) < 1e-10

    def test_dong_prob_one(self):
        alg = co.dong_cUd(2)
        for s in range(5):
            u = la.haar_unitary(2, 70 + s)
            for xi in range(4):
                assert abs(mo.success_prob(alg, u, la.basis_state(4, xi)) - 1.0) < 1e-10

    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError):
            mo.success_prob(trivial_alg(2), np.eye(2, dtype=complex), np.array([1.0, 1.0]))


class TestApplyChannel:
    def test_identity_channel(self):
        alg = trivial_alg(2)
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
        out, tr = mo.apply_channel(alg, np.eye(2, dtype=complex), rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)
        assert abs(tr - 1.0) < 1e-12

    def test_exact_achiever_conjugates(self):
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 8)
        res = mo.check_exact(alg, mo.cum_task(2, 2), u)
        t = mo.control_phase_matrix(u @ u, res.phase)
        rho = np.eye(4, dtype=complex) / 4
        out, tr = mo.apply_channel(alg, u, rho)
        np.testing.assert_allclose(out / tr, t @ rho @ la.dagger(t), atol=1e-10)

    def test_plus_control_hand_computed(self):
        # plus-control times |0> input through the controlled-square program
        alg = co.dong_cUd(2)
        th = 0.91
        u = np.diag([1.0, np.exp(1j * th)])
        v = np.zeros(4, dtype=complex)
        v[0] = v[2] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        out, tr = mo.apply_channel(alg, u, rho)
        t = mo.control_phase_matrix(u @ u, -th)
        np.testing.assert_allclose(out / tr, t @ rho @ la.dagger(t), atol=1e-10)

    def test_channel_trace_matches_pure_prob(self):
        alg = co.transpose_via_teleport(2)
        u = la.haar_unitary(2, 9)
        v = np.array([0.6, 0.8j], dtype=complex)
        _, tr = mo.apply_channel(alg, u, np.outer(v, v.conj()))
        assert abs(tr - mo.success_prob(alg, u, v)) < 1e-10

    def test_invalid_rho_rejected(self):
        alg = trivial_alg(2)
        with pytest.raises(ValueError):
            mo.apply_channel(alg, np.eye(2, dtype=complex), np.eye(2, dtype=complex))


class TestCheckExact:
    def test_dong_details(self):
        alg = co.dong_cUd(2)
        for s in range(5):
            u = la.haar_unitary(2, 100 + s)
            res = mo.check_exact(alg, mo.cum_task(2, 2), u)
            assert res.achieved
            assert res.residual <= 1e-9
            assert wrap_diff(res.phase, -np.angle(np.linalg.det(u))) < 1e-8
            assert abs(res.success_prob - 1.0) < 1e-10

    def test_kitaev_not_achieved_generic(self):
        alg = co.kitaev_cswap(2)
        res = mo.check_exact(alg, mo.cum_task(2, 1), la.haar_unitary(2, 14))
        assert not res.achieved
        assert res.rank_residual > 0.1

    def test_kitaev_achieves_when_zero_ancilla_is_eigenvector(self):
        # diagonal oracles leave the zero ancilla an eigenvector, so the
        # controlled-swap trick happens to factorise there; failure is a
        # generic-oracle statement
        alg = co.kitaev_cswap(2)
        res = mo.check_exact(alg, mo.cum_task(2, 1), np.diag([1.0, np.exp(0.83j)]))
        assert res.achieved and res.rank_residual <= 1e-12

    def test_conjugation_garbage_phase(self):
        alg = co.conjugation(3)
        u = la.haar_unitary(3, 13)
        res = mo.check_exact(alg, mo.conjugation_task(3), u)
        assert res.achieved
        g = res.garbage
        assert abs(g[0] - np.linalg.det(u)) < 1e-9
        assert np.linalg.norm(g[1:]) < 1e-9

    def test_alphabet_mismatch_rejected(self):
        alg = co.dong_cUd(2)  # uses id queries only, but conjugation space is d-dim
        with pytest.raises(ValueError):
            mo.check_exact(alg, mo.conjugation_task(2), la.haar_unitary(2, 0))

    def test_inverse_phase_convention(self):
        alg = co.inverse(2)
        u = la.haar_unitary(2, 21)
        res = mo.check_exact(alg, mo.inverse_task(2), u)
        assert res.achieved
        assert wrap_diff(res.phase, np.angle(np.linalg.det(u))) < 1e-8
        assert abs(res.success_prob - 0.25) < 1e-10


class TestPureDeviation:
    def test_exact_achiever_zero(self):
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 31)
        assert mo.pure_deviation(alg, mo.cum_task(2, 2), u) <= 1e-9

    def test_composed_root_small_everywhere(self):
        # the root-composed evaluator is pointwise exact, including near and
        # across the principal branch cut: the two root queries cancel the
        # sign jump, so the deviation stays at numerical zero on both sides
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        task = mo.cum_task(2, 1)
        assert mo.pure_deviation(ev, task, np.diag([1, np.exp(0.1j)]).astype(complex)) < 0.1
        below = mo.pure_deviation(ev, task, np.diag([1, np.exp(1j * (np.pi - 1e-6))]).astype(complex))
        above = mo.pure_deviation(ev, task, np.diag([1, np.exp(1j * (np.pi + 1e-6))]).astype(complex))
        assert below <= 1e-9 and above <= 1e-9
        assert abs(below - above) <= 1e-9

    def test_kitaev_far(self):
        alg = co.kitaev_cswap(2)
        assert mo.pure_deviation(alg, mo.cum_task(2, 1), la.haar_unitary(2, 14)) > 0.1


class TestPhaseMin:
    @pytest.mark.parametrize("p0", [0.3, np.pi - 1e-4, -np.pi + 1e-4])
    def test_finds_cosine_minimum(self, p0):
        # p0 = +-(pi - 1e-4) sits across the grid's wrap-around point
        val = mo._phase_min(lambda p: 1 - np.cos(p - p0), mo.PHASE_GRID)
        assert 0.0 <= val <= 1e-12


class TestEpsDistance:
    def test_exact_achievers_zero(self):
        cases = [
            (co.dong_cUd(2), mo.cum_task(2, 2), 2),
            (co.transpose_via_teleport(2), mo.transpose_task(2), 2),
            (co.conjugation(3), mo.conjugation_task(3), 3),
        ]
        for alg, task, d in cases:
            u = la.haar_unitary(d, 41)
            assert mo.eps_distance_estimate(alg, task, u, n_samples=3) <= 1e-9

    def test_dong_zero_over_twenty_oracles(self):
        alg = co.dong_cUd(2)
        task = mo.cum_task(2, 2)
        for s in range(20):
            u = la.haar_unitary(2, 4200 + s)
            assert mo.eps_distance_estimate(alg, task, u, n_samples=2) <= 1e-9

    def test_composed_root_loop_is_exact(self):
        # pointwise the root composition implements a controlled-U member for
        # every oracle, so the estimated distance stays at numerical zero
        # along the whole central loop (the branch cut only moves the phase
        # selection, never the achieved family member)
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        task = mo.cum_task(2, 1)
        worst = 0.0
        for t in np.linspace(0, 1, 17, endpoint=False):
            u = np.exp(2j * np.pi * t) * np.eye(2)
            worst = max(worst, mo.eps_distance_estimate(ev, task, u, n_samples=2))
        assert worst <= 1e-9

    def test_zero_probability_raises(self):
        alg = postselect_to_zero(2)
        with pytest.raises(mo.ModelViolationError):
            mo.eps_distance_estimate(alg, mo.inverse_task(2), X, n_samples=2)


class TestNeutralise:
    def test_neutraliser_passes(self):
        alg = co.neutraliser_parallel(2)
        us = la.haar_unitaries(2, 20, 3)
        res = mo.check_neutralises(alg, us)
        assert res.passed
        assert abs(res.r - 1.0) < 1e-10
        for u, phi in zip(us, res.phases):
            assert wrap_diff(phi, np.angle(np.linalg.det(u))) < 1e-8

    def test_plain_query_fails_at_x(self):
        alg = whole_space_query(2)
        res = mo.check_neutralises(alg, [X])
        assert not res.passed
        assert res.reason == "output leaves the all-zero ray"

    def test_single_query_candidates_fail(self):
        # no single-query program neutralises when the oracle dimension
        # exceeds one; try a few V-conjugated candidates
        us = la.haar_unitaries(2, 50, 7)
        for v_seed in (None, 0, 1):
            layout = RegisterLayout.of([2], ["anc"])
            steps: tuple = (mo.QueryStep(mo.ID, (0,)),)
            if v_seed is not None:
                v = la.haar_unitary(2, v_seed)
                steps = (mo.FixedStep(v, (0,)),) + steps + (mo.FixedStep(la.dagger(v), (0,)),)
            alg = mo.OracleAlgorithm("candidate", 2, layout, steps)
            assert not mo.check_neutralises(alg, us).passed


class TestClean:
    def test_conjugation_clean(self):
        alg = co.conjugation(3)
        res = mo.check_clean(alg, mo.conjugation_task(3), la.haar_unitaries(3, 20, 5))
        assert res.clean

    def test_dong_clean(self):
        alg = co.dong_cUd(2)
        res = mo.check_clean(alg, mo.cum_task(2, 2), la.haar_unitaries(2, 10, 6))
        assert res.clean

    def test_oracle_dependent_garbage_not_clean(self):
        alg = nonclean_dong2()
        us = la.haar_unitaries(2, 8, 9)
        # still an exact achiever ...
        assert mo.check_exact(alg, mo.cum_task(2, 2), us[0]).achieved
        # ... but its garbage direction moves with the oracle
        res = mo.check_clean(alg, mo.cum_task(2, 2), us)
        assert not res.clean
        assert "not parallel" in res.reason

    def test_non_achiever_not_clean(self):
        res = mo.check_clean(co.kitaev_cswap(2), mo.cum_task(2, 1),
                             la.haar_unitaries(2, 3, 10))
        assert not res.clean
        assert "not an exact achiever" in res.reason


class TestHomogeneity:
    def test_static_degrees(self):
        assert mo.static_homogeneity([mo.ID] * 4) == 4
        assert mo.static_homogeneity([mo.ID, mo.INV]) == 0
        assert mo.static_homogeneity(["id", "id", "inv"]) == 1

    def test_dong_numeric(self):
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 51)
        lam = np.exp(0.7j)
        assert mo.numeric_homogeneity_check(alg, u, lam, 2) <= 1e-10

    def test_kitaev_numeric(self):
        alg = co.kitaev_cswap(3)
        u = la.haar_unitary(3, 52)
        for lam in (np.exp(0.3j), np.exp(-1.9j)):
            assert mo.numeric_homogeneity_check(alg, u, lam, 1) <= 1e-10

    def test_lambda_one_exact(self):
        alg = co.dong_cUd(2)
        assert mo.numeric_homogeneity_check(alg, la.haar_unitary(2, 53), 1.0, 2) == 0.0

    def test_wrong_degree_detected(self):
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 54)
        assert mo.numeric_homogeneity_check(alg, u, np.exp(0.7j), 1) > 0.1

    def test_nonunimodular_rejected(self):
        with pytest.raises(ValueError):
            mo.numeric_homogeneity_check(co.dong_cUd(2), la.haar_unitary(2, 55), 1.1, 2)

    def test_phase_covariance_of_extracted_phase(self):
        # scaling the oracle by a unimodular lambda shifts the extracted
        # relative phase by exactly -m arg(lambda)
        alg = co.dong_cUd(2)
        task = mo.cum_task(2, 2)
        u = la.haar_unitary(2, 56)
        lam = np.exp(0.37j)
        phi_base = mo.check_exact(alg, task, u).phase
        phi_scaled = mo.check_exact(alg, task, lam * u).phase
        assert wrap_diff(phi_scaled, phi_base - 2 * 0.37) < 1e-8


class TestLipschitz:
    def test_equal_points(self):
        alg = co.dong_cUd(2)
        u = la.haar_unitary(2, 61)
        assert mo.lipschitz_check(alg, u, u)

    def test_dong_pairs(self):
        alg = co.dong_cUd(2)
        for s in range(20):
            u, v = la.haar_unitaries(2, 2, 600 + s)
            assert mo.lipschitz_check(alg, u, v)

    def test_single_query_equality_case(self):
        alg = whole_space_query(2)
        u, v = la.haar_unitaries(2, 2, 62)
        diff = la.spectral_norm(alg.eval(u) - alg.eval(v))
        assert abs(diff - la.spectral_norm(u - v)) < 1e-12


class TestModelSoundness:
    @pytest.mark.parametrize("d", [2, 3])
    def test_all_constructions_positive_probability(self, d):
        algs = [co.kitaev_cswap(d), co.dong_cUd(d), co.neutraliser_parallel(d),
                co.conjugation(d), co.transpose_via_teleport(d), co.inverse(d),
                co.spin_echo_cUd(d), co.power_cUm(d, 2 * d)]
        for alg in algs:
            for u in la.haar_unitaries(d, 50, 1234 + d):
                b = alg.task_block(u)
                probs = np.linalg.norm(b, axis=0) ** 2
                assert probs.min() > 1e-10, alg.name


class TestIrRoundTrip:
    @pytest.mark.parametrize("builder,d", [
        (co.kitaev_cswap, 2), (co.dong_cUd, 2), (co.neutraliser_parallel, 2),
        (co.conjugation, 3), (co.transpose_via_teleport, 2), (co.inverse, 2),
        (co.spin_echo_cUd, 2), (lambda d: co.power_cUm(d, -2), 2),
    ])
    def test_roundtrip(self, builder, d, tmp_path):
        alg = builder(d)
        path = tmp_path / "alg.json"
        mo.write_ir(alg, path)
        back = mo.from_ir(path)
        assert back.oracle_dim == alg.oracle_dim
        assert back.task_out == alg.task_out
        for s in range(3):
            u = la.haar_unitary(d, 700 + s)
            np.testing.assert_allclose(back.eval(u), alg.eval(u), atol=1e-12)

    def test_full_space_inline_projector_accepted(self):
        alg = co.transpose_via_teleport(2)
        ir = mo.to_ir(alg)
        full = la.embed(alg.projector[0], alg.projector[1], alg.layout)
        ir["projector"] = la.matrix_to_json(full)
        back = mo.from_ir(ir)
        u = la.haar_unitary(2, 71)
        np.testing.assert_allclose(back.eval(u), alg.eval(u), atol=1e-12)


class TestValidation:
    def test_projector_must_be_projector(self):
        layout = RegisterLayout.of([2], ["task"])
        with pytest.raises(ValueError):
            mo.OracleAlgorithm("bad", 2, layout, (mo.QueryStep(mo.ID, (0,)),),
                               projector=(0.5 * np.eye(2, dtype=complex), (0,)))

    def test_query_target_dimension_checked(self):
        layout = RegisterLayout.of([2, 2], ["control", "task"])
        with pytest.raises(ValueError):
            mo.OracleAlgorithm("bad", 2, layout, (mo.QueryStep(mo.ID, (0, 1)),))

    def test_fixed_steps_must_be_unitary(self):
        layout = RegisterLayout.of([2], ["task"])
        with pytest.raises(ValueError):
            mo.OracleAlgorithm("bad", 2, layout,
                               (mo.FixedStep(np.ones((2, 2), dtype=complex), (0,)),))

    def test_query_padding(self):
        alg = whole_space_query(2)
        assert isinstance(alg.steps[0], mo.FixedStep)
        assert isinstance(alg.steps[-1], mo.FixedStep)
