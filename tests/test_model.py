"""Tests for the oracle-program model and its verification predicates."""
from __future__ import annotations

import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctrl import constructions as co
from uctrl import ir
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp
from uctrl.linalg import RegisterLayout

from test_cli import MALFORMED_IR

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


def control_second(alg: mo.OracleAlgorithm) -> mo.OracleAlgorithm:
    """The same circuit with factors 0 and 1 (control and task) swapped in
    the layout and in every target, for a program with neither projector
    nor output registers: its control sits behind its task factor."""
    swap = {0: 1, 1: 0}
    factors = alg.layout.factors
    steps = tuple(dataclasses.replace(s, targets=tuple(swap.get(t, t) for t in s.targets))
                  for s in alg.steps)
    return mo.OracleAlgorithm(alg.name, alg.oracle_dim,
                              RegisterLayout((factors[1], factors[0], *factors[2:])), steps)


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

    def test_stack_rejected(self):
        alg = co.dong_cUd(2)
        us = np.stack(la.haar_unitaries(2, 3, 33))
        with pytest.raises(ValueError, match=r"^apply_channel takes one \(2, 2\) oracle, "
                                             r"got shape \(3, 2, 2\)$"):
            mo.apply_channel(alg, us, np.eye(alg.h_dim) / alg.h_dim)


class TestRejectedInputs:
    """An input a checker cannot take is a ValueError that says why."""

    @pytest.mark.parametrize("call,message", [
        (lambda: mo.check_exact(co.dong_cUd(2), mo.conjugation_task(4), np.eye(2)),
         "oracle dimension mismatch"),
        (lambda: mo.check_exact(mo.OracleAlgorithm("inv", 2, RegisterLayout.of([2], ["task"]),
                                                   (mo.QueryStep(mo.INV, (0,)),)),
                                mo.inverse_task(2), np.eye(2)),
         "outside the task alphabet"),
        (lambda: mo.success_prob(trivial_alg(2), np.eye(2), la.basis_state(3, 0)),
         "2-dimensional task space"),
        (lambda: mo.apply_channel(trivial_alg(2), np.eye(2), np.eye(3) / 3),
         "density matrix dimension mismatch"),
        (lambda: mo.apply_channel(trivial_alg(2), np.eye(2), np.diag([1.5, -0.5])),
         "not positive semidefinite"),
        (lambda: mo.QueryLetter("sqrt", 1).apply(np.eye(2)), "unknown query letter sqrt"),
        (lambda: mo.OracleAlgorithm("out-3", 2, RegisterLayout.of([2, 3], ["task", "anc"]), (),
                                    task_out=(1,)),
         "output task registers do not match the task space dimension"),
        (lambda: mo.Task("custom", 2, 2).base(np.eye(2)), "task custom has no base evaluator"),
        (lambda: mo.make_task("cUm", 2), "the controlled-power task needs m"),
        (lambda: mo.make_task("bogus", 2), "unknown task bogus"),
        # the controlled-power family needs the control leading the task
        # input factors and the output factors
        (lambda: mo.check_exact(control_second(co.dong_cUd(2)), mo.cum_task(2, 2), np.eye(2)),
         "leading the output factors"),
        (lambda: mo.eps_distance_estimate(control_second(co.dong_cUd(2)), mo.cum_task(2, 2),
                                          np.eye(2)),
         "leading the output factors"),
        (lambda: mo.pure_deviation(control_second(co.dong_cUd(2)), mo.cum_task(2, 2), np.eye(2)),
         "leading the output factors"),
        (lambda: mo.check_clean(control_second(co.dong_cUd(2)), mo.cum_task(2, 2), [np.eye(2)]),
         "leading the output factors"),
        (lambda: mo.check_exact(mo.OracleAlgorithm("control-second-out", 2,
                                                   co.kitaev_cswap(2).layout,
                                                   co.kitaev_cswap(2).steps, task_out=(2, 0)),
                                mo.cum_task(2, 1), np.eye(2)),
         "leading the output factors"),
        (lambda: mo.check_exact(mo.OracleAlgorithm("no-control", 2,
                                                   RegisterLayout.of([2, 2], ["task", "task"]),
                                                   (mo.QueryStep(mo.ID, (1,)),)),
                                mo.cum_task(2, 1), np.eye(2)),
         "leading the output factors"),
        # a query letter is one of LETTERS, name and degree both
        (lambda: mo.OracleAlgorithm("sq", 2, RegisterLayout.of([2], ["task"]),
                                    (mo.QueryStep(mo.QueryLetter("sq", 2), (0,)),)),
         r"unknown query letter QueryLetter\(name='sq', degree=2\) in sq"),
        (lambda: mo.OracleAlgorithm("id-1", 2, RegisterLayout.of([2], ["task"]),
                                    (mo.QueryStep(mo.QueryLetter("id", -1), (0,)),)),
         r"unknown query letter QueryLetter\(name='id', degree=-1\) in id-1"),
    ], ids=["oracle-dimension", "alphabet", "state-dimension", "rho-dimension", "rho-not-psd",
            "query-letter", "task-out", "no-base", "needs-m", "unknown-task",
            "control-second-exact", "control-second-eps", "control-second-deviation",
            "control-second-clean", "output-control-second", "no-control",
            "letter-unknown-name", "letter-wrong-degree"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def kraus_channel(alg, u, rho):
    """The postselected channel as the explicit Kraus sum over the output
    ancilla basis: sum_a Y_a rho Y_a^dagger, Y_a the (out, in) slice of the
    zero-ancilla block at ancilla output a."""
    bp = mo.out_split(alg, alg.task_block(u))
    return sum(bp[:, a, :] @ rho @ la.dagger(bp[:, a, :]) for a in range(bp.shape[1]))


class TestChannelReference:
    """``apply_channel`` matches the Kraus sum, and one stacked channel call
    matches per-state calls, on every state of the eps family and on a
    rank-two mixed state (rank-deficient wherever h > 2)."""

    def assert_matches(self, alg, task, u):
        h = alg.h_dim
        q = la.haar_unitary(h, 970)
        mixed = (q[:, :2] * [0.7, 0.3]) @ la.dagger(q[:, :2])
        rhos = np.concatenate([mo._state_family(alg, task, 2, 0), mixed[None]])
        b = alg.task_block(u)
        outs, trs = mo._channel_from_block(alg, b, rhos)
        assert outs.shape == rhos.shape and trs.shape == (len(rhos),)
        for rho, out, tr in zip(rhos, outs, trs):
            ref = kraus_channel(alg, u, rho)
            got, got_tr = mo.apply_channel(alg, u, rho)
            assert isinstance(got_tr, float)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            assert abs(got_tr - np.trace(ref).real) <= 1e-12
            one, one_tr = mo._channel_from_block(alg, b, rho)
            np.testing.assert_allclose(out, one, rtol=0, atol=1e-14)
            assert abs(tr - one_tr) <= 1e-14

    # the neutraliser has no task register, so it has no channel to check
    @pytest.mark.parametrize("name", sorted(set(co.BUILDERS) - {"neutraliser"}))
    @pytest.mark.parametrize("d", [2, 3])
    def test_builders(self, name, d):
        alg = co.BUILDERS[name](d)
        # the first compatible task is a controlled one wherever the program
        # has a control, so the plus-control states are in the family
        self.assert_matches(alg, compatible_tasks(alg, d)[0], la.haar_unitary(d, 971 + d))

    def test_power_2_4(self):
        self.assert_matches(co.power_cUm(2, 4), mo.cum_task(2, 4), la.haar_unitary(2, 974))

    def test_composed_root(self):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        self.assert_matches(ev, mo.cum_task(2, 1), la.haar_unitary(2, 975))


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

    @pytest.mark.parametrize("m", [4, 1], ids=["achieved", "not-achieved"])
    def test_wide_schmidt_matrix_matches_full_svd(self, monkeypatch, m):
        # dong d = 4's Schmidt matricisation T is 64 x 256, so its left factor
        # and singular values come from R^dagger (T^dagger = Q R); with qr's R
        # replaced by T^dagger itself the same code takes the SVD of T whole,
        # the reference
        alg, task = co.dong_cUd(4), mo.cum_task(4, m)
        us = np.concatenate([np.stack(la.haar_unitaries(4, 3, 990)),
                             np.exp(2j * np.pi * np.array([0.0, 0.3]))[:, None, None] * np.eye(4)])
        got = mo.check_exact(alg, task, us)
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: a)
        want = mo.check_exact(alg, task, us)
        assert [r.achieved for r in got] == [r.achieved for r in want]
        assert [r.achieved for r in got[:3]] == [m == 4] * 3  # the Haar oracles
        for r, w in zip(got, want):
            assert (r.phase is None) == (w.phase is None)
            if r.phase is not None:
                assert wrap_diff(r.phase, w.phase) <= 1e-12
            np.testing.assert_allclose([r.residual, r.rank_residual, r.zero_input_prob],
                                       [w.residual, w.rank_residual, w.zero_input_prob],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(r.garbage, w.garbage, rtol=0, atol=1e-12)

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
        # the task spaces agree, so the check stops at the inverse query
        alg = mo.OracleAlgorithm("inv-only", 2, la.RegisterLayout.of([2], ["task"]),
                                 (mo.QueryStep(mo.INV, (0,)),))
        with pytest.raises(ValueError, match="alphabet"):
            mo.check_exact(alg, mo.conjugation_task(2), la.haar_unitary(2, 0))

    def test_inverse_phase_convention(self):
        alg = co.inverse(2)
        u = la.haar_unitary(2, 21)
        res = mo.check_exact(alg, mo.inverse_task(2), u)
        assert res.achieved
        assert wrap_diff(res.phase, np.angle(np.linalg.det(u))) < 1e-8
        assert abs(res.success_prob - 0.25) < 1e-10


def tilted_dong2(angle: float) -> mo.OracleAlgorithm:
    """dong d = 2 followed by exp(-i angle X) on the control: still a product
    form, but of a task operator about ``angle`` from every c-U^2 member."""
    base = co.dong_cUd(2)
    rot = np.array([[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]])
    return mo.OracleAlgorithm("dong-tilted", 2, base.layout, base.steps + (mo.FixedStep(rot, (0,)),))


class TestGramResidual:
    """``check_exact``'s residual comes from the Gram matrix of the
    deviation, not from its SVD."""

    @pytest.mark.parametrize("name,m", [("constant", 1), ("kitaev", 2)])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_residual_is_the_svd_norm_of_the_deviation(self, name, m, stacked):
        # non-achievers, so the residual is of order 1: rebuild the deviation
        # from the reported phase and garbage and take its SVD norm
        alg = constant_circuit(2) if name == "constant" else co.kitaev_cswap(2)
        task = mo.cum_task(2, m)
        us = np.stack(la.haar_unitaries(2, 3, 41))
        results = mo.check_exact(alg, task, us) if stacked else [mo.check_exact(alg, task, u) for u in us]
        for u, res in zip(us, results):
            assert not res.achieved and res.residual > 0.1
            bp = mo.out_split(alg, alg.task_block(u))
            fit = np.einsum("yx,k->ykx", task.member(u, res.phase), res.garbage)
            want = la.spectral_norm((bp - fit).reshape(-1, bp.shape[2]))
            np.testing.assert_allclose(res.residual, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("angle,achieved", [(3e-9, True), (2e-8, False)])
    def test_verdict_near_exact_tol_matches_svd(self, monkeypatch, angle, achieved):
        # residuals within a factor of 10 of EXACT_TOL, on either side of it
        alg, task = tilted_dong2(angle), mo.cum_task(2, 2)
        us = np.stack(la.haar_unitaries(2, 3, 40))
        got = mo.check_exact(alg, task, us) + [mo.check_exact(alg, task, us[0])]
        monkeypatch.setattr(la, "gram_spectral_norm", la.spectral_norm)
        want = mo.check_exact(alg, task, us) + [mo.check_exact(alg, task, us[0])]
        for r, w in zip(got, want):
            assert mo.EXACT_TOL / 10 <= r.residual <= 10 * mo.EXACT_TOL
            assert r.achieved == w.achieved == achieved
            np.testing.assert_allclose(r.residual, w.residual, rtol=1e-12, atol=0)


class TestAffineMember:
    """The checkers take the controlled family as member(u, phi) =
    T0 + e^{i phi} T1, and the fixed member at phase 0 for a missing one."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("power", [1, -1, "d"])
    def test_affine_member_is_the_member(self, d, power):
        task = mo.cum_task(d, d if power == "d" else power)
        us = np.stack(la.haar_unitaries(d, 4, 970 + d))
        phis = np.array([0.0, 0.7, -np.pi, 2.5])
        t0, t1 = mo._affine_member(task, us)
        np.testing.assert_array_equal(t0 + np.exp(1j * phis)[:, None, None] * t1,
                                      task.member(us, phis))
        t0, t1 = mo._affine_member(task, us[1])
        np.testing.assert_array_equal(t0 + np.exp(1j * 0.7) * t1, task.member(us[1], 0.7))

    @pytest.mark.parametrize("name,m", [("cUm", 2), ("cUm", -1), ("conjugation", None),
                                        ("transpose", None), ("inverse", None)])
    def test_phase_zero_is_no_phase(self, name, m):
        task = mo.make_task(name, 2, m)
        us = np.stack(la.haar_unitaries(2, 3, 975))
        np.testing.assert_array_equal(task.member(us, np.zeros(3)), task.member(us, None))
        np.testing.assert_array_equal(task.member(us[0], 0.0), task.member(us[0], None))

    @pytest.mark.parametrize("d,m", [(2, 2), (2, -1), (3, 3)])
    def test_controlled_power_base_is_member_without_phase(self, d, m):
        task = mo.cum_task(d, m)
        us = np.stack(la.haar_unitaries(d, 3, 978))
        np.testing.assert_array_equal(task.base(us), task.member(us, None))
        np.testing.assert_array_equal(task.base(us[0]), task.member(us[0], None))


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

    @pytest.mark.parametrize("name,task", [("dong", mo.cum_task(2, 2)),
                                           ("conjugation", mo.conjugation_task(2))])
    def test_stack_rejected(self, name, task):
        # one oracle only, on a controlled task and on one without a phase
        us = np.stack(la.haar_unitaries(2, 3, 32))
        with pytest.raises(ValueError, match=r"^pure_deviation takes one \(2, 2\) oracle, "
                                             r"got shape \(3, 2, 2\)$"):
            mo.pure_deviation(co.build(name, 2), task, us)


def golden_phase_min(f, grid: int) -> np.ndarray:
    """A phase minimum by scanning, kept as the tests' reference: the best of
    the full grid, then a 60-step golden section over the two grid cells
    around it, every member's bracket moved by its own comparison, and the
    final midpoint; never above the best grid value."""
    phis = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    step = 2 * np.pi / grid
    vals = f(phis)

    def at(p: np.ndarray) -> np.ndarray:
        return f(p[..., None])[..., 0]

    inv = (math.sqrt(5) - 1) / 2
    best = phis[np.argmin(vals, axis=-1)]
    a, b = best - step, best + step
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = at(c), at(d)
    for _ in range(60):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - inv * (b - a), d), np.where(left, c, a + inv * (b - a))
        f_new = at(np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    return np.minimum(at((a + b) / 2), vals.min(axis=-1))


class TestPhaseMin:
    @pytest.mark.parametrize("grid", [0, -5])
    def test_grid_below_one_refused(self, grid):
        u = la.haar_unitary(2, 5)
        with pytest.raises(ValueError, match=f"grid={grid}"):
            mo.pure_deviation(co.dong_cUd(2), mo.cum_task(2, 2), u, grid=grid)
        with pytest.raises(ValueError, match=f"grid={grid}"):
            mo.eps_distance_estimate(constant_circuit(2), mo.cum_task(2, 1), u, n_samples=1,
                                     grid=grid)


def benchmark_haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar unitary from the benchmark's own stream (QR of a Ginibre
    matrix, R's diagonal rephased)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPhaseScanSaving:
    """Which inputs reach the level-set search over the phase."""

    @staticmethod
    def _call_sizes(monkeypatch) -> list[tuple[int, int]]:
        """Record the (rows, columns) of A in each ``_level_min`` call."""
        scans = []
        original = mo._level_min
        monkeypatch.setattr(mo, "_level_min",
                            lambda a, *rest: scans.append(a.shape) or original(a, *rest))
        return scans

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [4, 3])
    def test_pure_deviation_evaluates_few_phases(self, monkeypatch, d, seed):
        # the verify-dense achievers are certified at their fitted phase:
        # no level-set search at all
        rng = np.random.default_rng([seed, 2])  # the verify-dense oracle stream
        if d == 3:
            for _ in range(2):
                benchmark_haar(rng, 4)
        alg, task, u = co.dong_cUd(d), mo.cum_task(d, d), benchmark_haar(rng, d)
        _, lip = full_scan(monkeypatch, alg, task, u)
        scans = self._call_sizes(monkeypatch)
        assert mo.pure_deviation(alg, task, u) <= lip * 4 * mo._REFINE_TOL
        assert scans == []

    def test_pure_deviation_non_achiever_scan(self, monkeypatch):
        # kitaev is far from c-U^1: one search, on 3 h = 12 rows of h = 4
        scans = self._call_sizes(monkeypatch)
        val = mo.pure_deviation(co.kitaev_cswap(2), mo.cum_task(2, 1), la.haar_unitary(2, 14))
        assert val > 0.1
        assert scans == [(12, 4)]

    def test_eps_constant_evaluates_few_phases(self, monkeypatch):
        # the constant circuit's oracle in the verify-dense stream at seed 0,
        # after two d = 4 and two d = 3 draws: a non-achiever, whose phases
        # come from the secular equation, with no level-set search at all
        scans = self._call_sizes(monkeypatch)
        rng = np.random.default_rng([0, 2])
        for d in (4, 4, 3, 3):
            benchmark_haar(rng, d)
        val = mo.eps_distance_estimate(constant_circuit(2), mo.cum_task(2, 1),
                                       benchmark_haar(rng, 2), n_samples=2)
        assert val >= 1 and scans == []


def searched(monkeypatch, alg, task, u) -> tuple[float, list[tuple]]:
    """``pure_deviation`` of a controlled-power task by its level-set search
    alone, and the arguments (A, B, C, start) of each ``_level_min`` call: a
    negative _REFINE_TOL lets no certificate hold."""
    level_min, calls = mo._level_min, []
    with monkeypatch.context() as m:
        m.setattr(mo, "_REFINE_TOL", -1.0)
        m.setattr(mo, "_level_min", lambda *args: calls.append(args) or level_min(*args))
        val = mo.pure_deviation(alg, task, u)
    return val, calls


def full_scan(monkeypatch, alg, task, u) -> tuple[float, float]:
    """``searched``'s value and the certificate's Lipschitz bound ``lip``.
    B = -T1 (x) g_q0 and C = -T0 (x) g_q1, so ``lip`` is
    (|B|_F + |C|_F) (1 + 1e-9) up to rounding."""
    val, ((_, b, c, _),) = searched(monkeypatch, alg, task, u)
    return val, (np.linalg.norm(b) + np.linalg.norm(c)) * (1 + 1e-9)


def turned_dong(theta: float) -> mo.OracleAlgorithm:
    """dong d = 2 with its first fixed step turned by a rotation of angle
    ``theta`` between its first two basis states: a near-achiever."""
    alg = co.dong_cUd(2)
    first = alg.steps[0]
    turn = np.eye(len(first.op), dtype=complex)
    turn[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    steps = (mo.FixedStep(turn @ first.op, first.targets),) + alg.steps[1:]
    return mo.OracleAlgorithm("turned", 2, alg.layout, steps)


class TestFittedPhaseCertificate:
    """``pure_deviation`` returns its value at the fitted phase, without a
    search, when that value is at most ``lip * 4 * _REFINE_TOL``; any other
    input takes one level-set search from there."""

    @staticmethod
    def assert_certified(monkeypatch, alg, task, u):
        scanned, lip = full_scan(monkeypatch, alg, task, u)
        scans = []
        with monkeypatch.context() as m:
            m.setattr(mo, "_level_min", lambda *args: scans.append(args))
            val = mo.pure_deviation(alg, task, u)
        assert scans == []
        assert val <= lip * 4 * mo._REFINE_TOL
        assert abs(val - scanned) <= 1e-12

    @pytest.mark.parametrize("name", ["dong", "spin-echo"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_builder_achievers(self, monkeypatch, name, d):
        # the builders that achieve a controlled-power task: dong and
        # spin-echo, of c-U^d (kitaev achieves none)
        alg = co.BUILDERS[name](d)
        for s in range(3):
            self.assert_certified(monkeypatch, alg, mo.cum_task(d, d), la.haar_unitary(d, 990 + s))

    def test_power_2_4(self, monkeypatch):
        self.assert_certified(monkeypatch, co.power_cUm(2, 4), mo.cum_task(2, 4),
                              la.haar_unitary(2, 993))

    @pytest.mark.parametrize("phase", [np.pi - 1e-6, np.pi + 1e-6, 0.1])
    def test_composed_root_across_the_cut(self, monkeypatch, phase):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        self.assert_certified(monkeypatch, ev, mo.cum_task(2, 1),
                              np.diag([1, np.exp(1j * phase)]).astype(complex))

    @pytest.mark.parametrize("theta", [1e-6, 1e-10, 1e-12])
    def test_near_achievers_scan_as_before(self, monkeypatch, theta):
        # deviations of about 0.68 theta, above the certificate bound (5.7e-14
        # here): one search, whose value is the search's alone, bit for bit
        alg, task, u = turned_dong(theta), mo.cum_task(2, 2), la.haar_unitary(2, 5)
        scanned, _ = full_scan(monkeypatch, alg, task, u)
        level_min, scans = mo._level_min, []
        with monkeypatch.context() as m:
            m.setattr(mo, "_level_min", lambda *args: scans.append(args) or level_min(*args))
            val = mo.pure_deviation(alg, task, u)
        assert len(scans) == 1
        assert val.hex() == scanned.hex()
        assert 0.5 * theta <= val <= theta

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_bound_returns_the_fit(self, monkeypatch, d):
        # X on the control leaves no overlap with either control block of
        # c-U^1: the garbage fit is zero, so is the Lipschitz bound, and the
        # deviation is the same at every phase, returned with no search
        alg, task, u = control_flip(d), mo.cum_task(d, 1), la.haar_unitary(d, 994)
        scanned = per_phase_deviation(alg, task, u, mo.PHASE_GRID)
        scans = []
        with monkeypatch.context() as m:
            m.setattr(mo, "_level_min", lambda *args: scans.append(args))
            val = mo.pure_deviation(alg, task, u)
        assert scans == []
        assert abs(val - scanned) <= 1e-12


def kicked_dong(d: int, eps: float, seed: int) -> mo.OracleAlgorithm:
    """dong with one fixed step, chosen by ``seed``, multiplied by
    exp(i eps H) for a random Hermitian H: a near-achiever."""
    alg = co.dong_cUd(d)
    steps = list(alg.steps)
    fixed = [i for i, step in enumerate(steps) if isinstance(step, mo.FixedStep)]
    i = fixed[seed % len(fixed)]
    n = len(steps[i].op)
    x = np.random.default_rng(seed).standard_normal((2, n, n))
    lam, v = np.linalg.eigh(x[0] + 1j * x[1] + la.dagger(x[0] + 1j * x[1]))
    steps[i] = mo.FixedStep((v * np.exp(1j * eps * lam)) @ la.dagger(v) @ steps[i].op,
                            steps[i].targets)
    return mo.OracleAlgorithm("kicked", d, alg.layout, tuple(steps))


class TestLevelSets:
    """``_level_min``: the squared pencil, then the Jordan-Wielandt one."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("d", [2, 3])
    def test_near_achievers(self, d, k, seed):
        # eps from 1e-2 down to 1e-12: there the squared pencil alone ends
        # up to 5e-11 above the minimum, which the second pencil recovers
        alg, task = kicked_dong(d, 10.0 ** (-2 - 1.25 * k), seed), mo.cum_task(d, d)
        u = la.haar_unitary(d, 3700 + seed)
        assert mo.pure_deviation(alg, task, u) <= per_phase_deviation(alg, task, u, 64) + 1e-15

    @staticmethod
    def assert_minimum(a, b, c, start):
        """The search from phase ``start`` against a dense evaluation of
        10^4 phases and against the golden-section reference."""
        def f(phis):
            e = np.exp(1j * phis)[..., None, None]
            return la.gram_spectral_norm(a + e * b + e.conj() * c)

        z = np.exp(1j * start)
        val = mo._level_min(a, b, c, float(la.gram_spectral_norm(a + z * b + z.conj() * c)))
        assert val <= f(np.linspace(-np.pi, np.pi, 10 ** 4, endpoint=False)).min() + 1e-15 * (1 + val)
        assert abs(val - golden_phase_min(f, 4096)) <= 1e-12

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(h=st.integers(1, 4), rows=st.lists(st.integers(0, 3), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 16))
    def test_drawn_families(self, h, rows, seed):
        # B and C on disjoint row blocks, any further rows of A alone
        rng = np.random.default_rng(seed)
        rb, rc, ra = rows
        x = rng.standard_normal((2, 3, rb + rc + ra + 1, h))
        a, b, c = x[0] + 1j * x[1]
        b[rb:], c[:rb], c[rb + rc:] = 0, 0, 0
        self.assert_minimum(a, b, c, rng.uniform(-np.pi, np.pi))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(h=st.integers(1, 4), rows=st.lists(st.integers(0, 3), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 16), depth=st.sampled_from([1.0, 1e-4, 1e-9, 1e-13]))
    def test_deep_minima(self, h, rows, seed, depth):
        # pure_deviation's structure: B and C on disjoint row blocks and
        # disjoint column blocks, so M(z) is A0 + conj(z) C0 beside A1 + z B1,
        # with M pushed down to ``depth`` at a random phase, where every
        # singular value is small (README "Tolerances" on rows alone)
        rng = np.random.default_rng(seed)
        rb, rc, ra = rows
        x = rng.standard_normal((2, 3, rb + rc + ra + 1, h))
        a, b, c = x[0] + 1j * x[1]
        b[rb:], b[:, :h // 2], c[:rb], c[rb + rc:], c[:, h // 2:] = 0, 0, 0, 0, 0
        z0 = np.exp(1j * rng.uniform(-np.pi, np.pi))
        self.assert_minimum(depth * a - z0 * b - z0.conj() * c, b, c, rng.uniform(-np.pi, np.pi))

    @pytest.mark.parametrize("h", [1, 3])
    def test_constant_family(self, h):
        # B = C = 0: the value is the same at every phase, and at h = 1 the
        # squared pencil's leading coefficient |A|^2 - gamma^2 is often
        # exactly 0, which ends the search at the value it started from
        a = np.random.default_rng(h).standard_normal((4, h)) + 0j
        zero, value = np.zeros_like(a), float(la.gram_spectral_norm(a))
        assert mo._level_min(a, zero, zero, value) == value

    @pytest.mark.parametrize("name", ["dong", "kitaev", "spin-echo"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_blocks_are_disjoint(self, monkeypatch, name, d):
        # the squared pencil is exact because C^dagger B = 0: B lies on the
        # control-1 output and input blocks and C on the control-0 ones, exactly
        alg, u = co.BUILDERS[name](d), la.haar_unitary(d, 985)
        tasks = [t for t in compatible_tasks(alg, d) if t.control_power is not None]
        assert tasks
        for task in tasks:
            _, calls = searched(monkeypatch, alg, task, u)
            for _, b, c, _ in calls:
                assert not (la.dagger(c) @ b).any()
                assert not (b @ la.dagger(c)).any()


def control_flip(d: int) -> mo.OracleAlgorithm:
    layout = RegisterLayout.of([2, d], ["control", "task"])
    return mo.OracleAlgorithm("control-flip", d, layout, (mo.FixedStep(X, (0,)),))


def constant_circuit(d: int) -> mo.OracleAlgorithm:
    layout = RegisterLayout.of([2, d], ["control", "task"])
    return mo.OracleAlgorithm("constant", d, layout,
                              (mo.FixedStep(np.eye(2 * d, dtype=complex), (0, 1)),))


def per_phase_deviation(alg, task, u, grid):
    """``pure_deviation`` phase by phase: the least-squares garbage for each
    task member and the spectral norm of the full deviation."""
    bp = mo.out_split(alg, alg.task_block(u))
    big_t = bp.transpose(0, 2, 1).reshape(-1, bp.shape[1])

    def dev(t_mat):
        vec = t_mat.reshape(-1)
        g = (vec.conj() @ big_t) / np.linalg.norm(vec) ** 2
        return la.spectral_norm((bp - np.einsum("yx,k->ykx", t_mat, g)).reshape(-1, bp.shape[2]))

    if task.control_power is None:
        return dev(task.base(u))
    return golden_phase_min(lambda phis: np.array([dev(task.member(u, p)) for p in phis]), grid)


def per_phase_eps(alg, task, u, n_samples, grid):
    """``eps_distance_estimate`` phase by phase: the trace distance to the
    full target member rho member^dagger at each phase."""
    exact = mo.check_exact(alg, task, u)
    worst = 0.0
    for rho in mo._state_family(alg, task, n_samples, 0):
        out, tr = mo.apply_channel(alg, u, rho)

        def dist(p):
            member = task.member(u, p)
            return la.trace_norm(out / tr - member @ rho @ la.dagger(member))

        if exact.achieved or task.control_power is None:
            val = dist(exact.phase)
        else:
            val = golden_phase_min(lambda phis: np.array([dist(p) for p in phis]), grid)
        worst = max(worst, val)
    return worst


def stacked_phase_eps(alg, task, u, n_samples, grid):
    """``per_phase_eps`` with the phases of each call stacked: the trace
    distance to the full target member rho member^dagger, by SVD, every
    phase of a call in one stack, one scan per state.  member(phi) =
    A + e^{i phi} B is read off the members at 0 and pi."""
    exact = mo.check_exact(alg, task, u)
    rhos = mo._state_family(alg, task, n_samples, 0)
    sigma = np.stack([out / tr for out, tr in (mo.apply_channel(alg, u, rho) for rho in rhos)])
    if exact.achieved or task.control_power is None:
        member = task.member(u, exact.phase)
        return la.trace_norm(sigma - member @ rhos @ la.dagger(member)).max()
    m0, m1 = task.member(u, 0.0), task.member(u, np.pi)

    def dist(s, p):
        member = (m0 + m1) / 2 + np.exp(1j * p)[:, None, None] * (m0 - m1) / 2
        return la.trace_norm(sigma[s] - member @ rhos[s] @ la.dagger(member))

    return max(golden_phase_min(lambda p, s=s: dist(s, p), grid) for s in range(len(rhos)))


def eps_affine_min(alg, task, u, n_samples, grid=mo.PHASE_GRID):
    """eps of a controlled-power non-achiever by a phase scan instead of the
    secular equation: ``golden_phase_min`` on each state's defect
    X0 - e^{i phi} X1 - e^{-i phi} X1^dagger, every state at once."""
    rhos = mo._state_family(alg, task, n_samples, 0)
    outs, trs = mo._channel_from_block(alg, alg.task_block(u), rhos)
    t0, t1 = mo._affine_member(task, u)
    x1s = (t1 @ rhos @ la.dagger(t0))[:, None]
    x0s = (outs / trs[:, None, None] - t0 @ rhos @ la.dagger(t0) - t1 @ rhos @ la.dagger(t1))[:, None]

    def defect_norm(phis):  # (S, k) values at phases broadcasting to (S, k)
        e = np.exp(1j * phis)[..., None, None]
        return la.hermitian_trace_norm(x0s - e * x1s - e.conj() * la.dagger(x1s))

    return golden_phase_min(defect_norm, grid).max()


def compatible_tasks(alg, d):
    tasks = [mo.cum_task(d, d), mo.cum_task(d, 1), mo.cum_task(d, -1),
             mo.conjugation_task(d), mo.transpose_task(d), mo.inverse_task(d)]
    out = []
    for task in tasks:
        try:
            mo._check_compat(alg, task)
        except ValueError:
            continue
        out.append(task)
    return out


class TestPhaseScanEquivalence:
    """pure_deviation's level-set search runs on reduced matrices, and eps
    on its secular equation; both match the per-phase formulas, scanned on a
    grid of 100 phases and refined by a golden section, to 1e-12."""

    GRID = 100

    def assert_match(self, alg, task, u, eps=True, grid=GRID):
        assert abs(mo.pure_deviation(alg, task, u, grid=grid)
                   - per_phase_deviation(alg, task, u, grid)) <= 1e-12
        if eps:
            assert abs(mo.eps_distance_estimate(alg, task, u, n_samples=2, grid=grid)
                       - per_phase_eps(alg, task, u, 2, grid)) <= 1e-12

    # the neutraliser has no task register, so no task applies to it
    @pytest.mark.parametrize("name", sorted(set(co.BUILDERS) - {"neutraliser"}))
    @pytest.mark.parametrize("d", [2, 3])
    def test_builders(self, name, d):
        alg = co.BUILDERS[name](d)
        tasks = compatible_tasks(alg, d)
        assert tasks
        u = la.haar_unitary(d, 950 + d)
        for task in tasks:
            self.assert_match(alg, task, u)

    def test_power_2_4(self):
        alg = co.power_cUm(2, 4)
        for m in (4, 2):
            self.assert_match(alg, mo.cum_task(2, m), la.haar_unitary(2, 960))

    def test_dong_d4_deviation(self):
        alg, u = co.dong_cUd(4), la.haar_unitary(4, 961)
        for m in (4, 1):
            self.assert_match(alg, mo.cum_task(4, m), u, eps=False)

    @pytest.mark.parametrize("theta", [np.pi - 1e-6, np.pi + 1e-6])
    def test_composed_root_across_cut(self, theta):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        u = np.diag([1, np.exp(1j * theta)]).astype(complex)
        for m in (1, 2):
            self.assert_match(ev, mo.cum_task(2, m), u)

    def test_ancilla_outside_garbage_span(self):
        # a Haar-random step on every factor spreads the output over the whole
        # three-dimensional ancilla, off the span of the two garbage parts
        layout = RegisterLayout.of([2, 2, 3], ["control", "task", "anc"])
        alg = mo.OracleAlgorithm("scrambled", 2, layout, (
            mo.QueryStep(mo.ID, (1,)), mo.FixedStep(la.haar_unitary(12, 963), (0, 1, 2))))
        for m in (1, 2):
            self.assert_match(alg, mo.cum_task(2, m), la.haar_unitary(2, 964))

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_circuit(self, d):
        # never an achiever, so both estimators scan the phase
        self.assert_match(constant_circuit(d), mo.cum_task(d, 1), la.haar_unitary(d, 962),
                          grid=mo.PHASE_GRID)


class TestSecularPhase:
    """eps of a controlled-power oracle takes each state's phase from the
    secular equation of its rank-one defect, with no phase search, and
    matches a full scan of 4,096 phases per state, refined by a golden
    section (an achiever's fixed member), to 1e-12."""

    GRID = 4096

    def assert_dense(self, monkeypatch, alg, task, u) -> float:
        scans = []
        with monkeypatch.context() as m:
            m.setattr(mo, "_level_min", lambda *args: scans.append(args))
            val = mo.eps_distance_estimate(alg, task, u, n_samples=2)
        assert scans == []
        assert abs(val - stacked_phase_eps(alg, task, u, 2, self.GRID)) <= 1e-12
        return val

    def test_stacked_reference_is_per_phase_eps(self):
        # the reference with stacked phases against per_phase_eps, one phase
        # per call, on every builder and task that scans at d = 2, at 100
        # phases
        u = la.haar_unitary(2, 972)
        scanned = 0
        for name in ("dong", "kitaev", "spin-echo"):
            alg = co.BUILDERS[name](2)
            for task in compatible_tasks(alg, 2):
                if task.control_power is not None and not mo.check_exact(alg, task, u).achieved:
                    scanned += 1
                    assert abs(stacked_phase_eps(alg, task, u, 2, 100)
                               - per_phase_eps(alg, task, u, 2, 100)) <= 1e-13
        assert scanned == 7  # dong's c-U^+-1, kitaev's three, spin-echo's c-U^+-1

    # the neutraliser has no task register, so no task applies to it
    @pytest.mark.parametrize("name", sorted(set(co.BUILDERS) - {"neutraliser"}))
    @pytest.mark.parametrize("d", [2, 3])
    def test_builders(self, monkeypatch, name, d):
        alg = co.BUILDERS[name](d)
        tasks = compatible_tasks(alg, d)
        assert tasks
        u = la.haar_unitary(d, 970 + d)
        for task in tasks:
            self.assert_dense(monkeypatch, alg, task, u)

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_circuit(self, monkeypatch, d):
        # against the dense scan and against a golden-section scan of each
        # state's defect
        alg, task, u = constant_circuit(d), mo.cum_task(d, 1), la.haar_unitary(d, 975)
        val = self.assert_dense(monkeypatch, alg, task, u)
        assert abs(val - eps_affine_min(alg, task, u, 2)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_scrambled_program(self, monkeypatch, seed):
        # a Haar-random step on the control, the task and a two-dimensional
        # ancilla: unlike the builders' outputs, these make the best phase
        # depend on mu.  At a mu that ignores the term 2 |sum w q|, each
        # seed's eps is off by 2e-8 to 8e-7 at m = 1 or 2
        layout = RegisterLayout.of([2, 2, 2], ["control", "task", "anc"])
        alg = mo.OracleAlgorithm("scrambled", 2, layout, (
            mo.QueryStep(mo.ID, (1,)), mo.FixedStep(la.haar_unitary(8, 963 + seed), (0, 1, 2))))
        for m in (1, 2):
            self.assert_dense(monkeypatch, alg, mo.cum_task(2, m), la.haar_unitary(2, 964 + seed))

    @pytest.mark.parametrize("theta", [1e-3, 1e-6])
    def test_turned_dong(self, monkeypatch, theta):
        # near-achievers, their eps about 0.8 theta^2
        alg, task, u = turned_dong(theta), mo.cum_task(2, 2), la.haar_unitary(2, 5)
        assert not mo.check_exact(alg, task, u).achieved
        val = self.assert_dense(monkeypatch, alg, task, u)
        assert 0.1 * theta ** 2 <= val <= theta ** 2

    def test_oracle_off_the_unitaries(self, monkeypatch):
        # a near-achiever at an oracle scaled by 1 + 3e-12, eps about 1.2e-11:
        # there sum w p and 2 |sum w q| cancel, so only the trace norm at the
        # chosen phase, not 2 mu plus the trace, holds 1e-12
        alg, task = turned_dong(1e-6), mo.cum_task(2, 2)
        u = la.haar_unitary(2, 5) * (1 + 3e-12)
        val = self.assert_dense(monkeypatch, alg, task, u)
        assert 1e-12 <= val <= 1e-10

    def test_grid_does_not_change_the_value(self):
        alg, task, u = constant_circuit(2), mo.cum_task(2, 1), la.haar_unitary(2, 5)
        vals = [mo.eps_distance_estimate(alg, task, u, n_samples=2, grid=g) for g in (1, 16, 720)]
        assert vals[0] == vals[1] == vals[2]


def fixed_member_eps(alg, task, u, n_samples):
    """eps of an exact achiever against its fixed member, the task member at
    ``check_exact``'s phase: the max over states of the defect's trace norm."""
    res = mo.check_exact(alg, task, u)
    assert res.achieved
    rhos = mo._state_family(alg, task, n_samples, 0)
    out, tr = mo._channel_from_block(alg, alg.task_block(u), rhos)
    t = task.member(u, res.phase)
    return float(np.max(la.hermitian_trace_norm(out / tr[:, None, None]
                                                - t @ rhos @ la.dagger(t))))


# exact achievers: builder name, d, and the m of the controlled power they
# achieve, or None for the inverse
ACHIEVERS = [("dong", 2, 2), ("dong", 3, 3), ("spin-echo", 2, 2), ("spin-echo", 3, 3),
             ("power", 2, 4), ("power", 2, -2), ("inverse", 3, None)]


class TestEpsWithoutExactCheck:
    """eps runs no exact check: achievers take their phases from the same
    secular equation as every other controlled-power oracle, and a task
    without a phase family compares with its base."""

    def test_no_exact_check(self, monkeypatch):
        alg, task = co.dong_cUd(2), mo.cum_task(2, 2)
        us = np.stack(la.haar_unitaries(2, 3, 980))
        want = mo.eps_distance_estimate(alg, task, us, n_samples=2)

        def check(*args):
            raise AssertionError("eps ran an exact check")

        monkeypatch.setattr(mo, "_exact_from_block", check)
        np.testing.assert_array_equal(mo.eps_distance_estimate(alg, task, us, n_samples=2), want)
        assert np.all(want <= 1e-9)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=st.sampled_from(ACHIEVERS), seed=st.integers(0, 2 ** 32 - 1),
           n_samples=st.integers(0, 8))
    def test_achievers_match_their_fixed_member(self, case, seed, n_samples):
        name, d, m = case
        alg, task = co.build(name, d, m), mo.inverse_task(d) if m is None else mo.cum_task(d, m)
        u = la.haar_unitary(d, seed)
        val = mo.eps_distance_estimate(alg, task, u, n_samples=n_samples)
        assert abs(val - fixed_member_eps(alg, task, u, n_samples)) <= 1e-15


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_x1_has_rank_at_most_one(self, d):
        # the eps Lipschitz bound 2 |X1|_F is 2 |X1|_* because every X1 of
        # the state family has rank at most one, and X1 of I/h is zero
        alg, task = co.dong_cUd(d), mo.cum_task(d, d)
        rhos = mo._state_family(alg, task, 8, 0)
        t0, t1 = mo._affine_member(task, la.haar_unitary(d, 964))
        x1 = t1 @ rhos @ la.dagger(t0)
        assert np.array_equal(rhos[alg.h_dim], np.eye(alg.h_dim) / alg.h_dim)
        assert not x1[alg.h_dim].any()
        svals = np.linalg.svd(x1, compute_uv=False)
        assert np.all(svals[:, 1] <= 1e-12 * svals[:, 0])
        assert np.count_nonzero(svals[:, 0]) == len(rhos) - 1 - alg.h_dim

    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_one_phase_minimisation_for_all_states(self, monkeypatch, n_samples):
        # every state's phase is chosen in the same pass, and every (oracle,
        # state) defect at its phase goes to one trace-norm call: one call
        # per over_stack slice, here three oracles in one slice, then in
        # slices of one
        calls = []
        original = la.hermitian_trace_norm
        monkeypatch.setattr(la, "hermitian_trace_norm",
                            lambda m: calls.append(m.shape) or original(m))
        alg, task = constant_circuit(2), mo.cum_task(2, 1)
        us = np.stack(la.haar_unitaries(2, 3, 5))
        whole = mo.eps_distance_estimate(alg, task, us, n_samples=n_samples, grid=16)
        states = len(mo._state_family(alg, task, n_samples, 0))
        assert calls == [(3, states, alg.h_dim, alg.h_dim)]
        calls.clear()
        monkeypatch.setattr(mo, "SLICE_ENTRIES", mo._eps_width(alg, states))
        sliced = mo.eps_distance_estimate(alg, task, us, n_samples=n_samples, grid=16)
        assert calls == [(1, states, alg.h_dim, alg.h_dim)] * 3
        np.testing.assert_array_equal(sliced, whole)

    @pytest.mark.parametrize("grid", [0, -4])
    @pytest.mark.parametrize("case", ["dong-achiever", "conjugation"])
    def test_grid_below_one_refused_without_a_phase_choice(self, case, grid):
        # neither input chooses a phase: dong d = 2 achieves c-U^2, and
        # conjugation has no phase family; grid 1 gives a value
        alg, task = {"dong-achiever": (co.dong_cUd(2), mo.cum_task(2, 2)),
                     "conjugation": (co.conjugation(3), mo.conjugation_task(3))}[case]
        u = la.haar_unitary(alg.oracle_dim, 5)
        with pytest.raises(ValueError, match=rf"^the phase grid needs at least 1 phase, got grid={grid}$"):
            mo.eps_distance_estimate(alg, task, u, n_samples=1, grid=grid)
        assert mo.eps_distance_estimate(alg, task, u, n_samples=1, grid=1) <= 1e-9

    @pytest.mark.parametrize("call", ["eps", "exact-and-eps"])
    def test_negative_samples_refused(self, call):
        # numpy would refuse the state family's shape; zero samples leave the
        # basis states, I/h and the plus-control states
        alg, task, u = co.dong_cUd(2), mo.cum_task(2, 2), la.haar_unitary(2, 5)
        run = {"eps": lambda n: mo.eps_distance_estimate(alg, task, u, n_samples=n),
               "exact-and-eps": lambda n: mo._exact_and_eps(alg, task, u, mo.EXACT_TOL, n, 0)[1]}
        with pytest.raises(ValueError, match=r"^the state family needs n_samples >= 0, got n_samples=-1$"):
            run[call](-1)
        assert run[call](0) <= 1e-9

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

    @pytest.mark.parametrize("path", ["achiever", "phase-grid"])
    def test_program_evaluated_once(self, path, monkeypatch):
        # the exact check inside the estimator reuses its zero-ancilla block
        if path == "achiever":
            alg, task = co.dong_cUd(2), mo.cum_task(2, 2)
        else:  # a constant circuit never achieves c-U, so the phase is scanned
            layout = RegisterLayout.of([2, 2], ["control", "task"])
            alg = mo.OracleAlgorithm("constant", 2, layout,
                                     (mo.FixedStep(np.eye(4, dtype=complex), (0, 1)),))
            task = mo.cum_task(2, 1)
        calls = []
        apply_cols = mo.OracleAlgorithm.apply_cols

        def counting(self, u, cols):
            calls.append(u)
            return apply_cols(self, u, cols)

        monkeypatch.setattr(mo.OracleAlgorithm, "apply_cols", counting)
        val = mo.eps_distance_estimate(alg, task, la.haar_unitary(2, 43), n_samples=1, grid=16)
        assert len(calls) == 1
        assert (val > 1e-3) == (path == "phase-grid")


class TestNeutralise:
    def test_neutraliser_passes(self):
        alg = co.neutraliser_parallel(2)
        us = la.haar_unitaries(2, 20, 3)
        res = mo.check_neutralises(alg, us)
        assert res.passed
        assert abs(res.r - 1.0) < 1e-10
        for u, phi in zip(us, res.phases):
            assert wrap_diff(phi, np.angle(np.linalg.det(u))) < 1e-8

    def test_one_pass_over_the_oracles(self, monkeypatch):
        calls = []
        apply_cols = mo.OracleAlgorithm.apply_cols

        def counting(self, u, cols):
            calls.append(np.shape(u))
            return apply_cols(self, u, cols)

        monkeypatch.setattr(mo.OracleAlgorithm, "apply_cols", counting)
        alg, us = co.neutraliser_parallel(2), la.haar_unitaries(2, 5, 11)
        res = mo.check_neutralises(alg, us)
        assert res.passed and len(res.phases) == 5
        assert calls == [(5, 2, 2)]
        # the stacked pass against one apply_cols per oracle
        e0 = la.basis_state(alg.total_dim, 0)
        for u, r, phi, resid in zip(us, res.r_values, res.phases, res.residuals):
            v = alg.apply_cols(u, e0)
            assert abs(r - abs(v[0])) <= 1e-14 and wrap_diff(phi, np.angle(v[0])) <= 1e-14
            assert abs(resid - np.linalg.norm(v - v[0] * e0)) <= 1e-14

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

    @pytest.mark.parametrize("us,reason", [
        ([np.eye(2), X], "r varies with the oracle"),
        ([X, X], "r outside (0, 1]"),
    ], ids=["r-varies", "r-zero"])
    def test_failure_reasons(self, us, reason):
        # the output stays on the all-zero ray with r = |U[0, 0]|
        res = mo.check_neutralises(postselect_to_zero(2), us)
        assert not res.passed and res.reason == reason

    def test_single_oracle_is_the_stack_of_one(self):
        alg, u = co.neutraliser_parallel(2), la.haar_unitary(2, 12)
        res = mo.check_neutralises(alg, u)
        assert res.passed and len(res.phases) == 1
        assert res == mo.check_neutralises(alg, [u])


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

    def test_garbage_norm_varies(self):
        # conjugation with one more query on an ancilla postselected on |0>:
        # still exact, but the garbage carries the factor U[0, 0]
        layout = RegisterLayout.of([2, 2], ["task", "anc"])
        steps = co.conjugation(2).steps + (mo.QueryStep(mo.ID, (1,)),)
        alg = mo.OracleAlgorithm("conjugation-leaky", 2, layout, steps,
                                 projector=(co.zero_projector(2), (1,)))
        res = mo.check_clean(alg, mo.conjugation_task(2), la.haar_unitaries(2, 4, 13))
        assert not res.clean and res.reason == "garbage norm varies with the oracle"

    def test_single_oracle_is_the_stack_of_one(self):
        u = la.haar_unitary(2, 14)
        assert mo.check_clean(co.dong_cUd(2), mo.cum_task(2, 2), u).clean
        assert not mo.check_clean(co.kitaev_cswap(2), mo.cum_task(2, 1), u).clean


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

    def test_root_composed_has_no_query_count(self):
        ev = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))
        u, v = la.haar_unitaries(2, 2, 63)
        with pytest.raises(ValueError, match="root-composed has no query count"):
            mo.lipschitz_check(ev, u, v)

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


def _assert_writes_json_dump(alg, tmp_path) -> str:
    """write_ir's file holds what json.dump writes for to_ir; returns it."""
    ref = io.StringIO()
    json.dump(mo.to_ir(alg), ref)
    path = tmp_path / "alg.json"
    mo.write_ir(alg, path)
    text = path.read_text()
    same = text == ref.getvalue()
    assert same  # not a string comparison: a diff of a large IR takes minutes
    return text


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

    @pytest.mark.parametrize("name", sorted(co.BUILDERS) + ["power"])
    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=3, derandomize=True, deadline=None)
    @given(label=st.text(max_size=12))
    def test_ir_bytes_roundtrip(self, name, d, label):
        # every float, signed zeros included, and any program name survive
        alg = co.build(name, d, 2 * d if name == "power" else None)
        alg.name = label
        text = json.dumps(mo.to_ir(alg))
        same = json.dumps(mo.to_ir(mo.from_ir(json.loads(text)))) == text
        assert same  # not a string comparison: a diff of a large IR takes minutes

    @pytest.mark.parametrize("name,d", [(n, d) for n in sorted(co.BUILDERS) for d in (2, 3)]
                             + [("power", 2)]
                             + [(n, 4) for n in ("conjugation", "dong", "kitaev", "neutraliser",
                                                 "transpose", "power")])
    def test_write_ir_bytes_match_json_dump(self, name, d, tmp_path):
        _assert_writes_json_dump(co.build(name, d, 2 * d if name == "power" else None), tmp_path)

    def test_write_ir_bytes_dense_haar_step(self, tmp_path):
        # every entry its own value: no repeats for the writer to share
        layout = RegisterLayout.of([2, 4, 4], ["control", "task", "anc"])
        alg = mo.OracleAlgorithm("haar", 4, layout, (
            mo.FixedStep(la.haar_unitary(32, 5), (0, 1, 2)), mo.QueryStep(mo.ID, (1,))))
        _assert_writes_json_dump(alg, tmp_path)

    def test_write_ir_bytes_keep_signed_zeros(self, tmp_path):
        op = np.array([[1.0, -0.0], [-0.0, 1.0]], dtype=complex)
        op.imag[0, 0] = op.imag[1, 0] = -0.0
        alg = mo.OracleAlgorithm("zeros", 2, RegisterLayout.of([2], ["task"]),
                                 (mo.FixedStep(op, (0,)), mo.QueryStep(mo.ID, (0,))))
        text = _assert_writes_json_dump(alg, tmp_path)
        assert '"re": [[1.0, -0.0], [-0.0, 1.0]], "im": [[-0.0, 0.0], [-0.0, 0.0]]' in text

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(label=st.lists(st.sampled_from(["\x00", '"re": NaN', '"re": NaN, "im": NaN', "NaN",
                                           "true", '\\', '"', "re"]) | st.text(max_size=3),
                          max_size=6).map("".join))
    def test_write_ir_bytes_any_name(self, label):
        # the name may spell the writer's stub marker, escaped or not
        alg = co.build("transpose", 2)
        alg.name = label
        with tempfile.TemporaryDirectory() as tmp:
            _assert_writes_json_dump(alg, Path(tmp))

    def test_full_space_inline_projector_accepted(self):
        alg = co.transpose_via_teleport(2)
        ir = mo.to_ir(alg)
        full = la.embed(alg.projector[0], alg.projector[1], alg.layout)
        ir["projector"] = la.matrix_to_json(full)
        back = mo.from_ir(ir)
        u = la.haar_unitary(2, 71)
        np.testing.assert_allclose(back.eval(u), alg.eval(u), atol=1e-12)


class TestIrReader:
    """from_ir on a file skips the entry-type scan only when the file's text
    holds no JSON boolean, so booleans are rejected wherever they appear."""

    @pytest.mark.parametrize("where", [("steps", 0, "unitary"), ("projector", "matrix")])
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_entry_rejected(self, where, part, value, tmp_path):
        ir = mo.to_ir(co.build("transpose", 2))
        node = ir
        for key in where:
            node = node[key]
        node[part][1][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ir))
        with pytest.raises(ValueError, match="must be numbers"):
            mo.from_ir(path)

    @pytest.mark.parametrize("name", ["true", "false"])
    def test_boolean_literal_in_a_name_loads(self, name, tmp_path):
        alg = co.build("transpose", 2)
        alg.name = name
        path = tmp_path / "alg.json"
        mo.write_ir(alg, path)
        assert mo.to_ir(mo.from_ir(path)) == mo.to_ir(alg)

    @pytest.mark.parametrize("name,kind", [("transpose", np.ndarray), ("true", list)])
    def test_text_decides_the_scan(self, name, kind, tmp_path, monkeypatch):
        # text free of booleans hands every inline matrix's entries over as
        # arrays, which skip the scan; a boolean literal anywhere keeps lists
        alg = co.build("transpose", 2)
        alg.name = name
        path = tmp_path / "alg.json"
        mo.write_ir(alg, path)
        seen, float_entries = [], ir._float_entries
        monkeypatch.setattr(ir, "_float_entries",
                            lambda a, rows: seen.append(type(rows)) or float_entries(a, rows))
        from_file = mo.from_ir(path)
        assert seen and set(seen) == {kind}
        _assert_same_program(from_file, mo.from_ir(json.loads(path.read_text())))

    def test_external_matrix_file_decides_its_own_scan(self, tmp_path):
        ir = mo.to_ir(co.build("dong", 2))
        matrix = ir["steps"][0]["unitary"]
        matrix["re"][0][0] = True
        (tmp_path / "step.json").write_text(json.dumps(matrix))
        ir["steps"][0]["unitary"] = "step.json"
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(ir))
        assert "true" not in path.read_text() and "false" not in path.read_text()
        with pytest.raises(ValueError, match="must be numbers"):
            mo.from_ir(path)


def _drop(ir: dict, key: str) -> None:
    """Delete ``key`` from the first object of ``ir`` that holds it: the top
    level, a layout factor, a query step or a fixed step."""
    for node in [ir, *ir["layout"], *ir["steps"]]:
        if key in node and (key != "targets" or "query" in node):
            del node[key]
            return
    raise AssertionError(f"no {key!r} in the IR")


class TestIrMissingKeys:
    @pytest.mark.parametrize("key", ["layout", "steps", "d", "dim", "role", "targets", "unitary"])
    def test_missing_key_is_malformed(self, key):
        ir = mo.to_ir(co.build("dong", 2))
        _drop(ir, key)
        with pytest.raises(ValueError, match=f"^malformed circuit IR: missing key '{key}'$"):
            mo.from_ir(ir)


class TestIrStepKind:
    def test_query_step_with_a_unitary_is_malformed(self):
        # each step holds exactly one of the two; the step's index is named
        circuit = mo.to_ir(co.build("dong", 2))
        circuit["steps"][5]["unitary"] = la.matrix_to_json(np.eye(2))
        with pytest.raises(ValueError, match=r'^malformed circuit IR: step 5 holds both "query" '
                                             r"and \"unitary\", got \['query', 'targets', 'unitary'\]$"):
            mo.from_ir(circuit)


class TestIrReExports:
    """linalg and model re-export the circuit IR's public names as plain
    module attributes: perfbench's tracer swaps each one through its module's
    ``__dict__``, so a lazy re-export (a module ``__getattr__``) fails here."""

    @pytest.mark.parametrize("owner,name", [
        *(("linalg", n) for n in ("matrix_to_json", "float_array_json", "dumps_with_matrices",
                                  "iterdumps_with_matrices", "load_json", "matrix_from_json")),
        *(("model", n) for n in ("to_ir", "from_ir", "write_ir")),
    ])
    def test_eager_re_export(self, owner, name):
        module = {"linalg": la, "model": mo}[owner]
        assert getattr(module, name) is getattr(ir, name)
        assert name in vars(module)


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


class TestIrDeepValues:
    # a value nested deeper than the recursion limit, in an in-process dict
    # (a file that deep is refused by the JSON reader first): a malformed IR
    # that quotes a bounded prefix of the value, not a RecursionError
    @pytest.mark.parametrize("field,message", [
        ("name", '"name" must be a string'),
        ("targets", "step targets must be integers"),
        ("query", "unknown query letter"),
    ])
    def test_deeply_nested_value_is_malformed(self, field, message):
        ir = mo.to_ir(co.build("dong", 2))
        if field == "name":
            ir["name"] = _nested(5000)
        elif field == "targets":
            next(s for s in ir["steps"] if "query" not in s)["targets"] = _nested(5000)
        else:
            next(s for s in ir["steps"] if "query" in s)["query"] = _nested(5000)
        with pytest.raises(ValueError, match=rf"^malformed circuit IR: {message}(, got)? \[+\.\.\.\]+$"):
            mo.from_ir(ir)


def _assert_same_program(a: mo.OracleAlgorithm, b: mo.OracleAlgorithm) -> None:
    """The two programs hold the same fields, every matrix bit for bit."""
    def same_matrix(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    assert (a.name, a.oracle_dim, a.layout, a.task_out) == (b.name, b.oracle_dim, b.layout, b.task_out)
    assert [(type(s), s.targets) for s in a.steps] == [(type(t), t.targets) for t in b.steps]
    for s, t in zip(a.steps, b.steps):
        assert same_matrix(s.op, t.op) if isinstance(s, mo.FixedStep) else s.letter == t.letter
    assert (a.projector is None) == (b.projector is None)
    if a.projector is not None:
        assert same_matrix(a.projector[0], b.projector[0]) and a.projector[1] == b.projector[1]


BUILT = [(n, d) for n in sorted(co.BUILDERS) + ["power"] for d in (2, 3, 4)
         if not (n in ("inverse", "spin-echo") and d == 4)]


class TestIrFileReader:
    """A file's inline matrices become arrays as their JSON objects close;
    the program and every error are those of the dict json.loads gives."""

    @pytest.mark.parametrize("name,d", BUILT)
    def test_file_is_the_parsed_dict(self, name, d, tmp_path):
        path = tmp_path / "alg.json"
        mo.write_ir(co.build(name, d, 2 * d if name == "power" else None), path)
        _assert_same_program(mo.from_ir(path), mo.from_ir(json.loads(path.read_text())))

    def test_external_matrix_file_is_the_parsed_dict(self, tmp_path):
        ir = mo.to_ir(co.build("dong", 3))
        (tmp_path / "step.json").write_text(json.dumps(ir["steps"][0]["unitary"]))
        ir["steps"][0]["unitary"] = "step.json"
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(ir))
        parsed = json.loads(path.read_text())
        parsed["steps"][0]["unitary"] = json.loads((tmp_path / "step.json").read_text())
        _assert_same_program(mo.from_ir(path), mo.from_ir(parsed))

    @pytest.mark.parametrize("kind", sorted(MALFORMED_IR))
    def test_malformed_file_fails_as_the_parsed_dict(self, kind, tmp_path):
        mutate, _ = MALFORMED_IR[kind]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(mo.to_ir(co.build("dong", 2)))))
        with pytest.raises(Exception) as from_dict:
            mo.from_ir(json.loads(path.read_text()))
        with pytest.raises(type(from_dict.value)) as from_file:
            mo.from_ir(path)
        assert str(from_file.value) == str(from_dict.value)


def _traced_peak(f) -> int:
    """The peak of the memory traced while ``f()`` runs, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIrMemory:
    """IR files are read and written about one matrix at a time.  Each
    program is read or written once untraced first: np.unique's first call
    imports numpy.ma, about 1 MB."""

    def test_from_ir_peak(self, tmp_path):
        # a json.loads that holds every float of the 1.5 MB file at once peaks at 12.4 MB
        path = tmp_path / "dong4.json"
        mo.write_ir(co.build("dong", 4), path)
        mo.from_ir(path)
        assert _traced_peak(lambda: mo.from_ir(path)) <= 9e6

    def test_write_ir_peak(self, tmp_path):
        # joining the whole text before writing it peaks at 4.5 MB
        alg, path = co.build("dong", 4), tmp_path / "dong4.json"
        mo.write_ir(alg, path)
        assert _traced_peak(lambda: mo.write_ir(alg, path)) <= 3e6


class TestSliceMemory:
    """Each stacked checker keeps its slices within the SLICE_ENTRIES budget:
    64 dong d = 4 oracles (64 neutraliser d = 4 oracles for
    check_neutralises) peak at most at twice the budget, in bytes.  Each
    call runs once untraced first."""

    BOUND = 2 * mo.SLICE_ENTRIES * 16

    @pytest.mark.parametrize("check", ["check_exact", "success_prob", "eps", "extract_h",
                                       "extract_fplus"])
    def test_dong_d4_peak(self, check):
        # sized by the block alone, check_exact peaked at 88.5 MiB, eps at
        # 47.1 MiB and success_prob at 32.3 MiB
        alg, task = co.build("dong", 4), mo.cum_task(4, 4)
        us = np.stack(la.haar_unitaries(4, 64, 7))
        run = {"check_exact": lambda: mo.check_exact(alg, task, us),
               "success_prob": lambda: mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0)),
               "eps": lambda: mo.eps_distance_estimate(alg, task, us, n_samples=2),
               "extract_h": lambda: tp.extract_h(alg, us, 4),
               "extract_fplus": lambda: tp.extract_fplus(alg, us, 4)}[check]
        run()
        assert _traced_peak(run) <= self.BOUND

    def test_neutraliser_d4_peak(self):
        alg, us = co.build("neutraliser", 4), np.stack(la.haar_unitaries(4, 64, 7))
        mo.check_neutralises(alg, us)
        assert _traced_peak(lambda: mo.check_neutralises(alg, us)) <= self.BOUND


class TestIrWriter:
    def test_dumps_with_matrices_joins_the_written_pieces(self, tmp_path):
        alg, path = co.build("spin-echo", 3), tmp_path / "alg.json"
        mo.write_ir(alg, path)
        assert la.dumps_with_matrices(lambda matrix: ir._ir(alg, matrix)) == path.read_text()

    def test_failed_write_keeps_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "alg.json"
        path.write_text("old")

        def no_skeleton(alg, matrix):
            raise RuntimeError("no skeleton")

        monkeypatch.setattr(ir, "_ir", no_skeleton)
        with pytest.raises(RuntimeError, match="no skeleton"):
            mo.write_ir(co.build("dong", 2), path)
        assert path.read_text() == "old"


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

    @staticmethod
    def _wide(op, targets=(0, 1, 2, 3)) -> mo.OracleAlgorithm:
        """A program of one fixed step on a (4, 4, 4, 4) register, 256 states."""
        return mo.OracleAlgorithm("bad", 4, RegisterLayout.of([4, 4, 4, 4]),
                                  (mo.FixedStep(op, targets),))

    @pytest.mark.parametrize("entry", [(5, 200), (200, 5), (5, 5)])
    @pytest.mark.parametrize("eps,accepted", [(1e-9, False), (2e-10, False), (2e-11, True)])
    def test_perturbed_identity_row(self, entry, eps, accepted):
        # one entry off the identity: the step is checked on its moved block
        # ({5, 200} or {5}) with the same predicate as the whole 256 x 256 op
        op = np.eye(256, dtype=complex)
        op[entry] += eps
        if accepted:
            self._wide(op)
            return
        with pytest.raises(ValueError) as exc:
            self._wide(op)
        assert str(exc.value) == "fixed step in bad is not unitary to tolerance 1e-10"

    def test_identity_step_moves_nothing(self):
        # an identity step compiles to no stage, and the empty plan still
        # returns a fresh array, never the caller's columns
        alg = self._wide(np.eye(256, dtype=complex))
        assert alg._plan == ((), None)
        cols = np.random.default_rng(7).standard_normal((256, 3)) + 0j
        for u in (la.haar_unitary(4, 7), np.stack(la.haar_unitaries(4, 2, 7))):
            out = alg.apply_cols(u, cols)
            np.testing.assert_array_equal(out, np.broadcast_to(cols, out.shape))
            assert not np.shares_memory(out, cols)
        assert not np.shares_memory(alg.apply_cols(la.haar_unitary(4, 7), cols[:, 0]), cols)

    def test_dense_step_takes_the_dense_product(self):
        op = la.haar_unitary(64, 8)
        alg = self._wide(op, (0, 1, 2))
        (stage,), _ = alg._plan
        assert stage.rows is None and stage.op is not None and stage.op.shape == (64, 64)
        cols = np.random.default_rng(8).standard_normal((256, 2)) + 0j
        np.testing.assert_allclose(alg.apply_cols(la.haar_unitary(4, 8), cols),
                                   la.apply_to_factors(cols, op, (0, 1, 2), alg.dims),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("op,message", [
        (np.eye(256)[:, :255], "matrix must be square, got shape (256, 255)"),
        (np.ones(256), "matrix must be square, got shape (256,)"),
        (np.eye(64), "operator dimension 64 does not match target dims (product 256)"),
    ], ids=["non-square", "vector", "wrong-dimension"])
    def test_shape_errors(self, op, message):
        with pytest.raises(ValueError) as exc:
            self._wide(op)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", [(5, 5), (5, 200)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, entry, value):
        op = np.eye(256, dtype=complex)
        op[entry] = value
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            self._wide(op)

    @pytest.mark.parametrize("task_out", [(1, 1), (9,)])
    def test_task_out_targets_checked(self, task_out):
        # (1, 1) spans the task space dimension 4 but names one factor twice
        base = co.dong_cUd(2)
        with pytest.raises(ValueError, match="target"):
            mo.OracleAlgorithm("bad", 2, base.layout, base.steps, task_out=task_out)

    def test_query_padding(self):
        alg = whole_space_query(2)
        assert isinstance(alg.steps[0], mo.FixedStep)
        assert isinstance(alg.steps[-1], mo.FixedStep)
