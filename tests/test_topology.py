"""Tests for loop traces, winding numbers, the dichotomy probe, and the
odd-map sphere scan."""
from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from uctrl import cli
from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp


def principal_sqrt(u):
    return la.principal_root(u, 2)


def _vanishing(factor: int) -> mo.OracleAlgorithm:
    """One query on a [2, 2] control/task layout, postselected on |1> of
    ``factor``: under the identity oracle no input with that factor at |0>
    survives."""
    layout = la.RegisterLayout.of([2, 2], ["control", "task"])
    projector = (np.diag([0, 1]).astype(complex), (factor,))
    return mo.OracleAlgorithm("vanishing", 2, layout, (mo.QueryStep(mo.ID, (1,)),),
                              projector=projector)


class TestCentralLoop:
    def test_endpoints(self):
        us = tp.central_loop(3, 16)
        np.testing.assert_allclose(us[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(us[8], -np.eye(3), atol=1e-12)

    def test_determinants(self):
        K, d = 32, 3
        us = tp.central_loop(d, K)
        for k, u in enumerate(us):
            assert abs(np.linalg.det(u) - np.exp(2j * np.pi * d * k / K)) < 1e-12

    def test_min_k(self):
        with pytest.raises(ValueError):
            tp.central_loop(2, 8)


class TestExtractH:
    def test_dong_equals_det(self):
        alg = co.dong_cUd(2)
        for s in range(5):
            u = la.haar_unitary(2, 2000 + s)
            assert abs(tp.extract_h(alg, u, 2) - np.linalg.det(u)) < 1e-10

    def test_identity_real_positive(self):
        alg = co.dong_cUd(2)
        h = tp.extract_h(alg, np.eye(2, dtype=complex), 2)
        assert abs(h.imag) < 1e-12 and h.real > 0.99

    def test_magnitude_is_allzero_success_probability(self):
        alg = co.spin_echo_cUd(2)
        u = la.haar_unitary(2, 2010)
        p0 = float(np.linalg.norm(alg.apply_cols(u, la.basis_state(alg.total_dim, 0))) ** 2)
        assert abs(abs(tp.extract_h(alg, u, 2)) - p0) < 1e-10

    def test_needs_control_register(self):
        with pytest.raises(ValueError):
            tp.extract_h(co.transpose_via_teleport(2), np.eye(2, dtype=complex), 1)


class TestExtractFplus:
    def test_exact_achiever_half_phase(self):
        alg = co.dong_cUd(2)
        for s in range(5):
            u = la.haar_unitary(2, 2100 + s)
            phi = mo.check_exact(alg, mo.cum_task(2, 2), u).phase
            f = tp.extract_fplus(alg, u, 2)
            assert abs(f - 0.5 * np.exp(-1j * phi)) < 1e-9

    def test_identity(self):
        f = tp.extract_fplus(co.dong_cUd(2), np.eye(2, dtype=complex), 2)
        assert abs(f - 0.5) < 1e-12

    def test_magnitude_lower_bound_for_achievers(self):
        alg = co.spin_echo_cUd(2)
        u = la.haar_unitary(2, 2110)
        assert abs(tp.extract_fplus(alg, u, 2)) >= 0.5 - 1e-9

    def test_control_must_lead_output_factors(self):
        base = co.kitaev_cswap(2)
        alg = mo.OracleAlgorithm("control-second", 2, base.layout, base.steps, task_out=(2, 0))
        with pytest.raises(ValueError, match="leading the output factors"):
            tp.extract_fplus(alg, la.haar_unitary(2, 2111), 1)

    def test_vanished_probability_raises(self):
        with pytest.raises(mo.ModelViolationError,
                           match="^plus-control postselection probability vanished$"):
            tp.extract_fplus(_vanishing(1), np.eye(2, dtype=complex), 1)


def _reordered(alg, order):
    """The same program with its factors in ``order`` (old factor indices),
    for a program with neither projector nor output registers."""
    new = {old: i for i, old in enumerate(order)}
    layout = la.RegisterLayout(tuple(alg.layout.factors[f] for f in order))
    steps = tuple(dataclasses.replace(s, targets=tuple(new[t] for t in s.targets))
                  for s in alg.steps)
    return mo.OracleAlgorithm(alg.name, alg.oracle_dim, layout, steps)


def _task_last(alg):
    """The program with its task factor (factor 1) moved behind the ancillas."""
    return _reordered(alg, [0, *range(2, len(alg.dims)), 1])


class TestTaskInputLayout:
    """The witnesses place their inputs through the layout's task-input map:
    where the task factor sits among the ancillas changes no witness."""

    @pytest.mark.parametrize("name,d,m,achieves", [("dong", 3, 3, True), ("kitaev", 2, 1, False)])
    def test_task_after_ancillas(self, name, d, m, achieves):
        alg = co.build(name, d)
        moved = _task_last(alg)
        assert moved.h_factors == (0, len(alg.dims) - 1)
        us = np.stack(la.haar_unitaries(d, 8, 11))
        h = tp.extract_h(moved, us, m)
        results = mo.check_exact(moved, mo.cum_task(d, m), us)
        assert [r.achieved for r in results] == [achieves] * len(us)
        for res, hk in zip(results, h):
            if res.achieved:
                assert abs(hk - np.exp(-1j * res.phase) * res.zero_input_prob) < 1e-12
        assert np.abs(h - tp.extract_h(alg, us, m)).max() < 1e-12
        assert np.abs(tp.extract_fplus(moved, us, m) - tp.extract_fplus(alg, us, m)).max() < 1e-12

    def test_probe_of_task_after_ancillas(self, tmp_path):
        alg = co.build("dong", 3)
        reports = []
        for label, prog in (("standard", alg), ("task-last", _task_last(alg))):
            mo.write_ir(prog, tmp_path / f"{label}.json")
            code = cli.main(["probe", str(tmp_path / f"{label}.json"), "--m", "3", "--d", "3",
                             "--K", "32", "--out", str(tmp_path / label)])
            assert code == cli.EXIT_OK
            reports.append(json.loads((tmp_path / f"{label}.json").read_text()))
        standard, moved = reports
        assert abs(moved.pop("min_abs") - standard.pop("min_abs")) < 1e-12
        assert moved == standard

    @pytest.mark.parametrize("d", [2, 3])
    def test_ancilla_first(self, d, tmp_path):
        # an ancilla ahead of the control, which still leads the task input
        # and output factors: the witnesses and the probe read it as dong
        alg = co.dong_cUd(d)
        first = _reordered(alg, [2, 0, 1, *range(3, len(alg.dims))])
        assert first.layout.control_index == 1 and first.h_factors == (1, 2)
        loop = tp.central_loop(d, 64)
        for extract in (tp.extract_h, tp.extract_fplus):
            np.testing.assert_array_equal(extract(first, loop, d), extract(alg, loop, d))
        outputs = []
        for label, prog in (("standard", alg), ("ancilla-first", first)):
            mo.write_ir(prog, tmp_path / f"{label}.json")
            code = cli.main(["probe", str(tmp_path / f"{label}.json"), "--m", str(d),
                             "--d", str(d), "--K", "32", "--out", str(tmp_path / label)])
            assert code == cli.EXIT_OK
            outputs.append([(tmp_path / f"{label}{ext}").read_bytes() for ext in (".json", ".csv")])
        assert outputs[0] == outputs[1]

    def test_wider_task_input_rejected(self, tmp_path, capsys):
        # control at factor 0, but a 4-dimensional task input (two task qubits) at d = 2
        wide = mo.OracleAlgorithm("wide", 2, la.RegisterLayout.of([2, 2, 2], ["control", "task", "task"]),
                                  co.kitaev_cswap(2).steps)
        for extract in (tp.extract_h, tp.extract_fplus):
            with pytest.raises(ValueError,
                               match="task space mismatch: program has dimension 8, task wants 4"):
                extract(wide, la.haar_unitary(2, 2120), 1)
        mo.write_ir(wide, tmp_path / "wide.json")
        code = cli.main(["probe", str(tmp_path / "wide.json"), "--m", "1", "--d", "2",
                         "--out", str(tmp_path / "probe")])
        assert code == cli.EXIT_INPUT_ERROR
        assert "task space mismatch: program has dimension 8, task wants 4" in capsys.readouterr().err


class TestNeutralPhase:
    def test_neutraliser_det_phase(self):
        alg = co.neutraliser_parallel(2)
        for s in range(5):
            u = la.haar_unitary(2, 2200 + s)
            det = np.linalg.det(u)
            assert abs(tp.neutral_phase(alg, u) - det / abs(det)) < 1e-10

    def test_identity(self):
        assert abs(tp.neutral_phase(co.neutraliser_parallel(2), np.eye(2, dtype=complex)) - 1) < 1e-12

    def test_unimodular(self):
        alg = co.neutraliser_parallel(3)
        u = la.haar_unitary(3, 2210)
        assert abs(abs(tp.neutral_phase(alg, u)) - 1.0) < 1e-12

    def test_stack_rejected(self):
        us = np.stack(la.haar_unitaries(2, 3, 2220))
        with pytest.raises(ValueError, match=r"^neutral_phase takes one \(2, 2\) oracle, "
                                             r"got shape \(3, 2, 2\)$"):
            tp.neutral_phase(co.neutraliser_parallel(2), us)

    def test_vanished_probability_raises(self):
        with pytest.raises(mo.ModelViolationError,
                           match="^all-zero postselection probability vanished$"):
            tp.neutral_phase(_vanishing(0), np.eye(2, dtype=complex))


class TestWinding:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_det_winds_d(self, d):
        trace = tp.loop_trace(np.linalg.det, d, 256)
        assert trace.valid and trace.winding == d

    def test_constant_winds_zero(self):
        trace = tp.loop_trace(lambda u: 1.0 + 0.0j, 2, 64)
        assert trace.valid and trace.winding == 0

    def test_dong_h_winds_two(self):
        alg = co.dong_cUd(2)
        trace = tp.winding(lambda u: tp.extract_h(alg, u, 2), 2, 256)
        assert trace.valid and trace.winding == 2

    def test_additivity(self):
        d = 2
        f = lambda u: np.linalg.det(u)
        g = lambda u: np.linalg.det(u) ** 2
        wf = tp.loop_trace(f, d, 256).winding
        wg = tp.loop_trace(g, d, 256).winding
        wfg = tp.loop_trace(lambda u: f(u) * g(u), d, 256).winding
        assert wfg == wf + wg == 6

    def test_vanishing_value_invalidates(self):
        # 1 + e^{2 pi i t} hits zero exactly at the t = 1/2 sample
        trace = tp.loop_trace(lambda u: complex(u[0, 0] + 1.0), 2, 64)
        assert not trace.valid
        assert trace.min_abs <= 1e-12

    def test_refinement_resolves_undersampling(self):
        # winding 5 at K = 16 aliases (step 10 pi / 16 > pi / 2) but resolves
        # after doubling
        f = lambda u: np.linalg.det(u) ** 5
        coarse = tp.loop_trace(f, 1, 16)
        assert not coarse.valid
        refined = tp.winding(f, 1, 16)
        assert refined.valid and refined.winding == 5 and refined.K > 16

    def test_true_jump_persists(self):
        # a sign flip at t = 1/2 never unwraps no matter the refinement
        def f(u):
            t = np.angle(u[0, 0]) / (2 * np.pi) % 1.0
            return np.exp(2j * np.pi * t) * (1.0 if t < 0.5 else -1.0)

        trace = tp.winding(f, 1, 64, k_max=2 ** 12)
        assert not trace.valid
        assert trace.K == 2 ** 12
        assert abs(trace.jump_location - 0.5) < 1e-3

    def test_csv_dump(self, tmp_path):
        trace = tp.loop_trace(np.linalg.det, 2, 64)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "re_f", "im_f", "unwrapped_phase"]
        assert len(rows) == 65
        assert abs(float(rows[1][0]) - 0.0) < 1e-12


class TestDichotomyProbe:
    @pytest.mark.parametrize("d", [2, 3])
    def test_dong_probe(self, d):
        rep = tp.dichotomy_probe(co.dong_cUd(d), m=d, d=d)
        assert rep.valid and rep.winding == d
        assert rep.winding_matches_m and rep.divisibility_ok
        assert rep.min_abs > 0.99

    def test_power_probe(self):
        rep = tp.dichotomy_probe(co.power_cUm(2, 4), m=4, d=2)
        assert rep.valid and rep.winding == 4 and rep.divisibility_ok

    def test_composed_root_probe_flags_divisibility(self):
        # Computed behaviour of the principal-root composition on the central
        # loop: both eigenvalues cross the branch cut together at t = 1/2 and
        # the two root queries square the sign away, so det(root(loop)) is
        # continuous and the trace is VALID with winding 1.  The probe still
        # witnesses that the object is no oracle program, through the
        # divisibility check (winding 1 with d = 2), not through a jump.
        ev = co.composed_root_cU(2, principal_sqrt)
        rep = tp.dichotomy_probe(ev, m=1, d=2)
        assert rep.valid
        assert rep.winding == 1
        assert rep.winding_matches_m
        assert not rep.divisibility_ok

    def test_composed_root_no_jump_even_at_full_refinement(self):
        ev = co.composed_root_cU(2, principal_sqrt)
        trace = tp.loop_trace(lambda u: tp.extract_h(ev, u, 1), 2, 2 ** 12)
        assert trace.valid
        assert trace.max_step < np.pi / 2
        assert trace.winding == 1

    def test_spin_echo_probe(self):
        rep = tp.dichotomy_probe(co.spin_echo_cUd(2), m=2, d=2)
        assert rep.valid and rep.winding == 2

    def test_fplus_variant(self):
        rep = tp.dichotomy_probe(co.dong_cUd(2), m=2, d=2, use_fplus=True)
        assert rep.valid and rep.winding == 2
        assert abs(rep.min_abs - 0.5) < 1e-9


class TestHomogeneityWindingLink:
    # the normalised all-zero matrix element of a degree-Delta program winds
    # exactly Delta along the central loop, when it never vanishes
    CASES = [
        (lambda: co.kitaev_cswap(2), 1),
        (lambda: co.dong_cUd(2), 2),
        (lambda: co.dong_cUd(3), 3),
        (lambda: co.neutraliser_parallel(2), 2),
        (lambda: co.conjugation(3), 2),
        (lambda: co.transpose_via_teleport(2), 1),
        (lambda: co.inverse(2), 1),
        (lambda: co.inverse(3), 2),
        (lambda: co.spin_echo_cUd(2), 2),
        (lambda: co.power_cUm(2, 4), 4),
    ]

    @pytest.mark.parametrize("make,degree", CASES)
    def test_zero_element_winding(self, make, degree):
        alg = make()
        assert mo.static_homogeneity(alg.query_letters) == degree
        e0 = la.basis_state(alg.total_dim, 0)

        def f(u):
            return complex(alg.apply_cols(u, e0)[0])

        trace = tp.winding(f, alg.oracle_dim, 256)
        assert trace.valid, alg.name
        assert trace.winding == degree, alg.name


class TestBuMap:
    def test_identity_point(self):
        np.testing.assert_allclose(tp.bu_map_g(np.array([1.0, 0, 0, 0]), 4), np.eye(4), atol=0)

    def test_odd_and_unitary(self):
        rng = np.random.default_rng(3000)
        for d in (2, 4):
            for _ in range(100):
                x = rng.standard_normal(4)
                x /= np.linalg.norm(x)
                g = tp.bu_map_g(x, d)
                assert la.is_unitary(g, 1e-12)
                np.testing.assert_allclose(tp.bu_map_g(-x, d), -g, atol=1e-15)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            tp.bu_map_g(np.array([1.0, 0, 0, 0]), 3)

    def test_antidiagonal_point(self):
        g = tp.bu_map_g(np.array([0.0, 0.0, 1.0, 0.0]), 2)
        assert abs(g[0, 0]) < 1e-15 and abs(g[1, 1]) < 1e-15


class TestSphereGrid:
    def test_antipodal_closure_exact(self):
        grid = tp.sphere_grid(4)
        n = grid.n_half
        np.testing.assert_array_equal(grid.points[n:], -grid.points[:n])

    def test_unit_norm(self):
        grid = tp.sphere_grid(5)
        norms = np.linalg.norm(grid.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="^grid resolution must be >= 2$"):
            tp.sphere_grid(1)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_points_match_the_loop_construction(self, n):
        # the point order and every bit of each point, against a loop over
        # (psi, theta, phi) in that nesting order: the scan's argmin and the
        # pinned minima depend on both
        psis = np.pi * (np.arange(n) + 0.5) / n
        thetas = np.pi * (np.arange(n) + 0.5) / n
        phis = 2 * np.pi * np.arange(2 * n) / (2 * n)
        pts = []
        for psi in psis:
            sp, cp = math.sin(psi), math.cos(psi)
            for th in thetas:
                s_t, c_t = math.sin(th), math.cos(th)
                for ph in phis:
                    pts.append((cp, sp * c_t, sp * s_t * math.cos(ph), sp * s_t * math.sin(ph)))
        half = np.asarray(pts)
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        np.testing.assert_array_equal(tp.sphere_grid(n).points, np.vstack([half, -half]))


class TestBuScan:
    def test_zero_element_min_shrinks(self):
        mins = []
        for n in (4, 8, 16):
            rep = tp.bu_scan(lambda u: complex(u[0, 0]), 2, tp.sphere_grid(n))
            assert rep.oddness_residual < 1e-14
            mins.append(rep.min_abs)
        assert mins[2] < mins[1] < mins[0]

    def test_constant_flagged_not_odd(self):
        rep = tp.bu_scan(lambda u: 1.0 + 0.0j, 2, tp.sphere_grid(4))
        assert abs(rep.min_abs - 1.0) < 1e-12
        assert abs(rep.oddness_residual - 2.0) < 1e-12

    def test_composed_root_phase_has_unit_modulus_and_fails_oddness(self):
        # the embedded sphere lands in the determinant-one subgroup, where
        # det of the principal square root is identically 1: the witness
        # never dips, and the oddness check flags that it is not odd (the
        # composition is outside the program model, so no zero is forced)
        ev = co.composed_root_cU(2, principal_sqrt)
        rep = tp.bu_scan(lambda u: tp.extract_h(ev, u, 1), 2, tp.sphere_grid(6))
        assert rep.min_abs > 1.0 - 1e-9
        assert abs(rep.oddness_residual - 2.0) < 1e-9
