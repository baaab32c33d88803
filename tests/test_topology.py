"""Tests for loop traces, winding numbers, the dichotomy probe, and the
odd-map sphere scan."""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_each_loop_point_is_evaluated_once(self):
        # the jump's ladder 64 -> 4096: a doubling evaluates only its new odd
        # points, so f runs 4096 times (64 + 64 + 128 + ... + 2048), not 8128
        calls = []

        def f(u):
            calls.append(u)
            t = np.angle(u[0, 0]) / (2 * np.pi) % 1.0
            return np.exp(2j * np.pi * t) * (1.0 if t < 0.5 else -1.0)

        trace = tp.winding(f, 1, 64, k_max=2 ** 12)
        assert trace.K == 2 ** 12 and not trace.valid
        assert len(calls) == 2 ** 12
        stacked = []
        again = tp.winding(lambda us: stacked.append(len(us)) or [f(u) for u in us], 1, 64,
                           k_max=2 ** 12, stacked=True)
        assert stacked == [64, 64, 128, 256, 512, 1024, 2048]
        assert again.values.tobytes() == trace.values.tobytes()

    def test_csv_dump(self, tmp_path):
        trace = tp.loop_trace(np.linalg.det, 2, 64)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "re_f", "im_f", "unwrapped_phase"]
        assert len(rows) == 65
        assert abs(float(rows[1][0]) - 0.0) < 1e-12


class TestFunctionShape:
    @pytest.mark.parametrize("sample,n", [
        (lambda f: tp.loop_trace(f, 2, 16), 16),
        (lambda f: tp.winding(f, 2, 16), 16),
        (lambda f: tp.bu_scan(f, 2, tp.sphere_grid(2)), 32),
    ], ids=["loop_trace", "winding", "bu_scan"])
    def test_wrong_shape_is_named(self, sample, n):
        # a function of one point that returns two values, read through the
        # one reader every sampled function goes through
        with pytest.raises(ValueError, match=rf"^function returned shape \({n}, 2\), expected \({n},\)$"):
            sample(lambda u: np.array([np.linalg.det(u), 1.0]))


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


def _old_ladder(alg, m: int, d: int, K: int, k_max: int, use_fplus: bool = False) -> tp.LoopTrace:
    """The probe's trace as the ladder that evaluated every rung whole."""
    extractor = tp.extract_fplus if use_fplus else tp.extract_h
    trace = tp.loop_trace(lambda us: extractor(alg, us, m), d, K, stacked=True)
    while not trace.valid and trace.K < k_max:
        trace = tp.loop_trace(lambda us: extractor(alg, us, m), d, min(2 * trace.K, k_max),
                              stacked=True)
    return trace


def _probe_programs():
    """Every builder at d = 2 and 3, power(d, 2d), the principal-root
    composition, the constant circuit and a vanishing witness, each with
    the m it is probed at."""
    out = []
    for d in (2, 3):
        for name in sorted(co.BUILDERS):
            out.append(pytest.param(lambda name=name, d=d: co.build(name, d), d, d, id=f"{name}-{d}"))
        out += [pytest.param(lambda d=d: co.power_cUm(d, 2 * d), 2 * d, d, id=f"power-{d}"),
                pytest.param(lambda d=d: co.composed_root_cU(d, lambda u: la.principal_root(u, d)), 1, d,
                             id=f"root-composed-{d}"),
                pytest.param(lambda d=d: cli._constant_circuit(d), -1, d, id=f"constant-{d}")]
    out.append(pytest.param(lambda: _vanishing(0), 2, 2, id="vanishing"))
    return out


class TestProbeLadder:
    @staticmethod
    def counting(monkeypatch) -> list:
        calls = []
        apply_cols = mo.OracleAlgorithm.apply_cols

        def counted(self, u, cols):
            calls.append(len(u))
            return apply_cols(self, u, cols)

        monkeypatch.setattr(mo.OracleAlgorithm, "apply_cols", counted)
        return calls

    @staticmethod
    def same(rep: tp.ProbeReport, old: tp.LoopTrace) -> None:
        """The report is the old ladder's, bit for bit."""
        assert rep.K == old.K and rep.jump_location == old.jump_location
        assert rep.trace.values.tobytes() == old.values.tobytes()
        assert rep.trace.unwrapped.tobytes() == old.unwrapped.tobytes()
        assert (rep.valid, rep.winding, rep.min_abs) == (old.valid, old.winding, old.min_abs)

    def test_power_8_evaluates_once(self, monkeypatch):
        # the ladder 16 -> 32 -> 64 evaluates the program once, at K = 64,
        # the first rung above 4|m|, and reads 16 and 32 off that stack
        alg = co.power_cUm(2, 8)
        old = _old_ladder(alg, 8, 2, 16, tp.K_MAX)
        calls = self.counting(monkeypatch)
        rep = tp.dichotomy_probe(alg, 8, 2, K=16)
        assert calls == [64]
        assert rep.K == 64 and rep.valid and rep.winding == 8
        self.same(rep, old)

    @pytest.mark.parametrize("use_fplus", [False, True], ids=["h", "fplus"])
    @pytest.mark.parametrize("K,k_max", [(16, tp.K_MAX), (16, 48), (32, 40), (64, 32)])
    @pytest.mark.parametrize("make,m,d", _probe_programs())
    def test_matches_the_old_ladder(self, make, m, d, K, k_max, use_fplus):
        alg = make()
        try:
            old = _old_ladder(alg, m, d, K, k_max, use_fplus)
        except ValueError as exc:  # a program without the control the probe needs
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                tp.dichotomy_probe(alg, m, d, K=K, use_fplus=use_fplus, k_max=k_max)
            return
        rep = tp.dichotomy_probe(alg, m, d, K=K, use_fplus=use_fplus, k_max=k_max)
        self.same(rep, old)
        assert rep.to_json() == {
            "m": m, "d": d, "K": old.K, "winding": old.winding, "valid": old.valid,
            "min_abs": old.min_abs, "jump_location": old.jump_location,
            "winding_matches_m": old.valid and old.winding == m,
            "divisibility_ok": not old.valid or old.winding % d == 0}

    def test_last_rung_that_is_no_doubling_evaluates_whole(self, monkeypatch):
        # rungs 16, 32, 48: the program runs at 32, the last doubling rung
        # not above k_max, and on all 48 points of the last rung
        alg = _vanishing(0)
        old = _old_ladder(alg, 8, 2, 16, 48)
        calls = self.counting(monkeypatch)
        rep = tp.dichotomy_probe(alg, 8, 2, K=16, k_max=48)
        assert calls == [32, 48]
        assert rep.K == 48 and not rep.valid
        self.same(rep, old)

    def test_vanishing_ladder_evaluates_each_point_once(self, monkeypatch):
        alg = _vanishing(0)
        calls = self.counting(monkeypatch)
        rep = tp.dichotomy_probe(alg, 1, 2, K=16, k_max=256)
        assert calls == [16, 16, 32, 64, 128]
        self.same(rep, _old_ladder(alg, 1, 2, 16, 256))

    @pytest.mark.parametrize("K", [0, -16, 8])
    def test_short_loop_refused(self, K, monkeypatch):
        # K is refused before the program runs at the first rung above 4|m|
        calls = self.counting(monkeypatch)
        with pytest.raises(ValueError, match="^loop sampling needs K >= 16$"):
            tp.dichotomy_probe(co.power_cUm(2, 8), 8, 2, K=K)
        assert calls == []

    def test_refinement_takes_new_points_from_the_witness(self, monkeypatch):
        # a jump at m = 8: the witness runs on rung 64 whole, then on the new
        # odd points of rungs 128 and 256, and those of 128 are its own values
        def jump(alg, us, m):
            t = np.angle(us[:, 0, 0]) / (2 * np.pi) % 1.0
            return np.exp(2j * np.pi * t) * np.where(t < 0.5, 1.0, -1.0)

        monkeypatch.setattr(tp, "extract_h", jump)
        alg = co.power_cUm(2, 8)
        old = _old_ladder(alg, 8, 2, 16, 256)
        seen = []
        monkeypatch.setattr(tp, "extract_h", lambda alg, us, m: seen.append(us) or jump(alg, us, m))
        rep = tp.dichotomy_probe(alg, 8, 2, K=16, k_max=256)
        assert [len(us) for us in seen] == [64, 64, 128]
        odd = tp.central_loop(2, 128)[1::2]
        assert seen[1].tobytes() == odd.tobytes()
        assert rep.trace.values[2::4].tobytes() == jump(alg, odd, 8).tobytes()
        assert rep.K == 256 and not rep.valid
        self.same(rep, old)

    def test_rung_that_does_not_divide_the_memo_evaluates_whole(self):
        # a memo of 24 points holds no 16-point rung: the ladder evaluates 16
        # whole, then the 16 new odd points of 32, where det^5 first unwraps
        seen = []
        f = lambda us: seen.append(len(us)) or us[:, 0, 0] ** 5
        trace = tp._ladder(f, 1, 16, 32, 24)
        assert seen == [24, 16, 16]
        assert trace.K == 32 and trace.valid and trace.winding == 5
        assert trace.values.tobytes() == tp.loop_trace(f, 1, 32, stacked=True).values.tobytes()

    def test_first_valid_rung_below_the_evaluated_one(self, monkeypatch):
        # a witness winding 0 is valid at K = 16 already: the probe at m = 8
        # evaluates it at 64 and still returns the K = 16 trace, bit for bit
        seen = []
        monkeypatch.setattr(tp, "extract_h", lambda alg, us, m: seen.append(len(us)) or 1.0 + 0.5 * us[:, 0, 0])
        alg = co.power_cUm(2, 8)
        old = _old_ladder(alg, 8, 2, 16, tp.K_MAX)
        seen.clear()
        rep = tp.dichotomy_probe(alg, 8, 2, K=16)
        assert seen == [64]
        assert rep.K == 16 and rep.valid and rep.winding == 0
        self.same(rep, old)


def _dong2_program(seed: int, letters: list[str]) -> mo.OracleAlgorithm:
    """A program on dong d = 2's control/task/anc/anc layout: a Haar step on
    1 to 3 random factors before each query, of the given letters on random
    factors, and one after the last."""
    rng = np.random.default_rng(seed)

    def dense() -> mo.FixedStep:
        targets = tuple(int(f) for f in rng.permutation(4)[:rng.integers(1, 4)])
        return mo.FixedStep(la.haar_unitary(2 ** len(targets), int(rng.integers(2 ** 16))), targets)

    steps = []
    for letter in letters:
        steps += [dense(), mo.QueryStep(mo.LETTERS[letter], (int(rng.integers(4)),))]
    return mo.OracleAlgorithm("random", 2, co.dong_cUd(2).layout, tuple(steps + [dense()]))


def _homogeneity_defect(alg, m: int) -> float:
    """max |w(z I) - z^m w(I)| over 16 points z of the central loop, for both
    witnesses w: every program's witness is homogeneous of degree m."""
    loop = tp.central_loop(2, 16)
    zm = loop[:, 0, 0] ** m
    return max(float(np.max(np.abs(w(alg, loop, m) - zm * w(alg, np.eye(2, dtype=complex), m))))
               for w in (tp.extract_h, tp.extract_fplus))


class TestCentralLoopHomogeneity:
    """On the central loop every program's witness is z^m times its value at
    I, whatever the program: the loop checks homogeneity and h(I) != 0."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), letters=st.lists(st.sampled_from(["id", "inv"]), min_size=1,
                                                           max_size=3),
           m=st.sampled_from([-2, -1, 1, 2]))
    def test_witness_is_z_to_the_m(self, seed, letters, m):
        assert _homogeneity_defect(_dong2_program(seed, letters), m) <= 1e-13

    def test_unconjugated_second_column_breaks_it(self, monkeypatch):
        # a mutant of _h_witness whose second column is U^m's first row, not
        # its conjugate, gives z^{-m} w(I): the defect shows at every seed
        def mutant(alg, us, m):
            d, rows = alg.oracle_dim, alg.layout.task_rows
            cols = np.zeros((len(us), alg.total_dim, 2), dtype=complex)
            cols[:, rows[0], 0] = 1.0
            cols[:, rows[d:], 1] = mo.unitary_power(us, m)[:, 0, :]
            y = mo.out_split(alg, alg.apply_cols(us, cols))
            return np.einsum("bij,bij->b", y[:, d:, :, 1].conj(), y[:, :d, :, 0])

        monkeypatch.setattr(tp, "_h_witness", mutant)
        for seed in range(5):
            assert _homogeneity_defect(_dong2_program(seed, ["id", "inv"]), 1) > 1e-3


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
