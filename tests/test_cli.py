"""End-to-end tests of the command-line interface and its file formats."""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctrl import cli
from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestBuild:
    def test_dong_layout_and_queries(self, tmp_path):
        out = tmp_path / "dong.json"
        assert run("build", "dong", "--d", 2, "--out", out) == 0
        ir = json.loads(out.read_text())
        assert [f["dim"] for f in ir["layout"]] == [2, 2, 2, 2]
        queries = [s for s in ir["steps"] if "query" in s]
        assert len(queries) == 2 and all(q["query"] == "id" for q in queries)

    def test_kitaev_single_query(self, tmp_path):
        out = tmp_path / "kit.json"
        assert run("build", "kitaev", "--d", 3, "--out", out) == 0
        ir = json.loads(out.read_text())
        assert len([s for s in ir["steps"] if "query" in s]) == 1

    def test_power_indivisible_is_input_error(self, tmp_path, capsys):
        code = run("build", "power", "--d", 2, "--m", 3, "--out", tmp_path / "x.json")
        assert code == cli.EXIT_INPUT_ERROR
        assert "does not divide" in capsys.readouterr().err

    def test_bad_d_rejected(self, tmp_path):
        assert run("build", "dong", "--d", 7, "--out", tmp_path / "x.json") == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("name,d", [
        ("kitaev", 2), ("dong", 2), ("neutraliser", 2), ("conjugation", 3),
        ("transpose", 2), ("inverse", 2), ("spin-echo", 2),
    ])
    def test_roundtrip_eval_agreement(self, name, d, tmp_path):
        out = tmp_path / f"{name}.json"
        assert run("build", name, "--d", d, "--out", out) == 0
        parsed = mo.from_ir(out)
        built = co.build(name, d)
        for s in range(10):
            u = la.haar_unitary(d, 4000 + s)
            np.testing.assert_allclose(parsed.eval(u), built.eval(u), atol=1e-12)


class TestVerify:
    def test_dong_exact_passes(self, tmp_path):
        ir = tmp_path / "dong.json"
        rep = tmp_path / "rep.json"
        run("build", "dong", "--d", 2, "--out", ir)
        code = run("verify", ir, "--task", "cUm", "--m", 2, "--d", 2,
                   "--samples", 5, "--out", rep)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["passed"]
        assert all(e["residual"] < 1e-9 for e in report["results"])
        assert all(e["check"] == "exact" and "U_seed" in e for e in report["results"])

    def test_kitaev_fails_with_rank_diagnostic(self, tmp_path):
        ir = tmp_path / "kit.json"
        rep = tmp_path / "rep.json"
        run("build", "kitaev", "--d", 2, "--out", ir)
        code = run("verify", ir, "--task", "cUm", "--m", 1, "--d", 2,
                   "--samples", 3, "--out", rep)
        assert code == cli.EXIT_CHECK_FAILED
        report = json.loads(rep.read_text())
        assert not report["passed"]
        assert any("rank" in e.get("diagnostic", "") for e in report["results"])

    def test_neutraliser_passes(self, tmp_path):
        ir = tmp_path / "neu.json"
        rep = tmp_path / "rep.json"
        run("build", "neutraliser", "--d", 2, "--out", ir)
        code = run("verify", ir, "--task", "neutralise", "--d", 2,
                   "--samples", 5, "--out", rep)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["passed"] and abs(report["r"] - 1.0) < 1e-10

    def test_clean_check(self, tmp_path):
        ir = tmp_path / "conj.json"
        rep = tmp_path / "rep.json"
        run("build", "conjugation", "--d", 3, "--out", ir)
        code = run("verify", ir, "--task", "conjugation", "--check", "clean",
                   "--d", 3, "--samples", 5, "--out", rep)
        assert code == 0

    def test_eps_check(self, tmp_path):
        ir = tmp_path / "transp.json"
        rep = tmp_path / "rep.json"
        run("build", "transpose", "--d", 2, "--out", ir)
        code = run("verify", ir, "--task", "transpose", "--check", "eps",
                   "--d", 2, "--samples", 2, "--out", rep)
        assert code == 0

    def test_homogeneity_check(self, tmp_path):
        ir = tmp_path / "dong.json"
        run("build", "dong", "--d", 2, "--out", ir)
        assert run("verify", ir, "--task", "cUm", "--m", 2, "--check", "homogeneity",
                   "--d", 2, "--samples", 3) == 0

    @pytest.mark.parametrize("check", ["exact", "eps", "clean", "homogeneity", "neutralise"])
    @pytest.mark.parametrize("program", cli.SPECIAL_PROGRAMS)
    def test_special_programs_give_an_exit_code(self, program, check, tmp_path, capsys):
        code = run("verify", program, "--task", "cUm", "--m", 1, "--d", 2, "--samples", 1,
                   "--check", check, "--out", tmp_path / "rep.json")
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_MODEL_VIOLATION,
                        cli.EXIT_INPUT_ERROR)
        if (program, check) == ("root-composed", "homogeneity"):
            # the evaluator is not an oracle program: it has no query letters
            err = capsys.readouterr().err
            assert code == cli.EXIT_INPUT_ERROR
            assert "query letters" in err and "Traceback" not in err

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("verify", tmp_path / "nope.json", "--task", "cUm", "--m", 2,
                   "--d", 2) == cli.EXIT_INPUT_ERROR

    def test_unknown_build_name_is_input_error(self, tmp_path):
        assert run("build", "nonsense", "--d", 2,
                   "--out", tmp_path / "x.json") == cli.EXIT_INPUT_ERROR

    def test_model_violation_exit_code(self, tmp_path):
        # a program that postselects the flipped state onto zero has
        # vanishing success probability on the first basis state for every
        # oracle, which the eps estimator reports as a model violation
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        proj = np.diag([1.0, 0.0]).astype(complex)
        alg = mo.OracleAlgorithm(
            "broken", 2, la.RegisterLayout.of([2], ["task"]),
            (mo.FixedStep(x, (0,)),), projector=(proj, (0,)))
        ir = tmp_path / "broken.json"
        mo.write_ir(alg, ir)
        code = run("verify", ir, "--task", "inverse", "--check", "eps",
                   "--d", 2, "--samples", 2)
        assert code == cli.EXIT_MODEL_VIOLATION

    def test_reports_deterministic(self, tmp_path):
        ir = tmp_path / "dong.json"
        run("build", "dong", "--d", 2, "--out", ir)
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run("verify", ir, "--task", "cUm", "--m", 2, "--d", 2, "--samples", 4,
            "--seed", 5, "--out", rep1)
        run("verify", ir, "--task", "cUm", "--m", 2, "--d", 2, "--samples", 4,
            "--seed", 5, "--out", rep2)
        assert rep1.read_text() == rep2.read_text()


class TestProbe:
    def test_dong_probe(self, tmp_path):
        ir = tmp_path / "dong.json"
        run("build", "dong", "--d", 2, "--out", ir)
        base = tmp_path / "probe"
        code = run("probe", ir, "--m", 2, "--d", 2, "--K", 256, "--out", base)
        assert code == 0
        rep = json.loads((tmp_path / "probe.json").read_text())
        assert rep["winding"] == 2 and rep["valid"]
        with open(tmp_path / "probe.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "re_f", "im_f", "unwrapped_phase"]
        assert len(rows) == 257

    def test_root_composed_probe_reports_divisibility_violation(self, tmp_path):
        base = tmp_path / "probe"
        code = run("probe", "root-composed", "--m", 1, "--d", 2, "--K", 256, "--out", base)
        assert code == cli.EXIT_CHECK_FAILED
        rep = json.loads((tmp_path / "probe.json").read_text())
        assert rep["valid"] and rep["winding"] == 1
        assert not rep["divisibility_ok"]

    def test_constant_circuit_probe(self, tmp_path):
        base = tmp_path / "probe"
        code = run("probe", "constant-circuit", "--m", 0, "--d", 2, "--out", base)
        assert code == 0
        rep = json.loads((tmp_path / "probe.json").read_text())
        assert rep["winding"] == 0 and rep["valid"]

    def test_bad_k_rejected(self, tmp_path):
        assert run("probe", "constant-circuit", "--m", 0, "--d", 2, "--K", 100,
                   "--out", tmp_path / "p") == cli.EXIT_INPUT_ERROR


class TestBuScan:
    def test_refinement_report(self, tmp_path):
        out = tmp_path / "bu.json"
        code = run("bu-scan", "--d", 2, "--resolution", 4, "--refinements", 3, "--out", out)
        assert code == 0
        rep = json.loads(out.read_text())
        mins = [lv["min_abs"] for lv in rep["levels"]]
        assert mins == sorted(mins, reverse=True)
        assert all(lv["oddness_residual"] < 1e-12 for lv in rep["levels"])

    def test_odd_d_rejected(self, tmp_path):
        assert run("bu-scan", "--d", 3, "--out", tmp_path / "bu.json") == cli.EXIT_INPUT_ERROR


class TestSweep:
    def test_transpose_diag_sweep_prob_constant(self, tmp_path):
        ir = tmp_path / "transp.json"
        run("build", "transpose", "--d", 2, "--out", ir)
        out = tmp_path / "sweep.csv"
        code = run("sweep", ir, "--task", "transpose", "--grid", "diag:16",
                   "--d", 2, "--out", out)
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 16
        for row in rows:
            assert abs(float(row["success_prob"]) - 0.25) < 1e-10
            assert float(row["residual"]) < 1e-9

    def test_empty_grid_header_only(self, tmp_path):
        ir = tmp_path / "transp.json"
        run("build", "transpose", "--d", 2, "--out", ir)
        out = tmp_path / "sweep.csv"
        assert run("sweep", ir, "--task", "transpose", "--grid", "diag:0",
                   "--d", 2, "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows == [["param", "success_prob", "residual", "phase"]]

    def test_root_composed_eps_sweep_is_flat(self, tmp_path):
        # computed truth: the root composition is pointwise exact on the
        # whole loop, so the eps column stays at numerical zero (no spike at
        # the branch-cut parameter)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "root-composed", "--task", "cUm", "--m", 1, "--d", 2,
                   "--check", "eps", "--grid", "loop:16", "--out", out)
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 16
        assert max(float(r["eps"]) for r in rows) <= 1e-9

    def test_bad_grid_rejected(self, tmp_path):
        ir = tmp_path / "transp.json"
        run("build", "transpose", "--d", 2, "--out", ir)
        assert run("sweep", ir, "--task", "transpose", "--grid", "bogus",
                   "--out", tmp_path / "s.csv") == cli.EXIT_INPUT_ERROR


# (build name, d, task flags, task): verify and sweep rebuilt from per-oracle calls
PER_ORACLE = [pytest.param(name, d, flags, task, id=f"{name}{d}") for name, d, flags, task in (
    ("dong", 2, ["cUm", "--m", "2"], mo.cum_task(2, 2)),
    ("kitaev", 2, ["cUm", "--m", "1"], mo.cum_task(2, 1)),
    ("inverse", 3, ["inverse"], mo.inverse_task(3)),
)]


class TestStackedReports:
    """verify and sweep check a run's oracles in one stacked call each; the
    report bytes are those of one API call per oracle, whatever the batch."""

    @pytest.mark.parametrize("check", ["exact", "homogeneity", "eps"])
    @pytest.mark.parametrize("name,d,flags,task", PER_ORACLE)
    def test_verify_report_matches_per_oracle_calls(self, name, d, flags, task, check,
                                                     tmp_path):
        ir, rep = tmp_path / f"{name}.json", tmp_path / "rep.json"
        run("build", name, "--d", d, "--out", ir)
        code = run("verify", ir, "--task", *flags, "--d", d, "--check", check,
                   "--samples", 4, "--seed", 3, "--out", rep)
        alg, tol, rng = mo.from_ir(ir), 1e-8, np.random.default_rng(3)
        entries = []
        for i, u in enumerate(la.haar_unitaries(d, 4, 3)):
            if check == "exact":
                res = mo.check_exact(alg, task, u)
                entry = {"check": "exact", "U_seed": 3 + i, "result": bool(res.achieved),
                         "residual": res.residual, "rank_residual": res.rank_residual,
                         "success_prob": res.success_prob}
                if res.phase is not None:
                    entry["phase"] = res.phase
                if not res.achieved and res.rank_residual > tol:
                    entry["diagnostic"] = (
                        f"ancilla rank deficiency: second singular value "
                        f"{res.rank_residual:.3e} exceeds tol {tol:.1e}")
            elif check == "eps":
                val = mo.eps_distance_estimate(alg, task, u, n_samples=4, seed=3)
                entry = {"check": "eps", "U_seed": 3 + i, "result": bool(val <= tol),
                         "residual": float(val)}
            else:
                delta = mo.static_homogeneity(alg.query_letters)
                resid = mo.numeric_homogeneity_check(alg, u, np.exp(2j * np.pi * rng.random()),
                                                     delta)
                entry = {"check": "homogeneity", "U_seed": 3 + i, "result": bool(resid <= tol),
                         "residual": resid, "degree": delta}
            entries.append(entry)
        passed = all(e["result"] for e in entries)
        expected = {"check": check, "d": d, "samples": 4, "seed": 3, "tol": tol,
                    "program": alg.name, "results": entries, "passed": passed}
        assert code == (cli.EXIT_OK if passed else cli.EXIT_CHECK_FAILED)
        assert rep.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("eps", [False, True])
    @pytest.mark.parametrize("grid", ["diag:8", "loop:8"])
    @pytest.mark.parametrize("name,d,flags,task", [PER_ORACLE[0], PER_ORACLE[2]])
    def test_sweep_csv_matches_per_oracle_calls(self, name, d, flags, task, grid, eps,
                                                tmp_path):
        ir, out = tmp_path / f"{name}.json", tmp_path / "sweep.csv"
        run("build", name, "--d", d, "--out", ir)
        assert run("sweep", ir, "--task", *flags, "--d", d, "--grid", grid,
                   *(["--check", "eps"] if eps else []), "--out", out) == cli.EXIT_OK
        alg, (kind, n) = mo.from_ir(ir), grid.split(":")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["param", "success_prob", "residual", "phase"] + (["eps"] if eps else []))
        for j in range(int(n)):
            if kind == "diag":
                param = 2 * np.pi * j / int(n)
                u = np.eye(d, dtype=complex)
                u[-1, -1] = np.exp(1j * param)
            else:
                param = j / int(n)
                u = np.exp(2j * np.pi * param) * np.eye(d, dtype=complex)
            res = mo.check_exact(alg, task, u)
            prob = mo.success_prob(alg, u, la.basis_state(alg.h_dim, 0))
            row = [f"{param:.12g}", f"{prob:.17g}", f"{res.residual:.17g}",
                   "" if res.phase is None else f"{res.phase:.17g}"]
            if eps:
                row.append(f"{mo.eps_distance_estimate(alg, task, u, n_samples=2, seed=0):.17g}")
            writer.writerow(row)
        assert out.read_bytes().decode() == expected.getvalue()

    @pytest.mark.parametrize("name,d,flags,task,clean", [
        ("conjugation", 3, ["conjugation"], mo.conjugation_task(3), True),
        ("kitaev", 2, ["cUm", "--m", "1"], mo.cum_task(2, 1), False),
    ])
    def test_clean_report_matches_per_oracle_calls(self, name, d, flags, task, clean,
                                                    tmp_path):
        ir, rep = tmp_path / f"{name}.json", tmp_path / "rep.json"
        run("build", name, "--d", d, "--out", ir)
        code = run("verify", ir, "--task", *flags, "--d", d, "--check", "clean",
                   "--samples", 4, "--seed", 3, "--out", rep)
        alg = mo.from_ir(ir)
        results = [mo.check_exact(alg, task, u) for u in la.haar_unitaries(d, 4, 3)]
        # one entry for the whole run; a failing run names its first non-achiever
        entry = {"check": "clean", "U_seed": 3, "result": clean, "residual": 0.0}
        if clean:
            assert all(res.achieved for res in results)
        else:
            assert not results[0].achieved
            entry["diagnostic"] = (f"not an exact achiever at sample 0 "
                                   f"(residual {results[0].residual:.3g})")
        expected = {"check": "clean", "d": d, "samples": 4, "seed": 3, "tol": 1e-8,
                    "program": alg.name, "results": [entry], "passed": clean}
        assert code == (cli.EXIT_OK if clean else cli.EXIT_CHECK_FAILED)
        assert rep.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("name,d,reason", [
        ("neutraliser", 2, None), ("neutraliser", 3, None), ("root-composed", 2, None),
        ("kitaev", 2, "output leaves the all-zero ray"),
    ], ids=["neutraliser-2", "neutraliser-3", "root-composed-2", "kitaev-2"])
    def test_neutralise_report_matches_per_oracle_calls(self, name, d, reason, tmp_path):
        rep = tmp_path / "rep.json"
        if name == "root-composed":
            ir, alg = name, co.composed_root_cU(d, lambda u: la.principal_root(u, d))
        else:
            ir = tmp_path / f"{name}.json"
            run("build", name, "--d", d, "--out", ir)
            alg = mo.from_ir(ir)
        code = run("verify", ir, "--task", "neutralise", "--d", d, "--samples", 4,
                   "--seed", 3, "--out", rep)
        us = la.haar_unitaries(d, 4, 3)
        whole = mo.check_neutralises(alg, us)  # r, passed and diagnostic
        entries = []
        for i, u in enumerate(us):
            one = mo.check_neutralises(alg, [u])
            entries.append({"check": "neutralise", "U_seed": 3 + i, "result": whole.passed,
                            "residual": one.residuals[0], "r": one.r_values[0],
                            "phase": one.phases[0]})
        assert whole.reason == reason
        expected = {"check": "neutralise", "d": d, "samples": 4, "seed": 3, "tol": 1e-8,
                    "program": alg.name, "results": entries, "r": whole.r,
                    "passed": whole.passed}
        if whole.reason:
            expected["diagnostic"] = whole.reason
        assert code == (cli.EXIT_OK if whole.passed else cli.EXIT_CHECK_FAILED)
        assert rep.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("argv,name", [
        (["verify", "constant-circuit", "--task", "cUm", "--m", 1, "--check", "eps",
          "--samples", 5], "eps_distance_estimate"),
        (["sweep", "constant-circuit", "--task", "cUm", "--m", 1, "--check", "eps",
          "--grid", "diag:5"], "_exact_and_eps"),
    ], ids=["verify", "sweep"])
    def test_eps_is_one_call_per_stack(self, argv, name, monkeypatch, tmp_path):
        # the eps sweep takes its exact results and estimates from one call
        calls = []
        original = getattr(mo, name)
        monkeypatch.setattr(mo, name, lambda alg, task, u, *args, **kw: calls.append(
            np.shape(u)) or original(alg, task, u, *args, **kw))
        run(*argv, "--out", tmp_path / "out")
        assert calls == [(5, 2, 2)]

    def test_eps_sweep_builds_each_block_once(self, monkeypatch, tmp_path):
        ir = tmp_path / "dong.json"
        run("build", "dong", "--d", 2, "--out", ir)
        calls = []
        original = mo.OracleAlgorithm.task_block
        monkeypatch.setattr(mo.OracleAlgorithm, "task_block",
                            lambda self, u: calls.append(len(u)) or original(self, u))
        assert run("sweep", ir, "--task", "cUm", "--m", 2, "--d", 2, "--grid", "loop:16",
                   "--check", "eps", "--out", tmp_path / "s.csv") == cli.EXIT_OK
        assert calls == [16]

    def test_empty_sweep_still_checks_the_task(self, tmp_path, capsys):
        ir = tmp_path / "dong.json"
        run("build", "dong", "--d", 2, "--out", ir)
        assert run("sweep", ir, "--task", "inverse", "--grid", "diag:0",
                   "--out", tmp_path / "s.csv") == cli.EXIT_INPUT_ERROR
        assert "task space mismatch" in capsys.readouterr().err


def _with(key, value):
    return lambda ir: {**ir, key: value}


def _first_step(key, value):
    return lambda ir: {**ir, "steps": [{**ir["steps"][0], key: value}] + ir["steps"][1:]}


def _first_entry(value):
    def mutate(ir):
        u = ir["steps"][0]["unitary"]
        return _first_step("unitary", {**u, "re": [[value] + u["re"][0][1:]] + u["re"][1:]})(ir)
    return mutate


def _short_first_row(ir):
    u = ir["steps"][0]["unitary"]
    return _first_step("unitary", {**u, "re": [u["re"][0][1:]] + u["re"][1:]})(ir)


MALFORMED = "malformed circuit IR"
MALFORMED_IR = {  # kind: (mutation of a dong d=2 IR, expected message fragment)
    "layout-of-bare-ints": (lambda ir: {**ir, "layout": [f["dim"] for f in ir["layout"]]},
                            MALFORMED),
    "top-level-list": (lambda ir: [ir], MALFORMED),
    "steps-not-a-list": (_with("steps", 5), MALFORMED),
    "step-is-a-string": (lambda ir: {**ir, "steps": ["hadamard"] + ir["steps"][1:]}, MALFORMED),
    "targets-null": (_first_step("targets", None), MALFORMED),
    "targets-not-integers": (_first_step("targets", [2.5, 3]), MALFORMED),
    "unitary-not-a-matrix": (_first_step("unitary", 3), MALFORMED),
    "unitary-non-finite": (_first_entry(float("nan")), "finite"),
    "unitary-string-entry": (_first_entry("1.5"), "numbers"),
    "unitary-bool-entry": (_first_entry(True), "numbers"),
    "unitary-huge-int": (_first_entry(10**400), "finite"),
    "projector-int": (_with("projector", 7), MALFORMED),
    "task-out-null": (_with("task_out", None), MALFORMED),
    "d-null": (_with("d", None), MALFORMED),
    "layout-missing": (lambda ir: {k: v for k, v in ir.items() if k != "layout"}, "'layout'"),
    "task-out-out-of-range": (_with("task_out", [9]), "target 9 outside"),
    "task-out-duplicate": (_with("task_out", [1, 1]), "duplicate targets"),
    "role-not-a-string": (lambda ir: {**ir, "layout": ir["layout"][:2] + [
        {**ir["layout"][2], "role": 5}] + ir["layout"][3:]}, MALFORMED),
    "name-not-a-string": (_with("name", {"a": 1}), MALFORMED),
    "unitary-ragged-row": (_short_first_row, "matrix JSON shape fields disagree with data"),
    "unitary-list-entry": (_first_entry([0.5]), "matrix JSON shape fields disagree with data"),
    # dong d = 2's step 2 is its first query
    "query-and-unitary": (lambda ir: {**ir, "steps": ir["steps"][:2] + [
        {**ir["steps"][2], "unitary": la.matrix_to_json(np.eye(2))}] + ir["steps"][3:]},
        'step 2 holds both "query" and "unitary"'),
}


class TestInputErrors:
    """Malformed IR and bad flags exit 3 with a one-line message, never a
    traceback."""

    @staticmethod
    def _input_error(code, capsys) -> str:
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert err.startswith("error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("kind", sorted(MALFORMED_IR))
    def test_malformed_ir(self, kind, tmp_path, capsys):
        mutate, fragment = MALFORMED_IR[kind]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(mo.to_ir(co.build("dong", 2)))))
        code = run("verify", path, "--task", "cUm", "--m", 2, "--d", 2, "--samples", 2,
                   "--out", tmp_path / "rep.json")
        assert fragment in self._input_error(code, capsys)

    @pytest.mark.parametrize("value,fragment", [
        (float("nan"), "finite"),
        (1e-9, "fixed step in neutraliser is not unitary to tolerance 1e-10"),
    ], ids=["nan", "off-tolerance"])
    def test_bad_entry_in_a_restricted_step(self, value, fragment, tmp_path, capsys):
        # an entry off the identity in a row of the neutraliser's 256 x 256
        # step that the step otherwise leaves alone
        ir = mo.to_ir(co.build("neutraliser", 4))
        ir["steps"][0]["unitary"]["re"][5][200] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ir))
        code = run("verify", path, "--task", "neutralise", "--d", 4, "--samples", 2,
                   "--out", tmp_path / "rep.json")
        assert fragment in self._input_error(code, capsys)

    @pytest.mark.parametrize("name,argv,fragment", [
        ("dong", ["--task", "cUm", "--m", 2], "fixed step in dong is not unitary"),
        ("transpose", ["--task", "transpose"],
         "projector of transpose is not an orthogonal projector"),
    ], ids=["dong-step", "transpose-projector"])
    def test_huge_finite_entry(self, name, argv, fragment, tmp_path, capsys):
        # an entry near the float maximum fails its check before any product
        # could overflow: the one error line, and no numpy warning
        ir = mo.to_ir(co.build(name, 2))
        matrix = ir["projector"]["matrix"] if name == "transpose" else ir["steps"][0]["unitary"]
        matrix["re"][0][0] = 1.7e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(ir))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("verify", path, *argv, "--d", 2, "--samples", 2,
                       "--out", tmp_path / "rep.json")
        err = self._input_error(code, capsys)
        assert caught == []
        assert fragment in err and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("key,depth", [("layout", 200_000), ("steps", 5_000)])
    def test_deeply_nested_ir(self, key, depth, tmp_path, capsys):
        # deeper than the JSON parser's recursion: a malformed IR, not a
        # RecursionError traceback
        ir = mo.to_ir(co.build("dong", 2))
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(ir).replace(json.dumps(ir[key]), "[" * depth + "]" * depth))
        code = run("verify", path, "--task", "cUm", "--m", 2, "--d", 2, "--samples", 2,
                   "--out", tmp_path / "rep.json")
        err = self._input_error(code, capsys)
        assert err == f"error: JSON in {path} is nested too deeply\n"
        with pytest.raises(ValueError, match="nested too deeply"):
            mo.from_ir(path)
        with pytest.raises(ValueError, match="nested too deeply"):
            la.matrix_from_json(path)

    @pytest.mark.parametrize("argv", [
        ["bu-scan", "--refinements", 0],
        ["bu-scan", "--refinements", -2],
        ["sweep", "constant-circuit", "--task", "cUm", "--m", 0, "--grid", "diag:-1"],
        ["sweep", "constant-circuit", "--task", "cUm", "--m", 1, "--grid", "bogus:0"],
        ["verify", "constant-circuit", "--task", "cUm", "--m", 1, "--tol", 0],
        ["verify", "constant-circuit", "--task", "cUm", "--m", 1, "--samples", 0],
        ["probe", "constant-circuit", "--d", 2],
    ], ids=["refinements-0", "refinements-negative", "negative-grid", "unknown-grid-empty",
            "tol-0", "samples-0", "probe-without-m"])
    def test_bad_flags(self, argv, tmp_path, capsys):
        self._input_error(run(*argv, "--out", tmp_path / "out"), capsys)

    @pytest.mark.parametrize("argv", [
        ["verify", "--task", "cUm", "--m", 1],
        ["probe", "--m", 1],
        ["sweep", "--task", "cUm", "--m", 1],
    ], ids=["verify", "probe", "sweep"])
    def test_oversized_ir(self, argv, tmp_path, capsys):
        # an idle ancilla of dimension 2^53: the task block takes 2^61 bytes
        # and task_rows 2^58, beyond any 64-bit address space, so numpy fails
        # at once and nothing is allocated
        layout = la.RegisterLayout.of([2, 2, 2 ** 53], ["control", "task", "anc"])
        path = tmp_path / "oversized.json"
        mo.write_ir(mo.OracleAlgorithm("oversized", 2, layout,
                                       (mo.FixedStep(np.eye(4), (0, 1)),)), path)
        command, *flags = argv
        code = run(command, path, *flags, "--d", 2, "--out", tmp_path / "out")
        assert "allocate" in self._input_error(code, capsys)

    @pytest.mark.parametrize("argv", [
        ["verify", "--task", "cUm", "--m", 2],
        ["probe", "--m", 2],
        ["sweep", "--task", "cUm", "--m", 2],
    ], ids=["verify", "probe", "sweep"])
    def test_oversized_layout_refused_at_construction(self, argv, tmp_path, capsys):
        # dong d = 2 beside an idle ancilla of dimension 2^53: its steps move
        # basis states, so building the program builds index maps of 2^55
        # entries, and numpy fails at once; the JSON is edited, because
        # building the program in process would fail the same way
        ir = mo.to_ir(co.build("dong", 2))
        ir["layout"].append({"dim": 2 ** 53, "role": "anc"})
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(ir))
        with pytest.raises((MemoryError, ValueError)):
            mo.from_ir(path)
        command, *flags = argv
        code = run(command, path, *flags, "--d", 2, "--out", tmp_path / "out")
        assert "allocate" in self._input_error(code, capsys)


    @pytest.mark.parametrize("command,flags", [
        ("verify", ["--samples", 2]),
        ("sweep", ["--grid", "diag:4"]),
    ], ids=["verify", "sweep"])
    def test_control_behind_task(self, command, flags, tmp_path, capsys):
        # dong d = 2 with its control and task factors swapped and every
        # target remapped: the same circuit, its control behind the task
        ir = mo.to_ir(co.build("dong", 2))
        ir["layout"][:2] = ir["layout"][1::-1]
        for step in ir["steps"]:
            step["targets"] = [{0: 1, 1: 0}.get(t, t) for t in step["targets"]]
        path = tmp_path / "ctrl2.json"
        path.write_text(json.dumps(ir))
        code = run(command, path, "--task", "cUm", "--m", 2, "--d", 2, *flags,
                   "--out", tmp_path / "out")
        assert "leading the output factors" in self._input_error(code, capsys)


class TestConsecutiveCalls:
    """``main`` reuses one parser; each call parses, exits and reports as a
    freshly built parser does."""

    def test_calls_in_a_row(self, tmp_path, capsys):
        fresh = cli.make_parser()
        with pytest.raises(SystemExit):
            fresh.parse_args(["build", "dong", "--bogus", "1"])
        usage_error = capsys.readouterr().err
        assert "unrecognized arguments: --bogus 1" in usage_error

        # a bad flag, then good calls of other commands
        assert run("build", "dong", "--bogus", 1) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == usage_error
        assert run("build", "kitaev", "--d", 3, "--out", tmp_path / "kit.json") == cli.EXIT_OK
        # the previous call's --d does not carry over: dong takes the default d = 2
        assert run("build", "dong", "--out", tmp_path / "dong.json") == cli.EXIT_OK
        assert json.loads((tmp_path / "dong.json").read_text())["d"] == 2
        assert run("verify", tmp_path / "dong.json", "--task", "cUm", "--m", 2, "--d", 2,
                   "--samples", 2, "--out", tmp_path / "rep.json") == cli.EXIT_OK
        assert run("verify", tmp_path / "dong.json", "--task", "bogus") == cli.EXIT_INPUT_ERROR
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert run("build", "dong", "--bogus", 1) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == usage_error
        assert run("--help") == cli.EXIT_OK
        assert capsys.readouterr().out == fresh.format_help()
        assert run("sweep", "constant-circuit", "--task", "cUm", "--m", 1, "--grid", "diag:2",
                   "--out", tmp_path / "s.csv") == cli.EXIT_OK
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 3


# a fresh interpreter: the scipy modules loaded after importing uctrl and
# uctrl.cli, building and verifying through cli.main, taking one
# single-matrix root and probing the root-composed evaluator
_START_UP = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
import uctrl
loaded = {"import uctrl": scipy_modules()}
import uctrl.cli as cli
loaded["import uctrl.cli"] = scipy_modules()
codes = [cli.main(["build", "dong", "--d", "2", "--out", out + "/dong2.json"]),
         cli.main(["verify", out + "/dong2.json", "--task", "cUm", "--m", "2", "--d", "2",
                   "--samples", "2", "--out", out + "/verify.json"])]
loaded["build, verify"] = scipy_modules()
from uctrl import linalg as la
np.save(out + "/root.npy", la.principal_root(la.haar_unitary(2, 5), 2))
loaded["a single-matrix root"] = scipy_modules()
codes.append(cli.main(["probe", "root-composed", "--m", "1", "--d", "2", "--out", out + "/probe_root"]))
loaded["probe root-composed"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestStartUp:
    """uctrl runs on numpy alone: no command and no principal root loads
    scipy.  The check runs in a fresh interpreter, since the tests' Schur
    reference loads scipy here."""

    def test_no_scipy_at_run_time(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _START_UP, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_CHECK_FAILED]
        assert got["loaded"] == {"import uctrl": [], "import uctrl.cli": [], "build, verify": [],
                                 "a single-matrix root": [], "probe root-composed": []}
        np.testing.assert_array_equal(np.load(tmp_path / "root.npy"),
                                      la.principal_root(la.haar_unitary(2, 5), 2))

    def test_build_leaves_numpy_ma_unloaded(self, tmp_path):
        # the IR writer finds its distinct floats without np.unique, whose
        # first call imports numpy.ma
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys; from uctrl import cli; "
                  "code = cli.main(['build', 'dong', '--d', '2', '--out', sys.argv[1]]); "
                  "print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "dong2.json")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == f"{cli.EXIT_OK} False"


# -- property test: random field mutations of valid IR --------------------------

_DELETE = object()

# JSON values of every shape; the fuzz filters out those a field accepts
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

_ACCEPTS = {  # field kind: the values from_ir accepts there
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "query": lambda v: isinstance(v, str) and v in ("id", "inv"),
    "matrix": lambda v: isinstance(v, (dict, str)),  # inline, or a path
    "projector": lambda v: v is None or isinstance(v, (dict, str)),
    "any": lambda v: True,
}

_FUZZ_PROGRAMS = {  # name: verify flags; dong has no projector, transpose has one and task_out
    "dong": ["--task", "cUm", "--m", 2, "--d", 2],
    "transpose": ["--task", "transpose", "--d", 2],
}


def _ir_fields(ir) -> list[tuple[tuple, str, bool]]:
    """(path, kind, required) for every field of a circuit IR a mutation may
    touch: deleting a required key or giving any field a value outside its
    kind makes the IR malformed."""
    def matrix(path, m):
        out = [(path, "matrix", True)]
        if isinstance(m, dict):
            out += [(path + (k,), "int" if k in ("rows", "cols") else "list", True)
                    for k in ("rows", "cols", "re", "im")]
        return out

    def targets(path, ts, required):
        return [(path, "list", required)] + [(path + (j,), "int", False) for j in range(len(ts))]

    fields = [(("d",), "int", True), (("layout",), "list", True), (("steps",), "list", True),
              (("projector",), "projector", False)]
    for i in range(len(ir["layout"])):
        fields += [(("layout", i), "object", False), (("layout", i, "dim"), "int", True),
                   (("layout", i, "role"), "any", True)]
    for i, s in enumerate(ir["steps"]):
        p = ("steps", i)
        fields.append((p, "object", False))
        if "query" in s:
            fields += [(p + ("query",), "query", True)] + targets(p + ("targets",), s["targets"], True)
        else:
            fields += matrix(p + ("unitary",), s["unitary"]) + targets(p + ("targets",), s["targets"], False)
    if isinstance(ir["projector"], dict):
        fields += matrix(("projector", "matrix"), ir["projector"]["matrix"])
        fields += targets(("projector", "targets"), ir["projector"]["targets"], False)
    if "task_out" in ir:
        fields += targets(("task_out",), ir["task_out"], False)
    return fields


@functools.lru_cache(maxsize=None)
def _ir_text(name: str) -> str:
    return json.dumps(mo.to_ir(co.build(name, 2)))


@st.composite
def _mutated_ir(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_PROGRAMS)))
    ir = json.loads(_ir_text(name))
    fields = _ir_fields(ir)
    picks = draw(st.lists(st.integers(0, len(fields) - 1), min_size=1, max_size=2, unique=True))
    mutations = []
    for k in picks:
        path, kind, required = fields[k]
        if kind == "any" or (required and draw(st.booleans())):
            value = _DELETE
        else:
            value = draw(_JSON_VALUES.filter(lambda v, kind=kind: not _ACCEPTS[kind](v)))
        mutations.append((path, value))
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):  # inner fields first
        node = ir
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return name, ir


class TestIrFuzz:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_mutated_ir())
    def test_mutated_ir_exits_3(self, case):
        name, ir = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ir.json"
            path.write_text(json.dumps(ir))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run("verify", path, *_FUZZ_PROGRAMS[name], "--samples", 1)
        assert code == cli.EXIT_INPUT_ERROR, err.getvalue()
        assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
