"""The benchmark's workloads: set-up and job lists.

Each workload is a function ``setup(seed, workdir) -> list[Job]``.  Set-up
builds the programs and oracles the timed pass uses; a pass runs every job
once, in order.  The seed drives every random input (Haar oracles, the
rotation of the sphere grid, the CLI's ``--seed``); uctrl only ever sees the
generated inputs.

A job's output is plain JSON data.  ``expect`` maps a flattened output path
(``"report.passed"``, ``"results.0.result"``) to the value it must have on
every seed, or to an inclusive ``(lo, hi)`` range for a float.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from uctrl import cli
from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp

# Residual bound of an exact achiever (the checkers' default tolerance).
EXACT = 1e-8


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    expect: dict


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary from the benchmark's own stream (QR of a Ginibre matrix,
    R diagonal rephased), independent of uctrl's sampler."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar orthogonal n x n matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


# -- probe-loop ------------------------------------------------------------------


def probe_loop(seed: int, workdir: Path) -> list[Job]:
    """Dichotomy probes along the central loop plus one sphere scan: thousands
    of small evaluations, each paying Python per-call and per-step overhead."""
    rng = np.random.default_rng([seed, 1])
    rotation = haar_rotation(rng, 4)
    root2 = co.composed_root_cU(2, lambda u: la.principal_root(u, 2))

    def probe(alg, m: int, d: int, K: int, k_final: int, divisible: bool) -> Job:
        def run():
            return tp.dichotomy_probe(alg, m, d, K=K).to_json()
        expect = {"K": k_final, "valid": True, "winding": m, "winding_matches_m": True,
                  "divisibility_ok": divisible, "jump_location": None,
                  "min_abs": (1e-12, 1.0 + 1e-9)}
        return Job(f"probe-{alg.name}-d{d}-m{m}-K{K}", run, expect)

    def scan():
        grid = tp.sphere_grid(8)
        half = grid.points[:grid.n_half] @ rotation.T
        rotated = tp.SphereGrid(points=np.vstack([half, -half]), resolution=grid.resolution)
        rep = tp.bu_scan(lambda u: complex(u[0, 0]), 2, rotated)
        return {"min_abs": rep.min_abs, "oddness_residual": rep.oddness_residual,
                "n_points": rep.n_points, "argmin": [float(x) for x in rep.argmin]}

    return [
        probe(co.build("dong", 2), 2, 2, 128, 128, True),
        # the principal-root composition: valid, winding 1, not a multiple of
        # d = 2 (the computed behaviour frozen for acceptance criterion 08c)
        probe(root2, 1, 2, 128, 128, False),
        probe(co.build("dong", 3), 3, 3, 32, 32, True),
        probe(co.build("spin-echo", 3), 3, 3, 32, 32, True),
        # starts undersampled and refines 16 -> 32 -> 64
        probe(co.build("power", 2, 8), 8, 2, 16, 64, True),
        Job("bu-scan-d2-grid8", scan,
            {"n_points": 2048, "oddness_residual": (0.0, 1e-12), "min_abs": (0.0, 1.0)}),
    ]


# -- verify-dense ----------------------------------------------------------------


def constant_circuit(d: int) -> mo.OracleAlgorithm:
    """Query-free program on (control x task): the identity, which does not
    implement a controlled U."""
    layout = la.RegisterLayout.of([2, d], ["control", "task"])
    return mo.OracleAlgorithm("constant", d, layout,
                              (mo.FixedStep(np.eye(2 * d, dtype=complex), (0, 1)),))


def verify_dense(seed: int, workdir: Path) -> list[Job]:
    """The model checkers on wide programs: SVDs, spectral and trace norms and
    the phase minimisers dominate; step-kernel overhead is a small share."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for d in (4, 3):
        alg, task = co.build("dong", d), mo.cum_task(d, d)
        oracles = [haar_unitary(rng, d) for _ in range(2)]
        for i, u in enumerate(oracles):
            jobs.append(Job(f"check-exact-dong-d{d}-u{i}",
                            lambda alg=alg, task=task, u=u: _exact(alg, task, u),
                            {"achieved": True, "residual": (0.0, EXACT),
                             "rank_residual": (0.0, EXACT)}))
        for i, u in enumerate(oracles):
            jobs.append(Job(f"eps-dong-d{d}-u{i}",
                            lambda alg=alg, task=task, u=u: {
                                "eps": mo.eps_distance_estimate(alg, task, u, n_samples=2)},
                            {"eps": (0.0, EXACT)}))
        jobs.append(Job(f"pure-deviation-dong-d{d}-u0",
                        lambda alg=alg, task=task, u=oracles[0]: {
                            "deviation": mo.pure_deviation(alg, task, u)},
                        {"deviation": (0.0, EXACT)}))
    const, task1, u2 = constant_circuit(2), mo.cum_task(2, 1), haar_unitary(rng, 2)
    # not an achiever: the estimate takes the phase-grid and golden-section path
    jobs.append(Job("eps-constant-d2-u0",
                    lambda: {"eps": mo.eps_distance_estimate(const, task1, u2, n_samples=2)},
                    {"eps": (1e-3, 2.0)}))
    return jobs


def _exact(alg, task, u) -> dict:
    res = mo.check_exact(alg, task, u)
    return {"achieved": bool(res.achieved), "residual": res.residual,
            "rank_residual": res.rank_residual, "phase": res.phase,
            "success_prob": res.success_prob}


# -- cli-build-io ------------------------------------------------------------------


BUILDS = (("dong", 4, None), ("neutraliser", 4, None), ("conjugation", 4, None),
          ("spin-echo", 3, None), ("inverse", 3, None), ("transpose", 3, None),
          ("power", 2, 4), ("dong", 3, None))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_build_io(seed: int, workdir: Path) -> list[Job]:
    """``uctrl.cli.main`` in process: build programs to IR files up to 1.5 MB,
    then verify and sweep them from those files (JSON encode beside decode and
    validation, wide column blocks beside narrow ones)."""
    def ir(name: str, d: int, m: int | None = None) -> str:
        return str(workdir / f"{name}{d}{'' if m is None else f'm{m}'}.json")

    def build(name: str, d: int, m: int | None) -> Job:
        argv = ["build", name, "--d", str(d), "--out", ir(name, d, m)]
        if m is not None:
            argv += ["--m", str(m)]

        def run():
            code, text = _cli(argv)
            return {"exit": code, "summary": text.strip().split(": ", 1)[-1]}
        return Job(f"build-{name}-d{d}" + ("" if m is None else f"-m{m}"), run, {"exit": 0})

    def verify(label: str, args: list[str]) -> Job:
        report = workdir / f"verify-{label}.json"
        argv = ["verify", *args, "--samples", "2", "--seed", str(seed), "--out", str(report)]

        def run():
            code, _ = _cli(argv)
            return {"exit": code, "report": json.loads(report.read_text())}
        return Job(f"verify-{label}", run, {"exit": 0, "report.passed": True})

    sweep_csv = workdir / "sweep-spin-echo3.csv"

    def sweep():
        code, _ = _cli(["sweep", ir("spin-echo", 3), "--task", "cUm", "--m", "3", "--d", "3",
                        "--grid", "diag:16", "--out", str(sweep_csv)])
        with open(sweep_csv, newline="") as f:
            rows = list(csv.reader(f))
        return {"exit": code, "header": rows[0],
                "rows": [[float(x) if x else None for x in row] for row in rows[1:]]}

    return [build(*b) for b in BUILDS] + [
        verify("exact-dong4", [ir("dong", 4), "--task", "cUm", "--m", "4", "--d", "4"]),
        verify("neutralise-neutraliser4", [ir("neutraliser", 4), "--task", "neutralise",
                                           "--d", "4"]),
        verify("clean-conjugation4", [ir("conjugation", 4), "--task", "conjugation",
                                      "--check", "clean", "--d", "4"]),
        verify("homogeneity-dong3", [ir("dong", 3), "--task", "cUm", "--m", "3", "--d", "3",
                                     "--check", "homogeneity"]),
        Job("sweep-diag16-spin-echo3", sweep, {"exit": 0}),
    ]


WORKLOADS = {
    "probe-loop": probe_loop,
    "verify-dense": verify_dense,
    "cli-build-io": cli_build_io,
}

# Sizes of one pass, recorded with every run.
SIZES = {
    "probe-loop": "dichotomy_probe: dong d=2 m=2 K=128, root-composed d=2 m=1 K=128, "
                  "dong d=3 m=3 K=32, spin-echo d=3 m=3 K=32, power d=2 m=8 K=16 (refines "
                  "to 64); bu_scan d=2 on a seeded rotation of sphere_grid(8), 2048 points",
    "verify-dense": "dong d=4 and d=3: check_exact x2 oracles, eps_distance_estimate "
                    "(n_samples=2) x2 oracles, pure_deviation x1 oracle; constant circuit "
                    "d=2 vs cU^1: eps_distance_estimate (n_samples=2) x1 oracle",
    "cli-build-io": "build dong4, neutraliser4, conjugation4, spin-echo3, inverse3, "
                    "transpose3, power d=2 m=4, dong3; verify --samples 2: exact dong4, "
                    "neutralise neutraliser4, clean conjugation4, homogeneity dong3; "
                    "sweep --grid diag:16 spin-echo3",
}
