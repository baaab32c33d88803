"""Command-line entry point: build programs to circuit-IR files, run
verification suites over sampled oracles, run dichotomy and sphere-scan
probes, and emit CSV sweep data for plotting.

Exit codes: 0 all checks passed, 1 a check failed, 2 model violation
(vanishing postselection probability), 3 input error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import constructions as co
from . import linalg as la
from . import model as mo
from . import topology as tp

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MODEL_VIOLATION = 2
EXIT_INPUT_ERROR = 3

BUILD_NAMES = sorted(co.BUILDERS) + ["power"]
SPECIAL_PROGRAMS = ("root-composed", "constant-circuit")


def _config(args) -> argparse.Namespace:
    """The parsed flags, checked: every command reads its settings from them."""
    if not 2 <= args.d <= 4:
        raise ValueError("d must be in [2, 4]")
    if args.K < 16 or args.K & (args.K - 1):
        raise ValueError("K must be a power of two >= 16")
    if not 0 < args.tol <= 1e-2:
        raise ValueError("tol must lie in (0, 1e-2]")
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    return args


def _constant_circuit(d: int) -> mo.OracleAlgorithm:
    layout = la.RegisterLayout.of([2, d], ["control", "task"])
    eye = np.eye(2 * d, dtype=complex)
    return mo.OracleAlgorithm("constant", d, layout, (mo.FixedStep(eye, (0, 1)),))


def _load_program(source: str, cfg):
    if source == "root-composed":
        return co.composed_root_cU(cfg.d, lambda u: la.principal_root(u, cfg.d))
    if source == "constant-circuit":
        return _constant_circuit(cfg.d)
    return mo.from_ir(source)


def _emit(obj: dict, out: str | None):
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_build(args) -> int:
    alg = co.build(args.name, args.d, args.m)
    out = args.out or f"{alg.name}.json"
    mo.write_ir(alg, out)
    print(f"wrote {out}: layout {list(alg.dims)}, "
          f"{alg.query_count} queries ({'/'.join(l.name for l in alg.query_letters)})")
    return EXIT_OK


def _entries(check: str, cfg, rows) -> list[dict]:
    """The report entries of ``rows``, one (result, residual, fields) per
    oracle: the fields every check writes, then the check's own ``fields``."""
    return [{"check": check, "U_seed": cfg.seed + i, "result": bool(result),
             "residual": float(residual), **fields}
            for i, (result, residual, fields) in enumerate(rows)]


def _verify_exact(alg, task, us, cfg):
    rows = []
    for res in mo.check_exact(alg, task, us, tol=cfg.tol):
        fields = {"rank_residual": float(res.rank_residual), "success_prob": res.success_prob}
        if res.phase is not None:
            fields["phase"] = float(res.phase)
        if not res.achieved and res.rank_residual > cfg.tol:
            fields["diagnostic"] = (
                f"ancilla rank deficiency: second singular value "
                f"{res.rank_residual:.3e} exceeds tol {cfg.tol:.1e}")
        rows.append((res.achieved, res.residual, fields))
    return _entries("exact", cfg, rows)


def _verify_eps(alg, task, us, cfg):
    vals = mo.eps_distance_estimate(alg, task, us, n_samples=4, seed=cfg.seed)
    return _entries("eps", cfg, [(val <= cfg.tol, val, {}) for val in vals])


def _verify_clean(alg, task, us, cfg):
    res = mo.check_clean(alg, task, us, tol=cfg.tol)
    return _entries("clean", cfg, [(res.clean, 0.0,
                                    {"diagnostic": res.reason} if res.reason else {})])


def _verify_homogeneity(alg, task, us, cfg):
    if not hasattr(alg, "query_letters"):
        raise ValueError(f"the homogeneity check needs an oracle program with query letters; "
                         f"{alg.name} has none")
    delta = mo.static_homogeneity(alg.query_letters)
    lams = np.exp(2j * np.pi * np.random.default_rng(cfg.seed).random(len(us)))
    return _entries("homogeneity", cfg, [
        (resid <= cfg.tol, resid, {"degree": delta})
        for resid in mo.numeric_homogeneity_check(alg, us, lams, delta)])


_TASK_CHECKS = {"exact": _verify_exact, "eps": _verify_eps, "clean": _verify_clean,
                "homogeneity": _verify_homogeneity}


def cmd_verify(args) -> int:
    alg = _load_program(args.ir, args)
    check = args.check
    if check is None:
        check = "neutralise" if args.task == "neutralise" else "exact"
    us = np.stack(la.haar_unitaries(args.d, args.samples, args.seed))

    report: dict = {"check": check, "d": args.d, "samples": args.samples,
                    "seed": args.seed, "tol": args.tol, "program": alg.name}
    if check == "neutralise":
        res = mo.check_neutralises(alg, us, tol=args.tol)
        report["results"] = _entries("neutralise", args, [
            (res.passed, resid, {"r": r, "phase": phase})
            for resid, r, phase in zip(res.residuals, res.r_values, res.phases)])
        report["r"] = res.r
        report["passed"] = res.passed
        if res.reason:
            report["diagnostic"] = res.reason
    else:
        task = mo.make_task(args.task, args.d, args.m)
        report["results"] = _TASK_CHECKS[check](alg, task, us, args)
        report["passed"] = all(e["result"] for e in report["results"])

    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_probe(args) -> int:
    if args.m is None:
        raise ValueError("probe needs --m")
    alg = _load_program(args.ir, args)
    rep = tp.dichotomy_probe(alg, args.m, args.d, K=args.K)
    base = args.out or "probe"
    _emit(rep.to_json(), f"{base}.json")
    rep.trace.to_csv(f"{base}.csv")
    print(f"probe m={args.m} d={args.d}: valid={rep.valid} winding={rep.winding} "
          f"min|f|={rep.min_abs:.3g}" +
          (f" jump near t={rep.jump_location}" if rep.jump_location is not None else ""))
    ok = rep.valid and rep.winding_matches_m and rep.divisibility_ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bu_scan(args) -> int:
    if args.refinements < 1:
        raise ValueError("refinements must be >= 1")
    levels = []
    n = args.resolution
    for _ in range(args.refinements):
        grid = tp.sphere_grid(n)
        rep = tp.bu_scan(lambda u: complex(u[0, 0]), args.d, grid)
        levels.append({"resolution": n, "points": rep.n_points,
                       "min_abs": rep.min_abs,
                       "argmin": [float(x) for x in rep.argmin],
                       "oddness_residual": rep.oddness_residual})
        n *= 2
    report = {"d": args.d, "test_function": "zero-zero matrix element", "levels": levels}
    _emit(report, args.out)
    mins = [lv["min_abs"] for lv in levels]
    return EXIT_OK if all(b < a + 1e-12 for a, b in zip(mins, mins[1:])) else EXIT_CHECK_FAILED


def _sweep_points(kind: str, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's n parameters and its (n, d, d) stack of oracles:
    diag(1, ..., 1, e^{i theta}) or the central loop e^{2 pi i t} Id."""
    if kind not in ("diag", "loop"):  # checked even when the grid is empty
        raise ValueError(f"unknown sweep grid {kind!r} (use diag:N or loop:N)")
    if kind == "diag":
        params = 2 * np.pi * np.arange(n) / n
        us = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
        us[:, -1, -1] = np.exp(1j * params)
    else:
        params = np.arange(n) / n
        us = np.exp(2j * np.pi * params)[:, None, None] * np.eye(d, dtype=complex)
    return params, us


def cmd_sweep(args) -> int:
    alg = _load_program(args.ir, args)
    task = mo.make_task(args.task, args.d, args.m)
    try:
        kind, n_str = args.grid.split(":")
        n = int(n_str)
    except ValueError as exc:
        raise ValueError("grid must look like diag:64 or loop:256") from exc
    if n < 0:
        raise ValueError("grid size must not be negative")

    with_eps = args.check == "eps"
    header = ["param", "success_prob", "residual", "phase"] + (["eps"] if with_eps else [])
    params, us = _sweep_points(kind, n, args.d)
    # each result carries the all-zero input's success probability; the eps
    # estimates come from the same zero-ancilla blocks
    if with_eps:
        pairs = mo._exact_and_eps(alg, task, us, args.tol, n_samples=2, seed=args.seed)
    else:
        pairs = [(res, None) for res in mo.check_exact(alg, task, us, tol=args.tol)]
    rows = [[f"{param:.12g}", f"{res.zero_input_prob:.17g}", f"{res.residual:.17g}",
             "" if res.phase is None else f"{res.phase:.17g}"]
            + ([] if val is None else [f"{val:.17g}"])
            for param, (res, val) in zip(params, pairs)]

    out = args.out or "sweep.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uctrl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--d", type=int, default=2)
        q.add_argument("--m", type=int, default=None)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--samples", type=int, default=10)
        q.add_argument("--K", type=int, default=256)
        q.add_argument("--tol", type=float, default=mo.EXACT_TOL)
        q.add_argument("--out", type=str, default=None)

    b = sub.add_parser("build", help="emit a named program as circuit IR")
    b.add_argument("name", choices=BUILD_NAMES)
    common(b)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run a checker over sampled oracles")
    v.add_argument("ir", help="circuit IR path" + f" or one of {SPECIAL_PROGRAMS}")
    v.add_argument("--task", required=True,
                   choices=["cUm", "conjugation", "transpose", "inverse", "neutralise"])
    v.add_argument("--check", default=None,
                   choices=["exact", "eps", "neutralise", "clean", "homogeneity"])
    common(v)
    v.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("probe", help="winding probe along the central loop")
    pr.add_argument("ir", help="circuit IR path" + f" or one of {SPECIAL_PROGRAMS}")
    common(pr)
    pr.set_defaults(fn=cmd_probe)

    bu = sub.add_parser("bu-scan", help="odd-map sphere scan")
    bu.add_argument("--resolution", type=int, default=8)
    bu.add_argument("--refinements", type=int, default=1)
    common(bu)
    bu.set_defaults(fn=cmd_bu_scan)

    sw = sub.add_parser("sweep", help="emit per-oracle CSV plot data")
    sw.add_argument("ir", help="circuit IR path" + f" or one of {SPECIAL_PROGRAMS}")
    sw.add_argument("--task", required=True,
                    choices=["cUm", "conjugation", "transpose", "inverse"])
    sw.add_argument("--check", default="exact", choices=["exact", "eps"])
    sw.add_argument("--grid", default="diag:32")
    common(sw)
    sw.set_defaults(fn=cmd_sweep)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by the later
    ones: ``parse_args`` keeps no state between calls."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for model
        # violations and report bad flags as input errors instead
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        return args.fn(_config(args))
    except mo.ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL_VIOLATION
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # MemoryError: an IR whose dense state cannot be allocated
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
