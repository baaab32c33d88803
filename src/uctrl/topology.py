"""Phase extraction along loops of oracles, winding numbers, the
multiple-of-d dichotomy probe, and the odd-map sphere scan.

The central loop is the global-phase circle t -> e^{2 pi i t} Id in the
oracle group.  Phase functions built from programs are sampled along it and
phase-unwrapped with a pi/2 step bound, stricter than the pi aliasing limit,
so that an unresolvable jump (a genuine discontinuity) is distinguished from
undersampling by refinement: doubling the sample count shrinks honest steps
but leaves a true jump at pi no matter the resolution.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg as la
from .model import (ModelViolationError, _check_compat, _one_oracle, cum_task, out_split,
                    over_stack, unitary_power)

STEP_BOUND = math.pi / 2
ABS_FLOOR = 1e-12
K_MAX = 2 ** 14


def _require_samples(K: int) -> None:
    if K < 16:
        raise ValueError("loop sampling needs K >= 16")


def central_loop(d: int, K: int) -> np.ndarray:
    """K samples of the global-phase loop e^{2 pi i k / K} Id in U(d), as a
    (K, d, d) stack."""
    _require_samples(K)
    phases = np.exp(2j * np.pi * np.arange(K) / K)
    return phases[:, None, None] * np.eye(d, dtype=complex)


def _h_witness(alg, us: np.ndarray, m: int) -> np.ndarray:
    d, rows = alg.oracle_dim, alg.layout.task_rows
    # both witness columns in one pass, each a task input with the ancillas at
    # 0: |0> (x) |0> and |1> (x) (U^m)^dagger |0> on (control, task)
    cols = np.zeros((len(us), alg.total_dim, 2), dtype=complex)
    cols[:, rows[0], 0] = 1.0
    cols[:, rows[d:], 1] = unitary_power(us, m)[:, 0, :].conj()
    y = out_split(alg, alg.apply_cols(us, cols))
    return np.einsum("bij,bij->b", y[:, d:, :, 1].conj(), y[:, :d, :, 0])


def extract_h(alg, u: np.ndarray, m: int) -> complex | np.ndarray:
    """Relative-phase witness between the control blocks of a program that
    targets the controlled m-th power; for an exact achiever it equals
    e^{-i phi(U)} times the all-zero success probability.  ``u`` may be a
    (K, d, d) stack, giving the K witnesses as an array, evaluated by
    ``model.over_stack`` two columns per oracle; a single (d, d) oracle is
    the stack of one and gives a complex.  The program must pass the
    checkers' gate for the controlled m-th power."""
    _check_compat(alg, cum_task(alg.oracle_dim, m))
    return over_stack(lambda us: _h_witness(alg, us, m), u, alg.oracle_dim, 2 * alg.total_dim)


def _fplus_witness(alg, us: np.ndarray, m: int) -> np.ndarray:
    d, rows = alg.oracle_dim, alg.layout.task_rows
    col = np.zeros(alg.total_dim, dtype=complex)
    col[rows[[0, d]]] = 1 / math.sqrt(2)
    z = alg.apply_cols(us, col)
    p_plus = np.linalg.norm(z, axis=1) ** 2
    if np.any(p_plus <= ABS_FLOOR):
        raise ModelViolationError("plus-control postselection probability vanished")
    # U^m compares the branches on the OUTPUT task register, which may be a
    # relabeled factor: (control, output task) leads the split
    y = out_split(alg, z.T)
    a_rot = np.einsum("bij,jkb->ikb", unitary_power(us, m), y[:d])
    return np.einsum("ikb,ikb->b", y[d:].conj(), a_rot) / p_plus


def extract_fplus(alg, u: np.ndarray, m: int) -> complex | np.ndarray:
    """Plus-control variant of the phase witness, normalised by the
    plus-control success probability; for an exact achiever it equals
    (1/2) e^{-i phi(U)} and for an eps-approximator stays away from zero.
    ``u`` may be a (K, d, d) stack, giving the K witnesses as an array, in
    slices of one column per oracle, as for :func:`extract_h`."""
    _check_compat(alg, cum_task(alg.oracle_dim, m))
    return over_stack(lambda us: _fplus_witness(alg, us, m), u, alg.oracle_dim, alg.total_dim)


def neutral_phase(alg, u: np.ndarray) -> complex:
    """Normalised all-zero matrix element; unimodular whenever the all-zero
    success probability is nonzero.  ``u`` is one (d, d) oracle, not a
    stack."""
    _one_oracle(u, alg.oracle_dim, "neutral_phase")
    col = alg.apply_cols(u, la.basis_state(alg.total_dim, 0))
    nrm = np.linalg.norm(col)
    if nrm <= ABS_FLOOR:
        raise ModelViolationError("all-zero postselection probability vanished")
    return complex(col[0] / nrm)


@dataclass
class LoopTrace:
    """Sampled phase function along the central loop.

    ``unwrapped`` has one extra entry closing the loop back to t = 1; the
    winding number is its net increase over 2 pi.  A trace is valid when no
    sample vanishes and every unwrapping step stays below pi/2.
    """

    d: int
    K: int
    ts: np.ndarray
    values: np.ndarray
    unwrapped: np.ndarray
    valid: bool
    winding: int | None
    min_abs: float
    max_step: float
    jump_location: float | None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "re_f", "im_f", "unwrapped_phase"])
            for t, v, p in zip(self.ts, self.values, self.unwrapped[:-1]):
                w.writerow([f"{t:.12g}", f"{v.real:.17g}", f"{v.imag:.17g}", f"{p:.17g}"])


def loop_trace(f: Callable[[np.ndarray], complex], d: int, K: int, *,
               stacked: bool = False) -> LoopTrace:
    """Sample f along the central loop and unwrap its phase.  With
    ``stacked`` f takes the whole (K, d, d) loop and returns its K values in
    one call; the trace is the same."""
    us = central_loop(d, K)
    if stacked:
        values = _stacked_values(f, us)
    else:
        values = np.array([f(u) for u in us], dtype=complex)
    ts = np.arange(K) / K
    mags = np.abs(values)
    min_abs = float(mags.min())

    closed = np.append(values, values[0])
    steps = np.angle(closed[1:] / np.where(np.abs(closed[:-1]) > 0, closed[:-1], 1.0))
    unwrapped = np.empty(K + 1)
    unwrapped[0] = np.angle(values[0])
    unwrapped[1:] = unwrapped[0] + np.cumsum(steps)
    max_step = float(np.max(np.abs(steps)))

    valid = min_abs > ABS_FLOOR and max_step < STEP_BOUND
    winding = None
    jump = None
    if valid:
        # the steps of a closed loop sum to 2 pi n up to rounding, so round
        winding = int(round((unwrapped[-1] - unwrapped[0]) / (2 * np.pi)))
    else:
        bad = int(np.argmax(np.abs(steps)))
        jump = float((bad + 1) / K) if max_step >= STEP_BOUND else float(np.argmin(mags) / K)
    return LoopTrace(d=d, K=K, ts=ts, values=values, unwrapped=unwrapped,
                     valid=valid, winding=winding, min_abs=min_abs,
                     max_step=max_step, jump_location=jump)


def _stacked_values(f: Callable[[np.ndarray], np.ndarray], us: np.ndarray) -> np.ndarray:
    values = np.asarray(f(us), dtype=complex)
    if values.shape != (len(us),):
        raise ValueError(f"loop function returned shape {values.shape}, expected ({len(us)},)")
    return values


def winding(f: Callable[[np.ndarray], complex], d: int, K: int = 256,
            k_max: int = K_MAX, *, stacked: bool = False) -> LoopTrace:
    """Winding number of f along the central loop, refining the sampling by
    doubling K until the trace is valid or k_max is reached.  The returned
    trace carries either the integer winding or the surviving jump location.
    With ``stacked`` f takes a (n, d, d) stack of loop points and returns
    their n values, as for :func:`loop_trace`; it must be pointwise, each
    value depending on its own point alone, for each loop point is
    evaluated once: ``central_loop(d, 2K)[::2]`` is ``central_loop(d, K)``
    bit for bit, so a doubling reuses the K values it has and evaluates f
    only on its K new odd points.  A last rung k_max that is not a doubling
    evaluates all of its points.  The reuse pays only on a trace still
    invalid at the first rung: a jump, or a witness that vanishes on the
    loop."""
    evaluate = f if stacked else (lambda us: [f(u) for u in us])
    held = np.empty(0, dtype=complex)

    def rung(us: np.ndarray) -> np.ndarray:
        nonlocal held
        if len(us) == 2 * len(held):  # interleave the new odd points
            held = np.stack([held, _stacked_values(evaluate, us[1::2])], axis=1).ravel()
        else:
            held = _stacked_values(evaluate, us)
        return held

    trace = loop_trace(rung, d, K, stacked=True)
    while not trace.valid and trace.K < k_max:
        trace = loop_trace(rung, d, min(2 * trace.K, k_max), stacked=True)
    return trace


@dataclass
class ProbeReport:
    m: int
    d: int
    K: int
    valid: bool
    winding: int | None
    min_abs: float
    jump_location: float | None
    winding_matches_m: bool
    divisibility_ok: bool
    trace: LoopTrace = field(repr=False)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "K": self.K,
            "winding": self.winding,
            "valid": self.valid,
            "min_abs": self.min_abs,
            "jump_location": self.jump_location,
            "winding_matches_m": self.winding_matches_m,
            "divisibility_ok": self.divisibility_ok,
        }


def dichotomy_probe(alg, m: int, d: int, K: int = 256, use_fplus: bool = False,
                    k_max: int = K_MAX) -> ProbeReport:
    """Wind the phase witness of a would-be controlled-m-th-power program
    along the central loop.

    A homogeneous program of net degree m must produce a trace winding
    exactly m; a valid trace with m not a multiple of d certifies that the
    object cannot be a continuous oracle program, and an invalid trace
    (an unresolvable jump or a vanishing witness) is the other face of the
    same obstruction.

    The probe does not promise which face shows.  An evaluator built on a
    discontinuous root map can still give a valid trace whose winding is
    not a multiple of d: the principal-root composition on the central loop
    jumps only by an overall sign of the root, which the witness does not
    see, so it winds 1 with d = 2 and no jump appears.

    For an oracle program the central loop checks only homogeneity and
    h(I) != 0: on U = z Id the witness is exactly z^m h(I), so the trace
    winds m or its witness vanishes.

    Each loop point is evaluated once, so ``alg`` must evaluate each oracle
    of a stack on its own, as a program does.  A valid trace winds fewer
    than K/4 times, so the witness is first evaluated at the first doubling
    of K above 4|m| (at most k_max), and the lower rungs are read off that
    stack every 2^j-th value; every rung is traced in order and the first
    valid one returned, and :func:`winding` refines from there, given the
    witness with that stack's values at its points.
    """
    extractor = extract_fplus if use_fplus else extract_h
    witness = lambda us: extractor(alg, us, m)
    _require_samples(K)  # before any evaluation
    top = K
    while top <= 4 * abs(m) and 2 * top <= k_max:
        top *= 2
    f = witness
    if top > K:
        points = central_loop(d, top)
        ahead = _stacked_values(witness, points)
        f = lambda us: ahead if np.array_equal(us, points) else witness(us)
    n = K
    while n < top:
        trace = loop_trace(lambda us: ahead[::top // len(us)], d, n, stacked=True)
        if trace.valid:
            break
        n *= 2
    else:
        trace = winding(f, d, top, k_max, stacked=True)
    matches = trace.valid and trace.winding == m
    divisible = (not trace.valid) or trace.winding % d == 0
    return ProbeReport(m=m, d=d, K=trace.K, valid=trace.valid,
                       winding=trace.winding, min_abs=trace.min_abs,
                       jump_location=trace.jump_location,
                       winding_matches_m=matches, divisibility_ok=divisible,
                       trace=trace)


# -- odd-map sphere scan -------------------------------------------------------


def bu_map_g(x: np.ndarray, d: int) -> np.ndarray:
    """Odd embedding of the 3-sphere into the d-dimensional unitaries (d
    even): paired diagonal entries x1 +/- i x2 and antidiagonal entries
    -/+ x3 + i x4; g(1,0,0,0) is the identity and g(-x) = -g(x).  A (P, 4)
    array of points gives the (P, d, d) stack of their images; a single
    point is the stack of one, so a point off the sphere is named by its
    index, "(point 0)" for a single one."""
    if d % 2 != 0:
        raise ValueError("the sphere embedding needs even dimension")
    x = np.asarray(x, dtype=float)
    pts = x if x.ndim == 2 else x.reshape(1, -1)
    if pts.shape[1] != 4:
        raise ValueError("input must be a unit 4-vector")
    bad = np.flatnonzero(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"input must be a unit 4-vector (point {bad[0]})")
    x1, x2, x3, x4 = (c[:, None] for c in pts.T)
    i = np.arange(d // 2)
    j = d - 1 - i
    g = np.zeros((len(pts), d, d), dtype=complex)
    g[:, i, i] = x1 + 1j * x2
    g[:, j, j] = x1 - 1j * x2
    g[:, i, j] = -x3 + 1j * x4
    g[:, j, i] = x3 + 1j * x4
    return g if x.ndim == 2 else g[0]


@dataclass
class SphereGrid:
    """Antipodally closed point set on the 3-sphere: points[i + n_half] is
    exactly -points[i]."""

    points: np.ndarray
    resolution: int

    @property
    def n_half(self) -> int:
        return self.points.shape[0] // 2

    def __len__(self) -> int:
        return self.points.shape[0]


def _sin_cos(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.sin and math.cos of each angle (the libm values, which numpy's
    own vectorised sin and cos need not match to the last bit)."""
    return (np.array([math.sin(a) for a in angles]),
            np.array([math.cos(a) for a in angles]))


def sphere_grid(resolution: int) -> SphereGrid:
    """Product grid in hyperspherical coordinates, offset from the poles, and
    closed under x -> -x by explicit pairing."""
    n = int(resolution)
    if n < 2:
        raise ValueError("grid resolution must be >= 2")
    psis = np.pi * (np.arange(n) + 0.5) / n
    thetas = np.pi * (np.arange(n) + 0.5) / n
    phis = 2 * np.pi * np.arange(2 * n) / (2 * n)
    # the (psi, theta, phi) product in that nesting order, with the same
    # scalar sines and cosines and the same products as a loop over points
    sp, cp = _sin_cos(psis)
    st, ct = _sin_cos(thetas)
    sph, cph = _sin_cos(phis)
    spst = (sp[:, None] * st)[:, :, None]
    half = np.empty((n, n, 2 * n, 4))
    half[..., 0] = cp[:, None, None]
    half[..., 1] = (sp[:, None] * ct)[:, :, None]
    half[..., 2] = spst * cph
    half[..., 3] = spst * sph
    half = half.reshape(-1, 4)
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return SphereGrid(points=np.vstack([half, -half]), resolution=n)


@dataclass
class BuScanReport:
    min_abs: float
    argmin: np.ndarray
    oddness_residual: float
    n_points: int


def bu_scan(h_eval: Callable[[np.ndarray], complex], d: int, grid: SphereGrid) -> BuScanReport:
    """Evaluate h over the embedded sphere: report the smallest modulus (an
    odd continuous h must vanish somewhere, so this tends to zero under
    refinement) and the worst antipodal-oddness defect max |h(-x) + h(x)|.
    ``d`` must be even (``bu_map_g``)."""
    vals = np.array([h_eval(g) for g in bu_map_g(grid.points, d)], dtype=complex)
    mags = np.abs(vals)
    best = int(np.argmin(mags))
    n_half = grid.n_half
    oddness = float(np.max(np.abs(vals[:n_half] + vals[n_half:])))
    return BuScanReport(min_abs=float(mags[best]), argmin=grid.points[best],
                        oddness_residual=oddness, n_points=len(grid))
