"""Builders for the oracle programs under study.

Each builder returns an :class:`~uctrl.model.OracleAlgorithm` whose fixed
unitaries are completed deterministically: preparation unitaries are pinned
on the columns that matter (the antisymmetric state, the generalised Bell
state, the minor-expansion isometry) and the other columns are the
orthonormal complement from a Householder QR of the pinned ones, so
rebuilding a program is reproducible bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from . import linalg as la
from .linalg import RegisterLayout
from .model import ID, INV, FixedStep, OracleAlgorithm, QueryStep, oracle_stack

CHI_MAX_D = 5
NEUTRALISER_MAX_D = 4
ROOT_TOL = 1e-8
# names a ComposedRootEvaluator resolves on its template program
_TEMPLATE_ATTRS = frozenset({"oracle_dim", "layout", "dims", "total_dim", "h_factors",
                             "h_dim", "out_factors", "k_out_factors"})


def chi_state(d: int) -> np.ndarray:
    """Normalised totally antisymmetric state of d qudits; its expectation
    under U^(x)d is det(U)."""
    if not 2 <= d <= CHI_MAX_D:
        raise ValueError(f"chi_state supports 2 <= d <= {CHI_MAX_D} (dimension d^d)")
    amp = np.zeros(d ** d, dtype=complex)
    norm = 1.0 / math.sqrt(math.factorial(d))
    for p in permutations(range(d)):
        idx = 0
        for digit in p:
            idx = idx * d + digit
        amp[idx] = la.perm_sign(p) * norm
    return amp


def bell_state(d: int) -> np.ndarray:
    """Generalised Bell state (1/sqrt d) sum_i |ii> on two qudits."""
    amp = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amp[i * d + i] = 1.0 / math.sqrt(d)
    return amp


def zero_projector(dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[0, 0] = 1.0
    return p


def chi_prep_unitary(d: int) -> np.ndarray:
    """Unitary sending the all-zero state of d qudits to the antisymmetric
    state; remaining columns completed deterministically."""
    return la.complete_unitary(d ** d, {0: chi_state(d)})


def bell_prep_unitary(d: int) -> np.ndarray:
    """Unitary sending |00> to the generalised Bell state."""
    return la.complete_unitary(d * d, {0: bell_state(d)})


def minor_isometry(d: int) -> np.ndarray:
    """The (d^(d-1) x d) isometry whose columns are the signed
    minor-expansion states; conjugating U^(x)(d-1) by it yields the cofactor
    matrix of U."""
    if d < 2:
        raise ValueError("minor isometry needs d >= 2")
    e = np.zeros((d ** (d - 1), d), dtype=complex)
    norm = 1.0 / math.sqrt(math.factorial(d - 1))
    for p in permutations(range(d)):
        j = p[0]
        idx = 0
        for digit in p[1:]:
            idx = idx * d + digit
        e[idx, j] += la.perm_sign(p) * norm
    return e


def conj_prep_unitary(d: int) -> np.ndarray:
    """Unitary on d-1 qudits sending |j> (x) |0...0> to the j-th
    minor-expansion state."""
    e = minor_isometry(d)
    stride = d ** (d - 2) if d > 2 else 1
    pins = {j * stride: e[:, j] for j in range(d)}
    return la.complete_unitary(d ** (d - 1), pins)


def _cswap_block(d: int) -> np.ndarray:
    """Qubit-controlled exchange of two d-dimensional factors, firing on
    control value 0."""
    return la.controlled_block(la.swap_matrix(d), polarity=0)


def kitaev_cswap(d: int) -> OracleAlgorithm:
    """Single-query controlled routing: the query hits the task qudit on the
    control-1 branch and an ancilla qudit on the control-0 branch."""
    if d < 2:
        raise ValueError("oracle dimension must be >= 2")
    layout = RegisterLayout.of([2, d, d], ["control", "task", "anc"])
    cswap = FixedStep(_cswap_block(d), (0, 1, 2))
    steps = (cswap, QueryStep(ID, (1,)), cswap)
    return OracleAlgorithm("kitaev", d, layout, steps)


def neutraliser_parallel(d: int) -> OracleAlgorithm:
    """d parallel queries conjugated by the antisymmetric-state preparation:
    the all-zero state only acquires the phase det(U)."""
    if not 2 <= d <= NEUTRALISER_MAX_D:
        raise ValueError(f"neutraliser supports 2 <= d <= {NEUTRALISER_MAX_D}")
    layout = RegisterLayout.of([d] * d, ["anc"] * d)
    v = chi_prep_unitary(d)
    allf = tuple(range(d))
    steps = [FixedStep(v, allf)]
    steps += [QueryStep(ID, (i,)) for i in range(d)]
    steps.append(FixedStep(la.dagger(v), allf))
    return OracleAlgorithm("neutraliser", d, layout, tuple(steps))


def _dong_steps(d: int, letter) -> tuple:
    """One controlled-power pass: neutraliser preparation on the ancillas and
    d controlled-swap-routed queries on the task qudit."""
    anc = tuple(range(2, 2 + d))
    v = chi_prep_unitary(d)
    steps = [FixedStep(v, anc)]
    for i in range(d):
        cswap = FixedStep(_cswap_block(d), (0, 1, 2 + i))
        steps += [cswap, QueryStep(letter, (1,)), cswap]
    steps.append(FixedStep(la.dagger(v), anc))
    return tuple(steps)


def dong_cUd(d: int) -> OracleAlgorithm:
    """Controlled d-th power from d queries: the control-0 branch neutralises
    the routed queries to the phase det(U), the control-1 branch applies U^d."""
    if not 2 <= d <= NEUTRALISER_MAX_D:
        raise ValueError(f"dong supports 2 <= d <= {NEUTRALISER_MAX_D}")
    layout = RegisterLayout.of([2, d] + [d] * d, ["control", "task"] + ["anc"] * d)
    return OracleAlgorithm("dong", d, layout, _dong_steps(d, ID))


def power_cUm(d: int, m: int) -> OracleAlgorithm:
    """Controlled m-th power for d | m, by composing the controlled d-th
    power |m|/d times (with inverse queries when m is negative)."""
    if m == 0:
        raise ValueError("m must be a nonzero integer")
    if abs(m) > 8:
        raise ValueError("|m| must be at most 8")
    if m % d != 0:
        raise ValueError(
            f"no exact controlled-power program exists for m = {m} when the "
            f"oracle dimension {d} does not divide m")
    layout = RegisterLayout.of([2, d] + [d] * d, ["control", "task"] + ["anc"] * d)
    letter = ID if m > 0 else INV
    steps = _dong_steps(d, letter) * (abs(m) // d)
    return OracleAlgorithm(f"power{m}", d, layout, steps)


def conjugation(d: int) -> OracleAlgorithm:
    """Complex conjugation of the oracle from d-1 parallel queries conjugated
    by the minor-expansion preparation; output is U* with garbage phase
    det(U) on the d-2 ancilla qudits (no ancilla at d = 2)."""
    if not 2 <= d <= 4:
        raise ValueError("conjugation supports 2 <= d <= 4")
    layout = RegisterLayout.of([d] * (d - 1), ["task"] + ["anc"] * (d - 2))
    v = conj_prep_unitary(d)
    allf = tuple(range(d - 1))
    steps = [FixedStep(v, allf)]
    steps += [QueryStep(ID, (i,)) for i in range(d - 1)]
    steps.append(FixedStep(la.dagger(v), allf))
    projector = None
    if d > 2:
        anc = tuple(range(1, d - 1))
        projector = (zero_projector(d ** (d - 2)), anc)
    return OracleAlgorithm("conjugation", d, layout, tuple(steps), projector=projector)


def transpose_via_teleport(d: int) -> OracleAlgorithm:
    """Transpose through teleportation: one query on the bridge half of a
    Bell pair, success projection of (input, bridge) back onto the Bell
    state; the output register is the far half of the pair."""
    if not 2 <= d <= 4:
        raise ValueError("transpose supports 2 <= d <= 4")
    layout = RegisterLayout.of([d, d, d], ["task", "anc", "anc"])
    psi = bell_state(d)
    steps = (
        FixedStep(bell_prep_unitary(d), (1, 2)),
        QueryStep(ID, (1,)),
    )
    projector = (np.outer(psi, psi.conj()), (0, 1))
    return OracleAlgorithm("transpose", d, layout, steps,
                           projector=projector, task_out=(2,))


def inverse(d: int) -> OracleAlgorithm:
    """Inverse of the oracle: the teleportation bridge query is replaced by
    the conjugation block, so the ricochet turns U* into U^dagger on the
    output register.  Makes d-1 queries and succeeds with probability 1/d^2."""
    if not 2 <= d <= 3:
        raise ValueError("inverse supports 2 <= d <= 3")
    conj_factors = (1,) + tuple(range(3, 3 + d - 2))
    layout = RegisterLayout.of([d, d, d] + [d] * (d - 2),
                               ["task", "anc", "anc"] + ["anc"] * (d - 2))
    v = conj_prep_unitary(d)
    psi = bell_state(d)
    steps = [FixedStep(bell_prep_unitary(d), (1, 2)), FixedStep(v, conj_factors)]
    steps += [QueryStep(ID, (i,)) for i in conj_factors]
    steps.append(FixedStep(la.dagger(v), conj_factors))
    p_bell = np.outer(psi, psi.conj())
    if d > 2:
        proj_op = la.kron(p_bell, zero_projector(d ** (d - 2)))
        proj_targets = (0, 1) + tuple(range(3, 3 + d - 2))
    else:
        proj_op, proj_targets = p_bell, (0, 1)
    return OracleAlgorithm("inverse", d, layout, tuple(steps),
                           projector=(proj_op, proj_targets), task_out=(2,))


def spin_echo_cUd(d: int) -> OracleAlgorithm:
    """Controlled d-th power built around the conjugation block: an initial
    query is either corrected (control 0, via conjugation and teleportation)
    or amplified to U^d (control 1, via d-1 further routed queries)."""
    if d not in (2, 3):
        raise ValueError("spin-echo supports d in {2, 3}")
    # factors: 0 control, 1 task input, 2..d conjugation block, d+1 output
    layout = RegisterLayout.of([2, d] + [d] * (d - 1) + [d],
                               ["control", "task"] + ["anc"] * d)
    conj_factors = tuple(range(2, d + 1))
    v = conj_prep_unitary(d)
    psi = bell_state(d)
    steps = [
        QueryStep(ID, (1,)),
        FixedStep(bell_prep_unitary(d), (2, d + 1)),
        FixedStep(la.controlled_block(v, 0), (0,) + conj_factors),
    ]
    for i in range(1, d):
        cswap = FixedStep(_cswap_block(d), (0, 1, 1 + i))
        steps += [cswap, QueryStep(ID, (1,)), cswap]
    steps.append(FixedStep(la.controlled_block(la.dagger(v), 0), (0,) + conj_factors))
    if d > 2:
        proj_op = la.kron(np.outer(psi, psi.conj()), zero_projector(d ** (d - 2)))
        proj_targets = (1, 2) + tuple(range(3, d + 1))
    else:
        proj_op, proj_targets = np.outer(psi, psi.conj()), (1, 2)
    return OracleAlgorithm("spin-echo", d, layout, tuple(steps),
                           projector=(proj_op, proj_targets), task_out=(0, d + 1))


@dataclass
class ComposedRootEvaluator:
    """Controlled-power template with each query's action replaced by a
    supplied d-th root of the oracle.

    This is a plain evaluator, not an oracle program: when the root map is
    discontinuous the composite falls outside the program model (its query
    letters are not oracle queries), so it is kept behind this separate type
    and skipped by model-soundness sweeps.
    """

    d: int
    root: Callable[[np.ndarray], np.ndarray]
    inner: OracleAlgorithm
    name: str = "root-composed"

    def __getattr__(self, attr: str):
        # the register bookkeeping is the template's; reached only for names
        # the evaluator does not define itself
        if attr in _TEMPLATE_ATTRS:
            return getattr(self.inner, attr)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")

    def _root_of(self, u: np.ndarray) -> np.ndarray:
        """The root map applied oracle by oracle; a stack's unitarity and
        d-th powers are checked in one vectorised pass each."""
        us, stacked = oracle_stack(u, self.d)
        if stacked:  # name the bad index before the root map sees one oracle
            la.require_unitary(us, what="oracle")
        w = np.stack([self.root(x) for x in us])
        acc = np.eye(self.d, dtype=complex)
        for _ in range(self.d):
            acc = acc @ w
        bad = np.flatnonzero(~(la.spectral_norm(acc - us) <= ROOT_TOL))
        if bad.size:
            where = f" at index {bad[0]}" if stacked else ""
            raise ValueError(f"root map did not return a d-th root of the oracle{where}")
        return w if stacked else w[0]

    def apply_cols(self, u: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.inner.apply_cols(self._root_of(u), cols)

    def eval(self, u: np.ndarray) -> np.ndarray:
        return self.inner.eval(self._root_of(u))

    def task_block(self, u: np.ndarray) -> np.ndarray:
        return self.inner.task_block(self._root_of(u))


def composed_root_cU(d: int, root: Callable[[np.ndarray], np.ndarray]) -> ComposedRootEvaluator:
    """Compose the controlled d-th power template with a d-th root map,
    yielding a pointwise controlled-U evaluator for analysis."""
    return ComposedRootEvaluator(d=d, root=root, inner=dong_cUd(d))


BUILDERS = {
    "kitaev": kitaev_cswap,
    "dong": dong_cUd,
    "neutraliser": neutraliser_parallel,
    "conjugation": conjugation,
    "transpose": transpose_via_teleport,
    "inverse": inverse,
    "spin-echo": spin_echo_cUd,
}


def build(name: str, d: int, m: int | None = None) -> OracleAlgorithm:
    """Build a named program (CLI surface)."""
    if name == "power":
        if m is None:
            raise ValueError("power needs m")
        return power_cUm(d, m)
    if name not in BUILDERS:
        raise ValueError(f"unknown construction {name!r}; "
                         f"choose from {sorted(BUILDERS) + ['power']}")
    return BUILDERS[name](d)
