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
from typing import Callable

import numpy as np

from . import linalg as la
from .linalg import RegisterLayout
from .model import (ID, INV, FixedStep, OracleAlgorithm, QueryStep, oracle_stack, set_registers,
                    unitary_power)

CHI_MAX_D = 5
NEUTRALISER_MAX_D = 4
ROOT_TOL = 1e-8


def chi_state(d: int) -> np.ndarray:
    """Normalised totally antisymmetric state of d qudits; its expectation
    under U^(x)d is det(U)."""
    if not 2 <= d <= CHI_MAX_D:
        raise ValueError(f"chi_state supports 2 <= d <= {CHI_MAX_D} (dimension d^d)")
    perms, signs = la.signed_permutations(d)
    norm = 1.0 / math.sqrt(math.factorial(d))
    amp = np.zeros(d ** d, dtype=complex)
    amp[np.ravel_multi_index(perms.T, (d,) * d)] = signs * norm
    return amp


def bell_state(d: int) -> np.ndarray:
    """Generalised Bell state (1/sqrt d) sum_i |ii> on two qudits."""
    return np.eye(d, dtype=complex).reshape(-1) * (1.0 / math.sqrt(d))


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
    perms, signs = la.signed_permutations(d)
    norm = 1.0 / math.sqrt(math.factorial(d - 1))
    e = np.zeros((d ** (d - 1), d), dtype=complex)
    # a permutation's first image is the column, its other d - 1 the row digits
    rows = np.ravel_multi_index(perms[:, 1:].T, (d,) * (d - 1))
    e[rows, perms[:, 0]] = signs * norm
    return e


def conj_prep_unitary(d: int) -> np.ndarray:
    """Unitary on d-1 qudits sending |j> (x) |0...0> to the j-th
    minor-expansion state."""
    e = minor_isometry(d)
    return la.complete_unitary(d ** (d - 1), {j * d ** (d - 2): e[:, j] for j in range(d)})


def _cswap_block(d: int) -> np.ndarray:
    """Qubit-controlled exchange of two d-dimensional factors, firing on
    control value 0."""
    return la.controlled_block(la.swap_matrix(d), polarity=0)


def _query_sandwich(v: np.ndarray, factors: tuple[int, ...]) -> tuple:
    """V on ``factors``, one ``ID`` query on each of them, then V^dagger."""
    return (FixedStep(v, factors), *(QueryStep(ID, (i,)) for i in factors),
            FixedStep(la.dagger(v), factors))


def _routed_query(d: int, letter, anc: int) -> tuple:
    """Kitaev's routed query: a ``letter`` query on the task qudit 1, with the
    qubit control 0 swapping qudit ``anc`` in for it on its 0 branch."""
    cswap = FixedStep(_cswap_block(d), (0, 1, anc))
    return (cswap, QueryStep(letter, (1,)), cswap)


def _bell_projector(d: int, zeros: int) -> np.ndarray:
    """Projector onto the Bell state of two qudits beside ``zeros`` qudits
    in |0...0>."""
    psi = bell_state(d)
    return la.kron(np.outer(psi, psi.conj()), zero_projector(d ** zeros))


def _teleported(name: str, d: int, block: tuple, extra: tuple[int, ...]) -> OracleAlgorithm:
    """Teleportation ricochet: ``block`` acts on the bridge qudit 1 (and on
    ``extra``) of a Bell pair on (1, 2); postselecting (input 0, bridge 1)
    on the Bell state, and ``extra`` on |0...0>, leaves the output on 2."""
    layout = RegisterLayout.of([d] * (3 + len(extra)), ["task"] + ["anc"] * (2 + len(extra)))
    steps = (FixedStep(bell_prep_unitary(d), (1, 2)), *block)
    return OracleAlgorithm(name, d, layout, steps,
                           projector=(_bell_projector(d, len(extra)), (0, 1) + extra),
                           task_out=(2,))


def kitaev_cswap(d: int) -> OracleAlgorithm:
    """Single-query controlled routing: the query hits the task qudit on the
    control-1 branch and an ancilla qudit on the control-0 branch."""
    if d < 2:
        raise ValueError("oracle dimension must be >= 2")
    layout = RegisterLayout.of([2, d, d], ["control", "task", "anc"])
    return OracleAlgorithm("kitaev", d, layout, _routed_query(d, ID, 2))


def neutraliser_parallel(d: int) -> OracleAlgorithm:
    """d parallel queries conjugated by the antisymmetric-state preparation:
    the all-zero state only acquires the phase det(U)."""
    if not 2 <= d <= NEUTRALISER_MAX_D:
        raise ValueError(f"neutraliser supports 2 <= d <= {NEUTRALISER_MAX_D}")
    layout = RegisterLayout.of([d] * d, ["anc"] * d)
    return OracleAlgorithm("neutraliser", d, layout,
                           _query_sandwich(chi_prep_unitary(d), tuple(range(d))))


def _dong_steps(d: int, letter) -> tuple:
    """One controlled-power pass: neutraliser preparation on the ancillas and
    d controlled-swap-routed queries on the task qudit."""
    anc = tuple(range(2, 2 + d))
    v = chi_prep_unitary(d)
    routed = (step for a in anc for step in _routed_query(d, letter, a))
    return (FixedStep(v, anc), *routed, FixedStep(la.dagger(v), anc))


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
    if not 2 <= d <= NEUTRALISER_MAX_D:
        raise ValueError(f"power supports 2 <= d <= {NEUTRALISER_MAX_D}")
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
    steps = _query_sandwich(conj_prep_unitary(d), tuple(range(d - 1)))
    projector = None
    if d > 2:
        anc = tuple(range(1, d - 1))
        projector = (zero_projector(d ** (d - 2)), anc)
    return OracleAlgorithm("conjugation", d, layout, steps, projector=projector)


def transpose_via_teleport(d: int) -> OracleAlgorithm:
    """Transpose through teleportation: one query on the bridge half of a
    Bell pair, success projection of (input, bridge) back onto the Bell
    state; the output register is the far half of the pair."""
    if not 2 <= d <= 4:
        raise ValueError("transpose supports 2 <= d <= 4")
    return _teleported("transpose", d, (QueryStep(ID, (1,)),), ())


def inverse(d: int) -> OracleAlgorithm:
    """Inverse of the oracle: the teleportation bridge query is replaced by
    the conjugation block, so the ricochet turns U* into U^dagger on the
    output register.  Makes d-1 queries and succeeds with probability 1/d^2."""
    if not 2 <= d <= 3:
        raise ValueError("inverse supports 2 <= d <= 3")
    extra = tuple(range(3, d + 1))
    return _teleported("inverse", d, _query_sandwich(conj_prep_unitary(d), (1,) + extra), extra)


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
    steps = (
        QueryStep(ID, (1,)),
        FixedStep(bell_prep_unitary(d), (2, d + 1)),
        FixedStep(la.controlled_block(v, 0), (0,) + conj_factors),
        *(step for a in conj_factors for step in _routed_query(d, ID, a)),
        # not dagger(controlled_block(v)): that flips the sign of imaginary zeros
        FixedStep(la.controlled_block(la.dagger(v), 0), (0,) + conj_factors),
    )
    return OracleAlgorithm("spin-echo", d, layout, steps,
                           projector=(_bell_projector(d, d - 2), (1,) + conj_factors),
                           task_out=(0, d + 1))


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

    def __post_init__(self):
        if self.d != self.inner.oracle_dim:  # _root_of takes d x d oracles
            raise ValueError(f"root order d = {self.d} does not match the template's "
                             f"oracle dimension {self.inner.oracle_dim}")
        # the register bookkeeping is the template's, fixed once here
        self.oracle_dim, self.layout = self.inner.oracle_dim, self.inner.layout
        set_registers(self, self.layout, self.inner.task_out)

    def _root_of(self, u: np.ndarray) -> np.ndarray:
        """The root map applied once, to the whole (B, d, d) stack; a single
        (d, d) oracle goes to it as the stack of one, so it takes the same
        root as inside a stack.  The stack is checked unitary before the map
        sees it, and the map's output is broadcast against it, so a map that
        returns one (d, d) matrix serves every oracle.  Both checks are one
        vectorised pass each and name the first bad index, 0 for a single
        oracle."""
        us, stacked = oracle_stack(u, self.d)
        la.require_unitary(us, what="oracle")
        w = np.broadcast_to(self.root(us), us.shape)
        bad = np.flatnonzero(~la.norm_within(unitary_power(w, self.d) - us, ROOT_TOL))
        if bad.size:
            raise ValueError(f"root map did not return a d-th root of the oracle at index {bad[0]}")
        return w if stacked else w[0]

    def apply_cols(self, u: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.inner.apply_cols(self._root_of(u), cols)

    # the program's own entry points, run through this class's apply_cols
    eval = OracleAlgorithm.eval
    task_block = OracleAlgorithm.task_block


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
