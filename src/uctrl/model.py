"""Oracle-program model: interleaved fixed unitaries and oracle queries with a
final binary postselection, plus every task-verification predicate.

A program is a sequence of steps on a register layout.  Evaluating it at an
oracle U multiplies out the fixed unitaries and the per-step query images
sigma(U), embedded at their target factors, then applies the success
projector.  The task input space H is the product of the control and task
factors; the ancilla input is always the all-zero state.  Programs whose
output task registers differ from the input ones carry an explicit output
register list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .ir import from_ir, to_ir, write_ir  # noqa: F401  (re-exported)
from .linalg import RegisterLayout

EXACT_TOL = 1e-8
PHASE_GRID = 720
_REFINE_TOL = 1e-14  # pure_deviation keeps a fitted phase's value below lip x 4 x this
_CAYLEY = np.exp(1.2345j)  # the level sets' z at w = 0; w = inf maps to -_CAYLEY

# Longest stretch of oracle-stack state evaluated at once, in complex
# entries: a witness or checker over B oracles keeps B x (its entries per
# oracle) of them, so long stacks at d = 4 go through in slices of about 16 MB.
SLICE_ENTRIES = 2 ** 20


class ModelViolationError(RuntimeError):
    """A sampled state hit postselection probability zero."""


@dataclass(frozen=True)
class QueryLetter:
    """A way of accessing the oracle: name, homogeneity degree, and the map
    applied to the oracle unitary when the query fires."""

    name: str
    degree: int

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self.name == "id":
            return u
        if self.name == "inv":
            return la.dagger(u)
        raise ValueError(f"unknown query letter {self.name}")


ID = QueryLetter("id", +1)
INV = QueryLetter("inv", -1)
LETTERS = {"id": ID, "inv": INV}


@dataclass(frozen=True)
class FixedStep:
    op: np.ndarray
    targets: tuple[int, ...]


@dataclass(frozen=True)
class QueryStep:
    letter: QueryLetter
    targets: tuple[int, ...]


@dataclass
class OracleAlgorithm:
    """A postselection oracle program.

    ``steps`` alternate freely between fixed unitaries and queries; identity
    padding is inserted so the sequence starts and ends with a fixed step.
    ``projector`` is the success projector as (matrix, targets), or None for
    a purely unitary program.  ``task_out`` lists the factors carrying the
    task output when they differ from the input task factors.  ``validate``
    sets the register bookkeeping (``set_registers``) and ``query_letters``/
    ``query_count`` as plain attributes.
    """

    name: str
    oracle_dim: int
    layout: RegisterLayout
    steps: tuple
    projector: tuple[np.ndarray, tuple[int, ...]] | None = None
    task_out: tuple[int, ...] | None = None

    def __post_init__(self):
        steps = tuple(self.steps)
        pad = FixedStep(np.eye(self.layout.dims[0], dtype=complex), (0,))
        if not steps or isinstance(steps[0], QueryStep):
            steps = (pad,) + steps
        if isinstance(steps[-1], QueryStep):
            steps = steps + (pad,)
        self.steps = steps
        self.task_out = None if self.task_out is None else tuple(self.task_out)
        self.validate()

    def validate(self):
        """Fix the register bookkeeping, check every step and the projector,
        and compile the step plan that ``apply_cols`` runs: all of it is
        settled here, never per call."""
        set_registers(self, self.layout, self.task_out)
        self.query_letters = tuple(s.letter for s in self.steps if isinstance(s, QueryStep))
        self.query_count = len(self.query_letters)
        ops = []
        for s in self.steps:
            if isinstance(s, FixedStep):
                op = np.asarray(s.op, dtype=complex)
                moved = _moved_block(op)
                # op is the identity off its moved support and zero between it
                # and the rest, so op^dagger op - I is B^dagger B - I (B the
                # moved block) padded with zeros: the same spectral norm
                la.require_unitary(op if moved is None else moved[1],
                                   what=f"fixed step in {self.name}")
                ops.append((op, la.check_targets(op, s.targets, self.dims), moved))
            else:
                if s.letter not in LETTERS.values():
                    raise ValueError(f"unknown query letter {s.letter} in {self.name}")
                sub = la.target_dim(s.targets, self.dims)
                if sub != self.oracle_dim:
                    raise ValueError(
                        f"query targets {s.targets} span dimension {sub}, "
                        f"expected oracle dimension {self.oracle_dim}"
                    )
                ops.append((s.letter, tuple(int(t) for t in s.targets), None))
        if self.projector is not None:
            p, targets = self.projector
            p = np.asarray(p, dtype=complex)
            ops.append((p, la.check_targets(p, targets, self.dims), _moved_block(p)))
            # within tol t of Hermitian and of idempotent, p has a Hermitian
            # part whose eigenvalues lie within a few t of 0 or 1, so a norm
            # below 2: an entry above 2 fails, refused before the defects,
            # whose norms could overflow, are formed
            if la.entry_above(p, 2) or not (la.norm_within(p @ p - p, la.UNITARY_TOL)
                    and la.norm_within(p - la.dagger(p), la.UNITARY_TOL)):
                raise ValueError(f"projector of {self.name} is not an orthogonal projector")
        if self.task_out is not None and la.target_dim(self.task_out, self.dims) != self.h_dim:
            raise ValueError("output task registers do not match the task space dimension")
        self._plan = _compile(self.dims, ops)

    # -- evaluation ----------------------------------------------------------

    def apply_cols(self, u: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Apply the program at oracle u to a block of full-space columns.

        ``u`` is one (d, d) oracle or a stack (B, d, d); ``cols`` is a column
        (N,), a block (N, k) shared by every oracle, or per-oracle blocks
        (B, N, k).  A stack gives a leading batch axis on the output, and a
        single oracle is the stack of one: it is checked as that stack, so a
        bad one is "oracle at index 0 is not unitary ...", and the batch axis
        is dropped at the end.  The state stays a flat (B, N, k) array.
        Each stage of the plan is one ``np.take`` of its rows, which puts the
        stage's target factors first and applies every permutation step
        folded into it, then one batched product over the whole stack, of
        the step's moved rows only where ``_compile`` restricted it.  A
        step that moves nothing, or only permutes basis states, has no stage,
        and one last ``take`` restores the layout's basis order.
        """
        us, stacked = oracle_stack(u, self.oracle_dim)
        la.require_unitary(us, what="oracle")
        x = np.asarray(cols, dtype=complex)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.ndim == 2:
            x = x[None]
        elif x.ndim != 3 or not stacked or x.shape[0] != len(us):
            raise ValueError(f"columns of shape {x.shape} do not fit {len(us)} oracles")
        if x.shape[1] != self.total_dim:
            raise ValueError(f"columns must have {self.total_dim} rows, got shape {x.shape}")
        k = x.shape[2]
        stages, final = self._plan
        t = x
        for st in stages:
            if st.src is not None:
                t = np.take(t, st.src, axis=1)
            t = t.reshape(len(t), st.n, st.rest * k)
            if st.rows is None:
                t = np.matmul(st.op if st.letter is None else st.letter.apply(us), t)
            else:
                # the other rows pass through as they are; the state is
                # updated in place, so first copied while it may be ``cols``
                if np.may_share_memory(t, x):
                    t = t.copy()
                t[:, st.rows] = np.matmul(st.op, t[:, st.rows])
            t = t.reshape(len(t), self.total_dim, k)
        if final is not None:
            t = np.take(t, final, axis=1)
        elif not stages:  # the program is the identity: a copy, never ``cols``
            t = t.copy()
        if len(t) != len(us):  # no query touched per-oracle data
            t = np.repeat(t, len(us), axis=0)
        if not stacked:
            t = t[0]
        return t[..., 0] if single else t

    def eval(self, u: np.ndarray) -> np.ndarray:
        """Full implemented operator on the whole register space."""
        return self.apply_cols(u, np.eye(self.total_dim, dtype=complex))

    def task_block(self, u: np.ndarray) -> np.ndarray:
        """The operator restricted to all-zero ancilla input: a
        (total_dim x h_dim) block whose columns are images of the task basis,
        placed by the layout's ``task_rows``."""
        cols = np.zeros((self.total_dim, self.h_dim), dtype=complex)
        cols[self.layout.task_rows, np.arange(self.h_dim)] = 1.0
        return self.apply_cols(u, cols)


def set_registers(ev, layout: RegisterLayout, task_out: tuple[int, ...] | None) -> None:
    """Set the register bookkeeping of the evaluator ``ev`` as plain
    attributes: ``dims``, ``total_dim``, ``h_factors``, ``h_dim``,
    ``out_factors`` (``task_out``, or the input task factors when it is
    None) and ``k_out_factors``, all read off ``layout``."""
    ev.dims = layout.dims
    ev.total_dim = layout.total_dim
    ev.h_factors = layout.h_indices
    ev.h_dim = layout.subdim(ev.h_factors)
    ev.out_factors = ev.h_factors if task_out is None else task_out
    ev.k_out_factors = tuple(i for i in range(len(ev.dims)) if i not in ev.out_factors)


def oracle_stack(u, d: int) -> tuple[np.ndarray, bool]:
    """``u`` as a complex (B, d, d) stack of oracles, and whether it was given
    as a stack: a single (d, d) oracle is the stack of one, and an empty
    list (shape (0,)) is the empty stack."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d):
        if u.shape != (0,):
            raise ValueError(f"oracle must be {d}x{d} or a stack of them, got {u.shape}")
        u = u.reshape(0, d, d)
    return (u, True) if u.ndim == 3 else (u[None], False)


def _one_oracle(u, d: int, what: str) -> None:
    """Raise unless ``u`` is one (d, d) oracle: ``what`` takes no stack."""
    if np.shape(u) != (d, d):
        raise ValueError(f"{what} takes one ({d}, {d}) oracle, got shape {np.shape(u)}")


def over_stack(f, u, d: int, width: int, *per_oracle: np.ndarray):
    """``f(us, *per_oracle)`` over the oracles ``u``, in consecutive slices
    of at most ``SLICE_ENTRIES // width`` oracles (at least one) when an
    oracle keeps ``width`` complex entries of state; each ``per_oracle``
    array holds one entry per oracle and is sliced with the stack.  ``f``
    returns one result per oracle of its slice, as a list or an array, and
    the slices' results are joined the same way.  A (B, d, d) stack gives
    the B results; a single (d, d) oracle is the stack of one and gives its
    one result.  An empty stack is one empty slice, so it gives ``f``'s
    empty result.  A stack cut into several slices is checked unitary whole
    first, so an error names the oracle's index in the stack, not in its
    slice."""
    us, stacked = oracle_stack(u, d)
    step = max(1, SLICE_ENTRIES // width)
    if len(us) > step:
        la.require_unitary(us, what="oracle")
    parts = [f(us[i:i + step], *(a[i:i + step] for a in per_oracle))
             for i in range(0, max(len(us), 1), step)]
    out = np.concatenate(parts) if isinstance(parts[0], np.ndarray) else sum(parts, [])
    return out if stacked else out[0]


def _moved_block(op: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(S, op[S, S])`` for a finite square ``op`` that moves at most half
    of its states, S being the indices i where row i or column i of ``op``
    differs from e_i, compared exactly.  Off S ``op`` is the identity, and
    its entries between S and the other indices are zero, so a non-finite
    entry lies in the block.  None for any other ``op``, which is checked
    and applied whole.  This is the one rule that decides whether a fixed
    step or projector acts on its moved rows only."""
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return None
    off = op != 0
    np.fill_diagonal(off, op.diagonal() != 1)
    moved = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
    if 2 * len(moved) > len(op):
        return None
    block = op[np.ix_(moved, moved)]
    return (moved, block) if np.isfinite(block).all() else None


def _permutation(moved: tuple[np.ndarray, np.ndarray]) -> np.ndarray | None:
    """For a ``_moved_block`` (S, block) that is an exact 0/1 permutation,
    one entry 1 in each row and each column and every other entry 0, the
    column of each row's 1; None for any other block, a monomial one with
    a sign or a phase included."""
    block = moved[1]
    ones = block == 1
    if (np.count_nonzero(block) != len(block)
            or not (ones.any(axis=0).all() and ones.any(axis=1).all())):
        return None
    return ones.argmax(axis=1)


@dataclass(frozen=True)
class _Stage:
    """One compiled step.  The state is a flat (batch, N, k) array whose rows
    hold the N basis states in the order the previous stage left them.  The
    stage gathers its rows by ``src`` (None when they are already in place),
    so that they run over its target factors first and the other factors in
    layout order; the gather also applies every permutation step folded
    into it.  It then multiplies those ``n`` dimensions by the fixed ``op``
    or by the query image of ``letter`` (``rest`` being the dimension of the
    other factors).  A fixed stage whose operator has a ``_moved_block`` has
    its moved support as ``rows`` and its moved block as ``op``, and
    multiplies only those rows of the target dimensions."""

    src: np.ndarray | None
    n: int
    rest: int
    op: np.ndarray | None
    letter: QueryLetter | None
    rows: np.ndarray | None


def _compile(dims, ops) -> tuple[tuple[_Stage, ...], np.ndarray | None]:
    """Step plan for (operator or query letter, targets, ``_moved_block`` of
    the operator or None) triples applied in order, and the gather that
    restores the layout's basis order (None when nothing moved a row).  A
    fixed operator that moves nothing has no stage.  Nor has one whose
    moved block is an exact 0/1 permutation: it only changes which row
    holds which basis state, and the next gather moves the data.  Any other
    moved block restricts its stage to the moved rows.  The gathers are
    index arrays of N entries, so a plan with no stage and no permutation
    allocates nothing of size N; any other plan fails here, with a
    ``MemoryError``, when N entries cannot be allocated."""
    stages = []
    ident = where = None  # where[b]: the row holding basis state b; None while it is row b
    for what, targets, moved in ops:
        if moved is not None and not len(moved[0]):
            continue  # the identity: no stage, and the rows stay where they are
        if ident is None:
            ident = np.arange(math.prod(dims))
        n = math.prod(dims[f] for f in targets)
        # basis[i, r]: the basis state with target digits i and other digits r
        order = list(targets) + [f for f in range(len(dims)) if f not in targets]
        basis = ident.reshape(dims).transpose(order).reshape(n, -1)
        at = basis if where is None else where[basis]
        where = np.empty_like(ident)
        sources = None if moved is None else _permutation(moved)
        if sources is not None:
            # the step puts basis[src[i], r]'s amplitude at basis[i, r]: only the map changes
            src = np.arange(n)
            src[moved[0]] = moved[0][sources]
            where[basis] = at[src]
            continue
        where[basis] = ident.reshape(n, -1)
        letter = what if isinstance(what, QueryLetter) else None
        rows, op = moved if moved is not None else (None, None if letter else what)
        src = at.reshape(-1)
        stages.append(_Stage(None if np.array_equal(src, ident) else src, n,
                             len(ident) // n, op, letter, rows))
    return tuple(stages), None if where is None or np.array_equal(where, ident) else where


def out_split(alg, cols: np.ndarray) -> np.ndarray:
    """Reshape full-space columns (..., N, k) to
    (..., out_task_dim, ancilla_out_dim, k)."""
    dims = alg.dims
    *lead, _, k = cols.shape
    t = cols.reshape(*lead, *dims, k)
    n = len(lead)
    perm = [*range(n), *(n + f for f in alg.out_factors + alg.k_out_factors), n + len(dims)]
    return t.transpose(perm).reshape(*lead, alg.h_dim, alg.total_dim // alg.h_dim, k)


# -- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """A target operator family over oracles.

    ``base`` maps the oracle to a representative task operator.  For
    phase-covariant tasks the family is the unimodular orbit of the base; for
    the controlled-power family (``control_power`` set) members differ by a
    relative phase between the control blocks, which is extracted by the
    checkers.  ``base`` and ``member`` also map a (B, d, d) stack of oracles,
    with one phase per oracle, to the stack of task operators.
    """

    name: str
    oracle_dim: int
    dim: int
    phase_covariant: bool = False
    control_power: int | None = None
    alphabet: tuple[str, ...] = ("id", "inv")

    def base(self, u: np.ndarray) -> np.ndarray:
        if self.control_power is not None:
            return control_phase_matrix(unitary_power(u, self.control_power), 0.0)
        if self.name == "conjugation":
            return u.conj()
        if self.name == "transpose":
            return np.swapaxes(u, -1, -2)
        if self.name == "inverse":
            return la.dagger(u)
        raise ValueError(f"task {self.name} has no base evaluator")

    def member(self, u: np.ndarray, phi: float | None) -> np.ndarray:
        if self.control_power is not None:
            return control_phase_matrix(unitary_power(u, self.control_power),
                                        0.0 if phi is None else phi)
        b = self.base(u)
        return b if phi is None else np.exp(1j * np.asarray(phi))[..., None, None] * b


def unitary_power(u: np.ndarray, m: int) -> np.ndarray:
    if m >= 0:
        return np.linalg.matrix_power(u, m)
    return np.linalg.matrix_power(la.dagger(u), -m)


def control_phase_matrix(w: np.ndarray, phi) -> np.ndarray:
    """|0><0| (x) Id + e^{i phi} |1><1| (x) W on a (2w)-dimensional space; a
    (B, w, w) stack of W with one phi each gives the (B, 2w, 2w) stack."""
    d = w.shape[-1]
    t = np.zeros(w.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    t[..., :d, :d] = np.eye(d)
    t[..., d:, d:] = np.exp(1j * np.asarray(phi))[..., None, None] * w
    return t


def cum_task(d: int, m: int) -> Task:
    return Task(name=f"c-U^{m}", oracle_dim=d, dim=2 * d, phase_covariant=True,
                control_power=m, alphabet=("id", "inv"))


def conjugation_task(d: int) -> Task:
    return Task(name="conjugation", oracle_dim=d, dim=d, alphabet=("id",))


def transpose_task(d: int) -> Task:
    return Task(name="transpose", oracle_dim=d, dim=d, alphabet=("id",))


def inverse_task(d: int) -> Task:
    return Task(name="inverse", oracle_dim=d, dim=d, phase_covariant=True, alphabet=("id",))


def make_task(name: str, d: int, m: int | None = None) -> Task:
    if name in ("cUm", "cum", "controlled-power"):
        if m is None:
            raise ValueError("the controlled-power task needs m")
        return cum_task(d, m)
    factory = {
        "conjugation": conjugation_task,
        "transpose": transpose_task,
        "inverse": inverse_task,
    }.get(name)
    if factory is None:
        raise ValueError(f"unknown task {name}")
    return factory(d)


# -- achievement checks --------------------------------------------------------


@dataclass
class AchievementResult:
    achieved: bool
    garbage: np.ndarray | None
    phase: float | None
    residual: float
    rank_residual: float
    # |b[:, 0]|^2 of the checked zero-ancilla block b: ``success_prob`` on
    # the all-zero task input
    zero_input_prob: float | None = None

    @property
    def success_prob(self) -> float:
        return float(np.linalg.norm(self.garbage) ** 2) if self.garbage is not None else 0.0


def _schmidt_views(alg, b: np.ndarray):
    """Return (Bp, T) for the zero-ancilla block ``b`` (N, h), or a stack
    (B, N, h) of them: the (out, anc, in) tensor and its (out*in) x anc
    matricisation used for the rank-1 factorisation test."""
    bp = out_split(alg, b)
    *lead, d_out, k_dim, h = bp.shape
    t = np.swapaxes(bp, -1, -2).reshape(*lead, d_out * h, k_dim)
    return bp, t


def _fit_garbage(t_mat: np.ndarray, big_t: np.ndarray) -> np.ndarray:
    """Least-squares ancilla factor of T for the task member ``t_mat``; both
    may be stacks."""
    vec = t_mat.reshape(*t_mat.shape[:-2], 1, math.prod(t_mat.shape[-2:]))
    nrm2 = np.linalg.norm(vec, axis=-1, keepdims=True) ** 2
    return ((vec.conj() @ big_t) / nrm2)[..., 0, :]


def _fit_residual(bp: np.ndarray, t_mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Spectral norm of the deviation of ``bp`` from the product form T (x) g,
    each matrix of a stack on its own.  The deviation is (h * ancilla) x h,
    never wide, so its norm comes from the h x h Gram matrix."""
    *lead, d_out, k_dim, h = bp.shape
    fit = np.einsum("...yx,...k->...ykx", t_mat, g)
    return la.gram_spectral_norm((bp - fit).reshape(*lead, d_out * k_dim, h))


def _check_compat(alg, task: Task):
    """Raise ``ValueError`` unless a checker, or a phase witness for the
    controlled power, can read ``alg`` against ``task``: the one rule of
    what every such reader takes."""
    if alg.h_dim != task.dim:
        raise ValueError(
            f"task space mismatch: program has dimension {alg.h_dim}, task wants {task.dim}")
    if alg.oracle_dim != task.oracle_dim:
        raise ValueError("oracle dimension mismatch between program and task")
    letters = {l.name for l in getattr(alg, "query_letters", ())}
    if not letters <= set(task.alphabet):
        raise ValueError(f"program queries {letters} outside the task alphabet {task.alphabet}")
    # the controlled-power family reads task space and output as (control) (x) (task)
    if task.control_power is not None and not (
            alg.layout.control_index == alg.h_factors[0] == alg.out_factors[0]):
        raise ValueError("the controlled-power task needs the control qubit leading the "
                         "task input factors and leading the output factors")


def check_exact(alg, task: Task, u: np.ndarray,
                tol: float = EXACT_TOL) -> AchievementResult | list[AchievementResult]:
    """Decide whether the program output factorises as (task operator) (x)
    (garbage) on the all-zero ancilla, and extract the pieces.

    The block restricted to zero ancilla input is reshaped to a
    (task in/out) x (ancilla) matrix; achievement requires numerical rank one
    (second singular value <= tol) together with the rank-one task factor
    being proportional to a member of the task family.  The reported residual
    is the spectral norm of the full deviation from the fitted product form.

    ``u`` may be a (B, d, d) stack, giving the list of B results; it is
    evaluated through ``over_stack``, each oracle's slice width counting
    what the check keeps (``_exact_width``), and a single (d, d) oracle is
    the stack of one.
    """
    _check_compat(alg, task)
    return over_stack(lambda us: _exact_from_block(alg, task, us, alg.task_block(us), tol),
                      u, alg.oracle_dim, _exact_width(alg))


def _exact_from_block(alg, task: Task, us: np.ndarray, b: np.ndarray,
                      tol: float) -> list[AchievementResult]:
    """``check_exact`` on a (B, d, d) stack of oracles and their (B, N, h)
    zero-ancilla blocks ``b``, already computed."""
    n = len(us)
    bp, big_t = _schmidt_views(alg, b)
    # only the left factor and the singular values are read: a wide T is
    # R^dagger Q^dagger (T^dagger = Q R) and has R^dagger's, from a square
    # SVD that builds no wide right factor
    if big_t.shape[-2] < big_t.shape[-1]:
        left, svals, _ = np.linalg.svd(la.dagger(np.linalg.qr(la.dagger(big_t), mode="r")))
    else:
        left, svals, _ = np.linalg.svd(big_t, full_matrices=False)
    rank_residuals = svals[:, 1] if svals.shape[1] > 1 else np.zeros(n)

    if task.control_power is not None:
        # the leading left singular vector's overlaps with T0 and T1, each of
        # squared norm dt, give the member's relative phase
        m_fac = left[:, :, 0].reshape(n, alg.h_dim, alg.h_dim)
        dt = alg.h_dim // 2
        t0, t1 = _affine_member(task, us)
        c0, c1 = (np.sum(t.conj() * m_fac, axis=(1, 2)) / dt for t in (t0, t1))
        has_phase = (np.abs(c0) > 1e-12) & (np.abs(c1) > 1e-12)
        phis = np.zeros(n)
        phis[has_phase] = np.angle(c1[has_phase] / c0[has_phase])
        t_mat = t0 + np.exp(1j * phis)[:, None, None] * t1
        g = _fit_garbage(t_mat, big_t)
    else:
        t_mat = task.base(us)
        g = _fit_garbage(t_mat, big_t)
        # a phase-covariant member takes the phase of its largest garbage entry
        has_phase = task.phase_covariant & (np.linalg.norm(g, axis=-1) > 1e-12)
        phis = np.angle(g[np.arange(n), np.argmax(np.abs(g), axis=-1)])
        t_mat = np.where(has_phase[:, None, None], task.member(us, phis), t_mat)
        g = np.where(has_phase[:, None], g * np.exp(-1j * phis)[:, None], g)

    residuals = _fit_residual(bp, t_mat, g)
    achieved = (rank_residuals <= tol) & (residuals <= tol) & (np.linalg.norm(g, axis=-1) > tol)
    return [AchievementResult(achieved=bool(achieved[i]), garbage=g[i],
                              phase=float(phis[i]) if has_phase[i] else None,
                              residual=float(residuals[i]),
                              rank_residual=float(rank_residuals[i]),
                              zero_input_prob=float(np.linalg.norm(b[i, :, 0]) ** 2))
            for i in range(n)]


def _level_min(a: np.ndarray, b: np.ndarray, c: np.ndarray, best: float) -> float:
    """Minimum over |z| = 1 of ``|A + z B + conj(z) C|_2`` for (r, h) matrices
    with C^dagger B = 0, by level sets (Byers 1988; Boyd and Balakrishnan
    1990), from ``best``, the value at some phase.

    At a level gamma, the phases where gamma is a singular value of
    M(z) = A + z B + conj(z) C are the unit-circle roots of a Hermitian pencil
    K0 + z K1 + conj(z) K1^dagger.  With z = _CAYLEY (1 + i w) / (1 - i w) they
    are the real roots w of a Hermitian quadratic, read off the eigenvalues
    of its companion matrix (real where |Im w| < 1e-8 (1 + |w|)).  M is
    evaluated at the midpoint of every arc between those phases, and gamma
    moves to the least value found.  A level with no lower midpoint, no real
    root or a singular leading coefficient ends the search.  It runs on the
    h-wide squared pencil, M^dagger M - gamma^2, then on the Jordan-Wielandt
    pencil [[-gamma, M], [M^dagger, -gamma]]: the squared one is cheaper but
    loses gaps below about 1e-8 to rounding, which the other keeps.  The
    result is the least value evaluated, so a root missed or added by the
    real-root test never gives a value that no phase attains.  It can stop
    above a deep minimum where B and C share columns (README "Tolerances");
    pure_deviation's do not."""
    r, h = a.shape
    ad = la.dagger(a)
    zr, zh = np.zeros((r, r)), np.zeros((h, h))
    squared = (ad @ a + la.dagger(b) @ b + la.dagger(c) @ c, ad @ b + la.dagger(c) @ a, 2)
    jordan = (np.block([[zr, a], [ad, zh]]), np.block([[zr, b], [la.dagger(c), zh]]), 1)
    for base, k1, power in (squared, jordan):
        # (1 + w^2) times the pencil is w^2 (K0 - s) + w q1 + (K0 + s)
        n, rk = len(base), _CAYLEY * k1
        s, q1, eye = rk + la.dagger(rk), 2j * (rk - la.dagger(rk)), np.eye(n)
        comp = np.eye(2 * n, k=-n, dtype=complex)
        while True:
            k0 = base - best ** power * eye
            try:
                comp[:n] = -np.linalg.solve(k0 - s, np.concatenate([q1, k0 + s], axis=1))
            except np.linalg.LinAlgError:
                break
            w = np.linalg.eigvals(comp)
            w = w.real[abs(w.imag) < 1e-8 * (1 + abs(w))]
            if not len(w):
                break
            phis = np.sort(2 * np.arctan(w))
            mids = (phis + np.append(phis[1:], phis[0] + 2 * np.pi)) / 2
            z = _CAYLEY * np.exp(1j * mids)[:, None, None]
            vals = la.gram_spectral_norm(a + z * b + z.conj() * c)
            if not vals.min() < best:
                break
            best = float(vals.min())
    return best


def _affine_member(task: Task, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T0, T1) with ``task.member(u, phi) = T0 + e^{i phi} T1`` for the
    controlled-power family: T0 = |0><0| (x) Id and T1 = |1><1| (x) U^m."""
    w = unitary_power(u, task.control_power)
    t0 = control_phase_matrix(np.zeros_like(w), 0.0)
    return t0, control_phase_matrix(w, 0.0) - t0


def pure_deviation(alg, task: Task, u: np.ndarray, grid: int = PHASE_GRID) -> float:
    """Distance from the closest product form: min over garbage vectors (and
    admissible task phases) of the spectral norm of
    (zero-ancilla block) - (task member) (x) (garbage).

    The garbage vector is the least-squares ancilla factor for the candidate
    task member.  For the controlled family the deviation is first evaluated
    at the fitted phase, that of <g0, g1> when member(phi)'s garbage is
    g0 + e^{-i phi} g1, which is an exact achiever's phase.  A value there of
    at most ``lip * 4 * _REFINE_TOL`` (``lip`` bounding the deviation's
    Lipschitz constant in the phase) is returned as it is: no norm is below
    0, so it is within 4e-14 lip of the minimum.  So is the value of a zero
    ``lip``, where the garbage fit is zero and the deviation the same at
    every phase.  Any other value starts the level-set search over the phase
    (``_level_min``), whose result is the least deviation it evaluated.
    ``grid`` is checked (at least 1) but no longer changes the value.
    ``u`` is one (d, d) oracle, not a stack.
    """
    if grid < 1:
        raise ValueError(f"the phase grid needs at least 1 phase, got grid={grid}")
    _check_compat(alg, task)
    _one_oracle(u, alg.oracle_dim, "pure_deviation")
    bp, big_t = _schmidt_views(alg, alg.task_block(u))

    if task.control_power is None:
        # a global phase on the task member is absorbed by the garbage factor
        t_mat = task.base(u)
        return float(_fit_residual(bp, t_mat, _fit_garbage(t_mat, big_t)))

    # member(phi) = T0 + e^{i phi} T1 with T0, T1 on disjoint blocks, so the
    # least-squares garbage is g0 + e^{-i phi} g1.  Split the ancilla space
    # into span{g0, g1} (orthonormal basis q) and its complement: every
    # fitted product lies in the first part, so the block's component off it
    # is a phase-independent remainder, and only its R factor is kept.  Each
    # phase's deviation is then the reduced deviation stacked on that R
    # factor, at most 3 h rows, with the same spectral norm:
    # near - (T0 + e^{i phi} T1) (x) (g_q0 + e^{-i phi} g_q1) above R.
    t0, t1 = _affine_member(task, u)
    nrm2 = np.linalg.norm(t0) ** 2 + np.linalg.norm(t1) ** 2
    g = np.stack([t.reshape(-1).conj() @ big_t for t in (t0, t1)], axis=1) / nrm2
    q = np.linalg.qr(g)[0]
    near = np.einsum("ykx,kr->yrx", bp, q.conj())
    far = np.linalg.qr((bp - np.einsum("yrx,kr->ykx", near, q)).reshape(-1, bp.shape[2]),
                       mode="r")
    g_q = la.dagger(q) @ g

    # A, B and C as (out, r, in) tensors, tg[i][j] = Ti (x) g_qj, then as rows
    # above far (A) or above as many zero rows (B, C)
    tg = [[t[:, None] * g_q[:, j, None] for j in (0, 1)] for t in (t0, t1)]
    abc = np.stack([near - tg[0][0] - tg[1][1], -tg[1][0], -tg[0][1]])
    pad = np.stack([far, np.zeros_like(far), np.zeros_like(far)])
    a, b, c = np.concatenate([abc.reshape(3, -1, far.shape[1]), pad], axis=1)
    # the spectral norm of T (x) g is |T|_2 |g| <= |T|_F |g|, so |B| + |C|
    # is at most |T1|_F |g_q0| + |T0|_F |g_q1|
    lip = (np.linalg.norm(t1) * np.linalg.norm(g_q[:, 0])
           + np.linalg.norm(t0) * np.linalg.norm(g_q[:, 1])) * (1 + 1e-9)
    # each deviation is tall, so its spectral norm comes from its h x h Gram
    # matrix.  An exact achiever at phase phi has g1 = s e^{i phi} g0 with
    # s = |T1|_F^2 / |T0|_F^2, so <g0, g1> has the phase phi
    e = np.exp(1j * np.angle(np.vdot(g[:, 0], g[:, 1])))
    fit = la.gram_spectral_norm(a + e * b + e.conj() * c)
    if fit <= lip * 4 * _REFINE_TOL or lip == 0:
        return float(fit)
    return _level_min(a, b, c, float(fit))


# -- channel form ----------------------------------------------------------------


def success_prob(alg, u: np.ndarray, state: np.ndarray) -> float | list[float]:
    """Postselection probability on a normalised task-space input with zero
    ancillas.  ``u`` may be a (B, d, d) stack, giving the list of B
    probabilities; it is evaluated through ``over_stack``, each oracle's
    slice width being ``_prob_width``."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != alg.h_dim:
        raise ValueError(f"input state must live on the {alg.h_dim}-dimensional task space")
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise ValueError("input state is not normalised")
    return over_stack(lambda s: [float(np.linalg.norm(b @ state) ** 2) for b in alg.task_block(s)],
                      u, alg.oracle_dim, _prob_width(alg))


def _channel_from_block(alg, b: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalised postselected channel at the zero-ancilla block ``b``
    on rho, one (h, h) matrix or a stack (S, h, h), and its trace(s); a
    stack (B, N, h) of blocks gives the (B, S, h, h) channels of each block
    on each state.  The channel is linear in rho: with T the Schmidt
    matricisation of ``b`` (rows (out, in), columns the ancilla) and
    G = T T^dagger, channel(rho)[x, y] = sum_{k,l} G[(x, k), (y, l)] rho[k, l]."""
    _, t = _schmidt_views(alg, b)
    # a stack of blocks keeps its axis apart from, and ahead of, the states' axis
    g = (t @ la.dagger(t)).reshape(b.shape[:-2] + (1,) * (b.ndim - 2) + (alg.h_dim,) * 4)
    out = np.einsum("...xkyl,...kl->...xy", g, rho)
    return out, np.trace(out, axis1=-2, axis2=-1).real


def apply_channel(alg, u: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalised postselected channel on the task register: trace out the
    output ancillas of A(U) (rho (x) |0><0|) A(U)^dagger; also returns its
    trace (the postselection probability).  ``u`` is one (d, d) oracle, not
    a stack."""
    _one_oracle(u, alg.oracle_dim, "apply_channel")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (alg.h_dim, alg.h_dim):
        raise ValueError("density matrix dimension mismatch")
    if not la.norm_within(rho - la.dagger(rho), 1e-8) or abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError("input is not a density matrix (hermitian, trace one)")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("input density matrix is not positive semidefinite")
    out, tr = _channel_from_block(alg, alg.task_block(u), rho)
    return out, float(tr)


def _state_family(alg, task: Task, n_samples: int, seed: int) -> np.ndarray:
    """The state family of ``eps_distance_estimate`` as one (S, h, h) stack:
    basis states, I/h, plus-control states, then Haar states.  Both inputs
    are checked first: ``alg`` against ``task`` (``_check_compat``), and
    ``n_samples`` at least 0."""
    _check_compat(alg, task)
    if n_samples < 0:
        raise ValueError(f"the state family needs n_samples >= 0, got n_samples={n_samples}")
    h = alg.h_dim
    dt = h // 2 if task.control_power is not None else 0
    eye = np.eye(h, dtype=complex)
    z = np.random.default_rng(seed).standard_normal((n_samples, 2, h))
    haar = z[:, 0] + 1j * z[:, 1]
    haar = haar / np.linalg.norm(haar, axis=-1, keepdims=True)
    v = np.concatenate([eye, (eye[:dt] + eye[dt:2 * dt]) / math.sqrt(2), haar])
    # pure states, with the maximally mixed state after the basis states
    return np.insert(v[:, :, None] * v.conj()[:, None, :], h, eye / h, axis=0)


def eps_distance_estimate(alg, task: Task, u: np.ndarray, n_samples: int = 8,
                          seed: int = 0, grid: int = PHASE_GRID) -> float | np.ndarray:
    """Lower bound for the worst-case trace distance between the renormalised
    postselected channel and conjugation by the task operator.

    The maximum runs over a fixed state family (computational basis states,
    the maximally mixed state, plus-control superpositions where a control
    register exists, and seeded Haar-random pure states), so the value is a
    lower bound on the supremum over all density matrices.  For a
    controlled-power task the phase is chosen per state, for every oracle:
    the value is the max over states of the min over phases, a lower bound
    on the min over phases of the max over states that approximate
    control_phi(U) asks for.  Each state's best phase comes from a secular
    equation, not a phase scan (``_eps_from_block``), so ``grid`` is still
    checked (at least 1) but no longer changes the value.  No exact check
    runs, so no tolerance enters the value.

    ``u`` may be a (B, d, d) stack, giving the B estimates as an array; it is
    evaluated through ``over_stack``, each oracle's slice width counting its
    task block and the arrays kept per state (``_eps_width``), and a single
    (d, d) oracle is the stack of one.
    """
    if grid < 1:
        raise ValueError(f"the phase grid needs at least 1 phase, got grid={grid}")
    rhos = _state_family(alg, task, n_samples, seed)
    return over_stack(lambda us: _eps_from_block(alg, task, us, alg.task_block(us), rhos),
                      u, alg.oracle_dim, _eps_width(alg, len(rhos)))


def _eps_from_block(alg, task: Task, us: np.ndarray, b: np.ndarray,
                    rhos: np.ndarray) -> np.ndarray:
    """``eps_distance_estimate`` on a (B, d, d) stack of oracles over the
    states ``rhos``, from their (B, N, h) zero-ancilla blocks ``b``, already
    computed.

    Without a phase family every oracle is compared with ``task.base``: a
    global phase cancels in T rho T^dagger.  For a controlled-power task
    every oracle, achiever or not, takes for each state the phase that
    minimises its defect's trace norm, found without a scan.  A pure
    state's defect is sigma - psi psi^dagger, with at most one negative
    eigenvalue -mu; the least mu over the phase is the root of a secular
    equation (Golub 1973), bracketed in [0, |psi|^2] and narrowed by a fixed
    56 halvings.  The value is the trace norm of the defect at the phase
    found, up to rounding at most 2^-55 |psi|^2 above its minimum over the
    circle.  I/h does not depend on the phase and takes phase 0."""
    outs, trs = _channel_from_block(alg, b, rhos)
    if np.any(trs <= 1e-14):
        raise ModelViolationError("postselection probability vanished on a sampled state")
    normalised = outs / trs[..., None, None]
    # each defect is Hermitian, so its trace norm comes from eigenvalues
    if task.control_power is None:
        t = task.base(us)[:, None]
        return np.max(la.hermitian_trace_norm(normalised - t @ rhos @ la.dagger(t)), axis=-1)
    # member(phi) rho member(phi)^dagger has terms in 1, e^{i phi} and
    # e^{-i phi}: the defect is X0 - e^{i phi} X1 - e^{-i phi} X1^dagger,
    # Hermitian, with X0 = sigma - fit, sigma the normalised output
    t0, t1 = (t[:, None] for t in _affine_member(task, us))
    x1s = t1 @ rhos @ la.dagger(t0)
    fit = t0 @ rhos @ la.dagger(t0) + t1 @ rhos @ la.dagger(t1)
    # For rho = v v^dagger the defect is sigma - psi psi^dagger with
    # psi = T0 v + e^{i phi} T1 v, its two parts on disjoint control
    # blocks: its trace is the same at every phase and, sigma being PSD,
    # it has at most one negative eigenvalue -mu, so its trace norm is
    # least where mu is.  With sigma = E diag(s) E^dagger, mu is the root
    # of sum |E^dagger psi|^2 / (s + mu) = 1, and |E^dagger psi|^2 is
    # p + 2 Re(e^{i phi} q), p and q the diagonals of E^dagger fit E and
    # E^dagger X1 E.  So the least mu over the phase is the root of the
    # decreasing sum w p - 2 |sum w q| = 1, w = 1 / (s + mu), in
    # [0, sum p]: 14 rounds each cut every member's bracket into 16.  At
    # its top end, the phase with e^{i phi} Q = -|Q|, Q = sum w q, has
    # its mu below that end.  Q = 0 where X1 = 0 (I/h, basis states): phase 0
    s, e = np.linalg.eigh(normalised)
    s = np.maximum(s, 0)
    p = np.sum(e.conj() * (fit @ e), axis=-2).real
    q = np.sum(e.conj() * (x1s @ e), axis=-2)
    pq = np.stack([p, q.real, q.imag], axis=-1)
    lo, width = np.zeros(p.shape[:-1]), p.sum(axis=-1)
    for _ in range(14):
        width = width / 16
        mu = lo[..., None] + width[..., None] * np.arange(1, 16)
        g = (1 / (s[..., None, :] + mu[..., None])) @ pq
        lo = lo + width * np.sum(g[..., 0] - 2 * np.hypot(g[..., 1], g[..., 2]) > 1, axis=-1)
    big_q = np.sum(q / (s + (lo + width)[..., None]), axis=-1)[..., None, None]
    r = np.abs(big_q)
    z = np.where(r > 0, -big_q.conj(), 1) / np.where(r > 0, r, 1)
    # the trace norm at that phase, not tr + 2 mu: p and 2 |Q| cancel
    # at a small mu, and the eigenvalues keep the rounding absolute
    defect = normalised - fit - z * x1s - z.conj() * la.dagger(x1s)
    return np.max(la.hermitian_trace_norm(defect), axis=-1)


def _exact_and_eps(alg, task: Task, u: np.ndarray, tol: float, n_samples: int, seed: int):
    """``check_exact(alg, task, u, tol)`` beside ``eps_distance_estimate(alg,
    task, u, n_samples, seed)``, each oracle's zero-ancilla block built
    once: the list of (result, estimate) pairs of a (B, d, d) stack, or the
    pair of a single (d, d) oracle.  Each oracle's ``over_stack`` slice width
    is ``check_exact``'s and eps's, the four blocks they share counted once."""
    rhos = _state_family(alg, task, n_samples, seed)

    def both(us: np.ndarray) -> list:
        b = alg.task_block(us)
        return list(zip(_exact_from_block(alg, task, us, b, tol),
                        _eps_from_block(alg, task, us, b, rhos)))

    width = _exact_width(alg) + _eps_width(alg, len(rhos)) - 4 * alg.total_dim * alg.h_dim
    return over_stack(both, u, alg.oracle_dim, width)


def _prob_width(alg) -> int:
    """An oracle's ``over_stack`` slice width for ``success_prob``, in
    complex entries: its total_dim x h zero-ancilla block and the second
    buffer that ``task_block`` fills it from."""
    return 2 * alg.total_dim * alg.h_dim


def _exact_width(alg) -> int:
    """An oracle's ``over_stack`` slice width for ``check_exact``, in complex
    entries: six total_dim x h blocks, the most it keeps at once.  Those are
    the zero-ancilla block with the second buffer ``task_block`` fills it
    from, then beside the block its (out, anc, in) tensor, the Schmidt
    matricisation T, the fitted product and the deviation from it."""
    return 6 * alg.total_dim * alg.h_dim


def _eps_width(alg, states: int) -> int:
    """An oracle's ``over_stack`` slice width for eps over ``states`` states,
    in complex entries: four total_dim x h blocks (the zero-ancilla block
    with the second buffer ``task_block`` fills it from, then the block's
    (out, anc, in) tensor and its Schmidt matricisation T), the channel's
    Gram matrix G (h^4 entries), and per state what ``_eps_from_block``
    keeps: 8 h x h matrices (the channel output, sigma, X1, the fit,
    sigma's eigenvectors, the defect and two products on the way) and 21
    h-vectors (s, p, q, the three columns of pq and the weights w at the 15
    trial mu's)."""
    h = alg.h_dim
    return 4 * alg.total_dim * h + h ** 4 + states * (8 * h * h + 21 * h)


# -- neutralisation, cleanness, homogeneity ------------------------------------


@dataclass
class NeutralisationResult:
    passed: bool
    r: float
    phases: list[float]
    residuals: list[float]
    r_values: list[float]
    reason: str | None = None


def check_neutralises(alg, u_list, tol: float = EXACT_TOL) -> NeutralisationResult:
    """Check that the program maps the all-zero projector to r e^{i phi(U)}
    times itself on the full space, with a common r in (0, 1] across U.
    ``u_list`` is a list or a (B, d, d) stack of oracles, and a single
    (d, d) oracle is the stack of one; it is evaluated through ``over_stack``,
    an oracle's slice width being its one full-space image.  An empty stack
    is refused: r and its spread need at least one oracle."""
    if not np.size(u_list):
        raise ValueError("check_neutralises needs at least one oracle, got an empty stack")
    e0 = la.basis_state(alg.total_dim, 0)

    def ray_fit(us: np.ndarray) -> np.ndarray:
        """One row (r, phase, residual off the all-zero ray) per oracle."""
        v = alg.apply_cols(us, e0)
        return np.stack([np.abs(v[:, 0]), np.angle(v[:, 0]),
                         np.linalg.norm(v - v[:, :1] * e0, axis=1)], axis=1)

    us = oracle_stack(u_list, alg.oracle_dim)[0]
    rs, phases, residuals = over_stack(ray_fit, us, alg.oracle_dim, alg.total_dim).T.tolist()
    r_mean = float(np.mean(rs))
    reason = None
    if any(res > tol for res in residuals):
        reason = "output leaves the all-zero ray"
    elif max(rs) - min(rs) > tol:
        reason = "r varies with the oracle"
    elif not (tol < r_mean <= 1.0 + 10 * tol):
        reason = "r outside (0, 1]"
    return NeutralisationResult(passed=reason is None, r=r_mean, phases=phases,
                                residuals=residuals, r_values=rs, reason=reason)


@dataclass
class CleanResult:
    clean: bool
    reason: str | None = None


def check_clean(alg, task: Task, u_list, tol: float = EXACT_TOL) -> CleanResult:
    """A program is clean when all garbage vectors agree up to a unimodular
    phase: constant norm and pairwise saturated overlaps.  ``u_list`` is a
    list or a (B, d, d) stack of oracles, checked in one stacked
    ``check_exact``, and a single (d, d) oracle is the stack of one.  An
    empty stack is refused: cleanness is a claim about some oracle."""
    if not np.size(u_list):
        raise ValueError("check_clean needs at least one oracle, got an empty stack")
    results = check_exact(alg, task, oracle_stack(u_list, alg.oracle_dim)[0], tol=tol)
    for i, res in enumerate(results):
        if not res.achieved:
            return CleanResult(False, f"not an exact achiever at sample {i} (residual {res.residual:.3g})")
    garbages = np.stack([res.garbage for res in results])
    norms = np.array([np.linalg.norm(g) for g in garbages])
    if norms.max() - norms.min() > tol:
        return CleanResult(False, "garbage norm varies with the oracle")
    for i, g in enumerate(garbages):
        # each row against all later rows in one product: memory stays
        # O(B * ancilla), where a B x B Gram matrix would not
        overlaps = np.abs(garbages[i + 1:] @ g.conj())
        bad = np.flatnonzero(np.abs(overlaps - norms[i] * norms[i + 1:]) > tol)
        if bad.size:
            return CleanResult(False, f"garbage vectors {i} and {i + 1 + bad[0]} are not parallel")
    return CleanResult(True)


def static_homogeneity(seq) -> int:
    """Net homogeneity degree of a query sequence: sum of letter degrees."""
    total = 0
    for letter in seq:
        if isinstance(letter, str):
            letter = LETTERS[letter]
        total += letter.degree
    return total


def numeric_homogeneity_check(alg, u: np.ndarray, lam, delta: int) -> float | np.ndarray:
    """Spectral-norm residual of eval(lam*U) = lam^delta eval(U).  ``u`` may
    be a (B, d, d) stack with ``lam`` holding one value per oracle, giving the
    B residuals; it is evaluated through ``over_stack`` in slices of at most
    ``SLICE_ENTRIES`` entries of each full operator, the lambdas sliced with
    their oracles."""
    us, stacked = oracle_stack(u, alg.oracle_dim)
    lams = np.asarray(lam, dtype=complex)
    if lams.shape != ((len(us),) if stacked else ()):
        raise ValueError(f"need one lambda per oracle: shape {lams.shape} for {len(us)} oracles")
    if np.any(np.abs(np.abs(lams) - 1.0) > 1e-12):
        raise ValueError("lambda must be unimodular")
    lams = lams.reshape(-1)

    def residuals(s, x, p):
        return la.spectral_norm(alg.eval(x[:, None, None] * s) - p[:, None, None] * alg.eval(s))

    return over_stack(residuals, u, alg.oracle_dim, alg.total_dim ** 2, lams, lams ** delta)


def lipschitz_check(alg, u: np.ndarray, v: np.ndarray) -> bool:
    """Continuity surrogate: the evaluation map is N-Lipschitz in the oracle,
    N being the query count (queries move by at most ||U - V||, fixed steps
    and projectors are contractions).  ``u`` and ``v`` are evaluated as one
    stack of two.  An evaluator without a query count, such as the
    root-composed one, is a ``ValueError``."""
    if not hasattr(alg, "query_count"):
        raise ValueError(f"the Lipschitz check needs an oracle program; "
                         f"{alg.name} has no query count")
    tol = alg.query_count * la.spectral_norm(np.asarray(u) - np.asarray(v)) + 1e-9
    return la.norm_within(np.subtract(*alg.eval(np.stack([u, v]))), tol)
