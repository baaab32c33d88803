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

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg as la
from .linalg import RegisterLayout

EXACT_TOL = 1e-8
PHASE_GRID = 720


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
    task output when they differ from the input task factors.
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
        """Check every step and the projector, and compile the step plan that
        ``apply_cols`` runs: targets are checked here, never per call."""
        dims = self.dims
        ops = []
        for s in self.steps:
            if isinstance(s, FixedStep):
                op = la.require_unitary(s.op, what=f"fixed step in {self.name}")
                ops.append((op, la.check_targets(op, s.targets, dims)))
            else:
                sub = la.target_dim(s.targets, dims)
                if sub != self.oracle_dim:
                    raise ValueError(
                        f"query targets {s.targets} span dimension {sub}, "
                        f"expected oracle dimension {self.oracle_dim}"
                    )
                ops.append((s.letter, tuple(int(t) for t in s.targets)))
        if self.projector is not None:
            p, targets = self.projector
            ops.append((np.asarray(p, dtype=complex), la.check_targets(p, targets, dims)))
            if la.spectral_norm(p @ p - p) > la.UNITARY_TOL or la.spectral_norm(p - la.dagger(p)) > la.UNITARY_TOL:
                raise ValueError(f"projector of {self.name} is not an orthogonal projector")
        if self.task_out is not None and self.layout.subdim(self.task_out) != self.h_dim:
            raise ValueError("output task registers do not match the task space dimension")
        self._plan = _compile(dims, ops)

    # -- register bookkeeping ------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def total_dim(self) -> int:
        return self.layout.total_dim

    @property
    def h_factors(self) -> tuple[int, ...]:
        return self.layout.h_indices

    @property
    def h_dim(self) -> int:
        return self.layout.subdim(self.h_factors)

    @property
    def out_factors(self) -> tuple[int, ...]:
        return self.task_out if self.task_out is not None else self.h_factors

    @property
    def k_out_factors(self) -> tuple[int, ...]:
        outs = set(self.out_factors)
        return tuple(i for i in range(len(self.dims)) if i not in outs)

    @property
    def query_letters(self) -> tuple[QueryLetter, ...]:
        return tuple(s.letter for s in self.steps if isinstance(s, QueryStep))

    @property
    def query_count(self) -> int:
        return len(self.query_letters)

    # -- evaluation ----------------------------------------------------------

    def apply_cols(self, u: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Apply the program at oracle u to a block of full-space columns.

        ``u`` is one (d, d) oracle or a stack (B, d, d); ``cols`` is a column
        (N,), a block (N, k) shared by every oracle, or per-oracle blocks
        (B, N, k).  A stack gives a leading batch axis on the output.  Every
        step is one batched product over the whole stack, and a single
        oracle is the stack of one.
        """
        us, stacked = oracle_stack(u, self.oracle_dim)
        la.require_unitary(us if stacked else us[0], what="oracle")
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
        t = x.reshape(len(x), *self.dims, k)
        for st in stages:
            if st.perm is not None:
                t = t.transpose(st.perm)
            op = st.op if st.letter is None else st.letter.apply(us)
            t = np.matmul(op, t.reshape(len(t), st.n, st.rest * k))
            t = t.reshape(len(t), *st.shape, k)
        if final is not None:
            t = t.transpose(final)
        out = t.reshape(len(t), self.total_dim, k)
        if len(out) != len(us):  # no query touched per-oracle data
            out = np.repeat(out, len(us), axis=0)
        if not stacked:
            out = out[0]
        return out[..., 0] if single else out

    def eval(self, u: np.ndarray) -> np.ndarray:
        """Full implemented operator on the whole register space."""
        return self.apply_cols(u, np.eye(self.total_dim, dtype=complex))

    def task_block(self, u: np.ndarray) -> np.ndarray:
        """The operator restricted to all-zero ancilla input: a
        (total_dim x h_dim) block whose columns are images of the task basis."""
        h = set(self.h_factors)
        at_zero = tuple(slice(None) if f in h else 0 for f in range(len(self.dims)))
        rows = np.arange(self.total_dim).reshape(self.dims)[at_zero].reshape(-1)
        cols = np.zeros((self.total_dim, self.h_dim), dtype=complex)
        cols[rows, np.arange(self.h_dim)] = 1.0
        return self.apply_cols(u, cols)


def oracle_stack(u, d: int) -> tuple[np.ndarray, bool]:
    """``u`` as a complex (B, d, d) stack of oracles, and whether it was given
    as a stack: a single (d, d) oracle is the stack of one."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d):
        raise ValueError(f"oracle must be {d}x{d} or a stack of them, got {u.shape}")
    return (u, True) if u.ndim == 3 else (u[None], False)


@dataclass(frozen=True)
class _Stage:
    """One compiled step.  The state is a (batch, *factors, k) tensor; the
    stage transposes it by ``perm`` (None when the axes are already in
    place) so its target factors lead, multiplies those ``n`` dimensions by
    the fixed ``op`` or by the query image of ``letter`` (``rest`` being the
    dimension of the other factors), and leaves the factor axes in the order
    whose dimensions are ``shape``."""

    perm: tuple[int, ...] | None
    n: int
    rest: int
    shape: tuple[int, ...]
    op: np.ndarray | None
    letter: QueryLetter | None


def _compile(dims, ops) -> tuple[tuple[_Stage, ...], tuple[int, ...] | None]:
    """Step plan for (operator or query letter, targets) pairs applied in
    order, and the permutation that restores the layout's factor order."""
    def perm(order, new):
        p = (0,) + tuple(1 + order.index(f) for f in new) + (len(order) + 1,)
        return None if p == tuple(range(len(p))) else p

    order = list(range(len(dims)))
    stages = []
    for what, targets in ops:
        new = list(targets) + [f for f in order if f not in targets]
        letter = what if isinstance(what, QueryLetter) else None
        n = math.prod(dims[f] for f in targets)
        stages.append(_Stage(perm(order, new), n, math.prod(dims) // n,
                             tuple(dims[f] for f in new), None if letter else what, letter))
        order = new
    return tuple(stages), perm(order, range(len(dims)))


def out_split(alg, cols: np.ndarray) -> np.ndarray:
    """Reshape full-space columns to (out_task_dim, ancilla_out_dim, k)."""
    dims = alg.dims
    single = cols.ndim == 1
    if single:
        cols = cols[:, None]
    k = cols.shape[1]
    t = cols.reshape(*dims, k)
    perm = list(alg.out_factors) + list(alg.k_out_factors) + [len(dims)]
    t = t.transpose(perm)
    out = t.reshape(alg.h_dim, -1, k)
    return out[:, :, 0] if single else out


# -- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """A target operator family over oracles.

    ``base`` maps the oracle to a representative task operator.  For
    phase-covariant tasks the family is the unimodular orbit of the base; for
    the controlled-power family (``control_power`` set) members differ by a
    relative phase between the control blocks, which is extracted by the
    checkers.
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
            return u.T
        if self.name == "inverse":
            return la.dagger(u)
        raise ValueError(f"task {self.name} has no base evaluator")

    def member(self, u: np.ndarray, phi: float | None) -> np.ndarray:
        if self.control_power is not None:
            return control_phase_matrix(unitary_power(u, self.control_power), phi or 0.0)
        b = self.base(u)
        return b if phi is None else np.exp(1j * phi) * b


def unitary_power(u: np.ndarray, m: int) -> np.ndarray:
    if m >= 0:
        return np.linalg.matrix_power(u, m)
    return np.linalg.matrix_power(la.dagger(u), -m)


def control_phase_matrix(w: np.ndarray, phi: float) -> np.ndarray:
    """|0><0| (x) Id + e^{i phi} |1><1| (x) W on a (2w)-dimensional space."""
    d = w.shape[0]
    t = np.zeros((2 * d, 2 * d), dtype=complex)
    t[:d, :d] = np.eye(d)
    t[d:, d:] = np.exp(1j * phi) * w
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

    @property
    def success_prob(self) -> float:
        return float(np.linalg.norm(self.garbage) ** 2) if self.garbage is not None else 0.0


def _schmidt_views(alg, u):
    """Return (Bp, T): the (out, anc, in) tensor and its (out*in) x anc
    matricisation used for the rank-1 factorisation test."""
    b = alg.task_block(u)
    bp = out_split(alg, b)
    d_out, k_dim, h = bp.shape
    t = bp.transpose(0, 2, 1).reshape(d_out * h, k_dim)
    return bp, t


def _fit_garbage(t_mat: np.ndarray, big_t: np.ndarray) -> np.ndarray:
    vec = t_mat.reshape(-1)
    return (vec.conj() @ big_t) / (np.linalg.norm(vec) ** 2)


def _fit_residual(bp: np.ndarray, t_mat: np.ndarray, g: np.ndarray) -> float:
    d_out, k_dim, h = bp.shape
    fit = np.einsum("yx,k->ykx", t_mat, g)
    return la.spectral_norm((bp - fit).reshape(d_out * k_dim, h))


def _check_compat(alg, task: Task):
    if alg.h_dim != task.dim:
        raise ValueError(
            f"task space mismatch: program has dimension {alg.h_dim}, task wants {task.dim}")
    if alg.oracle_dim != task.oracle_dim:
        raise ValueError("oracle dimension mismatch between program and task")
    letters = {l.name for l in getattr(alg, "query_letters", ())}
    if not letters <= set(task.alphabet):
        raise ValueError(f"program queries {letters} outside the task alphabet {task.alphabet}")


def check_exact(alg, task: Task, u: np.ndarray, tol: float = EXACT_TOL) -> AchievementResult:
    """Decide whether the program output factorises as (task operator) (x)
    (garbage) on the all-zero ancilla, and extract the pieces.

    The block restricted to zero ancilla input is reshaped to a
    (task in/out) x (ancilla) matrix; achievement requires numerical rank one
    (second singular value <= tol) together with the rank-one task factor
    being proportional to a member of the task family.  The reported residual
    is the spectral norm of the full deviation from the fitted product form.
    """
    _check_compat(alg, task)
    bp, big_t = _schmidt_views(alg, u)
    left, svals, _ = np.linalg.svd(big_t, full_matrices=False)
    rank_residual = float(svals[1]) if len(svals) > 1 else 0.0

    phi: float | None = None
    if task.control_power is not None:
        m_fac = left[:, 0].reshape(alg.h_dim, alg.h_dim)
        dt = alg.h_dim // 2
        w = unitary_power(u, task.control_power)
        c0 = np.trace(m_fac[:dt, :dt]) / dt
        c1 = np.trace(la.dagger(w) @ m_fac[dt:, dt:]) / dt
        if abs(c0) > 1e-12 and abs(c1) > 1e-12:
            phi = float(np.angle(c1 / c0))
        t_mat = task.member(u, phi)
        g = _fit_garbage(t_mat, big_t)
    else:
        t_mat = task.base(u)
        g = _fit_garbage(t_mat, big_t)
        if task.phase_covariant and np.linalg.norm(g) > 1e-12:
            k_star = int(np.argmax(np.abs(g)))
            phi = float(np.angle(g[k_star]))
            t_mat = task.member(u, phi)
            g = g * np.exp(-1j * phi)

    residual = _fit_residual(bp, t_mat, g)
    achieved = (
        rank_residual <= tol
        and residual <= tol
        and np.linalg.norm(g) > tol
    )
    return AchievementResult(achieved=achieved, garbage=g, phase=phi,
                             residual=residual, rank_residual=rank_residual)


def _phase_min(f, grid: int) -> float:
    """Minimum of f over the phase circle: the best of ``grid`` uniform
    phases, refined by golden-section search over the two grid cells around
    it; never above the best grid value."""
    phis = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    vals = [f(p) for p in phis]
    best = int(np.argmin(vals))
    step = 2 * np.pi / grid
    inv = (math.sqrt(5) - 1) / 2
    a, b = phis[best] - step, phis[best] + step
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return min(float(f((a + b) / 2)), float(vals[best]))


def pure_deviation(alg, task: Task, u: np.ndarray, grid: int = PHASE_GRID) -> float:
    """Distance from the closest product form: min over garbage vectors (and
    admissible task phases) of the spectral norm of
    (zero-ancilla block) - (task member) (x) (garbage).

    The garbage vector is the least-squares ancilla factor for the candidate
    task member; for the controlled family the relative phase is scanned on a
    uniform grid and refined by golden-section search.
    """
    _check_compat(alg, task)
    bp, big_t = _schmidt_views(alg, u)

    def dev_for(t_mat: np.ndarray) -> float:
        return _fit_residual(bp, t_mat, _fit_garbage(t_mat, big_t))

    if task.control_power is None:
        # a global phase on the task member is absorbed by the garbage factor
        return dev_for(task.base(u))

    return _phase_min(lambda p: dev_for(task.member(u, p)), grid)


# -- channel form ----------------------------------------------------------------


def success_prob(alg, u: np.ndarray, state: np.ndarray) -> float:
    """Postselection probability on a normalised task-space input with zero
    ancillas."""
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != alg.h_dim:
        raise ValueError(f"input state must live on the {alg.h_dim}-dimensional task space")
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise ValueError("input state is not normalised")
    b = alg.task_block(u)
    return float(np.linalg.norm(b @ state) ** 2)


def _channel_from_block(alg, b: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    evals, evecs = np.linalg.eigh(rho)
    d_out = alg.h_dim
    acc = np.zeros((d_out, d_out), dtype=complex)
    for p, v in zip(evals, evecs.T):
        if p < 1e-14:
            continue
        y = out_split(alg, b @ v)
        acc += p * (y @ la.dagger(y))
    return acc, float(np.trace(acc).real)


def apply_channel(alg, u: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalised postselected channel on the task register: trace out the
    output ancillas of A(U) (rho (x) |0><0|) A(U)^dagger; also returns its
    trace (the postselection probability)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (alg.h_dim, alg.h_dim):
        raise ValueError("density matrix dimension mismatch")
    if la.spectral_norm(rho - la.dagger(rho)) > 1e-8 or abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError("input is not a density matrix (hermitian, trace one)")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("input density matrix is not positive semidefinite")
    return _channel_from_block(alg, alg.task_block(u), rho)


def _state_family(alg, task: Task, n_samples: int, seed: int) -> list[np.ndarray]:
    h = alg.h_dim
    rho_list = []
    for s in range(h):
        r = np.zeros((h, h), dtype=complex)
        r[s, s] = 1.0
        rho_list.append(r)
    rho_list.append(np.eye(h, dtype=complex) / h)
    if task.control_power is not None:
        dt = h // 2
        for tau in range(dt):
            v = np.zeros(h, dtype=complex)
            v[tau] = 1 / math.sqrt(2)
            v[dt + tau] = 1 / math.sqrt(2)
            rho_list.append(np.outer(v, v.conj()))
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        v = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        v /= np.linalg.norm(v)
        rho_list.append(np.outer(v, v.conj()))
    return rho_list


def eps_distance_estimate(alg, task: Task, u: np.ndarray, n_samples: int = 8,
                          seed: int = 0, grid: int = PHASE_GRID) -> float:
    """Lower bound for the worst-case trace distance between the renormalised
    postselected channel and conjugation by the task operator.

    The maximum runs over a fixed state family (computational basis states,
    the maximally mixed state, plus-control superpositions where a control
    register exists, and seeded Haar-random pure states), so the value is a
    lower bound on the supremum over all density matrices.
    """
    _check_compat(alg, task)
    b = alg.task_block(u)
    exact = check_exact(alg, task, u)
    fixed_member = task.member(u, exact.phase) if (exact.achieved or task.control_power is None) else None

    worst = 0.0
    for rho in _state_family(alg, task, n_samples, seed):
        out, tr = _channel_from_block(alg, b, rho)
        if tr <= 1e-14:
            raise ModelViolationError(
                "postselection probability vanished on a sampled state")
        normalised = out / tr

        def dist(member: np.ndarray) -> float:
            target = member @ rho @ la.dagger(member)
            return la.trace_norm(normalised - target)

        if fixed_member is not None:
            d = dist(fixed_member)
        else:
            d = _phase_min(lambda p: dist(task.member(u, p)), grid)
        worst = max(worst, float(d))
    return worst


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
    times itself on the full space, with a common r in (0, 1] across U."""
    e0 = la.basis_state(alg.total_dim, 0)
    phases, residuals, rs = [], [], []
    for u in u_list:
        v = alg.apply_cols(u, e0)
        amp = v[0]
        rs.append(float(abs(amp)))
        phases.append(float(np.angle(amp)))
        residuals.append(float(np.linalg.norm(v - amp * e0)))
    r_mean = float(np.mean(rs)) if rs else 0.0
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
    phase: constant norm and pairwise saturated overlaps."""
    garbages = []
    for i, u in enumerate(u_list):
        res = check_exact(alg, task, u, tol=tol)
        if not res.achieved:
            return CleanResult(False, f"not an exact achiever at sample {i} (residual {res.residual:.3g})")
        garbages.append(res.garbage)
    norms = [np.linalg.norm(g) for g in garbages]
    if max(norms) - min(norms) > tol:
        return CleanResult(False, "garbage norm varies with the oracle")
    for i in range(len(garbages)):
        for j in range(i + 1, len(garbages)):
            overlap = abs(np.vdot(garbages[i], garbages[j]))
            if abs(overlap - norms[i] * norms[j]) > tol:
                return CleanResult(False, f"garbage vectors {i} and {j} are not parallel")
    return CleanResult(True)


def static_homogeneity(seq) -> int:
    """Net homogeneity degree of a query sequence: sum of letter degrees."""
    total = 0
    for letter in seq:
        if isinstance(letter, str):
            letter = LETTERS[letter]
        total += letter.degree
    return total


def numeric_homogeneity_check(alg, u: np.ndarray, lam: complex, delta: int) -> float:
    """Spectral-norm residual of eval(lam*U) = lam^delta eval(U)."""
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("lambda must be unimodular")
    lhs = alg.eval(lam * np.asarray(u, dtype=complex))
    rhs = (lam ** delta) * alg.eval(u)
    return la.spectral_norm(lhs - rhs)


def lipschitz_check(alg, u: np.ndarray, v: np.ndarray) -> bool:
    """Continuity surrogate: the evaluation map is N-Lipschitz in the oracle,
    N being the query count (queries move by at most ||U - V||, fixed steps
    and projectors are contractions)."""
    diff = la.spectral_norm(alg.eval(u) - alg.eval(v))
    return diff <= alg.query_count * la.spectral_norm(np.asarray(u) - np.asarray(v)) + 1e-9


# -- circuit IR ------------------------------------------------------------------


def to_ir(alg: OracleAlgorithm) -> dict:
    """Serialise a program to the circuit IR dictionary."""
    steps = []
    for s in alg.steps:
        if isinstance(s, FixedStep):
            steps.append({"unitary": la.matrix_to_json(s.op), "targets": list(s.targets)})
        else:
            steps.append({"query": s.letter.name, "targets": list(s.targets)})
    if alg.projector is None:
        proj = "identity"
    else:
        proj = {"matrix": la.matrix_to_json(alg.projector[0]),
                "targets": list(alg.projector[1])}
    ir = {
        "name": alg.name,
        "d": alg.oracle_dim,
        "layout": [{"dim": d, "role": r} for d, r in alg.layout.factors],
        "steps": steps,
        "projector": proj,
    }
    if alg.task_out is not None:
        ir["task_out"] = list(alg.task_out)
    return ir


def _load_matrix(obj, base: Path | None):
    if isinstance(obj, str):
        path = Path(obj)
        if base is not None and not path.is_absolute():
            path = base / path
        return la.matrix_from_json(path)
    return la.matrix_from_json(obj)


def from_ir(obj, base: Path | None = None) -> OracleAlgorithm:
    """Parse the circuit IR (dict, JSON string path, or Path) to a program."""
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        base = path.parent
        with open(path) as f:
            obj = json.load(f)
    layout = RegisterLayout(tuple((int(f["dim"]), str(f["role"])) for f in obj["layout"]))
    all_targets = tuple(range(len(layout)))
    steps = []
    for s in obj["steps"]:
        if "query" in s:
            steps.append(QueryStep(LETTERS[s["query"]], tuple(s["targets"])))
        else:
            targets = tuple(s.get("targets", all_targets))
            steps.append(FixedStep(_load_matrix(s["unitary"], base), targets))
    proj_obj = obj.get("projector", "identity")
    if proj_obj == "identity" or proj_obj is None:
        projector = None
    elif isinstance(proj_obj, dict) and "matrix" in proj_obj:
        projector = (_load_matrix(proj_obj["matrix"], base),
                     tuple(proj_obj.get("targets", all_targets)))
    else:
        projector = (_load_matrix(proj_obj, base), all_targets)
    task_out = tuple(obj["task_out"]) if "task_out" in obj else None
    return OracleAlgorithm(
        name=obj.get("name", "ir"),
        oracle_dim=int(obj["d"]),
        layout=layout,
        steps=tuple(steps),
        projector=projector,
        task_out=task_out,
    )


def write_ir(alg: OracleAlgorithm, path) -> None:
    with open(path, "w") as f:
        json.dump(to_ir(alg), f)
