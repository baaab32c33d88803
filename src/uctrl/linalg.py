"""Dense complex linear algebra for small multi-register systems.

Matrices are plain numpy arrays (complex128, row-major); states are columns.
Registers are described by a :class:`RegisterLayout`, an ordered list of
factor dimensions with role labels.  Basis labels are 0-indexed everywhere;
full-space basis indices are row-major over the layout factors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

UNITARY_TOL = 1e-10

# maximum size for the factorial-squared symmetric determinant/minor loops
SYM_DET_MAX = 6
SYM_MINOR_MAX = 5


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def require_square(m: np.ndarray, what: str = "matrix") -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m.shape[0]


def entry_above(m: np.ndarray, bound: float) -> bool | np.ndarray:
    """Whether some entry of ``m`` has modulus above ``bound``; for a stack
    (..., r, c) the array of each matrix's answer.  A NaN is not above."""
    return (np.abs(m) > bound).any(axis=(-2, -1))


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """An entry of modulus above sqrt(1 + tol) puts the largest singular
    value above it, so |m^dagger m - I|_2 > tol: such an ``m`` is refused
    before m^dagger m is formed, which could overflow."""
    n = require_square(m)
    return not entry_above(m, math.sqrt(1 + tol)) and norm_within(dagger(m) @ m - np.eye(n), tol)


def require_unitary(m: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, checked unitary.  A stack (B, n, n) is
    checked matrix by matrix in one vectorised pass, and the error names the
    first index that fails."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3:
        if not is_unitary(m, tol):
            raise ValueError(f"{what} is not unitary to tolerance {tol}")
        return m
    if m.shape[1] != m.shape[2]:
        raise ValueError(f"{what} must be a stack of square matrices, got shape {m.shape}")
    # as in is_unitary, a matrix with an entry above sqrt(1 + tol) fails first
    ok = ~entry_above(m, math.sqrt(1 + tol))
    good = m if ok.all() else m[ok]
    ok[ok] = norm_within(dagger(good) @ good - np.eye(m.shape[1]), tol)
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"{what} at index {bad[0]} is not unitary to tolerance {tol}")
    return m


def basis_state(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of an arbitrary (possibly rectangular) matrix,
    as a float; for a stack (..., r, c) the array of each matrix's value.  An
    empty matrix has norm 0, and an input of fewer than two axes is not a
    matrix: numpy's ``AxisError``, a ``ValueError``."""
    n = np.linalg.norm(m, 2, axis=(-2, -1))
    return float(n) if m.ndim == 2 else n


def norm_within(m: np.ndarray, tol: float) -> bool | np.ndarray:
    """``spectral_norm(m) <= tol``; for a stack (..., r, c) the array of each
    matrix's verdict.  Since ||X||_2 <= ||X||_F, a matrix whose Frobenius norm
    is at most ``tol`` passes without an SVD; only the matrices that bound
    does not settle go to :func:`spectral_norm`, so the predicate is the same.
    A NaN fails the bound and reaches the SVD, which raises as before."""
    ok = np.linalg.norm(m, axis=(-2, -1)) <= tol
    if m.ndim == 2:
        return bool(ok) or bool(spectral_norm(m) <= tol)
    if not ok.all():
        ok[~ok] = spectral_norm(m[~ok]) <= tol
    return ok


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered subsystem dimensions with role labels.

    A layout has at least one factor.  Roles are ``"control"``, ``"task"``,
    or any other string naming an ancilla group.  At most one factor may be
    the control and it must be a qubit.  The task input space is the product
    of the control and task factors, in layout order.
    """

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a register layout needs at least one factor")
        ctrl = [i for i, (_, r) in enumerate(self.factors) if r == "control"]
        if len(ctrl) > 1:
            raise ValueError("at most one control factor is allowed")
        for d, r in self.factors:
            if d < 2:
                raise ValueError(f"factor dimension must be >= 2, got {d}")
        if ctrl and self.factors[ctrl[0]][0] != 2:
            raise ValueError("control factor must have dimension 2")

    @classmethod
    def of(cls, dims, roles=None) -> "RegisterLayout":
        dims = tuple(int(d) for d in dims)
        roles = ["anc"] * len(dims) if roles is None else list(roles)
        if len(roles) != len(dims):
            raise ValueError(f"{len(dims)} factor dimensions but {len(roles)} roles")
        return cls(tuple(zip(dims, roles)))

    # derived once per layout; equality and hashing still use ``factors`` only

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.factors)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def control_index(self) -> int | None:
        for i, (_, r) in enumerate(self.factors):
            if r == "control":
                return i
        return None

    @cached_property
    def h_indices(self) -> tuple[int, ...]:
        """Factors making up the task input space (control + task, in order)."""
        return tuple(i for i, (_, r) in enumerate(self.factors) if r in ("control", "task"))

    @cached_property
    def task_rows(self) -> np.ndarray:
        """Full-space index of each task-input basis state, in task-space
        order, with every ancilla at 0 (read-only)."""
        at_zero = tuple(slice(None) if i in self.h_indices else 0 for i in range(len(self)))
        rows = np.arange(self.total_dim).reshape(self.dims)[at_zero].reshape(-1)
        rows.flags.writeable = False
        return rows

    @cached_property
    def ancilla_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, r) in enumerate(self.factors) if r not in ("control", "task"))

    def subdim(self, indices) -> int:
        return math.prod(self.dims[i] for i in indices)

    def __len__(self) -> int:
        return len(self.factors)


def _as_dims(layout) -> tuple[int, ...]:
    if isinstance(layout, RegisterLayout):
        return layout.dims
    return tuple(int(d) for d in layout)


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def target_dim(targets, dims) -> int:
    """Dimension spanned by the listed factors, which must be distinct
    factors of the layout ``dims``."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise ValueError(f"target {t} outside layout of {len(dims)} factors")
    return math.prod(dims[t] for t in targets)


def check_targets(op: np.ndarray, targets, dims) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    tdim = target_dim(targets, dims)
    n = require_square(op, "embedded operator")
    if n != tdim:
        raise ValueError(f"operator dimension {n} does not match target dims (product {tdim})")
    return targets


def embed(op: np.ndarray, targets, layout) -> np.ndarray:
    """Full-space operator acting as ``op`` on the listed factors (in listed
    order) and as the identity elsewhere."""
    dims = _as_dims(layout)
    targets = check_targets(op, targets, dims)
    order = [*targets, *(i for i in range(len(dims)) if i not in targets)]
    full = np.kron(np.asarray(op, dtype=complex), np.eye(math.prod(dims) // len(op)))
    back = np.argsort(order)
    t = full.reshape([dims[f] for f in order] * 2)
    return t.transpose(*back, *(back + len(dims))).reshape(full.shape)


def apply_to_factors(cols: np.ndarray, op: np.ndarray, targets, dims) -> np.ndarray:
    """Apply ``op`` (acting on the target factors) to a (total_dim x k) block
    of column vectors without materialising the full-space operator.

    Programs run the compiled step plan in :mod:`uctrl.model` instead; this
    separate ``tensordot`` kernel is kept as the independent reference that
    ``tests/test_batched.py`` checks the plan against, and ``perfbench``'s
    tracer wraps it by this name."""
    dims = tuple(dims)
    targets = check_targets(op, targets, dims)
    n = len(dims)
    single = cols.ndim == 1
    if single:
        cols = cols[:, None]
    k = cols.shape[1]
    tdims = [dims[t] for t in targets]
    t = cols.reshape(*dims, k)
    top = np.asarray(op, dtype=complex).reshape(tdims + tdims)
    nt = len(targets)
    t = np.tensordot(top, t, axes=(list(range(nt, 2 * nt)), list(targets)))
    # tensordot output axes: [target factors...] + [untouched factors...] + [k]
    current = list(targets) + [i for i in range(n) if i not in targets] + [n]
    perm = [current.index(p) for p in range(n + 1)]
    out = t.transpose(perm).reshape(-1, k)
    return out[:, 0] if single else out


def controlled_block(op: np.ndarray, polarity: int) -> np.ndarray:
    """Operator on (qubit x target) space acting as ``op`` when the qubit
    matches ``polarity`` and as the identity otherwise."""
    if polarity not in (0, 1):
        raise ValueError("polarity must be 0 or 1")
    n = require_square(op, "controlled operator")
    p = np.zeros((2, 2), dtype=complex)
    p[polarity, polarity] = 1.0
    return np.kron(p, np.asarray(op, dtype=complex)) + np.kron(np.eye(2) - p, np.eye(n))


def controlled(op: np.ndarray, ctrl: int, polarity: int, targets, layout) -> np.ndarray:
    """Full-space controlled operator: ``op`` on the targets when the control
    factor holds ``polarity``, identity on the other control value."""
    dims = _as_dims(layout)
    ctrl = int(ctrl)
    if not 0 <= ctrl < len(dims):
        raise ValueError(f"control factor {ctrl} outside layout of {len(dims)} factors")
    if dims[ctrl] != 2:
        raise ValueError("control factor must have dimension 2")
    if ctrl in tuple(targets):
        raise ValueError("control factor cannot be among the targets")
    block = controlled_block(op, polarity)
    return embed(block, (ctrl, *targets), dims)


def swap_matrix(d: int) -> np.ndarray:
    """Exchange of two d-dimensional factors."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of singular values of a square matrix, as a float; for a stack
    (..., n, n) the array of each matrix's value."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"trace_norm input must be square, got shape {m.shape}")
    s = np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)
    return float(s) if m.ndim == 2 else s


def _require_finite(m: np.ndarray, what: str) -> None:
    """Raise ``LinAlgError`` on a non-finite entry, as the SVD behind
    :func:`trace_norm` and :func:`spectral_norm` does: ``eigvalsh`` of a NaN
    matrix can return finite eigenvalues without an error."""
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError(f"{what} has a non-finite entry")


def hermitian_trace_norm(m: np.ndarray) -> np.ndarray:
    """:func:`trace_norm` of a Hermitian matrix, or of each matrix of a stack
    (..., n, n), as the sum of its absolute eigenvalues: one ``eigvalsh``
    instead of an SVD.  Only the lower triangle is read, so a matrix
    Hermitian up to rounding gets the trace norm of its lower triangle's
    Hermitian matrix, which differs by at most that rounding's trace norm."""
    _require_finite(m, "hermitian_trace_norm input")
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def gram_spectral_norm(m: np.ndarray) -> np.ndarray:
    """:func:`spectral_norm` of a tall (r >= c) matrix, or of each matrix of
    a stack (..., r, c), as sqrt(lambda_max(M^dagger M)): one c x c
    ``eigvalsh`` of the Gram matrix instead of an SVD of M.  The Gram matrix
    is formed from M itself, so the largest eigenvalue, and its root, keep a
    relative error of a few units of rounding."""
    _require_finite(m, "gram_spectral_norm input")
    return np.sqrt(np.maximum(np.linalg.eigvalsh(dagger(m) @ m)[..., -1], 0.0))


def op_norm(m: np.ndarray) -> float:
    """Largest singular value (square input required)."""
    require_square(m, "op_norm input")
    return spectral_norm(m)


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the R
    diagonal rephased to be positive.  Deterministic in the seed."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return _haar_from_rng(d, rng)


def _haar_from_rng(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitaries(d: int, n: int, seed: int) -> list[np.ndarray]:
    """A reproducible stream of n Haar unitaries."""
    rng = np.random.default_rng(seed)
    return [_haar_from_rng(d, rng) for _ in range(n)]


def perm_sign(images) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1."""
    images = tuple(images)
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
    inversions = sum(
        1 for a in range(n) for b in range(a + 1, n) if images[a] > images[b]
    )
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of 0..n-1 with their signs, as read-only arrays
    (every caller shares the cached pair)."""
    perms = list(itertools.permutations(range(n)))
    table = np.array(perms, dtype=np.intp), np.array([perm_sign(p) for p in perms], dtype=float)
    for a in table:
        a.flags.writeable = False
    return table


def sym_det(m: np.ndarray) -> complex:
    """Determinant via the row-and-column symmetrised permutation sum
    (1/n!) * sum_{pi,tau} sgn(tau) sgn(pi) prod_i M[tau(i), pi(i)]."""
    n = require_square(m, "sym_det input")
    if n > SYM_DET_MAX:
        raise ValueError(f"sym_det supports n <= {SYM_DET_MAX} (cost (n!)^2), got {n}")
    m = np.asarray(m, dtype=complex)
    perms, signs = signed_permutations(n)
    # G[t, p] = prod_i M[perms[t, i], perms[p, i]]
    g = m[perms[:, None, :], perms[None, :, :]].prod(axis=2)
    total = signs @ g @ signs
    return complex(total / math.factorial(n))


def sym_minor(m: np.ndarray, i: int, j: int) -> complex:
    """det of ``m`` with row i and column j deleted (0-indexed): (-1)^(i+j)
    times entry (i, j) of ``cofactor_matrix``."""
    n = require_square(m, "sym_minor input")
    if n > SYM_MINOR_MAX:
        raise ValueError(f"sym_minor supports n <= {SYM_MINOR_MAX}, got {n}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"minor indices ({i}, {j}) out of range for n = {n}")
    sign = -1.0 if (i + j) % 2 else 1.0
    return complex(sign * cofactor_matrix(m)[i, j])


def cofactor_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of signed minors; equals det(U) * conj(U) for unitary U.

    Entry (i, j) is the symmetrised permutation sum restricted to tau(0)=i,
    pi(0)=j, whose signs sgn(tau) sgn(pi) already carry (-1)^(i+j): over the
    permutations t, p, the matrix is A^T G A / (n-1)! with
    G[t, p] = prod_{k>=1} M[t_k, p_k] and A[t, i] = sgn(t) [t_0 = i]."""
    n = require_square(m, "cofactor input")
    if n > SYM_MINOR_MAX:
        raise ValueError(f"cofactor_matrix supports n <= {SYM_MINOR_MAX}, got {n}")
    m = np.asarray(m, dtype=complex)
    perms, signs = signed_permutations(n)
    g = m[perms[:, None, 1:], perms[None, :, 1:]].prod(axis=2)
    a = signs[:, None] * (perms[:, :1] == np.arange(n))
    return a.T @ g @ a / math.factorial(n - 1)


def principal_root(u: np.ndarray, k: int) -> np.ndarray:
    """k-th root of a unitary through the principal branch: each eigenvalue
    e^{i theta} with theta in (-pi, pi] maps to e^{i theta / k}.

    Discontinuous where an eigenvalue crosses -1; any orthonormal eigenbasis
    gives the same result since the map depends on the eigenvalue only.

    A single (n, n) matrix is the stack of one; a (B, n, n) stack is checked
    unitary in one pass (the error names the first bad index).  Each U is
    turned by the phase that puts the middle of the widest gap between its
    eigenvalue angles at -1, so the turned W keeps every eigenvalue at least
    pi/n from -1.  One batched ``eigh`` of the Cayley transform
    i(I - W)(I + W)^-1 then diagonalises U: it is Hermitian with eigenvalues
    tan(theta_W / 2), strictly increasing in theta_W, so distinct eigenvalues
    of U stay distinct and its norm is at most cot(pi / 2n).  The branch at
    the cut follows the rounding of each eigenvalue's angle.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    u = require_unitary(u, what="principal_root input")
    n = u.shape[-1]
    us = u.reshape(-1, n, n)
    theta = np.sort(np.angle(np.linalg.eigvals(us)))
    gaps = np.concatenate([theta[:, 1:], theta[:, :1] + 2.0 * np.pi], axis=-1) - theta
    mid = (theta + 0.5 * gaps)[np.arange(len(us)), gaps.argmax(axis=-1)]
    w = us * np.exp(1j * (np.pi - mid))[:, None, None]
    eye = np.eye(n)
    v = np.linalg.eigh(1j * np.linalg.solve(eye + w, eye - w))[1]
    lam = np.einsum("bji,bjl,bli->bi", v.conj(), us, v)
    out = (v * np.exp(1j * np.angle(lam) / k)[:, None, :]) @ dagger(v)
    return out.reshape(u.shape)


def partial_trace(m: np.ndarray, layout, keep) -> np.ndarray:
    """Trace out all factors not listed in ``keep``; output factor order
    follows ``keep``."""
    dims = _as_dims(layout)
    n = len(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match layout dims {dims}")
    keep = tuple(int(i) for i in keep)
    for i in keep:
        if not 0 <= i < n:
            raise ValueError(f"keep index {i} out of range")
    if len(set(keep)) < len(keep):
        raise ValueError(f"duplicate keep index {max(keep, key=keep.count)}")
    order = list(keep) + [i for i in range(n) if i not in keep]
    k = math.prod(dims[i] for i in keep)
    t = m.reshape(dims + dims).transpose(order + [n + i for i in order])
    return np.einsum("ajbj->ab", t.reshape(k, total // k, k, total // k))


def complete_unitary(dim: int, pinned: dict[int, np.ndarray]) -> np.ndarray:
    """Unitary with the given columns pinned verbatim; the free columns, in
    index order, are the orthonormal complement of the pinned ones from a
    Householder QR of them (deterministic)."""
    idx = sorted(pinned)
    p = np.zeros((dim, len(idx)), dtype=complex)
    for k, i in enumerate(idx):
        v = np.asarray(pinned[i], dtype=complex).reshape(-1)
        if v.shape[0] != dim:
            raise ValueError("pinned column has wrong dimension")
        p[:, k] = v
    q, r = np.linalg.qr(p, mode="complete")
    if np.any(np.abs(np.diagonal(r)) < 1e-8):
        raise ValueError("pinned columns are not linearly independent")
    cols = np.empty((dim, dim), dtype=complex)
    cols[:, idx] = p
    cols[:, [i for i in range(dim) if i not in pinned]] = q[:, len(idx):]
    return cols


# the circuit-IR matrix text lives in ``ir``, imported last: ``ir`` imports
# ``model``, which reads this module's names
from .ir import (  # noqa: E402, F401  (re-exported)
    dumps_with_matrices, float_array_json, iterdumps_with_matrices, load_json, matrix_from_json,
    matrix_to_json)
