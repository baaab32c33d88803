"""Dense complex linear algebra for small multi-register systems.

Matrices are plain numpy arrays (complex128, row-major); states are columns.
Registers are described by a :class:`RegisterLayout`, an ordered list of
factor dimensions with role labels.  Basis labels are 0-indexed everywhere;
full-space basis indices are row-major over the layout factors.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.linalg

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


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    n = require_square(m)
    return spectral_norm(dagger(m) @ m - np.eye(n)) <= tol


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
    bad = np.flatnonzero(~(spectral_norm(dagger(m) @ m - np.eye(m.shape[1])) <= tol))
    if bad.size:
        raise ValueError(f"{what} at index {bad[0]} is not unitary to tolerance {tol}")
    return m


def basis_state(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of an arbitrary (possibly rectangular) matrix;
    for a stack (..., r, c) the array of each matrix's value."""
    if m.ndim > 2:
        return np.linalg.norm(m, 2, axis=(-2, -1))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered subsystem dimensions with role labels.

    Roles are ``"control"``, ``"task"``, or any other string naming an
    ancilla group.  At most one factor may be the control and it must be a
    qubit.  The task input space is the product of the control and task
    factors, in layout order.
    """

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
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
        if roles is None:
            roles = ["anc"] * len(dims)
        return cls(tuple(zip(dims, roles)))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims)) if self.factors else 1

    @property
    def control_index(self) -> int | None:
        for i, (_, r) in enumerate(self.factors):
            if r == "control":
                return i
        return None

    @property
    def h_indices(self) -> tuple[int, ...]:
        """Factors making up the task input space (control + task, in order)."""
        return tuple(i for i, (_, r) in enumerate(self.factors) if r in ("control", "task"))

    @property
    def ancilla_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, r) in enumerate(self.factors) if r not in ("control", "task"))

    def subdim(self, indices) -> int:
        dims = self.dims
        out = 1
        for i in indices:
            out *= dims[i]
        return out

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
    others = [i for i in range(len(dims)) if i not in targets]
    rest = int(np.prod([dims[i] for i in others])) if others else 1
    full = np.kron(np.asarray(op, dtype=complex), np.eye(rest))
    order = list(targets) + others
    pos = {f: k for k, f in enumerate(order)}
    src = [dims[f] for f in order]
    n = len(dims)
    t = full.reshape(src + src)
    axes = [pos[p] for p in range(n)] + [n + pos[p] for p in range(n)]
    total = int(np.prod(dims))
    return t.transpose(axes).reshape(total, total)


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
    if dims[ctrl] != 2:
        raise ValueError("control factor must have dimension 2")
    if ctrl in tuple(targets):
        raise ValueError("control factor cannot be among the targets")
    block = controlled_block(op, polarity)
    return embed(block, (ctrl, *targets), dims)


def swap_matrix(d: int) -> np.ndarray:
    """Exchange of two d-dimensional factors."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = 1.0
    return m


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values (square input required)."""
    require_square(m, "trace_norm input")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


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
    """All permutations of 0..n-1 with their signs, as arrays."""
    perms = list(itertools.permutations(range(n)))
    signs = np.array([perm_sign(p) for p in perms], dtype=float)
    return np.array(perms, dtype=np.intp), signs


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
    """det of ``m`` with row i and column j deleted, via the symmetrised
    restricted permutation sum over pi(0)=j, tau(0)=i (0-indexed; the
    underlying 1-indexed formula is shifted internally)."""
    n = require_square(m, "sym_minor input")
    if n > SYM_MINOR_MAX:
        raise ValueError(f"sym_minor supports n <= {SYM_MINOR_MAX}, got {n}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"minor indices ({i}, {j}) out of range for n = {n}")
    if n == 1:
        return complex(1.0)
    m = np.asarray(m, dtype=complex)

    def anchored(first: int) -> tuple[np.ndarray, np.ndarray]:
        rest = [x for x in range(n) if x != first]
        perms = [(first,) + p for p in itertools.permutations(rest)]
        signs = np.array([perm_sign(p) for p in perms], dtype=float)
        return np.array(perms, dtype=np.intp), signs

    taus, tau_signs = anchored(i)
    pis, pi_signs = anchored(j)
    g = m[taus[:, None, 1:], pis[None, :, 1:]].prod(axis=2)
    total = tau_signs @ g @ pi_signs
    sign = -1.0 if (i + j) % 2 else 1.0
    return complex(sign * total / math.factorial(n - 1))


def cofactor_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of signed minors; equals det(U) * conj(U) for unitary U."""
    n = require_square(m, "cofactor input")
    if n > SYM_MINOR_MAX:
        raise ValueError(f"cofactor_matrix supports n <= {SYM_MINOR_MAX}, got {n}")
    c = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            sign = -1.0 if (i + j) % 2 else 1.0
            c[i, j] = sign * sym_minor(m, i, j)
    return c


def principal_root(u: np.ndarray, k: int) -> np.ndarray:
    """k-th root of a unitary through the principal branch: each eigenvalue
    e^{i theta} with theta in (-pi, pi] maps to e^{i theta / k}.

    Discontinuous where an eigenvalue crosses -1; any orthonormal eigenbasis
    gives the same result since the map depends on the eigenvalue only.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    u = require_unitary(u, what="principal_root input")
    t, q = scipy.linalg.schur(u, output="complex")
    theta = np.angle(np.diagonal(t))
    return (q * np.exp(1j * theta / k)) @ dagger(q)


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
    t = m.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n))
    out_row, out_col = [], []
    nxt = n
    for i in range(n):
        if i in keep:
            col[i] = nxt
            nxt += 1
        else:
            col[i] = row[i]
    for i in keep:
        out_row.append(row[i])
        out_col.append(col[i])
    reduced = np.einsum(t, row + col, out_row + out_col)
    kd = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(kd, kd)


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


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialise to the {"rows", "cols", "re", "im"} wire format."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, (str, Path)):
        with open(obj) as f:
            obj = json.load(f)
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    m = re + 1j * im
    if m.shape != (obj["rows"], obj["cols"]):
        raise ValueError("matrix JSON shape fields disagree with data")
    return m
