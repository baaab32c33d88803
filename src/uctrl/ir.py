"""Circuit-IR JSON, the file format of oracle programs: the text of a matrix
and the form of a program.

A matrix is ``{"rows": n, "cols": m, "re": [[...]], "im": [[...]]}``.  A
program is an object with an integer ``"d"``, a non-empty ``"layout"`` of
``{"dim": int, "role": str}`` factors, a list of ``"steps"``, each
``{"query": "id" | "inv", "targets": [...]}`` or ``{"unitary": M, "targets":
[...]}`` (no ``"targets"`` means every factor), and optionally a string
``"name"``, a ``"task_out"`` list and a ``"projector"``: ``"identity"``,
null, a full-space matrix M, or ``{"matrix": M, "targets": [...]}``.  Each M
is inline or the path of a matrix JSON file.

:func:`from_ir` checks this skeleton, every key, type and integer field
outside the matrix entries, once in :func:`_skeleton` before it builds
anything; the entries are checked as they are converted.  ``linalg``
re-exports the matrix half and ``model`` the program half.
"""
from __future__ import annotations

import itertools
import json
import reprlib
from collections.abc import Iterator
from pathlib import Path

import numpy as np

# -- the matrix text ---------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialise to the {"rows", "cols", "re", "im"} wire format."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def float_array_json(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())`` for a 2-D float array, with the encoder run
    once per distinct bit pattern (so -0.0 keeps its sign) rather than once
    per entry: program matrices hold few distinct values, mostly zeros, so
    only the nonzero patterns are sorted, with +0.0 put in front of them, and
    each kept where it differs from the one before (``np.unique`` would
    import ``numpy.ma``)."""
    bits = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    patterns = np.concatenate(([np.uint64(0)], np.sort(bits[bits != 0])))
    distinct = patterns[np.concatenate(([True], patterns[1:] != patterns[:-1]))]
    # the JSON text of a float never holds ", "
    text = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    rows = text[np.searchsorted(distinct, bits)].tolist()
    return "[" + ", ".join(["[" + ", ".join(row) + "]" for row in rows]) + "]"


# json.dumps text of the arrays of a matrix stub in ``iterdumps_with_matrices``.
# Within a JSON string every quote is escaped, so the quote after ``re`` closes
# a key: this text marks the stubs and nothing else, whatever the strings of
# the skeleton hold.
_STUB_ARRAYS = '"re": NaN, "im": NaN'


def dumps_with_matrices(build) -> str:
    """``json.dumps(build(matrix_to_json))``, byte for byte: the pieces of
    :func:`iterdumps_with_matrices` joined."""
    return "".join(iterdumps_with_matrices(build))


def iterdumps_with_matrices(build) -> Iterator[str]:
    """The text of ``json.dumps(build(matrix_to_json))`` as pieces, without
    listing the matrices: ``build`` gets a stand-in that records each matrix
    and returns a stub whose arrays are NaN, and the ``json.dumps`` text of
    the skeleton, made here, is cut at the stubs.  The text of a matrix's
    arrays (from :func:`float_array_json`) is made only when its piece is
    reached, so a writer holds one matrix's text at a time.  ``build`` must
    put no NaN under a key "re" outside the stubs."""
    matrices = []

    def stub(m: np.ndarray) -> dict:
        m = np.atleast_2d(np.asarray(m, dtype=complex))
        matrices.append(m)
        return {"rows": m.shape[0], "cols": m.shape[1], "re": np.nan, "im": np.nan}

    pieces = json.dumps(build(stub)).split(_STUB_ARRAYS)
    arrays = (f'"re": {float_array_json(m.real)}, "im": {float_array_json(m.imag)}'
              for m in matrices)
    return itertools.chain(itertools.chain.from_iterable(zip(pieces, arrays)), pieces[-1:])


def _float_entries(a: np.ndarray, rows) -> np.ndarray:
    """The entries behind ``a = np.asarray(rows)`` as floats, or ValueError
    unless they are all numbers.  np.asarray(..., dtype=float) would parse
    "1.5", and np.asarray turns [true, 0.5] into [1.0, 0.5], so a bool among
    numbers shows only in the entries' types, which are scanned unless
    ``rows`` is already an array: an array holds no JSON boolean
    (:func:`_arrays_hook` makes one only from text without a boolean
    literal), so its dtype is all there is to check.  An integer outside
    int64 makes ``a`` an object array; numbers there load as their floats,
    and one too large for a float is not finite."""
    if a.dtype == object and all(type(x) in (int, float) for row in rows for x in row):
        try:
            return np.array([[float(x) for x in row] for row in rows])
        except OverflowError:
            raise ValueError("matrix JSON entries must be finite numbers") from None
    if a.dtype.kind not in "iuf" or not isinstance(rows, np.ndarray) and any(
            bool in set(map(type, row)) for row in rows):
        raise ValueError("matrix JSON entries must be numbers")
    return a.astype(float)


def load_json(path) -> object:
    """The JSON value in the file at ``path``, whose text is read once.  When
    that text is free of booleans (JSON spells one only as the literal
    ``true`` or ``false``), each object's "re" and "im" lists become arrays
    as the object closes (see :func:`_arrays_hook`), so the parser holds one
    matrix's floats at a time and :func:`matrix_from_json` skips the scan of
    their entries' types; elsewhere the lists stay, and are scanned.  Text
    nested deeper than the parser's recursion can go is a ``ValueError``
    that names the file, like any other malformed JSON."""
    text = Path(path).read_text()
    has_bool = any(_holds_word(text, w) for w in ("true", "false"))
    try:
        return json.loads(text, object_hook=None if has_bool else _arrays_hook)
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def _arrays_hook(obj: dict) -> dict:
    """``obj`` with its "re" and "im" lists replaced by ``np.asarray`` of
    them where that gives numbers: :func:`matrix_from_json` takes such an
    array as it takes the list.  np.asarray turns [true, 0.5] into floats,
    so this runs only on text free of booleans; ragged rows, strings, null
    and integers outside int64 stay lists, for their own errors."""
    for key in ("re", "im"):
        if type(obj.get(key)) is list:
            try:
                a = np.asarray(obj[key])
            except ValueError:
                continue
            if a.dtype.kind in "iuf":
                obj[key] = a
    return obj


def _holds_word(text: str, word: str) -> bool:
    """``word in text``, found through its first letter: a single-character
    search is a memchr, many times faster than a substring search over the
    megabytes of numbers in a program's JSON, where t and f occur only in
    keys and strings."""
    i = text.find(word[0])
    while i >= 0:
        if text.startswith(word, i):
            return True
        i = text.find(word[0], i + 1)
    return False


def matrix_from_json(obj) -> np.ndarray:
    """Parse the wire format, given as a dict or as the path of a JSON file.
    Entries must be finite numbers; a JSON boolean is rejected.  Entries
    given as lists have their types scanned for booleans; entries given as
    numeric arrays (made by :func:`load_json` from text without a boolean,
    or passed in the dict) are taken as numbers, and no argument turns the
    scan off."""
    if isinstance(obj, (str, Path)):
        obj = load_json(obj)
    _matrix_skeleton(obj)
    return _matrix(obj, None)


def _matrix(obj, base: Path | None) -> np.ndarray:
    """The matrix of a wire-format object whose skeleton is checked, or of
    the matrix JSON file a path names, relative to ``base``."""
    if isinstance(obj, str):
        return matrix_from_json(obj if base is None or Path(obj).is_absolute() else base / obj)
    shape = (obj["rows"], obj["cols"])
    try:
        re, im = np.asarray(obj["re"]), np.asarray(obj["im"])
    except ValueError:  # ragged rows, or a list where a number belongs
        re = im = None
    if re is None or re.shape != shape or im.shape != shape:
        raise ValueError("matrix JSON shape fields disagree with data")
    re, im = _float_entries(re, obj["re"]), _float_entries(im, obj["im"])
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix JSON entries must be finite numbers")
    # set both parts in place: re + 1j * im would turn a -0.0 into 0.0
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = re, im
    return m


# -- the program form --------------------------------------------------------


def to_ir(alg: mo.OracleAlgorithm) -> dict:
    """Serialise a program to the circuit IR dictionary."""
    return _ir(alg, matrix_to_json)


def _ir(alg: mo.OracleAlgorithm, matrix) -> dict:
    """The circuit IR dictionary with each matrix ``m`` as ``matrix(m)``."""
    steps = []
    for s in alg.steps:
        if isinstance(s, mo.FixedStep):
            steps.append({"unitary": matrix(s.op), "targets": list(s.targets)})
        else:
            steps.append({"query": s.letter.name, "targets": list(s.targets)})
    if alg.projector is None:
        proj = "identity"
    else:
        proj = {"matrix": matrix(alg.projector[0]), "targets": list(alg.projector[1])}
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


def write_ir(alg: mo.OracleAlgorithm, path) -> None:
    """Write ``json.dumps(to_ir(alg))`` to ``path``; each matrix value is
    formatted once however often it occurs, and the text is written piece by
    piece, one matrix's arrays at a time (see :func:`iterdumps_with_matrices`).
    The skeleton is made before the file is opened, so a program that cannot
    be written leaves an existing file as it was."""
    pieces = iterdumps_with_matrices(lambda matrix: _ir(alg, matrix))
    with open(path, "w") as f:
        f.writelines(pieces)


def _require(ok: bool, what: str, value, n: int = 60) -> None:
    """ValueError("malformed circuit IR: <what>, got <value>") unless ``ok``,
    quoting at most n characters of the value on one line: ``reprlib.repr``
    stops at a few levels and items, so a list nested thousands deep is
    quoted, not a ``RecursionError``, and the line breaks of a numpy array's
    repr are collapsed."""
    if not ok:
        raise ValueError(f"malformed circuit IR: {what}, got {' '.join(reprlib.repr(value).split())[:n]}")


def _ints(value, what: str) -> None:
    ints = isinstance(value, (list, tuple)) and all(isinstance(t, (int, np.integer)) for t in value)
    _require(ints and bool not in map(type, value), f"{what} must be integers", value)


def _matrix_skeleton(m) -> None:
    """ValueError unless ``m`` is an object with "rows", "cols", "re" and
    "im", its "rows" and "cols" integers."""
    _require(isinstance(m, dict) and all(k in m for k in ("rows", "cols", "re", "im")),
             'bad matrix: expected an object with "rows", "cols", "re" and "im"', m)
    _ints([m["rows"], m["cols"]], "matrix JSON rows and cols")


def _projector(obj: dict):
    """The IR's projector as (matrix, the object holding its targets), or
    None for "identity" or null."""
    proj = obj.get("projector")
    if proj in ("identity", None):
        return None
    return (proj["matrix"], proj) if isinstance(proj, dict) and "matrix" in proj else (proj, {})


def _skeleton(obj) -> None:
    """ValueError("malformed circuit IR: ...") unless ``obj`` has the IR's
    skeleton (see the module docstring) and each step holds exactly one of
    "query" and "unitary".  A matrix named by a path is checked when its
    file is read; no matrix entry is visited here."""
    def need(node: dict, key: str):
        if key not in node:
            raise ValueError(f"malformed circuit IR: missing key {key!r}")
        return node[key]

    _require(isinstance(obj, dict), "expected a JSON object", obj)
    factors, steps = need(obj, "layout"), need(obj, "steps")
    _require(isinstance(factors, list) and factors and isinstance(steps, list)
             and all(isinstance(x, dict) for x in factors + steps),
             '"layout" (non-empty) and "steps" must be lists of objects', (factors, steps))
    _ints([need(f, "dim") for f in factors], "layout dims")
    for f in factors:
        _require(isinstance(need(f, "role"), str), '"role" must be a string', f["role"])
    for i, s in enumerate(steps):
        if "query" in s:
            _require("unitary" not in s, f'step {i} holds both "query" and "unitary"', sorted(s))
            # a tuple: unhashable JSON values compare unequal
            _require(s["query"] in tuple(mo.LETTERS), "unknown query letter", s["query"], 40)
            _ints(need(s, "targets"), "query targets")
        else:
            _ints(s.get("targets", ()), "step targets")
            if not isinstance(need(s, "unitary"), str):  # a path: checked as its file is read
                _matrix_skeleton(s["unitary"])
    if (proj := _projector(obj)) is not None:
        _ints(proj[1].get("targets", ()), "projector targets")
        if not isinstance(proj[0], str):
            _matrix_skeleton(proj[0])
    _ints(obj.get("task_out", ()), '"task_out"')
    _ints([need(obj, "d")], '"d"')
    _require(isinstance(obj.get("name", ""), str), '"name" must be a string', obj.get("name"))


def from_ir(obj, base: Path | None = None) -> mo.OracleAlgorithm:
    """Parse the circuit IR (dict, JSON string path, or Path) to a program.
    IR of the wrong shape raises ``ValueError("malformed circuit IR: ...")``.
    ``base`` is the directory that relative matrix paths in a dict are read
    from; a path's own directory takes its place.  A file's text without a
    boolean literal gives its inline matrices' entries as arrays, which
    need no scan for JSON booleans (see :func:`load_json`)."""
    if isinstance(obj, (str, Path)):
        base, obj = Path(obj).parent, load_json(obj)
    _skeleton(obj)
    layout = la.RegisterLayout(tuple((int(f["dim"]), f["role"]) for f in obj["layout"]))

    def targets(node) -> tuple[int, ...]:
        return tuple(int(t) for t in node.get("targets", range(len(layout))))

    steps = tuple(mo.QueryStep(mo.LETTERS[s["query"]], targets(s)) if "query" in s
                  else mo.FixedStep(_matrix(s["unitary"], base), targets(s)) for s in obj["steps"])
    projector = None if (proj := _projector(obj)) is None else (_matrix(proj[0], base), targets(proj[1]))
    task_out = tuple(int(t) for t in obj["task_out"]) if "task_out" in obj else None
    return mo.OracleAlgorithm(obj.get("name", "ir"), int(obj["d"]), layout, steps, projector, task_out)


# Bound last: while this module is first imported, linalg (which imports it
# for the matrix half) is not done, and model imports its program half.
from . import linalg as la, model as mo  # noqa: E402
