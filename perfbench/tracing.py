"""Span tracer for the traced run.

The tracer wraps uctrl functions at their module attribute or class method,
only in the benchmark's own process, and only while ``installed()`` is
active.  Every call records a span (name, start, end, parent) in flat
in-memory arrays; nothing is written until the run ends.  A span's self time
is its duration minus the durations of its child spans (calls are serial, so
children never overlap).

Per-layer metrics describe one set-up followed by one pass: the set-up's
spans plus the mean over the traced passes.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

KERNEL = "step kernel"
EVALUATION = "evaluation"
ROOTS = "roots"
TOPOLOGY = "topology"
CHECKERS = "model checkers"
BUILD_IO = "constructions+IR+cli"


def _factors_work(args, kwargs, result):
    """Computed from operand shapes, not counted: complex multiply-adds of
    apply_to_factors(cols, op, ...) and the bytes of its operands and result."""
    cols, op = np.shape(args[0]), np.shape(args[1])
    total, k = cols[0], (cols[1] if len(cols) > 1 else 1)
    n = op[0]
    return n * total * k, 16 * (2 * total * k + n * n)


def _loop_samples(args, kwargs, result):
    return (args[2] if len(args) > 2 else kwargs["K"]), 0


def _final_samples(args, kwargs, result):
    return result.K, 0


# (module, attribute, group, reported stats, work hook).  Group None marks a
# helper whose self time is charged to the group of its nearest traced caller
# (spectral_norm under require_unitary is kernel time, under check_exact
# checker time).
TARGETS = (
    ("linalg", "apply_to_factors", KERNEL, ("calls", "self_s", "cmacs", "bytes"), _factors_work),
    ("model", "OracleAlgorithm.apply_cols", KERNEL, ("calls", "self_s"), None),
    ("linalg", "require_unitary", KERNEL, ("calls", "self_s"), None),
    ("model", "OracleAlgorithm.eval", EVALUATION, ("calls", "self_s"), None),
    ("model", "OracleAlgorithm.task_block", EVALUATION, ("calls", "self_s"), None),
    ("linalg", "principal_root", ROOTS, ("calls", "self_s"), None),
    ("topology", "loop_trace", TOPOLOGY, ("calls", "self_s"), _loop_samples),
    ("topology", "winding", TOPOLOGY, ("samples", "sample_yield"), _final_samples),
    ("topology", "extract_h", TOPOLOGY, ("calls", "self_s"), None),
    ("topology", "bu_scan", TOPOLOGY, ("self_s",), None),
    ("topology", "sphere_grid", TOPOLOGY, ("self_s",), None),
    ("model", "check_exact", CHECKERS, ("calls", "self_s"), None),
    ("model", "pure_deviation", CHECKERS, ("calls", "self_s"), None),
    ("model", "eps_distance_estimate", CHECKERS, ("calls", "self_s"), None),
    ("linalg", "spectral_norm", None, ("calls", "self_s"), None),
    ("linalg", "trace_norm", None, ("calls", "self_s"), None),
    ("constructions", "build", BUILD_IO, ("calls", "self_s"), None),
    ("linalg", "complete_unitary", BUILD_IO, ("calls", "self_s"), None),
    ("model", "to_ir", BUILD_IO, ("self_s",), None),
    ("model", "from_ir", BUILD_IO, ("self_s",), None),
    ("linalg", "matrix_to_json", BUILD_IO, ("self_s",), None),
    ("linalg", "matrix_from_json", BUILD_IO, ("self_s",), None),
    ("model", "OracleAlgorithm.validate", BUILD_IO, ("calls", "self_s"), None),
    ("cli", "main", BUILD_IO, ("calls", "self_s"), None),
)
GROUPS = (KERNEL, EVALUATION, ROOTS, TOPOLOGY, CHECKERS, BUILD_IO)
UNITS = {"calls": "count", "self_s": "s", "cmacs": "cmac", "bytes": "B",
         "samples": "count", "sample_yield": "ratio"}

# Design intent of each workload, checked against the traced self times.
SHARE_CHECKS = {
    "probe-loop": ("step kernel holds the largest share", lambda top: top == KERNEL),
    "verify-dense": ("model checkers hold the largest share, the step kernel does not",
                     lambda top: top == CHECKERS),
    "cli-build-io": ("constructions, IR and cli together hold the largest share",
                     lambda top: top == BUILD_IO),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.names = [span_name(m, a) for m, a, *_ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.q1 = array("d")
        self.q2 = array("d")
        self._stack = [-1]

    def _wrap(self, index: int, fn, work):
        start, end, parent, name, q1, q2 = (self.start, self.end, self.parent,
                                            self.name, self.q1, self.q2)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(index)
            end.append(0.0)
            q1.append(0.0)
            q2.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                q1[idx], q2[idx] = work(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        saved = []
        try:
            for i, (mod, attr, _, _, work) in enumerate(TARGETS):
                owner = self.modules[mod]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(i, original, work))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def mark(self) -> int:
        return len(self.start)

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        return start, end, parent, name

    def summarise(self, setup_spans: int, passes: int) -> dict:
        """Per-target and per-group totals: set-up spans, and pass spans divided
        by the number of traced passes."""
        start, end, parent, name = self._arrays()
        q1 = np.frombuffer(self.q1, dtype=np.float64)
        q2 = np.frombuffer(self.q2, dtype=np.float64)
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child

        group_ids = {g: i for i, g in enumerate(GROUPS)}
        group = np.array([-1 if t[2] is None else group_ids[t[2]] for t in TARGETS],
                         dtype=np.intp)[name]
        # helpers climb towards the root until an ancestor has a group
        up = np.where(group < 0, parent, -1)
        while True:
            todo = np.nonzero((group < 0) & (up >= 0))[0]
            if not len(todo):
                break
            group[todo] = group[up[todo]]
            unresolved = todo[group[todo] < 0]
            up[unresolved] = parent[up[unresolved]]
        n_t = len(TARGETS)
        out = {}
        for scope, sel, scale in (("setup", slice(0, setup_spans), 1.0),
                                  ("pass", slice(setup_spans, None), 1.0 / max(passes, 1))):
            nm = name[sel]
            out[scope] = {
                "calls": np.bincount(nm, minlength=n_t) * scale,
                "self_s": np.bincount(nm, weights=self_t[sel], minlength=n_t) * scale,
                "q1": np.bincount(nm, weights=q1[sel], minlength=n_t) * scale,
                "q2": np.bincount(nm, weights=q2[sel], minlength=n_t) * scale,
                "group_self_s": {g: float(self_t[sel][group[sel] == i].sum()) * scale
                                 for i, g in enumerate(GROUPS)},
                "traced_s": float(self_t[sel].sum()) * scale,
            }
        return out

    def write(self, path: Path, setup_spans: int) -> None:
        start, end, parent, name = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, q1=np.frombuffer(self.q1, dtype=np.float64),
                 q2=np.frombuffer(self.q2, dtype=np.float64), setup_spans=setup_spans)


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: set-up total plus the per-pass mean."""
    both = {k: summary["setup"][k] + summary["pass"][k] for k in ("calls", "self_s", "q1", "q2")}
    index = {span_name(m, a): i for i, (m, a, *_) in enumerate(TARGETS)}
    samples = float(both["q1"][index["topology.loop_trace"]])
    final = float(both["q1"][index["topology.winding"]])
    special = {"cmacs": lambda i: both["q1"][i], "bytes": lambda i: both["q2"][i],
               "samples": lambda i: samples,
               "sample_yield": lambda i: final / samples if samples else 0.0}
    metrics = {}
    for i, (m, a, _, stats, _) in enumerate(TARGETS):
        for s in stats:
            value = special[s](i) if s in special else both[s][i]
            metrics[f"{span_name(m, a)}.{s}"] = (float(value), UNITS[s])
    return metrics


def report(workload: str, summary: dict, wall_traced: float, overhead: float) -> list[str]:
    """Human-readable per-layer table, shares of the mean traced pass time
    ``wall_traced``, and the workload's design-intent check."""
    setup, per = summary["setup"], summary["pass"]
    lines = [f"# traced run of {workload}: mean traced pass {wall_traced:.6f} s, "
             f"trace.overhead_s {overhead:.6f} s",
             f"# {'span':38s} {'calls/pass':>11s} {'self_s/pass':>12s} {'share':>7s} "
             f"{'setup calls':>11s} {'setup self_s':>12s}"]
    for i, (m, a, *_) in enumerate(TARGETS):
        lines.append(f"# {span_name(m, a):38s} {per['calls'][i]:11.1f} {per['self_s'][i]:12.6f} "
                     f"{per['self_s'][i] / wall_traced:7.1%} {setup['calls'][i]:11.0f} "
                     f"{setup['self_s'][i]:12.6f}")
    shares = {g: per["group_self_s"][g] / wall_traced for g in GROUPS}
    outside = 1.0 - per["traced_s"] / wall_traced
    lines.append("# group shares of the mean traced pass (helpers charged to their caller): " +
                 ", ".join(f"{g} {s:.1%}" for g, s in shares.items()) +
                 f", outside traced spans {outside:.1%}")
    if workload in SHARE_CHECKS:
        text, ok = SHARE_CHECKS[workload]
        top = max(shares, key=shares.get)
        lines.append(f"# design check: {text}: {'PASS' if ok(top) else 'FAIL'} (largest: {top})")
    return lines
