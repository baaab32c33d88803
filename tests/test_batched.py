"""Stacked oracles: evaluating a (B, d, d) stack in one call agrees with
evaluating its oracles one at a time."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp

TOL = 1e-12


def principal_sqrt(u):
    return la.principal_root(u, 2)


# (label, factory, m of its controlled-power witness or None without a control)
PROGRAMS = [(f"{name}-{d}", lambda name=name, d=d: co.build(name, d),
             {"kitaev": 1, "dong": d, "spin-echo": d}.get(name))
            for name in co.BUILDERS for d in (2, 3)]
PROGRAMS += [
    ("power-2-4", lambda: co.build("power", 2, 4), 4),
    ("power-2--2", lambda: co.build("power", 2, -2), -2),
    ("root-composed-2", lambda: co.composed_root_cU(2, principal_sqrt), 1),
]
CONTROLLED = [p for p in PROGRAMS if p[2] is not None]


def _params(programs):
    return [pytest.param(make, m, id=label) for label, make, m in programs]


def _reference(alg, u, cols):
    """Step-by-step evaluation with linalg.apply_to_factors, which restores
    the layout's factor order after every step."""
    if isinstance(alg, co.ComposedRootEvaluator):
        return _reference(alg.inner, alg.root(u), cols)
    out = cols
    for s in alg.steps:
        op = s.op if isinstance(s, mo.FixedStep) else s.letter.apply(u)
        out = la.apply_to_factors(out, op, s.targets, alg.dims)
    if alg.projector is not None:
        out = la.apply_to_factors(out, alg.projector[0], alg.projector[1], alg.dims)
    return out


def _stacks(d: int) -> list[np.ndarray]:
    return [np.stack(la.haar_unitaries(d, 5, 4000 + d)), tp.central_loop(d, 16)]


@pytest.mark.parametrize("make,m", _params(PROGRAMS))
def test_stacked_apply_cols_matches_serial(make, m):
    alg = make()
    rng = np.random.default_rng(4100)
    n = alg.total_dim
    for us in _stacks(alg.oracle_dim):
        shared = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        per = rng.standard_normal((len(us), n, 2)) + 1j * rng.standard_normal((len(us), n, 2))
        got_block = alg.apply_cols(us, shared)
        got_col = alg.apply_cols(us, shared[:, 0])
        got_per = alg.apply_cols(us, per)
        assert got_block.shape == (len(us), n, 3) and got_col.shape == (len(us), n)
        for b, u in enumerate(us):
            np.testing.assert_allclose(got_block[b], _reference(alg, u, shared), rtol=0, atol=TOL)
            np.testing.assert_allclose(got_block[b], alg.apply_cols(u, shared), rtol=0, atol=TOL)
            np.testing.assert_allclose(got_col[b], alg.apply_cols(u, shared[:, 0]), rtol=0, atol=TOL)
            np.testing.assert_allclose(got_per[b], alg.apply_cols(u, per[b]), rtol=0, atol=TOL)
        blocks = alg.task_block(us[:2])
        for b in range(2):
            np.testing.assert_allclose(blocks[b], alg.task_block(us[b]), rtol=0, atol=TOL)


# (name, d, m): every builder at d = 2 and 3, and power(2, 4)
_DRAWN = [(name, d, None) for name in co.BUILDERS for d in (2, 3)] + [("power", 2, 4)]


# three drawn stacks per program, 45 in all: a single draw of the program
# leaves some of the fifteen out
@pytest.mark.parametrize("program", _DRAWN, ids=[f"{n}-{d}" for n, d, _ in _DRAWN])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(n_oracles=st.integers(1, 5), k=st.integers(1, 3), per_oracle=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_equals_serial_property(program, n_oracles, k, per_oracle, seed):
    alg = co.build(*program)
    rng = np.random.default_rng(seed)
    n = alg.total_dim
    us = np.stack(la.haar_unitaries(alg.oracle_dim, n_oracles, seed))
    shape = (n_oracles, n, k) if per_oracle else (n, k)
    cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = alg.apply_cols(us, cols)
    assert got.shape == (n_oracles, n, k)
    for b, u in enumerate(us):
        mine = cols[b] if per_oracle else cols
        np.testing.assert_allclose(got[b], alg.apply_cols(u, mine), rtol=0, atol=TOL)
        np.testing.assert_allclose(got[b], _reference(alg, u, mine), rtol=0, atol=TOL)


@pytest.mark.parametrize("make,m", _params(CONTROLLED))
def test_stacked_witnesses_match_scalar(make, m):
    alg = make()
    for us in _stacks(alg.oracle_dim):
        h = tp.extract_h(alg, us, m)
        f = tp.extract_fplus(alg, us, m)
        assert h.shape == f.shape == (len(us),)
        for b, u in enumerate(us):
            h1, f1 = tp.extract_h(alg, u, m), tp.extract_fplus(alg, u, m)
            assert isinstance(h1, complex) and isinstance(f1, complex)
            assert abs(h[b] - h1) <= TOL and abs(f[b] - f1) <= TOL


@pytest.mark.parametrize("label,make,m,d,K,use_fplus", [
    ("dong-2", lambda: co.dong_cUd(2), 2, 2, 32, False),
    ("dong-2-fplus", lambda: co.dong_cUd(2), 2, 2, 32, True),
    ("dong-3", lambda: co.dong_cUd(3), 3, 3, 32, False),
    ("spin-echo-3", lambda: co.spin_echo_cUd(3), 3, 3, 32, False),
    ("power-2-8", lambda: co.power_cUm(2, 8), 8, 2, 16, False),
    ("root-composed-2", lambda: co.composed_root_cU(2, principal_sqrt), 1, 2, 32, False),
])
def test_probe_matches_scalar_loop_path(label, make, m, d, K, use_fplus):
    alg = make()
    extractor = tp.extract_fplus if use_fplus else tp.extract_h
    rep = tp.dichotomy_probe(alg, m, d, K=K, use_fplus=use_fplus)
    trace = tp.winding(lambda u: extractor(alg, u, m), d, K)
    expected = tp.ProbeReport(
        m=m, d=d, K=trace.K, valid=trace.valid, winding=trace.winding,
        min_abs=trace.min_abs, jump_location=trace.jump_location,
        winding_matches_m=trace.valid and trace.winding == m,
        divisibility_ok=(not trace.valid) or trace.winding % d == 0, trace=trace).to_json()
    got = rep.to_json()
    assert abs(got.pop("min_abs") - expected.pop("min_abs")) <= TOL
    assert got == expected
    np.testing.assert_allclose(rep.trace.values, trace.values, rtol=0, atol=TOL)
    np.testing.assert_allclose(rep.trace.unwrapped, trace.unwrapped, rtol=0, atol=1e-10)


@pytest.mark.parametrize("make,m", _params(PROGRAMS))
def test_non_unitary_oracle_named_by_index(make, m):
    alg = make()
    d = alg.oracle_dim
    us = tp.central_loop(d, 16)
    us[7] *= 1.5
    with pytest.raises(ValueError, match="index 7"):
        alg.apply_cols(us, la.basis_state(alg.total_dim, 0))
    if m is not None:
        with pytest.raises(ValueError, match="index 7"):
            tp.extract_h(alg, us, m)


def test_non_unitary_single_oracle_is_index_0():
    # a single oracle is the stack of one, and is refused as that stack
    alg, bad = co.dong_cUd(2), np.diag([1, 1.5])
    for call in (alg.eval, alg.task_block,
                 lambda u: mo.pure_deviation(alg, mo.cum_task(2, 2), u)):
        with pytest.raises(ValueError, match="^oracle at index 0 is not unitary"):
            call(bad)


@pytest.mark.parametrize("make,m", _params(PROGRAMS))
def test_wrong_shapes_rejected(make, m):
    alg = make()
    d, n = alg.oracle_dim, alg.total_dim
    e0 = la.basis_state(n, 0)
    for bad in (np.eye(d + 1), np.stack([np.eye(d + 1)] * 2), np.ones((2, 2, d, d)), np.ones(d)):
        with pytest.raises(ValueError):
            alg.apply_cols(bad, e0)
    us = tp.central_loop(d, 16)
    with pytest.raises(ValueError):  # per-oracle columns for the wrong number of oracles
        alg.apply_cols(us, np.zeros((15, n, 1)))
    with pytest.raises(ValueError):  # per-oracle columns need a stack
        alg.apply_cols(us[0], np.zeros((1, n, 1)))
    with pytest.raises(ValueError):
        alg.apply_cols(us, np.zeros((n + 1, 1)))
    if m is not None:
        with pytest.raises(ValueError):
            tp.extract_h(alg, np.stack([np.eye(d + 1)] * 2), m)


@pytest.mark.parametrize("label,make,m,d", [
    ("dong-2", lambda: co.dong_cUd(2), 2, 2),
    ("spin-echo-3", lambda: co.spin_echo_cUd(3), 3, 3),
    ("root-composed-2", lambda: co.composed_root_cU(2, principal_sqrt), 1, 2),
])
def test_long_loop_sliced_gives_same_trace(monkeypatch, label, make, m, d):
    alg = make()
    K = 64
    whole_h = tp.loop_trace(lambda us: tp.extract_h(alg, us, m), d, K, stacked=True)
    whole_f = tp.loop_trace(lambda us: tp.extract_fplus(alg, us, m), d, K, stacked=True)
    calls = []
    original = type(alg).apply_cols
    monkeypatch.setattr(type(alg), "apply_cols",
                        lambda self, u, cols: calls.append(len(u)) or original(self, u, cols))
    # five oracles per slice of the two-column h witness
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 5 * 2 * alg.total_dim)
    sliced_h = tp.loop_trace(lambda us: tp.extract_h(alg, us, m), d, K, stacked=True)
    assert max(calls) == 5 and sum(calls) == K
    sliced_f = tp.loop_trace(lambda us: tp.extract_fplus(alg, us, m), d, K, stacked=True)
    for whole, sliced in ((whole_h, sliced_h), (whole_f, sliced_f)):
        np.testing.assert_array_equal(sliced.values, whole.values)
        assert (sliced.valid, sliced.winding, sliced.max_step) == (whole.valid, whole.winding,
                                                                   whole.max_step)


def test_stacked_loop_function_must_return_one_value_per_sample():
    with pytest.raises(ValueError):
        tp.loop_trace(lambda us: np.ones(len(us) - 1), 2, 16, stacked=True)


def test_central_loop_is_a_stack():
    us = tp.central_loop(3, 16)
    assert us.shape == (16, 3, 3)
    for k, u in enumerate(us):
        np.testing.assert_array_equal(u, np.exp(2j * np.pi * k / 16) * np.eye(3))


def test_bu_map_g_stack_matches_points():
    grid = tp.sphere_grid(4)
    for d in (2, 4):
        gs = tp.bu_map_g(grid.points, d)
        assert gs.shape == (len(grid), d, d)
        for x, g in zip(grid.points, gs):
            np.testing.assert_array_equal(g, tp.bu_map_g(x, d))
    pts = grid.points.copy()
    pts[3] *= 1.01
    with pytest.raises(ValueError, match="point 3"):
        tp.bu_map_g(pts, 2)
    with pytest.raises(ValueError):
        tp.bu_map_g(grid.points, 3)
    with pytest.raises(ValueError):
        tp.bu_map_g(np.ones((4, 3)) / np.sqrt(3), 2)


def test_bu_map_g_single_point_off_the_sphere_is_point_0():
    with pytest.raises(ValueError, match=r"^input must be a unit 4-vector \(point 0\)$"):
        tp.bu_map_g(np.array([1.0, 1.0, 0.0, 0.0]), 2)


def test_composed_root_evaluator_resolves_template_attributes():
    ev = co.composed_root_cU(2, principal_sqrt)
    for name in ("oracle_dim", "layout", "dims", "total_dim", "h_factors", "h_dim",
                 "out_factors", "k_out_factors"):
        assert getattr(ev, name) == getattr(ev.inner, name)
    assert ev.oracle_dim == ev.d == 2
    assert not hasattr(ev, "query_letters")
    with pytest.raises(AttributeError):
        ev.steps


def test_composed_root_probe_bit_identical_to_scalar_path():
    # the stacked probe takes the root of the whole stack, the scalar loop
    # the root of each oracle alone: they agree bit for bit
    ev = co.composed_root_cU(2, principal_sqrt)
    rep = tp.dichotomy_probe(ev, 1, 2, K=256)
    scalar = tp.loop_trace(lambda u: tp.extract_h(ev, u, 1), 2, rep.K)
    np.testing.assert_array_equal(rep.trace.values, scalar.values)


def test_composed_root_map_called_once_per_stack():
    calls = []
    ev = co.composed_root_cU(2, lambda u: calls.append(u.shape) or principal_sqrt(u))
    rep = tp.dichotomy_probe(ev, 1, 2, K=128)
    assert rep.K == 128
    assert calls == [(128, 2, 2)]


def test_single_matrix_root_map_works_vectorized():
    one_at_a_time = np.vectorize(lambda u: la.principal_root(u, 2), signature="(n,n)->(n,n)")
    ev = co.composed_root_cU(2, one_at_a_time)
    us = np.stack(la.haar_unitaries(2, 5, 4200))
    e0 = la.basis_state(ev.total_dim, 0)
    want = co.composed_root_cU(2, principal_sqrt).apply_cols(us, e0)
    np.testing.assert_allclose(ev.apply_cols(us, e0), want, rtol=0, atol=TOL)
    np.testing.assert_allclose(ev.apply_cols(us[0], e0), want[0], rtol=0, atol=TOL)


def test_composed_root_single_oracle_is_the_stack_of_one():
    # a (d, d) oracle reaches the root map as a stack of one, so every entry
    # point takes the root a stack would, bit for bit
    calls = []
    ev = co.composed_root_cU(2, lambda u: calls.append(u.shape) or principal_sqrt(u))
    rho = np.eye(ev.h_dim) / ev.h_dim
    for seed in range(5):
        u = la.haar_unitary(2, seed)
        assert np.array_equal(ev.task_block(u), ev.task_block(u[None])[0])
        assert np.array_equal(ev.eval(u), ev.eval(u[None])[0])
        mo.apply_channel(ev, u, rho)
        mo.pure_deviation(ev, mo.cum_task(2, 1), u)
    assert set(calls) == {(1, 2, 2)}


def test_composed_root_bad_root_named_by_index():
    # the identity is a square root only of the identity, sample 0 of the loop
    ev = co.composed_root_cU(2, lambda u: np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="root.*index 1"):
        ev.apply_cols(tp.central_loop(2, 16), la.basis_state(ev.total_dim, 0))


def test_composed_root_checks_a_single_oracle_before_its_root():
    calls = []
    ev = co.composed_root_cU(2, lambda u: calls.append(u.shape) or principal_sqrt(u))
    with pytest.raises(ValueError, match="^oracle at index 0 is not unitary"):
        ev.eval(np.diag([1, 1.5]))
    assert calls == []


def test_composed_root_bad_root_of_a_single_oracle_is_index_0():
    # u is no square root of the oracle 1j * Id, whose square is -Id
    with pytest.raises(ValueError, match="d-th root of the oracle at index 0$"):
        co.composed_root_cU(2, lambda u: u).eval(1j * np.eye(2))


def test_programs_without_queries_broadcast_over_the_stack():
    layout = la.RegisterLayout.of([2, 2], ["control", "task"])
    const = mo.OracleAlgorithm("constant", 2, layout, (mo.FixedStep(np.eye(4), (0, 1)),))
    out = const.apply_cols(tp.central_loop(2, 16), np.eye(4))
    assert out.shape == (16, 4, 4)
    np.testing.assert_array_equal(out, np.broadcast_to(np.eye(4), (16, 4, 4)))


def test_query_targets_checked_at_construction():
    layout = la.RegisterLayout.of([2, 2], ["control", "task"])
    for targets in ((2,), (1, 1), (-1,)):
        with pytest.raises(ValueError):
            mo.OracleAlgorithm("bad", 2, layout, (mo.QueryStep(mo.ID, targets),))


# -- stacked checkers ----------------------------------------------------------------

NAMED_TASKS = {"conjugation": mo.conjugation_task, "transpose": mo.transpose_task,
               "inverse": mo.inverse_task}


def _task(label, alg, m):
    """The task a TASKED entry targets."""
    if m is not None:
        return mo.cum_task(alg.oracle_dim, m)
    return NAMED_TASKS[label.rsplit("-", 1)[0]](alg.oracle_dim)


def _checker_oracles(d: int) -> np.ndarray:
    # Haar oracles and central-loop samples, the root's branch cut among them
    return np.concatenate([np.stack(la.haar_unitaries(d, 3, 4300 + d)),
                           tp.central_loop(d, 16)[6:10]])


def _same_result(a: mo.AchievementResult, b: mo.AchievementResult) -> bool:
    return ((a.achieved, a.phase, a.residual, a.rank_residual, a.zero_input_prob)
            == (b.achieved, b.phase, b.residual, b.rank_residual, b.zero_input_prob)
            and np.array_equal(a.garbage, b.garbage))


def _count_calls(monkeypatch, alg, name: str) -> list[int]:
    """Record the stack size of every call of the evaluator method ``name``."""
    calls = []
    original = getattr(type(alg), name)
    monkeypatch.setattr(type(alg), name,
                        lambda self, u, *cols: calls.append(len(u)) or original(self, u, *cols))
    return calls


CHECKED = [pytest.param(label, make, m, id=label) for label, make, m in PROGRAMS]
# every entry but the neutraliser, which has no task register
TASKED = [pytest.param(label, make, m, id=label) for label, make, m in PROGRAMS
          if m is not None or label.rsplit("-", 1)[0] in NAMED_TASKS]


@pytest.mark.parametrize("label,make,m", TASKED)
def test_stacked_check_exact_matches_single_calls(label, make, m):
    alg = make()
    task = _task(label, alg, m)
    us = _checker_oracles(alg.oracle_dim)
    stacked = mo.check_exact(alg, task, us)
    assert isinstance(stacked, list) and len(stacked) == len(us)
    for b, res in enumerate(stacked):
        assert _same_result(res, mo.check_exact(alg, task, us[b:b + 1])[0])
        single = mo.check_exact(alg, task, us[b])
        assert isinstance(single, mo.AchievementResult) and _same_result(res, single)


@pytest.mark.parametrize("label,make,m", TASKED)
def test_sliced_check_exact_matches_whole_stack(monkeypatch, label, make, m):
    alg = make()
    task = _task(label, alg, m)
    us = _checker_oracles(alg.oracle_dim)
    whole = mo.check_exact(alg, task, us)
    probs = mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0))
    calls = _count_calls(monkeypatch, alg, "task_block")
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 3 * mo._exact_width(alg))
    sliced = mo.check_exact(alg, task, us)
    assert calls == [3, 3, 1]
    assert all(_same_result(a, b) for a, b in zip(whole, sliced, strict=True))
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 3 * mo._prob_width(alg))
    assert mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0)) == probs
    assert calls == [3, 3, 1] * 2


@pytest.mark.parametrize("label,make,m", CHECKED)
def test_stacked_homogeneity_matches_single_calls(label, make, m):
    alg = make()
    us = _checker_oracles(alg.oracle_dim)
    lams = np.exp(2j * np.pi * np.random.default_rng(4400).random(len(us)))
    delta = m if isinstance(alg, co.ComposedRootEvaluator) else mo.static_homogeneity(
        alg.query_letters)
    stacked = mo.numeric_homogeneity_check(alg, us, lams, delta)
    assert stacked.shape == (len(us),)
    for b in range(len(us)):
        assert stacked[b] == mo.numeric_homogeneity_check(alg, us[b:b + 1], lams[b:b + 1],
                                                          delta)[0]
        single = mo.numeric_homogeneity_check(alg, us[b], lams[b], delta)
        assert isinstance(single, float) and stacked[b] == single


@pytest.mark.parametrize("label,make,m", CHECKED)
def test_sliced_homogeneity_matches_whole_stack(monkeypatch, label, make, m):
    alg = make()
    us = _checker_oracles(alg.oracle_dim)
    lams = np.exp(2j * np.pi * np.random.default_rng(4500).random(len(us)))
    whole = mo.numeric_homogeneity_check(alg, us, lams, 1)
    calls = _count_calls(monkeypatch, alg, "eval")
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 2 * alg.total_dim ** 2)
    sliced = mo.numeric_homogeneity_check(alg, us, lams, 1)
    assert calls == [2, 2, 2, 2, 2, 2, 1, 1]  # eval(lam U) and eval(U) per slice
    np.testing.assert_array_equal(sliced, whole)


def test_homogeneity_needs_one_unimodular_lambda_per_oracle():
    alg = co.dong_cUd(2)
    us = _checker_oracles(2)
    for lam in (1.0, np.ones(len(us) - 1), np.ones((len(us), 1))):
        with pytest.raises(ValueError, match="one lambda per oracle"):
            mo.numeric_homogeneity_check(alg, us, lam, 2)
    with pytest.raises(ValueError, match="one lambda per oracle"):
        mo.numeric_homogeneity_check(alg, us[0], np.ones(1), 2)
    lams = np.ones(len(us), dtype=complex)
    lams[4] = 1.1
    with pytest.raises(ValueError, match="unimodular"):
        mo.numeric_homogeneity_check(alg, us, lams, 2)


def test_check_clean_makes_one_stacked_check_exact(monkeypatch):
    alg = co.conjugation(3)
    us = la.haar_unitaries(3, 6, 4600)
    calls = []
    original = mo.check_exact
    monkeypatch.setattr(mo, "check_exact",
                        lambda alg, task, u, tol: calls.append(np.shape(u)) or original(
                            alg, task, u, tol))
    assert mo.check_clean(alg, mo.conjugation_task(3), us).clean
    assert calls == [(6, 3, 3)]


def test_check_clean_names_first_pair_not_parallel(monkeypatch):
    # unit garbage vectors at angles 0, a, a and -a with 1 - cos(a) <= tol <
    # 1 - cos(2a): every pair within angle a passes, so (1, 3) fails first,
    # ahead of (2, 3); vector 2 is vector 1 up to a phase
    a, tol = 0.4, 0.1
    garbages = [np.array([1, 0]), np.array([np.cos(a), np.sin(a)]),
                1j * np.array([np.cos(a), np.sin(a)]), np.array([np.cos(a), -np.sin(a)])]
    results = [mo.AchievementResult(True, g.astype(complex), None, 0.0, 0.0) for g in garbages]
    monkeypatch.setattr(mo, "check_exact", lambda alg, task, u, tol: results)
    res = mo.check_clean(co.conjugation(3), mo.conjugation_task(3),
                         la.haar_unitaries(3, 4, 4610), tol=tol)
    assert not res.clean and res.reason == "garbage vectors 1 and 3 are not parallel"


@pytest.mark.parametrize("label,make,m", CHECKED)
def test_sliced_check_neutralises_matches_whole_stack(monkeypatch, label, make, m):
    alg = make()
    us = _checker_oracles(alg.oracle_dim)
    whole = mo.check_neutralises(alg, us)
    calls = _count_calls(monkeypatch, alg, "apply_cols")
    monkeypatch.setattr(mo, "SLICE_ENTRIES", alg.total_dim)  # one oracle per slice
    sliced = mo.check_neutralises(alg, us)
    assert calls == [1] * len(us)
    assert sliced == whole  # every field


def test_lipschitz_check_is_one_stacked_eval(monkeypatch):
    alg = co.dong_cUd(2)
    calls = _count_calls(monkeypatch, alg, "apply_cols")
    for s in range(3):
        u, v = la.haar_unitaries(2, 2, 4620 + s)
        assert mo.lipschitz_check(alg, u, v)
    assert calls == [2, 2, 2]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_input_success_prob_from_the_exact_blocks(monkeypatch, d):
    # the sweep's success probabilities come with check_exact's results, from
    # the same blocks: bit for bit success_prob's, and no second task_block
    alg, task = co.build("dong", d), mo.cum_task(d, d)
    us = np.concatenate([np.stack(la.haar_unitaries(d, 2, 4650 + d)), tp.central_loop(d, 16)[6:9]])
    probs = mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0))
    calls = _count_calls(monkeypatch, alg, "task_block")
    results = mo.check_exact(alg, task, us)
    assert calls == [len(us)]
    assert [res.zero_input_prob for res in results] == probs


@pytest.mark.parametrize("make,m", _params(CONTROLLED))
def test_sliced_stack_names_bad_oracle_by_stack_index(monkeypatch, make, m):
    alg = make()
    d = alg.oracle_dim
    us = tp.central_loop(d, 16)
    us[7] *= 1.5
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 1)  # one oracle per slice
    for check in (lambda: tp.extract_h(alg, us, m), lambda: tp.extract_fplus(alg, us, m),
                  lambda: mo.check_exact(alg, mo.cum_task(d, m), us),
                  lambda: mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0)),
                  lambda: mo.check_neutralises(alg, us),
                  lambda: mo.numeric_homogeneity_check(alg, us, np.ones(16), m),
                  lambda: mo.eps_distance_estimate(alg, mo.cum_task(d, m), us, n_samples=1)):
        with pytest.raises(ValueError, match="index 7 "):
            check()


def _constant_circuit(d: int) -> mo.OracleAlgorithm:
    layout = la.RegisterLayout.of([2, d], ["control", "task"])
    return mo.OracleAlgorithm("constant", d, layout,
                              (mo.FixedStep(np.eye(2 * d, dtype=complex), (0, 1)),))


# every TASKED entry, and the constant circuit against c-U^1, which achieves
# it at the central-loop samples and at no Haar oracle: one stack mixes
# achievers with non-achievers, all through the one secular equation
EPS_CASES = TASKED + [pytest.param(f"constant-{d}", lambda d=d: _constant_circuit(d), 1,
                                   id=f"constant-{d}") for d in (2, 3)]


def _eps_width(alg, task, n_samples: int) -> int:
    """An oracle's eps slice width over the state family of ``n_samples``."""
    return mo._eps_width(alg, len(mo._state_family(alg, task, n_samples, 0)))


@pytest.mark.parametrize("label,make,m", EPS_CASES)
def test_stacked_eps_matches_single_calls(label, make, m):
    alg = make()
    task = _task(label, alg, m)
    us = _checker_oracles(alg.oracle_dim)
    stacked = mo.eps_distance_estimate(alg, task, us, n_samples=2)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(us),)
    for b in range(len(us)):
        assert stacked[b] == mo.eps_distance_estimate(alg, task, us[b:b + 1], n_samples=2)[0]
        # a (d, d) oracle is the stack of one, on the root map's path too
        single = mo.eps_distance_estimate(alg, task, us[b], n_samples=2)
        assert isinstance(single, float) and stacked[b] == single
    if label.startswith("constant"):
        achieved = [r.achieved for r in mo.check_exact(alg, task, us)]
        assert achieved == [False] * 3 + [True] * 4


@pytest.mark.parametrize("label,make,m", EPS_CASES)
def test_sliced_eps_matches_whole_stack(monkeypatch, label, make, m):
    alg = make()
    task = _task(label, alg, m)
    us = _checker_oracles(alg.oracle_dim)
    calls = _count_calls(monkeypatch, alg, "task_block")
    whole = mo.eps_distance_estimate(alg, task, us, n_samples=2)
    assert calls == [7]
    monkeypatch.setattr(mo, "SLICE_ENTRIES", 3 * _eps_width(alg, task, 2))
    sliced = mo.eps_distance_estimate(alg, task, us, n_samples=2)
    assert calls == [7, 3, 3, 1]
    np.testing.assert_array_equal(sliced, whole)


# each stacked checker on an empty stack, and the empty result it gives
EMPTY_STACK_CHECKS = {
    "check_exact": (lambda alg, us, m: mo.check_exact(alg, mo.cum_task(2, m), us),
                    lambda alg: []),
    "success_prob": (lambda alg, us, m: mo.success_prob(alg, us, la.basis_state(alg.h_dim, 0)),
                     lambda alg: []),
    "homogeneity": (lambda alg, us, m: mo.numeric_homogeneity_check(alg, us, np.ones(0), m),
                    lambda alg: np.empty(0)),
    "eps": (lambda alg, us, m: mo.eps_distance_estimate(alg, mo.cum_task(2, m), us),
            lambda alg: np.empty(0)),
    "extract_h": (lambda alg, us, m: tp.extract_h(alg, us, m), lambda alg: np.empty(0, complex)),
    "extract_fplus": (lambda alg, us, m: tp.extract_fplus(alg, us, m),
                      lambda alg: np.empty(0, complex)),
    "apply_cols": (lambda alg, us, m: alg.apply_cols(us, la.basis_state(alg.total_dim, 0)),
                   lambda alg: np.empty((0, alg.total_dim), complex)),
    "task_block": (lambda alg, us, m: alg.task_block(us),
                   lambda alg: np.empty((0, alg.total_dim, alg.h_dim), complex)),
}


# an empty (0, 2, 2) stack, and an empty list (shape (0,)), which is the same stack
@pytest.mark.parametrize("check", sorted(EMPTY_STACK_CHECKS))
@pytest.mark.parametrize("make,m,us", [
    pytest.param(make, m, us, id=name + suffix)
    for make, m, name in [(lambda: co.dong_cUd(2), 2, "dong-2"),
                          (lambda: co.composed_root_cU(2, principal_sqrt), 1, "root-composed-2")]
    for us, suffix in [(np.empty((0, 2, 2)), ""), ([], "-list")]
])
def test_empty_stack_gives_empty_result(make, m, us, check):
    alg = make()
    call, empty = EMPTY_STACK_CHECKS[check]
    got, want = call(alg, us, m), empty(alg)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype


# the stacked checkers whose verdict needs at least one oracle
NONEMPTY_STACK_CHECKS = {
    "check_clean": lambda us: mo.check_clean(co.dong_cUd(2), mo.cum_task(2, 2), us),
    "check_neutralises": lambda us: mo.check_neutralises(co.neutraliser_parallel(2), us),
}


@pytest.mark.parametrize("empty", [pytest.param(np.empty((0, 2, 2)), id="stack"),
                                   pytest.param([], id="list")])
@pytest.mark.parametrize("check", sorted(NONEMPTY_STACK_CHECKS))
def test_empty_stack_refused(monkeypatch, check, empty):
    # refused before any oracle is evaluated, with no numpy warning on the way
    def evaluate(*args):
        raise AssertionError("an empty stack was evaluated")

    monkeypatch.setattr(mo, "over_stack", evaluate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{check} needs at least one oracle, got an empty stack$"):
            NONEMPTY_STACK_CHECKS[check](empty)


# -- fixed steps restricted to their moved rows --------------------------------------

# every builder at d = 2, 3, and at d = 4 dong and the neutraliser, whose
# 256 x 256 steps (25 moved states) and 32 x 32 swaps (12) are restricted, and
# conjugation, whose 64 x 64 steps move 55 states and stay dense
KERNEL = [(name, d) for name in co.BUILDERS for d in (2, 3)] + [
    ("dong", 4), ("neutraliser", 4), ("conjugation", 4)]


def _is_permutation(op) -> bool:
    """Whether ``op`` is an exact 0/1 permutation matrix."""
    op = np.asarray(op)
    return bool(np.isin(op, (0, 1)).all() and (op.sum(axis=0) == 1).all()
                and (op.sum(axis=1) == 1).all())


def _zero_ancilla_inputs(alg) -> np.ndarray:
    """The columns ``task_block`` applies the program to: each task basis
    state with every ancilla at 0."""
    at_zero = tuple(slice(None) if f in alg.h_factors else 0 for f in range(len(alg.dims)))
    rows = np.arange(alg.total_dim).reshape(alg.dims)[at_zero].reshape(-1)
    return np.eye(alg.total_dim, dtype=complex)[:, rows]


@pytest.mark.parametrize("name,d", KERNEL, ids=[f"{name}-{d}" for name, d in KERNEL])
def test_plan_matches_dense_reference(name, d):
    alg = co.build(name, d)
    stages, _ = alg._plan
    # a fixed stage acts on its moved rows S exactly when 2 |S| <= n, S being
    # the indices whose row or column of the operator differs from e_i; a
    # fixed step or projector that moves nothing has no stage at all, nor
    # has a 0/1 permutation that moves at most half of its states
    ops = [s.op for s in alg.steps if isinstance(s, mo.FixedStep)]
    ops += [] if alg.projector is None else [alg.projector[0]]
    supports = []
    for op in ops:
        off = np.asarray(op) != np.eye(len(op))
        moved = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
        if not (_is_permutation(op) and 2 * len(moved) <= len(op)):
            supports.append(moved)
    supports = [s for s in supports if len(s)]
    fixed = [st for st in stages if st.letter is None]
    assert len(fixed) == len(supports)
    for st, moved in zip(fixed, supports):
        assert (st.rows is not None) == (2 * len(moved) <= st.n)
        if st.rows is not None:
            np.testing.assert_array_equal(st.rows, moved)
    n = alg.total_dim
    us = np.stack(la.haar_unitaries(d, 2, 4600 + d))
    rng = np.random.default_rng(4600 + d)
    cols = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    got, blocks = alg.apply_cols(us, cols), alg.task_block(us)
    inputs = _zero_ancilla_inputs(alg)
    for b, u in enumerate(us):
        np.testing.assert_allclose(got[b], _reference(alg, u, cols), rtol=0, atol=1e-13)
        np.testing.assert_allclose(blocks[b], _reference(alg, u, inputs), rtol=0, atol=1e-13)
    if n <= 256:  # dong d = 4's full operator would be 64 MB per oracle
        full = alg.eval(us)
        for b, u in enumerate(us):
            np.testing.assert_allclose(full[b], _reference(alg, u, np.eye(n)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["dong", "neutraliser", "kitaev", "conjugation"])
def test_restricted_stack_equals_stacks_of_one(name):
    alg = co.build(name, 4)
    n = alg.total_dim
    us = np.stack(la.haar_unitaries(4, 3, 4700))
    rng = np.random.default_rng(4700)
    cols = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    per = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
    shared, own, blocks = alg.apply_cols(us, cols), alg.apply_cols(us, per), alg.task_block(us)
    for b, u in enumerate(us):
        np.testing.assert_array_equal(shared[b], alg.apply_cols(us[b:b + 1], cols)[0])
        np.testing.assert_array_equal(shared[b], alg.apply_cols(u, cols))
        np.testing.assert_array_equal(own[b], alg.apply_cols(us[b:b + 1], per[b:b + 1])[0])
        np.testing.assert_array_equal(blocks[b], alg.task_block(us[b:b + 1])[0])
        np.testing.assert_array_equal(blocks[b], alg.task_block(u))


def test_mostly_moved_op_has_no_moved_block():
    # conjugation d = 4's 64 x 64 steps move 55 states, a Haar op all 64
    steps = [s.op for s in co.build("conjugation", 4).steps
             if isinstance(s, mo.FixedStep) and s.op.shape == (64, 64)]
    assert steps
    for op in steps + [la.haar_unitary(64, 4650)]:
        assert mo._moved_block(np.asarray(op, dtype=complex)) is None


@pytest.mark.parametrize("name,d,restricted,fixed", [
    ("dong", 2, 0, 2), ("dong", 3, 2, 2), ("neutraliser", 2, 0, 2),
    ("conjugation", 2, 0, 2), ("conjugation", 3, 0, 3), ("conjugation", 4, 0, 3)])
def test_restricted_stage_counts(name, d, restricted, fixed):
    stages = [st for st in co.build(name, d)._plan[0] if st.letter is None]
    assert (sum(st.rows is not None for st in stages), len(stages)) == (restricted, fixed)


@pytest.mark.parametrize("name,d", [("spin-echo", 2), ("spin-echo", 3), ("transpose", 2),
                                    ("transpose", 3)])
def test_identity_steps_have_no_stage(monkeypatch, name, d):
    # these programs pad with an identity step: it compiles to no stage, as
    # does every controlled swap, and the outputs are those of the plan that
    # keeps each of them as a dense product
    alg = co.build(name, d)
    ops = [s.op for s in alg.steps if isinstance(s, mo.FixedStep)]
    ops += [] if alg.projector is None else [alg.projector[0]]
    idle = sum(np.array_equal(op, np.eye(len(op))) for op in ops)
    swaps = sum(_is_permutation(op) for op in ops) - idle
    fixed = [st for st in alg._plan[0] if st.letter is None]
    assert idle and len(fixed) == len(ops) - idle - swaps
    us = np.stack(la.haar_unitaries(d, 2, 4750 + d))
    rng = np.random.default_rng(4750 + d)
    cols = rng.standard_normal((alg.total_dim, 3)) + 1j * rng.standard_normal((alg.total_dim, 3))
    got = alg.apply_cols(us, cols), alg.task_block(us), alg.apply_cols(us[0], cols[:, 0])
    monkeypatch.setattr(mo, "_moved_block", lambda op: None)
    dense = co.build(name, d)
    assert len(dense._plan[0]) == len(alg._plan[0]) + idle + swaps
    want = dense.apply_cols(us, cols), dense.task_block(us), dense.apply_cols(us[0], cols[:, 0])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert not np.shares_memory(g, cols)


def test_restricted_first_stage_leaves_cols_alone():
    # the neutraliser's first step acts on every factor in layout order, so
    # the state it updates in place is a view of the caller's columns
    alg = co.build("neutraliser", 4)
    first = alg._plan[0][0]
    assert first.src is None and first.rows is not None
    us = np.stack(la.haar_unitaries(4, 2, 4800))
    rng = np.random.default_rng(4800)
    n = alg.total_dim
    for shape in ((n,), (n, 3), (2, n, 3)):
        cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = cols.copy()
        out = alg.apply_cols(us, cols)
        np.testing.assert_array_equal(cols, before)
        assert not np.shares_memory(out, cols)
    eye = np.eye(n, dtype=complex)
    alg.apply_cols(us[0], eye)
    np.testing.assert_array_equal(eye, np.eye(n))


@pytest.mark.parametrize("dropped", ["extra-3", "task-0-extra-0"])
def test_restricted_projector_keeps_check_exact_verdicts(monkeypatch, dropped):
    # dong d = 2 with one more, idle, 4-state ancilla, postselected on its
    # task and ancilla factors (32 states) by a projector that drops 8
    # unreached states (achieved) or 2 reached ones (not achieved); the
    # all-dense plan is the reference
    base = co.build("dong", 2)
    layout = la.RegisterLayout(base.layout.factors + ((4, "extra"),))
    t, _, _, e = np.unravel_index(np.arange(32), layout.dims[1:])
    drop = (e == 3) if dropped == "extra-3" else (t == 0) & (e == 0)
    proj = (np.diag((~drop).astype(complex)), (1, 2, 3, 4))

    def program():
        return mo.OracleAlgorithm("dong-post", 2, layout, base.steps, projector=proj)

    alg = program()
    assert alg._plan[0][-1].rows is not None
    monkeypatch.setattr(mo, "_moved_block", lambda op: None)
    dense = program()
    assert all(st.rows is None for st in dense._plan[0])
    task, us = mo.cum_task(2, 2), np.stack(la.haar_unitaries(2, 3, 4900))
    got, want = mo.check_exact(alg, task, us), mo.check_exact(dense, task, us)
    assert [r.achieved for r in got] == [r.achieved for r in want]
    assert [r.achieved for r in got] == [dropped == "extra-3"] * 3
    for r, w in zip(got, want):
        assert (r.phase is None) == (w.phase is None)
        np.testing.assert_allclose([r.residual, r.rank_residual, r.phase or 0.0],
                                   [w.residual, w.rank_residual, w.phase or 0.0],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(r.garbage, w.garbage, rtol=0, atol=1e-13)


# -- permutation steps folded into the gathers ---------------------------------------


@pytest.mark.parametrize("name,d,m,stages", [
    ("dong", 2, None, 4), ("dong", 3, None, 5), ("dong", 4, None, 6),
    ("spin-echo", 3, None, 7), ("power", 2, 8, 16), ("kitaev", 2, None, 1)])
def test_permutation_steps_fold(name, d, m, stages):
    # every controlled swap folds away; the other fixed steps keep their rule
    alg = co.build(name, d, m)
    assert len(alg._plan[0]) == stages
    assert alg._plan[1] is not None


def _permutation_op(rng, n: int, phases: bool) -> np.ndarray:
    """A permutation of between 2 and n // 2 of n basis states, the others
    fixed; with ``phases``, each moved entry is -1, +-i or a phase instead
    of 1, so the step is monomial but no 0/1 permutation."""
    moved = rng.choice(n, size=rng.integers(2, n // 2 + 1), replace=False)
    src = np.arange(n)
    src[moved] = np.roll(moved, 1)
    op = np.eye(n, dtype=complex)[src]
    if phases:
        entries = np.array([-1, 1j, -1j, np.exp(1j * rng.uniform(0.1, 6.2))])
        op[moved, src[moved]] = rng.choice(entries, size=len(moved))
    return op


class TestRandomPrograms:
    """Seeded random programs on mixed factor dimensions: 0/1 permutations,
    which fold into the gathers, beside signed or phased permutations, which
    stay restricted stages, dense steps and both query letters, checked
    against the step-by-step ``linalg.apply_to_factors`` reference."""

    KINDS = ("perm", "phased", "dense", "id", "inv")

    @staticmethod
    def program(rng, kinds) -> tuple[mo.OracleAlgorithm, dict]:
        """The program of steps of ``kinds`` in order on 3 or 4 factors of
        dimension 2 or 3, and the number of steps of each kind.  Permutation
        steps act on 2 or 3 factors, so they move at most half their states."""
        dims = [int(x) for x in rng.choice([2, 3], size=rng.integers(3, 5))]
        dims[0] = 2  # the oracle acts on any factor of dimension dims[0]
        qudits = [f for f, n in enumerate(dims) if n == dims[0]]
        steps = []
        for kind in kinds:
            if kind in ("id", "inv"):
                steps.append(mo.QueryStep(mo.LETTERS[kind], (int(rng.choice(qudits)),)))
                continue
            size = rng.integers(2, 4) if kind != "dense" else rng.integers(1, 4)
            targets = tuple(int(f) for f in rng.permutation(len(dims))[:size])
            n = math.prod(dims[f] for f in targets)
            op = (la.haar_unitary(n, int(rng.integers(2 ** 16))) if kind == "dense"
                  else _permutation_op(rng, n, kind == "phased"))
            steps.append(mo.FixedStep(op, targets))
        layout = la.RegisterLayout.of(dims, ["task"] + ["anc"] * (len(dims) - 1))
        alg = mo.OracleAlgorithm("random", dims[0], layout, tuple(steps))
        return alg, {kind: list(kinds).count(kind) for kind in TestRandomPrograms.KINDS}

    @staticmethod
    def check(alg, seed: int) -> None:
        """``apply_cols`` matches the reference to 1e-13 on a column, a
        shared block and per-oracle blocks; never writes or returns ``cols``;
        and a single oracle is bit-identical to the stack of one."""
        rng = np.random.default_rng(seed)
        us = np.stack(la.haar_unitaries(alg.oracle_dim, 2, seed))
        n = alg.total_dim
        for shape in ((n,), (n, 3), (2, n, 3)):
            cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            before = cols.copy()
            out = alg.apply_cols(us, cols)
            np.testing.assert_array_equal(cols, before)
            assert not np.shares_memory(out, cols)
            for b, u in enumerate(us):
                own = cols[b] if cols.ndim == 3 else cols
                np.testing.assert_allclose(out[b], _reference(alg, u, own), rtol=0, atol=1e-13)
                one = alg.apply_cols(u, own)
                assert not np.shares_memory(one, own)
                np.testing.assert_array_equal(one, alg.apply_cols(u[None], own)[0])

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_steps=st.integers(1, 8), last_perm=st.booleans())
    def test_matches_reference(self, seed, n_steps, last_perm):
        rng = np.random.default_rng(seed)
        kinds = list(rng.choice(self.KINDS, size=n_steps)) + (["perm"] if last_perm else [])
        alg, count = self.program(rng, kinds)
        stages, final = alg._plan
        # one stage per query, dense step and phased permutation, and the
        # phased ones restricted to the rows they move
        fixed = [s for s in stages if s.letter is None]
        assert len(stages) == count["id"] + count["inv"] + count["dense"] + count["phased"]
        assert sum(s.rows is not None for s in fixed) == count["phased"]
        if last_perm:  # the last step is a permutation: the final gather applies it
            assert final is not None
        self.check(alg, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_only_permutations(self, seed):
        # no stage, but the program is not the identity: the final gather is it
        rng = np.random.default_rng(4950 + seed)
        alg, _ = self.program(rng, ["perm"] * (1 + seed % 3))
        stages, final = alg._plan
        assert stages == () and final is not None
        cols = np.eye(alg.total_dim, dtype=complex)
        assert not np.array_equal(alg.apply_cols(la.haar_unitary(2, seed), cols), cols)
        self.check(alg, 4950 + seed)
