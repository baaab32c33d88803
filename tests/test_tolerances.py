"""Margins of the absolute tolerances at the largest programs.

``EXACT_TOL`` (1e-8) decides exact achievement and ``ABS_FLOOR`` (1e-12)
decides whether a phase witness has vanished.  These tests pin how far the
computed values sit from them at total dimension 2048 with 8 queries, at 16
queries, and on the dong probes; README "Tolerances" lists the measured
values.
"""
from __future__ import annotations

import pytest

from uctrl import constructions as co
from uctrl import linalg as la
from uctrl import model as mo
from uctrl import topology as tp

# measured worst residuals: 9.6e-16 (d = 4, m = +-8), 1.7e-15 (16 queries);
# the bound sits four orders of magnitude under EXACT_TOL
RESIDUAL_BOUND = 1e-12
# measured minimum witness modulus on the central loop: 1 for h, 1/2 for
# f+, that is 1e12 and 5e11 times ABS_FLOOR
WITNESS_FACTOR = 1e11


def worst_residual(alg, task, oracles) -> float:
    worst = 0.0
    for u in oracles:
        res = mo.check_exact(alg, task, u)
        assert res.achieved
        worst = max(worst, res.residual, res.rank_residual)
    return worst


@pytest.mark.parametrize("m", [8, -8])
def test_power_d4_residuals(m):
    alg = co.power_cUm(4, m)
    assert (alg.total_dim, alg.query_count) == (2048, 8)
    assert worst_residual(alg, mo.cum_task(4, m), la.haar_unitaries(4, 4, 880)) <= RESIDUAL_BOUND


def test_sixteen_query_residuals():
    # the builders cap |m| at 8; eight dong passes give the controlled 16th power
    base = co.dong_cUd(2)
    alg = mo.OracleAlgorithm("dong-x8", 2, base.layout, co._dong_steps(2, mo.ID) * 8)
    assert alg.query_count == 16
    assert worst_residual(alg, mo.cum_task(2, 16), la.haar_unitaries(2, 4, 881)) <= RESIDUAL_BOUND


@pytest.mark.parametrize("use_fplus", [False, True], ids=["h", "fplus"])
@pytest.mark.parametrize("d", [2, 3])
def test_dong_probe_witness_above_floor(d, use_fplus):
    rep = tp.dichotomy_probe(co.dong_cUd(d), d, d, use_fplus=use_fplus)
    assert rep.valid
    assert rep.min_abs >= WITNESS_FACTOR * tp.ABS_FLOOR
