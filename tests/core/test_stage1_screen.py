"""Stage 1 screens its probes warm and commits cold, bit for bit.

:func:`repro.core.stage1.solve_stage1` scores outlet probes on one
warm-started HiGHS model per search and re-solves cold only the winner,
the sides of near ties and the probes whose warm score could depend on
the vertex.  Every case here compares it with the per-probe cold search
of :mod:`tests.core.stage1_oracle` by ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import stage1 as stage1_mod
from repro.core.stage1 import _OutletProbes, build_arr_functions, solve_stage1
from repro.core.warmstart import WarmContext
from repro.experiments import (PAPER_SET_1, PAPER_SET_3, generate_scenario,
                               scaled_down)
from repro.kernels import vectorized
from repro.optimize import search as search_mod
from repro.optimize.linprog import LoadedProgram
from repro.thermal.constraints import ThermalLinearization

from .stage1_oracle import solve_stage1_cold

SETS = {"1": PAPER_SET_1, "3": PAPER_SET_3}

#: ``plan``'s cap ladder, as fractions of ``Pmax - Pmin`` above ``Pmin``
LADDER = tuple(np.linspace(0.2, 1.0, 8))

_ROOMS: dict = {}


def _room(paper_set: str, n_nodes: int, seed: int):
    key = (paper_set, n_nodes, seed)
    if key not in _ROOMS:
        _ROOMS[key] = generate_scenario(
            scaled_down(SETS[paper_set], n_nodes), seed)
    return _ROOMS[key]


def _cap(scenario, fraction: float) -> float:
    b = scenario.bounds
    return float(b.p_min + fraction * (b.p_max - b.p_min))


def _counts(snapshot: dict) -> dict[str, int]:
    return {name: int(value["value"]) for name, value in snapshot.items()
            if name.startswith(("lp.solves.stage1", "lp.warm_solves.stage1",
                                "lp.warm_hits.stage1", "stage1.",
                                "search."))}


def _solve_both(dc, wl, *, warm_of=lambda: None, **kwargs):
    """``(new, oracle, new_counts)``: both searches, each with its own
    fresh warm context from ``warm_of``."""
    new_warm, old_warm = warm_of(), warm_of()
    obs.reset()
    obs.enable()
    try:
        new = solve_stage1(dc, wl, warm=new_warm, **kwargs)
        counts = _counts(obs.current_registry().snapshot())
    finally:
        obs.disable()
        obs.reset()
    old = solve_stage1_cold(dc, wl, warm=old_warm, **kwargs)
    return (new, new_warm), (old, old_warm), counts


def _assert_same(new, old):
    (sol, res), new_warm = new
    (ref, ref_res), old_warm = old
    assert sol.t_crac_out.tobytes() == ref.t_crac_out.tobytes()
    assert sol.objective == ref.objective
    assert sol.core_power_kw.tobytes() == ref.core_power_kw.tobytes()
    assert sol.node_power_kw.tobytes() == ref.node_power_kw.tobytes()
    assert res.temperatures.tobytes() == ref_res.temperatures.tobytes()
    assert res.score == ref_res.score
    assert res.evaluations == ref_res.evaluations
    if new_warm is not None:
        # the winner's LP vertex, as both searches cached it
        key = next(k for k in old_warm.lp_cache
                   if k.endswith(ref.t_crac_out.tobytes().hex()))
        assert new_warm.lp_cache[key].x.tobytes() == \
            old_warm.lp_cache[key].x.tobytes()
        assert new_warm.lp_cache[key].objective == \
            old_warm.lp_cache[key].objective


def _ctx():
    return WarmContext(stage1_key="k")


@pytest.mark.parametrize("paper_set, n_nodes, seed, fractions", [
    ("1", 12, 3, LADDER),
    ("3", 12, 8, LADDER),
    ("1", 60, 2, LADDER[::2]),
    ("3", 60, 4, LADDER[1::2]),
    ("1", 100, 1, LADDER),
    ("3", 150, 1, (LADDER[0], LADDER[-1])),
])
def test_cap_ladder_matches_cold_oracle(paper_set, n_nodes, seed, fractions):
    sc = _room(paper_set, n_nodes, seed)
    for fraction in (0.1, *fractions):
        new, old, counts = _solve_both(sc.datacenter, sc.workload,
                                       warm_of=_ctx,
                                       p_const=_cap(sc, fraction))
        _assert_same(new, old)
        assert counts.get("stage1.screen_disagreements", 0) == 0
        # one cold solve per search commits the winner; the rest is warm
        assert counts["stage1.cold_commits"] >= 1
        assert counts["lp.warm_solves.stage1"] > 0


def test_no_feasible_outlet_raises_as_the_oracle_does():
    sc = _room("1", 12, 3)
    cap = _cap(sc, 0.0)
    with pytest.raises(RuntimeError, match="no feasible") as ref:
        solve_stage1_cold(sc.datacenter, sc.workload, p_const=cap)
    with pytest.raises(RuntimeError) as new:
        solve_stage1(sc.datacenter, sc.workload, p_const=cap)
    assert str(new.value) == str(ref.value)


def test_full_search_matches_cold_oracle():
    # the product grid reaches probes that fail the base-power test
    sc = _room("1", 12, 3)
    new, old, counts = _solve_both(sc.datacenter, sc.workload, warm_of=_ctx,
                                   p_const=_cap(sc, 0.6), search="full")
    _assert_same(new, old)
    assert counts["stage1.cold_fallbacks"] > 0


def test_disabled_nodes_match_cold_oracle():
    sc = _room("1", 60, 2)
    disabled = np.zeros(sc.datacenter.n_nodes, dtype=bool)
    disabled[::4] = True
    for fraction in (0.2, 0.6):
        new, old, _ = _solve_both(sc.datacenter, sc.workload, warm_of=_ctx,
                                  p_const=_cap(sc, fraction),
                                  disabled_nodes=disabled)
        _assert_same(new, old)


@pytest.mark.parametrize("shift", [0.0, 2.0, -3.0])
def test_seeded_descent_matches_cold_oracle(shift):
    sc = _room("1", 60, 2)
    cap = _cap(sc, 0.5)
    ref, _ = solve_stage1_cold(sc.datacenter, sc.workload, p_const=cap)
    seed = ref.t_crac_out + shift
    seed[0] -= shift

    def seeded():
        return WarmContext(stage1_key="k", seed_t=seed.copy())

    new, old, _ = _solve_both(sc.datacenter, sc.workload, warm_of=seeded,
                              p_const=cap)
    _assert_same(new, old)


def test_lp_cache_replay_equals_cold():
    """A second search on the same context replays every probe (cold
    solutions from ``lp_cache``, warm scores from ``screen_cache``)
    and solves no LP, warm or cold; both equal the oracle."""
    sc = _room("1", 100, 1)
    cap = _cap(sc, LADDER[3])
    ctx = _ctx()
    first = solve_stage1(sc.datacenter, sc.workload, p_const=cap, warm=ctx)
    assert all(v is None or v.x.size for v in ctx.lp_cache.values())
    obs.reset()
    obs.enable()
    try:
        again = solve_stage1(sc.datacenter, sc.workload, p_const=cap,
                             warm=ctx)
        counts = _counts(obs.current_registry().snapshot())
    finally:
        obs.disable()
        obs.reset()
    assert "lp.solves.stage1" not in counts
    assert "lp.warm_solves.stage1" not in counts
    assert counts["lp.warm_hits.stage1"] > 0
    ref_ctx = _ctx()
    ref = solve_stage1_cold(sc.datacenter, sc.workload, p_const=cap,
                            warm=ref_ctx)
    _assert_same((first, ctx), (ref, ref_ctx))
    _assert_same((again, ctx), (ref, ref_ctx))


def test_near_ties_are_decided_cold(monkeypatch):
    """With a band wider than any objective gap, every comparison
    between feasible probes is a near tie: both sides are solved cold
    and compared on their cold objectives."""
    monkeypatch.setattr(search_mod, "SCREEN_DELTA", 1e9)
    sc = _room("1", 60, 2)
    new, old, counts = _solve_both(sc.datacenter, sc.workload, warm_of=_ctx,
                                   p_const=_cap(sc, 0.5))
    _assert_same(new, old)
    assert counts["search.near_ties"] > 0
    # every warm-screened probe the search compared got a cold solve
    assert counts["stage1.cold_commits"] == counts["lp.warm_solves.stage1"]


def test_warm_score_off_by_less_than_half_the_band_changes_nothing(
        monkeypatch):
    real = LoadedProgram.objective
    offsets = iter(np.tile([4e-7, -4e-7, 0.0], 200))

    def off(self):
        value = real(self)
        return None if value is None else \
            value + next(offsets) * max(1.0, abs(value))

    monkeypatch.setattr(LoadedProgram, "objective", off)
    sc = _room("1", 100, 1)
    for fraction in (0.2, 0.8):
        new, old, counts = _solve_both(sc.datacenter, sc.workload,
                                       warm_of=_ctx,
                                       p_const=_cap(sc, fraction))
        _assert_same(new, old)
        assert counts.get("stage1.screen_disagreements", 0) == 0


def test_probe_failing_base_validity_is_solved_cold(monkeypatch):
    """With every probe failing the all-cores-off CRAC test, the search
    solves each LP probe cold and none warm, and still equals the
    oracle."""
    monkeypatch.setattr(stage1_mod, "_BASE_VALIDITY_MARGIN", 1e3)
    sc = _room("1", 60, 2)
    new, old, counts = _solve_both(sc.datacenter, sc.workload, warm_of=_ctx,
                                   p_const=_cap(sc, 0.5))
    _assert_same(new, old)
    assert "lp.warm_solves.stage1" not in counts
    assert counts["stage1.cold_fallbacks"] == counts["lp.solves.stage1"]


def test_inlet_below_outlet_at_base_goes_cold():
    """An outlet vector whose CRAC inlet sits below its outlet with all
    cores off gets no warm score: its probe is solved cold."""
    sc = _room("1", 12, 3)
    dc = sc.datacenter
    arrs = build_arr_functions(dc, sc.workload, 50.0)
    cop = vectorized.wrap_cop(dc.cracs[0].cop_model)
    lo = dc.cracs[0].outlet_range_c[0]

    def lin_of(t_vec):
        return ThermalLinearization.build(dc.thermal, t_vec, dc.redline_c,
                                          cop)

    # one CRAC 3 K hotter than the others: the cold air of the rest
    # reaches its inlet
    t_vec = np.full(dc.n_crac, float(lo))
    t_vec[-1] += 3.0
    lin = lin_of(t_vec)
    assert stage1_mod._at_base(dc, lin, _cap(sc, 1.0)) is not None
    t_in = lin.inlet_temperatures(dc.node_base_power)[:dc.n_crac]
    assert t_in[-1] < t_vec[-1] - 1e-6
    probes = _OutletProbes(dc, arrs, lin_of, _cap(sc, 1.0), None,
                           stage1_mod._node_segments(dc, arrs), None, None,
                           "")
    with obs.capture() as snapshot:
        probes.screen(t_vec)
    counts = _counts(snapshot()["metrics"])
    assert counts["stage1.cold_fallbacks"] == 1
    assert "lp.warm_solves.stage1" not in counts
    assert t_vec.tobytes() in probes.solutions
