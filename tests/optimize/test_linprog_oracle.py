"""Every LP family solved both ways: the direct HiGHS call and linprog.

:meth:`LinearProgram.solve` hands HiGHS the model and the options that
``scipy.optimize.linprog(method="highs")`` would, so both must return
the *same* vertex — ``np.array_equal`` on ``x``, ``==`` on the
objective, equal status — not merely the same optimum.  The solvers'
LPs are captured as they are solved, on small rooms, so every family
in the library is checked at the state it is solved in (the zonal
master at each cut round).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core import solve_baseline, three_stage_assignment
from repro.core.minpower import minimize_power
from repro.core.stage1_zonal import solve_stage1_zonal
from repro.core.stage3_power import solve_stage3_power_aware
from repro.experiments import PAPER_SET_1, generate_scenario, scaled_down
from repro.optimize.linprog import InfeasibleError, LinearProgram, LPSolution
from repro.power.taskpower import TaskPowerModel
from repro.thermal.constraints import ThermalLinearization


def _linprog_solution(lp: LinearProgram
                      ) -> tuple[np.ndarray, float, int, str]:
    """``(x, objective, status, message)`` of ``lp`` solved by
    ``linprog``."""
    c = np.asarray(lp._obj, dtype=float)
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lp._lb, lp._ub]), method="highs")
    if not res.success:
        return (np.full(lp.num_variables, np.nan), np.nan, int(res.status),
                res.message)
    obj = float(res.fun)
    return (np.asarray(res.x, dtype=float), -obj if lp.maximize else obj,
            int(res.status), res.message)


def _assert_matches_linprog(lp: LinearProgram, sol: LPSolution) -> int:
    """Assert ``sol`` is what ``linprog`` gives for ``lp``; its status."""
    x, obj, status, _ = _linprog_solution(lp)
    assert sol.status == status, (lp.name, sol.status, status)
    assert np.array_equal(sol.x, x, equal_nan=True), lp.name
    assert sol.objective == obj or (np.isnan(sol.objective)
                                    and np.isnan(obj)), lp.name
    return status


@pytest.fixture
def solved(monkeypatch):
    """Names of the LPs solved while the test runs, each checked
    against ``linprog`` at the moment it is solved."""
    names = []
    solve = LinearProgram._solve

    def both_ways(lp, require_feasible):
        got = solve(lp, False)
        status = _assert_matches_linprog(lp, got)
        names.append(lp.name)
        if status != 0 and require_feasible:
            raise InfeasibleError(f"LP '{lp.name}' failed (status {status})")
        return got

    monkeypatch.setattr(LinearProgram, "_solve", both_ways)
    return names


@pytest.fixture(scope="module")
def room():
    return generate_scenario(scaled_down(PAPER_SET_1, 8), 11)


class TestFamilies:
    def test_interference(self, solved):
        generate_scenario(scaled_down(PAPER_SET_1, 8), 11)
        assert "interference-feasibility" in solved

    def test_baseline(self, solved, room):
        solve_baseline(room.datacenter, room.workload, room.p_const)
        assert "baseline" in solved

    def test_stage1_and_stage3(self, solved, room):
        three_stage_assignment(room.datacenter, room.workload, room.p_const,
                               psi=50.0)
        assert {"stage1", "stage3"} <= set(solved)

    def test_stage3_power_aware(self, solved, room):
        dc, wl = room.datacenter, room.workload
        plan = three_stage_assignment(dc, wl, room.p_const, psi=50.0)
        lin = ThermalLinearization.build(dc.thermal, plan.t_crac_out,
                                         dc.redline_c)
        heavy = TaskPowerModel(factors=np.full(wl.n_task_types, 1.15),
                               idle_fraction=0.6)
        solve_stage3_power_aware(dc, wl, plan.pstates, heavy, lin,
                                 room.p_const)
        assert "stage3-power-aware" in solved

    def test_minpower(self, solved, room):
        plan = three_stage_assignment(room.datacenter, room.workload,
                                      room.p_const, psi=50.0)
        minimize_power(room.datacenter, room.workload,
                       0.5 * plan.reward_rate)
        assert "minpower" in solved

    def test_zonal_with_cut_rounds(self, solved):
        sc = generate_scenario(scaled_down(PAPER_SET_1, 20), 1004)
        solve_stage1_zonal(sc.datacenter, sc.workload, p_const=sc.p_const,
                           t_crac_out=np.full(3, 16.0))
        assert "stage1_zone" in solved
        # two cut rounds: the master is solved three times
        assert solved.count("stage1_zonal_master") == 3

    def test_infeasible_zonal_master(self, solved):
        sc = generate_scenario(scaled_down(PAPER_SET_1, 20), 1000)
        with pytest.raises(InfeasibleError, match="stage1_zonal_master"):
            solve_stage1_zonal(sc.datacenter, sc.workload, p_const=sc.p_const,
                               t_crac_out=np.full(3, 20.0))
        assert solved[-1] == "stage1_zonal_master"


@st.composite
def _random_lp(draw) -> tuple[LinearProgram, str]:
    """A small LP with mixed ``<=``/``==`` rows and its kind: ``"any"``
    (which may still be infeasible or unbounded), ``"infeasible"`` (two
    crossed rows) or ``"unbounded"`` (a free improving column)."""
    kind = draw(st.sampled_from(["any", "any", "infeasible", "unbounded"]))
    n = draw(st.integers(1, 6))
    m_le = draw(st.integers(0, 5))
    m_eq = draw(st.integers(0, 3))
    coeff = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 0.25])
    maximize = draw(st.booleans())
    lp = LinearProgram(name="random", maximize=maximize)
    lb = draw(st.lists(st.sampled_from([0.0, -1.0, -np.inf]),
                       min_size=n, max_size=n))
    ub = [draw(st.sampled_from([lo + 2.0, lo + 5.0, np.inf])) for lo in lb]
    obj = draw(st.lists(coeff, min_size=n, max_size=n))
    if kind == "unbounded":
        lb, ub, obj = lb + [0.0], ub + [np.inf], obj + [1.0 if maximize
                                                       else -1.0]
    lp.add_variables(len(obj), lb=lb, ub=ub, objective=obj)
    for rows, add in ((m_le, lp.add_le_rows), (m_eq, lp.add_eq_rows)):
        if rows:
            a = np.array(draw(st.lists(coeff, min_size=rows * n,
                                       max_size=rows * n))).reshape(rows, n)
            b = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 3.5]),
                              min_size=rows, max_size=rows))
            add(np.pad(a, ((0, 0), (0, len(obj) - n))), b)
    if kind == "infeasible":
        crossed = np.zeros((2, len(obj)))
        crossed[:, 0] = [1.0, -1.0]             # x0 <= -1 and x0 >= 1
        lp.add_le_rows(crossed, [-1.0, -1.0])
    return lp, kind


class TestRandomPrograms:
    @given(case=_random_lp())
    @settings(max_examples=150, deadline=None)
    def test_same_vertex_and_status(self, case):
        lp, kind = case
        status = _assert_matches_linprog(lp, lp.solve(require_feasible=False))
        assert kind == "any" or status != 0

    @given(case=_random_lp())
    @settings(max_examples=40, deadline=None)
    def test_require_feasible_raises_exactly_when_linprog_fails(self, case):
        lp, _ = case
        _, _, status, message = _linprog_solution(lp)
        if status == 0:
            _assert_matches_linprog(lp, lp.solve())
        else:
            with pytest.raises(InfeasibleError) as err:
                lp.solve()
            assert str(err.value) == \
                f"LP 'random' failed: {message} (status {status})"
