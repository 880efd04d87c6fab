"""The array-built LPs equal the one-dict-per-row assembly, entry for entry.

The baseline (Eq. 21), Stage 3, power-aware Stage 3 and the min-power
LP were first assembled one variable and one ``{var: coeff}`` row at a
time.  The oracles below keep that loop assembly; each test captures the
:class:`LinearProgram` a solver hands to HiGHS and checks that its
objective, bounds and ``matrices()`` are *equal* to the oracle's — not
close: goldens compare at rel 1e-6, which cannot see a coefficient move
by one ulp.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core import baseline, minpower, stage3, stage3_power
from repro.core.assignment import three_stage_assignment
from repro.core.stage1 import _node_segments, build_arr_functions
from repro.experiments import (PAPER_SET_1, PAPER_SET_3, generate_scenario,
                               scaled_down)
from repro.optimize.linprog import LinearProgram
from repro.power.taskpower import TaskPowerModel
from repro.thermal.constraints import ThermalLinearization
from tests.conftest import dict_rows


class _Oracle:
    """A program written down one variable and one dict row at a time."""

    def __init__(self):
        self.obj, self.lb, self.ub = [], [], []
        self.le, self.eq = [], []

    def var(self, lb, ub, objective):
        self.obj.append(float(objective))
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        return len(self.obj) - 1

    def add_le(self, coeffs, rhs):
        self.le.append((dict(coeffs), float(rhs)))

    def add_ge(self, coeffs, rhs):
        self.add_le({i: -v for i, v in coeffs.items()}, -rhs)


def _matrix(rows, n_vars):
    if not rows:
        return None, None
    a, b = dict_rows(rows, n_vars)
    a.eliminate_zeros()          # a zero coefficient was never stored
    return a, b


def _assert_same_program(lp, oracle):
    n = lp.num_variables
    assert n == len(oracle.obj)
    assert np.array_equal(np.asarray(lp._obj), oracle.obj)
    assert np.array_equal(np.asarray(lp._lb), oracle.lb)
    assert np.array_equal(np.asarray(lp._ub), oracle.ub)
    got = lp.matrices()
    want = (*_matrix(oracle.le, n), *_matrix(oracle.eq, n))
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        elif sparse.issparse(w):
            g = g.tocsr()
            g.sort_indices()
            w.sort_indices()
            assert g.shape == w.shape
            assert np.array_equal(g.indptr, w.indptr)
            assert np.array_equal(g.indices, w.indices)
            assert np.array_equal(g.data, w.data)
        else:
            assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# The loop assemblies.

def _baseline_oracle(datacenter, workload, lin, p_const):
    base = datacenter.node_base_power
    gain = lin.inlet_gain
    base_inlet_load = gain @ base
    base_total = float(base.sum()) + lin.crac_const \
        + float(lin.crac_coeff @ base)
    t_count = workload.n_task_types
    n_nodes = datacenter.n_nodes
    ecs0 = workload.ecs[:, :, 0]
    n_cores = np.asarray([n.n_cores for n in datacenter.nodes], dtype=float)
    p0 = np.asarray([n.spec.p0_power_kw for n in datacenter.nodes])
    type_of = datacenter.node_type_index

    lp = _Oracle()
    var = np.full((t_count, n_nodes), -1, dtype=int)
    for j in range(n_nodes):
        jt = type_of[j]
        for i in range(t_count):
            speed = float(ecs0[i, jt])
            if speed <= 0.0:
                continue
            if 1.0 / speed > float(workload.deadline_slack[i]):
                continue
            reward = float(workload.rewards[i]) * speed * n_cores[j]
            var[i, j] = lp.var(0.0, 1.0, reward)
    for j in range(n_nodes):
        coeffs = {var[i, j]: 1.0 for i in range(t_count) if var[i, j] >= 0}
        if coeffs:
            lp.add_le(coeffs, 1.0)
    for i in range(t_count):
        coeffs = {var[i, j]: float(n_cores[j] * ecs0[i, type_of[j]])
                  for j in range(n_nodes) if var[i, j] >= 0}
        if coeffs:
            lp.add_le(coeffs, float(workload.arrival_rates[i]))
    node_core_coeff = p0 * n_cores
    power_coeffs = {}
    for j in range(n_nodes):
        w = float((1.0 + lin.crac_coeff[j]) * node_core_coeff[j])
        for i in range(t_count):
            if var[i, j] >= 0:
                power_coeffs[var[i, j]] = w
    lp.add_le(power_coeffs, p_const - base_total)
    rhs_redline = lin.redline_rhs - base_inlet_load
    for u in range(gain.shape[0]):
        coeffs = {}
        for j in range(n_nodes):
            w = float(gain[u, j] * node_core_coeff[j])
            if w == 0.0:
                continue
            for i in range(t_count):
                if var[i, j] >= 0:
                    coeffs[var[i, j]] = w
        if coeffs:
            lp.add_le(coeffs, float(rhs_redline[u]))
    return lp


def _class_oracle(datacenter, workload, pstates):
    """Stage 3's classes, variables and Constraints 1/3."""
    eta = workload.n_pstates
    t_count = workload.n_task_types
    class_id = datacenter.core_type * eta + pstates
    present = np.unique(class_id)
    class_count = np.asarray([(class_id == c).sum() for c in present])
    class_key = [(int(c // eta), int(c % eta)) for c in present]
    n_classes = present.size
    lp = _Oracle()
    var = np.full((t_count, n_classes), -1, dtype=int)
    for g, (jtype, k) in enumerate(class_key):
        for i in range(t_count):
            if workload.ecs[i, jtype, k] <= 0.0:
                continue
            if not workload.can_meet_deadline(i, jtype, k):
                continue
            var[i, g] = lp.var(0.0, np.inf, float(workload.rewards[i]))
    for g, (jtype, k) in enumerate(class_key):
        coeffs = {}
        for i in range(t_count):
            if var[i, g] >= 0:
                coeffs[var[i, g]] = 1.0 / float(workload.ecs[i, jtype, k])
        if coeffs:
            lp.add_le(coeffs, float(class_count[g]))
    for i in range(t_count):
        coeffs = {var[i, g]: 1.0 for g in range(n_classes) if var[i, g] >= 0}
        if coeffs:
            lp.add_le(coeffs, float(workload.arrival_rates[i]))
    return lp, var, present, class_id, class_count, class_key


def _stage3_power_oracle(datacenter, workload, pstates, task_power, lin,
                         p_const):
    t_count = workload.n_task_types
    nominal = np.empty(datacenter.n_cores)
    for t, spec in enumerate(datacenter.node_types):
        mask = datacenter.core_type == t
        nominal[mask] = np.asarray(spec.pstate_power_kw)[pstates[mask]]
    idle_core = task_power.idle_fraction * nominal
    idle_node = datacenter.node_base_power + np.bincount(
        datacenter.core_node, weights=idle_core,
        minlength=datacenter.n_nodes)
    idle_total = idle_node.sum() + lin.crac_power(idle_node)
    lp, var, present, class_id, class_count, class_key = _class_oracle(
        datacenter, workload, pstates)
    n_classes = present.size
    membership = np.zeros((datacenter.n_nodes, n_classes))
    for g, c in enumerate(present):
        members = class_id == c
        membership[:, g] = np.bincount(datacenter.core_node[members],
                                       minlength=datacenter.n_nodes)
    marginal = np.zeros((t_count, n_classes))
    for g, (jtype, k) in enumerate(class_key):
        nominal_class = datacenter.node_types[jtype].pstate_power_kw[k]
        for i in range(t_count):
            if var[i, g] >= 0:
                speed = float(workload.ecs[i, jtype, k])
                marginal[i, g] = (float(task_power.factors[i])
                                  - task_power.idle_fraction) \
                    * nominal_class / (speed * class_count[g])
    cap_coeffs = {}
    weight_j = 1.0 + lin.crac_coeff
    for i in range(t_count):
        for g in range(n_classes):
            if var[i, g] < 0 or marginal[i, g] == 0.0:
                continue
            w = float((weight_j * membership[:, g]).sum() * marginal[i, g])
            cap_coeffs[var[i, g]] = cap_coeffs.get(var[i, g], 0.0) + w
    lp.add_le(cap_coeffs, p_const - idle_total)
    base_load = lin.inlet_gain @ idle_node
    for row in range(lin.inlet_gain.shape[0]):
        coeffs = {}
        gain_row = lin.inlet_gain[row]
        for g in range(n_classes):
            gw = float(gain_row @ membership[:, g])
            if gw == 0.0:
                continue
            for i in range(t_count):
                if var[i, g] >= 0 and marginal[i, g] != 0.0:
                    key = var[i, g]
                    coeffs[key] = coeffs.get(key, 0.0) + gw * marginal[i, g]
        if coeffs:
            lp.add_le(coeffs, float(lin.redline_rhs[row] - base_load[row]))
    return lp


def _minpower_oracle(datacenter, arrs, lin, reward_target):
    gain = lin.inlet_gain
    node_of_var, caps, slopes = _node_segments(datacenter, arrs)
    power_coeff = (1.0 + lin.crac_coeff)[node_of_var]
    lp = _Oracle()
    for cap, c in zip(caps, power_coeff):
        lp.var(0.0, cap, c)
    lp.add_ge({int(i): float(s) for i, s in enumerate(slopes) if s != 0.0},
              float(reward_target))
    rows = gain[:, node_of_var]
    rhs = lin.redline_rhs - gain @ datacenter.node_base_power
    for u in range(rows.shape[0]):
        lp.add_le({v: c for v, c in enumerate(rows[u])}, rhs[u])
    return lp


# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=[PAPER_SET_1, PAPER_SET_3],
                ids=["set1", "set3"])
def room(request):
    sc = generate_scenario(scaled_down(request.param, 20), 1)
    dc = sc.datacenter
    a = three_stage_assignment(dc, sc.workload, sc.p_const, psi=50.0)
    lin = ThermalLinearization.build(dc.thermal, a.t_crac_out, dc.redline_c)
    return sc, a, lin


@pytest.fixture
def built(monkeypatch):
    """Every LinearProgram the solvers hand to HiGHS, in solve order."""
    lps = []

    class Recording(LinearProgram):
        def solve(self, **kwargs):
            lps.append(self)
            return super().solve(**kwargs)

    for module in (baseline, stage3, stage3_power, minpower):
        monkeypatch.setattr(module, "LinearProgram", Recording,
                            raising=False)
    return lps


def test_baseline(room, built):
    sc, _, _ = room
    dc, wl = sc.datacenter, sc.workload
    sol, _ = baseline.solve_baseline(dc, wl, sc.p_const)
    lin = ThermalLinearization.build(dc.thermal, sol.t_crac_out,
                                     dc.redline_c)
    built.clear()
    baseline.solve_baseline_fixed_temps(dc, wl, lin, sc.p_const)
    (lp,) = built
    _assert_same_program(lp, _baseline_oracle(dc, wl, lin, sc.p_const))


def test_stage3(room, built):
    sc, a, _ = room
    stage3.solve_stage3(sc.datacenter, sc.workload, a.pstates)
    (lp,) = built
    _assert_same_program(lp, _class_oracle(sc.datacenter, sc.workload,
                                           a.pstates)[0])


@pytest.mark.parametrize("kind", ["heavy", "graded"])
def test_stage3_power_aware(room, built, kind):
    sc, a, lin = room
    t = sc.workload.n_task_types
    # "graded" starts at the idle fraction, so type 0 has zero marginal
    # power and drops out of the cap and redline rows
    factors = np.full(t, 1.15) if kind == "heavy" \
        else np.linspace(0.6, 1.3, t)
    model = TaskPowerModel(factors=factors, idle_fraction=0.6)
    stage3_power.solve_stage3_power_aware(
        sc.datacenter, sc.workload, a.pstates, model, lin, sc.p_const)
    (lp,) = built
    _assert_same_program(lp, _stage3_power_oracle(
        sc.datacenter, sc.workload, a.pstates, model, lin, sc.p_const))


def test_minpower(room, built):
    sc, a, lin = room
    arrs = build_arr_functions(sc.datacenter, sc.workload, 50.0)
    target = 0.8 * a.reward_rate
    minpower.solve_minpower_fixed_temps(sc.datacenter, arrs, lin, target)
    (lp,) = built
    _assert_same_program(lp, _minpower_oracle(sc.datacenter, arrs, lin,
                                              target))
