"""Transient-physics property tier (hypothesis).

The MPC planner (:mod:`repro.control.mpc`) trusts
:func:`~repro.thermal.transient.simulate_transient` as its prediction
model, so this suite pins the physics the controller leans on, over
randomized operating points rather than fixed examples:

* the max-norm error to the steady-state fixed point never increases
  along a trajectory (first-order dynamics with a row-stochastic mixing
  matrix are a sup-norm contraction);
* :func:`~repro.thermal.transient.time_to_steady_state` is consistent
  with the trajectory the integrator actually produces;
* refining ``dt`` converges (halving the step moves the terminal state
  less than the step it refines);
* the sparse thermal backend predicts the same trajectories as the
  dense oracle to the backend-agreement tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.thermal.transient import simulate_transient, time_to_steady_state

from tests.thermal.twin import backend_twin

RELAXED = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Sparse/dense backend agreement (same policy as test_sparse_equivalence).
ATOL = 1e-9


def _draw_point(data, dc):
    """A random operating point + start state for ``small_dc``."""
    model = dc.thermal
    t_crac = data.draw(hnp.arrays(float, dc.n_crac,
                                  elements=st.floats(12.0, 22.0)))
    p = data.draw(hnp.arrays(float, dc.n_nodes,
                             elements=st.floats(0.0, 1.5)))
    p_start = data.draw(hnp.arrays(float, dc.n_nodes,
                                   elements=st.floats(0.0, 1.5)))
    t_start = data.draw(hnp.arrays(float, dc.n_crac,
                                   elements=st.floats(12.0, 22.0)))
    start = model.steady_state(t_start, p_start).t_out
    return model, t_crac, p, start


class TestMonotoneConvergence:
    @given(data=st.data())
    @RELAXED
    def test_max_norm_error_never_increases(self, small_dc, data):
        """sup-norm contraction: each step moves no farther from the
        fixed point, from any steady start toward any new point."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        target = model.steady_state(t_crac, p).t_out
        res = simulate_transient(model, t_crac, p, start,
                                 duration_s=600.0, tau_s=120.0, dt_s=5.0)
        err = np.abs(res.t_out - target[None, :]).max(axis=1)
        assert np.all(np.diff(err) <= 1e-9)

    @given(data=st.data())
    @RELAXED
    def test_error_decays_toward_zero(self, small_dc, data):
        """Long horizons end close to the steady state (stability)."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        target = model.steady_state(t_crac, p).t_out
        res = simulate_transient(model, t_crac, p, start,
                                 duration_s=1800.0, tau_s=120.0, dt_s=5.0)
        assert np.abs(res.t_out[-1] - target).max() < 0.05


class TestTimeToSteadyStateConsistency:
    @given(data=st.data(), tol=st.floats(0.05, 0.5))
    @RELAXED
    def test_settled_at_reported_time_not_before(self, small_dc, data, tol):
        """The reported settling time is the first trajectory sample
        within tolerance — the integrator and the stopwatch agree."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        tts = time_to_steady_state(model, t_crac, p, start,
                                   tolerance_c=tol, tau_s=120.0, dt_s=2.0)
        assert np.isfinite(tts)
        target = model.steady_state(t_crac, p).t_out
        if tts == 0.0:
            effective = start.copy()
            effective[:model.n_crac] = t_crac
            assert np.abs(effective - target).max() <= tol
            return
        res = simulate_transient(model, t_crac, p, start,
                                 duration_s=tts, tau_s=120.0, dt_s=2.0)
        err = np.abs(res.t_out - target[None, :]).max(axis=1)
        assert err[-1] <= tol + 1e-12
        assert np.all(err[:-1] > tol)

    @given(data=st.data())
    @RELAXED
    def test_fixed_point_settles_in_zero_seconds(self, small_dc, data):
        """Regression: starting *at* the steady state returns 0.0 even
        with a degenerate ``max_s`` (no trajectory is built at all)."""
        model, t_crac, p, _ = _draw_point(data, small_dc)
        ss = model.steady_state(t_crac, p).t_out
        assert time_to_steady_state(model, t_crac, p, ss) == 0.0
        assert time_to_steady_state(model, t_crac, p, ss, max_s=0.0) == 0.0


class TestStepRefinement:
    @given(data=st.data())
    @RELAXED
    def test_halving_dt_converges(self, small_dc, data):
        """Terminal states form a Cauchy-like sequence under dt halving:
        the 2->1 gap bounds the 1->0.5 gap (first-order convergence)."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        finals = {}
        for dt in (8.0, 4.0, 2.0):
            res = simulate_transient(model, t_crac, p, start,
                                     duration_s=240.0, tau_s=120.0, dt_s=dt)
            finals[dt] = res.t_out[-1]
        gap_coarse = np.abs(finals[8.0] - finals[4.0]).max()
        gap_fine = np.abs(finals[4.0] - finals[2.0]).max()
        assert gap_fine <= gap_coarse + 1e-12
        # and the whole ladder is already tight in absolute terms
        assert gap_fine < 0.1

    @given(data=st.data())
    @RELAXED
    def test_refinement_approaches_exact_endpoint(self, small_dc, data):
        """The dt ladder converges toward the analytic per-step
        exponential solution (finest step taken as reference)."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        ref = simulate_transient(model, t_crac, p, start, duration_s=240.0,
                                 tau_s=120.0, dt_s=1.0).t_out[-1]
        errs = [np.abs(simulate_transient(
            model, t_crac, p, start, duration_s=240.0, tau_s=120.0,
            dt_s=dt).t_out[-1] - ref).max() for dt in (16.0, 8.0, 4.0)]
        assert errs[2] <= errs[1] + 1e-12 <= errs[0] + 2e-12


class TestSparseBackendAgreement:
    @given(data=st.data())
    @RELAXED
    def test_trajectories_match_dense(self, small_dc, data):
        """The MPC prediction model is backend-independent: sparse and
        dense integrate to the same trajectory within 1e-9."""
        model, t_crac, p, start = _draw_point(data, small_dc)
        sparse = backend_twin(model, "sparse")
        dense_res = simulate_transient(model, t_crac, p, start,
                                       duration_s=300.0, dt_s=5.0)
        sparse_res = simulate_transient(sparse, t_crac, p, start,
                                        duration_s=300.0, dt_s=5.0)
        np.testing.assert_allclose(sparse_res.t_out, dense_res.t_out,
                                   atol=ATOL)
        np.testing.assert_allclose(sparse_res.t_in, dense_res.t_in,
                                   atol=ATOL)

    @given(data=st.data())
    @RELAXED
    def test_settling_times_match_dense(self, small_dc, data):
        model, t_crac, p, start = _draw_point(data, small_dc)
        sparse = backend_twin(model, "sparse")
        dense_tts = time_to_steady_state(model, t_crac, p, start, dt_s=2.0)
        sparse_tts = time_to_steady_state(sparse, t_crac, p, start, dt_s=2.0)
        assert sparse_tts == pytest.approx(dense_tts, abs=2.0)
