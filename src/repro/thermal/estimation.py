"""Estimating the heat-flow matrix from sensor measurements (Section IV).

The paper takes the mixing matrix as given: "The values in matrix A can
be estimated using sensor measurements [29]."  This module implements
that estimation, closing the loop between the simulated room and the
calibration a real deployment would run:

* :func:`collect_measurements` plays the role of the sensor network —
  it records (outlet, inlet) temperature pairs at a set of operating
  points, optionally with additive Gaussian sensor noise;
* :func:`estimate_mix_matrix` recovers ``A`` row by row from
  ``T_in = A @ T_out`` via constrained least squares (each row is a
  convex combination: non-negative, summing to 1 — the physical
  constraints of an air-mixing process), solved as a small LP-regularized
  NNLS per row followed by simplex projection;
* :func:`estimation_error` reports how close the recovered matrix is and
  how well it predicts inlets at held-out operating points.

With as many linearly independent operating points as units and modest
noise, recovery is essentially exact — verified in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.thermal.heatflow import HeatFlowModel

__all__ = ["Measurement", "collect_measurements", "estimate_mix_matrix",
           "estimation_error"]


@dataclass(frozen=True)
class Measurement:
    """One sensor snapshot: all outlet and inlet temperatures, C."""

    t_out: np.ndarray
    t_in: np.ndarray


def collect_measurements(model: HeatFlowModel,
                         rng: np.random.Generator,
                         n_samples: int,
                         outlet_range_c: tuple[float, float] = (10.0, 25.0),
                         max_node_power_kw: float = 1.0,
                         noise_std_c: float = 0.0) -> list[Measurement]:
    """Simulate a sensor-calibration campaign.

    Each sample drives the room to a random operating point (random CRAC
    outlet temperatures and random node powers), waits for steady state,
    and records every unit's outlet and inlet temperature with optional
    i.i.d. Gaussian sensor noise.
    """
    if n_samples <= 0:
        raise ValueError("need at least one sample")
    if noise_std_c < 0:
        raise ValueError("noise std must be non-negative")
    lo, hi = outlet_range_c
    # draws stay in the original per-sample order (t, p, noise, noise) so
    # seeded campaigns reproduce the historical streams; only the solves
    # are batched through the factored system
    t_cracs = np.empty((n_samples, model.n_crac))
    powers = np.empty((n_samples, model.n_nodes))
    noise_out = np.empty((n_samples, model.n_units))
    noise_in = np.empty((n_samples, model.n_units))
    for i in range(n_samples):
        t_cracs[i] = rng.uniform(lo, hi, size=model.n_crac)
        powers[i] = rng.uniform(0.0, max_node_power_kw, size=model.n_nodes)
        noise_out[i] = rng.normal(0.0, noise_std_c, size=model.n_units)
        noise_in[i] = rng.normal(0.0, noise_std_c, size=model.n_units)
    batch = model.steady_state_batch(t_cracs, powers)
    return [Measurement(t_out=batch.t_out[i] + noise_out[i],
                        t_in=batch.t_in[i] + noise_in[i])
            for i in range(n_samples)]


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (Duchi et al.)."""
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def estimate_mix_matrix(measurements: list[Measurement]) -> np.ndarray:
    """Recover ``A`` from ``T_in = A @ T_out`` snapshots.

    Per row *j*: non-negative least squares on the stacked outlet
    matrix, then projection onto the unit simplex to enforce the
    row-stochastic constraint exactly (physical air mixing conserves
    flow fractions).  Requires at least ``n_units`` samples for a
    well-posed fit.
    """
    # imported here: scipy.optimize loads scipy.linalg, scipy.special and
    # more, which no solve / serve / control path needs
    from scipy.optimize import nnls

    if not measurements:
        raise ValueError("need measurements")
    x = np.stack([m.t_out for m in measurements])   # (S, N)
    y = np.stack([m.t_in for m in measurements])    # (S, N)
    n_units = x.shape[1]
    if x.shape[0] < n_units:
        raise ValueError(
            f"need >= {n_units} samples for {n_units} units, got "
            f"{x.shape[0]}")
    a_hat = np.empty((n_units, n_units))
    for j in range(n_units):
        coeffs, _ = nnls(x, y[:, j])
        a_hat[j] = _project_to_simplex(coeffs)
    return a_hat


def estimation_error(model: HeatFlowModel, a_hat: np.ndarray,
                     rng: np.random.Generator,
                     n_holdout: int = 20,
                     max_node_power_kw: float = 1.0
                     ) -> tuple[float, float]:
    """Matrix error and held-out inlet prediction error.

    Returns ``(max |A - A_hat|, max inlet prediction error in C)`` over
    fresh random operating points.
    """
    matrix_err = float(np.abs(model.mix_dense - a_hat).max())
    t_cracs = np.empty((n_holdout, model.n_crac))
    powers = np.empty((n_holdout, model.n_nodes))
    for i in range(n_holdout):
        t_cracs[i] = rng.uniform(10.0, 25.0, size=model.n_crac)
        powers[i] = rng.uniform(0.0, max_node_power_kw, size=model.n_nodes)
    batch = model.steady_state_batch(t_cracs, powers)
    pred = batch.t_out @ a_hat.T
    worst = float(np.abs(pred - batch.t_in).max())
    return matrix_err, worst
