"""Tests for repro.optimize.search — discretized temperature searches."""

import numpy as np
import pytest

from repro.optimize.search import (coarse_to_fine_search,
                                   seeded_coordinate_search, temperature_grid,
                                   uniform_then_coordinate_search)


class TestTemperatureGrid:
    def test_inclusive_endpoints(self):
        np.testing.assert_allclose(temperature_grid(10, 25, 5),
                                   [10, 15, 20, 25])

    def test_non_divisible_range(self):
        np.testing.assert_allclose(temperature_grid(10, 24, 5),
                                   [10, 15, 20])

    def test_single_point(self):
        np.testing.assert_allclose(temperature_grid(10, 10, 1), [10])

    def test_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            temperature_grid(0, 1, 0)

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            temperature_grid(5, 4, 1)


def quad_peak(center: np.ndarray):
    """Concave objective peaking at ``center``."""
    def f(t: np.ndarray) -> float:
        return -float(((t - center) ** 2).sum())
    return f


class TestCoarseToFine:
    def test_finds_peak_1d(self):
        res = coarse_to_fine_search(quad_peak(np.asarray([17.0])), 1, 10, 25,
                                    final_step=1.0)
        assert res.temperatures[0] == pytest.approx(17.0)

    def test_finds_peak_2d(self):
        res = coarse_to_fine_search(quad_peak(np.asarray([13.0, 21.0])), 2,
                                    10, 25, final_step=1.0,
                                    uniform_first=False)
        np.testing.assert_allclose(res.temperatures, [13.0, 21.0])

    def test_uniform_first_falls_back_to_grid(self):
        """A peak invisible on the diagonal is still found."""
        def off_diagonal(t):
            # feasible only away from the diagonal
            if abs(t[0] - t[1]) < 4.0:
                return None
            return -abs(t[0] - 10.0) - abs(t[1] - 25.0)
        res = coarse_to_fine_search(off_diagonal, 2, 10, 25,
                                    uniform_first=True, final_step=1.0)
        assert res.score == pytest.approx(0.0)

    def test_all_infeasible_raises(self):
        with pytest.raises(RuntimeError, match="no feasible"):
            coarse_to_fine_search(lambda t: None, 1, 10, 25)

    def test_minimize_sense(self):
        res = coarse_to_fine_search(
            lambda t: float(((t - 20.0) ** 2).sum()), 1, 10, 25,
            final_step=1.0, maximize=False)
        assert res.temperatures[0] == pytest.approx(20.0)

    def test_counts_evaluations(self):
        res = coarse_to_fine_search(quad_peak(np.asarray([15.0])), 1, 10, 25)
        assert res.evaluations > 0

    def test_bad_n_crac(self):
        with pytest.raises(ValueError, match="positive"):
            coarse_to_fine_search(lambda t: 0.0, 0, 10, 25)


class TestUniformCoordinate:
    def test_finds_uniform_peak(self):
        res = uniform_then_coordinate_search(
            quad_peak(np.asarray([18.0, 18.0, 18.0])), 3, 10, 25)
        np.testing.assert_allclose(res.temperatures, 18.0)

    def test_coordinate_descent_moves_off_diagonal(self):
        res = uniform_then_coordinate_search(
            quad_peak(np.asarray([16.0, 19.0])), 2, 10, 25, step=1.0)
        np.testing.assert_allclose(res.temperatures, [16.0, 19.0])

    def test_respects_bounds(self):
        res = uniform_then_coordinate_search(
            quad_peak(np.asarray([30.0])), 1, 10, 25, step=1.0)
        assert res.temperatures[0] == pytest.approx(25.0)

    def test_all_infeasible_raises(self):
        with pytest.raises(RuntimeError, match="no feasible uniform"):
            uniform_then_coordinate_search(lambda t: None, 2, 10, 25)

    def test_minimize(self):
        res = uniform_then_coordinate_search(
            lambda t: float(np.abs(t - 12.0).sum()), 2, 10, 25,
            maximize=False)
        np.testing.assert_allclose(res.temperatures, 12.0)

    def test_partial_feasibility(self):
        """Only warm settings feasible — search stays inside them."""
        def obj(t):
            if np.any(t < 20.0):
                return None
            return -float(t.sum())
        res = uniform_then_coordinate_search(obj, 2, 10, 25, step=1.0)
        np.testing.assert_allclose(res.temperatures, 20.0)



class TestScreenedSearch:
    """A screening objective within ``SCREEN_DELTA / 2`` of the exact
    one changes no step of any search and no bit of its result."""

    CENTER = np.asarray([13.0, 21.0])

    def _searches(self):
        return {
            "coarse_to_fine": lambda f, **kw: coarse_to_fine_search(
                f, 2, 10, 25, final_step=1.0, **kw),
            "uniform_then_coordinate": lambda f, **kw:
                uniform_then_coordinate_search(f, 2, 10, 25, **kw),
            "seeded": lambda f, **kw: seeded_coordinate_search(
                f, np.asarray([18.0, 18.0]), 2, 10, 25, **kw),
        }

    @staticmethod
    def _noisy(exact, relative):
        noise = iter(np.tile([relative, -relative, 0.0], 10_000))

        def screen(t):
            value = exact(t)
            return value + next(noise) * max(1.0, abs(value))
        return screen

    @pytest.mark.parametrize("name", ["coarse_to_fine",
                                      "uniform_then_coordinate", "seeded"])
    def test_near_ties_are_decided_on_exact_scores(self, name):
        # neighbours differ by ~1e-7, far below the screen's noise
        def exact(t):
            return 1000.0 - 1e-7 * float(((t - self.CENTER) ** 2).sum())

        calls = []

        def counted(t):
            calls.append(t.copy())
            return exact(t)

        search = self._searches()[name]
        want = search(exact)
        got = search(self._noisy(exact, 4e-7), exact=counted)
        assert got.temperatures.tobytes() == want.temperatures.tobytes()
        assert got.score == want.score
        assert got.evaluations == want.evaluations
        assert len(calls) > 1

    @pytest.mark.parametrize("name", ["coarse_to_fine",
                                      "uniform_then_coordinate", "seeded"])
    def test_clear_decisions_need_only_the_winner_exact(self, name):
        # off-lattice peak, uneven axes: no two grid points tie
        def exact(t):
            return -float((((t - self.CENTER - 0.3) ** 2)
                           * [100.0, 1.0]).sum())

        calls = []

        def counted(t):
            calls.append(t.copy())
            return exact(t)

        search = self._searches()[name]
        want = search(exact)
        got = search(self._noisy(exact, 4e-7), exact=counted)
        assert got.temperatures.tobytes() == want.temperatures.tobytes()
        assert got.score == want.score
        assert [c.tobytes() for c in calls] == [want.temperatures.tobytes()]
