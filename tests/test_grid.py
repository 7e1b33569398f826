import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from driftlab.grid import RadialField, RadialGrid, quadrature_weights, unit_sphere_area


def test_unit_sphere_area_low_dimensions():
    assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_unit_sphere_area_matches_gamma_formula():
    for n in range(1, 13):
        expected = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
        assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-14)


def test_unit_sphere_area_is_finite_past_the_factorial_range():
    # Gamma(n/2) overflows a double from odd n = 173 and even n = 344; the area does not
    mpmath.mp.dps = 30
    for n in (172, 173, 175, 343, 344, 345, 1000, 1001, 2500.5):
        half = mpmath.mpf(n) / 2
        expected = float(2 * mpmath.pi**half / mpmath.gamma(half))
        assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-12), n
    assert unit_sphere_area(10**6) == 0.0  # below the smallest double


def test_unit_sphere_area_past_the_factorial_range_forms_no_factorial(monkeypatch):
    from driftlab import grid

    def refuse(two_a):
        raise AssertionError(f"factorial recursion for n = {two_a}")

    monkeypatch.setattr(grid, "gamma_half_integer", refuse)
    for n in (173, 344, 1001, 10**6, 4 * 10**6):
        assert 0.0 <= unit_sphere_area(n) < 1e-80, n


def test_grid_nodes_uniform():
    g = RadialGrid(2.0, 5, 2)
    assert g.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.nodes[0] == 0.0 and g.nodes[-1] == g.r_max


@pytest.mark.parametrize("kwargs", [
    {"r_max": -1.0, "num_nodes": 11, "n_dim": 2},
    {"r_max": 1.0, "num_nodes": 2, "n_dim": 2},
    {"r_max": 1.0, "num_nodes": 11, "n_dim": 0},
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        RadialGrid(**kwargs)


def test_field_validation():
    g = RadialGrid(1.0, 11, 2)
    with pytest.raises(ValueError):
        RadialField(g, np.ones(10))
    with pytest.raises(ValueError):
        RadialField(g, np.full(11, np.nan))
    f = RadialField(g, np.linspace(1, 0, 11))
    with pytest.raises((AttributeError, ValueError)):
        f.values[0] = 2.0
    assert f.is_radially_nonincreasing()


def test_radial_trapezoid_full_range():
    # f = 1 against r dr on [0, 2]: exactly 2 (trapezoid exact for linear integrand)
    g = RadialGrid(2.0, 21, 2)
    val = quadrature_weights(g, g.r_max) @ np.ones(21) / unit_sphere_area(2)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_radial_trapezoid_partial_segment():
    # upper bound between nodes; exact for the linear integrand r
    g = RadialGrid(1.0, 3, 2)  # nodes 0, 0.5, 1
    val = quadrature_weights(g, 0.75) @ np.ones(3) / unit_sphere_area(2)
    assert val == pytest.approx(0.75**2 / 2, rel=1e-14)


def test_radial_trapezoid_against_quadrature():
    g = RadialGrid(3.0, 3001, 3)
    f = np.exp(-g.nodes)
    expected, _ = quad(lambda r: math.exp(-r) * r**2, 0.0, 2.2)
    val = quadrature_weights(g, 2.2) @ f / unit_sphere_area(3)
    assert val == pytest.approx(expected, rel=1e-6)


def test_radial_trapezoid_bound_outside_range():
    g = RadialGrid(1.0, 11, 2)
    with pytest.raises(ValueError):
        quadrature_weights(g, 1.5)


def _trapezoid_reference(r, f, n_dim, upper):
    """int_0^upper f r^{n-1} dr by np.trapezoid, the top segment against the interpolant."""
    g = f * r ** (n_dim - 1)
    k = int(np.searchsorted(r, upper, side="right"))
    total = float(np.trapezoid(g[:k], r[:k])) if k >= 2 else 0.0
    if k < len(r) and upper > r[k - 1]:
        g_up = g[k - 1] + (g[k] - g[k - 1]) * (upper - r[k - 1]) / (r[k] - r[k - 1])
        total += 0.5 * (g[k - 1] + g_up) * (upper - r[k - 1])
    return total


@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_quadrature_weights_match_the_trapezoid_rule(n_dim):
    g = RadialGrid(7.0, 141, n_dim)
    f = np.exp(-g.nodes) * (1.0 + np.sin(3.0 * g.nodes))
    for radius in (0.0, 0.03, 0.05, 1.0, 3.3333, 6.98, 7.0):
        q = quadrature_weights(g, radius)
        expected = unit_sphere_area(n_dim) * _trapezoid_reference(g.nodes, f, n_dim, radius)
        assert q @ f == pytest.approx(expected, rel=1e-14, abs=1e-300)
        assert np.all(q[g.nodes > radius + g.spacing] == 0.0)
