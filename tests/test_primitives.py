"""Bulk-observable tests, anchored by a fully hand-worked two-agent cell.

The per-agent moments live in the test reference module; they apply the
library's pressure coefficient to one cell's agents.

Two unit masses at (1,0,0) and (3,0,0) m/s in a 1 m^3 cell:
    mean velocity      (2,0,0)
    mass density       2
    pressure           2/(3*1) * (1 + 9)            = 20/3
    internal pressure  2/(3*1) * (1 + 1)            = 4/3
    parallel axis      4/3 + 2/(3*1) * 2 * 4        = 20/3
"""

import numpy as np
import pytest

from reference import (UndefinedSampleError, internal_pressure,
                       mass_mean_velocity, swarm_density, swarm_pressure,
                       swarm_pressure_moment_form)

M2 = np.ones(2)
V2 = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])


def random_sets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 40))
        yield rng.uniform(0.5, 2.0, n), rng.normal(0.0, 5.0, (n, 3))


def test_hand_worked_cell():
    assert np.allclose(mass_mean_velocity(M2, V2), [2.0, 0.0, 0.0])
    assert swarm_density(M2, 1.0) == pytest.approx(2.0)
    assert swarm_pressure(M2, V2, 1.0) == pytest.approx(20.0 / 3.0, rel=1e-12)
    assert swarm_pressure_moment_form(M2, V2, 1.0) == pytest.approx(
        20.0 / 3.0, rel=1e-12)
    assert internal_pressure(M2, V2, 1.0, [2, 0, 0]) == pytest.approx(
        4.0 / 3.0, rel=1e-12)


def test_zero_variance_internal_pressure_is_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        v0 = rng.normal(0.0, 10.0, 3)
        v = np.tile(v0, (n, 1))
        assert internal_pressure(np.ones(n), v, 0.125, v0) == 0.0


def test_zero_variance_sample_pressure_split():
    # power-of-two count keeps the mean bitwise equal to the common row
    v0 = np.array([0.31, -2.7, 1.9])
    m, v = np.ones(4), np.tile(v0, (4, 1))
    assert internal_pressure(m, v, 0.125, mass_mean_velocity(m, v)) == 0.0
    assert swarm_pressure(m, v, 0.125) == pytest.approx(
        2.0 / (3.0 * 0.125) * 4.0 * float(v0 @ v0), rel=1e-12)


def test_pressure_routes_agree():
    for m, v in random_sets(42, 1000):
        a = swarm_pressure(m, v, 0.125)
        b = swarm_pressure_moment_form(m, v, 0.125)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


def test_parallel_axis_decomposition():
    vol = 0.125
    for m, v in random_sets(43, 200):
        u = mass_mean_velocity(m, v)
        total = swarm_pressure(m, v, vol)
        split = internal_pressure(m, v, vol, u) \
            + 2.0 / (3.0 * vol) * m.sum() * float(u @ u)
        assert split == pytest.approx(total, rel=1e-12)


def test_empty_cell_is_undefined():
    empty_m, empty_v = np.empty(0), np.empty((0, 3))
    for fn in (lambda: swarm_density(empty_m, 1.0),
               lambda: swarm_pressure(empty_m, empty_v, 1.0)):
        with pytest.raises(UndefinedSampleError):
            fn()


def test_input_validation():
    with pytest.raises(ValueError):
        swarm_pressure([1.0, -1.0], V2, 1.0)  # nonpositive mass
    with pytest.raises(ValueError):
        swarm_density(M2, 0.0)  # degenerate volume
    with pytest.raises(ValueError):
        swarm_pressure(np.ones(3), V2, 1.0)  # length mismatch
