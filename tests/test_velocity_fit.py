"""Velocity-set fitting tests.

The independent checker below re-evaluates every claimed fit with plain
formulas (no shared code with the fitter) and must agree to the solver
tolerance.
"""

import numpy as np
import pytest

from fluidswarm import (FitConfig, fit_cell, fit_grid, grid_from_fit,
                        initial_sigma, load_fit, save_fit, set_pressure)
from fluidswarm.swarm_sim import build_command_table

VOL = 0.125  # 0.5 m cell


def replay(res, v_target, p_target, cell_volume, mass=1.0, alpha=1.0):
    """Re-evaluate a fit's constraints from its returned velocities only."""
    v = res.velocities
    mean_err = float(np.linalg.norm(v.mean(axis=0) - np.asarray(v_target)))
    w = v - v.mean(axis=0)
    p_set = 2.0 * mass / (3.0 * cell_volume) * float((w * w).sum())
    return mean_err, abs(p_set - p_target), mean_err ** 2 + alpha * abs(p_set - p_target)


def random_cells(seed, count, vol=VOL):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = float(10.0 * rng.random())
        d = rng.normal(size=3)
        v = 25.0 * rng.random() ** (1.0 / 3.0) * d / np.linalg.norm(d)
        yield v, p


def test_initial_sigma_hand_value():
    # sigma^2 = P * 3 dV / (2 m N): 0.96 * 0.375 / 8 = 0.045
    assert initial_sigma(0.96, 0.125, 1.0, 4) == pytest.approx(
        np.sqrt(0.045), rel=1e-12)
    assert initial_sigma(0.96, 0.125, 1.0, 4) == pytest.approx(0.21213, abs=1e-5)
    with pytest.raises(ValueError):
        initial_sigma(-0.1, 0.125, 1.0, 4)


def test_zero_pressure_tiles_the_target_exactly():
    res = fit_cell([1.5, -0.25, 0.0], 0.0, VOL)
    assert res.n_star == 2  # every count ties at zero loss; smallest wins
    assert res.loss == 0.0
    assert res.iterations == 0
    assert res.converged
    assert np.array_equal(res.velocities,
                          np.tile([1.5, -0.25, 0.0], (res.n_star, 1)))
    assert set_pressure(res.velocities, res.command, VOL, 1.0) == 0.0


def test_zero_pressure_tie_respects_n_min():
    res = fit_cell([1.0, 0.0, 0.0], 0.0, VOL, FitConfig(n_min=5, n_max=9))
    assert res.n_star == 5


def test_fit_satisfies_both_constraints():
    cfg = FitConfig(rng_seed=7)
    for i, (v, p) in enumerate(random_cells(5, 50)):
        res = fit_cell(v, p, VOL, cfg, np.random.default_rng((cfg.rng_seed, i)))
        assert res.converged
        mean_err, p_err, loss = replay(res, v, p, VOL)
        assert mean_err <= 1e-12 * max(1.0, float(np.linalg.norm(v)))
        assert p_err <= 1e-6 * max(1.0, p)
        assert loss < 1e-6
        assert res.loss == pytest.approx(loss, rel=1e-9, abs=1e-12)


def test_convergence_rate_on_random_cells():
    """Smaller version of the acceptance Monte Carlo (full run lives there)."""
    ok = 0
    total = 200
    for i, (v, p) in enumerate(random_cells(17, total)):
        res = fit_cell(v, p, VOL, rng=np.random.default_rng((17, i)))
        if res.converged and res.loss < 1e-6 and replay(res, v, p, VOL)[2] < 1e-6:
            ok += 1
    assert ok >= 0.99 * total


def test_fit_cell_is_reproducible(fit, grid):
    """Same per-cell stream, same answer, bitwise."""
    for f in list(fit.results)[::100]:
        res = fit.results[f]
        again = fit_cell(grid.v_target[f],
                         float(grid.p_target[f] - fit.pressure_offset), VOL,
                         fit.config, np.random.default_rng((0, int(f))),
                         cell=int(f))
        assert again.n_star == res.n_star
        assert again.loss == res.loss
        assert np.array_equal(again.velocities, res.velocities)
        assert fit.config.n_min <= res.n_star <= fit.config.n_max


def test_mean_constraint_is_exact_across_the_grid(fit, grid):
    for f, res in fit.results.items():
        tgt = grid.v_target[f]
        lim = 1e-12 * max(1.0, float(np.linalg.norm(tgt)))
        assert res.mean_residual <= lim
        assert np.linalg.norm(res.velocities.mean(axis=0) - tgt) <= lim


def test_grid_fit_converges_everywhere(fit, grid):
    assert len(fit.results) == int(grid.valid.sum())
    assert all(r.converged for r in fit.results.values())
    # shifted pressure targets reproduce the originals up to the offset
    for f in list(fit.results)[::50]:
        res = fit.results[f]
        p_set = set_pressure(res.velocities, res.command, VOL, 1.0)
        assert p_set + fit.pressure_offset == pytest.approx(
            grid.p_target[f], rel=1e-6, abs=1e-6)


def test_pressure_offset_makes_targets_nonnegative(fit, grid):
    shifted = grid.p_target[grid.valid] - fit.pressure_offset
    assert shifted.min() >= 0.0
    assert shifted.min() == pytest.approx(0.0, abs=1e-12)


def test_scaling_covariance():
    res = fit_cell([13.53, 0.0, 0.0], 0.9, VOL,
                   rng=np.random.default_rng(3))
    scaled = 0.1 * res.velocities
    assert np.allclose(scaled.mean(axis=0), 0.1 * res.command, rtol=1e-12)
    p0 = set_pressure(res.velocities, res.command, VOL, 1.0)
    p1 = set_pressure(scaled, 0.1 * res.command, VOL, 1.0)
    assert p1 == pytest.approx(0.01 * p0, rel=1e-12)


def test_fit_grid_is_thread_invariant(grid, fit):
    for threads in (2, 8):
        other = fit_grid(grid, FitConfig(rng_seed=0), threads=threads)
        assert sorted(other.results) == sorted(fit.results)
        assert other.pressure_offset == fit.pressure_offset
        for f, res in fit.results.items():
            o = other.results[f]
            assert o.n_star == res.n_star
            assert o.loss == res.loss
            assert np.array_equal(o.velocities, res.velocities)


def test_fit_round_trip(tmp_path, fit, grid):
    path = tmp_path / "fit.csv"
    save_fit(fit, grid, path)
    back, meta = load_fit(path)
    assert sorted(back.results) == sorted(fit.results)
    assert back.pressure_offset == pytest.approx(fit.pressure_offset, rel=1e-11)
    assert back.config == fit.config
    assert meta["edge_length"] == pytest.approx(grid.edge_length)
    assert (int(meta["nx"]), int(meta["ny"]), int(meta["nz"])) == grid.dims
    for f, res in fit.results.items():
        o = back.results[f]
        assert o.n_star == res.n_star
        assert o.converged == res.converged
        assert o.iterations == res.iterations
        assert np.allclose(o.velocities, res.velocities, rtol=1e-11, atol=1e-13)


def test_grid_reconstruction_from_fit_file(tmp_path, fit, grid):
    """A fit file alone must be enough to rebuild the simulation inputs."""
    path = tmp_path / "fit.csv"
    save_fit(fit, grid, path)
    back, meta = load_fit(path)
    rebuilt = grid_from_fit(back, meta)
    assert rebuilt.dims == grid.dims
    assert np.allclose(rebuilt.origin, grid.origin, atol=1e-12)
    assert rebuilt.geometry is not None
    assert rebuilt.geometry.throat_x == pytest.approx(grid.geometry.throat_x)
    assert np.array_equal(np.flatnonzero(rebuilt.valid),
                          np.asarray(sorted(fit.results)))
    # identical broadcast commands up to the 12-digit wire round trip
    t0 = build_command_table(grid, fit, 0.1)
    t1 = build_command_table(rebuilt, back, 0.1)
    assert np.allclose(t1, t0, rtol=1e-9, atol=1e-12)
    sel = rebuilt.valid
    assert np.allclose(rebuilt.p_target[sel], grid.p_target[sel],
                       rtol=1e-5, atol=1e-5)


def test_fit_cell_argument_validation():
    with pytest.raises(ValueError):
        fit_cell([1.0, 0.0, 0.0], -0.5, VOL)
    with pytest.raises(ValueError):
        fit_cell([1.0, 0.0, 0.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        FitConfig(n_min=0)
    with pytest.raises(ValueError):
        FitConfig(epsilon=0.0)


def test_fit_grid_needs_valid_cells(grid):
    import dataclasses
    empty = dataclasses.replace(grid, node_count=np.zeros_like(grid.node_count))
    with pytest.raises(ValueError, match="no valid cells"):
        fit_grid(empty)
