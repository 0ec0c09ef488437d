"""Velocity-set fitting tests.

The independent checker below re-evaluates every fit from its returned
velocities alone, with plain formulas (no shared code with the fitter).
``fit_cell`` is the test reference that solves one cell on a given stream
with the library's solver; ``replay_grid_fit`` feeds it one generator cell
after cell, as ``fit_grid`` draws.
"""

import numpy as np
import pytest

from fluidswarm import (FitConfig, fit_grid, grid_from_fit, injection_rate,
                        load_fit, partition_domain, save_fit, save_field,
                        set_pressure)
from fluidswarm.cli import main
from fluidswarm.swarm_sim import build_command_table
from fluidswarm.velocity_fit import SET_SIZE
from reference import fit_cell

VOL = 0.125  # 0.5 m cell


def replay(v, v_target, p_target, cell_volume, mass=1.0):
    """Re-evaluate a fit's constraints from its returned velocities only."""
    mean_err = float(np.linalg.norm(v.mean(axis=0) - np.asarray(v_target)))
    w = v - v.mean(axis=0)
    p_set = 2.0 * mass / (3.0 * cell_volume) * float((w * w).sum())
    return mean_err, abs(p_set - p_target), mean_err ** 2 + abs(p_set - p_target)


def random_cells(seed, count, vol=VOL):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = float(10.0 * rng.random())
        d = rng.normal(size=3)
        v = 25.0 * rng.random() ** (1.0 / 3.0) * d / np.linalg.norm(d)
        yield v, p


def test_zero_pressure_tiles_the_target_exactly():
    v = fit_cell([1.5, -0.25, 0.0], 0.0, VOL, np.random.default_rng(0))
    assert np.array_equal(v, np.tile([1.5, -0.25, 0.0], (SET_SIZE, 1)))
    assert set_pressure(v, v.mean(axis=0), VOL, 1.0) == 0.0


def test_fit_satisfies_both_constraints():
    cfg = FitConfig(rng_seed=7)
    for i, (v, p) in enumerate(random_cells(5, 50)):
        vel = fit_cell(v, p, VOL, np.random.default_rng((cfg.rng_seed, i)))
        mean_err, p_err, loss = replay(vel, v, p, VOL)
        assert mean_err <= 1e-12 * max(1.0, float(np.linalg.norm(v)))
        assert p_err <= 1e-6 * max(1.0, p)
        assert loss < 1e-6


def test_convergence_rate_on_random_cells():
    """Smaller version of the acceptance Monte Carlo (full run lives there)."""
    ok = 0
    total = 200
    for i, (v, p) in enumerate(random_cells(17, total)):
        vel = fit_cell(v, p, VOL, np.random.default_rng((17, i)))
        if replay(vel, v, p, VOL)[2] < 1e-6:
            ok += 1
    assert ok >= 0.99 * total


def replay_grid_fit(g, gf, seed):
    """Assert that ``gf`` equals fit_cell on each valid cell of ``g`` in
    ascending order, all cells drawing from one ``default_rng(seed)``."""
    assert gf.cells.tolist() == np.flatnonzero(g.valid).tolist()
    assert gf.velocities.shape == (len(gf.cells), SET_SIZE, 3)
    rng = np.random.default_rng(seed)
    for f, v in zip(gf.cells.tolist(), gf.velocities):
        again = fit_cell(g.v_target[f],
                         float(g.p_target[f] - gf.pressure_offset),
                         g.cell_volume, rng, gf.config.agent_mass)
        assert np.array_equal(again, v)


def test_fit_cell_is_reproducible(fit, grid, field):
    """The batched grid fit equals fit_cell on one seed-0 generator run
    through the cells in ascending order, bitwise, on the 0.5 m and the
    0.25 m lattices."""
    fine = partition_domain(field, edge_length=0.25)
    for g, gf in ((grid, fit), (fine, fit_grid(fine, FitConfig(rng_seed=0)))):
        replay_grid_fit(g, gf, 0)


def test_mean_constraint_is_exact_across_the_grid(fit, grid):
    for f, v in zip(fit.cells, fit.velocities):
        tgt = grid.v_target[f]
        lim = 1e-12 * max(1.0, float(np.linalg.norm(tgt)))
        assert replay(v, tgt, 0.0, VOL)[0] <= lim


def test_grid_fit_converges_everywhere(fit, grid):
    assert fit.velocities.shape == (int(grid.valid.sum()), SET_SIZE, 3)
    # shifted pressure targets reproduce the originals up to the offset
    for f, v in zip(fit.cells, fit.velocities):
        p_set = set_pressure(v, v.mean(axis=0), VOL, 1.0)
        assert p_set + fit.pressure_offset == pytest.approx(
            grid.p_target[f], rel=1e-6, abs=1e-6)


def test_pressure_offset_makes_targets_nonnegative(fit, grid):
    shifted = grid.p_target[grid.valid] - fit.pressure_offset
    assert shifted.min() >= 0.0
    assert shifted.min() == pytest.approx(0.0, abs=1e-12)


def test_scaling_covariance():
    v = fit_cell([13.53, 0.0, 0.0], 0.9, VOL, np.random.default_rng(3))
    command = v.mean(axis=0)
    scaled = 0.1 * v
    assert np.allclose(scaled.mean(axis=0), 0.1 * command, rtol=1e-12)
    p0 = set_pressure(v, command, VOL, 1.0)
    p1 = set_pressure(scaled, 0.1 * command, VOL, 1.0)
    assert p1 == pytest.approx(0.01 * p0, rel=1e-12)


def test_fit_round_trip(tmp_path, fit, grid):
    path = tmp_path / "fit.csv"
    save_fit(fit, grid, path)
    back, meta = load_fit(path)
    assert np.array_equal(back.cells, fit.cells)
    assert back.pressure_offset == fit.pressure_offset
    assert back.config == fit.config
    assert meta["edge_length"] == grid.edge_length
    assert [meta[k] for k in ("origin_x", "origin_y", "origin_z")] \
        == list(grid.origin)
    assert meta["throat_x"] == grid.geometry.throat_x
    assert (int(meta["nx"]), int(meta["ny"]), int(meta["nz"])) == grid.dims
    assert back.velocities.shape == fit.velocities.shape
    assert np.array_equal(back.velocities, fit.velocities)


def test_load_fit_rejects_a_damaged_file(tmp_path, fit, grid):
    path = tmp_path / "fit.csv"
    save_fit(fit, grid, path)
    meta, header, *rows = path.read_text().splitlines()

    no_mass = tmp_path / "no_mass.csv"
    no_mass.write_text("\n".join(
        [" ".join(t for t in meta.split() if not t.startswith("agent_mass=")),
         header, *rows]) + "\n")
    with pytest.raises(ValueError, match="agent_mass"):
        load_fit(no_mass)

    # a row of the older layout: loss, iterations and converged columns
    # between the set size and the velocities
    jx, jy, jz, n, *vel = rows[0].split(",")
    old = tmp_path / "old_row.csv"
    old.write_text("\n".join(
        [meta, header, ",".join([jx, jy, jz, n, "1e-15", "3", "1", *vel]),
         *rows[1:]]) + "\n")
    with pytest.raises(ValueError, match=f":3: expected {4 + 3 * SET_SIZE} "
                       f"columns, got {7 + 3 * SET_SIZE}"):
        load_fit(old)

    def rejects(lines, message):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_fit(path)

    rejects([meta, header, *rows[:-100]],
            f"declares cells={len(rows)}, found {len(rows) - 100} cell rows")
    # a repeated cell row in place of another: the count still matches
    rejects([meta, header, rows[0], *rows[:-1]], ":4: repeated cell")
    rejects([meta, "jx,jy,jz,n_star", *rows], "expected header")


def test_routes_agree_and_the_rate_ignores_the_fit_seed(tmp_path, capsys,
                                                        field, grid, fit):
    """Partition CSV -> fit CSV -> grid_from_fit gives the in-memory route's
    cells, sets and injection rate; the rate does not move with the seed."""
    save_field(field, tmp_path / "field.csv")
    assert main(["partition", "--field", str(tmp_path / "field.csv"),
                 "--output", str(tmp_path / "grid.csv")]) == 0
    assert main(["fit", "--partition", str(tmp_path / "grid.csv"),
                 "--output", str(tmp_path / "fit.csv")]) == 0
    capsys.readouterr()
    cli_fit, meta = load_fit(tmp_path / "fit.csv")
    cli_grid = grid_from_fit(cli_fit, meta)
    assert np.array_equal(cli_fit.cells, fit.cells)
    for route in (fit, cli_fit):
        assert route.velocities.shape == (len(fit.cells), SET_SIZE, 3)
    rate, cell = injection_rate(grid, fit)
    cli_rate, cli_cell = injection_rate(cli_grid, cli_fit)
    assert cli_cell == cell
    assert cli_rate == pytest.approx(rate, rel=1e-9)
    for seed in range(1, 6):
        other = fit_grid(grid, FitConfig(rng_seed=seed))
        assert injection_rate(grid, other)[0] == pytest.approx(rate, rel=1e-12)


def test_grid_reconstruction_from_fit_file(tmp_path, fit, grid):
    """A fit file alone must be enough to rebuild the simulation inputs."""
    path = tmp_path / "fit.csv"
    save_fit(fit, grid, path)
    back, meta = load_fit(path)
    rebuilt = grid_from_fit(back, meta)
    assert rebuilt.dims == grid.dims
    assert np.array_equal(rebuilt.origin, grid.origin)
    assert rebuilt.geometry is not None
    assert rebuilt.geometry.throat_x == pytest.approx(grid.geometry.throat_x)
    assert np.array_equal(np.flatnonzero(rebuilt.valid), fit.cells)
    # the exact wire round trip broadcasts identical commands
    t0 = build_command_table(grid, fit, 0.1)
    t1 = build_command_table(rebuilt, back, 0.1)
    assert np.array_equal(t1, t0)
    # a simulation reads no target, so the rebuilt lattice carries none
    assert np.isnan(rebuilt.v_target).all()
    assert np.isnan(rebuilt.p_target).all() and np.isnan(rebuilt.rho_target).all()
    assert (rebuilt.geometry, rebuilt.gas) == (grid.geometry, grid.gas)


def test_fit_cell_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fit_cell([1.0, 0.0, 0.0], -0.5, VOL, rng)
    with pytest.raises(ValueError):
        fit_cell([1.0, 0.0, 0.0], 1.0, 0.0, rng)
    for mass in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="agent_mass must be finite"):
            FitConfig(agent_mass=mass)


def test_fit_grid_needs_valid_cells(grid):
    import dataclasses
    empty = dataclasses.replace(grid, node_count=np.zeros_like(grid.node_count))
    with pytest.raises(ValueError, match="no valid cells"):
        fit_grid(empty)


@pytest.mark.parametrize("seed", [7, 2 ** 32 + 5])
def test_fine_grid_fit_equals_per_cell_default_rng_fits(field, seed):
    fine = partition_domain(field, edge_length=0.25)
    gf = fit_grid(fine, FitConfig(rng_seed=seed))
    assert len(gf.cells) > 5000
    replay_grid_fit(fine, gf, seed)


def test_negative_seeds_are_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        FitConfig(rng_seed=-1)


@pytest.mark.parametrize("argv", [
    ["fit", "--partition", "g.csv", "--output", "fit.csv", "--seed", "-1"],
    ["plant-test", "--scenario", "hover", "--out", "plant.csv", "--seed", "-1"],
])
def test_a_negative_cli_seed_is_a_usage_error(argv, tmp_path, monkeypatch,
                                              capsys):
    # rejected before any file is read: g.csv does not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"error: {argv[0]}: " in err
    assert "nonnegative" in err and "rng_seed" not in err
    assert not any(tmp_path.iterdir())


def test_the_fit_reads_perfbench_makes_hold(tmp_path, grid, fit):
    """perfbench counts the fit by ``len(fit.results)`` and
    ``FitConfig.n_min``/``n_max``, and reads the entry cell's set size from
    ``fit.results[cell].n_star``; a fit saved and loaded reads the same."""
    save_fit(fit, grid, tmp_path / "fit.csv")
    back, meta = load_fit(tmp_path / "fit.csv")
    for g, f in ((grid, fit), (grid_from_fit(back, meta), back)):
        assert len(f.results) == len(f.cells) == int(grid.valid.sum())
        assert f.results[injection_rate(g, f)[1]].n_star == SET_SIZE
    assert FitConfig.n_max - FitConfig.n_min + 1 == 1
