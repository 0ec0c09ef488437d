"""Metrics tests on hand-built traces where every average is known exactly.

The fakes mirror the part of the trace that ``derive_fields`` reads: config
and plant attributes, a frame clock and a frame table.
"""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fluidswarm import (ControlVolumeGrid, NozzleGeometry, PlantParams,
                        SimConfig, assign_cell, centerline_agreement,
                        centerline_profile, default_transient, derive_fields,
                        export_centerline, export_slice, field_agreement,
                        load_run, metrics_report, partition_domain,
                        run_simulation, save_metrics, save_run,
                        transit_time_estimate, trend_check)
from fluidswarm import swarm_sim
from fluidswarm.metrics import MetricsReport
from fluidswarm.primitives import pressure_coefficient
from fluidswarm.swarm_sim import EVENT_KINDS, FrameChunk
from reference import (export_centerline_rows, export_slice_rows,
                       frame_rows, frame_table, internal_pressure,
                       mass_mean_velocity, per_frame_fields,
                       save_metrics_lines, swarm_pressure)

COEFF = 2.0 / (3.0 * 0.125)  # unit mass in a 0.5 m cell


def lattice(nx=30, ny=1, nz=1, speeds=None, p=None, rho=None):
    """All-valid cubic lattice with simple targets."""
    dims = (nx, ny, nz)
    m = nx * ny * nz
    v = np.zeros((m, 3))
    v[:, 0] = 2.0 if speeds is None else np.asarray(speeds, dtype=float)
    return ControlVolumeGrid(
        origin=np.array([0.0, -0.25 * ny, -0.25 * nz]), edge_length=0.5,
        dims=dims, inside=np.ones(m, dtype=bool),
        node_count=np.ones(m, dtype=np.int64), v_target=v,
        p_target=-np.linspace(1.0, 2.0, m) if p is None else np.asarray(p, float),
        rho_target=np.ones(m) if rho is None else np.asarray(rho, float),
        geometry=NozzleGeometry())


def rec(cells, counts, means, sumv2=None):
    """One frame's rows from per-cell mean velocities; zero spread by
    default, which a one-agent row always has."""
    cells = np.asarray(cells, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    vsum = means * counts[:, None]
    if sumv2 is None:
        sumv2 = swarm_sim.speed2(vsum.T) / counts
    return FrameChunk(cells, counts, vsum, np.asarray(sumv2, float))


def fake_trace(frames, dt=1.0, scale=1.0, mass=1.0):
    n = len(frames)
    return SimpleNamespace(config=SimpleNamespace(scale=scale,
                                                  duration=n * dt, dt=dt),
                           plant=PlantParams(mass=mass),
                           frame_t=(np.arange(n) + 1) * dt,
                           frames=frame_table(frames))


def test_single_agent_constant_stream():
    grid = lattice(nx=4)
    frames = [rec([0], [1], [[2.0, 0.0, 0.0]]) for _ in range(10)]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    assert np.allclose(d.velocity[0], [2.0, 0.0, 0.0])
    assert d.occupancy[0] == 1.0
    assert d.duty[0] == 1.0
    assert d.concentration[0] == pytest.approx(8.0)
    assert d.pressure_int[0] == pytest.approx(0.0, abs=1e-15)
    assert d.pressure_dev[0] == pytest.approx(0.0, abs=1e-15)
    assert d.valid[0] and not d.valid[1:].any()


def test_pressure_decomposition_hand_values():
    grid = lattice(nx=4, speeds=[1.5, 2.0, 2.0, 2.0])
    # two agents at (1,0,0) and (3,0,0): mean 2, sum v^2 = 10
    frames = [rec([0], [2], [[2.0, 0.0, 0.0]], sumv2=[10.0])]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    # deviations off the 1.5 m/s target: 0.5^2 + 1.5^2 = 2.5
    assert d.pressure_dev[0] == pytest.approx(COEFF * 2.5, rel=1e-12)
    # centered spread: 10 - 16/2 = 2
    assert d.pressure_int[0] == pytest.approx(COEFF * 2.0, rel=1e-12)


def test_averages_are_conditional_on_occupancy():
    grid = lattice(nx=4)
    busy = rec([0], [2], [[1.0, 0.0, 0.0]])
    idle = rec([], [], np.empty((0, 3)))
    d = derive_fields(fake_trace([busy, idle, busy, idle, busy, idle, busy,
                                  idle]), grid, transient=0.0)
    assert d.occupancy[0] == pytest.approx(2.0)  # not diluted by empty frames
    assert d.duty[0] == pytest.approx(0.5)
    assert d.concentration[0] == pytest.approx(16.0)
    assert d.occupied_frames[0] == 4
    assert d.frames_used == 8


def test_never_occupied_cells_are_excluded():
    grid = lattice(nx=6)
    frames = [rec([0, 2], [1, 1], [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    assert not d.valid[1]
    assert np.isnan(d.velocity[1]).all()
    out = field_agreement(d, grid)
    assert out["cells_compared"] == 2


def test_scores_are_insensitive_to_the_command_scale():
    rng = np.random.default_rng(8)
    speeds = rng.uniform(1.0, 3.0, 12)
    # agents fly exactly 0.1x the targets, so their deviations, 0.81 of the
    # squared target speeds, follow pressure targets of minus those squares
    grid = lattice(nx=12, speeds=speeds, p=-speeds ** 2)
    frames = [rec(np.arange(12), np.ones(12, int), 0.1 * grid.v_target)] * 3
    out = field_agreement(derive_fields(fake_trace(frames), grid,
                                        transient=0.0), grid)
    assert out["rmse_velocity"] == pytest.approx(0.0, abs=1e-12)
    assert out["rmse_pressure"] == pytest.approx(0.0, abs=1e-12)


def test_known_rmse_value():
    grid = lattice(nx=2, speeds=[1.0, 2.0], p=[-1.0, -2.0])
    # two agents in each cell, mean 2 m/s: both at 2 m/s off a 1 m/s
    # target, and at 1 and 3 m/s off a 2 m/s target, so both deviate by 2
    frames = [rec([0, 1], [2, 2], [[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                  sumv2=[8.0, 10.0])]
    out = field_agreement(derive_fields(fake_trace(frames), grid,
                                        transient=0.0), grid)
    # normalized speeds: derived (1, 1) vs target (0.5, 1)
    assert out["rmse_velocity"] == pytest.approx(np.sqrt(0.125), rel=1e-12)
    # normalized pressures: derived (1, 1) vs target (0.5, 1)
    assert out["rmse_pressure"] == pytest.approx(np.sqrt(0.125), rel=1e-12)
    assert out["rmse_density"] == pytest.approx(0.0, abs=1e-12)


def test_transient_excludes_early_frames():
    grid = lattice(nx=4)
    early = rec([0], [1], [[9.0, 0.0, 0.0]])
    late = rec([0], [1], [[2.0, 0.0, 0.0]])
    trace = fake_trace([early] * 5 + [late] * 5)  # dt=1: t = 1..10
    d = derive_fields(trace, grid, transient=5.0)
    assert d.frames_used == 5
    assert np.allclose(d.velocity[0], [2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="transient"):
        derive_fields(trace, grid, transient=100.0)


def test_frame_order_does_not_matter():
    rng = np.random.default_rng(3)
    grid = lattice(nx=5)
    frames = [rec([i % 5], [2 + i % 3], [[1.0 + i, 0.0, 0.0]],
                  sumv2=[(2 + i % 3) * (1.0 + i) ** 2 + 0.1 * i])
              for i in range(12)]
    trace = fake_trace(frames)
    d0 = derive_fields(trace, grid, transient=0.0)
    perm = rng.permutation(12)
    shuffled = fake_trace([frames[i] for i in perm])
    shuffled.frame_t = trace.frame_t[perm]
    d1 = derive_fields(shuffled, grid, transient=0.0)
    assert np.allclose(d1.velocity, d0.velocity, equal_nan=True)
    assert np.allclose(d1.pressure_dev, d0.pressure_dev, equal_nan=True)
    assert np.array_equal(d1.occupied_frames, d0.occupied_frames)


def test_degenerate_normalization_is_an_error():
    grid = lattice(nx=3, speeds=[0.0, 0.0, 0.0])
    frames = [rec([0, 1, 2], [1, 1, 1], np.zeros((3, 3)))]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    with pytest.raises(ValueError, match="velocity normalization"):
        field_agreement(d, grid)
    grid2 = lattice(nx=3, p=[1.0, 1.0, 1.0])  # positive "gauge" targets
    frames2 = [rec([0, 1, 2], [1, 1, 1], 0.5 * grid2.v_target)]
    d2 = derive_fields(fake_trace(frames2), grid2, transient=0.0)
    with pytest.raises(ValueError, match="pressure normalization"):
        field_agreement(d2, grid2)


def make_duct_like_trace(grid, inlet=8, throat=2, exit_=8, mid=4,
                         throat_speed=2.0, base_speed=1.0, frames=4):
    """Occupancy dips and speed peaks at the throat, like the real flow."""
    x = grid.centers()[:, 0]
    counts = np.full(grid.num_cells, mid, dtype=np.int64)
    counts[x < 2.0] = inlet
    counts[np.abs(x - 6.0) < 1.0] = throat
    counts[x > 13.0] = exit_
    speeds = np.where(np.abs(x - 6.0) < 1.0, throat_speed, base_speed)
    means = np.zeros((grid.num_cells, 3))
    means[:, 0] = speeds
    cells = np.arange(grid.num_cells)
    return fake_trace([rec(cells, counts, means)] * frames)


def test_trend_check_passes_on_the_right_shape():
    grid = lattice(nx=30)
    d = derive_fields(make_duct_like_trace(grid), grid, transient=0.0)
    out = trend_check(d, grid)
    assert out["density_trend_ok"] and out["speed_trend_ok"]
    assert out["density_inlet"] == pytest.approx(64.0)  # 8 agents / 0.125 m3
    assert out["density_throat"] == pytest.approx(16.0)
    assert out["speed_throat"] == pytest.approx(2.0)


def test_trend_check_fails_on_uniform_flow():
    grid = lattice(nx=30)
    d = derive_fields(make_duct_like_trace(grid, inlet=4, throat=4, exit_=4,
                                           throat_speed=1.0), grid,
                      transient=0.0)
    out = trend_check(d, grid)
    assert not out["density_trend_ok"]
    assert not out["speed_trend_ok"]


def test_trend_check_inconclusive_without_exit_data():
    grid = lattice(nx=30)
    cells = np.arange(20)  # nothing ever reaches the exit region
    frames = [rec(cells, np.ones(20, int), np.tile([1.0, 0.0, 0.0], (20, 1)))]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    with pytest.raises(ValueError, match="no valid exit cells"):
        trend_check(d, grid)


def test_centerline_profile_and_agreement(tmp_path):
    speeds = np.linspace(1.0, 3.0, 10)
    grid = lattice(nx=10, speeds=speeds, p=-speeds ** 2)
    frames = [rec(np.arange(10), np.ones(10, int), 0.5 * grid.v_target)] * 2
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    prof = centerline_profile(d, grid)
    assert np.allclose(prof["x"], grid.centers()[:, 0])
    assert np.allclose(prof["target_speed"], np.linspace(1.0, 3.0, 10))
    assert np.allclose(prof["derived_speed"], 0.5 * np.linspace(1.0, 3.0, 10))
    out = centerline_agreement(prof)
    assert out["centerline_speed_rms"] == pytest.approx(0.0, abs=1e-12)
    assert out["centerline_pressure_rms"] == pytest.approx(0.0, abs=1e-12)

    path = tmp_path / "centerline.csv"
    export_centerline(prof, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (10, 7)
    assert np.allclose(rows[:, 1], prof["target_speed"], rtol=1e-11)
    assert np.allclose(rows[:, 4], prof["derived_pressure"], rtol=1e-11)


def test_export_slice_writes_exactly_one_layer(tmp_path):
    grid = lattice(nx=2, ny=2, nz=2, speeds=np.arange(1.0, 9.0))
    cells = np.arange(8)
    frames = [rec(cells, np.ones(8, int), 0.5 * grid.v_target)]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    path = tmp_path / "slice.csv"
    export_slice(d, grid, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("x,y,z,occupancy")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (4, 21)  # 2x2 cells in the single +y layer
    assert np.allclose(rows[:, 1], 0.25)  # the tie resolves to +y
    # normalized speed column: derived speed over the grid maximum
    speeds = np.linalg.norm(rows[:, 6:9], axis=1)
    assert np.allclose(rows[:, 15], speeds / d.speed[grid.valid].max(),
                       rtol=1e-10)


def tie_lattice_report():
    """The 2x2x2 lattice above, scored: its cut is the +y layer of a tie."""
    grid = lattice(nx=2, ny=2, nz=2, speeds=np.arange(1.0, 9.0))
    frames = [rec(np.arange(8), np.ones(8, int), 0.5 * grid.v_target)]
    d = derive_fields(fake_trace(frames), grid, transient=0.0)
    profile = centerline_profile(d, grid)
    values = {**field_agreement(d, grid), **centerline_agreement(profile)}
    return MetricsReport(values, d, profile), grid


@pytest.mark.parametrize("case", ["standard", "tie", "no_gas"])
def test_analysis_files_equal_the_per_row_writers(tmp_path, field, grid,
                                                  trace60, case):
    """``slice.csv``, ``centerline.csv`` and ``metrics.txt`` hold the bytes
    the per-row writers wrote, on the standard run, on the 2x2x2 lattice and
    on the standard run scored against a grid with no gas; the library
    writers raise no warning."""
    if case == "tie":
        report, grid = tie_lattice_report()
    else:
        if case == "no_gas":
            grid = partition_domain(replace(field, gas=None))
        report = metrics_report(trace60, grid)
    files = {"slice.csv": (export_slice, export_slice_rows, report.derived,
                           grid),
             "centerline.csv": (export_centerline, export_centerline_rows,
                                report.profile),
             "metrics.txt": (save_metrics, save_metrics_lines, report)}
    for name, (write, reference, *args) in files.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write(*args, tmp_path / name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # nanmax over all-NaN targets
            reference(*args, tmp_path / ("reference_" + name))
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / ("reference_" + name)).read_bytes()), name
    rows = np.loadtxt(tmp_path / "slice.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert len(rows) > 0
    assert np.isnan(rows[:, -1]).all() == (case == "no_gas")
    assert np.isnan(report.values["rmse_density"]) == (case == "no_gas")


def test_degenerate_centerline_normalization_is_an_error():
    grid = lattice(nx=10, speeds=np.linspace(1.0, 3.0, 10))
    frames = [rec(np.arange(10), np.ones(10, int), 0.5 * grid.v_target)]
    prof = centerline_profile(derive_fields(fake_trace(frames), grid,
                                            transient=0.0), grid)
    assert centerline_agreement(prof)["centerline_speed_rms"] == 0.0
    with pytest.raises(ValueError,
                       match="^zero velocity normalization constant$"):
        centerline_agreement({**prof, "derived_speed": np.full(10, np.nan)})
    with pytest.raises(ValueError,
                       match="^zero pressure normalization constant$"):
        centerline_agreement({**prof,
                              "target_pressure": -prof["target_pressure"]})


def test_transit_estimate_and_transient():
    grid = lattice(nx=30)  # uniform 2 m/s targets
    assert transit_time_estimate(grid, 0.5) == pytest.approx(15.0, rel=1e-12)
    assert transit_time_estimate(grid, 1.0) == pytest.approx(7.5, rel=1e-12)
    assert default_transient(60.0, 26.3) == pytest.approx(30.0)  # capped
    assert default_transient(1000.0, 10.0) == pytest.approx(20.0)


def test_metrics_report_on_the_standard_run(tmp_path, trace60, grid):
    report = metrics_report(trace60, grid)
    v = report.values
    for key in ("rmse_velocity", "rmse_pressure", "rmse_density",
                "density_trend_ok", "speed_trend_ok", "centerline_speed_rms",
                "centerline_pressure_rms", "exit_rate", "inject_rate",
                "transit_estimate", "transient", "final_population"):
        assert key in v, key
    assert v["transient"] == pytest.approx(30.0)  # capped at duration/2
    assert v["exit_rate"] > 0.0
    assert v["final_population"] > 0

    path = tmp_path / "metrics.txt"
    save_metrics(report, path)
    text = path.read_text()
    assert "rmse_velocity=" in text
    assert "density_trend_ok=1" in text


def test_reloaded_run_reports_the_same_metrics(tmp_path, trace60, grid):
    save_run(trace60, grid, tmp_path)
    back = metrics_report(load_run(tmp_path)[0], grid).values
    assert back == metrics_report(trace60, grid).values


def test_one_frame_fields_equal_the_per_agent_formulas(grid, fit,
                                                       monkeypatch):
    # a 2 kg, 3 g platform, so the mass shows in the fields
    heavy = replace(fit, config=replace(fit.config, agent_mass=2.0))
    plant = PlantParams(mass=2.0, thrust_to_weight=3.0)
    monkeypatch.setattr(swarm_sim, "TRAJECTORY_STRIDE", 1)
    trace = run_simulation(grid, heavy, SimConfig(
        duration=4.0, seed=2, record_trajectories=True), plant)
    t, _ids, pos, vel = trace.trajectories[-1]
    assert t == trace.frame_t[-1]
    d = derive_fields(trace, grid, transient=trace.frame_t[-2])
    assert d.frames_used == 1
    cells = assign_cell(pos, grid)
    assert np.array_equal(np.flatnonzero(d.valid), np.unique(cells))
    vol = grid.cell_volume
    checked = 0
    for c in np.unique(cells):
        v = vel[cells == c]
        m = np.full(len(v), plant.mass)
        # the sum-of-squares route cancels: rounding of the total pressure
        total = swarm_pressure(m, v, vol)
        want = internal_pressure(m, v, vol, mass_mean_velocity(m, v))
        assert abs(d.pressure_int[c] - want) <= 1e-9 * want + 1e-12 * total
        if grid.valid[c]:
            assert d.pressure_dev[c] == pytest.approx(
                internal_pressure(m, v, vol, grid.v_target[c]), rel=1e-9)
            checked += 1
    assert checked > 10


def test_deviation_pressure_equals_the_per_agent_sums(grid, fit,
                                                      monkeypatch):
    """``pressure_dev``, which ``derive_fields`` expands from the frame
    sums, equals the per-agent form: per frame, the sum of |v - v_target|^2
    over a cell's agents in a stride-1 trajectory snapshot, times the
    pressure coefficient, averaged over the frames the cell was occupied.
    Cells without a target are NaN in both."""
    monkeypatch.setattr(swarm_sim, "TRAJECTORY_STRIDE", 1)
    trace = run_simulation(grid, fit, SimConfig(
        duration=10.0, seed=3, record_trajectories=True))
    transient = 4.0
    d = derive_fields(trace, grid, transient=transient)
    total = np.zeros(grid.num_cells)
    frames = np.zeros(grid.num_cells, dtype=np.int64)
    for t, _ids, pos, vel in trace.trajectories:
        if t <= transient:
            continue
        cells = assign_cell(pos, grid)
        dv = vel - grid.v_target[cells]
        np.add.at(total, cells, np.einsum("ij,ij->i", dv, dv))
        frames[np.unique(cells)] += 1
    assert np.array_equal(frames, d.occupied_frames)
    with np.errstate(invalid="ignore"):
        want = pressure_coefficient(trace.plant.mass, grid.cell_volume) \
            * total / frames
    assert np.array_equal(np.isnan(d.pressure_dev), np.isnan(want))
    fin = np.isfinite(want)
    assert fin.sum() > 50 and (d.valid & ~fin).any()
    assert np.allclose(d.pressure_dev[fin], want[fin], rtol=1e-12, atol=0)


def test_derived_fields_equal_the_per_frame_loop_bit_for_bit(trace60, grid):
    # the run has frames holding agents in cells without a target
    nan_frames = sum(bool(np.isnan(grid.v_target[r.cells]).any())
                     for r in frame_rows(trace60.frames))
    assert nan_frames > len(trace60.frame_t) // 2
    fields = per_frame_fields(trace60, grid)
    d = derive_fields(trace60, grid, fields["transient"])
    for name, want in fields.items():
        got = getattr(d, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name   # NaNs included
        else:
            assert got == want, name
    assert d.velocity.flags.c_contiguous


@pytest.mark.parametrize("chunk_rows, read_rows", [(97, 61), (2000, None)])
def test_derived_fields_across_chunk_seams_equal_the_per_frame_loop(
        grid, fit, monkeypatch, chunk_rows, read_rows):
    """Small chunks put many seams in the averaging window: between frames,
    each in a chunk of its own (97 rows, fewer than a frame holds), with the
    61-row pieces ``derive_fields`` reads cutting frames apart too; and
    between chunks of several frames (2,000 rows). The fields still equal
    the per-frame loop's bit for bit: every per-cell sum carries across the
    seams in frame order."""
    monkeypatch.setattr(swarm_sim, "FRAME_CHUNK_ROWS", chunk_rows)
    if read_rows:
        monkeypatch.setattr(swarm_sim, "READ_ROWS", read_rows)
    trace = run_simulation(grid, fit, SimConfig(duration=20.0, seed=4))
    want = per_frame_fields(trace, grid)
    window = trace.frames.offsets[-1 - want["frames_used"]]
    assert trace.frames.offsets[-1] - window > 20 * chunk_rows
    d = derive_fields(trace, grid, want["transient"])
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(d, name), value, equal_nan=True), name
        else:
            assert getattr(d, name) == value, name


def event_counts(trace, transient):
    """Reference: the report's counts taken event by event. Injections
    happen at the start of their frame, every other event at its end."""
    window = trace.config.duration - transient
    frame_start = np.arange(len(trace.frame_t)) * trace.config.dt
    rows = list(zip(trace.events.frame.tolist(), trace.events.kind.tolist()))

    def count(kind, after=-np.inf):
        code = EVENT_KINDS.index(kind)
        clock = frame_start if kind == "inject" else trace.frame_t
        return sum(1 for k, c in rows if c == code and clock[k] > after)

    return {"exit_rate": count("retire", transient) / window,
            "inject_rate": count("inject", transient) / window,
            "collisions_overtake": count("collision_overtake"),
            "wall_escapes": count("wall_escape"),
            "faults": count("fault")}


COUNT_CASES = {
    "tunnel": SimConfig(case="tunnel_seeding", duration=20.0, seed=1),
    "collisions": SimConfig(duration=30.0, seed=0, batch_size=17,
                            collisions=True),
}


@pytest.mark.parametrize("case", ["reservoir", *COUNT_CASES])
def test_report_counts_equal_the_event_counts(trace60, grid, fit, monkeypatch,
                                              case):
    monkeypatch.setattr(swarm_sim, "MIN_APPROACH_SPEED", 0.02)
    trace = trace60 if case == "reservoir" \
        else run_simulation(grid, fit, COUNT_CASES[case])
    # the default transient and one on a frame boundary
    for transient in (None, 10.0):
        values = metrics_report(trace, grid, transient=transient).values
        ref = event_counts(trace, values["transient"])
        got = {k: values[k] for k in ref}
        assert repr(got) == repr(ref)
    assert trace.totals["inject"] > 0 and trace.totals["retire"] > 0
    if case == "collisions":
        assert ref["collisions_overtake"] > 0
