"""Reference-field generator and loader tests.

The headline check re-solves the throat state with an independent method
(bisection on speed instead of a bracketed root find on density) and pins the
result as a frozen constant.
"""

import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fluidswarm import (ChokedFlowError, FieldFormatError, GasModel,
                        NozzleGeometry, generate_quasi1d_field, load_field,
                        records, reference_field, save_field, station_profile)

# independently computed throat centerline speed for the default setup
# (3.38 m/s inlet, area ratio 4, sea-level air); see oracle below
THROAT_SPEED = 13.5300421598


def speed_oracle(x, inlet_speed=3.38, geometry=None, gas=None):
    """Duct speed at station x by bisection on the energy balance.

    Works directly in speed: f(v) = h(flux/v) + v^2/2 - H decreases from
    +inf through the subsonic root, so the bracket [tiny, near-sonic] always
    contains exactly one sign change of the right orientation.
    """
    geometry = geometry or NozzleGeometry()
    gas = gas or GasModel()
    g = gas.gamma
    k = gas.inlet_pressure / gas.inlet_density ** g

    def h(rho):
        return g / (g - 1.0) * k * rho ** (g - 1.0)

    mdot = gas.inlet_density * inlet_speed * float(geometry.area(0.0))
    total = h(gas.inlet_density) + 0.5 * inlet_speed ** 2
    flux = mdot / float(geometry.area(x))

    def f(v):
        return h(flux / v) + 0.5 * v * v - total

    lo, hi = 1e-3, 300.0
    assert f(lo) > 0.0 and f(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_throat_speed_matches_independent_solver(field):
    prof = station_profile(field)
    throat = prof[np.argmin(np.abs(prof[:, 0] - 6.0))]
    assert throat[0] == pytest.approx(6.0, abs=1e-12)
    assert throat[1] == pytest.approx(speed_oracle(6.0), rel=1e-9)
    assert throat[1] == pytest.approx(THROAT_SPEED, rel=1e-9)


def test_speed_oracle_matches_every_station(field):
    prof = station_profile(field)
    for x, v, _ in prof[::10]:
        assert v == pytest.approx(speed_oracle(x), rel=1e-9)


def test_centerline_mass_and_energy_conservation(field):
    """rho*v*A and h + v^2/2 must be constant along the duct."""
    gas, geo = field.gas, field.geometry
    prof = station_profile(field)
    x, v, p = prof[:, 0], prof[:, 1], prof[:, 2]
    rho = gas.density_from_gauge(p)
    mdot = rho * v * geo.area(x)
    assert np.ptp(mdot) / mdot[0] < 1e-8
    total = gas.enthalpy(rho) + 0.5 * v ** 2
    assert np.ptp(total) / total[0] < 1e-8


def test_extrema_at_throat(field):
    prof = station_profile(field)
    i = int(np.argmax(prof[:, 1]))
    assert prof[i, 0] == pytest.approx(6.0, abs=1e-12)
    assert int(np.argmin(prof[:, 2])) == i
    # gauge convention: zero at the inlet plane, suction through the duct;
    # the outlet has the inlet's area again so its gauge lands back near zero
    assert prof[0, 2] == pytest.approx(0.0, abs=1e-6)
    assert np.all(prof[1:-1, 2] < 0.0)
    assert abs(prof[-1, 2]) < 1e-6
    assert np.all(prof[:, 1] >= prof[0, 1] - 1e-12)


def test_flow_is_subsonic_everywhere(field):
    gas = field.gas
    rho = gas.density_from_gauge(field.pressures)
    sound = np.sqrt(gas.gamma * gas.pressure(rho) / rho)
    assert np.all(field.speed < sound)


def test_straight_duct_is_uniform():
    geo = NozzleGeometry(inlet_radius=1.0, outlet_radius=1.0, throat_radius=1.0)
    fld = generate_quasi1d_field(geometry=geo, axial_stations=11, radial_rings=2)
    assert np.allclose(fld.speed, 3.38, rtol=1e-9)
    assert np.allclose(fld.pressures, 0.0, atol=1e-6)


def test_choked_inlet_raises():
    # area ratio 4 cannot pass a 60 m/s inlet stream subsonically; the
    # message names the first station that chokes
    with pytest.raises(ChokedFlowError) as exc:
        generate_quasi1d_field(inlet_speed=60.0)
    assert str(exc.value) == (
        "station x=4.9 m (area 2.06374 m^2) chokes at mass flow 519.541 "
        "kg/s; no subsonic solution")
    with pytest.raises(ChokedFlowError) as exc:
        generate_quasi1d_field(gas=GasModel(inlet_sound_speed=5.0))
    assert str(exc.value) == (
        "station x=1.3 m (area 6.30289 m^2) chokes at mass flow 29.2675 "
        "kg/s; no subsonic solution")
    with pytest.raises(ChokedFlowError):
        generate_quasi1d_field(inlet_speed=400.0)  # supersonic inlet


def per_station_solve(geometry, gas, inlet_speed, stations):
    """Speed and gauge pressure of each station, one SciPy ``brentq`` of
    the generator's residual per station. The brackets are the generator's
    array passes: numpy's vectorized power may differ from the C library's
    ``pow`` on a scalar in the last bit, and Brent's steps depend on the
    bracket."""
    rho_in = gas.inlet_density
    mdot = rho_in * inlet_speed * geometry.area(0.0)
    total_h = float(gas.enthalpy(rho_in)) + 0.5 * inlet_speed ** 2
    g, k = gas.gamma, gas.barotropic_constant
    flux = mdot / geometry.area(np.linspace(0.0, geometry.length, stations))
    rho_sonic = (flux * flux / (g * k)) ** (1.0 / (g + 1.0))
    rho_stag = ((g - 1.0) / g * total_h / k) ** (1.0 / (g - 1.0))
    speeds, pressures = [], []
    for fl, lo in zip(flux.tolist(), rho_sonic.tolist()):
        rho = brentq(lambda r: reference_field._residual(gas, r, fl, total_h),
                     lo, rho_stag, xtol=1e-14, rtol=1e-15)
        speeds.append(fl / rho)
        pressures.append(float(gas.pressure(rho)) - gas.inlet_pressure)
    return speeds, pressures


@pytest.mark.parametrize("gas, geometry, stations", [
    *(pytest.param(GasModel(inlet_sound_speed=a), NozzleGeometry(), 151,
                   id=str(a)) for a in (340.0, 40.0, 26.0)),
    pytest.param(GasModel(gamma=1.3, inlet_sound_speed=60.0), NozzleGeometry(),
                 151, id="gamma1.3-60.0"),
    pytest.param(GasModel(), NozzleGeometry(length=9.0, throat_x=2.5,
                                            throat_radius=0.6), 41,
                 id="41-stations"),
])
def test_brent_port_gives_scipys_fields_bit_for_bit(gas, geometry, stations):
    got = generate_quasi1d_field(geometry=geometry, gas=gas,
                                 axial_stations=stations)
    speeds, pressures = per_station_solve(geometry, gas, 3.38, stations)
    nodes = len(got) // stations
    assert np.array_equal(got.velocities[:, 0], np.repeat(speeds, nodes))
    assert np.array_equal(got.pressures, np.repeat(pressures, nodes))


def per_station_field(geometry, gas, inlet_speed, stations, rings):
    """The generator as it was written: one station at a time, its disc
    sampling rebuilt from a list of points for each station."""
    xs = np.linspace(0.0, geometry.length, stations)
    positions, velocities, pressures = [], [], []
    for x, radius, v, p_gauge in zip(
            xs, geometry.radius(xs).tolist(),
            *per_station_solve(geometry, gas, inlet_speed, stations)):
        pts = [(0.0, 0.0)]
        for kk in range(1, rings + 1):
            rr = radius * kk / rings
            m = 8 * kk
            ang = 2.0 * np.pi * np.arange(m) / m
            pts.extend(zip(rr * np.cos(ang), rr * np.sin(ang)))
        offs = np.asarray(pts)
        n = len(offs)
        positions.append(np.column_stack([np.full(n, x), offs[:, 0],
                                          offs[:, 1]]))
        velocities.append(np.column_stack([np.full(n, v), np.zeros(n),
                                           np.zeros(n)]))
        pressures.append(np.full(n, p_gauge))
    return np.vstack(positions), np.vstack(velocities), np.concatenate(pressures)


@pytest.mark.parametrize("geometry, stations, rings", [
    (NozzleGeometry(), 151, 6),
    (NozzleGeometry(length=9.0, throat_x=2.5, throat_radius=0.6), 41, 3),
    (NozzleGeometry(), 7, 1),
])
def test_scaled_disc_pattern_equals_the_per_station_construction(
        geometry, stations, rings):
    gas = GasModel()
    got = generate_quasi1d_field(geometry=geometry, gas=gas,
                                 axial_stations=stations, radial_rings=rings)
    want = per_station_field(geometry, gas, 3.38, stations, rings)
    for name, column in zip(("positions", "velocities", "pressures"), want):
        assert np.array_equal(getattr(got, name), column), name


def lanes_of(*funcs):
    """``f(x, lanes)`` that evaluates lane i with ``funcs[i]``."""
    def f(x, lanes):
        return np.array([funcs[i](v) for i, v in zip(lanes.tolist(),
                                                     x.tolist())])
    return f


def test_brent_port_rejects_a_bracket_without_a_sign_change():
    def brent(f, xa, xb, **kw):
        return reference_field._brentq_lanes(f, xa, xb, xtol=1e-14,
                                             rtol=1e-15, **kw)

    def line(x):
        return x - 0.25

    def cube(x):
        return x ** 3 - 2.0 * x - 5.0

    # one lane without a sign change fails the whole solve
    with pytest.raises(ValueError, match="different signs"):
        brent(lanes_of(line, lambda x: x * x + 1.0, cube),
              [0.0, -1.0, 2.0], [1.0, 1.0, 3.0])
    # a lane whose bracket end is a root returns it; the others solve
    got = brent(lanes_of(line, cube, line), [0.25, 2.0, 0.0], [1.0, 3.0, 0.25])
    assert got.tolist() == [0.25, brentq(cube, 2.0, 3.0, xtol=1e-14,
                                         rtol=1e-15), 0.25]
    assert brent(lanes_of(line, line), [0.25, 0.0], [1.0, 0.25]).tolist() \
        == [0.25, 0.25]
    # a lane still open after 100 steps fails the solve: with no tolerance
    # only an exact zero stops it, and x - 0.1 has none in floats
    with pytest.raises(RuntimeError, match="within 100 steps"):
        reference_field._brentq_lanes(lanes_of(cube, lambda x: x - 0.1),
                                      [2.0, 0.0], [3.0, 1.0], xtol=0.0,
                                      rtol=0.0)


@pytest.mark.parametrize("func, xa, xb", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: np.tanh(50.0 * (x - 0.3)), -1.0, 2.0),
    (lambda x: np.exp(x) - 1e4, 0.0, 20.0),
    (lambda x: x ** 9 - 1e-3, 0.0, 2.0),
    (lambda x: -1.0 if x < 0.3 else 1.0 + x, 0.0, 1.0),
    (lambda x: (x - 0.4) * (1.0 + 0.8 * np.sin(20.0 * x)), 0.0, 1.0),
], ids=["cubic", "tanh", "exp", "ninth-power", "step", "wavy"])
def test_brent_lanes_take_scipys_steps(func, xa, xb):
    """Each lane returns SciPy's float, on functions that send Brent
    through bisections, secant and inverse quadratic steps, alone or beside
    lanes that stop sooner or later."""
    want = brentq(func, xa, xb, xtol=1e-14, rtol=1e-15)
    quick = brentq(lambda x: x - 0.25, 0.0, 1.0, xtol=1e-14, rtol=1e-15)
    got = reference_field._brentq_lanes(
        lanes_of(func, lambda x: x - 0.25, func), [xa, 0.0, xb],
        [xb, 1.0, xa], xtol=1e-14, rtol=1e-15)
    assert got[0] == want and got[1] == quick
    assert got[2] == brentq(func, xb, xa, xtol=1e-14, rtol=1e-15)


def test_generator_argument_validation():
    for speed in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"inlet_speed must be finite and positive; got {speed!r}")):
            generate_quasi1d_field(inlet_speed=speed)
    with pytest.raises(ValueError, match=re.escape(
            "axial_stations must be an integer of at least 2; got 1")):
        generate_quasi1d_field(axial_stations=1)


def test_save_load_round_trip(tmp_path, field):
    path = tmp_path / "field.csv"
    save_field(field, path)
    back = load_field(path)
    assert len(back) == len(field)
    assert np.allclose(back.positions, field.positions, rtol=1e-11, atol=1e-12)
    assert np.allclose(back.velocities, field.velocities, rtol=1e-11, atol=1e-12)
    assert np.allclose(back.pressures, field.pressures, rtol=1e-11, atol=1e-9)


def write_field(path, meta, rows="0,0,0,1,0,0,0\n6,0.5,0,2,0,0,-5\n"):
    """A field file with ``meta`` (and ``cells``) on its metadata line."""
    meta = {**meta, "cells": rows.count("\n")}
    path.write_text("# " + " ".join(f"{k}={v!r}" for k, v in meta.items())
                    + "\nx,y,z,vx,vy,vz,p\n" + rows)


def test_the_field_file_carries_its_geometry_and_gas(tmp_path):
    geometry = NozzleGeometry(length=12.0, throat_radius=0.6, throat_x=5.0)
    gas = GasModel(gamma=1.3, inlet_sound_speed=60.0)
    fld = generate_quasi1d_field(geometry=geometry, gas=gas,
                                 axial_stations=11, radial_rings=2)
    path = tmp_path / "field.csv"
    save_field(fld, path)
    back = load_field(path)
    assert back.geometry == geometry and back.gas == gas
    # each part is written alone when the other is absent, and a file with
    # neither has no metadata line and loads with neither
    for part in ({"geometry": None}, {"gas": None},
                 {"geometry": None, "gas": None}):
        save_field(replace(fld, **part), path)
        back = load_field(path)
        assert (back.geometry, back.gas) == (
            None if "geometry" in part else geometry,
            None if "gas" in part else gas)
    assert path.read_text().startswith(records.FIELD_HEADER + "\n")


def test_load_field_rejects_partial_or_invalid_metadata(tmp_path):
    path = tmp_path / "field.csv"
    geometry, gas = asdict(NozzleGeometry()), asdict(GasModel())
    for meta, message in [
            ({k: v for k, v in geometry.items() if k != "throat_x"},
             r"missing NozzleGeometry metadata \['throat_x'\]"),
            ({**geometry, "gamma": 1.4},
             r"missing GasModel metadata \['inlet_density', "
             r"'inlet_sound_speed'\]"),
            ({**geometry, "throat_radius": 2.0},
             "NozzleGeometry metadata: throat_radius must not exceed")]:
        write_field(path, meta)
        with pytest.raises(FieldFormatError, match=message):
            load_field(path)
    # the duct on the line checks the nodes without an argument
    write_field(path, {**geometry, **gas}, rows="6,1.4,0,1,0,0,-5\n")
    with pytest.raises(FieldFormatError, match="outside the duct"):
        load_field(path)
    # other keys alone name no duct
    write_field(path, {"source": 3})
    assert load_field(path).geometry is None


def test_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FieldFormatError, match="header"):
        load_field(path)


def test_loader_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z,vx,vy,vz,p\n0,0,0,1,0,0,0\n0,0,0,1,0\n")
    with pytest.raises(FieldFormatError, match=r":3:"):
        load_field(path)
    path.write_text("x,y,z,vx,vy,vz,p\n0,0,0,nan,0,0,0\n")
    with pytest.raises(FieldFormatError, match="non-finite"):
        load_field(path)
    path.write_text("x,y,z,vx,vy,vz,p\n")
    with pytest.raises(FieldFormatError, match="no data"):
        load_field(path)


def test_loader_geometry_validation(tmp_path):
    path = tmp_path / "out.csv"
    # node at (6, 1.4, 0) sits outside the 0.75 m throat
    write_field(path, asdict(NozzleGeometry()), rows="6,1.4,0,1,0,0,-5\n")
    with pytest.raises(FieldFormatError, match="outside the duct"):
        load_field(path)
    # the same rows pass without a geometry to check against
    path.write_text("x,y,z,vx,vy,vz,p\n6,1.4,0,1,0,0,-5\n")
    fld = load_field(path)
    assert len(fld) == 1


def test_geometry_radius_profile():
    geo = NozzleGeometry()
    assert geo.radius(0.0) == pytest.approx(1.5)
    assert geo.radius(6.0) == pytest.approx(0.75)
    assert geo.radius(15.0) == pytest.approx(1.5)
    # half-cosine blend midpoints
    assert geo.radius(3.0) == pytest.approx((1.5 + 0.75) / 2.0)
    assert geo.radius(10.5) == pytest.approx((1.5 + 0.75) / 2.0)
    xs = np.linspace(0.0, 6.0, 200)
    assert np.all(np.diff(geo.radius(xs)) <= 1e-12)
    xs = np.linspace(6.0, 15.0, 200)
    assert np.all(np.diff(geo.radius(xs)) >= -1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        NozzleGeometry(throat_x=0.0)
    with pytest.raises(ValueError):
        NozzleGeometry(throat_radius=2.0)  # wider than the ends
    with pytest.raises(ValueError):
        NozzleGeometry(inlet_radius=-1.0)
    for name in ("inlet_radius", "outlet_radius", "throat_radius"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be finite and positive; got {value!r}")):
                NozzleGeometry(**{name: value})
    for length in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="length must be finite"):
            NozzleGeometry(length=length)


def test_gas_model_validation():
    """The closure needs gamma > 1 (h divides by gamma - 1) and a real,
    positive inlet state."""
    for gamma in (1.0, 0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite and above 1"):
            GasModel(gamma=gamma)
    for name in ("inlet_density", "inlet_sound_speed"):
        for value in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GasModel(**{name: value})
    assert GasModel(gamma=1.0001).gamma == 1.0001


def test_gas_model_reference_values():
    gas = GasModel()
    # a^2 = gamma P / rho: 1.225 * 340^2 / 1.4
    assert gas.inlet_pressure == pytest.approx(101150.0, rel=1e-12)
    rho = gas.density_from_gauge(np.array([0.0, -50.0, -105.0]))
    assert rho[0] == pytest.approx(1.225, rel=1e-12)
    back = gas.pressure(rho) - gas.inlet_pressure
    assert np.allclose(back, [0.0, -50.0, -105.0], atol=1e-9)
    with pytest.raises(ValueError):
        gas.density_from_gauge(-2e5)  # below vacuum


def test_geometry_contains():
    geo = NozzleGeometry()
    pts = [[0.0, 0.0, 0.0], [6.0, 0.7, 0.0], [6.0, 1.0, 0.0],
           [-1.0, 0.0, 0.0], [16.0, 0.0, 0.0]]
    assert geo.contains(pts).tolist() == [True, True, False, False, False]


def where_radius(geo, x):
    """``radius`` as it was written: both blends everywhere, one picked by
    ``np.where``."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, geo.length)
    up = geo.throat_radius + (geo.inlet_radius - geo.throat_radius) \
        * 0.5 * (1.0 + np.cos(np.pi * x / geo.throat_x))
    dn = geo.throat_radius + (geo.outlet_radius - geo.throat_radius) \
        * 0.5 * (1.0 - np.cos(np.pi * (x - geo.throat_x)
                              / (geo.length - geo.throat_x)))
    return np.where(x <= geo.throat_x, up, dn)


@pytest.mark.parametrize("geo", [
    NozzleGeometry(),
    NozzleGeometry(length=9.0, inlet_radius=1.2, outlet_radius=0.9,
                   throat_radius=0.9, throat_x=2.5)])
def test_branchwise_radius_equals_the_where_formula(geo):
    """At the span ends, at the throat and one ulp to either side of it,
    outside the span, at NaN and +-inf, and on random stations, for arrays
    of every length and for scalars; and never below the throat radius."""
    tx, length = geo.throat_x, geo.length
    special = [0.0, -0.0, tx, np.nextafter(tx, 0.0), np.nextafter(tx, np.inf),
               length, np.nextafter(length, 0.0), -1.0, length + 1.0,
               np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(9)
    xs = np.concatenate([special, rng.uniform(-1.0, length + 1.0, 500)])
    for n in (1, 2, 7, 64, len(xs)):
        got, want = geo.radius(xs[:n]), where_radius(geo, xs[:n])
        assert np.array_equal(got, want, equal_nan=True)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    for x in special:
        got = geo.radius(x)
        assert np.shape(got) == ()
        assert np.array_equal(got, where_radius(geo, x), equal_nan=True)
    r = geo.radius(xs[~np.isnan(xs)])
    assert np.all(r >= geo.throat_radius)
    assert geo.radius(tx) == geo.throat_radius
