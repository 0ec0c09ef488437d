"""Reference-field generator and loader tests.

The headline check re-solves the throat state with an independent method
(bisection on speed instead of a bracketed root find on density) and pins the
result as a frozen constant.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from fluidswarm import (ChokedFlowError, FieldFormatError, GasModel,
                        NozzleGeometry, generate_quasi1d_field, load_field,
                        reference_field, save_field, station_profile)

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
    # area ratio 4 cannot pass a 60 m/s inlet stream subsonically
    with pytest.raises(ChokedFlowError):
        generate_quasi1d_field(inlet_speed=60.0)
    with pytest.raises(ChokedFlowError):
        generate_quasi1d_field(inlet_speed=400.0)  # supersonic inlet


@pytest.mark.parametrize("sound_speed", [340.0, 40.0, 26.0])
def test_brent_port_gives_scipys_fields_bit_for_bit(sound_speed, monkeypatch):
    gas = GasModel(inlet_sound_speed=sound_speed)
    ours = generate_quasi1d_field(gas=gas)
    solves = []

    def scipy_brentq(f, xa, xb, xtol, rtol):
        solves.append(xa)
        return brentq(f, xa, xb, xtol=xtol, rtol=rtol)

    monkeypatch.setattr(reference_field, "_brentq", scipy_brentq)
    theirs = generate_quasi1d_field(gas=gas)
    assert len(solves) == 151
    for name in ("positions", "velocities", "pressures"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name


def test_brent_port_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        reference_field._brentq(lambda x: x * x + 1.0, -1.0, 1.0,
                                xtol=1e-14, rtol=1e-15)
    assert reference_field._brentq(lambda x: x - 0.25, 0.25, 1.0,
                                   xtol=1e-14, rtol=1e-15) == 0.25


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        generate_quasi1d_field(inlet_speed=-1.0)
    with pytest.raises(ValueError):
        generate_quasi1d_field(axial_stations=1)


def test_save_load_round_trip(tmp_path, field):
    path = tmp_path / "field.csv"
    save_field(field, path)
    back = load_field(path, geometry=field.geometry, gas=field.gas)
    assert len(back) == len(field)
    assert np.allclose(back.positions, field.positions, rtol=1e-11, atol=1e-12)
    assert np.allclose(back.velocities, field.velocities, rtol=1e-11, atol=1e-12)
    assert np.allclose(back.pressures, field.pressures, rtol=1e-11, atol=1e-9)


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
    path.write_text("x,y,z,vx,vy,vz,p\n6,1.4,0,1,0,0,-5\n")
    with pytest.raises(FieldFormatError, match="outside the duct"):
        load_field(path, geometry=NozzleGeometry())
    # same file passes without a geometry to check against
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
