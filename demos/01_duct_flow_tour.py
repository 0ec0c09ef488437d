"""Tour of the analytic duct reference flow.

Solves the converging/diverging duct at the default settings, prints a
station table, and verifies the two conservation identities the generator
promises (constant mass flux and constant total enthalpy).
"""

import numpy as np

from fluidswarm import ChokedFlowError, generate_quasi1d_field, station_profile

field = generate_quasi1d_field()
geo, gas = field.geometry, field.gas
prof = station_profile(field)

print(f"duct: length {geo.length} m, inlet radius {geo.inlet_radius} m, "
      f"throat radius {geo.throat_radius} m at x = {geo.throat_x} m")
print(f"{len(field.positions)} field nodes, {len(prof)} axial stations\n")

print("   x [m]   radius [m]   speed [m/s]   gauge p [Pa]")
for row in prof[::15]:
    x, v, p = row
    print(f"  {x:6.2f}   {geo.radius(x):8.3f}   {v:10.4f}   {p:12.4f}")

i = int(np.argmax(prof[:, 1]))
print(f"\npeak speed {prof[i, 1]:.6f} m/s at x = {prof[i, 0]:.2f} m "
      f"(suction {prof[i, 2]:.2f} Pa)")

# conservation residuals across stations
x, v, p = prof[:, 0], prof[:, 1], prof[:, 2]
rho = gas.density_from_gauge(p)
mdot = rho * v * geo.area(x)
total = gas.enthalpy(rho) + 0.5 * v ** 2
print(f"mass flux spread      {np.ptp(mdot) / mdot[0]:.2e} (relative)")
print(f"total enthalpy spread {np.ptp(total) / total[0]:.2e} (relative)")

# push the inlet speed until the throat chokes
for v_in in (3.38, 30.0, 60.0):
    try:
        f = generate_quasi1d_field(inlet_speed=v_in)
        print(f"inlet {v_in:5.1f} m/s -> throat {station_profile(f)[:, 1].max():8.3f} m/s")
    except ChokedFlowError as exc:
        print(f"inlet {v_in:5.1f} m/s -> choked ({exc})")
