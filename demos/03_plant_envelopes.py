"""Response envelopes of the quadrotor velocity plant.

Runs the five stock scenarios (hover hold, step response, thrust-to-weight
sweep, headwind rejection, command-noise Monte Carlo) and prints their
tables. Takes about four seconds (3.4-3.8 s measured on a 2-vCPU Intel
Xeon host).
"""

from fluidswarm import run_suite

suite = run_suite(seed=0)

hh = suite["hover_hold"]
print(f"hover hold: drift {hh['drift_error']:.2e} m/s "
      f"[{'PASS' if hh['pass'] else 'FAIL'}]")

sr = suite["step_response"]
print(f"1 m/s step: settles in {sr['settling_time_s']:.3f} s, overshoot "
      f"{sr['overshoot_pct']:.3g}%, diagonal {sr['settling_time_diag_s']:.3f} s "
      f"[{'PASS' if sr['pass'] else 'FAIL'}]")

ms = suite["max_speed_sweep"]
print(f"\nmax speed sweep [{'PASS' if ms['pass'] else 'FAIL'}]")
print("  T/W    steady [m/s]   peak tilt [deg]")
for r in ms["rows"]:
    print(f"  {r['thrust_to_weight']:4.1f}   {r['steady_speed']:10.4f}   "
          f"{r['peak_tilt_deg']:12.3f}")

hw = suite["headwind_sweep"]
print(f"\nheadwind rejection, feedforward 0.8 [{'PASS' if hw['pass'] else 'FAIL'}]")
print("  wind [m/s]   steady error [m/s]")
for r in hw["rows"]:
    print(f"  {r['wind_speed']:8.1f}   {r['steady_error']:16.4f}")

nm = suite["noise_monte_carlo"]
print(f"\ncommand noise Monte Carlo [{'PASS' if nm['pass'] else 'FAIL'}]")
print("  noise rms   lateral rmse   vertical rmse")
for r in nm["rows"]:
    print(f"  {r['noise_rms']:8.2f}   {r['lateral_rmse']:11.4f}   "
          f"{r['vertical_rmse']:12.4f}")

print(f"\nsuite verdict: {'PASS' if suite['pass'] else 'FAIL'}")
