"""Every parameter's declared domain, walked at its edges.

Each field of the five parameter dataclasses declares its domain beside
it, and the functions check their own number arguments against named
domains. The walk feeds every one NaN, the infinities, ``True`` and the
values on each side of each bound: the library raises a ValueError naming
the parameter for each value outside the domain, and the domain holds each
value inside it. The CLI twin feeds the same values through each flag that
sets one of these parameters: each is a usage error whose one ``error:``
line names the flag, and nothing is written.
"""

import math
import re
import sys

import numpy as np
import pytest

from fluidswarm import (FitConfig, GasModel, NozzleGeometry, PlantParams,
                        PlantState, SimConfig, generate_quasi1d_field,
                        partition_domain, plant_step, run_suite)
from fluidswarm.cli import main
from fluidswarm.primitives import check, declared
from fluidswarm.swarm_sim import CASES

TINY = 5e-324                   # the least positive float
MAX = sys.float_info.max
NAN, INF = math.nan, math.inf

# rule -> (values outside the domain, values inside it)
EDGES = {
    "must be finite and positive":
        ([0.0, -TINY, NAN, INF, -INF, True], [TINY, MAX, np.float64(2.5), 3]),
    "must be finite and nonnegative":
        ([-TINY, NAN, INF, -INF, True], [0.0, TINY, MAX, np.float32(1.5)]),
    "must be finite and above 1":
        ([1.0, float(np.nextafter(1.0, 0.0)), NAN, INF, -INF, True],
         [float(np.nextafter(1.0, 2.0)), MAX]),
    "must not be NaN": ([NAN, True, "0.7"], [-INF, INF, 0.0]),
    "must not be NaN, or None": ([NAN, True], [None, -INF, INF, 0.0]),
    "must be a nonnegative integer":
        ([-1, np.int64(-1), 1.5, 2.0, NAN, INF, True],
         [0, np.int64(7), 2 ** 64 + 3]),
    "must be an integer of at least 1":
        ([0, 1.5, 1.0, NAN, INF, True], [1, np.int32(1), 2 ** 40]),
    "must be an integer of at least 2":
        ([1, 2.5, 2.0, NAN, INF, True], [2, np.int64(2)]),
    "must be an integer of at least 1, or None":
        ([0, -3, 1.5, 17.0, NAN, True], [None, 1, np.int64(17)]),
    "must be True or False": ([1, 0, "yes", None, np.True_], [True, False]),
    f"must be one of {CASES}": (["wind_tunnel", None, 1], list(CASES)),
    "must be finite and positive, or a tuple of such values":
        ([0.0, -1.0, NAN, INF, -INF, True, (), (2.0, NAN), (2.0, 0.0), (INF,),
          (2.0, True), [2.0, 3.0]],
         [TINY, MAX, (TINY, MAX), (np.float64(2.2), 3)]),
}

WALK = [(cls, name) for cls in (SimConfig, PlantParams, FitConfig,
                                NozzleGeometry, GasModel)
        for name in declared(cls)]


def _message(name, rule, value):
    return f"^{re.escape(f'{name} {rule}; got {value!r}')}$"


@pytest.mark.parametrize("cls, name", WALK,
                         ids=[f"{c.__name__}.{n}" for c, n in WALK])
def test_every_declared_field_refuses_its_outside_and_holds_its_edges(cls,
                                                                       name):
    """Outside values are refused by the class, before any cross-field
    rule, with a message naming the field; inside values lie in the
    declared domain. (A cross-field rule may still refuse an inside value
    with the other fields at their defaults, e.g. a throat wider than the
    ends; those rules have their own tests.)"""
    domain = declared(cls)[name]
    bad, good = EDGES[domain.rule]
    for value in bad:
        with pytest.raises(ValueError, match=_message(name, domain.rule,
                                                      value)):
            cls(**{name: value})
    for value in good:
        assert check(name, value, domain) is value


_FIELD = generate_quasi1d_field(axial_stations=5, radial_rings=1)

# the number arguments that functions check against named domains
ARGUMENTS = [
    ("inlet_speed", "must be finite and positive",
     lambda v: generate_quasi1d_field(inlet_speed=v)),
    ("axial_stations", "must be an integer of at least 2",
     lambda v: generate_quasi1d_field(axial_stations=v)),
    ("radial_rings", "must be an integer of at least 1",
     lambda v: generate_quasi1d_field(radial_rings=v)),
    ("edge_length", "must be finite and positive",
     lambda v: partition_domain(_FIELD, edge_length=v)),
    ("seed", "must be a nonnegative integer", lambda v: run_suite(seed=v)),
    ("dt", "must be finite and positive",
     lambda v: plant_step(PlantState.hover(), [0.0, 0.0, 0.0], v,
                          PlantParams())),
]


@pytest.mark.parametrize("name, rule, call", ARGUMENTS,
                         ids=[a[0] for a in ARGUMENTS])
def test_every_checked_argument_refuses_its_outside(name, rule, call):
    for value in EDGES[rule][0]:
        with pytest.raises(ValueError, match=_message(name, rule, value)):
            call(value)


# (subcommand and its required paths, flag, the rule of the parameter)
FLAGS = [
    *[(["generate-field", "--output", "f.csv"], flag, rule) for flag, rule in (
        ("--inlet-speed", "must be finite and positive"),
        ("--stations", "must be an integer of at least 2"),
        ("--rings", "must be an integer of at least 1"),
        *[("--" + name.replace("_", "-"), domain.rule)
          for cls in (GasModel, NozzleGeometry)
          for name, domain in declared(cls).items()])],
    (["partition", "--field", "f.csv", "--output", "g.csv"], "--edge",
     "must be finite and positive"),
    (["fit", "--partition", "g.csv", "--output", "fit.csv"], "--agent-mass",
     declared(FitConfig)["agent_mass"].rule),
    (["fit", "--partition", "g.csv", "--output", "fit.csv"], "--seed",
     declared(FitConfig)["rng_seed"].rule),
    (["plant-test", "--out", "plant.csv"], "--seed",
     "must be a nonnegative integer"),
    *[(["simulate", "--fit", "fit.csv", "--out", "run"],
       "--" + name.replace("_", "-"), declared(SimConfig)[name].rule)
      for name in ("duration", "dt", "scale", "dt_source", "batch_size",
                   "seed_x_max", "seed")],
    (["simulate", "--fit", "fit.csv", "--out", "run"], "--thrust-to-weight",
     declared(PlantParams)["thrust_to_weight"].rule),
    (["analyze", "--run", "run", "--targets", "g.csv"], "--transient",
     "must not be NaN"),
]


@pytest.mark.parametrize("argv, flag, rule", FLAGS,
                         ids=[f"{a[0]}{f}" for a, f, _ in FLAGS])
def test_every_flag_refuses_its_outside_as_a_usage_error(argv, flag, rule,
                                                         tmp_path,
                                                         monkeypatch, capsys):
    """Each number outside the parameter's domain, as the flag's text,
    exits 2 with one ``error:`` line naming the flag, before any input is
    read (none of the named files exists) or any file is written. An int
    flag refuses a non-integer in argparse, whose line names the flag too."""
    monkeypatch.chdir(tmp_path)
    bad = [repr(v) for v in EDGES[rule][0] if type(v) in (float, int)]
    assert bad
    for value in bad:
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == 2, value
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and re.search(f"{flag}(?![-\\w])",
                                              errors[0]), (value, errors)
        assert not any(tmp_path.iterdir()), value
