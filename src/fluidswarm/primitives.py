"""Kinetic-theory style closures for the agents of one cell, and the
domains of the package's parameters.

A group of agents occupying a control volume is summarized the way a gas
parcel would be: a pressure built from the second velocity moment, and a
temperature split into a thermal part (velocity spread about the mass-mean)
plus a control part tied to actuation authority. The pressure coefficient
and the two temperatures are defined once, here, for
``metrics.derive_fields``, which applies them to per-cell frame sums.

A parameter's :class:`Domain` is a rule and a test that also checks the
type (never a bool for a number); dataclass fields declare theirs with
:func:`ranged`, and :func:`check` is the one test of a value against one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields
from typing import Callable, NamedTuple

import numpy as np

C_V = 1.0              # specific heat at constant volume analog
K_B = 1.0              # velocity-spread-to-temperature conversion
CONTROL_WEIGHT = 0.5   # weight of the control energy term


class DegenerateCellError(ValueError):
    """Raised when a closure needs a positive density and gets none."""


def pressure_coefficient(mass: float, cell_volume: float) -> float:
    """2 m / (3 dV); pass mass 1.0 when the masses are inside the sum."""
    return 2.0 * mass / (3.0 * cell_volume)


def random_temperature_from_spread(spread, total_mass):
    """K_B * S / (2 sum_i m_i), with S = sum_i m_i ||v_i - U||^2 about the
    mass-mean velocity U; scalars or arrays of per-cell sums."""
    return K_B * spread / (2.0 * total_mass)


def control_temperature(rho, a_max):
    """Control temperature from actuation authority over the packing length.

    T_ctrl = (CONTROL_WEIGHT / C_V) * a_max * L with L = rho^(-1/3), for one
    density or an array; ``a_max`` is the plant's
    (:attr:`PlantParams.a_max`). An empty cell (rho = 0) has no packing
    length; that is a degenerate cell.
    """
    if np.any(np.asarray(rho) <= 0):
        raise DegenerateCellError("control temperature needs a positive density")
    return CONTROL_WEIGHT * a_max * rho ** (-1.0 / 3.0) / C_V


# ======================================================================
# parameter domains
# ======================================================================

class Domain(NamedTuple):
    rule: str                           # completes "<name> ..."
    test: Callable[[object], bool]


class DomainError(ValueError):
    """A value outside the domain of the parameter ``name``."""

    def __init__(self, name: str, value, rule: str):
        super().__init__(f"{name} {rule}; got {value!r}")
        self.name, self.value, self.rule = name, value, rule


def is_real(x) -> bool:
    """Any real number but a bool; float and int skip the slow ABC test."""
    return type(x) in (float, int) or (isinstance(x, numbers.Real)
                                       and not isinstance(x, bool))


def _integer(x) -> bool:
    return type(x) is int or (isinstance(x, numbers.Integral)
                              and not isinstance(x, bool))


FINITE = Domain("must be finite", lambda x: is_real(x) and math.isfinite(x))
FINITE_POSITIVE = Domain("must be finite and positive",
                         lambda x: is_real(x) and 0 < x < math.inf)
FINITE_NONNEGATIVE = Domain("must be finite and nonnegative",
                            lambda x: is_real(x) and 0 <= x < math.inf)
NOT_NAN = Domain("must not be NaN", lambda x: is_real(x) and not math.isnan(x))
FLAG = Domain("must be True or False", lambda x: isinstance(x, bool))
# unbounded above, as np.random.default_rng takes it
SEED = Domain("must be a nonnegative integer",
              lambda x: _integer(x) and x >= 0)


def integers_from(low: int) -> Domain:
    return Domain(f"must be an integer of at least {low}",
                  lambda x: _integer(x) and x >= low)


def optional(domain: Domain) -> Domain:
    return Domain(f"{domain.rule}, or None",
                  lambda x: x is None or domain.test(x))


def ranged(default, domain: Domain):
    """A dataclass field with ``default`` whose values lie in ``domain``."""
    return field(default=default, metadata={"domain": domain})


def declared(cls) -> dict:
    return {f.name: f.metadata["domain"] for f in fields(cls)}


def check(name: str, value, domain: Domain):
    """``value``, or a :class:`DomainError` naming ``name`` when it lies
    outside ``domain``."""
    if not domain.test(value):
        raise DomainError(name, value, domain.rule)
    return value


def check_fields(obj) -> None:
    """Check each field of the dataclass ``obj`` against its domain."""
    for name, domain in declared(obj).items():
        check(name, getattr(obj, name), domain)
