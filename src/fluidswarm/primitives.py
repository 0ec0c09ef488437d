"""The pressure coefficient of a cell's agents, and the domains of the
package's parameters.

A cell's agents carry a pressure built from their second velocity moment,
as a gas parcel does; its coefficient is defined once, here.

A parameter's :class:`Domain` is a rule and a test that also checks the
type (never a bool for a number); dataclass fields declare theirs with
:func:`ranged`, and :func:`check` is the one test of a value against one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields
from typing import Callable, NamedTuple


def pressure_coefficient(mass: float, cell_volume: float) -> float:
    """2 m / (3 dV); pass mass 1.0 when the masses are inside the sum."""
    return 2.0 * mass / (3.0 * cell_volume)


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
