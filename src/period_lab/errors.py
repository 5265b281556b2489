"""Exception types shared across the package.

Built-in exceptions are used where Python already has the right one:
ZeroDivisionError for inverting zero or dividing by the zero polynomial,
IndexError for bad component indices, and OverflowError when a result
would leave the 64-bit range the library guarantees.

The work budget lives here too, next to BudgetExceeded: every budgeted
route resolves its budget argument by default_budget(budget), which reads
None as the default.  Every brute-force walk (the state shift of a
recurrence, h <- x*h mod g) runs in walk_back: it stops after
min(provable cap, budget) steps, raising BudgetExceeded past the budget
and LimitExceeded ("bug?") past the cap.

Record, the base of the package's result records, lives here as well, so
that every module can use it without importing dataclasses.
"""

import os

DEFAULT_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "PERIOD_LAB_BUDGET"


class CompositeCharacteristic(ValueError):
    """A field characteristic was not prime."""


class ReducibleModulus(ValueError):
    """A supplied extension modulus is not irreducible."""


class DegreeMismatch(ValueError):
    """A polynomial has the wrong degree for its role."""


class MixedContexts(ValueError):
    """Operands belong to different fields or rings."""


class ZeroElement(ValueError):
    """The multiplicative order of zero is undefined."""


class ConstantPolynomial(ValueError):
    """A constant polynomial where degree >= 1 is required."""


class ZeroPolynomial(ValueError):
    """The zero polynomial where a nonzero one is required."""


class ReduciblePolynomial(ValueError):
    """A reducible polynomial where an irreducible one is required."""


class ZeroConstantTerm(ValueError):
    """A polynomial divisible by x where a unit constant term is required."""


class NonUnitCoefficient(ValueError):
    """The lowest recurrence coefficient must be a unit."""


class LengthMismatch(ValueError):
    """A state vector does not match the recurrence degree."""


class InsufficientPrefix(ValueError):
    """Too few sequence terms for the requested degree bound."""


class NotPrimePower(ValueError):
    """An integer that should be a prime power is not one."""


class DegreeOutOfRange(ValueError):
    """No closed form is available for this degree."""


class OutOfRange(ValueError):
    """An integer argument is outside the supported range."""


class ParseError(ValueError):
    """Malformed text input (field spec, polynomial, or element)."""


class LimitExceeded(RuntimeError):
    """A computation broke a rule that its proof guarantees, which
    indicates a bug: a state walk passed its total state count, an order
    walk q^d - 1; the orbit rule met a power of x that is not a constant,
    or a constant outside the subgroup it must lie in; the brute-force
    period set gave one polynomial two orders, left an orbit member
    unmet, or reached a product twice."""


class BudgetExceeded(RuntimeError):
    """An enumeration, lcm closure or state walk would exceed its work budget."""


def default_budget(budget: int | None = None) -> int:
    """The work budget of a call: `budget` when it names one, else
    $PERIOD_LAB_BUDGET, else DEFAULT_BUDGET.  An environment value that is
    not an integer >= 1 is refused."""
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise OutOfRange(f"bad {BUDGET_ENV_VAR} value {raw!r}")
    return budget


def walk_back(start, step, what: str, cap: int, budget: int | None = None) -> int:
    """Least n >= 1 with step^n(start) == start (`step` returns a new
    value).  Walks at most min(cap, budget) steps: past the provable `cap`
    it raises LimitExceeded, past `budget` (None: default_budget())
    BudgetExceeded."""
    budget = default_budget(budget)
    x = start
    for n in range(1, min(cap, budget) + 1):
        x = step(x)
        if x == start:
            return n
    if budget < cap:
        raise BudgetExceeded(f"no {what} within the budget of {budget} steps")
    raise LimitExceeded(f"no {what} within {cap} steps (bug?)")


class Record:
    """An immutable value with the fields named in `_fields`.

    A subclass lists its fields in `_fields` (and in `__slots__`); a record
    is built from their values, by position in that order or by name, and
    a missing or unknown field is refused.  A subclass that validates or
    derives state defines `__init__` and passes the field values on to
    `Record.__init__`, setting derived state with `object.__setattr__`.
    Records of one class compare and hash by their fields, print as
    `Name(field=value, ...)`, pickle and copy through `__init__`, and raise
    AttributeError on assignment, as frozen dataclasses do.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
            if named:
                raise TypeError(f"{type(self).__qualname__} got an unknown or repeated "
                                f"field {next(iter(named))!r}")
        if len(values) != len(fields):
            raise ValueError(f"{type(self).__qualname__} takes the fields "
                             f"{', '.join(fields)}: got {len(values)} values")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
