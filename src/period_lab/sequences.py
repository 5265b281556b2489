"""Linear recurrence sequences: simulation, periods, characteristic and
minimal polynomials.

A Recurrence works over any finite commutative ring context exposing
zero/one/add/mul/is_unit/size (FieldCtx, ProductRing, GroupAlgebra); the
low coefficient must be a unit, which makes the state map invertible and
every sequence purely periodic.  The polynomial operations are
field-only, matching the underlying theory.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    ConstantPolynomial,
    InsufficientPrefix,
    LengthMismatch,
    NonUnitCoefficient,
    OutOfRange,
    Record,
    default_budget,
    walk_back,
)
from .ff import FieldCtx
from .poly import Poly, _mk, _trim


class Recurrence(Record):
    """a_{n+k} = sum(c_i * a_{n+i}, i < k) with coefficients (c_0, ..., c_{k-1})."""

    __slots__ = _fields = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs: tuple):
        coeffs = tuple(ctx.element(c) for c in coeffs)
        if not coeffs:
            raise OutOfRange("recurrence degree must be >= 1")
        if not ctx.is_unit(coeffs[0]):
            raise NonUnitCoefficient(f"c_0 = {coeffs[0]!r} is not a unit")
        Record.__init__(self, ctx, coeffs)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_char_poly(cls, f: Poly) -> "Recurrence":
        """Recurrence whose characteristic polynomial is monic f."""
        fm = f.monic()
        if fm.degree < 1:
            raise ConstantPolynomial("characteristic polynomial needs degree >= 1")
        neg = fm.field.neg
        return cls(fm.field, tuple(neg(c) for c in fm.coeffs[:-1]))

    def char_poly(self) -> Poly:
        """x^k - sum(c_i x^i); requires a field-valued recurrence."""
        F = self._field()
        neg = F.neg
        return _mk(F, tuple(neg(c) for c in self.coeffs) + (1,))

    def companion_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Row-convention companion matrix C with s_{n+1} = s_n C."""
        self._field()  # field-valued recurrences only
        k = self.k
        return tuple(tuple(1 if j == i - 1 else 0 for j in range(k - 1)) + (c,)
                     for i, c in enumerate(self.coeffs))

    def _field(self) -> FieldCtx:
        if not isinstance(self.ctx, FieldCtx):
            raise TypeError("this operation needs a field-valued recurrence")
        return self.ctx

    def __repr__(self):
        return f"Recurrence({self.ctx!r}, {self.coeffs!r})"


def _canonical_state(rec: Recurrence, s0) -> tuple:
    state = tuple(rec.ctx.element(s) for s in s0)
    if len(state) != rec.k:
        raise LengthMismatch(f"initial state length {len(state)} != degree {rec.k}")
    return state


def _stepper(rec: Recurrence):
    """The state shift: (s_n, ..., s_{n+k-1}) -> (s_{n+1}, ..., s_{n+k})."""
    ctx = rec.ctx
    add, mul, zero = ctx.add, ctx.mul, ctx.zero
    coeffs = rec.coeffs

    def step(state: tuple) -> tuple:
        nxt = zero
        for c, s in zip(coeffs, state):
            if c != zero and s != zero:
                nxt = add(nxt, mul(c, s))
        return state[1:] + (nxt,)

    return step


def generate(rec: Recurrence, s0, count: int, *, budget: int | None = None) -> list:
    """First `count` terms of the sequence from initial state s0.

    A count above `budget` steps (default 10^6, or PERIOD_LAB_BUDGET)
    raises BudgetExceeded before any term is built.
    """
    if count < 0:
        raise OutOfRange("term count must be >= 0")
    budget = default_budget(budget)
    if count > budget:
        raise BudgetExceeded(f"{count} terms exceed the budget {budget}")
    state = _canonical_state(rec, s0)
    step = _stepper(rec)
    out = []
    for _ in range(count):
        out.append(state[0])
        state = step(state)
    return out


def period_bruteforce(rec: Recurrence, s0, *, budget: int | None = None) -> int:
    """Steps until the state first returns to s0 (valid: c_0 is a unit).

    A period longer than `budget` steps (default 10^6, or
    PERIOD_LAB_BUDGET) raises BudgetExceeded.
    """
    return walk_back(_canonical_state(rec, s0), _stepper(rec), "period",
                     rec.ctx.size ** rec.k, budget)


def impulse_state(rec: Recurrence) -> tuple:
    """(0, ..., 0, 1): the initial state attaining the maximal period."""
    ctx = rec.ctx
    return (ctx.zero,) * (rec.k - 1) + (ctx.one,)


def impulse_response_period(rec: Recurrence) -> int:
    """Period of the impulse response sequence, measured by simulation.

    For field-valued recurrences this equals the order of the
    characteristic polynomial; the equality is cross-checked in tests
    rather than assumed here.
    """
    return period_bruteforce(rec, impulse_state(rec))


def berlekamp_massey(field: FieldCtx, seq) -> tuple[list, int]:
    """Shortest LFSR for the sequence: (connection coefficients, length L).

    The connection polynomial has constant term 1 and satisfies
    sum(C[i] * s[n-i], 0 <= i <= L) = 0 for all valid n.
    """
    seq = [field.element(s) for s in seq]
    add, sub, mul, inv = field.add, field.sub, field.mul, field.inv
    conn = [1]
    back = [1]
    L, m, b = 0, 1, 1
    for n, s in enumerate(seq):
        d = s
        for i in range(1, min(L, len(conn) - 1) + 1):
            if conn[i]:
                d = add(d, mul(conn[i], seq[n - i]))
        if d == 0:
            m += 1
            continue
        coef = mul(d, inv(b))
        prev = list(conn)
        need = m + len(back)
        if len(conn) < need:
            conn.extend([0] * (need - len(conn)))
        for i, bi in enumerate(back):
            if bi:
                conn[m + i] = sub(conn[m + i], mul(coef, bi))
        if 2 * L <= n:
            L = n + 1 - L
            back = prev
            b = d
            m = 1
        else:
            m += 1
    return conn, L


def minimal_poly(field: FieldCtx, prefix, degree_bound: int) -> Poly:
    """Minimal polynomial of the periodic sequence the prefix comes from.

    Needs at least 2*degree_bound terms, where degree_bound bounds the
    degree of some recurrence generating the sequence.  The all-zero
    prefix yields the constant polynomial 1.
    """
    prefix = list(prefix)
    if degree_bound < 0:
        raise OutOfRange("degree bound must be >= 0")
    if len(prefix) < 2 * degree_bound:
        raise InsufficientPrefix(
            f"need {2 * degree_bound} terms for bound {degree_bound}, got {len(prefix)}"
        )
    conn, L = berlekamp_massey(field, prefix)
    if L > degree_bound:
        raise InsufficientPrefix(
            f"prefix needs degree {L}, above the stated bound {degree_bound}"
        )
    conn = conn[: L + 1] + [0] * (L + 1 - len(conn))
    return _mk(field, _trim(tuple(reversed(conn))))


class SequenceRun(Record):
    """A recurrence with a fixed initial state, the fields `recurrence` and
    `initial`; `period` walks the state each time it is read."""

    __slots__ = _fields = ("recurrence", "initial")

    def __init__(self, recurrence: Recurrence, initial: tuple):
        Record.__init__(self, recurrence, _canonical_state(recurrence, initial))

    @property
    def period(self) -> int:
        return period_bruteforce(self.recurrence, self.initial)
