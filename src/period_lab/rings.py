"""Products of finite fields and cyclic group algebras.

A ProductRing is F_{q_1} + ... + F_{q_r} with componentwise arithmetic on
r-tuples of encoded field elements; an element is a unit exactly when
every component is nonzero.  Periods over the product are the lcm of the
projected component periods, and the period set of degree k is the
lcm-closure of the component period sets.

A GroupAlgebra is F_p[t]/<t^n - 1> with elements stored as length-n
coefficient tuples and cyclic-convolution multiplication.  When p does
not divide n the defining polynomial is squarefree and the algebra
decomposes into a ProductRing of fields, one per irreducible factor of
t^n - 1 (each component field is built on that factor as its modulus, so
projection is plain polynomial reduction).  For every n the algebra is a
product of local rings F_Q[u]/(u^(p^a)), and its period set of degree k
is the lcm-closure of their sets P_k(F_Q) * {1, p, ..., p^a}.
"""

from __future__ import annotations

import itertools
import random
from math import prod

from .errors import (
    BudgetExceeded,
    LengthMismatch,
    OutOfRange,
    ParseError,
    Record,
    default_budget,
)
from .ff import _MAX_EXPONENT, FieldCtx, make_field, parse_field_spec
from .intfactor import _mul64, lcm64, split_prime_power
from .period_sets import PeriodSet, divisors, period_set_exact, set_product
from .poly import Poly, _mk, _trim, factor, gcd as poly_gcd
from .sequences import Recurrence, impulse_state, period_bruteforce


class ProductRing(Record):
    """An ordered direct sum of finite fields, the tuple `components`;
    elements are r-tuples."""

    __slots__ = _fields = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise OutOfRange("a product ring needs at least one component")
        Record.__init__(self, components)

    r = property(lambda self: len(self.components))
    size = property(lambda self: prod(c.q for c in self.components))
    zero = property(lambda self: (0,) * len(self.components))
    one = property(lambda self: (1,) * len(self.components))

    def element(self, parts) -> tuple:
        if isinstance(parts, int):
            return self.from_int(parts)
        parts = tuple(parts)
        if len(parts) != self.r:
            raise LengthMismatch(f"expected {self.r} components, got {len(parts)}")
        return tuple(c.element(v) for c, v in zip(self.components, parts))

    def from_int(self, v: int) -> tuple:
        """Diagonal embedding of an integer (v mod p_i in each component)."""
        return tuple(c.from_int(v) for c in self.components)

    def add(self, a, b):
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))

    def mul(self, a, b):
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, a, b))

    def is_unit(self, a) -> bool:
        return all(x != 0 for x in a)

    def elements(self):
        return itertools.product(*(range(c.q) for c in self.components))

    def units(self):
        return itertools.product(*(range(1, c.q) for c in self.components))

    def format_element(self, a) -> str:
        return "|".join(c.format_element(x) for c, x in zip(self.components, a))

    def parse_element(self, text: str) -> tuple:
        parts = text.split("|")
        if len(parts) == 1 and self.r > 1:
            try:
                return self.from_int(int(text))
            except ValueError as exc:
                raise ParseError(f"bad element {text!r}") from exc
        if len(parts) != self.r:
            raise LengthMismatch(f"expected {self.r} '|'-separated parts in {text!r}")
        return tuple(c.parse_element(s) for c, s in zip(self.components, parts))

    def spec(self) -> str:
        return "+".join(c.spec() for c in self.components)

    def __repr__(self):
        return f"ProductRing({self.spec()!r})"


def make_product_ring(specs) -> ProductRing:
    """Build a product ring from field specs (FieldCtx, prime-power int,
    or field spec text)."""
    components = []
    for s in specs:
        if isinstance(s, FieldCtx):
            components.append(s)
        elif isinstance(s, int):
            p, e = split_prime_power(s)
            components.append(make_field(p, e))
        else:
            components.append(parse_field_spec(str(s)))
    return ProductRing(components)


def component_recurrence(rec: Recurrence, i: int) -> Recurrence:
    """Projection of a product-ring recurrence onto component i."""
    ring = rec.ctx
    return Recurrence(ring.components[i], tuple(c[i] for c in rec.coeffs))


def component_periods(rec: Recurrence, s0) -> list[int]:
    """Period of each component projection of a product-ring recurrence
    from state s0, in component order.  Each component walk stops at the
    default budget (10^6 steps, or PERIOD_LAB_BUDGET)."""
    ring = rec.ctx
    if not isinstance(ring, ProductRing):
        raise TypeError("component periods need a product-ring recurrence")
    s0 = tuple(ring.element(s) for s in s0)
    budget = default_budget()
    return [
        period_bruteforce(component_recurrence(rec, i), tuple(s[i] for s in s0),
                          budget=budget)
        for i in range(ring.r)
    ]


def period_over_ring(rec: Recurrence, s0) -> int:
    """Period over a product ring: lcm of the projected component periods.

    Walking the ring state as-is, period_bruteforce(rec, s0), is the
    independent cross-check of this route.
    """
    return lcm64(*component_periods(rec, s0))


def lcm_closure(sets, *, budget: int | None = None) -> PeriodSet:
    """{lcm(w_1, ..., w_r) : w_i in sets[i]}.

    Each step first checks that the closure so far times the next set
    stays within `budget` lcm pairs (default 10^6, or PERIOD_LAB_BUDGET).
    """
    sets = list(sets)
    if not sets:
        raise OutOfRange("lcm closure of no sets")
    budget = default_budget(budget)
    closure = set(sets[0])
    for s in sets[1:]:
        pairs = len(closure) * len(s)
        if pairs > budget:
            raise BudgetExceeded(f"{pairs} lcm pairs exceed the budget {budget}")
        closure = {lcm64(a, b) for a in closure for b in s}
    return PeriodSet.of(closure)


def ring_period_sets(ring: ProductRing, k: int, *,
                     budget: int | None = None) -> tuple[list[PeriodSet], PeriodSet]:
    """The degree-k period set of each component field, and of the product
    ring as their lcm-closure.  `budget` (default 10^6, or
    PERIOD_LAB_BUDGET) caps the candidate periods of each component set
    and the lcm pairs of each closure step."""
    component_sets = [component_period_set(c, k, budget=budget)
                      for c in ring.components]
    return component_sets, lcm_closure(component_sets, budget=budget)


def period_set_over_ring(ring: ProductRing, k: int, *,
                         budget: int | None = None) -> PeriodSet:
    """Period set of degree k over the product ring, via lcm-closure of
    the component period sets (see ring_period_sets)."""
    return ring_period_sets(ring, k, budget=budget)[1]


def component_period_set(field: FieldCtx, k: int, *,
                         budget: int | None = None) -> PeriodSet:
    """Degree-k period set of one component field, by the exact route."""
    return period_set_exact(k, field.q, budget=budget)


def max_period_bound(ring: ProductRing, k: int) -> int:
    """prod(q_i^k - 1): an upper bound for every degree-k period."""
    out = 1
    for c in ring.components:
        out = _mul64(out, c.q ** k - 1, "period bound")
    return out


def verify_field_characterization(ring: ProductRing, k: int, *,
                                  budget: int | None = None) -> dict:
    """Check that the maximum period |R|^k - 1 is hit exactly when the ring
    is a single field; returns the comparison as a report dict."""
    pset = period_set_over_ring(ring, k, budget=budget)
    achieved_max = max(pset)
    possible_max = ring.size ** k - 1
    is_field = ring.r == 1
    return {
        "k": k,
        "components": [c.spec() for c in ring.components],
        "ring_size": ring.size,
        "max_period": achieved_max,
        "max_possible": possible_max,
        "achieved": achieved_max == possible_max,
        "is_field": is_field,
        "consistent": (achieved_max == possible_max) == is_field,
    }


class GroupAlgebra(Record):
    """F_p[t]/<t^n - 1>, the fields p and n, 2 <= n <= 2^20 (the degree
    limit of every polynomial); elements are length-n coefficient tuples.
    Derived: base F_p, the `factors` of t^n - 1 and the field
    `decomposition` (None unless semisimple).  Also named
    make_group_algebra."""

    __slots__ = ("p", "n", "base", "factors", "decomposition", "_circulant")
    _fields = ("p", "n")

    def __init__(self, p: int, n: int):
        if n < 2:
            raise OutOfRange("group algebras need n >= 2")
        if n > _MAX_EXPONENT:
            raise OutOfRange(f"group algebras need n <= {_MAX_EXPONENT}, "
                             f"the polynomial degree limit")
        Record.__init__(self, p, n)
        base = make_field(p)
        circulant = Poly(base, (base.neg(1),) + (0,) * (n - 1) + (1,))
        factors = factor(circulant)
        decomposition = None
        if all(m == 1 for _, m in factors):
            decomposition = ProductRing(make_field(p, f.degree, f.coeffs) if f.degree > 1
                                        else make_field(p) for f, _ in factors)
        for name, value in (("base", base), ("factors", factors),
                            ("decomposition", decomposition), ("_circulant", circulant)):
            object.__setattr__(self, name, value)

    semisimple = property(lambda self: self.decomposition is not None)
    size = property(lambda self: self.p ** self.n)
    zero = property(lambda self: (0,) * self.n)
    one = property(lambda self: (1,) + (0,) * (self.n - 1))

    # ring context protocol -------------------------------------------------

    def element(self, coeffs) -> tuple:
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.n:
            raise LengthMismatch(f"expected {self.n} coefficients, got {len(coeffs)}")
        return coeffs

    def from_int(self, v: int) -> tuple:
        return (v % self.p,) + (0,) * (self.n - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        # cyclic convolution: t^n wraps to 1
        p, n = self.p, self.n
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        idx = i + j
                        if idx >= n:
                            idx -= n
                        out[idx] = (out[idx] + x * y) % p
        return tuple(out)

    def is_unit(self, a) -> bool:
        apoly = self.to_poly(a)
        if apoly.is_zero:
            return False
        return poly_gcd(apoly, self._circulant).degree == 0

    def elements(self):
        return itertools.product(*(range(self.p) for _ in range(self.n)))

    def units(self):
        return (a for a in self.elements() if self.is_unit(a))

    def to_poly(self, a) -> Poly:
        return _mk(self.base, _trim(a))

    def project(self, a) -> tuple:
        """CRT image of an element in the decomposition (semisimple only)."""
        if not self.semisimple:
            raise OutOfRange("no field decomposition: t^n - 1 has repeated factors")
        apoly = self.to_poly(a)
        return tuple(comp.from_coeffs((apoly % modulus).coeffs)
                     for comp, modulus in zip(self.decomposition.components,
                                              (f for f, _ in self.factors)))

    def project_recurrence(self, rec: Recurrence) -> Recurrence:
        return Recurrence(self.decomposition,
                          tuple(self.project(c) for c in rec.coeffs))


make_group_algebra = GroupAlgebra


def group_algebra_period(ga: GroupAlgebra, coeffs, s0=None) -> int:
    """Period of a recurrence over the algebra, from state s0 (impulse by
    default), by walking the quotient-ring state."""
    rec = Recurrence(ga, coeffs)
    s0 = impulse_state(rec) if s0 is None else tuple(ga.element(s) for s in s0)
    return period_bruteforce(rec, s0)


def group_algebra_max_period(ga: GroupAlgebra, k: int, *,
                             budget: int | None = None) -> int:
    """Largest degree-k period over the algebra: the max of the lcm-closure
    of its local period sets P_k(F_Q) * D(p^a), one for each irreducible
    factor f of t^n - 1 with Q = p^deg(f), where p^a is the p-part of n.

    Write n = p^a * n' with p not dividing n'.  Then t^n - 1 = prod f^(p^a)
    and, by CRT, the algebra is a product of local rings A = F_Q[u]/(u^(p^a))
    (u -> f(t)); periods over a product are lcms of component periods.
    Over A, reduction mod u sends a companion matrix M to one of order
    E in P_k(F_Q), and M^E = I + uX has order dividing p^a, so a period T
    divides E * p^a and equals gcd(T, E) * p^j with j <= a; P_k(F_Q) is
    closed under divisors.  Conversely, for g of degree <= k with g(0) != 0
    and j <= a, x has order ord(g^(p^j)) = ord(g) * p^j in A[x]/(G) with
    G = g(x) - u^(p^(a-j)), which is free over F_Q[x]/(g^(p^j)); the factor
    (x - 1)^(k - deg g) pads G to degree k without changing the sequence
    (Lidl & Niederreiter, Thm 3.8; Ward 1933 for Z/p^e).  With a = 0 this
    is the field decomposition.  `budget` (default 10^6, or
    PERIOD_LAB_BUDGET) caps the candidate periods of each local set and
    the lcm pairs of each closure step.
    """
    local_sets = [set_product(period_set_exact(k, ga.p ** f.degree, budget=budget),
                              divisors(m))
                  for f, m in ga.factors]
    return max(lcm_closure(local_sets, budget=budget))


def sample_recurrence(ga: GroupAlgebra, k: int, seed: int = 0) -> tuple:
    """A reproducible pseudorandom unit-c_0 recurrence over the algebra;
    c_0 is drawn uniformly from the units by rejection."""
    if k < 1:
        raise OutOfRange("recurrence degree must be >= 1")
    rng = random.Random(seed)

    def draw():
        return tuple(rng.randrange(ga.p) for _ in range(ga.n))

    c0 = draw()
    while not ga.is_unit(c0):
        c0 = draw()
    return (c0, *(draw() for _ in range(k - 1)))
