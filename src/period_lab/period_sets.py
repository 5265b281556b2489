"""Period sets of degree-k recurrences: divisor-set combinatorics, the
union lower bound, exact closed forms for degrees 1-4, an exact route for
every degree built from the orders of irreducible factors, and a
brute-force order-set enumeration that oracles them.

Degree k over F_q realizes exactly the orders of degree-k polynomials.
Orders are invariant under nonzero scalar multiples, and x^r * h has the
order of h, so this is the set of orders of the monic h of degree <= k
with h(0) != 0.  The brute-force route reaches each such h once, in one
serial pass over the monic polynomials of degree 1..k: an irreducible is
one that no product built so far has marked, and its order of x is
computed once per orbit of its roots under F_q^* and inverses, the rest
of the orbit taking theirs by field arithmetic; every other h is built
once as a product whose order follows from its factors' (Lidl &
Niederreiter, Thm 3.8).  It is an oracle for small (q, k), and the exact
route answers everything else.

The two routes stay independent.  The exact route never finds an
irreducible: it takes the orders of the degree-d irreducibles to be the
e with ord_e(q) = d, a counting theorem.  The brute-force route uses no
such count: it finds actual irreducible polynomials and computes the
order of x modulo each one.

Every route refuses a degree below 1 (_check_degree); the other three
then check the 64-bit ceiling and read p from q in one place,
_route_characteristic, while the brute-force route has its budget.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import islice, repeat

from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    LimitExceeded,
    OutOfRange,
    Record,
    default_budget,
)
from .ff import FieldCtx
from .intfactor import (
    INT64_MAX,
    _check_ceiling,
    _divisors,
    _mul64,
    _power_exceeds,
    factor_integer,
    split_prime_power,
)
from .orders import _char_boost, _irreducible_order, _orbit_rule
from .poly import _Slots, _monic_coeffs, _rmul


class PeriodSet(Record):
    """Sorted deduplicated set of achievable periods, the tuple `values`.
    `in` is a binary search of `values`.  Hashes as its values and compares
    equal to a PeriodSet, set or list holding the same values; a tuple or
    frozenset, which hash by their own rule, compares unequal."""

    __slots__ = _fields = ("values",)

    @classmethod
    def of(cls, iterable) -> "PeriodSet":
        vals = sorted(set(iterable))
        if vals and vals[0] < 1:
            raise OutOfRange("periods are positive integers")
        return cls(tuple(vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __contains__(self, n):
        values = self.values
        i = bisect_left(values, n)
        return i < len(values) and values[i] == n

    def as_set(self) -> frozenset:
        return frozenset(self.values)

    def __eq__(self, other):
        if isinstance(other, PeriodSet):
            return self.values == other.values
        if isinstance(other, (set, list)):
            return self.as_set() == set(other)
        return NotImplemented

    __hash__ = Record.__hash__  # defining __eq__ would drop it

    def __repr__(self):
        return f"PeriodSet({list(self.values)})"


def divisors(n: int) -> PeriodSet:
    """All positive divisors of n."""
    return PeriodSet.of(_divisors(n))


def set_scale(a: int, s: PeriodSet) -> PeriodSet:
    """{a*x for x in s}, overflow-checked."""
    if a < 1:
        raise OutOfRange("scale factor must be positive")
    # order preserved: a*x is monotone
    return PeriodSet(tuple(_mul64(a, x, "scaled period") for x in s))


def set_product(s1: PeriodSet, s2: PeriodSet) -> PeriodSet:
    """{x*y for x in s1, y in s2}, overflow-checked."""
    return PeriodSet.of({_mul64(x, y, "period product") for x in s1 for y in s2})


def _divisor_union(q: int, parts) -> PeriodSet:
    """The union of a * D(q^i - 1) over the (i, (a, ...)) of parts."""
    vals = set()
    for i, scales in parts:
        divs = _divisors(q ** i - 1)
        for a in scales:
            vals.update(map(a.__mul__, divs))
    return PeriodSet.of(vals)


def _check_degree(k: int) -> None:
    """Refuse a degree below 1, as every period-set route does."""
    if k < 1:
        raise OutOfRange("degree must be >= 1")


def _route_characteristic(k: int, q: int) -> int:
    """The degree rule of the period-set routes: k >= 1 (OutOfRange) and
    q^k - 1 within the 64-bit range (_check_ceiling); returns the
    characteristic p of q (NotPrimePower if q is not a prime power)."""
    _check_degree(k)
    _check_ceiling(k, q)
    return split_prime_power(q)[0]


def period_set_lower_bound(k: int, q: int) -> PeriodSet:
    """The union over 1 <= i <= k of {p^j : j <= t_i} * D(q^i - 1), with
    t_i the least t such that p^t >= floor(k/i).

    Always contained in the true period set; the containment is an
    equality for k <= 4 and can be strict from k = 5 on.
    """
    p = _route_characteristic(k, q)
    return _divisor_union(q, [(i, [p ** j for j in range(_char_boost(p, k // i)[0] + 1)])
                              for i in range(1, k + 1)])


def period_set_closed_form(k: int, q: int) -> PeriodSet:
    """Exact period set for degrees 1-4 over F_q.

    Degree 3 gains {2,4}*D(q-1) in characteristic 2, and degree 4 gains
    p^2*D(q-1) in characteristics 2 and 3, reflecting how high a power of
    p is needed to cover a repeated linear factor.  A degree above 4
    raises DegreeOutOfRange before the 64-bit ceiling is checked.
    """
    if k > 4:
        raise DegreeOutOfRange(
            f"no closed form for degree {k}; use the exact route "
            f"(period_set_exact, --method exact)"
        )
    p = _route_characteristic(k, q)
    return _divisor_union(q, {
        1: [(1, (1,))],
        2: [(2, (1,)), (1, (p,))],
        3: [(3, (1,)), (2, (1,)), (1, (2, 4) if p == 2 else (p,))],
        4: [(4, (1,)), (3, (1,)), (2, (p,))] + ([(1, (p * p,))] if p in (2, 3) else [])}[k])


def period_set_exact(k: int, q: int, *, budget: int | None = None) -> PeriodSet:
    """Exact period set of degree k over F_q, for every k.

    A monic f = x^r * prod g_i^(b_i) has order lcm(ord g_i) * p^t, with
    p^t the least power of p that is >= max b_i.  The degree-d
    irreducibles have exactly the orders e with e | q^d - 1 and
    ord_e(q) = d, phi(e)/d of them each (Lidl & Niederreiter, Thms 3.3,
    3.5, 3.8).  A knapsack over these types (d, e) collects every lcm of
    total degree <= k, powers of x filling the rest; one type may enter
    with multiplicity p^(t-1) + 1 instead, multiplying the lcm by p^t.
    One boost is enough, since every e is prime to p.  Work is capped at
    `budget` candidate periods formed (default 10^6, or PERIOD_LAB_BUDGET).
    """
    p = _route_characteristic(k, q)
    budget = default_budget(budget)
    formed = 0
    # reachable value -> (least degree, bitmask of the plain types' degrees)
    best = {1: (0, 0)}
    final = set()
    by_degree = [[1]] + [[] for _ in range(k)]
    divisor_sets = [set()]
    for d in range(1, k + 1):
        divisor_sets.append(set(_divisors(q ** d - 1)))
        # e has ord_e(q) = d iff e divides no q^(d/r) - 1 for r a prime of d
        types = divisor_sets[d].difference(
            *(divisor_sets[d // r] for r, _ in factor_integer(d)))
        # A plain type of degree r | d merges with a type of degree d into
        # their lcm, again a type of degree d, at less cost; so states that
        # hold one are not extended here.
        merges = sum(1 << r for r in range(1, d + 1) if d % r == 0)
        found = []  # (degree, plain degrees, values), applied after degree d
        for cost in range(k - d + 1):
            for v in by_degree[cost]:
                least, plain = best[v]
                if least != cost or plain & merges:
                    continue
                bases = list(map(math.lcm, repeat(v), types))
                entries = [(cost + d, plain | 1 << d, bases)]
                if v % p:  # no boost yet
                    pt, boosted = p, cost + 2 * d
                    while boosted <= k:
                        entries.append((boosted, plain, [b * pt for b in bases]))
                        boosted = cost + d * (pt + 1)
                        pt *= p
                found += entries
                formed += len(bases) * len(entries)
                if formed > budget:
                    raise BudgetExceeded(
                        f"{formed} candidate periods exceed the budget {budget}"
                    )
        for cost, plain, values in found:
            if cost + d >= k:  # no later degree fits: keep the values only
                final.update(values)
                continue
            for v in values:
                if v not in best or best[v][0] > cost:
                    best[v] = (cost, plain)
                    by_degree[cost].append(v)
    return PeriodSet.of(final.union(best))


def _base_q_index(q, cs) -> int:
    """The base-q index of a monic coefficient tuple, its place in
    _monic_coeffs: coefficient i weighs q^i, and the leading 1 nothing."""
    index = 0
    for c in cs[-2::-1]:
        index = index * q + c
    return index


def _product_step(field: FieldCtx, k: int):
    """(pack, times, unpack) for the products of order_set_bruteforce over
    the field, monic of degree <= k.  pack turns a coefficient tuple into
    the form the pass stores and unpack turns that form back;
    times(u, g, deg) is (u * g, the base-q index of u * g) for stored forms
    u and g with deg u + deg g = deg.

    Over F_p the form is an int of poly's _Slots, coefficient i in slot i.
    u * g is one int product, its slot sums taken mod p at once by the
    magic multiplication.  Its index is slot deg - 1 of (u * g) * r, where
    r holds q^j in slot deg - 1 - j: that slot sums c_i * q^i over i < deg,
    and each slot below it sums less than q^deg, so slots of at least the
    bits of q^k - 1 carry nothing into it.  Over an extension field the
    form is the tuple, multiplied by _rmul and indexed by Horner's rule."""
    q = field.q
    if field.e > 1:
        def times(u, g, deg):
            w = _rmul(field, u, g)
            return w, _base_q_index(q, w)

        return tuple, times, tuple
    p = field.p
    S = _Slots(p, k + 1, (q ** k - 1).bit_length())
    w, s, magic, mask, m = S.w, S.s, S.magic, S.mask, (1 << S.w) - 1
    degrees = range(1, k + 1)
    weights = [None] + [S.pack([q ** (deg - 1 - i) for i in range(deg)]) for deg in degrees]
    shifts = [None] + [w * (deg - 1) for deg in degrees]

    def times(u, g, deg):
        v = u * g
        v -= p * (v * magic >> s & mask)
        return v, v * weights[deg] >> shifts[deg] & m

    return S.pack, times, S.unpack


def order_set_bruteforce(field: FieldCtx, k: int, *,
                         budget: int | None = None) -> PeriodSet:
    """{ord(f) : f monic of degree k over the field}, by one pass that
    reaches every monic polynomial of degree <= k with a nonzero constant
    term exactly once.

    Degree by degree, d = 1..k, the pass walks the coefficient tuples of
    _monic_coeffs (the enumeration behind monic_polys, with no Poly made),
    whose i-th tuple has the base-q index i, and marks every product it
    builds in a bytearray by that index.  So an unmarked polynomial of
    degree d with g(0) != 0 is irreducible.  Each stored product u is then
    extended by g to u * g^j, of order lcm(L_u, ord g) * p^t: L_u is the
    lcm of the orders of u's factors, and p^t the least power of p >= the
    top multiplicity (Lidl & Niederreiter, Thm 3.8).  _product_step
    builds each product and reads its index: over F_p from packed ints, by
    two int multiplications, over an extension field by _rmul and Horner's
    rule.  At d = k the only stored product is 1, so g adds only its own
    order: no product is built or marked.

    The order of x is computed once per orbit {g_c, g_c* : c in F_q^*} of
    irreducibles, where g_c = c^d * g(x/c) has the roots of g times c and
    g_c* is its monic reciprocal.  The first member the pass meets takes
    its order from _irreducible_order, and orders._orbit_rule gives every
    member its order from that one by field arithmetic.  The members are
    recorded by base-q index in an array of q^d 64-bit slots (8 MB at
    degree k under the default budget), and each is read back when the
    pass meets it, later in the same degree.  Over F_13 at k = 3 that is
    39 orders of x for the 818 irreducibles.  Multiplying by c fixes g
    for at most d values of c, so an orbit has at least (q - 1)/d
    members, and the 2(q - 1) members built for it are at most 2d per
    irreducible.  A member given two orders, a power of x that should be
    a constant and is not, or a member not met by the end of its degree
    is a bug (LimitExceeded).

    Each polynomial is reached once, by unique factorization: with its
    irreducible factors in walk order (by degree, then index), it is
    built only from the product u of all its factors but the last, g,
    when the pass meets g.  u is stored by then, since its factors all
    come before g, and the bucket sizes are taken before g extends any of
    them, so no u * g^j meets g again.  A polynomial reached twice is a
    bug (LimitExceeded).  A product of degree above k - d is not stored,
    since every later irreducible has degree >= d.

    Exact oracle for the closed forms, the exact route and the lower
    bound.  It refuses a degree below 1 as the other routes do, but has no
    64-bit ceiling of its own: work is capped at `budget` polynomials of
    degree k (default 10^6, or PERIOD_LAB_BUDGET), checked before any work.
    """
    _check_degree(k)
    budget = default_budget(budget)
    q = field.q
    if _power_exceeds(q, k, budget):
        shown = f"{q}^{k}" if _power_exceeds(q, k, INT64_MAX) else q ** k
        raise BudgetExceeded(f"{shown} polynomials exceed the budget {budget}")
    boost = [_char_boost(field.p, m)[1] for m in range(k + 1)]
    orbit = _orbit_rule(field, k)
    pack, times, unpack = _product_step(field, k)
    marks = [None] + [bytearray(q ** d) for d in range(1, k + 1)]
    # stored[a]: the products of degree a that a later irreducible can
    # extend, as (the product in _product_step's form, lcm of the factors'
    # orders, top multiplicity)
    stored = [[(pack((1,)), 1, 0)]] + [[] for _ in range(k - 1)]
    orders = {1}
    for d in range(1, k + 1):
        keep = k - d  # stored holds degrees 0..keep
        row = marks[d]
        # base-q index -> order of x, for the orbit members: 8 bytes a slot, and
        # no int object per member (orders of x fit in 64 bits, _check_ceiling)
        known = array("Q", [0]) * q ** d
        waiting = 0  # members given an order and not yet met
        for i, g in enumerate(_monic_coeffs(field, d)):
            if row[i] or not i % q:  # a product, or divisible by x
                continue
            if not known[i]:  # the first of its orbit: the one order of x it takes
                for h, t in orbit(g, _irreducible_order(field, g)):
                    index = _base_q_index(q, h)
                    if not known[index]:
                        known[index] = t
                        waiting += 1
                    elif known[index] != t:
                        raise LimitExceeded(f"orbit member {h} given orders {known[index]} "
                                            f"and {t} (bug?)")
            e = known[i]
            waiting -= 1
            if not keep:  # degree k: 1 * g is g, of order e, and nothing follows
                orders.add(e)
                continue
            g = pack(g)
            for a, n in enumerate([len(bucket) for bucket in stored]):
                for u, lcm_u, top in islice(stored[a], n):
                    lcm_w = math.lcm(lcm_u, e)
                    w, deg, j = u, a + d, 1
                    while deg <= k:
                        w, index = times(w, g, deg)
                        if marks[deg][index]:
                            raise LimitExceeded(f"product {unpack(w)} reached twice (bug?)")
                        marks[deg][index] = 1
                        m = max(top, j)
                        orders.add(lcm_w * boost[m])
                        if deg <= keep:
                            stored[deg].append((w, lcm_w, m))
                        deg += d
                        j += 1
        if waiting:
            raise LimitExceeded(f"{waiting} orbit members of degree {d} never met (bug?)")
        marks[d] = known = None  # freed before the next degree's are made
        del stored[keep:]
    return PeriodSet.of(orders)
