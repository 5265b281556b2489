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
computed; every other h is built once as a product whose order follows
from its factors' (Lidl & Niederreiter, Thm 3.8).  It is an oracle for
small (q, k), and the exact route answers everything else.

The two routes stay independent.  The exact route never finds an
irreducible: it takes the orders of the degree-d irreducibles to be the
e with ord_e(q) = d, a counting theorem.  The brute-force route uses no
such count: it finds actual irreducible polynomials and computes the
order of x modulo each one.
"""

from __future__ import annotations

import math
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
    divisor_list,
    factor_integer,
    split_prime_power,
)
from .orders import _char_boost, _irreducible_order
from .poly import _rmul, monic_polys


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

    def issubset(self, other) -> bool:
        return self.as_set().issubset(other)

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
    return PeriodSet(tuple(divisor_list(n)))


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


def period_set_lower_bound(k: int, q: int) -> PeriodSet:
    """The union over 1 <= i <= k of {p^j : j <= t_i} * D(q^i - 1), with
    t_i the least t such that p^t >= floor(k/i).

    Always contained in the true period set; the containment is an
    equality for k <= 4 and can be strict from k = 5 on.
    """
    if k < 1:
        raise OutOfRange("degree must be >= 1")
    _check_ceiling(k, q)
    p, _ = split_prime_power(q)
    return _divisor_union(q, [(i, [p ** j for j in range(_char_boost(p, k // i)[0] + 1)])
                              for i in range(1, k + 1)])


def period_set_closed_form(k: int, q: int) -> PeriodSet:
    """Exact period set for degrees 1-4 over F_q.

    Degree 3 gains {2,4}*D(q-1) in characteristic 2, and degree 4 gains
    p^2*D(q-1) in characteristics 2 and 3, reflecting how high a power of
    p is needed to cover a repeated linear factor.
    """
    if not 1 <= k <= 4:
        raise DegreeOutOfRange(
            f"no closed form for degree {k}; use the exact route "
            f"(period_set_exact, --method exact)"
        )
    _check_ceiling(k, q)
    p, _ = split_prime_power(q)
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
    if k < 1:
        raise OutOfRange("degree must be >= 1")
    _check_ceiling(k, q)
    budget = default_budget(budget)
    p, _ = split_prime_power(q)
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


def order_set_bruteforce(field: FieldCtx, k: int, *,
                         budget: int | None = None) -> PeriodSet:
    """{ord(f) : f monic of degree k over the field}, by one pass that
    reaches every monic polynomial of degree <= k with a nonzero constant
    term exactly once.

    Degree by degree, d = 1..k, the pass walks monic_polys, whose i-th
    polynomial has the base-q index i, and marks every product it builds
    in a bytearray by that index.  So an unmarked polynomial of degree d
    with g(0) != 0 is irreducible, and its order of x is taken from
    _irreducible_order, which computes it once per class of minimal
    polynomials over F_p, their reciprocals and their negatives (over
    F_13 at k = 3, 210 orders for the 818 irreducibles) and looks the
    rest up.  Each stored product u is then extended by g to u * g^j, of
    order lcm(L_u, ord g) * p^t: L_u is the lcm of the orders of u's
    factors, and p^t the least power of p >= the top multiplicity (Lidl &
    Niederreiter, Thm 3.8).  At d = k the only stored product is 1, so g
    adds only its own order: no product is built or marked.

    Each polynomial is reached once, by unique factorization: with its
    irreducible factors in walk order (by degree, then index), it is
    built only from the product u of all its factors but the last, g,
    when the pass meets g.  u is stored by then, since its factors all
    come before g, and the bucket sizes are taken before g extends any of
    them, so no u * g^j meets g again.  A polynomial reached twice is a
    bug (LimitExceeded).  A product of degree above k - d is not stored,
    since every later irreducible has degree >= d.

    Exact oracle for the closed forms, the exact route and the lower
    bound.  Work is capped at `budget` polynomials of degree k (default
    10^6, or PERIOD_LAB_BUDGET), checked before any work.
    """
    if k < 1:
        raise OutOfRange("degree must be >= 1")
    budget = default_budget(budget)
    q = field.q
    # q >= 2, so q^b > budget for b its bit length, and q^63 > INT64_MAX:
    # neither test builds q^k for a large k
    if q ** min(k, budget.bit_length()) > budget:
        total = q ** min(k, 63)
        shown = total if total <= INT64_MAX else f"{q}^{k}"
        raise BudgetExceeded(f"{shown} polynomials exceed the budget {budget}")
    boost = [_char_boost(field.p, m)[1] for m in range(k + 1)]
    marks = [None] + [bytearray(q ** d) for d in range(1, k + 1)]
    # stored[a]: the products of degree a that a later irreducible can
    # extend, as (coefficients, lcm of the factors' orders, top multiplicity)
    stored = [[((1,), 1, 0)]] + [[] for _ in range(k - 1)]
    orders = {1}
    for d in range(1, k + 1):
        keep = k - d  # stored holds degrees 0..keep
        row = marks[d]
        for i, f in enumerate(monic_polys(field, d)):
            if row[i] or not i % q:  # a product, or divisible by x
                continue
            g = f.coeffs
            e = _irreducible_order(field, g)
            if not keep:  # degree k: 1 * g is g, of order e, and nothing follows
                orders.add(e)
                continue
            for a, n in enumerate([len(bucket) for bucket in stored]):
                for u, lcm_u, top in islice(stored[a], n):
                    lcm_w = math.lcm(lcm_u, e)
                    w, deg, j = u, a + d, 1
                    while deg <= k:
                        w = _rmul(field, w, g)
                        index = 0
                        for c in w[-2::-1]:
                            index = index * q + c
                        if marks[deg][index]:
                            raise LimitExceeded(f"product {w} reached twice (bug?)")
                        marks[deg][index] = 1
                        m = max(top, j)
                        orders.add(lcm_w * boost[m])
                        if deg <= keep:
                            stored[deg].append((w, lcm_w, m))
                        deg += d
                        j += 1
        marks[d] = None
        del stored[keep:]
    return PeriodSet.of(orders)
