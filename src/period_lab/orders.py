"""Polynomial orders: the factorization pipeline and a brute-force oracle.

The order of f = x^r * g with g(0) != 0 is the least n > 0 with g(x)
dividing x^n - 1, equivalently the multiplicative order of x in
F_q[x]/<g>.  The pipeline strips x^r, factors g, handles each repeated
irreducible via the characteristic boost e*p^t, and combines with lcm;
poly_order_bruteforce walks powers of x directly and is independent of
factorization, so the two routes check each other.  The factoring stops
at the 64-bit limit: past the degree D with q^D - 1 <= 2^63 - 1 no order
is in range, so poly_order splits g only up to degree D.

The order of an irreducible g of degree d over F_q = F_{p^e} is the
multiplicative order of any root a of g in F_{q^d}^* (Lidl & Niederreiter,
Thm 3.3), so it is the same number over every field that holds the
coefficients of a's minimal polynomial.  _irreducible_order is where F_p
takes over: over an extension field it replaces g by the minimal
polynomial M of a over F_p (the product of the conjugates of g under
c -> c^p), and _order_by_key computes and caches the order of x modulo M
on a packed prime-field kernel, which poly._prime_kernel builds from p
alone, so the conjugates of g share one entry and no F_p object is made.
A root and its inverse have one order, and over odd p the order of -a
follows from the order o of a: in a field, -1 is the only element of
order 2, so for even o, -a = a^(1 + o/2), of order o/2 when o = 2
(mod 4) and o when 4 | o, and for odd o, -1 is not in <a> and -a has
order 2o.  So the entry and its kernel are keyed on the least of M, its
monic reciprocal M* (the inverses of M's roots), M- = (-1)^deg(M) M(-x)
(their negatives) and M-*, and an order keyed on M- or M-* is mapped
back.  Every product here runs on a kernel built for the one modulus it
serves; this module reads no field tables.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    OutOfRange,
    Record,
    ReduciblePolynomial,
    ZeroConstantTerm,
    ZeroPolynomial,
    walk_back,
)
from .intfactor import (
    _ceiling_degree,
    _check_ceiling,
    factor_integer,
    lcm64,
    order_from_multiple,
)
from .poly import Poly, _factor_parts, _kernel, _mk, _prime_kernel, _rmonic, is_irreducible


class FactorContribution(Record):
    """One distinct irreducible factor's share of the order: the factor, its
    multiplicity, base_order (the order of the factor itself), char_exponent
    (the smallest t with p^t >= multiplicity) and contribution
    (base_order * p^char_exponent)."""

    __slots__ = _fields = ("factor", "multiplicity", "base_order", "char_exponent",
                           "contribution")


class OrderResult(Record):
    """The order of f = x^r * g, strip_exponent r, and contributions: the
    ledger behind it, one FactorContribution per distinct factor of g."""

    __slots__ = _fields = ("order", "strip_exponent", "contributions")


def strip_x_power(f: Poly) -> tuple[int, Poly]:
    """Write f = x^r * g with g(0) != 0 and return (r, g)."""
    if f.is_zero:
        raise ZeroPolynomial("cannot strip the zero polynomial")
    r = 0
    while f.coeffs[r] == 0:
        r += 1
    return r, _mk(f.field, f.coeffs[r:])


def _prime_field_minimal_poly(field, coeffs: tuple) -> tuple:
    """The minimal polynomial M over F_p of a root a of the monic
    irreducible g = `coeffs` of degree d over field = F_q, q = p^e > p.

    M is the product of the conjugates g, sigma(g), ..., sigma^(s-1)(g),
    where sigma(c) = c^p on the coefficients and s is the least s >= 1 with
    sigma^s(g) = g: the orbit closes after s | e steps, once sigma^s fixes
    every coefficient, that is when the coefficients lie in F_{p^s}.
    sigma^i(g) is the minimal polynomial over F_q of a^(p^i), so each
    divides M; the s of them are distinct monic irreducibles, so their
    product P divides M.  P is fixed by sigma, so P lies in F_p[x], and
    P(a) = 0, so M divides P.  Hence M = P, of degree s*d, with
    coefficients in F_p, whose elements encode as their residues.  sigma
    is F.pow, and the products run on the field's kernel modulo x^N,
    N = e*d + 1, built once per call: no partial product reaches degree
    N, so none is reduced."""
    p, powf = field.p, field.pow
    n = field.e * (len(coeffs) - 1) + 1
    mul = _kernel(field, (0,) * n + (1,)).mulmod
    out = conj = coeffs
    while True:
        conj = tuple(powf(c, p) for c in conj)
        if conj == coeffs:
            return out
        out = mul(out, conj)


@lru_cache(maxsize=1 << 14)
def _order_by_key(p: int, key) -> int:
    """Order of x modulo the monic irreducible M = `key` (its coefficients
    over F_p, as bytes or a tuple) of degree d, found on the kernel of M
    from the factored multiple p^d - 1."""
    k = _prime_kernel(p, tuple(key))
    one = k.one
    return order_from_multiple(factor_integer(p ** (len(key) - 1) - 1),
                               k.pack((0, 1)),  # x reduced: a constant when d = 1
                               k.power, lambda y: y == one)


def _negated_order(o: int) -> int:
    """The order of -a from the order o of a, in a field of odd
    characteristic: 2o for odd o, o/2 for o = 2 (mod 4), o when 4 | o.

    -1 is the only element of order 2, so for even o, a^(o/2) = -1 and
    -a = a^(1 + o/2), whose order is o / gcd(1 + o/2, o): 1 + o/2 is odd,
    and prime to o/2, so the gcd is 2 when o/2 is odd and 1 when it is
    even.  For odd o, -1 is not in <a>, so (-a)^n = 1 needs n even and
    a^n = 1, and the order is 2o.  The map is an involution."""
    if o & 1:
        return 2 * o
    return o >> 1 if o & 3 == 2 else o


def _irreducible_order(field, coeffs: tuple) -> int:
    """Order of x modulo the monic irreducible `coeffs` over field = F_q.

    The 64-bit ceiling is checked first, on the caller's (d, q).  Over an
    extension field the modulus becomes its minimal polynomial M over F_p
    (_prime_field_minimal_poly), of degree s*d with p^(s*d) - 1 dividing
    q^d - 1; over F_p, M is g.  The roots of the monic reciprocal
    M* = x^deg(M) * M(1/x) / M(0) are the inverses of the roots of M, and
    a root and its inverse have one order.  Over odd p the roots of
    M- = (-1)^deg(M) * M(-x) are the negatives of M's, whose order follows
    from M's by _negated_order, and M-* is the reciprocal of M-.  So the
    order is cached under (p, min(M, M*, M-, M-*)), with the key as bytes
    when p <= 256: the s conjugates of g, their reciprocals and their
    negatives share one entry, and an order keyed on M- or M-* is mapped
    back.  M* is M reversed, over odd p scaled by 1/M(0); M- is M with
    the coefficients of x^(deg - 1), x^(deg - 3), ... negated.  Over F_2,
    -1 = 1 and the key is min(M, M*)."""
    _check_ceiling(len(coeffs) - 1, field.q)
    if field.e > 1:
        coeffs = _prime_field_minimal_poly(field, coeffs)
    p = field.p
    if p == 2:
        return _order_by_key(2, bytes(min(coeffs, coeffs[::-1])))
    coeffs = list(coeffs)
    star = coeffs[::-1]
    c0 = coeffs[0]
    if c0 != 1:
        inv = pow(c0, -1, p)
        star = [c * inv % p for c in star]
    neg, negstar = coeffs[:], star[:]
    neg[-2::-2] = [p - c if c else 0 for c in coeffs[-2::-2]]
    negstar[-2::-2] = [p - c if c else 0 for c in star[-2::-2]]
    plus, minus = min(coeffs, star), min(neg, negstar)
    negated = minus < plus
    key = minus if negated else plus
    order = _order_by_key(p, bytes(key) if p <= 256 else tuple(key))
    return _negated_order(order) if negated else order


def irreducible_order(g: Poly) -> int:
    """Multiplicative order of x in F_q[x]/<g> for monic irreducible g."""
    gm = g.monic()
    if gm.degree >= 1 and gm.constant_term == 0:
        raise ZeroConstantTerm("x divides the polynomial; strip it first")
    if gm.degree < 1 or not is_irreducible(gm):
        raise ReduciblePolynomial(f"{gm} is not irreducible")
    return _irreducible_order(gm.field, gm.coeffs)


def _char_boost(p: int, multiplicity: int) -> tuple[int, int]:
    # smallest (t, p^t) with p^t >= multiplicity
    t, pt = 0, 1
    while pt < multiplicity:
        pt *= p
        t += 1
    return t, pt


def poly_order(f: Poly) -> OrderResult:
    """Order of any nonzero f, with the full per-factor ledger.

    The factors of g are found, and their orders taken, by degree: past
    the degree D with q^D - 1 at most 2^63 - 1 every order is out of
    range, so the distinct-degree split stops after degree D.  The factors
    found up to then are taken first, an lcm past 2^63 - 1 among them
    raising OverflowError; then one past D raises OutOfRange, naming its
    degree if the split ended by itself and the limit D if it stopped."""
    r, g = strip_x_power(f)
    if g.degree == 0:
        return OrderResult(1, r, ())
    F = f.field
    top = _ceiling_degree(F.q)
    factors, rest = _factor_parts(F, _rmonic(F, g.coeffs), top)
    entries = []
    order = 1
    for cs, mult in factors:
        e = _irreducible_order(F, cs)
        t, pt = _char_boost(F.p, mult)
        contribution = e * pt
        entries.append(FactorContribution(_mk(F, cs), mult, e, t, contribution))
        order = lcm64(order, contribution)
    if rest:
        raise OutOfRange(f"factors of degree above {top} over F_{F.q} are past the "
                         f"64-bit limit: q^k - 1 must be at most 2^63 - 1")
    return OrderResult(order, r, tuple(entries))


def poly_order_bruteforce(f: Poly, *, budget: int | None = None) -> int:
    """Least n with g | x^n - 1, found by walking h <- x*h mod g.

    Independent of the factorization pipeline.  Passing the provable
    bound q^deg(g) - 1 raises LimitExceeded, which signals a bug rather
    than a hard input; an order above `budget` steps (default 10^6, or
    PERIOD_LAB_BUDGET) raises BudgetExceeded.
    """
    r, g = strip_x_power(f)
    if g.degree == 0:
        return 1
    F = f.field
    gcs = _rmonic(F, g.coeffs)
    d = len(gcs) - 1
    mul, sub = F.mul, F.sub

    def times_x(h: tuple) -> tuple:
        carry = h[-1]
        h = [0, *h[:-1]]
        if carry:
            for i in range(d):
                if gcs[i]:
                    h[i] = sub(h[i], mul(carry, gcs[i]))
        return tuple(h)

    return walk_back((1,) + (0,) * (d - 1), times_x, "order", F.q ** d - 1, budget)
