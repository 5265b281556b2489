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
_orbit_rule carries one order of x to the whole orbit of g under F_q^*
and reciprocals: the order of c*a follows from that of a by one power of
x that is a constant and by discrete logs in F_q^*.  Every product here
runs on a kernel built for the one modulus it serves; this module reads
no field tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (
    LimitExceeded,
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
    over F_p, as bytes or a tuple) of degree D: the order of a root of M
    in F_{p^D}^*, found on M's kernel from the multiple p^D - 1.  At
    D = 1 the kernel reduces x to the root -M(0)."""
    k = _prime_kernel(p, tuple(key))
    one = k.one
    return order_from_multiple(factor_integer(p ** (len(key) - 1) - 1), k.pack((0, 1)),
                               k.power, lambda y: y == one)


def _x_power_constant(field, coeffs: tuple, n: int) -> int:
    """x^n modulo the monic irreducible `coeffs` over field = F_q, for an n
    whose power of a root the caller has shown to lie in F_q: that
    constant.  A remainder that is not a constant means that the order
    the caller derived n from is wrong (LimitExceeded, a bug)."""
    rem = _kernel(field, coeffs).powmod((0, 1), n)
    if len(rem) != 1:
        raise LimitExceeded(f"x^{n} mod {coeffs} is not a constant (bug?)")
    return rem[0]


def _orbit_rule(field, top: int):
    """orbit(coeffs, o) over field = F_q, for degrees up to top: for the
    monic irreducible g = `coeffs` of degree d with g(0) != 0, whose root a
    has order o, an iterable of the pairs (g_c, ord(c*a)) and
    (g_c*, ord(c*a)) for every c in F_q^*: the orbit of g under F_q^* and
    reciprocals, with the order of each member, from one order of x.

    g_c = c^d * g(x/c), with coefficient j equal to g_j * c^(d - j), is
    monic with the root c*a, so it is the minimal polynomial of c*a; its
    monic reciprocal g_c* has the root 1/(c*a), of the same order.  With
    omega a generator of F_q^*, g_(omega*c) is g_c with coefficient j
    times omega^(d - j), and (g*)_c, for c = omega^k, is the reciprocal of
    g_(1/c), so it takes the order of omega^(-k) * a.

    ord(c*a) follows from o in the cyclic group F_{q^d}^* (Lidl &
    Niederreiter, Thm 3.3).  Let R be the primes r of q - 1 with
    v_r(o) <= v_r(q - 1) = b, P and U the parts of o and of q - 1 at R,
    K = o/P, u = (q - 1)/U and E = K*u.

    - At a prime r of o outside R, ord(c*a) has the part of o: if r does
      not divide q - 1, c's order is prime to r; if v_r(o) > b, the
      r-parts of a and c have orders r^v_r(o) and at most r^b, and in a
      cyclic r-group the product has the larger order.  These parts make
      up K.
    - At R: ord(c*a) divides lcm(o, q - 1), whose part outside R divides
      E, and E is prime to R.  So (c*a)^E has order the R-part of
      ord(c*a).  (c*a)^E = c^E * z^u with z = a^K, of order P, which
      divides q - 1, so z lies in F_q^*, the elements whose order divides
      q - 1: x^K mod g is the constant z (_x_power_constant).  With
      c = omega^k and z^u = omega^l, (c*a)^E = omega^(k*E + l), of order
      (q - 1)/gcd(k*E + l, q - 1).

    So ord(omega^k * a) = K * (q - 1)/gcd(k*E + l, q - 1).  No kernel is
    built when P = 1 (z = 1) or P = 2 (z = -1, the one element of order
    2, omega^((q - 1)/2)); otherwise z is found among the P powers of
    omega^((q - 1)/P), and one outside them raises LimitExceeded (a bug).
    At c = -1, in odd characteristic, g_c is (-1)^d * g(-x), the minimal
    polynomial of -a, so the orbit holds each irreducible's negative as
    well as its reciprocal."""
    m = field.q - 1
    pw, mul = field.pow, field.mul
    primes = [(r, r ** b) for r, b in factor_integer(m)]
    omega = next(w for w in field.units() if all(pw(w, m // r) != 1 for r, _ in primes))
    # steps[d][j] = omega^(d - j): g_(omega*c) is g_c times it, coefficient by coefficient
    steps = [[pw(omega, d - j) for j in range(d + 1)] for d in range(top + 1)]

    def orbit(coeffs, o):
        d = len(coeffs) - 1
        part = whole = 1  # P and U
        for r, rb in primes:
            if o % (rb * r):  # r is in R
                part *= math.gcd(o, rb)
                whole *= rb
        keep, u = o // part, m // whole  # K and u
        if part <= 2:  # z = 1 = omega^0 or z = -1 = omega^(m/2)
            log_z = m // 2 * (part - 1)
        else:  # z is among the P powers of omega^(m/P)
            z, base, y = _x_power_constant(field, coeffs, keep), pw(omega, m // part), 1
            for log_z in range(0, m, m // part):
                if y == z:
                    break
                y = mul(y, base)
            else:
                raise LimitExceeded(f"x^{keep} mod {coeffs} = {z} is not a root of "
                                   f"x^{part} - 1 (bug?)")
        e, l = keep * u, log_z * u % m
        found = [keep * (m // math.gcd(k * e + l, m)) for k in range(m)]
        h, inv0 = coeffs, field.inv(coeffs[0])
        h_star = coeffs[::-1] if inv0 == 1 else tuple([mul(a, inv0) for a in reversed(coeffs)])
        yield h, o
        yield h_star, o
        step = steps[d]
        for k in range(1, m):
            # g_c and (g*)_c for c = omega^k: (g*)_c has the root c/a, of the
            # order of c^-1 * a
            h = tuple(map(mul, h, step))
            h_star = tuple(map(mul, h_star, step))
            yield h, found[k]
            yield h_star, found[-k]

    return orbit


def _irreducible_order(field, coeffs: tuple) -> int:
    """Order of x modulo the monic irreducible `coeffs` over field = F_q.

    The 64-bit ceiling is checked first, on the caller's (d, q).  Over an
    extension field the modulus becomes its minimal polynomial M over F_p
    (_prime_field_minimal_poly), of degree s*d with p^(s*d) - 1 dividing
    q^d - 1; over F_p, M is g.  The order is cached under (p, M), with M
    as bytes when p <= 256, so the s conjugates of g share one entry."""
    _check_ceiling(len(coeffs) - 1, field.q)
    if field.e > 1:
        coeffs = _prime_field_minimal_poly(field, coeffs)
    p = field.p
    return _order_by_key(p, bytes(coeffs) if p <= 256 else tuple(coeffs))


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
