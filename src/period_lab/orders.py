"""Polynomial orders: the factorization pipeline and a brute-force oracle.

The order of f = x^r * g with g(0) != 0 is the least n > 0 with g(x)
dividing x^n - 1, equivalently the multiplicative order of x in
F_q[x]/<g>.  The pipeline strips x^r, factors g, handles each repeated
irreducible via the characteristic boost e*p^t, and combines with lcm;
poly_order_bruteforce walks powers of x directly and is independent of
factorization, so the two routes check each other.

The order of an irreducible g of degree d over F_q = F_{p^e} is the
multiplicative order of any root a of g in F_{q^d}^* (Lidl & Niederreiter,
Thm 3.3), so it is the same number over every field that holds the
coefficients of a's minimal polynomial.  _irreducible_order is where F_p
takes over: over an extension field it replaces g by the minimal
polynomial M of a over F_p (the product of the conjugates of g under
c -> c^p), and _order_by_key computes and caches the order of x modulo M
under (p, M) on the packed prime-field kernel of M, so the conjugates of
g share one entry.  Every product here runs on a kernel of poly._kernel,
built for the one modulus it serves; this module reads no field tables.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    LimitExceeded,
    Record,
    ReduciblePolynomial,
    ZeroConstantTerm,
    ZeroPolynomial,
    walk_back,
)
from .ff import FieldCtx
from .intfactor import _check_ceiling, factor_integer, lcm64, order_from_multiple
from .poly import Poly, _kernel, _mk, _rmonic, factor, is_irreducible


class FactorContribution(Record):
    """One distinct irreducible factor's share of the order: its
    multiplicity, base_order (the order of the irreducible factor itself),
    char_exponent (the smallest t with p^t >= multiplicity) and contribution
    (base_order * p^char_exponent)."""

    __slots__ = _fields = ("factor", "multiplicity", "base_order", "char_exponent",
                           "contribution")

    def __init__(self, factor: Poly, multiplicity: int, base_order: int,
                 char_exponent: int, contribution: int):
        Record.__init__(self, factor, multiplicity, base_order, char_exponent,
                        contribution)


class OrderResult(Record):
    """Order of a polynomial plus the per-factor ledger behind it."""

    __slots__ = _fields = ("order", "strip_exponent", "contributions")

    def __init__(self, order: int, strip_exponent: int,
                 contributions: tuple[FactorContribution, ...]):
        Record.__init__(self, order, strip_exponent, contributions)


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


@lru_cache(maxsize=4)
def _prime_field(p: int) -> FieldCtx:
    # one F_p per recent p, not one per miss: the order cache keeps no field
    return FieldCtx(p, 1, None)  # p is checked


@lru_cache(maxsize=1 << 14)
def _order_by_key(p: int, key) -> int:
    """Order of x modulo the monic irreducible M = `key` (its coefficients
    over F_p, as bytes or a tuple) of degree d, found on the kernel of M
    from the factored multiple p^d - 1."""
    k = _kernel(_prime_field(p), tuple(key))
    one = k.one
    return order_from_multiple(factor_integer(p ** (len(key) - 1) - 1),
                               k.pack((0, 1)),  # x reduced: a constant when d = 1
                               k.power, lambda y: y == one)


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
    return _order_by_key(p, bytes(coeffs) if p <= 256 else coeffs)


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
    """Order of any nonzero f, with the full per-factor ledger."""
    r, g = strip_x_power(f)
    if g.degree == 0:
        return OrderResult(1, r, ())
    p = f.field.p
    entries = []
    order = 1
    for irr, mult in factor(g):
        e = _irreducible_order(irr.field, irr.coeffs)
        t, pt = _char_boost(p, mult)
        contribution = e * pt
        entries.append(FactorContribution(irr, mult, e, t, contribution))
        order = lcm64(order, contribution)
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

    return walk_back((1,) + (0,) * (d - 1), times_x, "order", F.q ** d - 1,
                     LimitExceeded, budget)
