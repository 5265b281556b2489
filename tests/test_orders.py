import random
from math import gcd

import pytest

from period_lab.errors import (
    BudgetExceeded,
    OutOfRange,
    ReduciblePolynomial,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from period_lab.ff import make_field
from period_lab.intfactor import euler_phi, factor_integer, lcm64
from period_lab.orders import (
    _irreducible_order,
    _order_by_key,
    _order_of_x,
    irreducible_order,
    poly_order,
    poly_order_bruteforce,
    prime_power_order,
    strip_x_power,
)
from period_lab.poly import Poly, factor, is_irreducible, monic_polys, parse_poly, powmod

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def divides_x_n_minus_1(g, n):
    """Oracle: literal check that g | x^n - 1."""
    field = g.field
    xn = Poly(field, (field.neg(1),) + (0,) * (n - 1) + (1,))
    return (xn % g).is_zero


def order_by_definition(g, cap):
    """Oracle: first n with g | x^n - 1, by scanning n upward."""
    for n in range(1, cap + 1):
        if divides_x_n_minus_1(g, n):
            return n
    return None


def test_strip_x_power():
    r, g = strip_x_power(parse_poly(F2, "x^3+x^2"))
    assert (r, g) == (2, parse_poly(F2, "x+1"))
    r, g = strip_x_power(parse_poly(F2, "x^2+x+1"))
    assert (r, g) == (0, parse_poly(F2, "x^2+x+1"))
    r, g = strip_x_power(parse_poly(F2, "x^5"))
    assert (r, g) == (5, Poly.one(F2))
    with pytest.raises(ZeroPolynomial):
        strip_x_power(Poly.zero(F2))


def test_irreducible_order_references():
    assert irreducible_order(parse_poly(F2, "x^2+x+1")) == 3
    assert irreducible_order(parse_poly(F2, "x^3+x+1")) == 7
    for F in (F2, F3, F5):
        assert irreducible_order(parse_poly(F, "x-1")) == 1
    with pytest.raises(ReduciblePolynomial):
        irreducible_order(parse_poly(F2, "x^2+1"))
    with pytest.raises(ZeroConstantTerm):
        irreducible_order(Poly.x(F2))


def test_sixty_four_bit_ceiling():
    # the limit applies to each irreducible factor, not to the input
    big = parse_poly(F2, "x^64+x^4+x^3+x+1")
    assert is_irreducible(big)
    with pytest.raises(OutOfRange, match="degree 64 over F_2 is past the 64-bit limit"):
        poly_order(big)
    assert poly_order(parse_poly(F2, "x^64+x+1")).order == 4095
    # over F_4 the limit names the caller's degree and field, not the
    # degree 64 of the minimal polynomial over F_2 that the order uses
    F4 = make_field(2, 2)
    big4 = parse_poly(F4, "x^32+[1,1]*x^30+x^25+x^9+[0,1]*x^2+1")
    assert is_irreducible(big4)
    with pytest.raises(OutOfRange, match="degree 32 over F_4 is past the 64-bit limit"):
        poly_order(big4)


def test_caches_are_bounded():
    for cached in (factor_integer, _order_by_key):
        assert cached.cache_info().maxsize is not None


def test_irreducible_order_cache_keys():
    """The order cache keys a modulus by its bytes (q <= 256) or by its
    coefficient tuple (here F_4096 and F_1048573), and a cached answer is
    the uncached one, also for moduli with a zero middle coefficient."""
    rng = random.Random(4)
    _order_by_key.cache_clear()
    for F in (F5, make_field(2, 8), make_field(2, 12), make_field(1048573)):
        found = set()
        while len(found) < 3:
            g = Poly(F, [rng.randrange(1, F.q), 0, rng.randrange(F.q), 1])
            if g.coeffs not in found and is_irreducible(g):
                found.add(g.coeffs)
                want = _order_of_x(F, g.coeffs)
                assert _irreducible_order(F, g.coeffs) == want  # a miss
                assert _irreducible_order(F, g.coeffs) == want  # a hit
    assert _order_by_key.cache_info().hits == 12


def test_irreducible_order_divides_group_order():
    for F in (F2, F3):
        for d in (1, 2, 3):
            for g in monic_polys(F, d):
                if g.constant_term == 0 or not is_irreducible(g):
                    continue
                e = irreducible_order(g)
                assert (F.q ** d - 1) % e == 0
                assert order_by_definition(g, e) == e


def test_prime_power_order():
    # repeated root 3 of order 4 over F_5, squared: boost by p once
    assert prime_power_order(parse_poly(F5, "x-3"), 2) == 20
    assert prime_power_order(parse_poly(F2, "x^2+x+1"), 1) == 3
    # derived oracle: (x+1)^3 divides x^4-1 over F_2 but no smaller x^n-1
    cube = parse_poly(F2, "x+1") ** 3
    assert order_by_definition(cube, 16) == 4
    assert prime_power_order(parse_poly(F2, "x+1"), 3) == 4


def test_poly_order_references():
    assert poly_order(parse_poly(F2, "x^5+x^4+1")).order == 21
    assert poly_order(parse_poly(F5, "x^2-x-1")).order == 20
    assert poly_order(parse_poly(F2, "x^2+x+1")).order == 3
    assert poly_order(Poly.constant(F5, 4)) == poly_order(Poly.constant(F5, 4))
    assert poly_order(Poly.constant(F5, 4)).order == 1
    with pytest.raises(ZeroPolynomial):
        poly_order(Poly.zero(F3))


def test_poly_order_ledger():
    result = poly_order(parse_poly(F2, "x^3+x^2"))  # x^2 * (x+1)
    assert result.strip_exponent == 2
    assert result.order == 1
    assert len(result.contributions) == 1
    entry = result.contributions[0]
    assert str(entry.factor) == "x+1"
    assert (entry.base_order, entry.char_exponent, entry.contribution) == (1, 0, 1)
    result = poly_order(parse_poly(F2, "x^5+x^4+1"))
    assert result.order == lcm64(*(c.contribution for c in result.contributions))
    for c in result.contributions:
        d = c.factor.degree
        assert (2 ** d - 1) % c.base_order == 0


def test_poly_order_bruteforce_references():
    assert poly_order_bruteforce(parse_poly(F2, "x^2+x+1")) == 3
    assert poly_order_bruteforce(parse_poly(F3, "x-1")) == 1
    assert poly_order_bruteforce(parse_poly(F5, "x^2-x-1")) == 20
    assert poly_order_bruteforce(parse_poly(F5, "x^4")) == 1


def test_poly_order_bruteforce_budget():
    f = parse_poly(F5, "x^2-x-1")  # order 20
    assert poly_order_bruteforce(f, budget=20) == 20
    with pytest.raises(BudgetExceeded, match="^no order within the budget of 19 steps$"):
        poly_order_bruteforce(f, budget=19)


def test_order_insensitive_to_x_powers_and_scalars():
    f = parse_poly(F5, "x^2+2")
    base = poly_order(f).order
    for r in (1, 2, 5):
        assert poly_order(f.shift(r)).order == base
    for c in (2, 3, 4):
        assert poly_order(f.scale(c)).order == base


def test_pipeline_matches_definition_oracle():
    # the brute-force walk agrees with the literal divide-x^n-1 definition
    for g in (parse_poly(F2, "x^5+x^4+1"), parse_poly(F3, "x^2+1"),
              parse_poly(F5, "x^2-x-1")):
        n = poly_order_bruteforce(g)
        assert order_by_definition(g, n) == n


def test_pipeline_vs_bruteforce_random_extensions():
    rng = random.Random(20)
    for F in (make_field(2, 2), F5):
        for _ in range(250):
            deg = rng.randrange(1, 7)
            cs = [rng.randrange(F.q) for _ in range(deg)] + [1]
            f = Poly(F, cs)
            assert poly_order(f).order == poly_order_bruteforce(f), str(f)


@pytest.mark.parametrize("q,ks", [(2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_primitive_polynomial_count(q, ks):
    # primitive irreducibles of degree k over F_q number phi(q^k - 1) / k
    F = make_field(q)
    for k in ks:
        count = 0
        for f in monic_polys(F, k):
            if f.constant_term == 0 or not is_irreducible(f):
                continue
            if irreducible_order(f) == q ** k - 1:
                count += 1
        assert count == euler_phi(q ** k - 1) // k


def subfield_embedding(G, F):
    """A field map G = F_{p^t} -> F = F_{p^e} for t | e: G's generator goes
    to the least root in F of G's modulus."""
    if G.e == 1 or G == F:
        return lambda c: c
    w = next(a for a in F.elements() if Poly(F, G.modulus)(a) == 0)

    def embed(c):
        out = 0
        for i, ci in enumerate(G.coeffs(c)):
            out = F.add(out, F.mul(ci, F.pow(w, i)))
        return out
    return embed


# (p, e, t): irreducibles over the subfield F_{p^t} of F_{p^e}; t = e for
# the fields the `orders` workload draws from, for F_8, F_25, F_27, F_3125
# (log tables, no addition table) and F_8192 (no tables, degree 1 only)
@pytest.mark.parametrize("p,e,t", [(p, e, e) for p, e in (
    (2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (2, 8), (2, 12),
    (2, 3), (5, 2), (3, 3), (5, 5), (2, 13))] + [(2, 2, 1), (2, 4, 1), (2, 4, 2)])
def test_irreducible_order_matches_bruteforce(p, e, t):
    """The order of x, found over F_p on the minimal polynomial of a root,
    equals the walk over F_q on random irreducibles g of every degree with
    q^deg(g) <= 2^12 (and degree 1 always).  With t < e the moduli are the
    factors over F_q of irreducibles h of degree D over F_{p^t}: gcd(D,
    e/t) conjugates of degree D/gcd(D, e/t) whose coefficients lie in a
    proper subfield, so the orbit under c -> c^p closes before e steps
    (F_2[x] over F_4 and F_16 with gcd(D, e) = 1 and > 1, F_4[x] over
    F_16).  Each factor's order is also the order of h over F_{p^t}, and a
    degree-1 modulus x + c has the multiplicative order of -c."""
    F, G = make_field(p, e), make_field(p, t)
    embed = subfield_embedding(G, F)
    rng = random.Random(F.q if t == e else F.q * G.q)
    D = 1
    while D == 1 or G.q ** D <= 2 ** 12:
        split = gcd(D, e // t)
        if D == 1 or F.q ** (D // split) <= 2 ** 12:
            found = 0
            while found < 6:
                h = Poly(G, [rng.randrange(1, G.q)]
                         + [rng.randrange(G.q) for _ in range(D - 1)] + [1])
                if not is_irreducible(h):
                    continue
                found += 1
                parts = factor(Poly(F, [embed(c) for c in h.coeffs]))
                assert [(g.degree, m) for g, m in parts] == [(D // split, 1)] * split, h
                want = _order_of_x(G, h.coeffs)
                for g, _ in parts:
                    assert _order_of_x(F, g.coeffs) == want, g
                    assert poly_order_bruteforce(g) == want, g
                    if g.degree == 1:
                        assert F.multiplicative_order(F.neg(g.coeffs[0])) == want, g
        D += 1


# (p, e, d) with q^d up to 2^60, past the walk's reach
@pytest.mark.parametrize("p,e,d", [(2, 2, 30), (3, 2, 18), (2, 4, 15), (2, 8, 7), (2, 12, 5)])
def test_irreducible_order_jump_ahead(p, e, d):
    """The order n of x modulo random irreducibles of degree d over F_q,
    checked by x^n = 1 and x^(n/r) != 1 for each prime r | n, with powmod
    on the F_q kernel of the modulus, which takes no minimal polynomial
    over F_p and no power on a prime-field kernel."""
    F = make_field(p, e)
    rng = random.Random(F.q ** d)
    x, one = Poly.x(F), Poly.one(F)
    found = 0
    while found < 2:
        g = Poly(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(d - 1)] + [1])
        if not is_irreducible(g):
            continue
        found += 1
        n = _order_of_x(F, g.coeffs)
        assert (F.q ** d - 1) % n == 0
        assert powmod(x, n, g) == one
        for r, _ in factor_integer(n):
            assert powmod(x, n // r, g) != one, (g, r)
