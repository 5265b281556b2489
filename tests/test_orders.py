import random

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
    irreducible_order,
    poly_order,
    poly_order_bruteforce,
    prime_power_order,
    strip_x_power,
)
from period_lab.poly import Poly, is_irreducible, monic_polys, parse_poly

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


def test_caches_are_bounded():
    for cached in (factor_integer, _irreducible_order):
        assert cached.cache_info().maxsize is not None


def test_irreducible_order_cache_keys():
    """The order cache keys a modulus by its bytes (q <= 256) or by its
    coefficient tuple (here F_4096 and F_1048573), and a cached answer is
    the uncached one, also for moduli with a zero middle coefficient."""
    rng = random.Random(4)
    _irreducible_order.cache_clear()
    for F in (F5, make_field(2, 8), make_field(2, 12), make_field(1048573)):
        found = set()
        while len(found) < 3:
            g = Poly(F, [rng.randrange(1, F.q), 0, rng.randrange(F.q), 1])
            if g.coeffs not in found and is_irreducible(g):
                found.add(g.coeffs)
                want = _irreducible_order.__wrapped__(F, g.coeffs)
                assert _irreducible_order(F, g.coeffs) == want  # a miss
                assert _irreducible_order(F, g.coeffs) == want  # a hit
    assert _irreducible_order.cache_info().hits == 12


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


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4),
                                 (2, 8), (2, 12)])
def test_irreducible_order_matches_bruteforce(p, e):
    """The order of x by the prime split equals the walk, on random
    irreducibles of every degree d with q^d <= 2^12 over each field the
    `orders` benchmark workload draws from."""
    F = make_field(p, e)
    rng = random.Random(F.q)
    d = 1
    while F.q ** d <= 2 ** 12:
        found = 0
        while found < 6:
            g = Poly(F, [rng.randrange(1, F.q)]
                     + [rng.randrange(F.q) for _ in range(d - 1)] + [1])
            if is_irreducible(g):
                found += 1
                assert _irreducible_order.__wrapped__(F, g.coeffs) == poly_order_bruteforce(g), g
        d += 1
