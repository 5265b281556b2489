import functools
import importlib
import pkgutil
import random
import sys
from math import gcd

import pytest

import period_lab
from period_lab import orders, poly
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
    irreducible_order,
    poly_order,
    poly_order_bruteforce,
    strip_x_power,
)
from period_lab.period_sets import order_set_bruteforce, period_set_closed_form
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


def frobenius_steps(monkeypatch):
    """A list that records each Frobenius step of the distinct-degree
    split: a power h^q in _distinct_degree_parts."""
    steps, power = [], poly._Kernel.power

    def spy(k, u, n):
        if sys._getframe(1).f_code.co_name == "_distinct_degree_parts":
            steps.append(n)
        return power(k, u, n)

    monkeypatch.setattr(poly._Kernel, "power", spy)
    return steps


def full_ledger_order(f):
    """The order by the whole factorization, the factors taken in factor's
    order: the outcome, or the type of the error that stops it."""
    try:
        order = 1
        for irr, mult in factor(strip_x_power(f)[1]):
            pt = orders._char_boost(f.field.p, mult)[1]
            order = lcm64(order, _irreducible_order(f.field, irr.coeffs) * pt)
        return order
    except (OutOfRange, OverflowError) as exc:
        return type(exc)


def test_order_stops_the_split_at_the_sixty_four_bit_limit(monkeypatch):
    """Past the degree D with q^D - 1 <= 2^63 - 1 (63 over F_2) every order
    is out of range, so poly_order stops the distinct-degree split there.
    x^12000+x^7+1 over F_2 takes at most 63 Frobenius steps, and its
    in-range factors still overflow the lcm first, as with the whole
    factorization.  A product of two degree-64 irreducibles stops with the
    limit in the message; factor still splits it."""
    steps = frobenius_steps(monkeypatch)
    with pytest.raises(OverflowError, match="^lcm exceeds the 64-bit range$"):
        poly_order(parse_poly(F2, "x^12000+x^7+1"))
    assert 0 < len(steps) <= 63 and set(steps) == {2}
    rng = random.Random(64)
    a = parse_poly(F2, "x^64+x^4+x^3+x+1")
    while True:
        b = Poly(F2, [1] + [rng.randrange(2) for _ in range(63)] + [1])
        if is_irreducible(b) and b != a:
            break
    steps.clear()
    with pytest.raises(OutOfRange, match=(
            r"^factors of degree above 63 over F_2 are past the 64-bit limit: "
            r"q\^k - 1 must be at most 2\^63 - 1$")):
        poly_order(a * b)
    assert len(steps) == 63
    assert factor(a * b).factors == tuple(sorted(((a, 1), (b, 1)),
                                                 key=lambda fm: fm[0].coeffs))


def test_order_past_the_limit_fails_as_the_whole_factorization_does():
    """Mixtures of factors below and above the limit, over F_2, F_3 and
    F_4, with lcms that fit and that overflow: poly_order answers, or
    fails with the error type, that the whole factorization gives."""
    rng = random.Random(63)
    seen = set()
    for F, top in ((F2, 63), (F3, 39), (make_field(2, 2), 31)):
        def irreducible(d):
            while True:
                g = Poly(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(d - 1)]
                         + [1])
                if is_irreducible(g):
                    return g

        small = [irreducible(d) for d in (top - 1, top, top // 2, 3)]
        big = [irreducible(top + 1), irreducible(top + 2)]
        for _ in range(12):
            f = Poly.one(F)
            for g in rng.sample(small, rng.randrange(0, 4)) + rng.sample(big, rng.randrange(0, 3)):
                f = f * g ** rng.randrange(1, 3)
            want = full_ledger_order(f)
            try:
                got = poly_order(f).order
            except (OutOfRange, OverflowError) as exc:
                got = type(exc)
            assert got == want, (F, f.degree)
            seen.add(want if isinstance(want, type) else int)
    assert seen == {int, OutOfRange, OverflowError}


def test_caches_are_bounded():
    """Every cache in period_lab has a finite maxsize, and none holds
    kernels: each routine builds the kernel it needs."""
    modules = [importlib.import_module(f"period_lab.{info.name}")
               for info in pkgutil.iter_modules(period_lab.__path__)]
    caches = {f"{m.__name__}.{name}": obj for m in modules
              for name, obj in vars(m).items() if hasattr(obj, "cache_info")}
    assert {"period_lab.intfactor.factor_integer", "period_lab.orders._order_by_key",
            "period_lab.poly._slots_for"} <= set(caches)
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name
    assert not any(name.endswith(("._kernel", "._power_kernel")) for name in caches)


def test_irreducible_order_cache_keys():
    """The order cache keys the minimal polynomial M over F_p of a root by
    its bytes (p <= 256, here F_5, F_256 and F_4096) or by its coefficient
    tuple (F_1048573), and a cached answer is the uncached one, also for
    moduli with a zero middle coefficient.  Conjugates share M, so each
    field takes three moduli with distinct M."""
    rng = random.Random(4)
    _order_by_key.cache_clear()
    for F in (F5, make_field(2, 8), make_field(2, 12), make_field(1048573)):
        found = set()
        while len(found) < 3:
            g = Poly(F, [rng.randrange(1, F.q), 0, rng.randrange(F.q), 1])
            if not is_irreducible(g):
                continue
            m = orders._prime_field_minimal_poly(F, g.coeffs) if F.e > 1 else g.coeffs
            if m not in found:
                found.add(m)
                want = _order_by_key.__wrapped__(F.p, m)
                assert _irreducible_order(F, g.coeffs) == want  # a miss
                assert _irreducible_order(F, g.coeffs) == want  # a hit
    info = _order_by_key.cache_info()
    assert (info.hits, info.misses) == (12, 12)


def conjugates(g):
    """The distinct conjugates of g under c -> c^p, g first."""
    F, out = g.field, [g]
    while True:
        h = Poly(F, [F.pow(c, F.p) for c in out[-1].coeffs])
        if h == g:
            return out
        out.append(h)


# (e, d): irreducibles of degree d over F_{2^e} with a coefficient outside F_2
@pytest.mark.parametrize("e,d", [(2, 1), (2, 3), (2, 6), (4, 2), (4, 3), (12, 1), (12, 2)])
def test_irreducible_conjugates_share_one_order(e, d):
    """The s conjugates of g have one minimal polynomial over F_2, so the
    first takes one _order_by_key miss and the other s - 1 hit its entry;
    where q^d <= 2^12 the walk over F_q gives each the same order."""
    F = make_field(2, e)
    rng = random.Random(F.q ** d)
    for _ in range(3):
        while True:
            g = Poly(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(d - 1)] + [1])
            if max(g.coeffs) > 1 and is_irreducible(g):
                break
        conj = conjugates(g)
        assert len(conj) > 1 and e % len(conj) == 0
        assert len(set(conj)) == len(conj) and all(is_irreducible(h) for h in conj)
        _order_by_key.cache_clear()
        found = [_irreducible_order(F, h.coeffs) for h in conj]
        info = _order_by_key.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(conj) - 1, 1)
        assert found == [found[0]] * len(conj)
        if F.q ** d <= 2 ** 12:
            assert [poly_order_bruteforce(h) for h in conj] == found


def reciprocal(g):
    """The monic reciprocal x^d * g(1/x) / g(0) of g, d = deg g."""
    return Poly(g.field, g.coeffs[::-1]).monic()


def negative(g):
    """(-1)^d * g(-x), d = deg g: the monic polynomial whose roots are the
    negatives of g's."""
    F, d = g.field, g.degree
    return Poly(F, [F.neg(c) if (d - i) % 2 else c for i, c in enumerate(g.coeffs)])


def prime_field_minimal_poly(g):
    """The coefficients over F_p of the product of the conjugates of g."""
    m = Poly.one(g.field)
    for h in conjugates(g):
        m = m * h
    return m.coeffs


def order_class(g):
    """The minimal polynomial M over F_p of a root a of g, with M*, M- and
    M-*, as a set of coefficient tuples: the roots of g, their inverses
    and their negatives (over F_2, M- = M)."""
    m = Poly(make_field(g.field.p), prime_field_minimal_poly(g))
    return frozenset(h.coeffs for h in (m, reciprocal(m), negative(m), reciprocal(negative(m))))


def irreducibles(F, top):
    """The monic irreducibles of degree 1..top over F other than x."""
    return [g for d in range(1, top + 1) for g in monic_polys(F, d)
            if g.constant_term and is_irreducible(g)]


@functools.cache
def walked_order(g):
    """poly_order_bruteforce(g), walked once per polynomial in a session."""
    return poly_order_bruteforce(g)


def count_order_misses(monkeypatch, field, k):
    """The _order_by_key misses and entries of order_set_bruteforce(field, k)
    from a cleared cache, and the set of types of the p it is keyed on."""
    order_by_key, primes = orders._order_by_key, set()

    def spy_key(p, key):
        primes.add(type(p))
        return order_by_key(p, key)

    monkeypatch.setattr(orders, "_order_by_key", spy_key)
    order_by_key.cache_clear()
    assert order_set_bruteforce(field, k) == period_set_closed_form(k, field.q)
    info = order_by_key.cache_info()
    return info.misses, info.currsize, primes


def test_order_set_bruteforce_computes_one_order_per_minimal_polynomial(monkeypatch):
    """Over F_16 the 1,495 monic irreducibles of degree <= 3 other than x
    have 381 minimal polynomials over F_2, which pair with their
    reciprocals into 196 classes (over F_2, M- = M), and
    order_set_bruteforce finds the order of x once for each class, as one
    _order_by_key miss; the cache is keyed on the int p."""
    F16 = make_field(2, 4)
    found = irreducibles(F16, 3)
    minimal = {prime_field_minimal_poly(g) for g in found}
    classes = {order_class(g) for g in found}
    assert (len(found), len(minimal), len(classes)) == (1495, 381, 196)
    assert count_order_misses(monkeypatch, F16, 3) == (196, 196, {int})


def test_order_set_bruteforce_computes_one_order_per_plus_minus_class(monkeypatch):
    """Over F_13 the 818 monic irreducibles of degree <= 3 other than x
    fall into 210 classes {M, M*, M-, M-*}, and order_set_bruteforce finds
    the order of x once for each class."""
    F13 = make_field(13)
    found = irreducibles(F13, 3)
    assert (len(found), len({order_class(g) for g in found})) == (818, 210)
    assert count_order_misses(monkeypatch, F13, 3) == (210, 210, {int})


# (p, e, top): every degree d <= top has q^d <= 2^12
@pytest.mark.parametrize("p,e,top", [(2, 1, 12), (3, 1, 7), (2, 2, 6), (5, 1, 5), (3, 2, 3)])
def test_reciprocals_share_one_order(p, e, top):
    """A root and its inverse have one order, so g and its monic
    reciprocal g* do: for every monic irreducible g over F_q with
    g(0) != 0 and q^d <= 2^12, self-reciprocal ones included, the order
    of x modulo g and modulo g*, each with the cache cleared first, is the
    walk's order for g.  Over all of them the cache takes one miss per
    class {M, M*, M-, M-*} of minimal polynomials over F_p, their
    reciprocals and their negatives: 133 over F_3 at degree <= 7."""
    F = make_field(p, e)
    found = irreducibles(F, top)
    done, selves = set(), 0
    for g in found:
        if g in done:
            continue
        star = reciprocal(g)
        done.update((g, star))
        selves += star == g
        want = walked_order(g)
        for h in (g, star):
            _order_by_key.cache_clear()
            assert irreducible_order(h) == want, (str(g), str(h))
    assert done == set(found) and selves >= 1
    classes = {order_class(g) for g in found}
    assert (p, e, top) != (3, 1, 7) or len(classes) == 133
    _order_by_key.cache_clear()
    for g in found:
        irreducible_order(g)
    info = _order_by_key.cache_info()
    assert (info.misses, info.hits) == (len(classes), len(found) - len(classes))


def test_negated_order_pins():
    """ord(-a) from ord(a) = o: 2o for odd o, o/2 for o = 2 (mod 4), o
    when 4 | o; an involution."""
    assert [orders._negated_order(o) for o in (1, 2, 3, 4, 5, 6, 8, 12)] == [2, 1, 6, 4, 10, 3, 8, 12]
    assert all(orders._negated_order(orders._negated_order(o)) == o for o in range(1, 200))


# (p, e, top): the odd fields up to F_27, each to the top degree with q^d <= 2^12
PLUS_MINUS_GRID = [(3, 1, 7), (5, 1, 5), (7, 1, 4), (3, 2, 3), (13, 1, 3), (5, 2, 2), (3, 3, 2)]


def plus_minus_mismatches(p, e, top):
    """For every monic irreducible g over F_{p^e} of degree <= top with
    g(0) != 0, the members h of g, g*, g- and g-* whose order of x, taken
    with the cache cleared first, differs from the walk's order of h."""
    out = []
    for g in irreducibles(make_field(p, e), top):
        for h in (g, reciprocal(g), negative(g), reciprocal(negative(g))):
            _order_by_key.cache_clear()
            if irreducible_order(h) != walked_order(h):
                out.append(str(h))
    return out


@pytest.mark.parametrize("p,e,top", PLUS_MINUS_GRID,
                         ids=[f"F{p ** e}" for p, e, _ in PLUS_MINUS_GRID])
def test_plus_minus_class_orders_match_the_walk(p, e, top):
    """Over odd p the order cache keys the class {M, M*, M-, M-*} and maps
    an order keyed on M- or M-* through _negated_order; every member of
    every class gets the walk's order, whichever member is the key."""
    assert plus_minus_mismatches(p, e, top) == []


def test_plus_minus_grid_fails_without_the_negated_order(monkeypatch):
    """With ord(-a) taken as ord(a) the grid fails on every field, already
    at degree 1: x + 2 over F_3, keyed on x + 1 (order 2), would get
    order 2 in place of 1."""
    monkeypatch.setattr(orders, "_negated_order", lambda o: o)
    assert plus_minus_mismatches(3, 1, 1) == ["x+2"] * 4
    assert all(plus_minus_mismatches(p, e, 1) for p, e, _ in PLUS_MINUS_GRID)


def test_irreducible_order_divides_group_order():
    for F in (F2, F3):
        for d in (1, 2, 3):
            for g in monic_polys(F, d):
                if g.constant_term == 0 or not is_irreducible(g):
                    continue
                e = irreducible_order(g)
                assert (F.q ** d - 1) % e == 0
                assert order_by_definition(g, e) == e


def test_poly_order_references():
    assert poly_order(parse_poly(F2, "x^5+x^4+1")).order == 21
    assert poly_order(parse_poly(F5, "x^2-x-1")).order == 20
    assert poly_order(parse_poly(F2, "x^2+x+1")).order == 3
    # repeated root 3 of order 4 over F_5, squared: boost by p once
    assert poly_order(parse_poly(F5, "x-3") ** 2).order == 20
    # derived oracle: (x+1)^3 divides x^4-1 over F_2 but no smaller x^n-1
    cube = parse_poly(F2, "x+1") ** 3
    assert order_by_definition(cube, 16) == 4
    assert poly_order(cube).order == 4
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
                want = _irreducible_order(G, h.coeffs)
                for g, _ in parts:
                    assert _irreducible_order(F, g.coeffs) == want, g
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
        n = _irreducible_order(F, g.coeffs)
        assert (F.q ** d - 1) % n == 0
        assert powmod(x, n, g) == one
        for r, _ in factor_integer(n):
            assert powmod(x, n // r, g) != one, (g, r)
