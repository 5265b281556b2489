import random
import time

import pytest

from period_lab import period_sets
from period_lab.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    LimitExceeded,
    NotPrimePower,
    OutOfRange,
)
from period_lab.ff import make_field
from period_lab.intfactor import factor_integer, split_prime_power
from period_lab.orders import poly_order
from period_lab.period_sets import (
    PeriodSet,
    divisors,
    order_set_bruteforce,
    period_set_closed_form,
    period_set_exact,
    period_set_lower_bound,
    set_product,
    set_scale,
)
from period_lab.poly import _rmul, _slot_width, is_irreducible, monic_polys, parse_poly


def set_union(*sets) -> PeriodSet:
    out = set()
    for s in sets:
        out.update(s)
    return PeriodSet.of(out)


def test_divisors():
    assert divisors(6) == {1, 2, 3, 6}
    assert divisors(1) == {1}
    assert divisors(15) == {1, 3, 5, 15}
    with pytest.raises(OutOfRange):
        divisors(0)


def test_divisors_ascending():
    assert list(divisors(6)) == [1, 2, 3, 6]
    assert list(divisors(1)) == [1]
    assert list(divisors(15)) == [1, 3, 5, 15]
    assert list(divisors(2 ** 4 - 1)) == [1, 3, 5, 15]
    for n in (12, 36, 100, 2 ** 10):
        assert list(divisors(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_set_combinators():
    assert set_scale(5, divisors(6)) == {5, 10, 15, 30}
    assert set_product(divisors(2), divisors(6)) == {1, 2, 3, 4, 6, 12}
    assert set_scale(1, divisors(6)) == divisors(6)
    assert set_union(divisors(2), divisors(3)) == {1, 2, 3}
    with pytest.raises(OverflowError, match="^scaled period exceeds the 64-bit range$"):
        set_scale(2 ** 62, divisors(6))
    with pytest.raises(OverflowError, match="^period product exceeds the 64-bit range$"):
        set_product(divisors(2 ** 62), divisors(2))
    with pytest.raises(OutOfRange, match="scale factor must be positive"):
        set_scale(0, divisors(6))


def test_period_set_semantics():
    s = PeriodSet.of([3, 1, 2, 3])
    assert s.values == (1, 2, 3)
    assert 2 in s and 5 not in s
    assert len(s) == 3
    assert s == {1, 2, 3} and s == [1, 2, 3]
    assert s == PeriodSet.of([1, 2, 3])
    assert s.as_set() <= {1, 2, 3, 4}
    assert s.as_set() == frozenset({1, 2, 3})
    with pytest.raises(OutOfRange):
        PeriodSet.of([0, 1])


def test_period_set_equality_agrees_with_its_hash():
    """Equal period sets hash equally, so a dict or set keyed by one finds
    the other; a tuple or frozenset, which hash by their own rule, is never
    equal to a period set, from either side."""
    s = PeriodSet.of([1, 3])
    assert {s: "found"}[PeriodSet.of([3, 1])] == "found"
    assert len({s, PeriodSet.of([3, 1, 3])}) == 1
    for other in ((1, 3), (3, 1), frozenset({1, 3})):
        assert s != other and other != s and not s == other
    assert s == {1, 3} and s == [3, 1] and {1, 3} == s


def test_period_set_membership_matches_the_frozenset():
    """`in`, a binary search of the sorted values, agrees with frozenset
    membership at, between and around every value of exact period sets."""
    assert 1 not in PeriodSet.of([])
    for q, k in ((2, 1), (2, 4), (3, 3), (4, 2), (5, 3), (7, 2), (9, 2), (13, 2)):
        s = period_set_exact(k, q)
        members = frozenset(s.values)
        for n in {v + d for v in s.values for d in (-1, 0, 1)}:
            assert (n in s) == (n in members), (q, k, n)


def test_lower_bound_degree1():
    for q in (2, 3, 4, 5, 9):
        assert period_set_lower_bound(1, q) == divisors(q - 1)
    with pytest.raises(OutOfRange):
        period_set_lower_bound(0, 2)


def test_lower_bound_reference_sets():
    assert period_set_lower_bound(4, 2) == {1, 2, 3, 4, 5, 6, 7, 15}
    assert 21 not in period_set_lower_bound(5, 2)
    # 21 divides no 2^k - 1 for k <= 5, so only the p^j scalings could
    # produce it, and 21 is odd
    assert all(21 not in divisors(2 ** k - 1) for k in range(1, 6))
    with pytest.raises(NotPrimePower):
        period_set_lower_bound(2, 6)


def test_closed_form_reference_sets():
    assert period_set_closed_form(1, 2) == {1}
    assert period_set_closed_form(2, 2) == {1, 2, 3}
    assert period_set_closed_form(3, 2) == {1, 2, 3, 4, 7}
    assert period_set_closed_form(4, 2) == {1, 2, 3, 4, 5, 6, 7, 15}
    assert period_set_closed_form(2, 5) == {1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24}
    with pytest.raises(DegreeOutOfRange):
        period_set_closed_form(5, 2)


def test_closed_form_small_characteristic_branches():
    # degree 3 in characteristic 2 needs the {2,4} scaling
    assert period_set_closed_form(3, 2) == set_union(
        divisors(7), divisors(3), set_product(PeriodSet((2, 4)), divisors(1))
    )
    # degree 4 over characteristic 3 needs the extra p^2 term: 9 appears
    assert 9 in period_set_closed_form(4, 3)
    assert 9 not in set_union(
        divisors(3 ** 4 - 1), divisors(3 ** 3 - 1),
        set_scale(3, divisors(3 ** 2 - 1)),
    )


def test_order_set_bruteforce_references():
    F2 = make_field(2)
    assert order_set_bruteforce(F2, 1) == {1}
    assert order_set_bruteforce(F2, 4) == {1, 2, 3, 4, 5, 6, 7, 15}
    assert 21 in order_set_bruteforce(F2, 5)
    # a repeated factor g^b multiplies ord(g) by the least p^t >= b:
    # 4 comes only from (x+1)^3 over F_2, 6 only from (x+1)^2 over F_3
    F3 = make_field(3)
    assert poly_order(parse_poly(F2, "x^3+x^2+x+1")).order == 4
    assert 4 in order_set_bruteforce(F2, 3)
    assert poly_order(parse_poly(F3, "x^2+2*x+1")).order == 6
    assert 6 in order_set_bruteforce(F3, 2)
    with pytest.raises(BudgetExceeded):
        order_set_bruteforce(F2, 30)
    with pytest.raises(BudgetExceeded):
        order_set_bruteforce(F2, 4, budget=10)
    with pytest.raises(OutOfRange):
        order_set_bruteforce(F2, 0)


def test_order_set_bruteforce_refuses_a_huge_count_without_building_it():
    """q^k past 2^63 - 1 is named, not built: at k = 10^11 building it
    would take minutes and gigabytes."""
    F2, F3 = make_field(2), make_field(3)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^2\^100000000000 polynomials exceed the budget 10$"):
        order_set_bruteforce(F2, 10**11, budget=10)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(BudgetExceeded, match=r"^4052555153018976267 polynomials "):
        order_set_bruteforce(F3, 39, budget=10)  # 3^39 < 2^63 - 1 < 3^40
    with pytest.raises(BudgetExceeded, match=r"^3\^40 polynomials "):
        order_set_bruteforce(F3, 40, budget=10)


def _per_polynomial_orders(field, k):
    # the oracle: the factorization pipeline on every monic polynomial
    return {poly_order(f).order for f in monic_polys(field, k)}


def test_order_set_bruteforce_matches_per_polynomial_orders():
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        field = make_field(*split_prime_power(q))
        k = 1
        while q ** k <= 4096:
            assert order_set_bruteforce(field, k) == _per_polynomial_orders(field, k), (q, k)
            cases += 1
            k += 1
    assert cases == 50
    # another model of F_9
    alt = make_field(3, 2, (2, 1, 1))
    for k in (1, 2, 3):
        assert order_set_bruteforce(alt, k) == _per_polynomial_orders(alt, k), k


def spy_orbits(monkeypatch):
    """Record, per call of order_set_bruteforce, the orbits of
    period_sets._orbit_rule as (first member, [members]), and the
    polynomials whose order of x period_sets._irreducible_order takes."""
    rule, order_of_x = period_sets._orbit_rule, period_sets._irreducible_order
    orbits, asked = [], []

    def rule_spy(field, top):
        orbit = rule(field, top)

        def recorded(coeffs, o):
            members = list(orbit(coeffs, o))
            orbits.append((coeffs, [h for h, _ in members]))
            return members

        return recorded

    def order_spy(field, coeffs):
        asked.append(coeffs)
        return order_of_x(field, coeffs)

    monkeypatch.setattr(period_sets, "_orbit_rule", rule_spy)
    monkeypatch.setattr(period_sets, "_irreducible_order", order_spy)
    return orbits, asked


def test_order_set_bruteforce_orders_exactly_the_irreducibles(monkeypatch):
    # each product is marked, so only the irreducibles (x aside) get an
    # order, each one: the orbits cover them, no two orbits share one, and
    # the order of x is taken once per orbit, for its first member in walk
    # order; a product not marked would open an orbit of its own
    orbits, asked = spy_orbits(monkeypatch)
    for q, k in ((2, 8), (3, 5), (4, 4), (5, 3)):
        field = make_field(*split_prime_power(q))
        orbits.clear()
        asked.clear()
        order_set_bruteforce(field, k)
        expected = [f.coeffs for d in range(1, k + 1) for f in monic_polys(field, d)
                    if f.constant_term and is_irreducible(f)]
        walk = {cs: i for i, cs in enumerate(expected)}
        members = [set(hs) for _, hs in orbits]
        assert sum(map(len, members)) == len(expected) == len(set().union(*members)), (q, k)
        assert set().union(*members) == set(expected), (q, k)
        assert asked == [first for first, _ in orbits], (q, k)
        assert all(first == min(hs, key=walk.get) for first, hs in orbits), (q, k)
        assert asked == sorted(asked, key=walk.get), (q, k)


def mobius(n):
    out = 1
    for _, exp in factor_integer(n):
        if exp > 1:
            return 0
        out = -out
    return out


BRUTE_FORCE_GRID = [(2, 8), (3, 5), (4, 4), (5, 3), (8, 3), (9, 3)]


@pytest.mark.parametrize("q,top", BRUTE_FORCE_GRID, ids=[f"F{q}" for q, _ in BRUTE_FORCE_GRID])
def test_order_set_bruteforce_reaches_every_polynomial_once(monkeypatch, q, top):
    """For every k up to top, the pass reaches each monic polynomial of
    degree d <= k with f(0) != 0 once: the irreducibles, which the orbits
    it takes one order of x for cover, and the products of two or more
    factors that it builds with its product step, number q^d - q^(d-1) in
    each degree d.  The irreducibles number (1/d) * sum over e | d of
    mu(e) q^(d/e) (Gauss), less x at d = 1.  Below degree k the pass also
    builds each of them once, as 1 * g, to extend it to its powers; at
    degree k it builds none of them.  _irreducible_order runs once per
    orbit."""
    step = period_sets._product_step
    orbits, asked = spy_orbits(monkeypatch)
    products, ones = {}, {}

    def count(counts, d):
        counts[d] = counts.get(d, 0) + 1

    def step_spy(field, k):
        pack, times, unpack = step(field, k)
        one = pack((1,))

        def counted(u, g, deg):
            w, index = times(u, g, deg)
            assert len(unpack(w)) - 1 == deg
            count(ones if u == one else products, deg)
            return w, index

        return pack, counted, unpack

    monkeypatch.setattr(period_sets, "_product_step", step_spy)
    field = make_field(*split_prime_power(q))
    for k in range(1, top + 1):
        for found in (orbits, asked, products, ones):
            found.clear()
        order_set_bruteforce(field, k)
        irreducibles = {}
        for h in set().union(*(hs for _, hs in orbits)):
            count(irreducibles, len(h) - 1)
        assert len(asked) == len(orbits), (q, k)
        assert set(irreducibles) | set(products) == set(range(1, k + 1)), (q, k)
        for d in range(1, k + 1):
            gauss = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
            assert irreducibles[d] == gauss - (d == 1), (q, k, d)
            assert ones.get(d, 0) == (irreducibles[d] if d < k else 0), (q, k, d)
            assert irreducibles[d] + products.get(d, 0) == q ** d - q ** (d - 1), (q, k, d)


# (q, k): the index of F_2 at k = 16 needs wider slots than _slot_width
# gives, and p = 1048573 is the largest prime below the 2^20 ceiling
PRODUCT_STEP_GRID = [(2, 16), (3, 8), (13, 3), (31, 3), (257, 2), (1048573, 2)]


@pytest.mark.parametrize("q,k", PRODUCT_STEP_GRID, ids=[f"F{q}-k{k}" for q, k in PRODUCT_STEP_GRID])
def test_packed_product_step_matches_rmul_and_horner(q, k):
    """The brute-force pass's packed product step over F_p against _rmul
    and the base-q index by Horner's rule, on seeded random monic pairs
    u, g with deg u + deg g <= k, and on the pairs whose coefficients are
    all q - 1, which fill the slots the most."""
    field = make_field(q)
    pack, times, unpack = period_sets._product_step(field, k)
    rng = random.Random(q * 100 + k)
    pairs = [((q - 1,) * a + (1,), (q - 1,) * (k - a) + (1,)) for a in range(k)]
    for _ in range(300):
        a = rng.randrange(k)
        d = rng.randint(1, k - a)
        pairs.append((tuple(rng.randrange(q) for _ in range(a)) + (1,),
                      tuple(rng.randrange(q) for _ in range(d)) + (1,)))
    for u, g in pairs:
        want = _rmul(field, u, g)
        deg = len(want) - 1
        index = 0
        for c in reversed(want[:-1]):
            index = index * q + c
        w, got = times(pack(u), pack(g), deg)
        assert (unpack(w), got) == (want, index), (q, k, u, g)
    if q == 2:
        assert _slot_width(2, k + 1)[0] < (q ** k - 1).bit_length()


def test_order_set_bruteforce_factors_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored or tested a polynomial")

    for name in ("poly.factor", "poly._factor_parts", "poly.is_irreducible",
                 "orders._factor_parts", "orders.is_irreducible", "orders.poly_order"):
        monkeypatch.setattr(f"period_lab.{name}", refuse)
    assert order_set_bruteforce(make_field(2), 6) == period_set_exact(6, 2)


def test_order_set_bruteforce_refuses_a_polynomial_reached_twice(monkeypatch):
    # an enumeration that yields x + 1 in place of x + 2 over F_3 meets the
    # irreducible x + 1 twice, so it builds x + 1 a second time
    walk = period_sets._monic_coeffs

    def repeating(field, degree):
        for cs in walk(field, degree):
            yield (1, 1) if cs == (2, 1) else cs

    monkeypatch.setattr("period_lab.period_sets._monic_coeffs", repeating)
    with pytest.raises(LimitExceeded, match=r"reached twice \(bug\?\)$"):
        order_set_bruteforce(make_field(3), 2)


def test_order_set_bruteforce_refuses_a_wrong_orbit(monkeypatch):
    # an orbit that gives one member two orders, or that holds a product,
    # here (x + 1)^2 in the orbit of x^2 + 1 over F_3, which the pass never
    # meets as an irreducible, is a bug
    rule = period_sets._orbit_rule

    def twice(field, top):
        orbit = rule(field, top)
        return lambda coeffs, o: [*orbit(coeffs, o), (coeffs, o + 1)]

    def with_a_square(field, top):
        orbit = rule(field, top)
        return lambda coeffs, o: [*orbit(coeffs, o), *[((1, 2, 1), o)] * (coeffs == (1, 0, 1))]

    monkeypatch.setattr(period_sets, "_orbit_rule", twice)
    with pytest.raises(LimitExceeded, match=r"^orbit member \(1, 1\) given orders 2 and 3 \(bug\?\)$"):
        order_set_bruteforce(make_field(3), 2)
    monkeypatch.setattr(period_sets, "_orbit_rule", with_a_square)
    with pytest.raises(LimitExceeded, match=r"^1 orbit members of degree 2 never met \(bug\?\)$"):
        order_set_bruteforce(make_field(3), 2)


def test_budget_env_override(monkeypatch):
    F2 = make_field(2)
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "8")
    with pytest.raises(BudgetExceeded):
        order_set_bruteforce(F2, 4)
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "1000")
    assert order_set_bruteforce(F2, 4) == {1, 2, 3, 4, 5, 6, 7, 15}


def test_containment_and_monotonicity():
    for q in (2, 3):
        F = make_field(q)
        previous = None
        for k in (1, 2, 3, 4, 5):
            brute = order_set_bruteforce(F, k)
            assert period_set_lower_bound(k, q).as_set() <= brute.as_set()
            assert max(brute) == q ** k - 1
            if previous is not None:
                assert previous.as_set() <= brute.as_set()
            previous = brute


def test_divisor_nesting():
    for q in (2, 3, 5):
        for i, j in ((1, 2), (1, 3), (2, 4), (3, 6)):
            assert divisors(q ** i - 1).as_set() <= divisors(q ** j - 1).as_set()


def test_closed_form_matches_bruteforce_spot():
    for q, field_args in ((3, (3, 1)), (4, (2, 2))):
        F = make_field(*field_args)
        for k in (1, 2, 3):
            assert order_set_bruteforce(F, k) == period_set_closed_form(k, q)


def test_model_independence():
    # the period set cannot depend on which irreducible modulus models the
    # field; F_9 has several choices (F_4 has only one quadratic available)
    default = make_field(3, 2)
    alt = make_field(3, 2, (2, 1, 1))
    assert default.modulus != alt.modulus
    assert order_set_bruteforce(default, 2) == order_set_bruteforce(alt, 2)


def test_exact_matches_bruteforce_grid(bruteforce_set):
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        k = 1
        while q ** k <= 1024:
            exact = period_set_exact(k, q)
            assert exact == bruteforce_set(q, k), (q, k)
            cases += 1
            k += 1
    assert cases == 38


def _is_prime_power(q):
    try:
        split_prime_power(q)
    except NotPrimePower:
        return False
    return True


def test_exact_matches_closed_forms():
    for q in filter(_is_prime_power, range(2, 4097)):
        for k in (1, 2, 3, 4):
            assert period_set_exact(k, q) == period_set_closed_form(k, q), (q, k)


def test_lower_bound_inside_exact():
    for q in (2, 3, 4, 5):
        for k in range(1, 13):
            assert (period_set_lower_bound(k, q).as_set()
                    <= period_set_exact(k, q).as_set()), (q, k)
    # the paper's degree-5 example: (x^2+x+1)(x^3+x+1) has order 21
    assert 21 in period_set_exact(5, 2)
    assert 21 not in period_set_lower_bound(5, 2)


def test_exact_sets_are_closed_under_divisors():
    # a period v of degree k has every divisor of v as a degree-k period;
    # the group-algebra route needs it (a local period gcd(T, E) lies in P_k)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        k = 1
        while q ** k <= 2 ** 24:
            pset = period_set_exact(k, q)
            missing = [(v, r) for v in pset for r, _ in factor_integer(v)
                       if v // r not in pset]
            assert not missing, (q, k, missing[:5])
            k += 1


def test_exact_budget(monkeypatch):
    # F_2 at k = 30 forms exactly 15000 candidate periods
    assert period_set_exact(30, 2, budget=15000) == period_set_exact(30, 2)
    with pytest.raises(BudgetExceeded, match="candidate periods exceed the budget 14999$"):
        period_set_exact(30, 2, budget=14999)
    # the default budget applies without one: F_2 at k = 63 holds 2.2M periods
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "20000")
    with pytest.raises(BudgetExceeded, match="candidate periods exceed the budget 20000$"):
        period_set_exact(63, 2)


def test_exact_input_checks():
    with pytest.raises(OutOfRange):
        period_set_exact(0, 2)
    with pytest.raises(NotPrimePower):
        period_set_exact(5, 6)


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("route", [
    period_set_closed_form, period_set_lower_bound, period_set_exact,
    pytest.param(lambda k, q: order_set_bruteforce(make_field(q), k),
                 id="order_set_bruteforce"),
])
def test_degree_rule_is_shared(route, k):
    # one rule for every route: the closed form refuses k <= 0 as the
    # others do; only k >= 5 raises DegreeOutOfRange there
    with pytest.raises(OutOfRange, match="^degree must be >= 1$"):
        route(k, 2)


@pytest.mark.parametrize("route", [
    period_set_closed_form, period_set_lower_bound, period_set_exact,
])
def test_sixty_four_bit_ceiling_fails_fast(route):
    with pytest.raises(OutOfRange, match=r"degree 4 over F_65536 .* 2\^63 - 1"):
        route(4, 2 ** 16)
    with pytest.raises(OutOfRange, match="degree 2 over F_"):
        route(2, 2 ** 61 - 1)
    assert route(1, 2 ** 61 - 1) == divisors(2 ** 61 - 2)


def test_sixty_four_bit_ceiling_huge_degree():
    # the check must not build q^k for a huge k
    for route in (period_set_lower_bound, period_set_exact):
        with pytest.raises(OutOfRange, match="64-bit limit"):
            route(10 ** 12, 2)
    with pytest.raises(DegreeOutOfRange):
        period_set_closed_form(10 ** 12, 2)
