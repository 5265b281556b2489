import functools
import itertools
import pickle
import random

import pytest

from period_lab.errors import (
    BudgetExceeded,
    LengthMismatch,
    NonUnitCoefficient,
    NotPrimePower,
    OutOfRange,
    ParseError,
)
from period_lab.ff import make_field
from period_lab.intfactor import lcm64
from period_lab.period_sets import (
    PeriodSet,
    divisors,
    period_set_closed_form,
    period_set_exact,
    set_product,
)
from period_lab.poly import is_irreducible, parse_poly
from period_lab.rings import (
    GroupAlgebra,
    component_periods,
    component_recurrence,
    group_algebra_max_period,
    group_algebra_period,
    lcm_closure,
    make_group_algebra,
    make_product_ring,
    max_period_bound,
    period_over_ring,
    period_set_over_ring,
    ring_period_sets,
    sample_recurrence,
    verify_field_characterization,
)
from period_lab.orders import poly_order_bruteforce
from period_lab.sequences import (
    Recurrence,
    SequenceRun,
    generate,
    impulse_response_period,
    impulse_state,
    period_bruteforce,
)

from oracles import companion_order_bruteforce

# Fibonacci has period 20 over F_5 and 3 over F_2
F5_FIB = Recurrence(make_field(5), (1, 1))
RING_FIB = Recurrence(make_product_ring([2, 5]), ((1, 1), (1, 1)))
RING_FIB_S0 = ((0, 0), (1, 1))
GA_5_2 = make_group_algebra(5, 2)  # F_5 + F_5: period 20 in both parts


def test_make_product_ring():
    ring = make_product_ring([2, 3, 5])
    assert ring.size == 30 and ring.r == 3
    assert [c.q for c in ring.components] == [2, 3, 5]
    assert make_product_ring([4]).components[0].q == 4  # prime powers split
    assert make_product_ring(["2^2", make_field(3)]).size == 12
    with pytest.raises(NotPrimePower):
        make_product_ring([6])
    with pytest.raises(OutOfRange):
        make_product_ring([])


def test_ring_arithmetic_and_zero_divisors():
    ring = make_product_ring([2, 2])
    a, b = (1, 0), (0, 1)
    assert ring.mul(a, b) == (0, 0)  # zero divisors
    assert not ring.is_unit(a) and not ring.is_unit(b)
    assert ring.is_unit((1, 1))
    assert ring.add(a, b) == (1, 1)
    assert len(list(ring.elements())) == 4
    assert list(ring.units()) == [(1, 1)]


def test_ring_element_plumbing():
    ring = make_product_ring([2, 3, 5])
    assert ring.element(7) == (1, 1, 2)  # diagonal embedding
    assert ring.element((1, 2, 4)) == (1, 2, 4)
    with pytest.raises(LengthMismatch):
        ring.element((1, 2))
    assert ring.parse_element("1|2|4") == (1, 2, 4)
    assert ring.parse_element("7") == (1, 1, 2)
    assert ring.format_element((1, 2, 4)) == "1|2|4"
    with pytest.raises(LengthMismatch, match=r"^expected 3 '\|'-separated parts in '1\|2'$"):
        ring.parse_element("1|2")
    # a one-part element is an integer, refused in the fields' own words
    with pytest.raises(ParseError, match="^bad element 'x'$"):
        ring.parse_element("x")


def test_projected_fibonacci_periods():
    ring = make_product_ring([2, 5])
    rec = Recurrence(ring, (ring.from_int(1), ring.from_int(1)))
    s0 = (ring.element((0, 0)), ring.element((1, 1)))
    for i, expected in ((0, 3), (1, 20)):
        crec = component_recurrence(rec, i)
        assert period_bruteforce(crec, tuple(s[i] for s in s0)) == expected


def test_period_over_ring_fibonacci():
    ring = make_product_ring([2, 5])
    rec = Recurrence(ring, ((1, 1), (1, 1)))
    s0 = ((0, 0), (1, 1))
    # derived: lcm of the component periods, cross-checked by direct walk
    assert component_periods(rec, s0) == [3, 20]
    assert period_over_ring(rec, s0) == lcm64(3, 20) == 60
    assert period_bruteforce(rec, s0) == 60
    assert period_over_ring(rec, ((0, 0), (0, 0))) == 1
    with pytest.raises(TypeError, match="product-ring recurrence"):
        component_periods(F5_FIB, (0, 1))


def test_period_over_ring_single_component():
    ring = make_product_ring([5])
    rec = Recurrence(ring, ((1,), (1,)))
    assert period_over_ring(rec, ((0,), (1,))) == 20


def test_unit_constraint_over_ring():
    ring = make_product_ring([2, 3])
    with pytest.raises(NonUnitCoefficient):
        Recurrence(ring, ((1, 0), (1, 1)))  # one dead component


def test_lcm_of_component_periods_random():
    rng = random.Random(17)
    specs = ([2, 3], [2, 5], [3, 5], [2, 2], [2, 3, 5], [4, 3])
    done = 0
    while done < 200:
        ring = make_product_ring(rng.choice(specs))
        k = rng.randrange(1, 3)
        if ring.size ** k > 10 ** 4:
            continue
        coeffs = [tuple(rng.randrange(1, c.q) for c in ring.components)]
        coeffs += [
            tuple(rng.randrange(c.q) for c in ring.components) for _ in range(k - 1)
        ]
        rec = Recurrence(ring, tuple(coeffs))
        s0 = tuple(
            tuple(rng.randrange(c.q) for c in ring.components) for _ in range(k)
        )
        assert period_over_ring(rec, s0) == period_bruteforce(rec, s0)
        done += 1


def test_period_set_over_ring_reference():
    ring = make_product_ring([2, 3, 5])
    assert period_set_over_ring(ring, 1) == {1, 2, 4}
    assert period_set_over_ring(ring, 2) == {
        1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120,
    }
    single = make_product_ring([5])
    assert period_set_over_ring(single, 2) == period_set_closed_form(2, 5)


def test_lcm_closure_matches_exhaustive_enumeration():
    for spec in ([2, 3], [2, 2], [2, 5]):
        ring = make_product_ring(spec)
        for k in (1, 2):
            reached = set()
            for coeffs in itertools.product(ring.elements(), repeat=k):
                if not ring.is_unit(coeffs[0]):
                    continue
                rec = Recurrence(ring, coeffs)
                for s0 in itertools.product(ring.elements(), repeat=k):
                    reached.add(period_bruteforce(rec, s0))
            assert period_set_over_ring(ring, k) == reached, (spec, k)


def test_bound_chain_for_multi_component_rings():
    # max period <= prod(q_i^k - 1) < |R|^k - 1 whenever r >= 2
    for spec in ([2, 3], [2, 2], [2, 5], [2, 3, 5], [4, 3]):
        ring = make_product_ring(spec)
        for k in (1, 2):
            top = max(period_set_over_ring(ring, k))
            assert top <= max_period_bound(ring, k) < ring.size ** k - 1


def test_lcm_closure_helper():
    closure = lcm_closure([PeriodSet.of([1, 2, 3]), PeriodSet.of([1, 4])])
    assert closure == {1, 2, 3, 4, 12}
    with pytest.raises(OutOfRange, match="no sets"):
        lcm_closure([])


def test_lcm_closure_budget():
    sets = [PeriodSet.of([1, 2, 3]), PeriodSet.of([1, 4]), PeriodSet.of([1, 5])]
    # 3*2 pairs, then the 5-value closure times 2
    assert lcm_closure(sets, budget=10) == lcm_closure(sets)
    with pytest.raises(BudgetExceeded, match="^10 lcm pairs exceed the budget 9$"):
        lcm_closure(sets, budget=9)


def test_ring_period_set_budget():
    # 8634 * 40810 pairs under the default budget: refused before any is formed
    with pytest.raises(BudgetExceeded, match="^352353540 lcm pairs exceed the budget 1000000$"):
        period_set_over_ring(make_product_ring([2, 3]), 30)
    with pytest.raises(BudgetExceeded, match="^70 lcm pairs exceed the budget 69$"):
        period_set_over_ring(make_product_ring([2, 5]), 3, budget=69)  # 5 * 14 pairs


def test_ring_period_set_budget_reaches_components(monkeypatch):
    # one component, so no closure step could catch it: the exact route must
    match = "^2[0-9]{4} candidate periods exceed the budget 20000$"
    with pytest.raises(BudgetExceeded, match=match):
        period_set_over_ring(make_product_ring([2]), 63, budget=20000)
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "20000")
    with pytest.raises(BudgetExceeded, match=match):
        verify_field_characterization(make_product_ring([2, 3]), 63)
    with pytest.raises(BudgetExceeded, match=match):
        group_algebra_max_period(make_group_algebra(2, 3), 63)  # semisimple


def test_ring_period_sets_returns_components_and_closure():
    ring = make_product_ring([2, 3])
    sets, closure = ring_period_sets(ring, 5)
    assert sets == [period_set_exact(5, 2), period_set_exact(5, 3)]
    assert closure == lcm_closure(sets) == period_set_over_ring(ring, 5)


# F_2 + F_5 at k = 5 is pinned by cli_golden.json, recorded while that path
# still enumerated; the component sets here are the ones the exact-route grid
# in test_period_sets.py enumerates anyway.
@pytest.mark.parametrize("spec,k", [("2,3", 5), ("3,2^2", 5), ("2,3", 6)])
def test_ring_period_sets_match_bruteforce_components(bruteforce_set, spec, k):
    ring = make_product_ring(spec.split(","))
    oracle = lcm_closure([bruteforce_set(c.q, k) for c in ring.components])
    assert period_set_over_ring(ring, k) == oracle


def test_ring_period_set_does_not_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated polynomials")

    monkeypatch.setattr("period_lab.period_sets._monic_coeffs", refuse)
    ring = make_product_ring([2, 5])
    pset = period_set_over_ring(ring, 9)
    assert pset == lcm_closure([period_set_exact(9, 2), period_set_exact(9, 5)])
    assert max(pset) == lcm64(2 ** 9 - 1, 5 ** 9 - 1)


def test_max_period_bound():
    assert max_period_bound(make_product_ring([2, 3]), 2) == 24
    assert max_period_bound(make_product_ring([2, 3, 5]), 1) == 8
    for q in (2, 5):
        assert max_period_bound(make_product_ring([q]), 3) == q ** 3 - 1
    with pytest.raises(OverflowError, match="^period bound exceeds the 64-bit range$"):
        max_period_bound(make_product_ring([2 ** 19 - 1] * 4), 4)


def test_field_characterization():
    report = verify_field_characterization(make_product_ring([2, 3]), 2)
    assert report["max_period"] == 24
    assert report["max_possible"] == 35
    assert not report["achieved"] and not report["is_field"] and report["consistent"]
    report = verify_field_characterization(make_product_ring(["2^2"]), 2)
    assert report["max_period"] == 15 == report["max_possible"]
    assert report["achieved"] and report["is_field"] and report["consistent"]
    report = verify_field_characterization(make_product_ring([2, 3, 5]), 1)
    assert report["max_period"] == 4 and report["max_possible"] == 29
    assert report["consistent"]


def test_group_algebra_refuses_n_past_the_degree_limit():
    """n above 2^20, the degree limit of every polynomial, is refused before
    the base field or t^n - 1 is built: p = 6 would fail as a field."""
    assert make_group_algebra is GroupAlgebra
    for n in (2 ** 20 + 1, 10 ** 20):
        with pytest.raises(OutOfRange, match="^group algebras need n <= 1048576, "
                                             "the polynomial degree limit$"):
            GroupAlgebra(6, n)


def test_group_algebra_semisimple_decomposition():
    ga = make_group_algebra(2, 5)
    assert ga.semisimple
    assert [c.q for c in ga.decomposition.components] == [2, 16]
    # the quartic component modulus is the full cyclotomic factor
    quartic = ga.factors.factors[1][0]
    assert quartic == parse_poly(make_field(2), "t^4+t^3+t^2+t+1")
    assert is_irreducible(quartic)


def test_group_algebra_never_a_field():
    # t^n - 1 always splits off t - 1, so at least two factors (counted
    # with multiplicity) for every p and n >= 2
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 4), (5, 6), (7, 2)):
        ga = make_group_algebra(p, n)
        assert sum(m for _, m in ga.factors) >= 2
        root_of_one = parse_poly(make_field(p), "t-1")
        assert root_of_one in [f for f, _ in ga.factors]
        # semisimple exactly when p does not divide n, i.e. squarefree split
        assert ga.semisimple == (n % p != 0)
        assert ga.semisimple == all(m == 1 for _, m in ga.factors)


def test_group_algebra_arithmetic():
    ga = make_group_algebra(2, 4)
    t = (0, 1, 0, 0)
    t3 = (0, 0, 0, 1)
    assert ga.mul(t, t3) == ga.one  # t^4 wraps to 1
    assert not ga.semisimple
    assert ga.is_unit(t) and not ga.is_unit((1, 1, 0, 0))
    assert ga.element(5) == (1, 0, 0, 0)
    with pytest.raises(LengthMismatch):
        ga.element((1, 0))
    with pytest.raises(OutOfRange, match="no field decomposition"):
        ga.project(t)


def test_group_algebra_projection_is_ring_morphism():
    ga = make_group_algebra(2, 5)
    rng = random.Random(23)
    ring = ga.decomposition
    for _ in range(40):
        a = tuple(rng.randrange(2) for _ in range(5))
        b = tuple(rng.randrange(2) for _ in range(5))
        assert ga.project(ga.mul(a, b)) == ring.mul(ga.project(a), ga.project(b))
        assert ga.project(ga.add(a, b)) == ring.add(ga.project(a), ga.project(b))
    assert ga.project(ga.one) == ring.one


def test_group_algebra_max_periods():
    assert group_algebra_max_period(make_group_algebra(2, 5), 1) == 15
    assert 15 >= 2 ** 4 - 1  # at least the big-component field maximum
    # derived: t^2-1 = (t-1)(t+1) over F_3 gives F_3 + F_3, closure max 2
    assert group_algebra_max_period(make_group_algebra(3, 2), 1) == 2
    # derived: t^3-1 = (t+1)(t^2+t+1) over F_2 gives F_2 + F_4, closure max 3
    assert group_algebra_max_period(make_group_algebra(2, 3), 1) == 3


def test_group_algebra_max_period_strictly_below_field_bound():
    for p, n, k in ((2, 5, 1), (3, 2, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2)):
        ga = make_group_algebra(p, n)
        assert group_algebra_max_period(ga, k) < ga.size ** k - 1


def test_group_algebra_nonsemisimple_bruteforce():
    ga = make_group_algebra(2, 2)  # t^2-1 = (t+1)^2
    assert not ga.semisimple
    # oracle by hand: the unit group is {1, t} and t has order 2
    assert sorted(ga.units()) == [(0, 1), (1, 0)]
    assert group_algebra_max_period(ga, 1) == 2


def crt_period(ga, coeffs, s0=None):
    """The period over the algebra's field decomposition (semisimple only)."""
    rec = Recurrence(ga, coeffs)
    s0 = impulse_state(rec) if s0 is None else s0
    return period_over_ring(ga.project_recurrence(rec), tuple(ga.project(s) for s in s0))


def test_group_algebra_crt_period_consistency():
    ga = make_group_algebra(2, 5)
    for seed in range(5):
        coeffs = sample_recurrence(ga, 2, seed=seed)
        assert group_algebra_period(ga, coeffs) == crt_period(ga, coeffs)
    # and on a non-impulse state
    coeffs = sample_recurrence(ga, 1, seed=3)
    s0 = ((1, 0, 1, 1, 0),)
    assert group_algebra_period(ga, coeffs, s0) == crt_period(ga, coeffs, s0)


def test_sample_recurrence_draws_units_without_listing_them(monkeypatch):
    ga = make_group_algebra(2, 20)

    def no_listing(self):
        raise AssertionError("units() lists p^n elements")

    monkeypatch.setattr(type(ga), "units", no_listing)
    for seed in range(5):
        coeffs = sample_recurrence(ga, 3, seed=seed)
        assert len(coeffs) == 3 and all(len(c) == 20 for c in coeffs)
        assert ga.is_unit(coeffs[0])
        assert sample_recurrence(ga, 3, seed=seed) == coeffs


def test_sample_recurrence_refuses_a_degree_below_one():
    ga = make_group_algebra(2, 3)
    assert len(sample_recurrence(ga, 1)) == 1
    for k in (0, -2):
        with pytest.raises(OutOfRange, match="^recurrence degree must be >= 1$"):
            sample_recurrence(ga, k)


@pytest.mark.parametrize("make, same, other", [
    (make_product_ring, [2, "2^2", 5], [2, 5]),
    (lambda args: make_group_algebra(*args), (2, 6), (3, 6)),
])
def test_ring_contexts_compare_hash_and_pickle(make, same, other):
    a, b, c = make(same), make(same), make(other)
    assert a == b and hash(a) == hash(b) and a != c
    assert a.__eq__("not a ring") is NotImplemented
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)


def test_group_algebra_sequences_run_directly():
    # the generic simulator accepts the algebra as a ring context
    ga = make_group_algebra(3, 2)
    rec = Recurrence(ga, (ga.from_int(1), ga.from_int(1)))
    terms = generate(rec, (ga.zero, ga.one), 6)
    assert terms[0] == ga.zero and terms[1] == ga.one
    assert terms[2] == ga.one and terms[3] == ga.add(ga.one, ga.one)
    assert period_bruteforce(rec, (ga.zero, ga.one)) >= 1


@pytest.mark.parametrize("walk, unit, answer", [
    (lambda: period_bruteforce(F5_FIB, (0, 1)), "period", 20),
    (lambda: SequenceRun(F5_FIB, (0, 1)).period, "period", 20),
    (lambda: impulse_response_period(F5_FIB), "period", 20),
    (lambda: component_periods(RING_FIB, RING_FIB_S0), "period", [3, 20]),
    (lambda: period_over_ring(RING_FIB, RING_FIB_S0), "period", 60),
    (lambda: group_algebra_period(GA_5_2, (1, 1)), "period", 20),
    (lambda: crt_period(GA_5_2, (1, 1)), "period", 20),
    (lambda: poly_order_bruteforce(parse_poly(make_field(5), "x^2-x-1")), "order", 20),
    (lambda: companion_order_bruteforce(F5_FIB), "matrix order", 20),
], ids=["period_bruteforce", "SequenceRun.period", "impulse_response_period",
        "component_periods", "period_over_ring", "group_algebra_period",
        "group_algebra_period-crt", "poly_order_bruteforce",
        "companion_order_bruteforce"])
def test_default_budget_stops_every_walk(monkeypatch, walk, unit, answer):
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "19")
    with pytest.raises(BudgetExceeded, match=f"^no {unit} within the budget of 19 steps$"):
        walk()
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "20")
    assert walk() == answer


def sweep_periods(ga, k, every_state=False):
    """The oracle for group_algebra_max_period: the periods of every
    unit-c_0 recurrence of degree k over the algebra, each walked from the
    impulse state (which attains the recurrence's largest period) or from
    every state.  The ring operations are memoized, so each sum and product
    of two elements is formed once."""
    add, mul, zero = functools.cache(ga.add), functools.cache(ga.mul), ga.zero
    elements = list(ga.elements())
    impulse = ((zero,) * (k - 1) + (ga.one,),)
    periods = set()
    for c0 in ga.units():
        for rest in itertools.product(elements, repeat=k - 1):
            terms = [(i, c) for i, c in enumerate((c0, *rest)) if c != zero]
            for start in itertools.product(elements, repeat=k) if every_state else impulse:
                state, n = start, 0
                while n == 0 or state != start:
                    nxt = zero
                    for i, c in terms:
                        if state[i] != zero:
                            nxt = add(nxt, mul(c, state[i]))
                    state = state[1:] + (nxt,)
                    n += 1
                periods.add(n)
    return periods


def local_closure(ga, k):
    """lcm-closure of the local sets P_k(F_Q) * D(p^a), one per factor."""
    return lcm_closure([set_product(period_set_exact(k, ga.p ** f.degree), divisors(m))
                        for f, m in ga.factors])


# non-semisimple F_2[C_2], F_3[C_3], F_2[C_4], F_2[C_6], F_3[C_6], F_2[C_8] and
# F_5[C_5], then the semisimple F_2[C_3], F_2[C_5], F_3[C_2] and F_3[C_4]
SWEEP_CASES = [(2, 2, k) for k in range(1, 6)] + [
    (3, 3, 1), (3, 3, 2), (2, 4, 1), (2, 4, 2), (2, 4, 3), (2, 6, 1), (2, 6, 2),
    (3, 6, 1), (2, 8, 1), (5, 5, 1), (2, 3, 2), (2, 5, 2), (3, 2, 3), (3, 4, 2),
]


@pytest.mark.parametrize("p,n,k", SWEEP_CASES)
def test_group_algebra_max_period_matches_sweep(p, n, k):
    ga = make_group_algebra(p, n)
    assert group_algebra_max_period(ga, k) == max(sweep_periods(ga, k))


@pytest.mark.parametrize("p,n,k", [(2, 2, 1), (2, 2, 2), (2, 2, 3),
                                   (2, 4, 1), (3, 3, 1), (2, 6, 1)])
def test_group_algebra_period_set_is_local_closure(p, n, k):
    # every recurrence and every state reach exactly the closure
    ga = make_group_algebra(p, n)
    assert sweep_periods(ga, k, every_state=True) == local_closure(ga, k)


def test_group_algebra_max_period_past_the_sweep():
    # a walk of every recurrence has 2^31 worst-case steps for F_2[C_4] at
    # k = 4 (and answered 60 after 13 s); P_8(F_2) has max 255, times p = 2
    assert group_algebra_max_period(make_group_algebra(2, 4), 4) == 60
    assert group_algebra_max_period(make_group_algebra(2, 2), 8) == 510


def test_group_algebra_max_period_refusals():
    # the exact route's and the closure's typed errors, as on a product ring
    ga = make_group_algebra(2, 2)
    with pytest.raises(OutOfRange, match="^degree 64 over F_2 is past the 64-bit limit"):
        group_algebra_max_period(ga, 64)
    with pytest.raises(BudgetExceeded, match="^20016 candidate periods exceed the budget 20000$"):
        group_algebra_max_period(ga, 63, budget=20000)
    with pytest.raises(BudgetExceeded, match="^390 lcm pairs exceed the budget 100$"):
        group_algebra_max_period(make_group_algebra(2, 6), 4, budget=100)
    # 251^7 - 1 is in P_7(F_251), and 251 times it is past 2^63 - 1
    with pytest.raises(OverflowError, match="^period product exceeds the 64-bit range$"):
        group_algebra_max_period(make_group_algebra(251, 251), 7)


def test_group_algebra_validation():
    with pytest.raises(OutOfRange):
        make_group_algebra(2, 1)
    with pytest.raises(OutOfRange):  # n is checked before p
        make_group_algebra(4, 1)
    from period_lab.errors import CompositeCharacteristic

    with pytest.raises(CompositeCharacteristic):
        make_group_algebra(4, 3)
