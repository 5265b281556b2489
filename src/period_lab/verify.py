"""Built-in verification suite.

Each check recomputes a reference result two independent ways (or against
a frozen known value) and reports expected vs. computed.  Scopes group
the checks: "orders" covers polynomial orders and sequence periods,
"period-sets" the degree-bounded period sets, "rings" the product-ring
and group-algebra results.

A check is a function that returns (expected, computed), written under
`@_check(name, scope, claim)`.  The decorator appends the check to
_CHECKS once, at import, so run_verify runs the checks in the order they
are defined in this module.  A check that raises fails, and the checks
after it still run.
"""

from __future__ import annotations

import itertools as it
import time
from functools import lru_cache

from .errors import Record, walk_back
from .ff import make_field
from .intfactor import is_prime, split_prime_power
from .orders import poly_order, poly_order_bruteforce
from .period_sets import (
    divisors,
    order_set_bruteforce,
    period_set_closed_form,
    period_set_exact,
    period_set_lower_bound,
    set_product,
    set_scale,
)
from .poly import monic_polys, parse_poly
from .rings import (
    GroupAlgebra,
    group_algebra_max_period,
    make_product_ring,
    max_period_bound,
    period_over_ring,
    period_set_over_ring,
    sample_recurrence,
    verify_field_characterization,
)
from .sequences import (
    Recurrence,
    generate,
    impulse_response_period,
    impulse_state,
    minimal_poly,
    period_bruteforce,
)

SCOPES = ("orders", "period-sets", "rings")


class CheckResult(Record):
    """One check: name, scope, claim, expected, computed, passed, elapsed_ms."""

    __slots__ = _fields = ("name", "scope", "claim", "expected", "computed", "passed",
                           "elapsed_ms")


class VerifyReport(Record):
    """A verify run: checks, its CheckResults in run order."""

    __slots__ = _fields = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_CHECKS = []  # (name, scope, claim, function), in definition order


def _check(name: str, scope: str, claim: str):
    """Register the decorated function as the check `name` of `scope`.  It
    returns (expected, computed), and the check passes when they are equal."""
    def register(fn):
        _CHECKS.append((name, scope, claim, fn))
        return fn
    return register


def _fib(q):
    field = make_field(*split_prime_power(q))
    return Recurrence(field, (1, 1))


@_check("fibonacci-mod-2", "orders",
        "Fibonacci over F_2 from (0,1): terms 0,1,1,0,1,1,0,1 and period 3")
def _check_fib_mod2():
    rec = _fib(2)
    terms = generate(rec, (0, 1), 8)
    period = period_bruteforce(rec, (0, 1))
    return ([0, 1, 1, 0, 1, 1, 0, 1], 3), (terms, period)


@_check("fibonacci-mod-5", "orders", "Fibonacci over F_5 from (0,1) has period 20")
def _check_fib_mod5():
    rec = _fib(5)
    return 20, period_bruteforce(rec, (0, 1))


@_check("fibonacci-2p-plus-2", "orders",
        "for primes p = 2,3 (mod 5) below 50 the Fibonacci period divides 2(p+1)")
def _check_fib_general():
    bad = [
        p
        for p in range(2, 50)
        if is_prime(p) and p % 5 in (2, 3)
        and 2 * (p + 1) % impulse_response_period(_fib(p)) != 0
    ]
    return [], bad


@_check("element-order-f5", "orders", "3 has multiplicative order 4 in F_5")
def _check_element_order():
    return 4, make_field(5).multiplicative_order(3)


@_check("order-x2+x+1", "orders", "ord(x^2+x+1) = 3 over F_2")
def _check_order_quadratic():
    f = parse_poly(make_field(2), "x^2+x+1")
    return 3, poly_order(f).order


@_check("order-x3+x+1", "orders", "ord(x^3+x+1) = 7 over F_2")
def _check_order_cubic():
    f = parse_poly(make_field(2), "x^3+x+1")
    return 7, poly_order(f).order


@_check("order-x5+x4+1", "orders",
        "ord(x^5+x^4+1) = lcm(3,7) = 21 over F_2, by all three routes")
def _check_order_degree5():
    f = parse_poly(make_field(2), "x^5+x^4+1")
    pipeline = poly_order(f).order
    brute = poly_order_bruteforce(f)
    impulse = impulse_response_period(Recurrence.from_char_poly(f))
    return (21, 21, 21), (pipeline, brute, impulse)


@_check("order-repeated-root", "orders",
        "ord(x^2-x-1) = 20 over F_5 (repeated root 3 of order 4, boosted by p)")
def _check_order_repeated_root():
    f = parse_poly(make_field(5), "x^2-x-1")  # (x-3)^2 over F_5
    return 20, poly_order(f).order


@_check("degree5-cycle", "orders",
        "the impulse response of a_{n+5} = a_{n+4} + a_n over F_2 cycles in 21")
def _check_degree5_cycle():
    field = make_field(2)
    rec = Recurrence(field, (1, 0, 0, 0, 1))
    expected = [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1]
    return expected, generate(rec, (0, 0, 0, 0, 1), 21)


@_check("minimal-poly-degree5", "orders",
        "the minimal polynomial of that impulse response is x^5+x^4+1")
def _check_minimal_poly_degree5():
    field = make_field(2)
    rec = Recurrence(field, (1, 0, 0, 0, 1))
    prefix = generate(rec, impulse_state(rec), 42)
    m = minimal_poly(field, prefix, 5)
    return "x^5+x^4+1", str(m)


@_check("pipeline-vs-bruteforce", "orders",
        "factorization pipeline = brute-force order for all monic f, "
        "deg <= 3 over F_2/F_3/F_4/F_5, deg <= 2 over F_8/F_9")
def _check_oracle_agreement():
    # every monic polynomial of degree 1..3 over F_2, F_3, F_4 and F_5, and
    # of degree 1..2 over F_8 and F_9: the extension fields take the order
    # of each irreducible factor over the prime field, F_8 through three
    # conjugates
    mismatches = []
    for q, top in ((2, 3), (3, 3), (4, 3), (5, 3), (8, 2), (9, 2)):
        field = make_field(*split_prime_power(q))
        for k in range(1, top + 1):
            for f in monic_polys(field, k):
                if poly_order(f).order != poly_order_bruteforce(f):
                    mismatches.append(str(f))
    return [], mismatches


@_check("divisor-set-algebra", "period-sets",
        "D(6), 5*D(6), and D(2)*D(6) expand as expected")
def _check_divisor_sets():
    expected = ([1, 2, 3, 6], [5, 10, 15, 30], [1, 2, 3, 4, 6, 12])
    computed = (
        list(divisors(6)),
        list(set_scale(5, divisors(6))),
        list(set_product(divisors(2), divisors(6))),
    )
    return expected, computed


@_check("period-sets-f2", "period-sets", "period sets of degrees 1-4 over F_2")
def _check_golden_f2():
    expected = (
        [1],
        [1, 2, 3],
        [1, 2, 3, 4, 7],
        [1, 2, 3, 4, 5, 6, 7, 15],
    )
    computed = tuple(list(period_set_closed_form(k, 2)) for k in (1, 2, 3, 4))
    return expected, computed


# the exact-route grid: the 25 (q, k) with q in {2,3,4,5} and q^k <= 1024
_EXACT_GRID = tuple((q, k) for q, top in ((2, 10), (3, 6), (4, 5), (5, 4))
                    for k in range(1, top + 1))


@lru_cache(maxsize=32)
def _bruteforce_set(q, k):
    """order_set_bruteforce over F_q at degree k.  Every period-set check
    asks for sets inside _EXACT_GRID, so each is built once."""
    return order_set_bruteforce(make_field(*split_prime_power(q)), k)


@_check("closed-form-equality", "period-sets",
        "closed forms equal brute-force order sets for k <= 4, q in {2,3,4,5}")
def _check_closed_vs_bruteforce():
    mismatches = [(q, k) for q in (2, 3, 4, 5) for k in (1, 2, 3, 4)
                  if _bruteforce_set(q, k) != period_set_closed_form(k, q)]
    return [], mismatches


@_check("degree5-strictness", "period-sets",
        "21 is a degree-5 period over F_2 but falls outside the union bound")
def _check_strictness_degree5():
    in_bruteforce = 21 in _bruteforce_set(2, 5)
    in_bound = 21 in period_set_lower_bound(5, 2)
    return (True, False), (in_bruteforce, in_bound)


@_check("exact-route-equality", "period-sets",
        "exact period sets equal brute-force order sets for q in {2,3,4,5}, "
        "q^k <= 1024; 21 is in the degree-5 set over F_2")
def _check_exact_vs_bruteforce():
    mismatches = [(q, k) for q, k in _EXACT_GRID
                  if _bruteforce_set(q, k) != period_set_exact(k, q)]
    return ([], True), (mismatches, 21 in period_set_exact(5, 2))


@_check("lower-bound", "period-sets",
        "the union lower bound equals the closed form for k <= 4, q in {2,3,4,5}, "
        "and lies inside the brute-force order set for q in {2,3,4,5}, q^k <= 1024")
def _check_lower_bound():
    unequal = [(q, k) for q in (2, 3, 4, 5) for k in (1, 2, 3, 4)
               if period_set_lower_bound(k, q) != period_set_closed_form(k, q)]
    outside = [(q, k) for q, k in _EXACT_GRID
               if not period_set_lower_bound(k, q).as_set() <= _bruteforce_set(q, k).as_set()]
    return ([], []), (unequal, outside)


@_check("ring-period-set-k1", "rings",
        "degree-1 period set over F_2+F_3+F_5 is {1,2,4}")
def _check_ring_example_degree1():
    ring = make_product_ring([2, 3, 5])
    return [1, 2, 4], list(period_set_over_ring(ring, 1))


@_check("ring-period-set-k2", "rings",
        "degree-2 period set over F_2+F_3+F_5 is the 16-element set ending 120")
def _check_ring_example_degree2():
    ring = make_product_ring([2, 3, 5])
    expected = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]
    return expected, list(period_set_over_ring(ring, 2))


@_check("ring-fibonacci", "rings",
        "Fibonacci over F_2+F_5 has period lcm(3,20) = 60, both routes")
def _check_ring_fibonacci():
    ring = make_product_ring([2, 5])
    rec = Recurrence(ring, ((1, 1), (1, 1)))
    s0 = ((0, 0), (1, 1))
    return (60, 60), (period_over_ring(rec, s0), period_bruteforce(rec, s0))


def _exhaustive_periods(ring, k):
    """Periods of every unit-c0 recurrence of degree k over the ring, from
    every state.  The state map permutes the states, so the states fall
    into cycles: each cycle is walked once on the ring's packed states
    (ring.walk), by walk_back (capped at |R|^k steps and at the default
    budget) with a step that marks each state it leaves, and the marked
    states are skipped as starts.  So every state is stepped exactly once
    per recurrence."""
    reached = set()
    cap = ring.size ** k
    for coeffs in it.product(ring.elements(), repeat=k):
        if not ring.is_unit(coeffs[0]):
            continue
        pack, step, _ = ring.walk(coeffs)
        seen = set()

        def mark(state):
            seen.add(state)
            return step(state)

        for s0 in it.product(ring.elements(), repeat=k):
            start = pack(s0)
            if start not in seen:
                reached.add(walk_back(start, mark, "period", cap))
    return reached


@_check("lcm-closure-exhaustive", "rings",
        "lcm-closure equals exhaustive enumeration over F_2+F_3 for k <= 2")
def _check_lcm_closure_exhaustive():
    ring = make_product_ring([2, 3])
    expected = tuple(sorted(_exhaustive_periods(ring, k)) for k in (1, 2))
    computed = tuple(list(period_set_over_ring(ring, k)) for k in (1, 2))
    return expected, computed


@_check("max-period-bound", "rings",
        "prod(q_i^k - 1) bounds: 24 for F_2+F_3 (k=2), 8 for F_2+F_3+F_5 (k=1)")
def _check_max_period_bound():
    ring23 = make_product_ring([2, 3])
    ring235 = make_product_ring([2, 3, 5])
    return (24, 8), (max_period_bound(ring23, 2), max_period_bound(ring235, 1))


@_check("field-characterization", "rings",
        "max period |R|^k - 1 is achieved exactly for single-field rings")
def _check_field_characterization():
    rings = ([2], [4], [2, 3], [2, 3, 5])
    rows = []
    for spec in rings:
        ring = make_product_ring(spec)
        for k in (1, 2):
            rows.append(verify_field_characterization(ring, k)["consistent"])
    return [True] * len(rows), rows


@_check("group-algebra-a5", "rings",
        "F_2[t]/<t^5-1> = F_2 + F_16; degree-1 max period 15; CRT route agrees")
def _check_group_algebra_a5():
    ga = GroupAlgebra(2, 5)
    shape = [c.spec() for c in ga.decomposition.components]
    maxp = group_algebra_max_period(ga, 1)
    rec = Recurrence(ga, sample_recurrence(ga, 2, seed=7))
    s0 = impulse_state(rec)
    direct = period_bruteforce(rec, s0)
    crt = period_over_ring(ga.project_recurrence(rec), tuple(ga.project(s) for s in s0))
    return (["2", "2^4/x^4+x^3+x^2+x+1"], 15, True), (shape, maxp, direct == crt)


@_check("group-algebra-local-sets", "rings",
        "local-set max period = exhaustive walk maximum for F_2[C_2] (k <= 3), "
        "F_2[C_4] and F_3[C_3] (k = 1)")
def _check_group_algebra_local_sets():
    cases = [(GroupAlgebra(p, n), k)
             for p, n, k in ((2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 4, 1), (3, 3, 1))]
    return ([max(_exhaustive_periods(ga, k)) for ga, k in cases],
            [group_algebra_max_period(ga, k) for ga, k in cases])


@_check("group-algebra-small", "rings",
        "max periods 2 and 3 for F_3[t]/<t^2-1> and F_2[t]/<t^3-1>; "
        "t^4-1 repeats over F_2")
def _check_group_algebra_small():
    a2 = group_algebra_max_period(GroupAlgebra(3, 2), 1)
    a3 = group_algebra_max_period(GroupAlgebra(2, 3), 1)
    a4_semisimple = GroupAlgebra(2, 4).semisimple
    return (2, 3, False), (a2, a3, a4_semisimple)


def run_verify(scope: str = "all") -> VerifyReport:
    """Run the verification checks for a scope; deterministic.  A check
    that raises fails, with the error as its computed value and
    "no error" as its expected one."""
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose all, " + ", ".join(SCOPES))
    results = []
    for name, check_scope, claim, fn in _CHECKS:
        if scope != "all" and check_scope != scope:
            continue
        start = time.perf_counter()
        try:
            expected, computed = fn()
            expected, computed, passed = repr(expected), repr(computed), expected == computed
        except Exception as exc:  # an error fails this check, and the others still run
            expected, computed, passed = "no error", f"{type(exc).__name__}: {exc}", False
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(
            CheckResult(
                name=name,
                scope=check_scope,
                claim=claim,
                expected=expected,
                computed=computed,
                passed=passed,
                elapsed_ms=elapsed,
            )
        )
    return VerifyReport(tuple(results))
