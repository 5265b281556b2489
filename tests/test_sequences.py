import itertools
import random

import pytest

from period_lab import sequences
from period_lab.errors import (
    BudgetExceeded,
    ConstantPolynomial,
    InsufficientPrefix,
    LengthMismatch,
    LimitExceeded,
    NonUnitCoefficient,
    OutOfRange,
    walk_back,
)
from period_lab.ff import make_field
from period_lab.orders import poly_order
from period_lab.poly import Poly, parse_poly
from period_lab.rings import make_product_ring
from period_lab.sequences import (
    Recurrence,
    SequenceRun,
    berlekamp_massey,
    generate,
    impulse_response_period,
    impulse_state,
    minimal_poly,
    period_bruteforce,
)

from oracles import companion_order_bruteforce

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def minimal_poly_by_search(field, prefix, bound):
    """Oracle: smallest-degree monic recurrence polynomial matching the prefix.

    Tries every candidate recurrence of degree 0..bound and keeps the first
    (in degree order) whose recurrence reproduces the prefix.
    """
    from period_lab.poly import monic_polys

    if all(t == 0 for t in prefix):
        return Poly.one(field)
    for d in range(1, bound + 1):
        for m in monic_polys(field, d):
            coeffs = tuple(field.neg(c) for c in m.coeffs[:-1])
            ok = True
            for n in range(len(prefix) - d):
                acc = field.zero
                for i, c in enumerate(coeffs):
                    acc = field.add(acc, field.mul(c, prefix[n + i]))
                if acc != prefix[n + d]:
                    ok = False
                    break
            if ok:
                return m
    return None


def test_generate_fibonacci_mod2():
    rec = Recurrence(F2, (1, 1))
    assert generate(rec, (0, 1), 8) == [0, 1, 1, 0, 1, 1, 0, 1]


def test_generate_degree5_cycle():
    rec = Recurrence(F2, (1, 0, 0, 0, 1))
    expected = [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1]
    assert generate(rec, (0, 0, 0, 0, 1), 21) == expected
    # the next 21 terms repeat the cycle
    assert generate(rec, (0, 0, 0, 0, 1), 42) == expected * 2


def test_generate_zero_state():
    rec = Recurrence(F5, (2, 3, 4))
    assert generate(rec, (0, 0, 0), 10) == [0] * 10


def test_generate_length_mismatch():
    rec = Recurrence(F2, (1, 1))
    with pytest.raises(LengthMismatch):
        generate(rec, (0, 1, 1), 4)


def test_generate_refuses_a_negative_count():
    rec = Recurrence(F2, (1, 1))
    assert generate(rec, (0, 1), 0) == []
    for count in (-1, -5):
        with pytest.raises(OutOfRange, match="^term count must be >= 0$"):
            generate(rec, (0, 1), count)


def test_generate_refuses_a_count_above_the_budget(monkeypatch):
    """A count above the budget is refused before any term is built, in
    words naming the count and the budget; a count at the budget runs."""
    rec = Recurrence(F2, (1, 1))
    assert generate(rec, (0, 1), 5, budget=5) == [0, 1, 1, 0, 1]
    monkeypatch.setattr(sequences, "_stepper", None)  # no walk may start
    monkeypatch.delenv("PERIOD_LAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded, match="^6 terms exceed the budget 5$"):
        generate(rec, (0, 1), 6, budget=5)
    with pytest.raises(BudgetExceeded,
                       match="^99999999999999 terms exceed the budget 1000000$"):
        generate(rec, (0, 1), 99999999999999)
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "3")
    with pytest.raises(BudgetExceeded, match="^4 terms exceed the budget 3$"):
        generate(rec, (0, 1), 4)


def test_recurrence_unit_constraint():
    with pytest.raises(NonUnitCoefficient):
        Recurrence(F5, (0, 1))
    Recurrence(F5, (5 + 2, 0))  # coefficients reduce first
    with pytest.raises(OutOfRange, match="degree must be >= 1"):
        Recurrence(F5, ())


def test_period_bruteforce_references():
    assert period_bruteforce(Recurrence(F2, (1, 1)), (0, 1)) == 3
    assert period_bruteforce(Recurrence(F5, (1, 1)), (0, 1)) == 20
    assert period_bruteforce(Recurrence(F5, (1, 1)), (0, 0)) == 1


def test_period_bruteforce_budget():
    fib = Recurrence(F5, (1, 1))
    assert period_bruteforce(fib, (0, 1), budget=20) == 20
    with pytest.raises(BudgetExceeded, match="budget of 19 steps"):
        period_bruteforce(fib, (0, 1), budget=19)
    # degree 40: up to 2^40 steps without a budget
    rec = Recurrence(F2, (1,) + (0,) * 38 + (1,))
    with pytest.raises(BudgetExceeded):
        period_bruteforce(rec, impulse_state(rec), budget=1000)


def test_walk_back_stops_at_min_of_cap_and_budget():
    # the shared walk loop on x -> x + 1 mod 7, which returns after 7 steps
    calls = []

    def step(x):
        calls.append(x)
        return (x + 1) % 7

    assert walk_back(0, step, "cycle", 7, 7) == 7
    calls.clear()
    with pytest.raises(BudgetExceeded, match="^no cycle within the budget of 6 steps$"):
        walk_back(0, step, "cycle", 10, 6)
    assert len(calls) == 6
    calls.clear()
    # a provable cap below the answer is a bug
    with pytest.raises(LimitExceeded, match=r"^no cycle within 6 steps \(bug\?\)$"):
        walk_back(0, step, "cycle", 6, 6)
    assert len(calls) == 6


def test_char_poly():
    assert Recurrence(F5, (1, 1)).char_poly() == parse_poly(F5, "x^2-x-1")
    assert Recurrence(F2, (1, 0, 0, 0, 1)).char_poly() == parse_poly(F2, "x^5+x^4+1")
    assert Recurrence(F3, (1,)).char_poly() == parse_poly(F3, "x-1")
    ring = make_product_ring([2, 3])
    with pytest.raises(TypeError, match="^this operation needs a field-valued recurrence$"):
        Recurrence(ring, ((1, 1),)).char_poly()


def test_from_char_poly_roundtrip():
    for coeffs in ((1, 1), (2, 0, 3), (4,)):
        rec = Recurrence(F5, coeffs)
        assert Recurrence.from_char_poly(rec.char_poly()) == rec
    with pytest.raises(NonUnitCoefficient):
        Recurrence.from_char_poly(parse_poly(F5, "x^2+x"))
    with pytest.raises(ConstantPolynomial):
        Recurrence.from_char_poly(Poly.constant(F5, 3))


def test_impulse_response_period():
    assert impulse_response_period(Recurrence(F2, (1, 1))) == 3
    assert impulse_response_period(Recurrence(F2, (1, 0, 0, 0, 1))) == 21
    for F in (F2, F3, F5):
        assert impulse_response_period(Recurrence(F, (1,))) == 1


def test_companion_matrix_shape():
    rec = Recurrence(F5, (2, 3))
    assert rec.companion_matrix() == ((0, 2), (1, 3))
    # state advance s_{n+1} = s_n C agrees with generate()
    terms = generate(rec, (1, 4), 4)
    C = rec.companion_matrix()
    s = (1, 4)
    nxt = tuple(
        F5.add(F5.mul(s[0], C[0][j]), F5.mul(s[1], C[1][j])) for j in range(2)
    )
    assert nxt == tuple(terms[1:3])


def test_companion_order_bruteforce():
    # direct matrix powering of [[0,1],[1,1]] mod 2 gives order 3
    assert companion_order_bruteforce(Recurrence(F2, (1, 1))) == 3
    assert companion_order_bruteforce(Recurrence(F3, (1,))) == 1
    assert companion_order_bruteforce(Recurrence(F5, (1, 1))) == 20


def test_matrix_polynomial_period_equivalences_exhaustive():
    # impulse period == matrix order == ord(char poly), and every initial
    # state's period divides it; exhaustive through F_4
    for q, F in ((2, F2), (3, F3), (4, make_field(2, 2))):
        for k in (1, 2, 3):
            for coeffs in itertools.product(range(q), repeat=k):
                if coeffs[0] == 0:
                    continue
                rec = Recurrence(F, coeffs)
                n = poly_order(rec.char_poly()).order
                assert impulse_response_period(rec) == n
                assert companion_order_bruteforce(rec) == n
                if k <= 2:
                    for s0 in itertools.product(range(q), repeat=k):
                        assert n % period_bruteforce(rec, s0) == 0


def test_period_divides_order_random_recurrences():
    # random recurrences up to degree 4 over q <= 5, all initial states
    rng = random.Random(41)
    for _ in range(25):
        q = rng.choice((2, 3, 4, 5))
        F = make_field(*((2, 2) if q == 4 else (q, 1)))
        k = rng.randrange(1, 5)
        if q ** k > 625:
            k = 2
        rec = Recurrence(
            F, (rng.randrange(1, q),) + tuple(rng.randrange(q) for _ in range(k - 1))
        )
        n = poly_order(rec.char_poly()).order
        for s0 in itertools.product(range(q), repeat=k):
            assert n % period_bruteforce(rec, s0) == 0


def test_minimal_poly_order_equals_period_exhaustive_f2():
    for k in (1, 2, 3):
        for coeffs in itertools.product(range(2), repeat=k):
            if coeffs[0] == 0:
                continue
            rec = Recurrence(F2, coeffs)
            for s0 in itertools.product(range(2), repeat=k):
                m = minimal_poly(F2, generate(rec, s0, 2 * k), k)
                assert poly_order(m).order == period_bruteforce(rec, s0)


def test_m_periodicity_iff_divisible():
    rng = random.Random(31)
    for _ in range(40):
        q, F = rng.choice(((2, F2), (3, F3), (5, F5)))
        k = rng.randrange(1, 4)
        rec = Recurrence(F, (rng.randrange(1, q),) + tuple(rng.randrange(q) for _ in range(k - 1)))
        s0 = tuple(rng.randrange(q) for _ in range(k))
        rho = period_bruteforce(rec, s0)
        terms = generate(rec, s0, 5 * rho + k)
        for m in range(1, 3 * rho + 1):
            shifted_ok = all(terms[n + m] == terms[n] for n in range(4 * rho - m))
            assert shifted_ok == (m % rho == 0)


def test_berlekamp_massey_connection():
    conn, L = berlekamp_massey(F2, [0, 1, 1, 0, 1, 1, 0, 1])
    assert L == 2 and conn[: L + 1] == [1, 1, 1]


def test_minimal_poly_references():
    # derived: exhaustive search over all monic recurrences of degree <= 2
    prefix = [0, 1, 1, 0, 1, 1, 0, 1]
    oracle = minimal_poly_by_search(F2, prefix, 2)
    assert oracle == parse_poly(F2, "x^2+x+1")
    assert minimal_poly(F2, prefix, 2) == oracle

    assert minimal_poly(F2, [0] * 8, 4) == Poly.one(F2)

    rec = Recurrence(F2, (1, 0, 0, 0, 1))
    prefix = generate(rec, impulse_state(rec), 42)
    m = minimal_poly(F2, prefix, 5)
    assert m == parse_poly(F2, "x^5+x^4+1")
    assert poly_order(m).order == 21


def test_minimal_poly_errors():
    with pytest.raises(InsufficientPrefix):
        minimal_poly(F2, [0, 1, 1], 2)
    # a prefix needing degree 2 under a bound of 1
    with pytest.raises(InsufficientPrefix):
        minimal_poly(F2, [0, 1, 1, 0], 1)
    with pytest.raises(OutOfRange, match="degree bound must be >= 0"):
        minimal_poly(F2, [], -1)


def test_minimal_poly_divides_char_poly():
    rng = random.Random(77)
    for _ in range(60):
        q, F = rng.choice(((2, F2), (3, F3), (5, F5)))
        k = rng.randrange(1, 5)
        rec = Recurrence(F, (rng.randrange(1, q),) + tuple(rng.randrange(q) for _ in range(k - 1)))
        s0 = tuple(rng.randrange(q) for _ in range(k))
        m = minimal_poly(F, generate(rec, s0, 2 * k), k)
        assert (rec.char_poly() % m).is_zero
        assert poly_order(m).order == period_bruteforce(rec, s0)


def test_sequence_run():
    run = SequenceRun(Recurrence(F5, (1, 1)), (0, 1))
    assert run.period == 20
    prefix = run.prefix(12)
    # the prefix satisfies the recurrence term by term
    for n in range(10):
        assert prefix[n + 2] == F5.add(prefix[n], prefix[n + 1])
    # and is periodic with the measured period right from the start
    long = run.prefix(45)
    assert long[:20] == long[20:40]
