"""Acceptance suite: one test per release criterion, each printing a
PASS line.  Run with `pytest tests/test_acceptance.py -v`."""

import itertools
import json
import random

from period_lab.cli import main as cli_main
from period_lab.ff import make_field, parse_field_spec
from period_lab.intfactor import split_prime_power
from period_lab.orders import poly_order, poly_order_bruteforce
from period_lab.period_sets import (
    order_set_bruteforce,
    period_set_closed_form,
    period_set_lower_bound,
)
from period_lab.poly import Poly, factor, is_irreducible, monic_polys, parse_poly
from period_lab.rings import (
    group_algebra_max_period,
    group_algebra_period,
    make_group_algebra,
    make_product_ring,
    period_over_ring,
    period_set_over_ring,
    sample_recurrence,
    verify_field_characterization,
)
from period_lab.sequences import (
    Recurrence,
    generate,
    impulse_response_period,
    impulse_state,
    minimal_poly,
    period_bruteforce,
)

from oracles import companion_order_bruteforce

FIELDS = (2, 3, 4, 5, 7, 8, 9)


def test_criterion_01_closed_forms_equal_bruteforce(bruteforce_set):
    for q in FIELDS:
        for k in (1, 2, 3, 4):
            brute = bruteforce_set(q, k)
            closed = period_set_closed_form(k, q)
            assert brute.values == closed.values, (q, k)
    print("PASS criterion 1: closed forms = brute force for k<=4, q in {2,3,4,5,7,8,9}")


def test_criterion_02_degree_sets_over_f2():
    expected = {
        1: {1},
        2: {1, 2, 3},
        3: {1, 2, 3, 4, 7},
        4: {1, 2, 3, 4, 5, 6, 7, 15},
    }
    for k, vals in expected.items():
        assert period_set_closed_form(k, 2) == vals, k
    print("PASS criterion 2: golden period sets of degrees 1-4 over F_2")


def test_criterion_03_degree5_strictness():
    F2 = make_field(2)
    f = parse_poly(F2, "x^5+x^4+1")
    assert poly_order(f).order == 21
    assert poly_order_bruteforce(f) == 21
    assert impulse_response_period(Recurrence.from_char_poly(f)) == 21
    assert 21 in order_set_bruteforce(F2, 5)
    assert 21 not in period_set_lower_bound(5, 2)
    print("PASS criterion 3: order 21 at degree 5 over F_2 escapes the union bound")


def test_criterion_04_order_oracle_equivalence():
    for q, expected_count in ((2, 30), (3, 120)):
        field = make_field(q)
        count = 0
        for k in (1, 2, 3, 4):
            for f in monic_polys(field, k):
                assert poly_order(f).order == poly_order_bruteforce(f), str(f)
                count += 1
        assert count == expected_count
    print("PASS criterion 4: pipeline = brute force for all monic f, deg 1-4, F_2/F_3")


def test_criterion_05_period_order_matrix_equivalences():
    for q in (2, 3):
        field = make_field(q)
        for k in (1, 2, 3):
            for coeffs in itertools.product(range(q), repeat=k):
                if coeffs[0] == 0:
                    continue
                rec = Recurrence(field, coeffs)
                n = poly_order(rec.char_poly()).order
                assert impulse_response_period(rec) == n
                assert companion_order_bruteforce(rec) == n
                for s0 in itertools.product(range(q), repeat=k):
                    assert n % period_bruteforce(rec, s0) == 0
    print("PASS criterion 5: impulse period = matrix order = polynomial order, exhaustively")


def test_criterion_06_fibonacci():
    assert period_bruteforce(Recurrence(make_field(2), (1, 1)), (0, 1)) == 3
    assert period_bruteforce(Recurrence(make_field(5), (1, 1)), (0, 1)) == 20
    from period_lab.intfactor import is_prime

    checked = []
    for p in range(2, 50):
        if not is_prime(p) or p % 5 not in (2, 3):
            continue
        period = impulse_response_period(Recurrence(make_field(p), (1, 1)))
        assert 2 * (p + 1) % period == 0, p
        checked.append(p)
    assert checked == [2, 3, 7, 13, 17, 23, 37, 43, 47]
    print("PASS criterion 6: Fibonacci periods 3 (F_2), 20 (F_5), divisor of 2(p+1)")


def test_criterion_07_minimal_polynomial():
    rng = random.Random(2024)
    for _ in range(200):
        q = rng.choice((2, 3, 4, 5))
        field = make_field(*split_prime_power(q))
        k = rng.randrange(1, 5)
        coeffs = (rng.randrange(1, q),) + tuple(rng.randrange(q) for _ in range(k - 1))
        rec = Recurrence(field, coeffs)
        s0 = tuple(rng.randrange(q) for _ in range(k))
        measured = period_bruteforce(rec, s0)
        m = minimal_poly(field, generate(rec, s0, 2 * k), k)
        assert poly_order(m).order == measured, (q, coeffs, s0)
        assert (rec.char_poly() % m).is_zero
    print("PASS criterion 7: ord(minimal polynomial) = measured period, 200 seeded runs")


def test_criterion_08_product_ring_period_sets():
    ring = make_product_ring([2, 3, 5])
    assert period_set_over_ring(ring, 1) == {1, 2, 4}
    assert period_set_over_ring(ring, 2) == {
        1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120,
    }
    print("PASS criterion 8: golden period sets over F_2+F_3+F_5")


def test_criterion_09_lcm_closure_oracle():
    ring = make_product_ring([2, 3])
    for k, expected_recs in ((1, 2), (2, 12)):
        reached = set()
        n_recs = 0
        n_states = 0
        for coeffs in itertools.product(ring.elements(), repeat=k):
            if not ring.is_unit(coeffs[0]):
                continue
            n_recs += 1
            rec = Recurrence(ring, coeffs)
            for s0 in itertools.product(ring.elements(), repeat=k):
                n_states += 1
                reached.add(period_bruteforce(rec, s0))
        assert n_recs == expected_recs
        assert n_states == expected_recs * 6 ** k
        assert period_set_over_ring(ring, k) == reached, k
    print("PASS criterion 9: lcm-closure matches exhaustive enumeration over F_2+F_3")


def test_criterion_10_field_characterization():
    for spec in ([2], ["2^2"], [2, 3], [2, 3, 5]):
        ring = make_product_ring(spec)
        for k in (1, 2):
            report = verify_field_characterization(ring, k)
            assert report["achieved"] == report["is_field"], (spec, k)
            assert report["consistent"]
    print("PASS criterion 10: max period |R|^k - 1 is achieved exactly for fields")


def test_criterion_11_group_algebra():
    ga = make_group_algebra(2, 5)
    assert ga.semisimple
    assert [c.q for c in ga.decomposition.components] == [2, 16]
    maxp = group_algebra_max_period(ga, 1)
    assert maxp == 15
    assert maxp >= 2 ** 4 - 1
    rec = Recurrence(ga, sample_recurrence(ga, 2, seed=11))
    s0 = impulse_state(rec)
    direct = group_algebra_period(ga, rec.coeffs)
    via_crt = period_over_ring(ga.project_recurrence(rec), tuple(ga.project(s) for s in s0))
    assert direct == via_crt
    print("PASS criterion 11: F_2[t]/<t^5-1> = F_2+F_16, max period 15, CRT-consistent")


def test_criterion_12_property_suites(capsys):
    # factorization reconstruction, 1000 seeded random polynomials
    rng = random.Random(4242)
    fields = [make_field(2), make_field(3), make_field(5)]
    for i in range(1000):
        field = fields[i % 3]
        deg = rng.randrange(1, 9)
        cs = [rng.randrange(field.q) for _ in range(deg)] + [rng.randrange(1, field.q)]
        f = Poly(field, cs)
        fac = factor(f)
        assert fac.expand(field) == f
        assert all(is_irreducible(g) for g, _ in fac)

    # field axioms, exhaustively for every prime power q <= 64
    from period_lab.errors import NotPrimePower

    for q in range(2, 65):
        try:
            p, e = split_prime_power(q)
        except NotPrimePower:
            continue
        field = make_field(p, e)
        add, mul, inv = field.add, field.mul, field.inv
        for a in range(1, q):
            assert mul(inv(a), a) == 1
        for a, b, c in itertools.product(range(q), repeat=3):
            assert mul(a, mul(b, c)) == mul(mul(a, b), c)
            assert add(a, add(b, c)) == add(add(a, b), c)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a, b in itertools.product(range(q), repeat=2):
            assert mul(a, b) == mul(b, a)
            assert add(a, b) == add(b, a)

    # CLI JSON round-trip and byte-for-byte determinism
    argv = ["ord", "--field", "3^2", "--poly", "x^4+[1,1]*x+2", "--explain",
            "--format", "json"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    field = parse_field_spec(payload["field"])
    reparsed = parse_poly(field, payload["poly"])
    assert reparsed == parse_poly(field, "x^4+[1,1]*x+2")
    for entry in payload["factors"]:
        g = parse_poly(field, entry["factor"])
        assert is_irreducible(g)

    print("PASS criterion 12: reconstruction x1000, field axioms q<=64, CLI determinism")
