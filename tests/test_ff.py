import itertools
import pickle
import random

import pytest

from period_lab.errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    OutOfRange,
    ParseError,
    ReducibleModulus,
    ZeroElement,
)
from period_lab.ff import FieldCtx, make_field, parse_field_spec
from period_lab import poly
from period_lab.poly import Poly, is_irreducible


def reduce_mod_modulus(p, modulus, coeffs):
    """Oracle: reduce a coefficient list mod the defining polynomial by hand."""
    coeffs = list(coeffs)
    e = len(modulus) - 1
    for i in range(len(coeffs) - 1, e - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(e):
                coeffs[i - e + j] = (coeffs[i - e + j] - c * modulus[j]) % p
    return coeffs[:e] + [0] * (e - len(coeffs))


def test_make_field_basics():
    F2 = make_field(2)
    assert (F2.p, F2.e, F2.q, F2.modulus) == (2, 1, 2, None)
    F4 = make_field(2, 2)
    # the only monic irreducible quadratic over F_2
    assert F4.modulus == (1, 1, 1)
    assert F4.q == 4


def test_make_field_refuses_an_extension_past_the_degree_limit(monkeypatch):
    """The limit is checked before the default modulus is searched for."""
    from period_lab import ff

    def searched(p, e):
        raise AssertionError("searched for a default modulus")

    monkeypatch.setattr(ff, "_default_modulus", searched)
    with pytest.raises(OutOfRange, match=r"^extension degree 1048577 exceeds the 1048576 degree limit$"):
        make_field(2, 2**20 + 1)


def test_make_field_errors():
    with pytest.raises(CompositeCharacteristic):
        make_field(6)
    with pytest.raises(CompositeCharacteristic):
        make_field(1)
    with pytest.raises(OutOfRange):
        make_field(2, 0)
    with pytest.raises(OutOfRange):
        make_field((1 << 20) + 7)
    with pytest.raises(DegreeMismatch):
        make_field(5, 1, (1, 1, 1))  # prime field takes no modulus
    with pytest.raises(DegreeMismatch):
        make_field(2, 3, (1, 1, 1))  # degree 2 modulus for degree 3 field
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2


def test_default_modulus_is_lexicographically_smallest():
    # oracle: first cubic without roots in counting order (a cubic over F_2
    # is reducible exactly when it has a linear factor)
    def has_root(coeffs, p):
        return any(
            sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0
            for a in range(p)
        )

    ordered = [
        (c0, c1, c2, 1)
        for c0, c1, c2 in itertools.product(range(2), repeat=3)
        if not has_root((c0, c1, c2, 1), 2)
    ]
    # the counting order hits (1,0,1,1) = x^3+x^2+1 before x^3+x+1
    assert ordered[0] == (1, 0, 1, 1)
    assert make_field(2, 3).modulus == ordered[0]


def test_default_modulus_matches_full_scan():
    # oracle: the first irreducible among all monic degree-e candidates,
    # those with constant term 0 included
    for p, degrees in ((2, range(2, 10)), (3, range(2, 6)), (5, (2, 3)), (7, (2, 3))):
        base = make_field(p)
        for e in degrees:
            first = next(
                (*tail, 1) for tail in itertools.product(range(p), repeat=e)
                if is_irreducible(Poly(base, (*tail, 1)))
            )
            assert make_field(p, e).modulus == first, (p, e)


def test_default_modulus_skips_zero_constant_terms(monkeypatch):
    # a zero constant term means x divides the candidate; F_2^16 once tested
    # all 2^15 such candidates before reaching one that can be irreducible
    constants = []

    def counting(f):
        constants.append(f.coeffs[0])
        return is_irreducible(f)

    monkeypatch.setattr(poly, "is_irreducible", counting)
    F = make_field(2, 16)
    assert F.modulus == (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)
    assert 0 not in constants and len(constants) < 100


def test_default_moduli_irreducible_small():
    # exhaustive trial-division check of every constructed default modulus
    for p in (2, 3, 5, 7):
        base = make_field(p)
        for e in (2, 3, 4):
            f = Poly(base, make_field(p, e).modulus)
            assert f.degree == e and f.leading == 1
            for d in range(1, e // 2 + 1):
                for tail in itertools.product(range(p), repeat=d):
                    g = Poly(base, (*tail, 1))
                    assert not (f % g).is_zero, f"{f} divisible by {g}"


def test_prime_field_arithmetic():
    F5 = make_field(5)
    # derived oracle: exhaustive scan for the inverse of 3
    inverses = [x for x in range(5) if 3 * x % 5 == 1]
    assert inverses == [2]
    assert F5.inv(3) == 2
    assert F5.add(3, 4) == 2
    assert F5.sub(1, 3) == 3
    assert F5.neg(2) == 3
    assert F5.pow(2, 4) == 1
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(OutOfRange):
        F5.pow(2, -1)


def test_extension_arithmetic_f4():
    F4 = make_field(2, 2)
    g = F4.from_coeffs((0, 1))  # the root of the modulus
    # derived oracle: reduce x*x modulo x^2+x+1 by hand
    assert reduce_mod_modulus(2, F4.modulus, [0, 0, 1]) == [1, 1]
    assert F4.mul(g, g) == F4.from_coeffs((1, 1))
    assert F4.mul(g, F4.inv(g)) == 1
    for a in F4.elements():
        assert F4.add(a, F4.neg(a)) == 0


def test_extension_matches_coordinate_oracle():
    rng = random.Random(7)
    # F_2^13 and F_3^8 are past the log-table limit: coordinate arithmetic;
    # F_3^6 and F_5^4 are past the add-table limit only; F_3^3 to F_3^5
    # build their addition tables a digit at a time
    for p, e in ((2, 3), (3, 2), (5, 2), (7, 3), (2, 13), (3, 6), (3, 8), (5, 4),
                 (3, 3), (3, 4), (3, 5)):
        F = make_field(p, e)
        for _ in range(200):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            da, db = F.coeffs(a), F.coeffs(b)
            expect_add = [(x + y) % p for x, y in zip(da, db)]
            assert list(F.coeffs(F.add(a, b))) == expect_add
            expect_sub = [(x - y) % p for x, y in zip(da, db)]
            assert list(F.coeffs(F.sub(a, b))) == expect_sub
            assert list(F.coeffs(F.neg(a))) == [-x % p for x in da]
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            expect_mul = reduce_mod_modulus(p, F.modulus, prod)
            assert list(F.coeffs(F.mul(a, b))) == expect_mul


@pytest.mark.parametrize("p,e", [(2, 8), (2, 12), (3, 7), (5, 5)])
def test_exp_tables_match_reference_walk(p, e):
    """The exp/log tables of F_256, F_4096, F_2187 and F_3125 against a walk
    on coordinate lists: the generator is the least element whose powers
    reach every unit, and _exp2 is its q - 1 powers twice over."""
    F = make_field(p, e)
    q = F.q

    def times(a, b):
        da, db = F.coeffs(a), F.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        return F.from_coeffs(reduce_mod_modulus(p, F.modulus, prod))

    for g in range(2, q):
        walk = [1]
        while len(walk) < q and (walk == [1] or walk[-1] != 1):
            walk.append(times(walk[-1], g))
        if len(walk) == q and walk[-1] == 1:
            break
    assert F._exp2 == walk[:-1] * 2
    assert all(F._log[v] == i for i, v in enumerate(walk[:-1]))


def test_large_odd_field_keeps_no_element_tables():
    # past the add-table limit no per-element table is kept: F_3^10 has
    # 59,049 elements, and a table of their negatives alone held 2.27 MB
    import tracemalloc

    make_field(3, 10)  # warm the factoring and irreducibility caches
    tracemalloc.start()
    try:
        F = make_field(3, 10)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.q == 59049
    assert kept < 500_000


def test_large_extension_field_untabled():
    # 7^4 = 2401 is past the add-table limit but still has log tables
    F = make_field(7, 4)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.randrange(1, F.q), rng.randrange(1, F.q)
        assert F.mul(F.inv(a), a) == 1
        assert F.mul(a, b) == F.mul(b, a)
        assert F.sub(F.add(a, b), b) == a
    assert F.pow(3, F.q - 1) == 1


@pytest.mark.parametrize("p,e", [(7, 1), (2, 8), (2, 13)])
def test_inv_pow_order_each_arithmetic_path(p, e):
    # one field per path: prime residues, log tables, coordinate arithmetic
    F = make_field(p, e)
    rng = random.Random(17)
    units = list(F.units()) if F.q <= 256 else [1, rng.randrange(2, F.q)]
    for a in units:
        # oracle: the walk 1, a, a^2, ... back to 1
        powers = [1]
        while True:
            powers.append(F.mul(powers[-1], a))
            if powers[-1] == 1:
                break
        assert F.multiplicative_order(a) == len(powers) - 1
        for i in rng.sample(range(len(powers)), min(len(powers), 20)):
            assert F.pow(a, i) == powers[i]
            assert F.pow(a, i + F.q - 1) == powers[i]
        assert F.pow(a, F.q - 1) == 1
        assert F.mul(a, F.inv(a)) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 1) == 0 and F.pow(0, F.q - 1) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(OutOfRange):
        F.pow(2, -1)


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for p, e in ((2, 1), (5, 1), (2, 2), (3, 2), (2, 4), (13, 1)):
        F = make_field(p, e)
        for _ in range(150):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
def test_multiplicative_order_properties(p, e):
    F = make_field(p, e)
    for a in F.units():
        n = F.multiplicative_order(a)
        assert (F.q - 1) % n == 0  # Lagrange
        assert F.pow(a, n) == 1
        for d in range(1, n):
            if n % d == 0:
                assert F.pow(a, d) != 1
    with pytest.raises(ZeroElement):
        F.multiplicative_order(0)


def test_multiplicative_order_examples():
    assert make_field(5).multiplicative_order(3) == 4
    F4 = make_field(2, 2)
    assert F4.multiplicative_order(1) == 1
    # the group of order 3 makes both nonidentity elements generators
    for a in (2, 3):
        assert F4.multiplicative_order(a) == 3


def test_element_coordinates_roundtrip():
    F = make_field(3, 3)
    for a in F.elements():
        assert F.from_coeffs(F.coeffs(a)) == a
    assert F.from_coeffs((2,)) == 2  # short vectors pad with zeros
    assert F.from_int(-1) == 2
    with pytest.raises(DegreeMismatch):
        F.from_coeffs((1, 1, 1, 1))
    with pytest.raises(OutOfRange):
        F.element(F.q)


def test_element_text_format():
    F5 = make_field(5)
    assert F5.format_element(3) == "3"
    assert F5.parse_element("8") == 3
    F9 = make_field(3, 2)
    assert F9.format_element(5) == "[2,1]"
    assert F9.parse_element("[2,1]") == 5
    assert F9.parse_element("[2]") == 2
    assert F9.parse_element("4") == 1  # bare ints embed via the prime subfield
    with pytest.raises(ParseError):
        F9.parse_element("[1,2")
    with pytest.raises(ParseError):
        F5.parse_element("[1,2]")
    with pytest.raises(ParseError):
        F5.parse_element("x")
    with pytest.raises(ParseError, match="bad coordinate list"):
        F9.parse_element("[1,x]")


def test_field_spec_roundtrip():
    for text in ("2", "7", "2^2", "3^2", "2^3/x^3+x+1"):
        F = parse_field_spec(text)
        again = parse_field_spec(F.spec())
        assert again == F
    assert parse_field_spec("2^3/x^3+x+1").modulus == (1, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_field_spec("9")  # prime powers must be written p^e
    with pytest.raises(CompositeCharacteristic):
        parse_field_spec("6")
    with pytest.raises(ParseError):
        parse_field_spec("a^2")
    with pytest.raises(ParseError, match="^empty polynomial$"):
        parse_field_spec("2^3/")  # a '/' with no modulus after it


def test_field_identity_and_pickle():
    F9a = make_field(3, 2)
    F9b = make_field(3, 2)
    assert F9a == F9b and hash(F9a) == hash(F9b)
    assert F9a != "3^2" and F9a.__eq__(9) is NotImplemented
    assert F9a.modulus == (1, 0, 1)  # x^2+1 comes first in counting order
    assert F9a != make_field(3, 2, (2, 1, 1))  # x^2+x+2 is a different model
    clone = pickle.loads(pickle.dumps(F9a))
    assert clone == F9a
    assert clone.mul(5, 7) == F9a.mul(5, 7)
    assert isinstance(clone, FieldCtx)
