import random

import pytest

from period_lab import orders, poly
from period_lab.errors import (
    ConstantPolynomial,
    MixedContexts,
    OutOfRange,
    ParseError,
    ZeroPolynomial,
)
from period_lab.ff import FieldCtx, _square_multiply, make_field, parse_field_spec
from period_lab.orders import _irreducible_order, _order_by_key, poly_order
from period_lab.poly import (
    Factorization,
    Poly,
    factor,
    format_poly,
    gcd,
    is_irreducible,
    monic_polys,
    parse_poly,
    _kdivmod,
    _kernel,
    _kgcd,
    _prime_kernel,
    _rdivmod,
    _rgcd,
    _rmul,
    _slot_width,
    _Slots,
    _trim,
    powmod,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def all_monic(field, degree):
    return list(monic_polys(field, degree))


def irreducible_by_trial_division(f):
    """Oracle: divide by every monic polynomial of degree 1..deg(f)//2."""
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero:
                return False
    return True


def test_construction_and_normalization():
    f = Poly(F5, (6, -1, 1, 0, 0))
    assert f.coeffs == (1, 4, 1)
    assert f.degree == 2
    z = Poly(F2, ())
    assert z.is_zero and z.degree == -1 and not z
    assert Poly.one(F2).coeffs == (1,)
    assert Poly.x(F3) == Poly(F3, (0, 1))


def test_arithmetic_reference_products():
    g = parse_poly(F2, "x^2+x+1")
    h = parse_poly(F2, "x^3+x+1")
    assert g * h == parse_poly(F2, "x^5+x^4+1")
    lin = parse_poly(F5, "x-3")
    assert lin * lin == parse_poly(F5, "x^2-x-1")
    assert lin * lin == parse_poly(F5, "x^2+4*x+4")
    assert g * h - h == parse_poly(F2, "x^5+x^4+x^3+x")
    assert -lin == parse_poly(F5, "3-x") and lin - lin == Poly.zero(F5)
    assert (g * h + Poly.one(F2)) // g == h
    assert lin.scale(0) == Poly.zero(F5) and lin.scale(2) == parse_poly(F5, "2*x-1")
    assert lin.shift(2) == parse_poly(F5, "x^3-3*x^2")
    assert Poly.zero(F5).shift(2) == Poly.zero(F5)


def test_divmod_identity_random():
    rng = random.Random(5)
    for F in (F2, F3, F4, F5):
        for _ in range(100):
            f = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 9))])
            g = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(F2), Poly.zero(F2))
    for F in (F2, F5):  # the packed kernels refuse the zero divisor too
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            _kdivmod(F, (1, 1), ())
    with pytest.raises(MixedContexts):
        Poly.one(F2) + Poly.one(F3)
    with pytest.raises(TypeError, match="^expected Poly, got int$"):
        Poly.one(F2) + 1
    assert Poly.x(F2) != "x" and not Poly.x(F2) == "x"


def xgcd(f, g):
    """(d, u, v) with d = gcd(f, g) monic and u*f + v*g = d, by the
    extended Euclidean algorithm on Poly arithmetic."""
    F = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if not r0.is_zero and r0.leading != 1:
        c = F.inv(r0.leading)
        r0, u0, v0 = r0.scale(c), u0.scale(c), v0.scale(c)
    return r0, u0, v0


def test_gcd_properties():
    assert gcd(parse_poly(F5, "3*x^2+3"), Poly.zero(F5)) == parse_poly(F5, "x^2+1")
    rng = random.Random(9)
    for _ in range(60):
        f = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 7))])
        g = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 7))])
        if f.is_zero and g.is_zero:
            continue
        d = gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
        dd, u, v = xgcd(f, g)
        assert dd == d
        assert u * f + v * g == d


def test_eval_and_derivative():
    f = parse_poly(F5, "x^3+2*x+1")
    # Horner against the definition
    for a in range(5):
        assert f(a) == (a ** 3 + 2 * a + 1) % 5
    assert f.derivative() == parse_poly(F5, "3*x^2+2")
    # characteristic kills the x^p term
    assert parse_poly(F5, "x^5+x").derivative() == Poly.one(F5)
    assert Poly(F5, (3,)).derivative() == Poly.zero(F5)


def test_powmod():
    x = Poly.x(F2)
    mod = parse_poly(F2, "x^2+x+1")
    # derived: (x+1)(x^2+x+1) = x^3+1, so x^3 = 1 modulo the quadratic
    assert parse_poly(F2, "x+1") * mod == parse_poly(F2, "x^3+1")
    assert powmod(x, 3, mod) == Poly.one(F2)
    F7 = make_field(7)
    assert powmod(Poly.x(F7), 1, parse_poly(F7, "x-1")) == Poly.one(F7)
    assert powmod(parse_poly(F2, "x^4+x"), 0, mod) == Poly.one(F2)
    with pytest.raises(ZeroDivisionError):
        powmod(x, 2, Poly.zero(F2))
    with pytest.raises(OutOfRange, match="negative exponent"):
        powmod(x, -1, mod)


def reference_powmod(F, base, n, mod):
    """Oracle: right-to-left square-and-multiply on the field's operations."""
    if len(mod) == 1:
        return ()
    out, base = (1,), _rdivmod(F, base, mod)[1]
    while n:
        if n & 1:
            out = _rdivmod(F, _rmul(F, out, base), mod)[1]
        n >>= 1
        base = _rdivmod(F, _rmul(F, base, base), mod)[1]
    return out


@pytest.mark.parametrize("field", [make_field(p) for p in (2, 3, 5, 7, 13, 1048573)]
                         + [F4, make_field(3, 2)], ids=repr)
def test_rpowmod_matches_reference_grid(field):
    rng = random.Random(field.q)
    q = field.q

    def rand(length, lead=False):
        cs = [rng.randrange(q) for _ in range(length)]
        return _trim(cs + [rng.randrange(1, q)] if lead else cs)

    for d in (0, 1, 2, 3, 5, 11, 33, 70):
        mod = rand(d, lead=True)  # a random, mostly non-monic leading coefficient
        # zero base, x, a short base, and bases longer than the modulus
        for base in ((), (0, 1), rand(max(d - 1, 1)), rand(d + 1, lead=True),
                     rand(d + 9, lead=True)):
            for n in (0, 1, 2, q - 1, rng.getrandbits(64)):
                if d * d * n.bit_length() > 2 ** 14:
                    continue  # the oracle's cost grows as d^2 log n
                got = powmod(Poly(field, base), n, Poly(field, mod)).coeffs
                assert got == reference_powmod(field, base, n, mod), (d, base, n)
                assert got == _trim(got) and all(0 <= c < q for c in got)


@pytest.mark.parametrize("field,degrees", [
    (make_field(p, e), range(13)) for p, e in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2),
                                                (3, 3), (2, 8), (2, 12))
] + [(make_field(3, 6), (0, 1, 2, 3, 7, 12))], ids=repr)
def test_extension_powmod_matches_reference(field, degrees):
    """The log-table kernel against the oracle on non-monic moduli of
    degree 0-12 and bases longer than the modulus.  F_729 keeps the tuple
    path; its digit-wise additions are slow, so it runs fewer degrees."""
    rng = random.Random(field.q)
    q = field.q

    def rand(length):
        return _trim([rng.randrange(q) for _ in range(length)] + [rng.randrange(1, q)])

    for d in degrees:
        mod = rand(d)
        for base in ((), (0, 1), rand(max(d - 1, 0)), rand(d + 1), rand(2 * d + 3)):
            for n in (0, 1, 2, rng.getrandbits(20), 2 ** 64 + 1):
                got = powmod(Poly(field, base), n, Poly(field, mod)).coeffs
                assert got == reference_powmod(field, base, n, mod), (d, base, n)
                assert got == _trim(got) and all(0 <= c < q for c in got)


def test_prime_field_powmod_makes_no_field_callbacks(monkeypatch):
    """F_2, the other prime fields and the table fields F_16 and F_9 run
    a powmod kernel without the field's element operations.  The order of x over
    F_2 and F_7 runs uncached on a kernel built from p alone, and builds no
    field; over F_16 and F_9 the order runs uncached, on the minimal
    polynomial over F_p that _irreducible_order takes."""
    def refuse(*args):
        raise AssertionError("table powmod called a field operation")

    # x^31+x^3+1 is primitive; the sextic over F_7, the cubic over F_16 and
    # the quartic over F_9 have orders 4902, 819 and 1640 by the walk
    for (p, e), mod, order in (((2, 1), (1, 0, 0, 1) + (0,) * 27 + (1,), 2 ** 31 - 1),
                               ((7, 1), (1, 4, 6, 6, 6, 0, 1), 4902),
                               ((2, 4), (10, 8, 11, 1), 819),
                               ((3, 2), (2, 5, 7, 3, 1), 1640)):
        plain, F = make_field(p, e), make_field(p, e)
        F.mul = F.add = F.sub = F.neg = F.inv = refuse
        if e == 1:
            with monkeypatch.context() as m:
                m.setattr(FieldCtx, "__init__", refuse)
                assert _order_by_key.__wrapped__(p, mod) == order
        else:
            _order_by_key.cache_clear()
            assert _irreducible_order(F, mod) == order
        lead = F.q - 1  # a non-monic modulus: mod times the element q - 1
        scaled = tuple(plain.mul(c, lead) for c in mod)
        base, n = (1, 1, F.q - 1) * 12, 2 ** 64 + 1
        assert _kernel(F, scaled).powmod(base, n) == reference_powmod(plain, base, n, scaled)

    # factor, is_irreducible and poly_order over F_2 and F_7 as well: their
    # squarefree split, p-th roots, DDF and EDF divide and take gcds on
    # packed or lazily reduced ints
    for p in (2, 7):
        plain, F = make_field(p), make_field(p)
        F.mul = F.add = F.sub = F.neg = F.inv = refuse
        rng = random.Random(p)

        def rand(d):
            return Poly(plain, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])

        for _ in range(12):
            # repeated factors, a p-th power and a non-monic leading coefficient
            f = rand(rng.randrange(1, 5)) ** 2 * rand(rng.randrange(1, 4)) ** p * rand(8)
            fr = Poly(F, f.coeffs)
            fac = factor(fr)
            assert fac == factor(f) and fac.expand(plain) == f
            assert poly_order(fr) == poly_order(f)
            for g, _ in fac:
                assert is_irreducible(Poly(F, g.coeffs))
            assert not is_irreducible(fr)


def test_long_bases_reduce_by_horner(monkeypatch):
    """The odd-p kernel packs a base far longer than its modulus chunk by
    chunk through its own product, and agrees with the tuple division; its
    only division on slots is of x^(2d-2), for the Barrett constant.  Over
    F_3 the degree-40,000 base of a cubic modulus takes some 13,000 chunks."""
    divmod_slots = _Slots.divmod

    def spy(S, a, b):
        assert a & (a - 1) == 0, "a long base was reduced by division"
        return divmod_slots(S, a, b)

    rng = random.Random(40)
    for p in (3, 7, 65521):
        F = make_field(p)
        for d in (1, 2, 3, 8, 37):
            mod = Poly(F, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
            for length in (d + 1, 3 * d + 2, 1000, 40001 if p == 3 else 4001):
                base = Poly(F, [rng.randrange(p) for _ in range(length - 1)] + [1])
                want = [base % mod]
                for n in (2, 5):
                    want.append(want[0] ** n % mod)
                with monkeypatch.context() as m:
                    m.setattr(_Slots, "divmod", spy)
                    got = [powmod(base, n, mod) for n in (1, 2, 5)]
                assert got == want, (p, d, length)


# (p, degrees) for the kernel checks: F_2's bit vectors, and the slot
# kernel over odd p from degree 1 (where Barrett's mu is 0) through 70, with
# slot widths from 5 bits (F_3, degree 1) to 96 (F_1048573, degree 70).
ODD_DEGREES = (1, 2, 3, 5, 6, 7, 20, 37, 70)
KERNEL_GRID = [(2, (1, 5, 6, 40, 63))] + [
    (p, ODD_DEGREES) for p in (3, 5, 7, 13, 251, 65521, 1048573)]


def check_kernels(p, degrees):
    """The cached kernels over F_p against the tuple oracle, on a random
    non-monic modulus of each degree: powers of zero, x, short, full and
    long bases; products of the all-(p-1) element, which has the largest
    slot sums, and of random elements; divmod and gcd of random pairs and
    of pairs with a common factor.  Over odd p also the slot-parallel
    reduction of the largest slot sum, of p and of its neighbours."""
    F, rng = make_field(p), random.Random(p)

    def rand(length, lead=True):
        cs = [rng.randrange(p) for _ in range(length)]
        return _trim(cs + [rng.randrange(1, p)] if lead else cs)

    for d in degrees:
        mod = rand(d)
        k = _kernel(F, mod)
        top = (p - 1,) * d
        for base in ((), (0, 1), rand(d - 1), top, rand(d + 1), rand(2 * d + 5)):
            for n in (0, 1, 2, p - 1, rng.getrandbits(20)):
                if d * d * n.bit_length() > 2 ** 15:
                    continue  # the oracle's cost grows as d^2 log n
                assert k.powmod(base, n) == reference_powmod(F, base, n, mod), (p, d, base, n)
        for a, b in ((top, top), (rand(d - 1, lead=False), top), (rand(d - 1), rand(d - 1))):
            want = _rdivmod(F, _rmul(F, a, b), mod)[1]
            assert k.unpack(k.mulmod(k.pack(a), k.pack(b))) == want, (p, d, a, b)
        common = rand(d // 2 + 1)
        for a, b in ((rand(2 * d), mod), (mod, rand(d)), ((), mod), (rand(d - 1), mod),
                     (_rmul(F, rand(d), common), _rmul(F, rand(d - 1), common))):
            assert _kdivmod(F, a, b) == _rdivmod(F, a, b), (p, d, a, b)
            assert _kgcd(F, a, b) == _rgcd(F, a, b), (p, d, a, b)
        if p > 2:
            S, most = _Slots(p, d), (2 * d - 1) * (p - 1) ** 2
            sums = [most, p, most - 1, 2 * p, p - 1, 0, 1, p + 1] * d
            got = S.unpack(S.reduce(S.pack(sums[:d])))
            assert got == _trim([v % p for v in sums[:d]]), (p, d)


@pytest.mark.parametrize("p,degrees", KERNEL_GRID, ids=[f"F{p}" for p, _ in KERNEL_GRID])
def test_kernels_match_tuple_oracle(p, degrees):
    check_kernels(p, degrees)


def test_slot_width_covers_the_largest_slot_sum():
    """w holds the largest slot sum times magic, and v*magic >> s is v // p
    up to that sum.  Over F_1048573 slots are wider than 64 bits, and the
    slot kernel matches the oracle there up to degree 200."""
    for p in (3, 5, 7, 13, 251, 65521, 1048573):
        for d in (*ODD_DEGREES, 1000):
            w, s, magic = _slot_width(p, d)
            most = (2 * d - 1) * (p - 1) ** 2
            assert most * magic < 1 << w and magic * p >= 1 << s > most * p, (p, d)
            near = {k * p + r for k in (0, 1, 2, most // p) for r in (-1, 0, 1)}
            for v in near.union(range(99), range(most - 99, most + 1)):
                if 0 <= v <= most:
                    assert v * magic >> s == v // p, (p, d, v)
    assert _slot_width(1048573, 70)[0] > 64
    check_kernels(1048573, (200,))


def test_powers_start_from_the_base():
    """_square_multiply makes no product for n = 0 and 1 and one square for
    n = 2, and every kernel gives base^0 = 1, base^1 = base, base^2."""
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        assert _square_multiply(mul, 1, 3, n) == 3 ** n and len(calls) == products
    # F_2 bit vectors, odd-p slots, log tables (char 2 and 3), tuples (F_729)
    for F in (F2, F3, F4, make_field(3, 2), make_field(3, 6)):
        rng = random.Random(F.q)
        mod = _trim([rng.randrange(F.q) for _ in range(5)] + [1])
        k, base = _kernel(F, mod), _trim([rng.randrange(F.q) for _ in range(5)])
        for n in (0, 1, 2):
            assert k.powmod(base, n) == reference_powmod(F, base, n, mod), (F, n)
    F8192 = make_field(2, 13)  # coordinate arithmetic: FieldCtx.pow on raw_mul
    assert [F8192.pow(5, n) for n in (0, 1, 2)] == [1, 5, F8192.mul(5, 5)]


@pytest.mark.parametrize("mutant", ["mu one degree short", "slots one bit too narrow",
                                    "magic minus one"])
def test_kernel_check_catches_mutants(monkeypatch, mutant):
    """check_kernels fails on a slot kernel whose Barrett constant is
    floor(x^(2d-3)/g), whose slots are one bit narrower than the largest
    slot sum needs, or whose magic constant is ceil(2^s/p) - 1."""
    width = poly._slot_width
    if mutant == "mu one degree short":
        monkeypatch.setattr(poly, "_barrett_mu", lambda S, g, d: (
            S.pack(S.divmod(1 << S.w * max(2 * d - 3, 0), g)[0][::-1])))
    elif mutant == "slots one bit too narrow":
        monkeypatch.setattr(poly, "_slot_width", lambda p, n: (
            (lambda w, s, magic: (w - 1, s, magic))(*width(p, n))))
    else:
        monkeypatch.setattr(poly, "_slot_width", lambda p, n: (
            (lambda w, s, magic: (w, s, magic - 1))(*width(p, n))))
    poly._slots_for.cache_clear()
    try:
        with pytest.raises(AssertionError):
            for p, degrees in KERNEL_GRID[1:]:
                check_kernels(p, degrees)
    finally:
        poly._slots_for.cache_clear()


def test_each_routine_builds_its_kernel_once(monkeypatch):
    """No cache holds kernels: is_irreducible of a degree-20 irreducible g
    over F_3 builds one kernel, and poly_order(g) builds two, both from p
    by _prime_kernel and both on g: DDF's and the order of x's."""
    assert not hasattr(_kernel, "cache_info")
    rng = random.Random(20)
    while True:
        g = Poly(F3, [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(19)] + [1])
        if is_irreducible(g):
            break
    built = []

    def spy(p, mod):
        built.append(mod)
        return _prime_kernel(p, mod)

    monkeypatch.setattr(poly, "_prime_kernel", spy)
    monkeypatch.setattr(orders, "_prime_kernel", spy)
    assert is_irreducible(g) and built == [g.coeffs]
    built.clear()
    _order_by_key.cache_clear()
    poly_order(g)
    assert built == [g.coeffs, g.coeffs]


def test_pow_matches_repeated_multiplication():
    F9 = make_field(3, 2)
    for F, text in ((F2, "x^3+x+1"), (F3, "x+2"), (F9, "[1,1]*x^2+[0,1]")):
        f = parse_poly(F, text)
        for n in (0, 1, 2, 3, 5, 13):
            expected = Poly.one(F)
            for _ in range(n):
                expected = expected * f
            assert f ** n == expected, (F, text, n)
        zero = Poly.zero(F)
        assert zero ** 0 == Poly.one(F) and zero ** 3 == zero
    with pytest.raises(OutOfRange):
        parse_poly(F3, "x+2") ** -1


def test_is_irreducible_references():
    assert is_irreducible(parse_poly(F2, "x^2+x+1"))
    assert not is_irreducible(parse_poly(F2, "x^2+1"))  # (x+1)^2
    # derived: no roots, not divisible by the unique irreducible quadratic
    quartic = parse_poly(F2, "x^4+x^3+x^2+x+1")
    assert irreducible_by_trial_division(quartic)
    assert is_irreducible(quartic)
    with pytest.raises(ConstantPolynomial):
        is_irreducible(Poly.one(F2))


def test_is_irreducible_matches_trial_division():
    for F, max_deg in ((F2, 6), (F3, 6), (F4, 4), (F5, 4)):
        for d in range(1, max_deg + 1):
            for f in monic_polys(F, d):
                assert is_irreducible(f) == irreducible_by_trial_division(f), str(f)


def test_is_irreducible_matches_trial_division_sampled():
    rng = random.Random(13)
    for F in (F4, F5):
        for d in (5, 6):
            for _ in range(60):
                f = Poly(F, [rng.randrange(F.q) for _ in range(d)] + [1])
                assert is_irreducible(f) == irreducible_by_trial_division(f), str(f)


def test_factor_reference_decompositions():
    fac = factor(parse_poly(F2, "x^5+x^4+1"))
    assert [(str(g), m) for g, m in fac] == [("x^2+x+1", 1), ("x^3+x+1", 1)]
    assert len(fac) == 2 and fac.expand() == parse_poly(F2, "x^5+x^4+1")
    fac = factor(parse_poly(F2, "t^5+1"))  # t alias; 1 = -1 over F_2
    assert [(str(g), m) for g, m in fac] == [("x+1", 1), ("x^4+x^3+x^2+x+1", 1)]
    assert is_irreducible(parse_poly(F2, "x^4+x^3+x^2+x+1"))
    fac = factor(parse_poly(F5, "x^2-x-1"))
    assert [(str(g), m) for g, m in fac] == [("x+2", 2)]


def test_factor_handles_vanishing_derivative():
    # (x^2+x+1)^2 = x^4+x^2+1 has zero derivative over F_2
    f = parse_poly(F2, "x^4+x^2+1")
    assert f.derivative().is_zero
    assert [(str(g), m) for g, m in factor(f)] == [("x^2+x+1", 2)]
    # same phenomenon over an extension field exercises the Frobenius root
    g = parse_poly(F4, "x+[0,1]")
    f4 = g * g
    assert [(p.coeffs, m) for p, m in factor(f4)] == [(g.coeffs, 1 * 2)]


def test_factor_reconstruction_random():
    rng = random.Random(99)
    for F in (F2, F3, F4, F5):
        for _ in range(60):
            deg = rng.randrange(1, 9)
            cs = [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
            f = Poly(F, cs)
            fac = factor(f)
            assert fac.expand(F) == f
            assert fac.unit == f.leading
            for g, m in fac:
                assert g.leading == 1 and m >= 1
                assert is_irreducible(g)
            # canonical order: by degree, then little-endian coefficients
            keys = [(g.degree, g.coeffs) for g, _ in fac]
            assert keys == sorted(keys)


def test_factor_determinism_and_seed():
    f = Poly(F5, (1, 0, 0, 0, 0, 0, 1))  # x^6+1 splits into quadratics
    assert factor(f) == factor(f)


def test_factor_builds_its_random_only_when_a_split_draws(monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    # an irreducible, and distinct-degree parts that are irreducible already
    for text in ("x^5+x^2+1", "x^5+x^4+1"):
        factor(parse_poly(F2, text))
    assert built == []
    # x^6+1 over F_5 has two linear and two quadratic factors to split
    fac = factor(Poly(F5, (1, 0, 0, 0, 0, 0, 1)))
    assert [g.degree for g, _ in fac] == [1, 1, 2, 2]
    assert built == [(poly._EDF_SEED,)]


def test_edf_draws_match_one_seeded_random():
    rng = random.Random(poly._EDF_SEED)
    draws = poly._edf_draws(7)
    assert [next(draws) for _ in range(50)] == [rng.randrange(7) for _ in range(50)]


def test_factor_zero_and_constant():
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(F2))
    fac = factor(Poly(F5, (3,)))
    assert fac == Factorization(3, ())
    with pytest.raises(ValueError):
        fac.expand()  # constants need the field spelled out
    assert fac.expand(F5) == Poly(F5, (3,))


def test_monic_enumeration_order():
    polys = all_monic(F3, 2)
    assert len(polys) == 9
    assert polys[0] == parse_poly(F3, "x^2")
    assert polys[1] == parse_poly(F3, "x^2+1")  # constant term varies fastest
    assert polys[3] == parse_poly(F3, "x^2+x")
    assert len(set(polys)) == 9
    with pytest.raises(OutOfRange):
        next(monic_polys(F3, -1))


def test_parse_format_roundtrip():
    rng = random.Random(21)
    for F in (F2, F5, F4, make_field(3, 2)):
        for _ in range(80):
            f = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 7))])
            assert parse_poly(F, format_poly(f)) == f


def test_parse_grammar():
    assert parse_poly(F5, "x^2 - x - 1") == Poly(F5, (4, 4, 1))
    assert parse_poly(F5, "2*x^3+x") == Poly(F5, (0, 1, 0, 2))
    assert parse_poly(F5, "-x") == Poly(F5, (0, 4))
    assert parse_poly(F5, "7") == Poly(F5, (2,))
    assert parse_poly(F5, "x+x") == Poly(F5, (0, 2))
    assert parse_poly(F2, "t^2+t+1") == parse_poly(F2, "x^2+x+1")
    assert parse_poly(F4, "[1,1]*x^2+[0,1]") == Poly(F4, (2, 0, 3))
    assert parse_poly(F4, "3*x") == Poly(F4, (0, 1))  # bare ints reduce mod p
    assert format_poly(Poly.zero(F2)) == "0"
    assert parse_poly(F2, "0") == Poly.zero(F2)
    for bad in ("", "x+", "+", "--x", "x^", "y+1", "[1,2", "x*2", "2**x"):
        with pytest.raises(ParseError):
            parse_poly(F5 if "[" not in bad else F4, bad)
    # signs and brackets, split by one scanner; messages name the text as given
    assert parse_poly(F5, " + x") == parse_poly(F5, "x") and parse_poly(F5, "-1") == Poly(F5, (4,))
    for bad, message in (
        ("x+-1", "dangling sign in 'x+-1'"),
        ("--x", "dangling sign in '--x'"),
        ("x + - 1", "dangling sign in 'x + - 1'"),
        ("x+", "trailing sign in 'x+'"),
        ("x -", "trailing sign in 'x -'"),
        ("[1,0", "unbalanced brackets in '[1,0'"),
        ("[1, 0", "unbalanced brackets in '[1, 0'"),
        ("]x", "unbalanced brackets in ']x'"),
        ("x+[1,[0]]", "bad term '[1,[0]]' in 'x+[1,[0]]'"),
        ("x + 2 y", "bad term '2y' in 'x + 2 y'"),
        ("  ", "empty polynomial"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_poly(F4, bad)
        assert str(exc.value) == message


def test_parse_refuses_huge_exponents():
    """An exponent past the degree limit is refused before the coefficient
    list is allocated, in a polynomial and in a field's modulus."""
    limit = poly._MAX_EXPONENT
    assert parse_poly(F2, f"x^{limit}").degree == limit
    for exp in (limit + 1, 99999999999):
        with pytest.raises(ParseError, match=f"exponent {exp} exceeds the {limit} degree limit"):
            parse_poly(F2, f"x^{exp}+1")
        with pytest.raises(ParseError, match=f"exponent {exp} exceeds"):
            parse_field_spec(f"2^3/x^{exp}")


def test_parse_reads_integers_past_the_interpreter_digit_limit():
    """int() refuses strings of more than 4,300 digits.  A longer exponent
    is refused by the degree limit, with its digit count and not its
    digits; a longer coefficient is read mod p; leading zeros count as
    nothing."""
    limit = poly._MAX_EXPONENT
    for digits in ("9" * 5000, "1" + "0" * 4400, "9" * 21):
        for text in (f"x^{digits}", f"x^{digits}+x+1", f"[1,1]*x^{digits}"):
            with pytest.raises(ParseError) as exc:
                parse_poly(F4 if "[" in text else F5, text)
            assert str(exc.value) == (
                f"exponent of {len(digits)} digits exceeds the {limit} degree limit")
    with pytest.raises(ParseError, match=f"^exponent {'9' * 20} exceeds"):
        parse_poly(F5, f"x^{'9' * 20}")
    assert parse_poly(F5, f"x^{'0' * 5000}{limit}").degree == limit
    assert parse_poly(F5, "x^00+x^001") == parse_poly(F5, "x+1")
    for p in (2, 3, 7, 65521):
        F = make_field(p)
        for n in (4301, 5000, 12345):
            nines = pow(10, n, p) - 1  # 10^n - 1, the n-digit 99...9, mod p
            want = Poly(F, (3, nines, 0, 1))
            assert parse_poly(F, f"x^3+{'9' * n}*x+3") == want, (p, n)
            assert parse_poly(F, f"x^3+{'0' * n}9{'9' * n}*x+{'0' * n}3") == Poly(
                F, (3, 10 * nines + 9, 0, 1)), (p, n)
    assert parse_poly(F4, f"x+{'9' * 5000}") == parse_poly(F4, "x+1")


def test_format_uses_canonical_coefficients():
    f = parse_poly(F5, "x^2-x-1")
    assert format_poly(f) == "x^2+4*x+4"
    g = Poly(F4, (3, 0, 1))
    assert format_poly(g) == "x^2+[1,1]"


def test_factor_and_irreducibility_match_sympy():
    """Third oracle: sympy's dense factoring over F_p, on big-endian lists."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_irreducible_p

    rng = random.Random(7)
    for F in (F2, F3, F5):
        for _ in range(25):
            cs = [rng.randrange(F.q) for _ in range(rng.randrange(1, 31))]
            f = Poly(F, cs + [rng.randrange(1, F.q)])
            big_endian = list(reversed(f.coeffs))
            unit, parts = gf_factor(big_endian, F.p, ZZ)
            fac = factor(f)
            assert fac.unit == int(unit)
            assert sorted((g.coeffs, m) for g, m in fac) == sorted(
                (tuple(int(c) for c in reversed(g)), m) for g, m in parts), str(f)
            assert is_irreducible(f) == gf_irreducible_p(big_endian, F.p, ZZ), str(f)
