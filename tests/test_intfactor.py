import pytest

from period_lab.errors import NotPrimePower, OutOfRange
from period_lab.intfactor import (
    INT64_MAX,
    _ceiling_degree,
    divisor_list,
    euler_phi,
    factor_integer,
    is_prime,
    lcm64,
    order_from_multiple,
    split_prime_power,
)


def naive_factor(n):
    """Oracle: plain trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factor_examples():
    assert factor_integer(15) == ((3, 1), (5, 1))
    assert factor_integer(1) == ()
    # derived by trial division
    assert naive_factor(2 ** 20 - 1) == ((3, 1), (5, 2), (11, 1), (31, 1), (41, 1))
    assert factor_integer(2 ** 20 - 1) == ((3, 1), (5, 2), (11, 1), (31, 1), (41, 1))


def test_factor_matches_oracle_small():
    for n in range(1, 2000):
        assert factor_integer(n) == naive_factor(n)


def test_factor_reconstructs_and_entries_prime():
    for n in (360, 2 ** 31 - 1, 10 ** 12 + 39, 999983 * 999979):
        fac = factor_integer(n)
        prod = 1
        for p, e in fac:
            assert naive_factor(p) == ((p, 1),)  # prime, by trial division
            prod *= p ** e
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factor_pollard_path():
    # no small prime divides these, so Pollard rho does all the splitting
    p, q = 1_000_003, 1_000_033
    assert factor_integer(p * q) == ((p, 1), (q, 1))
    assert factor_integer(p * p) == ((p, 2),)


def strong_probable_prime(n):
    """Oracle: Miller-Rabin with bases known to decide every n < 2^64,
    a base set disjoint from the one is_prime uses (apart from 2)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        x = pow(a, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_factor_past_the_small_primes():
    # inputs whose cofactor after the twelve smallest primes is composite:
    # prime squares and cubes, semiprimes with a factor in (41, 10^6), two
    # primes near 2^31, and every q^d - 1 in range for prime powers q <= 64
    mid = (43, 1009, 65537, 999983)
    values = [p ** e for p in mid for e in (2, 3)]
    values += [p * big for p in mid for big in (47, 999979, 2 ** 31 - 1, 10 ** 9 + 7)]
    values.append((2 ** 31 - 1) * (2 ** 31 - 19))
    for q in range(2, 65):
        if len(naive_factor(q)) == 1:
            d = 1
            while q ** d - 1 <= INT64_MAX:
                values.append(q ** d - 1)
                d += 1
    for n in values:
        fac = factor_integer(n)
        prod = 1
        for p, e in fac:
            assert strong_probable_prime(p), (n, p)
            prod *= p ** e
        assert prod == n
        assert list(fac) == sorted(fac)


def test_ceiling_degree_matches_an_integer_search():
    # every prime power q = p^e <= 2^63 with p < 100: the largest k with q^k <= 2^63
    for p in (n for n in range(2, 100) if naive_factor(n) == ((n, 1),)):
        q = p
        while q <= 1 << 63:
            k = 0
            while q ** (k + 1) <= 1 << 63:
                k += 1
            assert _ceiling_degree(q) == k, q
            q *= p


def test_factor_range_errors():
    for bad in (0, -5, INT64_MAX + 1):
        with pytest.raises(OutOfRange):
            factor_integer(bad)


def test_is_prime():
    primes_below_100 = [n for n in range(100) if naive_factor(n) == ((n, 1),) and n > 1]
    assert [n for n in range(100) if is_prime(n)] == primes_below_100
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 62 - 1)


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert is_prime(n) == (n > 1 and naive_factor(n) == ((n, 1),)), n


def test_divisor_list():
    assert divisor_list(6) == [1, 2, 3, 6]
    assert divisor_list(1) == [1]
    assert divisor_list(15) == [1, 3, 5, 15]
    assert divisor_list(2 ** 4 - 1) == [1, 3, 5, 15]
    for n in (12, 36, 100, 2 ** 10):
        divs = divisor_list(n)
        assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_euler_phi():
    # oracle: count coprime residues
    from math import gcd

    for n in (1, 2, 12, 15, 31, 100):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_order_from_multiple_empty_factorization():
    def never(*args):
        raise AssertionError(f"called with {args}")

    assert order_from_multiple((), "x", never, never) == 1


def exponent_model(order, n, asked):
    """x of the given order, with x^d represented by the exponent d: power
    and is_one record what they are handed, and power checks d | n."""
    def power(d, e):
        asked.append(d)
        assert n % (d * e) == 0, (d, e)
        return d * e

    def is_one(d):
        asked.append(d)
        return d % order == 0

    return power, is_one


def test_order_from_multiple_asks_only_divisors():
    for order in (1, 12, 720, 5, 16, 45):
        asked = []
        power, is_one = exponent_model(order, 720, asked)
        assert order_from_multiple(factor_integer(720), 1, power, is_one) == order
        assert asked and all(720 % d == 0 for d in asked)


def test_order_from_multiple_matches_walk():
    # oracle: the least d with a^d = 1 mod m, by walking powers of a
    from math import gcd

    for m in range(2, 201):
        fac = factor_integer(euler_phi(m))
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            d, x = 1, a
            while x != 1:
                x = x * a % m
                d += 1
            got = order_from_multiple(fac, a, lambda y, e: pow(y, e, m), lambda y: y == 1)
            assert got == d, (a, m)


def test_order_from_multiple_splits_the_primes():
    """x^60+x+1 is irreducible and primitive over F_2, and 2^60 - 1 has 11
    primes: splitting them in halves passes 231 exponent bits to power,
    where dividing out one prime at a time passed 610."""
    from period_lab.ff import make_field
    from period_lab.poly import _kernel

    kernel = _kernel(make_field(2), (1, 1) + (0,) * 58 + (1,))
    bits = []

    def power(y, e):
        bits.append(e.bit_length())
        return kernel.powmod(y, e)

    fac = factor_integer(2 ** 60 - 1)
    assert len(fac) == 11
    assert order_from_multiple(fac, (0, 1), power, lambda y: y == (1,)) == 2 ** 60 - 1
    assert sum(bits) <= 240


def test_lcm64():
    assert lcm64() == 1
    assert lcm64(4, 6) == 12
    assert lcm64(3, 20) == 60
    with pytest.raises(OverflowError):
        lcm64(2 ** 62, 3)
    with pytest.raises(OutOfRange):
        lcm64(0, 3)


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(2) == (2, 1)
    assert split_prime_power(64) == (2, 6)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            split_prime_power(bad)
