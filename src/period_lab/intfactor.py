"""Integer primality, factorization, and divisor helpers.

Everything here is exact and deterministic: the twelve smallest primes
are divided out, and what is left splits by fixed-increment Pollard rho
until deterministic Miller-Rabin calls each part prime, so results (and
failures) reproduce across runs.  All entry points police the 64-bit
range the rest of the library promises.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NotPrimePower, OutOfRange

INT64_MAX = (1 << 63) - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _power_exceeds(q: int, k: int, bound: int) -> bool:
    """q^k > bound, for q >= 2, without building q^k for a large k: q^b >
    bound for b the bit length of bound, so k is capped at b."""
    return q ** min(k, bound.bit_length()) > bound


def _check_ceiling(k: int, q: int) -> None:
    """Raise OutOfRange unless q^k - 1 fits the 64-bit range."""
    if _power_exceeds(q, k, 1 << 63):
        raise OutOfRange(
            f"degree {k} over F_{q} is past the 64-bit limit: "
            f"q^k - 1 must be at most 2^63 - 1"
        )


def _ceiling_degree(q: int) -> int:
    """The largest k with q^k - 1 within the 64-bit range, q^k <= 2^63."""
    k = int(63 / math.log2(q))  # a float estimate, corrected exactly below
    while q ** (k + 1) <= 1 << 63:
        k += 1
    while q ** k > 1 << 63:
        k -= 1
    return k


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= INT64_MAX."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    # Miller-Rabin with these bases is deterministic far beyond 2^63.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, found deterministically."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1  # cycle collapsed without a split; restart with new increment


@lru_cache(maxsize=1 << 12)
def factor_integer(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((prime, exponent), ...), primes ascending.

    factor_integer(1) is the empty product ().  The cache is a bounded LRU
    shared by all callers; entries are immutable tuples.
    """
    if not isinstance(n, int) or not 1 <= n <= INT64_MAX:
        raise OutOfRange(f"factor_integer requires 1 <= n <= {INT64_MAX}, got {n!r}")
    found: dict[int, int] = {}
    rem = n
    for p in _SMALL_PRIMES:
        while rem % p == 0:
            found[p] = found.get(p, 0) + 1
            rem //= p
    if rem > 1:
        stack = [rem]
        while stack:
            m = stack.pop()
            if is_prime(m):
                found[m] = found.get(m, 0) + 1
            else:
                f = _pollard_rho(m)
                stack.append(f)
                stack.append(m // f)
    return tuple(sorted(found.items()))


def _divisors(n: int) -> list[int]:
    """All positive divisors of n, in no particular order."""
    divs = [1]
    for prime, exp in factor_integer(n):
        powers = [prime ** j for j in range(1, exp + 1)]
        divs += [d * pw for d in divs for pw in powers]
    return divs


def order_from_multiple(factored_multiple, x, power, is_one) -> int:
    """Order of x from a multiple n of it, given n factored as
    ((prime, exponent), ...).  power(y, e) returns y^e and is_one(y)
    tests y against the identity; both only ever see x^d with d | n.

    The primes of n split in halves L and R: x^(prod of R's prime
    powers) has the L-part of the order and x^(prod of L's) the R-part,
    and each half recurses.  At a single prime r^a the element is raised
    to the r-th power until it is the identity, at most a - 1 times.
    That costs O(log n * log w) multiplications for w primes, against
    O(log n * w) for dividing the primes out one at a time (Sutherland,
    Order Computations in Generic Groups, 2007).  The empty
    factorization gives 1 and calls neither.
    """
    def order(y, primes):
        if is_one(y):
            return 1
        if len(primes) == 1:
            prime, exp = primes[0]
            k = 1
            while k < exp:
                y = power(y, prime)
                if is_one(y):
                    break
                k += 1
            return prime ** k
        mid = len(primes) // 2
        left, right = primes[:mid], primes[mid:]
        return (order(power(y, math.prod(r ** a for r, a in right)), left)
                * order(power(y, math.prod(r ** a for r, a in left)), right))

    return order(x, factored_multiple) if factored_multiple else 1


def euler_phi(n: int) -> int:
    out = 1
    for prime, exp in factor_integer(n):
        out *= (prime - 1) * prime ** (exp - 1)
    return out


def lcm64(*values: int) -> int:
    """Least common multiple with a hard 64-bit overflow check."""
    out = 1
    for v in values:
        if v < 1:
            raise OutOfRange(f"lcm of non-positive value {v}")
        out = out // math.gcd(out, v) * v
        if out > INT64_MAX:
            raise OverflowError("lcm exceeds the 64-bit range")
    return out


def _mul64(a: int, b: int, what: str) -> int:
    """a * b, or OverflowError naming `what` if it leaves the 64-bit range.
    lcm64 checks inline instead: it runs once per pair of an lcm closure."""
    out = a * b
    if out > INT64_MAX:
        raise OverflowError(f"{what} exceeds the 64-bit range")
    return out


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    fac = factor_integer(q)
    if len(fac) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return fac[0]
