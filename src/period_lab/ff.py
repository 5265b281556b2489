"""Finite fields F_{p^e} with integer-encoded elements.

An element with power-basis coordinates (c_0, ..., c_{e-1}) over F_p is
encoded as the integer sum(c_i * p**i), so the elements of F_{p^e} are
exactly the ints in range(q) and equal elements are equal ints.  For
prime fields the encoding is just the residue.

A FieldCtx is immutable once constructed and every operation is a pure
function of its inputs, so contexts can be shared freely across threads
and processes.  Small extension fields get discrete-log tables at
construction time; larger ones fall back to per-operation coordinate
arithmetic.

Text formats (used by the CLI):
  field spec   "p" | "p^e" | "p^e/<poly>"     e.g. 2^3/x^3+x+1
  element      "7" for prime fields, "[c0,c1,...]" little-endian otherwise
"""

from __future__ import annotations

import itertools

from .errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    OutOfRange,
    ParseError,
    ReducibleModulus,
    ZeroElement,
)
from .intfactor import factor_integer, is_prime, order_from_multiple

MAX_CHARACTERISTIC = 1 << 20
_MAX_EXPONENT = 1 << 20  # the degree limit of a polynomial and of a field extension
_LOG_TABLE_LIMIT = 4096  # exp/log tables for extension fields up to this order
_ADD_TABLE_LIMIT = 256   # full addition table below this (odd characteristic)


# -- carry-less arithmetic: polynomials over F_2 packed into int bit vectors --

def _clmul(a: int, b: int) -> int:
    """Carry-less product of two bit vectors (bit i = coefficient of x^i)."""
    if a == b:  # a square spreads the bits: coefficient i moves to 2i
        return int("0".join(format(a, "b")), 2)
    if a.bit_count() < b.bit_count():
        a, b = b, a
    out = 0
    while b:
        low = b & -b  # one xor of a shifted copy per set bit of b
        out ^= a * low
        b ^= low
    return out


def _clmod(a: int, m: int) -> int:
    """Remainder of the carry-less division of a by m != 0."""
    dm = m.bit_length()
    shift = a.bit_length() - dm
    while shift >= 0:
        a ^= m << shift
        shift = a.bit_length() - dm
    return a


# -- the element encoding: base-p digits, least significant first --

def _to_digits(a: int, p: int, e: int) -> list[int]:
    digits = []
    for _ in range(e):
        a, r = divmod(a, p)
        digits.append(r)
    return digits


def _from_digits(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _square_multiply(mulmod, one, base, n):
    """base^n for n >= 0 by left-to-right square-and-multiply under mulmod,
    starting from base at the leading bit of n; base must be in the reduced
    form that mulmod returns, since n = 1 returns it as it is."""
    if not n:
        return one
    out = base
    for bit in format(n, "b")[1:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, base)
    return out


class FieldCtx:
    """The finite field F_{p^e}.  Construct via make_field()."""

    __slots__ = ("p", "e", "q", "modulus", "add", "sub", "neg", "mul", "inv", "pow",
                 "_exp2", "_log", "_add_t")

    zero = 0
    one = 1

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        # the element tables of a small extension field, for poly's kernels:
        # _exp2[i] = g^i for 0 <= i < 2(q - 1), _log[a] = log_g(a) for a != 0,
        # _add_t[a * q + b] = a + b (odd characteristic, q <= 256 only)
        self._exp2 = self._log = self._add_t = None
        if e == 1:
            self._install_prime_ops()
        else:
            self._install_extension_ops()

    # -- construction helpers -------------------------------------------------

    def _install_prime_ops(self):
        p = self.p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: -a % p
        self.mul = lambda a, b: a * b % p
        self._install_powers(lambda a, n: pow(a, n, p))

    def _install_powers(self, unit_pow):
        """Set inv and pow from unit_pow(a, n) = a^n, for a != 0 and
        0 <= n < q - 1; the checks and the a = 0 rule live only here."""
        m = self.q - 1

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return unit_pow(a, m - 1)

        def powf(a, n):
            if n < 0:
                raise OutOfRange("negative exponent; use inv() explicitly")
            if a == 0:
                return 0 if n else 1
            return unit_pow(a, n % m)

        self.inv = inv
        self.pow = powf

    def _install_extension_ops(self):
        p, e, q = self.p, self.e, self.q
        # x^e == sum(red[i] x^i) modulo the (monic) defining polynomial
        red = tuple(-c % p for c in self.modulus[:e])

        def raw_add(a, b):
            da, db = _to_digits(a, p, e), _to_digits(b, p, e)
            return _from_digits([(x + y) % p for x, y in zip(da, db)], p)

        def raw_neg(a):
            return _from_digits([-x % p for x in _to_digits(a, p, e)], p)

        def raw_mul(a, b):
            da, db = _to_digits(a, p, e), _to_digits(b, p, e)
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        if y:
                            prod[i + j] = (prod[i + j] + x * y) % p
            for i in range(2 * e - 2, e - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j, r in enumerate(red):
                        if r:
                            prod[i - e + j] = (prod[i - e + j] + c * r) % p
            return _from_digits(prod[:e], p)

        # multiplication via discrete logs when the field is small enough
        if q <= _LOG_TABLE_LIMIT:
            # in characteristic 2 an element's encoding is its bit vector
            m = sum(c << i for i, c in enumerate(self.modulus))
            walk_mul = raw_mul if p > 2 else lambda a, b: _clmod(_clmul(a, b), m)
            # the generator is the least primitive element: g^((q-1)/r) != 1
            # for every prime r dividing q - 1
            cofactors = [(q - 1) // r for r, _ in factor_integer(q - 1)]
            g = next(g for g in range(2, q)
                     if all(_square_multiply(walk_mul, 1, g, k) != 1 for k in cofactors))
            exp_t = list(itertools.accumulate([g] * (q - 2), walk_mul, initial=1))
            log_t = [0] * q
            for i, v in enumerate(exp_t):
                log_t[v] = i
            exp2 = exp_t + exp_t  # doubled so products of logs need no reduction
            self._exp2, self._log = exp2, log_t
            self.mul = lambda a, b: exp2[log_t[a] + log_t[b]] if a and b else 0
            self._install_powers(lambda a, n: exp_t[log_t[a] * n % (q - 1)])
        else:
            self.mul = raw_mul
            self._install_powers(lambda a, n: _square_multiply(raw_mul, 1, a, n))

        # addition
        if p == 2:
            self.add = lambda a, b: a ^ b
            self.sub = self.add
            self.neg = lambda a: a
        elif q <= _ADD_TABLE_LIMIT:
            # row a holds a + b for every b, built a digit at a time: with
            # a = a0 + p*a1 and b = b0 + p*b1, a + b = (a0 + b0) % p + p*(a1 + b1)
            low = rows = [[(x + y) % p for y in range(p)] for x in range(p)]
            for _ in range(e - 1):
                rows = [[p * h + s for h in hi for s in lo] for hi in rows for lo in low]
            add_t = self._add_t = [s for row in rows for s in row]
            neg_t = [row.index(0) for row in rows]
            self.add = lambda a, b: add_t[a * q + b]
            self.sub = lambda a, b: add_t[a * q + neg_t[b]]
            self.neg = lambda a: neg_t[a]
        else:
            self.add = raw_add
            self.sub = lambda a, b: raw_add(a, raw_neg(b))
            self.neg = raw_neg

    # -- element plumbing -----------------------------------------------------

    @property
    def size(self) -> int:
        return self.q

    def element(self, v: int) -> int:
        """Canonicalize an int as an element (residue for prime fields)."""
        if self.e == 1:
            return v % self.p
        if 0 <= v < self.q:
            return v
        raise OutOfRange(f"{v} is not an element encoding of {self.spec()}")

    def from_int(self, v: int) -> int:
        """Embed an integer through the prime subfield (v mod p)."""
        return v % self.p

    def from_coeffs(self, coords) -> int:
        """Element with the given power-basis coordinates (little-endian)."""
        coords = list(coords)
        if len(coords) > self.e:
            raise DegreeMismatch(f"{len(coords)} coordinates for {self.spec()}")
        return _from_digits([c % self.p for c in coords], self.p)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Power-basis coordinates of an element, little-endian, length e."""
        return tuple(_to_digits(a, self.p, self.e))

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def is_unit(self, a: int) -> bool:
        return a != 0

    def multiplicative_order(self, a: int) -> int:
        """Smallest n >= 1 with a^n = 1; divides q - 1."""
        if a == 0:
            raise ZeroElement("zero has no multiplicative order")
        return order_from_multiple(factor_integer(self.q - 1), a, self.pow,
                                   lambda y: y == 1)

    # -- text formats ----------------------------------------------------------

    def spec(self) -> str:
        if self.e == 1:
            return str(self.p)
        from .poly import Poly, format_poly

        return f"{self.p}^{self.e}/" + format_poly(
            Poly(make_field(self.p), self.modulus)
        )

    def format_element(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        return "[" + ",".join(str(c) for c in self.coeffs(a)) + "]"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text.startswith("["):
            if self.e == 1:
                raise ParseError(f"{self.spec()} elements are plain integers")
            if not text.endswith("]"):
                raise ParseError(f"unterminated coordinate list {text!r}")
            body = text[1:-1].strip()
            parts = [s.strip() for s in body.split(",")] if body else []
            try:
                return self.from_coeffs(int(s) for s in parts)
            except ValueError as exc:
                raise ParseError(f"bad coordinate list {text!r}") from exc
        try:
            return self.from_int(int(text))
        except ValueError as exc:
            raise ParseError(f"bad element {text!r}") from exc

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldCtx({self.spec()!r})"

    def __reduce__(self):
        return (make_field, (self.p, self.e, self.modulus))


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Candidates are compared on their little-endian coefficient vectors,
    constant term first, which makes the choice reproducible everywhere.
    A zero constant term makes x a factor, so the scan starts at 1.
    """
    from .poly import Poly, is_irreducible

    base = make_field(p)
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = Poly(base, (*tail, 1))
        if is_irreducible(f):
            return (*tail, 1)
    raise AssertionError("irreducibles of every degree exist")  # pragma: no cover


def make_field(p: int, e: int = 1, modulus=None) -> FieldCtx:
    """Construct F_{p^e}, e at most 2^20 (the degree limit of a polynomial).

    If e > 1 and no modulus is supplied, the lexicographically smallest
    monic irreducible of degree e over F_p is chosen; a supplied modulus
    (little-endian coefficient sequence, or a Poly over F_p) must be
    monic of degree e and irreducible.
    """
    if not isinstance(p, int) or p < 2:
        raise CompositeCharacteristic(f"characteristic must be a prime integer, got {p!r}")
    if p > MAX_CHARACTERISTIC:
        raise OutOfRange(f"characteristic {p} exceeds the {MAX_CHARACTERISTIC} ceiling")
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if not isinstance(e, int) or e < 1:
        raise OutOfRange(f"extension degree must be a positive integer, got {e!r}")
    if e > _MAX_EXPONENT:
        raise OutOfRange(f"extension degree {e} exceeds the {_MAX_EXPONENT} degree limit")
    if e == 1:
        if modulus is not None:
            raise DegreeMismatch("prime fields take no modulus")
        return FieldCtx(p, 1, None)
    if modulus is None:
        return FieldCtx(p, e, _default_modulus(p, e))
    from .poly import Poly, _trim, is_irreducible

    coeffs = _trim([int(c) % p for c in getattr(modulus, "coeffs", modulus)])
    if len(coeffs) != e + 1 or coeffs[-1] != 1:
        raise DegreeMismatch(f"modulus must be monic of degree {e}")
    if not is_irreducible(Poly(make_field(p), coeffs)):
        raise ReducibleModulus("supplied modulus is reducible over the prime field")
    return FieldCtx(p, e, coeffs)


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "p", "p^e", or "p^e/<poly>" into a field context."""
    text = text.strip()
    head, slash, poly_text = text.partition("/")
    try:
        if "^" in head:
            p_text, _, e_text = head.partition("^")
            p, e = int(p_text), int(e_text)
        else:
            p, e = int(head), 1
    except ValueError as exc:
        raise ParseError(f"bad field spec {text!r}") from exc
    if e == 1 and p > 1 and not is_prime(p):
        fac = factor_integer(p)
        if len(fac) == 1:
            base, exp = fac[0]
            raise ParseError(f"{p} is not prime; write {base}^{exp} for the extension field")
    if not slash:
        return make_field(p, e)
    from .poly import parse_poly

    base = make_field(p)
    return make_field(p, e, parse_poly(base, poly_text))
