"""Dense univariate polynomials over a FieldCtx, with factorization.

Coefficients are stored little-endian (index i holds the coefficient of
x^i) as encoded field elements with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -1.

Factorization runs squarefree decomposition (with p-th root extraction
when the derivative vanishes), then distinct-degree splitting, then
randomized equal-degree splitting driven by a fixed seed, so results are
deterministic and canonically ordered.

Arithmetic modulo one polynomial runs on a kernel, which each routine
builds for its modulus and keeps for the length of its own work: one for
is_irreducible, one per remaining product in the distinct-degree split,
one per product in the equal-degree split.  There are three kernels, none
of which calls the field's element operations:
carry-less bit vectors over F_2; over odd p, ints with one coefficient per
slot of w bits, where a product is one big-int multiplication reduced by
polynomial Barrett and every slot is taken mod p at once by one magic
multiplication and shift, with w chosen from (p, degree) so that no slot
overflows; and exp/log tables for extension fields with q <= 4096.  Over
prime fields the factoring's divisions and gcds make no such call either:
they run on packed bit vectors over F_2 and on the same slotted ints over
odd p.  The tuple functions _rmul/_rdivmod/_rgcd serve Poly
arithmetic and the remaining fields, and are the tests' oracle.

Text grammar (CLI-facing):
    poly  := term (('+'|'-') term)*
    term  := coeff | coeff '*' var | coeff '*' var '^' exp | var | var '^' exp
with integer coefficients (reduced mod p) over prime fields and bracketed
little-endian coordinate lists over extension fields; whitespace is
ignored and 't' is accepted as an alias for 'x'.  _split_outside_brackets
finds the signs between terms, and the commas of the CLI's lists, that
sit outside [...] coordinate lists; unbalanced brackets anywhere in the
text are a ParseError, reported before a sign or a term is looked at.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from functools import lru_cache

from .errors import (
    ConstantPolynomial,
    MixedContexts,
    OutOfRange,
    ParseError,
    Record,
    ZeroPolynomial,
)
from .ff import _MAX_EXPONENT, FieldCtx, _clmod, _clmul, _square_multiply
from .intfactor import factor_integer

_EDF_SEED = 1  # the equal-degree split's random source; factor sorts its output


# -- raw coefficient-tuple arithmetic (hot paths) -----------------------------

def _trim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


# Over a prime field an element is its residue, so the helpers below
# compute mod p in place of a call of the field's element operations.

def _radd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if F.e == 1:
        p = F.p
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
    else:
        add = F.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
    return _trim(out)


def _rneg(F, a):
    if F.e == 1:
        p = F.p
        return tuple(-c % p for c in a)
    neg = F.neg
    return tuple(neg(c) for c in a)


def _rsub(F, a, b):
    return _radd(F, a, _rneg(F, b))


def _rscale(F, c, a):
    if c == 0:
        return ()
    if F.e == 1:
        p = F.p
        return tuple(c * x % p for x in a)
    mul = F.mul
    return tuple(mul(c, x) for x in a)


def _rmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if F.e == 1:  # integer sums, one reduction per coefficient
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = F.p
        return tuple([c % p for c in out])
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def _rdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    sub, mul = F.sub, F.mul
    inv_lead = F.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c:
            c = mul(c, inv_lead)
            quot[i] = c
            for j, bj in enumerate(b):
                if bj:
                    rem[i + j] = sub(rem[i + j], mul(c, bj))
    return _trim(quot), _trim(rem[: len(b) - 1])


def _rmonic(F, a):
    if not a or a[-1] == 1:
        return tuple(a)
    return _rscale(F, pow(a[-1], F.p - 2, F.p) if F.e == 1 else F.inv(a[-1]), a)


def _rgcd(F, a, b):
    while b:
        a, b = b, _rdivmod(F, a, b)[1]
    return _rmonic(F, a)


_TO_BITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack2(a) -> int:
    """F_2 coefficient tuple -> int with bit i = coefficient of x^i."""
    return int(bytes(a[::-1]).translate(_TO_BITS), 2) if a else 0


def _unpack2(v: int) -> tuple:
    """Inverse of _pack2: a trimmed F_2 coefficient tuple."""
    return tuple(format(v, "b")[::-1].encode().translate(_FROM_BITS)) if v else ()


def _log_mulmod(F, mod):
    """mulmod(a, b) = a*b mod `mod` over an extension field with log tables
    and, in odd characteristic, an addition table.  The modulus is taken
    monic and negated in the log domain once; each call takes the logs of
    b once, and every coefficient product is then one lookup in F._exp2.
    Modulo x^N with N past the degree of a*b it is the plain product."""
    exp2, log_t, add_t, q = F._exp2, F._log, F._add_t, F.q
    d = len(mod) - 1
    # log of -1/lead: -1 = g^((q-1)/2) in odd characteristic, 1 in even
    shift = (q - 1 - log_t[mod[-1]]) + (0 if add_t is None else (q - 1) // 2)
    negm = [(j, (log_t[m] + shift) % (q - 1)) for j, m in enumerate(mod[:-1]) if m]

    # two copies of the loops: an addition by function call costs 25-50%
    if add_t is None:  # characteristic 2: addition is xor
        def mulmod(a, b):
            lb = [(j, log_t[y]) for j, y in enumerate(b) if y]
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    lx = log_t[x]
                    for j, ly in lb:
                        out[i + j] ^= exp2[lx + ly]
            for i in range(len(out) - 1, d - 1, -1):
                c = out[i]
                if c:
                    lc, k = log_t[c], i - d
                    for j, lm in negm:
                        out[k + j] ^= exp2[lc + lm]
            return _trim(out[:d])
        return mulmod

    def mulmod(a, b):
        lb = [(j, log_t[y]) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                lx = log_t[x]
                for j, ly in lb:
                    out[i + j] = add_t[out[i + j] * q + exp2[lx + ly]]
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if c:
                lc, k = log_t[c], i - d
                for j, lm in negm:
                    out[k + j] = add_t[out[k + j] * q + exp2[lc + lm]]
        return _trim(out[:d])
    return mulmod


# -- kernels: arithmetic modulo one polynomial, and prime-field divmod/gcd ------

class _Kernel:
    """Arithmetic modulo one polynomial g of degree >= 1 over one field.
    pack(a) turns a coefficient tuple of any length into the kernel's form
    of a mod g, mulmod(u, v) multiplies two forms mod g, unpack(u) gives
    the trimmed tuple back and one is the form of 1: an int over prime
    fields (a bit vector over F_2, _Slots over odd p), a tuple otherwise."""

    __slots__ = ("pack", "mulmod", "unpack", "one")

    def __init__(self, pack, mulmod, unpack=tuple, one=(1,)):
        self.pack, self.mulmod, self.unpack, self.one = pack, mulmod, unpack, one

    def power(self, u, n):
        return _square_multiply(self.mulmod, self.one, u, n)

    def powmod(self, a, n):
        return self.unpack(self.power(self.pack(a), n))


def _slot_width(p, n):
    """(w, s, magic) for a prime p and slot sums up to top = (2n-1)(p-1)^2,
    the most that a product mod a degree-n modulus adds into one slot; a
    division of polynomials of at most n coefficients adds at most n - 1
    terms c*(p - b_j) <= (p-1)p to a coefficient < p, which for p >= 3
    stays within top as well.  2^s > top*p makes
    v*magic >> s with magic = ceil(2^s/p) equal v // p for 0 <= v <= top
    (Granlund & Montgomery 1994), and w bits hold top*magic, so no slot's
    product with magic spills into the next.  The kernels and divisions
    here use odd p; the state walk of rings._algebra_walk, any p."""
    top = (2 * n - 1) * (p - 1) ** 2
    s = (top * p).bit_length()
    magic = -(-(1 << s) // p)
    return (top * magic).bit_length(), s, magic


class _Slots:
    """Polynomials over F_p of at most n coefficients as ints that
    hold coefficient i in bits [w*i, w*(i+1)).  Products and divisions add
    into the slots unreduced; no sum crosses a slot (see _slot_width), and
    reduce takes every slot mod p at once.  A slot is at least `least`
    bits wide, for a caller that also adds other sums into the slots."""

    __slots__ = ("p", "w", "s", "magic", "mask", "pones")

    def __init__(self, p, n, least=0):
        w, s, magic = _slot_width(p, n)
        w = max(w, least)
        ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # 1 in each of n slots
        self.p, self.w, self.s, self.magic = p, w, s, magic
        self.mask, self.pones = ones * ((1 << w - s) - 1), ones * p

    def pack(self, cs):
        v, w = 0, self.w
        for c in reversed(cs):
            v = v << w | c
        return v

    def unpack(self, v):
        """The trimmed coefficient tuple of a reduced int."""
        out, w, m = [], self.w, (1 << self.w) - 1
        while v:
            out.append(v & m)
            v >>= w
        return tuple(out)

    def reduce(self, v):
        return v - self.p * (v * self.magic >> self.s & self.mask)

    def divmod(self, a, b):
        """(quotient coefficients, leading one first; reduced remainder) of
        reduced ints a and b != 0.  Each quotient coefficient is read from
        one slot, and a then takes that coefficient times -b, unreduced."""
        p, w = self.p, self.w
        db = (b.bit_length() - 1) // w
        inv, low, m = pow(b >> w * db, p - 2, p), (1 << w * db) - 1, (1 << w) - 1
        negb = (self.pones & low) - (b & low)  # p - b_j in each slot j < db
        quot = []
        for i in range((a.bit_length() - 1) // w - db, -1, -1):
            c = (a >> w * (i + db) & m) % p * inv % p
            quot.append(c)
            if c:
                a += c * negb << w * i
        return quot, self.reduce(a & low)


@lru_cache(maxsize=64)
def _slots_for(p, k):
    """The _Slots over F_p of at most 2^k coefficients: one per size class,
    shared by the kernels, divisions, gcds and algebra state walks of that
    size."""
    return _Slots(p, 1 << k)


def _barrett_mu(S, g, d):
    """floor(x^(2d-2) / g) as an int of S, for the int g of S holding a
    monic modulus of degree d."""
    return S.pack(S.divmod(1 << S.w * (2 * d - 2), g)[0][::-1])


def _slot_kernel(p, mod):
    """Arithmetic mod `mod` (degree d >= 1) over F_p, p odd, on _Slots ints.
    A product is one big-int multiplication t = u*v, reduced by polynomial
    Barrett: with mu = floor(x^(2d-2)/g), g the monic modulus, the quotient
    of t by g is Q = floor(floor(t/x^d) * mu / x^(d-2)), and t mod g is the
    low d slots of t + Q*(-g mod p).  Each of the three steps ends in one
    slot-parallel reduction mod p.  pack reduces a longer input by Horner's
    rule over chunks of d coefficients, r <- r * x^d + chunk, with x^d mod
    g = x^d - g: one product and one slot reduction per chunk."""
    d = len(mod) - 1
    c = pow(mod[-1], p - 2, p)  # g = c*mod leaves the same remainders
    S = _slots_for(p, (d - 1).bit_length())  # it also holds x^(2d-2) / g
    negm = S.pack([-c * m % p for m in mod[:-1]])
    mu = _barrett_mu(S, S.pack([c * m % p for m in mod]), d)
    w, s, magic, mask = S.w, S.s, S.magic, S.mask
    hi, mid, low = w * d, w * max(d - 2, 0), (1 << w * d) - 1

    def mulmod(u, v):
        t = u * v
        h = t >> hi
        h -= p * (h * magic >> s & mask)
        q = h * mu >> mid
        q -= p * (q * magic >> s & mask)
        t = t + q * negm & low
        return t - p * (t * magic >> s & mask)

    def pack(a):
        i = max(len(a) - 1, 0) // d * d  # the top chunk: a[i:], at most d long
        r = S.pack(a[i:])
        while i:
            i -= d
            r = S.reduce(mulmod(r, negm) + S.pack(a[i:i + d]))
        return r

    return _Kernel(pack, mulmod, S.unpack, 1)


def _prime_kernel(p, mod):
    """The kernel of the modulus `mod` (a tuple over F_p, degree >= 1),
    built from p alone: bit vectors over F_2, _Slots ints over odd p."""
    if p == 2:
        m = _pack2(mod)
        return _Kernel(lambda a: _clmod(_pack2(a), m),
                       lambda u, v: _clmod(_clmul(u, v), m), _unpack2, 1)
    return _slot_kernel(p, mod)


def _kernel(F, mod):
    """The kernel of the modulus `mod` (a tuple, degree >= 1) over F: over
    an extension field built from this field instance, over F_p by
    _prime_kernel.  Nothing caches it: its caller holds it for the many
    products it makes on one modulus."""
    if F.e == 1:
        return _prime_kernel(F.p, mod)
    if F._tables:
        mulmod = _log_mulmod(F, mod)
        return _Kernel(lambda a: mulmod(a, (1,)), mulmod)
    return _Kernel(lambda a: _rdivmod(F, a, mod)[1],
                   lambda a, b: _rdivmod(F, _rmul(F, a, b), mod)[1])


def _cldivmod(a: int, b: int):
    """Carry-less quotient and remainder of bit vectors, b != 0."""
    db, quot = b.bit_length(), 0
    shift = a.bit_length() - db
    while shift >= 0:
        quot |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - db
    return quot, a


def _kdivmod(F, a, b):
    """_rdivmod with no field callbacks over prime fields: packed bit
    vectors over F_2, _Slots ints over odd p."""
    if F.e > 1:
        return _rdivmod(F, a, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if F.p == 2:
        quot, rem = _cldivmod(_pack2(a), _pack2(b))
        return _unpack2(quot), _unpack2(rem)
    S = _slots_for(F.p, (max(len(a), len(b)) - 1).bit_length())
    quot, rem = S.divmod(S.pack(a), S.pack(b))
    return tuple(quot[::-1]), S.unpack(rem)


def _kgcd(F, a, b):
    """_rgcd with no field callbacks over prime fields."""
    if F.e > 1:
        return _rgcd(F, a, b)
    if F.p == 2:
        a, b = _pack2(a), _pack2(b)
        while b:
            a, b = b, _clmod(a, b)
        return _unpack2(a)
    S = _slots_for(F.p, (max(len(a), len(b)) - 1).bit_length())
    a, b = S.pack(a), S.pack(b)
    while b:
        a, b = b, S.divmod(a, b)[1]
    return _rmonic(F, S.unpack(a))


def _rderiv(F, a):
    if len(a) < 2:
        return ()
    if F.e == 1:
        p = F.p
        return _trim([i * a[i] % p for i in range(1, len(a))])
    mul = F.mul
    out = []
    for i in range(1, len(a)):
        k = i % F.p
        out.append(mul(a[i], F.from_int(k)) if k != 1 else a[i])
    return _trim(out)


# -- the Poly type -------------------------------------------------------------

class Poly:
    """A polynomial over a fixed FieldCtx."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs=()):
        elem = field.element
        self.field = field
        self.coeffs = _trim([elem(c) for c in coeffs])

    @classmethod
    def zero(cls, field) -> "Poly":
        return _mk(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return _mk(field, (1,))

    @classmethod
    def x(cls, field) -> "Poly":
        return _mk(field, (0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def monic(self) -> "Poly":
        return _mk(self.field, _rmonic(self.field, self.coeffs))

    def derivative(self) -> "Poly":
        return _mk(self.field, _rderiv(self.field, self.coeffs))

    def scale(self, c) -> "Poly":
        return _mk(self.field, _rscale(self.field, self.field.element(c), self.coeffs))

    def shift(self, r: int) -> "Poly":
        """Multiply by x^r."""
        if not self.coeffs:
            return self
        return _mk(self.field, (0,) * r + self.coeffs)

    def __call__(self, point) -> int:
        """Evaluate at an element of the coefficient field (Horner)."""
        F = self.field
        point = F.element(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedContexts("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return _mk(self.field, _radd(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return _mk(self.field, _rsub(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return _mk(self.field, _rneg(self.field, self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        return _mk(self.field, _rmul(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        other = self._check(other)
        q, r = _rdivmod(self.field, self.coeffs, other.coeffs)
        return _mk(self.field, q), _mk(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise OutOfRange("negative polynomial power")
        return _square_multiply(operator.mul, _mk(self.field, (1,)), self, n)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field.spec()!r}, {format_poly(self)!r})"


def _mk(field, coeffs) -> Poly:
    # trusted constructor: coeffs already canonical and trimmed
    p = Poly.__new__(Poly)
    p.field = field
    p.coeffs = tuple(coeffs)
    return p


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check(g)
    return _mk(f.field, _rgcd(f.field, f.coeffs, g.coeffs))


def powmod(base: Poly, n: int, mod: Poly) -> Poly:
    """base^n reduced mod `mod`, by square-and-multiply on a kernel of
    (field, mod) built for this call (see _kernel); a unit modulus reduces
    everything to zero."""
    base._check(mod)
    if n < 0:
        raise OutOfRange("negative exponent")
    if mod.is_zero:
        raise ZeroDivisionError("powmod modulus is zero")
    if mod.degree == 0:
        return _mk(base.field, ())
    return _mk(base.field, _kernel(base.field, mod.coeffs).powmod(base.coeffs, n))


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field.

    Checks x^(q^d) == x (mod f) together with gcd(x^(q^(d/l)) - x, f) = 1
    for every prime l dividing d = deg f.
    """
    d = f.degree
    if d <= 0:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    F = f.field
    fm = _rmonic(F, f.coeffs)
    q = F.q
    checkpoints = {d // ell for ell, _ in factor_integer(d)} if d > 1 else set()
    k = _kernel(F, fm)
    h = x = k.pack((0, 1))
    xmod = k.unpack(x)
    for i in range(1, d + 1):
        h = k.power(h, q)
        if i in checkpoints:
            if _kgcd(F, _rsub(F, k.unpack(h), xmod), fm) != (1,):
                return False
        elif i == d:
            if h != x:
                return False
    return True


class Factorization(Record):
    """unit * product(factor^multiplicity), `factors` the (factor,
    multiplicity) pairs; factors monic irreducible, pairwise distinct,
    sorted by (degree, little-endian coefficients)."""

    __slots__ = _fields = ("unit", "factors")

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def expand(self, field: FieldCtx | None = None) -> Poly:
        if field is None:
            if not self.factors:
                raise ValueError("expanding a constant needs an explicit field")
            field = self.factors[0][0].field
        out = (self.unit,) if self.unit else ()
        for g, m in self.factors:
            for _ in range(m):
                out = _rmul(field, out, g.coeffs)
        return _mk(field, out)


def _rpth_root(F, a):
    # a has only x^(i*p) terms; invert Frobenius on each coefficient
    if F.e == 1:
        return tuple(a[::F.p])  # Frobenius is the identity on F_p
    k = F.p ** (F.e - 1)
    powf = F.pow
    return tuple(powf(a[i], k) for i in range(0, len(a), F.p))


def _squarefree_parts(F, f):
    """[(monic squarefree part, multiplicity), ...] for monic f, deg >= 1."""
    out = []
    # a zero derivative gives c = f and w = 1: all of f is a p-th power
    c = _kgcd(F, f, _rderiv(F, f))
    w = _kdivmod(F, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _kgcd(F, w, c)
        z = _kdivmod(F, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        c = _kdivmod(F, c, y)[0]
    if len(c) > 1:
        for part, mult in _squarefree_parts(F, _rpth_root(F, c)):
            out.append((part, mult * F.p))
    return out


def _distinct_degree_parts(F, f, top=None):
    """[(product of the degree-d irreducible factors, d), ...] for monic
    squarefree f.  With `top`, the split stops after degree top if it has
    not ended by then: the rest, whose factors all have degree above top,
    comes last and unsplit, as (rest, None)."""
    out = []
    q = F.q
    g, i, ht, k = f, 0, (0, 1), None
    while 2 * (i + 1) <= len(g) - 1:  # so deg g >= 4 and x is reduced
        if i == top:
            out.append((g, None))
            return out
        i += 1
        if k is None:  # the kernel of a new g, and h = ht mod g in its form
            k = _kernel(F, g)
            h = k.pack(ht)
        h = k.power(h, q)
        ht = k.unpack(h)
        d = _kgcd(F, _rsub(F, ht, (0, 1)), g)
        if len(d) > 1:
            out.append((d, i))
            g, k = _kdivmod(F, g, d)[0], None
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _edf_draws(q: int):
    """The equal-degree split's random elements of range(q).  Random is
    built at the first draw, so a factorization that never splits (say of
    an irreducible) builds none."""
    rng = random.Random(_EDF_SEED)
    while True:
        yield rng.randrange(q)


def _equal_degree_split(F, f, d, draws):
    """Irreducible factors of monic squarefree f whose factors all have
    degree d (Cantor-Zassenhaus, deterministic given the draws so far)."""
    n = len(f) - 1
    if n == d:
        return [f]
    k = _kernel(F, f)
    while True:
        r = _trim([next(draws) for _ in range(n)])
        if len(r) < 2:
            continue
        if F.p == 2:
            s = acc = k.unpack(k.pack(r))
            for _ in range(F.e * d - 1):
                s = k.powmod(s, 2)
                acc = _radd(F, acc, s)
            g = _kgcd(F, acc, f)
        else:
            g = _kgcd(F, _rsub(F, k.powmod(r, (F.q ** d - 1) // 2), (1,)), f)
        if 1 < len(g) < len(f):
            rest = _kdivmod(F, f, g)[0]
            return (_equal_degree_split(F, g, d, draws)
                    + _equal_degree_split(F, rest, d, draws))


def _factor_parts(F, w, top=None):
    """The (monic irreducible, multiplicity) pairs of monic w (degree >= 1)
    as coefficient tuples, sorted by (degree, coefficients), and whether
    the distinct-degree split stopped after degree `top` (see
    _distinct_degree_parts) with factors of higher degree left unfound."""
    draws = _edf_draws(F.q)
    counts: dict[tuple, int] = {}
    rest = False
    for part, mult in _squarefree_parts(F, w):
        for prod, d in _distinct_degree_parts(F, part, top):
            if d is None:
                rest = True
                continue
            for irr in _equal_degree_split(F, prod, d, draws):
                counts[irr] = counts.get(irr, 0) + mult
    return sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])), rest


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities."""
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = f.field
    unit = f.leading
    w = _rmonic(F, f.coeffs)
    if len(w) == 1:
        return Factorization(unit, ())
    return Factorization(unit, tuple((_mk(F, cs), m) for cs, m in _factor_parts(F, w)[0]))


_REVERSED = operator.itemgetter(slice(None, None, -1))


def _monic_coeffs(field: FieldCtx, degree: int):
    """The coefficient tuples of the monic polynomials of the given degree,
    in little-endian counting order on the coefficient vector (constant
    term varies fastest): the i-th has the base-q index i.  product varies
    its last factor fastest, so each (1, c_(d-1), ..., c_0) it makes is
    read backwards, with no Python-level step per tuple."""
    if degree < 0:
        raise OutOfRange("degree must be >= 0")
    return map(_REVERSED, itertools.product((1,), *[range(field.q)] * degree))


def monic_polys(field: FieldCtx, degree: int):
    """All monic polynomials of the given degree, in the order of
    _monic_coeffs."""
    for cs in _monic_coeffs(field, degree):
        yield _mk(field, cs)


# -- text format ----------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\[[^\[\]]*\]|\d+)\*?)?(?:(?P<var>[xt])(?:\^(?P<exp>\d+))?)?$"
)


def _split_outside_brackets(text: str, seps: str) -> list[tuple[str, str]]:
    """The parts of text between the characters of seps that sit outside
    [...] coordinate lists, each as (separator before it, part); the first
    part's separator is "".  Unbalanced brackets anywhere are a ParseError."""
    parts, depth, start, sep = [], 0, 0, ""
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                break
        elif ch in seps and not depth:
            parts.append((sep, text[start:i]))
            sep, start = ch, i + 1
    if depth:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append((sep, text[start:]))
    return parts


def parse_poly(field: FieldCtx, text: str) -> Poly:
    """Parse the polynomial text grammar over the given field."""
    if not text.strip():
        raise ParseError("empty polynomial")
    terms = []
    for sign, part in _split_outside_brackets(text, "+-"):
        term = "".join(part.split())
        if terms and not terms[-1][1]:  # a sign with no term after it
            raise ParseError(f"dangling sign in {text!r}")
        if term or sign:
            terms.append((sign, term))
    if not terms[-1][1]:
        raise ParseError(f"trailing sign in {text!r}")

    acc: dict[int, int] = {}
    for sign, term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"bad term {term!r} in {text!r}")
        coeff_text = m.group("coeff")
        if coeff_text is None:
            c = field.one
        elif coeff_text.startswith("["):
            c = field.parse_element(coeff_text)
        else:  # int() refuses more than 4,300 digits: reduce mod p by chunks
            c = 0
            for i in range(0, len(coeff_text), 1000):
                chunk = coeff_text[i:i + 1000]
                c = (c * 10 ** len(chunk) + int(chunk)) % field.p
            c = field.from_int(c)
        if m.group("var") is None:
            exp = 0
        else:
            digits = (m.group("exp") or "1").lstrip("0") or "0"
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
                raise ParseError(f"exponent {shown} exceeds the {_MAX_EXPONENT} degree limit")
            exp = int(digits)
        if sign == "-":
            c = field.neg(c)
        acc[exp] = field.add(acc.get(exp, 0), c)
    cs = [0] * (max(acc) + 1)
    for exp, c in acc.items():
        cs[exp] = c
    return _mk(field, _trim(cs))


def format_poly(f: Poly, variable: str = "x") -> str:
    """Canonical text form; reparses to an identical Poly."""
    if f.is_zero:
        return "0"
    field = f.field
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(field.format_element(c))
            continue
        xpow = variable if i == 1 else f"{variable}^{i}"
        if c == field.one:
            parts.append(xpow)
        else:
            parts.append(f"{field.format_element(c)}*{xpow}")
    return "+".join(parts)
