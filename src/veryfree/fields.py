"""Exact arithmetic over Q and finite fields F_{p^k}.

Elements of F_{p^k} are stored as integer indices encoding coefficient
vectors: the element sum(c_i * g^i) has index sum(c_i * p^i), where g is
the class of x modulo the field's defining polynomial.  Rationals are
stored as `fractions.Fraction` (always reduced, positive denominator).

Each field picks one of four arithmetic backends when it is made:
`Fraction` operators over Q, residues mod p over F_p, Zech-log tables
over F_{p^k} up to `_TABLE_CAP` elements (built on the field's first
operation and laid out so that no op but a power takes a remainder or
tests for a zero sum), and coefficient-vector polynomial arithmetic
above that.
An op read on a field, such as `F.rmul`, is the backend function
itself, so each raw operation is one Python call; op counters patch
the class-level `_Op` descriptors and count through them.  These ops
are the only field arithmetic: a `Scalar` is a raw value tagged with
its field, as a caller hands it in, and does not compute.

Every deterministic choice in this module (defining modulus, embedding,
element enumeration) uses one ordering: coefficient vectors
(c_0, c_1, ..., c_{k-1}) compared lexicographically with c_0 first.
Roots, those behind embeddings included, come from distinct- and
equal-degree factorisation of polynomials, run on raw coefficient
lists, not from scans of a field's elements.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError, ScanBudgetExceeded

DEFAULT_SCAN_BUDGET = 10**6
_TABLE_CAP = 1 << 16  # largest field size for which Zech log tables are built


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_ops(p):
    return (lambda a, b: (a + b) % p, lambda a: -a % p,
            lambda a, b: (a - b) % p, lambda a, b: a * b % p,
            lambda a: pow(a, p - 2, p), lambda a, e: pow(a, e, p))


def _zech_ops(exp, log, zech, half):
    """Ops on indices through the tables: exp[i] = g^i for i < m = |F| - 1,
    log inverts exp, g^zech[i] = 1 + g^i (-1 when that is 0), and g^half
    = -1.  The tables are laid out again, in place, so that no op but
    `pow` takes a remainder or tests a sentinel (Huber, IEEE Trans. Inf.
    Theory 36, 1990): exp runs twice round the group and then through
    2m + 1 zeros, and the log of 0 is 2m, so a sum of logs with a zero in
    it lands in the zeros; zech, with 2m for each -1, runs twice round,
    so a difference of logs in (-m, 2m) indexes it."""
    m = len(exp)
    exp += exp + [0] * (2 * m + 1)
    log[0] = 2 * m
    zech[:] = [2 * m if d == -1 else d for d in zech] * 2

    def add(a, b):  # a + b = g^la (1 + g^(lb - la))
        if not b:
            return a
        if not a:
            return b
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def sub(a, b):  # a - b = a + g^(lb + half)
        if not b:
            return a
        lb = log[b] + half
        if not a:
            return exp[lb]
        la = log[a]
        return exp[la + zech[lb - la]]

    def pow_(a, e):
        if a == 0:
            return 0 if e else 1
        return exp[log[a] * e % m]

    return (add, lambda a: exp[log[a] + half], sub,
            lambda a, b: exp[log[a] + log[b]], lambda a: exp[m - log[a]],
            pow_)


def _vector_ops(F):
    """Ops on coefficient vectors modulo F.modulus; correct for any size."""
    p, m, vec, idx = F.p, F.modulus, F.vector_of, F.index_of

    def digitwise(sign):  # a + sign*b, one base-p digit at a time
        def op(a, b):
            out, place = 0, 1
            while a or b:
                a, ra = divmod(a, p)
                b, rb = divmod(b, p)
                out += (ra + sign * rb) % p * place
                place *= p
            return out
        return op

    add, sub = digitwise(1), digitwise(-1)

    def mul(a, b):
        return idx(_poly_mod_mul(vec(a), vec(b), m, p))

    def pow_(a, e):
        return idx(_poly_powmod(vec(a), e, m, p))

    return (add, lambda a: sub(0, a), sub, mul,
            lambda a: pow_(a, F.size - 2), pow_)


def _zech_tables(F):
    """exp, log and zech tables of F (see `_zech_ops`), generated by the
    first primitive element in `elements()` order.

    Multiplication by the generator is F_p-linear on the base-p digits
    of an index, so each power comes from the images of its low and high
    halves of digits, added digit by digit through a table of sums of
    half-indices; 1 + g^i bumps digit 0 of exp[i].
    """
    p, n, m = F.p, F.size, F.size - 1
    _, _, _, vmul, _, vpow = _vector_ops(F)
    factors = _prime_factors(m)
    gen = next(c for c in F.elements()
               if c and all(vpow(c, m // f) != 1 for f in factors))
    half = p ** ((F.k + 1) // 2)
    low = [vmul(a, gen) for a in range(half)]
    high = [vmul(a * half, gen) for a in range(n // half)]
    plus = [0]  # plus[a * w + b] = a + b digit by digit, for a, b < w
    w = 1
    while w < half:
        w, prev = w * p, w
        plus = [(a + b) % p + p * plus[a // p * prev + b // p]
                for a in range(w) for b in range(w)]
    exp = [1] * m
    e = 1
    for i in range(1, m):
        a, b = low[e % half], high[e // half]
        e = (plus[a % half * half + b % half]
             + half * plus[a // half * half + b // half])
        exp[i] = e
    log = [0] * n
    for i, e in enumerate(exp):
        log[e] = i
    zech = [-1 if e == p - 1 else log[e + 1 - p if e % p == p - 1 else e + 1]
            for e in exp]
    return exp, log, zech


class _Op(property):
    """A raw op that is its backend's function when read on a field, so
    `F.radd(a, b)` makes one Python call.  Read on the class it is this
    object, which takes the field first, as a method would: an op counter
    patches `FieldSpec.radd` and calls the original as `(spec, a, b)`."""

    def __call__(self, spec, *args):
        return self.fget(spec)(*args)


class FieldSpec:
    """Q or F_{p^k}; unique instance per (p, k), see `make_field`.

    Raw element values are `Fraction` over Q and `int` indices over
    finite fields; `Scalar` tags a raw value with its field.  The
    arithmetic backend is chosen here, once: `radd`, `rneg`, `rsub` and
    `rmul` read on a field are its backend functions, and `rinv` and
    `rpow` are methods that call into them.
    """

    __slots__ = (
        "p", "k", "modulus", "size", "is_rational", "rzero", "rone",
        "_add", "_neg", "_sub", "_mul", "_inv", "_pow", "_exp",
        "_embed_cache", "_lex_cache",
    )

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus  # tuple of k+1 ints over F_p, monic; None for Q and k == 1
        self.size = None if p == 0 else p**k
        self.is_rational = p == 0
        self.rzero = Fraction(0) if p == 0 else 0
        self.rone = Fraction(1) if p == 0 else 1
        self._exp = None  # Zech exponent table, once built and laid out
        self._embed_cache = {}
        self._lex_cache = {}  # raw -> vector_of(raw), filled by lex_key
        if p == 0:
            ops = (operator.add, operator.neg, operator.sub, operator.mul,
                   lambda a: 1 / a, operator.pow)
        elif k == 1:
            ops = _prime_ops(p)
        elif self.size <= _TABLE_CAP:
            ops = self._zech_first_use()
        else:
            ops = _vector_ops(self)
        self._add, self._neg, self._sub, self._mul, self._inv, self._pow = ops

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return "Q" if self.is_rational else format_field_spec(self)

    # -- vector <-> index ---------------------------------------------

    def vector_of(self, idx):
        p, k = self.p, self.k
        v = []
        for _ in range(k):
            idx, r = divmod(idx, p)
            v.append(r)
        return tuple(v)

    def index_of(self, vec):
        idx = 0
        for c in reversed(vec):
            idx = idx * self.p + (c % self.p)
        return idx

    def lex_key(self, raw):
        """Sort key: the Fraction over Q, else the coefficient vector
        with c_0 compared first."""
        if self.is_rational:
            return raw
        try:
            return self._lex_cache[raw]
        except KeyError:
            key = self._lex_cache[raw] = self.vector_of(raw)
            return key

    def elements(self):
        """All raw elements in canonical (coefficient-vector lex) order."""
        if self.is_rational:
            raise FieldError("cannot enumerate Q")
        for vec in itertools.product(range(self.p), repeat=self.k):
            yield self.index_of(vec)

    # -- raw arithmetic ------------------------------------------------

    def rfrom_int(self, n):
        # integers land in the prime subfield
        return Fraction(n) if self.is_rational else n % self.p

    def _zech_first_use(self):
        # a table costs O(size) to build, so it waits for the field's
        # first operation instead of slowing every make_field; a caller
        # that read an op before then may keep calling its stub
        def stub(i):
            return lambda *args: self._ensure_tables()[i](*args)
        return tuple(stub(i) for i in range(6))

    def _ensure_tables(self):
        """Build the Zech log tables and install their ops, once; return
        the ops."""
        if self._exp is None:
            exp, log, zech = _zech_tables(self)
            self._exp = exp
            half = 0 if self.p == 2 else (self.size - 1) // 2
            (self._add, self._neg, self._sub, self._mul, self._inv,
             self._pow) = _zech_ops(exp, log, zech, half)
        return (self._add, self._neg, self._sub, self._mul, self._inv,
                self._pow)

    radd = _Op(operator.attrgetter("_add"))
    rneg = _Op(operator.attrgetter("_neg"))
    rsub = _Op(operator.attrgetter("_sub"))
    rmul = _Op(operator.attrgetter("_mul"))

    def rinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv(a)

    def rpow(self, a, e):
        if e < 0:
            a, e = self.rinv(a), -e
        return self._pow(a, e)

    # -- Scalar construction -------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldError(f"scalar of {value.field!r} used in {self!r}")
            return value
        if isinstance(value, int):
            return Scalar(self, self.rfrom_int(value))
        if isinstance(value, Fraction):
            if self.is_rational:
                return Scalar(self, value)
            den = self.rfrom_int(value.denominator)
            if not den:
                raise FieldError(f"{value} has no value in {self!r}: "
                                 f"{self.p} divides its denominator")
            num = self.rfrom_int(value.numerator)
            return Scalar(self, self.rmul(num, self.rinv(den)))
        raise TypeError(f"cannot coerce {value!r}")

    def from_raw(self, raw) -> "Scalar":
        return Scalar(self, raw)

    @property
    def zero(self):
        return Scalar(self, self.rzero)

    @property
    def one(self):
        return Scalar(self, self.rone)

    @property
    def gen(self) -> "Scalar":
        """Class of x modulo the defining polynomial (k >= 2 only)."""
        if self.k == 1:
            raise FieldError(f"{self!r} has no extension generator")
        return Scalar(self, self.p)

    def rstr(self, raw) -> str:
        if self.k == 1:
            return str(raw)
        vec = self.vector_of(raw)
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = vec[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                gpow = "g" if i == 1 else f"g^{i}"
                parts.append(gpow if c == 1 else f"{c}*{gpow}")
        return "+".join(parts) if parts else "0"


class Scalar:
    """A raw value tagged with its field, as callers hand values to the
    public constructors, `linear_substitute` and the parser; the tag
    tells a raw value from an int, which reads as an integer mod p.
    Scalars do not compute: all arithmetic goes through the field's raw
    ops.  They compare but do not hash."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def __bool__(self):
        return self.raw != self.field.rzero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.field.rfrom_int(other)
        return NotImplemented

    def __str__(self):
        return self.field.rstr(self.raw)

    def __repr__(self):
        return f"Scalar({self.field!r}, {self})"


def check_field(F, obj):
    """Raw values carry no field, so an object over another field is
    refused here, as `FieldSpec.scalar` refuses a Scalar of another
    field."""
    if obj.field is not F:
        raise FieldError(f"{obj!r} is over {obj.field!r}, not {F!r}")


def check_raw(F, values):
    """Refuse values that are not raw elements of F (a Fraction over Q, an
    index below the size otherwise): a Scalar, or an index from a larger
    field."""
    for x in values:
        if not (type(x) is Fraction if F.is_rational
                else type(x) is int and 0 <= x < F.size):
            raise FieldError(f"{x!r} is not a raw element of {F!r}")


# -- field construction ------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def make_field(p: int, k: int = 1) -> FieldSpec:
    """Return the field with p^k elements (Q for p = 0, k = 1).

    For k > 1 the defining modulus is the first monic irreducible of
    degree k in coefficient-vector lex order; the choice is cached, so
    equal (p, k) always yields the identical FieldSpec instance.
    """
    key = (p, k)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if k < 1:
        raise FieldError(f"extension degree must be >= 1, got {k}")
    if p == 0:
        if k != 1:
            raise FieldError("Q has no proper extensions here")
        spec = FieldSpec(0, 1, None)
    else:
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        modulus = None if k == 1 else _least_irreducible(p, k)
        spec = FieldSpec(p, k, modulus)
    _FIELD_CACHE[key] = spec
    return spec


QQ = make_field(0, 1)


def _poly_mod_mul(a, b, m, p):
    """(a*b) mod m over F_p; polys as low-to-high int lists, m monic."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    k = len(m) - 1
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * m[j]) % p
    out = prod[:k]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_powmod(base, e, m, p):
    """base^e mod m over F_p by square and multiply; lists as above."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_mod_mul(result, base, m, p)
        base = _poly_mod_mul(base, base, m, p)
        e >>= 1
    return result


def _is_irreducible(m, p):
    """m monic of degree k >= 2 over F_p, via x^(p^j) - x gcd tests."""
    k = len(m) - 1
    if _poly_powmod([0, 1], p**k, m, p) != [0, 1]:
        return False
    fp = make_field(p)
    for t in _prime_factors(k):
        xqt = _poly_powmod([0, 1], p**(k // t), m, p)
        xqt += [0] * max(0, 2 - len(xqt))
        xqt[1] = (xqt[1] - 1) % p
        if UPoly(fp, xqt).gcd(UPoly(fp, m)).degree > 0:
            return False
    return True


def _least_irreducible(p, k):
    # k >= 2, so a zero constant term would make x a factor
    for vec in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        m = list(vec) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# -- field spec strings ----------------------------------------------


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "Q" | "p" | "p^k" into a field."""
    s = text.strip()
    if s in ("Q", "q", "0"):
        return QQ
    if "^" in s:
        ps, ks = s.split("^", 1)
        try:
            return make_field(int(ps), int(ks))
        except ValueError as e:
            raise FieldError(f"bad field spec {text!r}: {e}") from None
    try:
        return make_field(int(s), 1)
    except ValueError:
        raise FieldError(f"bad field spec {text!r}") from None


def format_field_spec(field: FieldSpec) -> str:
    if field.is_rational:
        return "Q"
    if field.k == 1:
        return str(field.p)
    return f"{field.p}^{field.k}"


# -- embeddings --------------------------------------------------------


def embed(src: FieldSpec, x, target: FieldSpec):
    """Ring-homomorphic image in the target field of the raw element x of
    src, as a raw value.

    For a prime-degree step the extension generator of the source maps
    to the least root (in coefficient-vector lex order) of the source
    modulus in the target.  A composite-degree embedding is the
    composite along the canonical chain of prime-degree steps (prime
    factors of target.k/source.k in increasing order), which makes
    nested towers commute with direct embeddings by construction.
    """
    if src is target:
        return x
    if src.is_rational or target.is_rational:
        raise FieldError("no embeddings to or from Q")
    if src.p != target.p:
        raise FieldError(f"characteristic mismatch: {src!r} vs {target!r}")
    if target.k % src.k != 0:
        raise FieldError(f"{src!r} does not embed in {target!r}: "
                         f"{src.k} does not divide {target.k}")
    if src.k == 1:  # F_p's raw values are its images everywhere
        return x
    rel = target.k // src.k
    rel_factors = _prime_factors(rel)
    if len(rel_factors) > 1 or rel != rel_factors[0]:
        # composite step: smallest prime factor first
        mid = make_field(src.p, src.k * rel_factors[0])
        return embed(mid, embed(src, x, mid), target)
    powers = _embedding_powers(src, target)
    acc = target.rzero
    for c, pw in zip(src.vector_of(x), powers):
        if c:
            acc = target.radd(acc, target.rmul(c, pw))
    return acc


def _embedding_powers(src, target):
    cached = src._embed_cache.get(id(target))
    if cached is not None:
        return cached
    root = _least_modulus_root(src, target)
    powers = [target.rone]
    for _ in range(1, src.k):
        powers.append(target.rmul(powers[-1], root))
    src._embed_cache[id(target)] = powers
    return powers


def _least_modulus_root(src, target):
    """The least root, by `lex_key`, of the source modulus in the
    target."""
    return _field_roots(target, src.modulus)[0]


def join_field(*fields: FieldSpec) -> FieldSpec:
    """Smallest common extension F_{p^lcm} of the given finite fields."""
    p = fields[0].p
    if any(f.p != p for f in fields):
        raise FieldError("cannot join fields of different characteristic")
    if p == 0:
        return QQ
    return make_field(p, math.lcm(*(f.k for f in fields)))


# -- univariate polynomials -------------------------------------------


class UPoly:
    """Univariate polynomial over one field; raw coefficients, low to high.
    The root engine below runs on the raw coefficient lists themselves,
    low to high and stripped, with [] as zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == field.rzero:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __mul__(self, other):
        return UPoly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self.coeffs)
        q = _reduce(self.field, r, other.coeffs)
        return UPoly(self.field, q), UPoly(self.field, r)

    def gcd(self, other):
        return UPoly(self.field, _gcd(self.field, self.coeffs, other.coeffs))


def _mul(F, a, b):
    """The product of the raw coefficient lists a and b."""
    radd, rmul, zero = F.radd, F.rmul, F.rzero
    out = [zero] * max(0, len(a) + len(b) - 1)
    if a is b and F.p == 2:  # the cross terms of a square cancel
        for i, c in enumerate(a):
            out[2 * i] = rmul(c, c)
        return out
    for i, c in enumerate(a):
        if c != zero:
            for j, d in enumerate(b, i):
                if d != zero:
                    out[j] = radd(out[j], rmul(c, d))
    return out


def _reduce(F, r, b):
    """Reduce the raw coefficient list r in place modulo the raw
    coefficients b, both low to high with b[-1] nonzero, and return the
    quotient's list; r is left holding the remainder, stripped."""
    rsub, rmul, zero, one = F.rsub, F.rmul, F.rzero, F.rone
    n = len(b) - 1
    dinv = one if b[n] == one else F.rinv(b[n])
    q = [zero] * max(0, len(r) - n)
    for i in range(len(r) - n - 1, -1, -1):
        c = r[i + n]  # cancels below and is not read again
        if c != zero:
            if dinv != one:
                c = rmul(c, dinv)
            q[i] = c
            for j in range(n):
                if b[j] != zero:
                    r[i + j] = rsub(r[i + j], rmul(c, b[j]))
    del r[n:]
    while r and r[-1] == zero:
        r.pop()
    return q


def _mulmod(F, a, b, m):
    """a * b mod m, on raw lists."""
    r = _mul(F, a, b)
    _reduce(F, r, m)
    return r


def _monic(F, a):
    """a scaled to lead with 1; a itself when it does."""
    if a and a[-1] != F.rone:
        inv = F.rinv(a[-1])
        a = [F.rmul(c, inv) for c in a]
    return a


def _gcd(F, a, b):
    """The monic gcd of the stripped raw lists a and b."""
    a, b = list(a), list(b)
    while b:
        _reduce(F, a, b)
        a, b = b, a
    return _monic(F, a)


def _less_x(F, f, i):
    """f - x^i for i = 0 or 1, on raw lists: one coefficient changes."""
    f = list(f) + [F.rzero] * (i + 1 - len(f))
    f[i] = F.rsub(f[i], F.rone)
    while f and f[-1] == F.rzero:
        f.pop()
    return f


@dataclass(frozen=True)
class Root:
    value: object         # raw element of `field`
    field: FieldSpec      # the root's minimal field
    ext_degree: int       # extension degree over the input field
    multiplicity: int


def find_roots(f: UPoly, max_ext: int) -> list[Root]:
    """All roots of f over F_{p^(k*j)}, j <= max_ext, level j ascending
    and each level's roots in `lex_key` order.

    Each root appears once, in its minimal field, with multiplicity.
    Distinct-degree factorisation over the base field F_q gives the
    factor gcd(h, x^(q^j) - x) of the part h of f whose roots are not
    found yet, and `_split_roots` splits it over F_{q^j} (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, Ch. 14).  Dividing h by that
    factor until they are coprime gives the multiplicities.  Raises
    ScanBudgetExceeded at the first level j with roots left to find where
    F_{q^j} has more than DEFAULT_SCAN_BUDGET elements.
    """
    if f.is_zero():
        raise ValueError("find_roots of the zero polynomial")
    base = f.field
    if base.is_rational:
        raise FieldError("find_roots requires a finite field")
    found = []
    h = _monic(base, f.coeffs)
    for j in range(1, max_ext + 1):
        if len(h) == 1:
            break
        size = base.size ** j
        if size > DEFAULT_SCAN_BUDGET:
            raise ScanBudgetExceeded(
                f"scan budget exceeded: |F_{base.p}^{base.k * j}| = {size} "
                f"> {DEFAULT_SCAN_BUDGET}")
        if j == 1:
            frob, aid = _frobenius(base, h)       # frob = x^(q^j) mod h
        else:
            frob = _powmod(base, frob, base.size, h)
        g = _gcd(base, h, _less_x(base, frob, 1))
        if len(g) == 1:
            continue
        K = make_field(base.p, base.k * j)
        here, mult = [], 0
        while len(g) > 1:  # g: the level's factors of multiplicity > mult
            mult += 1
            if len(g) == len(h):  # g = h: h is squarefree, all roots here
                h, rest, piece = [base.rone], [base.rone], g
            else:
                h = _reduce(base, list(h), g)
                rest = _gcd(base, h, g)
                piece = _reduce(base, list(g), rest)
            if K is not base:
                piece = [embed(base, c, K) for c in piece]
            here += [(r, mult) for r in _split_roots(
                K, piece, aid if j == 1 else _frobenius(K, piece)[1])]
            g = rest
        here.sort(key=lambda rm: K.lex_key(rm[0]))
        found += [Root(r, K, j, m) for r, m in here]
    return found


def _field_roots(F, f):
    """The distinct roots in F of the raw list f, in `lex_key` order, for
    any size of field."""
    frob, aid = _frobenius(F, f)
    g = _gcd(F, f, _less_x(F, frob, 1))
    return sorted(_split_roots(F, g, aid), key=F.lex_key)


def _powmod(F, base, e, m):
    """base^e mod m for e >= 1, by left-to-right square and multiply."""
    base = list(base)
    _reduce(F, base, m)
    out = base
    for bit in bin(e)[3:]:
        out = _mulmod(F, out, out, m)
        if bit == "1":
            out = _mulmod(F, out, base, m)
    return out


def _frobenius(F, h):
    """x^q mod h over F = F_q, and the aid that `_split_roots` takes for
    any factor of h, from the same squarings: the powers x^(2^i) mod h,
    i < k, in characteristic 2, else x^((q - 1)/2) mod h."""
    x = [F.rzero, F.rone]
    if F.p == 2:
        chain = [_powmod(F, x, 1, h)]  # x mod h
        for _ in range(F.k):
            chain.append(_mulmod(F, chain[-1], chain[-1], h))
        return chain.pop(), chain
    half = _powmod(F, x, (F.size - 1) // 2, h)
    frob = [F.rzero] + _mul(F, half, half)  # times x: a shift
    _reduce(F, frob, h)
    return frob, half


def _split_roots(K, g, aid):
    """The roots of the monic squarefree g, all of them in K, by
    Cantor-Zassenhaus equal-degree splitting into linear factors; aid is
    `_frobenius`'s for a multiple of g.

    The shifts a run over K in `elements()` order: gcd(h, (x + a)^((|K| -
    1)/2) - 1) for odd |K|, and gcd(h, Tr(a x)) with the trace to F_2 in
    characteristic 2, where Tr(a x) = sum a^(2^i) x^(2^i).  Two distinct
    roots r, s are split by some a: in odd characteristic (r + a)/(s + a)
    runs over every value but 1, and a -> Tr(a (r - s)) is a nonzero
    linear form.
    """
    shifts = K.elements()
    if K.p == 2:
        next(shifts)  # Tr(0 x) = 0 splits nothing
    roots, todo = [], [g]
    while True:
        pending = []
        for h in todo:
            if len(h) == 2:
                roots.append(K.rneg(h[0]))
            elif len(h) > 2:
                pending.append(h)
        if not pending:
            return roots
        a = next(shifts)
        todo = []
        for h in pending:
            d = _gcd(K, h, _splitter(K, h, a, aid))
            todo += ([d, _reduce(K, list(h), d)] if 1 < len(d) < len(h)
                     else [h])


def _splitter(K, h, a, aid):
    """The polynomial whose gcd with h splits h at the shift a."""
    if K.p != 2:
        half = aid if a == K.rzero else _powmod(K, [a, K.rone],
                                                (K.size - 1) // 2, h)
        return _less_x(K, half, 0)
    radd, rmul = K.radd, K.rmul
    trace = [K.rzero] * max(len(power) for power in aid)
    for power in aid:
        for i, c in enumerate(power):
            trace[i] = radd(trace[i], rmul(c, a))
        a = rmul(a, a)
    while trace and trace[-1] == K.rzero:
        trace.pop()
    return trace
