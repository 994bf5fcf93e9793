"""Exact arithmetic over Q and finite fields F_{p^k}.

Elements of F_{p^k} are stored as integer indices encoding coefficient
vectors: the element sum(c_i * g^i) has index sum(c_i * p^i), where g is
the class of x modulo the field's defining polynomial.  Rationals are
stored as `fractions.Fraction` (always reduced, positive denominator).

Each field picks one of four arithmetic backends when it is made:
`Fraction` operators over Q, residues mod p over F_p, Zech-log tables
over F_{p^k} up to `_TABLE_CAP` elements (built on the field's first
operation), and coefficient-vector polynomial arithmetic above that.

Every deterministic choice in this module (defining modulus, embedding,
element enumeration) uses one ordering: coefficient vectors
(c_0, c_1, ..., c_{k-1}) compared lexicographically with c_0 first.
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
    """Ops on indices through the tables: exp[i] = g^i, log inverts exp,
    g^zech[i] = 1 + g^i (-1 when that is 0), and g^half = -1."""
    m = len(exp)

    def add_logs(a, lb):  # a + g^lb
        if a == 0:
            return exp[lb % m]
        la = log[a]
        d = zech[(lb - la) % m]
        return 0 if d == -1 else exp[(la + d) % m]

    def add(a, b):
        return add_logs(a, log[b]) if b else a

    def neg(a):
        return exp[(log[a] + half) % m] if a else 0

    def sub(a, b):
        return add_logs(a, log[b] + half) if b else a

    def mul(a, b):
        return exp[(log[a] + log[b]) % m] if a and b else 0

    def pow_(a, e):
        if a == 0:
            return 0 if e else 1
        return exp[log[a] * e % m]

    return add, neg, sub, mul, lambda a: exp[-log[a] % m], pow_


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


class FieldSpec:
    """Q or F_{p^k}; unique instance per (p, k), see `make_field`.

    Raw element values are `Fraction` over Q and `int` indices over
    finite fields; `Scalar` wraps a raw value with its field.  The
    arithmetic backend is chosen here, once; the raw ops call into it.
    """

    __slots__ = (
        "p", "k", "modulus", "size", "is_rational", "rzero", "rone",
        "_add", "_neg", "_sub", "_mul", "_inv", "_pow", "_exp",
        "_embed_cache",
    )

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus  # tuple of k+1 ints over F_p, monic; None for Q and k == 1
        self.size = None if p == 0 else p**k
        self.is_rational = p == 0
        self.rzero = Fraction(0) if p == 0 else 0
        self.rone = Fraction(1) if p == 0 else 1
        self._exp = None  # Zech exponent table, once built
        self._embed_cache = {}
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
        return raw if self.is_rational else self.vector_of(raw)

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
        # first operation instead of slowing every make_field
        def stub(i):
            return lambda *args: self._ensure_tables()[i](*args)
        return tuple(stub(i) for i in range(6))

    def _ensure_tables(self):
        """Build the Zech log tables, install their ops and return them."""
        n, m = self.size, self.size - 1
        vadd, _, _, vmul, _, vpow = _vector_ops(self)
        factors = _prime_factors(m)
        gen = next(c for c in self.elements()
                   if c and all(vpow(c, m // f) != 1 for f in factors))
        exp = [1] * m
        for i in range(1, m):
            exp[i] = vmul(exp[i - 1], gen)
        log = [0] * n
        for i, e in enumerate(exp):
            log[e] = i
        zech = [log[s] if s else -1 for s in (vadd(1, e) for e in exp)]
        self._exp = exp
        ops = _zech_ops(exp, log, zech, 0 if self.p == 2 else m // 2)
        self._add, self._neg, self._sub, self._mul, self._inv, self._pow = ops
        return ops

    def radd(self, a, b):
        return self._add(a, b)

    def rneg(self, a):
        return self._neg(a)

    def rsub(self, a, b):
        return self._sub(a, b)

    def rmul(self, a, b):
        return self._mul(a, b)

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
            num = self.rfrom_int(value.numerator)
            den = self.rfrom_int(value.denominator)
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
    """Immutable element of a specific field. Canonical form is unique."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldError(
                    f"mixed-field arithmetic: {self.field!r} vs {other.field!r}")
            return other.raw
        if isinstance(other, int):
            return self.field.rfrom_int(other)
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.radd(self.raw, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.rsub(self.raw, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.rsub(r, self.raw))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.rmul(self.raw, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.rmul(self.raw, self.field.rinv(r)))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.rmul(r, self.field.rinv(self.raw)))

    def __neg__(self):
        return Scalar(self.field, self.field.rneg(self.raw))

    def __pow__(self, e):
        return Scalar(self.field, self.field.rpow(self.raw, e))

    def inverse(self):
        return Scalar(self.field, self.field.rinv(self.raw))

    def __bool__(self):
        return self.raw != self.field.rzero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.field.rfrom_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.raw))

    def __str__(self):
        return self.field.rstr(self.raw)

    def __repr__(self):
        return f"Scalar({self.field!r}, {self})"


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


def _strip(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_gcd(a, b, p):
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        r = a[:]
        while len(r) >= len(b):
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            _strip(r)
            if not r:
                break
        a, b = b, r
    return a


def _is_irreducible(m, p):
    """m monic of degree k >= 2 over F_p, via x^(p^j) - x gcd tests."""
    k = len(m) - 1
    xq = _strip(list(_poly_powmod([0, 1], p**k, m, p)))
    if xq != [0, 1]:
        return False
    for t in _prime_factors(k):
        xqt = list(_poly_powmod([0, 1], p**(k // t), m, p))
        xqt += [0] * max(0, 2 - len(xqt))
        xqt[1] = (xqt[1] - 1) % p
        g = _poly_gcd(xqt, m, p)
        if len(g) - 1 > 0:
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


def embed(x: Scalar, target: FieldSpec) -> Scalar:
    """Ring-homomorphic image of x in the target field.

    For a prime-degree step the extension generator of the source maps
    to the least root (in coefficient-vector lex order) of the source
    modulus in the target.  A composite-degree embedding is the
    composite along the canonical chain of prime-degree steps (prime
    factors of target.k/source.k in increasing order), which makes
    nested towers commute with direct embeddings by construction.
    """
    src = x.field
    if src is target:
        return x
    if src.is_rational or target.is_rational:
        raise FieldError("no embeddings to or from Q")
    if src.p != target.p:
        raise FieldError(f"characteristic mismatch: {src!r} vs {target!r}")
    if target.k % src.k != 0:
        raise FieldError(f"{src!r} does not embed in {target!r}: "
                         f"{src.k} does not divide {target.k}")
    rel = target.k // src.k
    rel_factors = _prime_factors(rel)
    if len(rel_factors) > 1 or rel != rel_factors[0]:
        # composite step: smallest prime factor first
        q = rel_factors[0]
        mid = make_field(src.p, src.k * q)
        return embed(embed(x, mid), target)
    powers = _embedding_powers(src, target)
    vec = src.vector_of(x.raw)
    acc = target.rzero
    for c, pw in zip(vec, powers):
        if c:
            acc = target.radd(acc, target.rmul(c, pw))
    return Scalar(target, acc)


def _embedding_powers(src, target):
    cached = src._embed_cache.get(id(target))
    if cached is not None:
        return cached
    if src.k == 1:
        powers = [target.rone]
    else:
        root = None
        for cand in sorted(_modulus_roots(src, target), key=target.lex_key):
            root = cand
            break
        if root is None:
            raise AssertionError("modulus has no root in extension")  # unreachable
        powers = [target.rone]
        for _ in range(1, src.k):
            powers.append(target.rmul(powers[-1], root))
    src._embed_cache[id(target)] = powers
    return powers


def _modulus_roots(src, target):
    m = src.modulus
    roots = []
    for cand in target.elements():
        acc = target.rzero
        for c in reversed(m):
            acc = target.radd(target.rmul(acc, cand), c % target.p)
        if acc == 0:
            roots.append(cand)
    return roots


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
    """Univariate polynomial over one field; raw coefficients, low to high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == field.rzero:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_scalars(cls, field, scalars):
        return cls(field, [field.scalar(s).raw for s in scalars])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.rzero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [F.rzero] * (n - len(other.coeffs))
        return UPoly(F, [F.radd(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        F = self.field
        return UPoly(F, [F.rneg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return UPoly.zero(F)
        out = [F.rzero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == F.rzero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.radd(out[i + j], F.rmul(a, b))
        return UPoly(F, out)

    def scale(self, raw):
        F = self.field
        return UPoly(F, [F.rmul(c, raw) for c in self.coeffs])

    def shift(self, n):
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return UPoly(self.field, [self.field.rzero] * n + list(self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.rinv(self.coeffs[-1]))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        r = list(self.coeffs)
        q = [F.rzero] * max(0, len(r) - len(other.coeffs) + 1)
        dinv = F.rinv(other.coeffs[-1])
        for i in range(len(r) - len(other.coeffs), -1, -1):
            c = F.rmul(r[i + len(other.coeffs) - 1], dinv)
            if c != F.rzero:
                q[i] = c
                for j, b in enumerate(other.coeffs):
                    r[i + j] = F.rsub(r[i + j], F.rmul(c, b))
        return UPoly(F, q), UPoly(F, r)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval_raw(self, x):
        F = self.field
        acc = F.rzero
        for c in reversed(self.coeffs):
            acc = F.radd(F.rmul(acc, x), c)
        return acc

    def map_field(self, target):
        """Coefficientwise embedding into an extension."""
        return UPoly(target, [embed(Scalar(self.field, c), target).raw
                              for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.field.rzero:
                continue
            cs = self.field.rstr(c)
            if i == 0:
                parts.append(cs)
            else:
                xp = "x" if i == 1 else f"x^{i}"
                parts.append(xp if cs == "1" else f"({cs})*{xp}")
        return " + ".join(parts)


@dataclass(frozen=True)
class Root:
    value: Scalar
    ext_degree: int       # extension degree over the input field
    multiplicity: int


def find_roots(f: UPoly, max_ext: int,
               budget: int = DEFAULT_SCAN_BUDGET) -> list[Root]:
    """All roots of f over F_{p^(k*j)}, j <= max_ext, by exhaustive scan.

    Each root appears once, in its minimal field, with multiplicity.
    Raises ScanBudgetExceeded if some scan field has more than `budget`
    elements.
    """
    if f.is_zero():
        raise ValueError("find_roots of the zero polynomial")
    base = f.field
    if base.is_rational:
        raise FieldError("find_roots requires a finite field")
    found = []          # list of (root Scalar, level j, multiplicity)
    by_level = {}       # j -> list of raw roots at that level
    remaining = f.degree
    for j in range(1, max_ext + 1):
        if remaining == 0:
            break
        K = make_field(base.p, base.k * j)
        if K.size > budget:
            raise ScanBudgetExceeded(
                f"scan budget exceeded: |F_{base.p}^{base.k * j}| = {K.size} > {budget}")
        fK = f.map_field(K) if K is not base else f
        known = set()
        for jp in range(1, j):
            if j % jp == 0 and jp in by_level:
                sub = make_field(base.p, base.k * jp)
                for r in by_level[jp]:
                    known.add(embed(Scalar(sub, r), K).raw)
        here = []
        for cand in K.elements():
            if fK.eval_raw(cand) == K.rzero and cand not in known:
                here.append(cand)
        for r in here:
            mult = 0
            g = fK
            lin = UPoly(K, [K.rneg(r), K.rone])
            while True:
                q, rem = g.divmod(lin)
                if not rem.is_zero():
                    break
                mult += 1
                g = q
            found.append(Root(Scalar(K, r), j, mult))
            remaining -= mult
        by_level[j] = here
    return found


def cube_root(x: Scalar, allow_extension: bool = True):
    """Deterministic cube root, extending to degree 3 when x is a
    non-cube (q = 1 mod 3); exponentiation only, no field scans."""
    F = x.field
    if F.is_rational:
        raise FieldError("cube roots are computed over finite fields only")
    if not x:
        return x
    q = F.size
    if q % 3 == 2:
        return x ** ((2 * q - 1) // 3)
    if x ** ((q - 1) // 3) == F.one:
        return _amm_cube_root(x)
    if not allow_extension:
        return None
    target = make_field(F.p, F.k * 3)
    return _amm_cube_root(embed(x, target))


def _amm_cube_root(a: Scalar) -> Scalar:
    """Cube root of a known cube in F_q with q = 1 mod 3."""
    F = a.field
    q = F.size
    t, s = q - 1, 0
    while t % 3 == 0:
        t //= 3
        s += 1
    eta = None
    for cand in F.elements():
        if cand == 0:
            continue
        c = F.from_raw(cand)
        if c ** ((q - 1) // 3) != F.one:
            eta = c
            break
    assert eta is not None  # q = 1 mod 3 always has non-cubes
    g = eta ** t
    b = a ** t
    order = 3 ** s
    k = None
    acc = F.one
    for i in range(order):
        if acc == b:
            k = i
            break
        acc = acc * g
    if k is None or k % 3 != 0:
        raise FieldError("element is not a cube")
    u = pow(3, -1, t) if t > 1 else 0
    m = (3 * u - 1) // t
    y = (a ** u) * g ** (((-k * m) // 3) % order)
    if y * y * y != a:
        raise AssertionError("cube-root correction failed")
    return y
