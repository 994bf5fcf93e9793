"""Exact polynomial algebra: multivariate forms, binary forms in (U, V),
parsing, resultants, gcd, and Groebner bases for unit-ideal tests and
eliminants.

Multivariate polynomials map exponent vectors to nonzero raw field
values, binary forms of degree d hold the raw coefficient of U^(d-j) V^j
at index j, and `UPoly` holds raw coefficients too: one format, which
every engine here runs on.  The constructors take Scalars or ints and
`from_raw` takes raw values.  Substitution matrices are raw too; only
`linear_substitute` takes Scalars or ints, and coerces them once.
`evaluate` and `binary_roots` return raw values.  A product takes two
polynomials of one class; a scalar multiple is `BinaryForm.scale` of a
raw value.
Arithmetic and evaluation never assume that the exponents are
non-negative, so a Laurent form in (U, V) is a MultiPoly in two
variables (see `constructions`).
"""
from __future__ import annotations

import heapq
import itertools
import operator
from fractions import Fraction

from . import linalg
from .errors import ParseError
from .fields import (FieldSpec, Scalar, UPoly, check_field, check_raw,
                     embed, find_roots)


class MultiPoly:
    """Sparse polynomial in nvars variables over one field, with raw
    coefficients.  The constructor takes Scalars or ints, `from_raw` raw
    values."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self._set(field, nvars,
                  {e: field.scalar(c).raw for e, c in terms.items()})

    @classmethod
    def from_raw(cls, field, nvars, terms):
        f = cls.__new__(cls)
        f._set(field, nvars, terms)
        return f

    def _set(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, field, nvars):
        return cls.from_raw(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls.from_raw(field, nvars, {tuple(e): field.rone})

    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.rzero)

    def _check(self, other):
        if self.field is not other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        F = self.field
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = F.radd(t[e], c) if e in t else c
        return MultiPoly.from_raw(F, self.nvars, t)

    def __neg__(self):
        F = self.field
        return MultiPoly.from_raw(F, self.nvars,
                                  {e: F.rneg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        return MultiPoly.from_raw(self.field, self.nvars,
                                  _raw_mul(self.field, self.terms, other.terms))

    def __pow__(self, n):
        result = MultiPoly.from_raw(self.field, self.nvars,
                                    {(0,) * self.nvars: self.field.rone})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.field is other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def evaluate(self, point):
        """Value at a point given by raw coordinates, as a raw value."""
        F = self.field
        check_raw(F, point)
        acc = F.rzero
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term = F.rmul(term, F.rpow(x, k))
            acc = F.radd(acc, term)
        return acc

    def partial(self, i):
        F = self.field
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = F.rmul(c, F.rfrom_int(e[i]))
        return MultiPoly.from_raw(F, self.nvars, out)

    def map_field(self, target):
        if target is self.field:
            return self
        F = self.field
        return MultiPoly.from_raw(target, self.nvars, {
            e: embed(F, c, target) for e, c in self.terms.items()})

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"MultiPoly({self})"


def _drl_key(exps):
    """Sort key realizing degrevlex (larger key = larger monomial)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _sorted_terms_desc(f):
    return sorted(f.terms.items(), key=lambda t: _drl_key(t[0]), reverse=True)


# -- printing and parsing ----------------------------------------------


def _monomial_string(exps, names):
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _coeff_string(F, c):
    s = F.rstr(c)
    if "+" in s[1:] or "-" in s[1:] or "*" in s:
        return f"({s})", False
    if s.startswith("-"):
        return s[1:], True
    return s, False


def _terms_to_string(F, items, names):
    if not items:
        return "0"
    out = []
    for idx, (exps, c) in enumerate(items):
        mono = _monomial_string(exps, names)
        cs, negative = _coeff_string(F, c)
        if mono and cs == "1":
            body = mono
        elif mono:
            body = f"{cs}*{mono}"
        else:
            body = cs
        if idx == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(out)


def poly_to_string(f: MultiPoly) -> str:
    names = [f"X{i}" for i in range(f.nvars)]
    return _terms_to_string(f.field, _sorted_terms_desc(f), names)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take(self):
        ch, pos = self.peek()
        if ch is not None:
            self.pos += 1
        return ch, pos

    def take_nat(self):
        ch, pos = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("expected a number", pos)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos]), start


class _PolyParser:
    """Recursive-descent parser for the ASCII polynomial grammar."""

    def __init__(self, text, field, var_lookup):
        self.tk = _Tokenizer(text)
        self.field = field
        self.var_lookup = var_lookup  # name -> variable index
        self.nvars = len(var_lookup) and max(var_lookup.values()) + 1

    def parse(self):
        f = self.expr()
        ch, pos = self.tk.peek()
        if ch is not None:
            raise ParseError(f"unexpected {ch!r}", pos)
        return f

    def expr(self):
        ch, _ = self.tk.peek()
        negate = False
        if ch in ("+", "-"):
            self.tk.take()
            negate = ch == "-"
        f = self.term()
        if negate:
            f = -f
        while True:
            ch, _ = self.tk.peek()
            if ch == "+":
                self.tk.take()
                f = f + self.term()
            elif ch == "-":
                self.tk.take()
                f = f - self.term()
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            ch, _ = self.tk.peek()
            if ch == "*":
                self.tk.take()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        f = self.atom()
        ch, _ = self.tk.peek()
        if ch == "^":
            self.tk.take()
            n, _ = self.tk.take_nat()
            f = f**n
        return f

    def atom(self):
        ch, pos = self.tk.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch == "(":
            self.tk.take()
            f = self.expr()
            ch2, pos2 = self.tk.peek()
            if ch2 != ")":
                raise ParseError("expected ')'", pos2)
            self.tk.take()
            return f
        if ch.isdigit():
            n, _ = self.tk.take_nat()
            ch2, _ = self.tk.peek()
            if ch2 == "/":
                self.tk.take()
                d, dpos = self.tk.take_nat()
                if not self.field.is_rational:
                    raise ParseError(
                        "rational literals are only allowed over Q", dpos)
                if d == 0:
                    raise ParseError("zero denominator", dpos)
                return MultiPoly.constant(self.field, self.nvars,
                                          Fraction(n, d))
            return MultiPoly.constant(self.field, self.nvars, n)
        if ch == "g":
            self.tk.take()
            if self.field.k == 1:
                raise ParseError("'g' requires an extension field", pos)
            return MultiPoly.constant(self.field, self.nvars, self.field.gen)
        if ch == "X" or ch == "U" or ch == "V":
            name = ch
            self.tk.take()
            if ch == "X":
                n, _ = self.tk.take_nat()
                name = f"X{n}"
            if name not in self.var_lookup:
                raise ParseError(f"unknown variable {name}", pos)
            return MultiPoly.variable(self.field, self.nvars,
                                      self.var_lookup[name])
        raise ParseError(f"unexpected {ch!r}", pos)


def parse_poly(text: str, nvars: int, field: FieldSpec) -> MultiPoly:
    """Parse a homogeneous polynomial in X0..X{nvars-1} over the given
    field."""
    lookup = {f"X{i}": i for i in range(nvars)}
    f = _PolyParser(text, field, lookup).parse()
    if not f.is_homogeneous():
        degs = sorted({sum(e) for e in f.terms})
        raise ParseError(
            f"inhomogeneous polynomial: term degrees {degs}")
    return f


def parse_binary_form(text: str, field: FieldSpec) -> "BinaryForm":
    """Parse a homogeneous form in U, V."""
    lookup = {"U": 0, "V": 1}
    f = _PolyParser(text, field, lookup).parse()
    if not f.is_homogeneous():
        raise ParseError("inhomogeneous binary form")
    if f.is_zero():
        return BinaryForm.zero(field, 0)
    d = f.total_degree
    coeffs = [field.rzero] * (d + 1)
    for (i, j), c in f.terms.items():
        coeffs[j] = c
    return BinaryForm.from_raw(field, d, coeffs)


# -- operations on MultiPoly ----------------------------------------------


def partial_derivative(f: MultiPoly, i: int) -> MultiPoly:
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range")
    return f.partial(i)


def linear_substitute(f: MultiPoly, matrix) -> MultiPoly:
    """f(M.X) for an invertible nvars x nvars matrix M of Scalars or
    ints."""
    F = f.field
    if len(matrix) != f.nvars or any(len(row) != f.nvars for row in matrix):
        raise ValueError(f"expected a {f.nvars} x {f.nvars} matrix")
    m = [[F.scalar(c).raw for c in row] for row in matrix]
    if linalg.det(F, m) == F.rzero:
        raise ValueError("substitution matrix is singular")
    return substitute_linear_map(f, m)


def _raw_mul(F, a, b):
    """Product of raw term dicts {exponents: raw coefficient}."""
    radd, rmul, add = F.radd, F.rmul, operator.add
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = rmul(c1, c2)
            if e in out:
                s = radd(out[e], c)
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
    return out


def _substitute_raw(F, terms, images, one):
    """Raw terms of f(images): `terms` holds f and images[i] the image of
    its i-th variable, each as raw terms {exponents: nonzero raw
    coefficient}, and `one` is the exponents of the constant monomial.
    Powers of each image are cached as the terms ask for them, and each
    product of powers is scaled by its coefficient as it is added."""
    radd, rmul = F.radd, F.rmul
    unit = {one: F.rone}
    powers = [[unit, image] for image in images]
    out = {}
    for e, c in terms.items():
        term = unit
        for cache, k in zip(powers, e):
            if k:
                while len(cache) <= k:
                    cache.append(_raw_mul(F, cache[-1], cache[1]))
                term = cache[k] if term is unit else \
                    _raw_mul(F, term, cache[k])
        for t, v in term.items():
            v = rmul(c, v)
            if t in out:
                s = radd(out[t], v)
                if s:
                    out[t] = s
                else:
                    del out[t]
            else:
                out[t] = v
    return out


def substitute_linear_map(f: MultiPoly, m) -> MultiPoly:
    """f(M.Y): substitute X_i = sum_j m[i][j] * Y_j, for a matrix M of
    raw values over f's field.  M may be rectangular, as for a hyperplane
    section (n + 1 -> n variables)."""
    F = f.field
    ncols = len(m[0])
    if len(m) != f.nvars or {len(row) for row in m} != {ncols}:
        raise ValueError(f"expected a map with {f.nvars} rows of one length")
    one = (0,) * ncols
    units = [one[:j] + (1,) + one[j + 1:] for j in range(ncols)]
    for row in m:
        check_raw(F, row)
    images = [{u: x for u, x in zip(units, row) if x} for row in m]
    return MultiPoly.from_raw(F, ncols, _substitute_raw(F, f.terms, images,
                                                        one))


def _binary_images(forms):
    """Raw terms of binary forms, given by their raw coefficients, keyed
    (j,) with j the exponent of V: the form is homogeneous, so the
    exponent of U follows from it."""
    return [{(j,): r for j, r in enumerate(h) if r} for h in forms]


def _binary_form(F, degree, terms):
    """The binary form of the given degree with raw terms keyed (j,)."""
    return BinaryForm.from_raw(F, degree, [terms.get((j,), F.rzero)
                                           for j in range(degree + 1)])


_CURVE_IMAGES = {}


def compose_with_curve(f: MultiPoly, curve) -> "BinaryForm":
    """f(h_0(U,V), ..., h_n(U,V)) for binary forms h_i of one degree.  The
    image of X^e is the image of X^(e - e_i) times h_i, i the first
    variable of X^e, and the images of the last few curves are kept, so
    a form and its partials share them."""
    if len(curve) != f.nvars:
        raise ValueError(f"curve has {len(curve)} components, f has "
                         f"{f.nvars} variables")
    if not f.is_homogeneous():
        raise ValueError("compose_with_curve needs a homogeneous polynomial")
    degs = {h.degree for h in curve}
    if len(degs) != 1:
        raise ValueError(f"curve components have mixed degrees {sorted(degs)}")
    F = f.field
    for h in curve:
        check_field(F, h)
    key = (F, tuple(h.coeffs for h in curve))
    images = _binary_images(key[1])
    memo = _CURVE_IMAGES.get(key)
    if memo is None:
        zero = (0,) * len(curve)
        memo = _CURVE_IMAGES[key] = {zero: {(0,): F.rone}}
        memo.update((zero[:i] + (1,) + zero[i + 1:], image)
                    for i, image in enumerate(images))
        if len(_CURVE_IMAGES) > 4:
            _CURVE_IMAGES.pop(next(iter(_CURVE_IMAGES)))
    radd, rmul = F.radd, F.rmul
    degree = f.total_degree * degs.pop()
    out = [F.rzero] * (degree + 1)
    for e, c in f.terms.items():
        for (j,), v in _monomial_image(F, e, images, memo).items():
            v = rmul(c, v)
            out[j] = radd(out[j], v) if out[j] else v
    return BinaryForm.from_raw(F, degree, out)


def _monomial_image(F, e, images, memo):
    image = memo.get(e)
    if image is None:
        i = next(i for i, k in enumerate(e) if k)
        image = memo[e] = _raw_mul(F, _monomial_image(
            F, e[:i] + (e[i] - 1,) + e[i + 1:], images, memo), images[i])
    return image


def map_curve(field, m, curve):
    """The curve M.h: component i is sum_j m[i][j] h_j, for binary forms
    h_j of one degree and a matrix M of raw values over `field`, a
    subfield of theirs; a zero row gives the zero form of the curve's
    degree."""
    F, degree, n = curve[0].field, curve[0].degree, len(curve)
    if any(len(row) != n for row in m):
        raise ValueError(f"expected a map with {n} columns")
    for h in curve:
        check_field(F, h)
    origin = (0,) * n
    units = [origin[:j] + (1,) + origin[j + 1:] for j in range(n)]
    images = _binary_images(h.coeffs for h in curve)
    for row in m:
        check_raw(field, row)
    return [_binary_form(F, degree, _substitute_raw(
                F, {u: r for u, x in zip(units, row)
                    if (r := embed(field, x, F))}, images, (0,)))
            for row in m]


# -- binary forms --------------------------------------------------------


class BinaryForm:
    """Homogeneous form of fixed degree in (U, V).

    coeffs[j] is the raw coefficient of U^(d-j) V^j.  The zero form of
    any (possibly negative) degree has empty or all-zero coefficients.
    The constructor takes Scalars or ints, `from_raw` raw values.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree, coeffs):
        self._set(field, degree, [field.scalar(c).raw for c in coeffs])

    @classmethod
    def from_raw(cls, field, degree, coeffs):
        b = cls.__new__(cls)
        b._set(field, degree, coeffs)
        return b

    def _set(self, field, degree, coeffs):
        coeffs = tuple(coeffs)
        if degree >= 0 and len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field, degree):
        return cls.from_raw(field, degree, (field.rzero,) * (degree + 1))

    @classmethod
    def monomial(cls, field, i, j):
        """The form U^i V^j."""
        c = [field.rzero] * (i + j + 1)
        c[j] = field.rone
        return cls.from_raw(field, i + j, c)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BinaryForm) or self.field is not other.field:
            return NotImplemented
        if self.degree != other.degree:
            return self.is_zero() and other.is_zero()
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_zero():
            return hash((id(self.field), "zero"))
        return hash((id(self.field), self.degree, self.coeffs))

    def __add__(self, other):
        F = self.field
        check_field(F, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} vs {other.degree}")
        return BinaryForm.from_raw(F, self.degree, [
            F.radd(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        F = self.field
        return BinaryForm.from_raw(F, self.degree,
                                   [F.rneg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, raw):
        F = self.field
        return BinaryForm.from_raw(F, self.degree,
                                   [F.rmul(x, raw) for x in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        F = self.field
        check_field(F, other)
        return _binary_form(F, self.degree + other.degree, _raw_mul(
            F, *_binary_images([self.coeffs, other.coeffs])))

    def promote(self, degree):
        """Reinterpret a zero form at the given degree; no-op otherwise."""
        if self.degree == degree:
            return self
        if self.is_zero():
            return BinaryForm.zero(self.field, degree)
        raise ValueError(f"cannot promote nonzero form of degree "
                         f"{self.degree} to {degree}")

    def evaluate(self, u, v):
        """Value at raw (u, v), as a raw value: Horner's rule in v from
        the V^d coefficient down, with a running power of u, so that at
        u = 1 each coefficient costs one product and one sum."""
        F = self.field
        check_raw(F, (u, v))
        *rest, acc = self.coeffs or (F.rzero,)
        upow = F.rone
        for c in reversed(rest):
            if u != F.rone:
                upow = F.rmul(upow, u)
                c = F.rmul(c, upow)
            acc = F.radd(F.rmul(acc, v), c)
        return acc

    def v_content(self):
        """Largest m with V^m dividing the form (roots at (1:0))."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return self.degree

    def dehomogenize(self):
        """b(u, 1) as a univariate polynomial (loses roots at (1:0))."""
        return UPoly(self.field, self.coeffs[::-1])

    @classmethod
    def homogenize(cls, upoly, degree):
        """U-major rehomogenization of a univariate polynomial."""
        F = upoly.field
        coeffs = [F.rzero] * (degree + 1)
        for i, c in enumerate(upoly.coeffs):
            coeffs[degree - i] = c
        return cls.from_raw(F, degree, coeffs)

    def map_field(self, target):
        if target is self.field:
            return self
        F = self.field
        return BinaryForm.from_raw(target, self.degree, [
            embed(F, c, target) for c in self.coeffs])

    def reparametrize(self, a, b, c, d):
        """Substitute U -> aU + bV, V -> cU + dV, for raw a, b, c, d."""
        F = self.field
        check_raw(F, (a, b, c, d))
        terms = {(self.degree - j, j): x
                 for j, x in enumerate(self.coeffs) if x}
        out = _substitute_raw(F, terms, _binary_images([(a, b), (c, d)]),
                              (0,))
        return _binary_form(F, self.degree, out)

    def __str__(self):
        items = [((self.degree - j, j), c)
                 for j, c in enumerate(self.coeffs) if c]
        return _terms_to_string(self.field, items, ["U", "V"])

    def __repr__(self):
        return f"BinaryForm({self})"


def resultant_bin(q: BinaryForm, c: BinaryForm):
    """Sylvester resultant, a raw value; zero iff q, c share a projective
    root."""
    F = q.field
    check_field(F, c)
    if q.is_zero() or c.is_zero():
        raise ValueError("resultant of a zero form")
    m, n = q.degree, c.degree
    z = F.rzero
    arow, brow = list(q.coeffs), list(c.coeffs)
    rows = ([[z] * i + arow + [z] * (n - 1 - i) for i in range(n)]
            + [[z] * i + brow + [z] * (m - 1 - i) for i in range(m)])
    return linalg.det(F, rows)


def gcd_bin(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """Monic gcd; constant iff no common projective root."""
    check_field(a.field, b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero forms")
    if a.is_zero():
        return _monic_bin(b)
    if b.is_zero():
        return _monic_bin(a)
    vc = min(a.v_content(), b.v_content())
    g = a.dehomogenize().gcd(b.dehomogenize())
    core = BinaryForm.homogenize(g, g.degree)
    vterm = BinaryForm.monomial(a.field, 0, vc) if vc else None
    return core * vterm if vterm else core


def _monic_bin(f):
    for c in f.coeffs:
        if c:
            return f.scale(f.field.rinv(c))
    return f


def binary_roots(f: BinaryForm, max_ext: int):
    """Projective roots of a nonzero binary form over the extensions of
    its field of degree up to max_ext.

    Returns [(K, u, v, multiplicity)] with (u, v) normalized raw values
    of K, the root's least field: (1:0) first, then the roots (u:1) in
    `find_roots` order.
    """
    if f.is_zero():
        raise ValueError("roots of the zero form")
    F = f.field
    vc = f.v_content()
    out = [(F, F.rone, F.rzero, vc)] if vc else []
    deh = f.dehomogenize()
    if deh.degree > 0:
        out += [(r.field, r.value, r.field.rone, r.multiplicity)
                for r in find_roots(deh, max_ext)]
    return out


# -- Groebner bases -------------------------------------------------------
#
# The engine works on raw terms {exponents: raw coefficient}.  A basis
# entry is monic and stored once as (lead exponents, tail terms).


def _lead(f: MultiPoly):
    e = max(f.terms, key=_drl_key)
    return e, f.terms[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _monic(F, terms, lead):
    """Entry (lead, tail) of raw terms scaled to lead coefficient 1."""
    c = terms[lead]
    if c == F.rone:
        return lead, {e: v for e, v in terms.items() if e != lead}
    inv, rmul = F.rinv(c), F.rmul
    return lead, {e: rmul(v, inv) for e, v in terms.items() if e != lead}


def _entry(f: MultiPoly):
    return _monic(f.field, f.terms, _lead(f)[0])


def _normal_form(F, terms, entries):
    """Full normal form of raw terms modulo monic entries, as raw terms
    in descending degrevlex order.  The largest monomial left is popped
    from a heap and divided by the first entry (in list order) whose lead
    divides it, or kept in the remainder."""
    rsub, rmul, rneg = F.rsub, F.rmul, F.rneg
    work = dict(terms)
    heap = [(-sum(e), e[::-1]) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = heapq.heappop(heap)[1][::-1]
        c = work.pop(e, None)
        if c is None:
            continue  # cancelled, or pushed again after cancelling
        for lead, tail in entries:
            if all(a <= b for a, b in zip(lead, e)):
                shift = _exp_sub(e, lead)
                for t, d in tail.items():
                    key = tuple(a + b for a, b in zip(t, shift))
                    v = rmul(c, d)
                    if key in work:
                        v = rsub(work[key], v)
                        if v:
                            work[key] = v
                        else:
                            del work[key]
                    else:
                        work[key] = rneg(v)
                        heapq.heappush(heap, (-sum(key), key[::-1]))
                break
        else:
            rem[e] = c
    return rem


def _spair(F, f, g, lcm):
    """S-polynomial of the monic entries f and g, whose leads have the
    given lcm."""
    (lf, tf), (lg, tg) = f, g
    sf, sg = _exp_sub(lcm, lf), _exp_sub(lcm, lg)
    out = {tuple(a + b for a, b in zip(t, sf)): c for t, c in tf.items()}
    for t, c in tg.items():
        key = tuple(a + b for a, b in zip(t, sg))
        if key in out:
            v = F.rsub(out[key], c)
            if v:
                out[key] = v
            else:
                del out[key]
        else:
            out[key] = F.rneg(c)
    return out


def _gm_update(leads, basis, pairs, h):
    """Gebauer–Möller update of the pairs and of the minimal basis (index
    lists into `leads`, changed in place) when entry h joins (Becker and
    Weispfenning, *Gröbner Bases*, §5.5)."""
    lh = leads[h]
    new = [(_exp_lcm(lh, leads[g]), g) for g in basis]
    # criteria M and F: a new pair goes when the lcm of a later one, or
    # of one already kept, divides its lcm (of equal lcms the last stays)
    kept = []
    for k, (lcm, g) in enumerate(new):
        coprime = all(not (a and b) for a, b in zip(lh, leads[g]))
        if coprime or not any(_divides(m, lcm) for m, _ in new[k + 1:]) \
                and not any(_divides(m, lcm) for m, _, _ in kept):
            kept.append((lcm, g, coprime))
    # criterion B: an old pair goes when lead(h) divides its lcm strictly
    # inside, i.e. its lcm differs from both lcms with h
    pairs[:] = [(d, lcm, i, j) for d, lcm, i, j in pairs
                if not _divides(lh, lcm)
                or _exp_lcm(leads[i], lh) == lcm
                or _exp_lcm(leads[j], lh) == lcm]
    # coprime leads: Buchberger's product criterion
    pairs.extend((sum(lcm), lcm, g, h) for lcm, g, coprime in kept
                 if not coprime)
    basis[:] = [g for g in basis if not _divides(lh, leads[g])] + [h]


def groebner_basis(gens):
    """Reduced degrevlex Groebner basis, monic, by ascending lead.

    Buchberger's algorithm with the Gebauer–Möller pair criteria
    (Gebauer and Möller 1988, *On an installation of Buchberger's
    algorithm*).  The generators join in ascending lead order, each
    reduced first; S-pairs are taken by (lcm degree, lcm).  Reduction
    runs against the current minimal basis only: an entry leaves it when
    a newer lead divides its own.  The reduced basis is unique, so the
    criteria and the reduction order change the cost, not the answer.
    A constant that joins ends the run: [1] is the reduced basis of the
    unit ideal.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    F, nvars = gens[0].field, gens[0].nvars
    entries = []  # every entry made; pairs and basis index it
    leads = []
    basis = []
    pairs = []  # (lcm degree, lcm, i, j)

    def spairs():
        while pairs:
            pair = min(pairs)
            pairs.remove(pair)
            _, lcm, i, j = pair
            yield _spair(F, entries[i], entries[j], lcm)

    ordered = sorted(gens, key=lambda g: _drl_key(_lead(g)[0]))
    for terms in itertools.chain((g.terms for g in ordered), spairs()):
        rem = _normal_form(F, terms, [entries[i] for i in basis])
        if not rem:
            continue
        lead = next(iter(rem))
        if not any(lead):
            return [MultiPoly.constant(F, nvars, 1)]
        entries.append(_monic(F, rem, lead))
        leads.append(lead)
        _gm_update(leads, basis, pairs, len(entries) - 1)
    # inter-reduce tails; a lead never divides a smaller monomial, so
    # each entry may stay in the list it is reduced by
    final = [entries[i] for i in basis]
    out = []
    for lead, tail in sorted(final, key=lambda t: _drl_key(t[0])):
        terms = {lead: F.rone}
        terms.update(_normal_form(F, tail, final))
        out.append(MultiPoly.from_raw(F, nvars, terms))
    return out


def eliminant(basis):
    """Monic generator of I ∩ k[x_0], as a UPoly in the first variable,
    for the ideal I of a nonempty reduced Groebner basis; None when V(I)
    is infinite over the closure.

    Finiteness theorem: V(I) is finite iff every variable has a pure
    power among the leading monomials.  Then k[x]/I has the standard
    monomials as a basis, D of them, and the eliminant is the first
    linear dependency among the normal forms of 1, x_0, ..., x_0^D (Cox,
    Little and O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 5 §3).
    """
    F, nvars = basis[0].field, basis[0].nvars
    entries = [_entry(g) for g in basis]
    leads = [lead for lead, _ in entries]
    box = []
    for i in range(nvars):
        pure = [e[i] for e in leads if not any(e[:i] + e[i + 1:])]
        if not pure:
            return None
        box.append(min(pure))
    dim = sum(1 for e in itertools.product(*map(range, box))
              if not any(_divides(lead, e) for lead in leads))
    normal_forms = [_normal_form(F, {(k,) + (0,) * (nvars - 1): F.rone},
                                 entries)
                    for k in range(dim + 1)]
    monos = sorted({e for g in normal_forms for e in g})
    rows = [[g.get(e, F.rzero) for g in normal_forms] for e in monos]
    return UPoly(F, linalg.kernel(F, rows, dim + 1)[0])


def is_unit_ideal(gens) -> bool:
    """True iff 1 lies in the ideal generated by gens."""
    basis = groebner_basis(gens)
    return any(sum(_lead(g)[0]) == 0 for g in basis)


def scalar_from_string(text: str, field: FieldSpec) -> Scalar:
    """Parse one field element in the polynomial expression syntax: with
    no variables every term the parser builds is constant."""
    f = _PolyParser(text, field, {}).parse()
    return field.from_raw(f.terms.get((), field.rzero))
