"""Exact polynomial algebra: multivariate forms, binary forms in (U, V),
parsing, resultants, gcd, and Groebner bases for unit-ideal tests and
eliminants.

Multivariate polynomials are sparse maps from exponent vectors to
nonzero scalars.  Their arithmetic and evaluation never assume that the
exponents are non-negative, so a Laurent form in (U, V) is a MultiPoly
in two variables (see `constructions`).  Binary forms of degree d store
the coefficient of U^(d-j) V^j at index j.
"""
from __future__ import annotations

import heapq
import itertools

from . import linalg
from .errors import ParseError
from .fields import FieldSpec, Scalar, UPoly, embed


class MultiPoly:
    """Sparse polynomial in nvars variables over one field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: field.scalar(value)})

    @classmethod
    def variable(cls, field, nvars, i, exp=1):
        e = [0] * nvars
        e[i] = exp
        return cls(field, nvars, {tuple(e): field.one})

    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def _check(self, other):
        if self.field is not other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, self.field.zero) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return MultiPoly(self.field, self.nvars, t)

    def __neg__(self):
        return MultiPoly(self.field, self.nvars,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = self.field.scalar(other)
            if not c:
                return MultiPoly.zero(self.field, self.nvars)
            return MultiPoly(self.field, self.nvars,
                             {e: v * c for e, v in self.terms.items()})
        self._check(other)
        out = {}
        z = self.field.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, z) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = MultiPoly.constant(self.field, self.nvars, 1)
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
        """Value at a tuple of scalars."""
        acc = self.field.zero
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term = term * x**k
            acc = acc + term
        return acc

    def partial(self, i):
        out = {}
        F = self.field
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            coeff = c * e[i]
            if not coeff:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = coeff
        return MultiPoly(F, self.nvars, out)

    def map_field(self, target):
        if target is self.field:
            return self
        return MultiPoly(target, self.nvars,
                         {e: embed(c, target) for e, c in self.terms.items()})

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

_VAR_NAMES = None  # variables print as X0..Xn; binary forms as U, V


def _monomial_string(exps, names):
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _coeff_string(c):
    s = str(c)
    if "+" in s[1:] or "-" in s[1:] or "*" in s:
        return f"({s})", False
    if s.startswith("-"):
        return s[1:], True
    return s, False


def _terms_to_string(items, names):
    if not items:
        return "0"
    out = []
    for idx, (exps, c) in enumerate(items):
        mono = _monomial_string(exps, names)
        cs, negative = _coeff_string(c)
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
    return _terms_to_string(_sorted_terms_desc(f), names)


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
                from fractions import Fraction
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


def parse_poly(text: str, nvars: int, field: FieldSpec,
               require_homogeneous: bool = True) -> MultiPoly:
    """Parse a polynomial in X0..X{nvars-1} over the given field."""
    lookup = {f"X{i}": i for i in range(nvars)}
    f = _PolyParser(text, field, lookup).parse()
    if require_homogeneous and not f.is_homogeneous():
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
    coeffs = [field.zero] * (d + 1)
    for (i, j), c in f.terms.items():
        coeffs[j] = c
    return BinaryForm(field, d, coeffs)


# -- operations on MultiPoly ----------------------------------------------


def partial_derivative(f: MultiPoly, i: int) -> MultiPoly:
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range")
    return f.partial(i)


def linear_substitute(f: MultiPoly, matrix) -> MultiPoly:
    """f(M.X) for an invertible nvars x nvars scalar matrix M."""
    F = f.field
    if any(len(row) != f.nvars for row in matrix):
        raise ValueError(f"expected a {f.nvars} x {f.nvars} matrix")
    if linalg.inverse(F, [[F.scalar(c).raw for c in row]
                          for row in matrix]) is None:
        raise ValueError("substitution matrix is singular")
    return substitute_linear_map(f, matrix)


def _raw_mul(F, a, b):
    """Product of raw term dicts {exponents: raw coefficient}."""
    radd, rmul = F.radd, F.rmul
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
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
    """f(M.Y): substitute X_i = sum_j m[i][j] * Y_j.  M may be
    rectangular, as for a hyperplane section (n + 1 -> n variables)."""
    F = f.field
    ncols = len(m[0])
    if len(m) != f.nvars or {len(row) for row in m} != {ncols}:
        raise ValueError(f"expected a map with {f.nvars} rows of one length")
    one = (0,) * ncols
    units = [one[:j] + (1,) + one[j + 1:] for j in range(ncols)]
    images = [{u: r for u, x in zip(units, row) if (r := F.scalar(x).raw)}
              for row in m]
    out = _substitute_raw(F, {e: c.raw for e, c in f.terms.items()},
                          images, one)
    return MultiPoly(F, ncols, {e: Scalar(F, c) for e, c in out.items()})


def _binary_images(F, forms):
    """Raw terms of binary forms, given by their coefficients, keyed (j,)
    with j the exponent of V: the form is homogeneous, so the exponent of
    U follows from it."""
    return [{(j,): r for j, r in enumerate(F.scalar(c).raw for c in h) if r}
            for h in forms]


def _binary_from_raw(F, degree, terms):
    """The binary form of the given degree with raw terms keyed (j,)."""
    z = F.rzero
    return BinaryForm(F, degree, [Scalar(F, terms.get((j,), z))
                                  for j in range(degree + 1)])


def compose_with_curve(f: MultiPoly, curve) -> "BinaryForm":
    """f(h_0(U,V), ..., h_n(U,V)) for binary forms h_i of one degree."""
    if len(curve) != f.nvars:
        raise ValueError(f"curve has {len(curve)} components, f has "
                         f"{f.nvars} variables")
    if not f.is_homogeneous():
        raise ValueError("compose_with_curve needs a homogeneous polynomial")
    degs = {h.degree for h in curve}
    if len(degs) != 1:
        raise ValueError(f"curve components have mixed degrees {sorted(degs)}")
    F = f.field
    out = _substitute_raw(F, {e: c.raw for e, c in f.terms.items()},
                          _binary_images(F, [h.coeffs for h in curve]), (0,))
    return _binary_from_raw(F, f.total_degree * degs.pop(), out)


def map_curve(m, curve):
    """The curve M.h: component i is sum_j m[i][j] h_j, for binary forms
    h_j of one degree and a scalar matrix M over a subfield of theirs; a
    zero row gives the zero form of the curve's degree."""
    F, degree, n = curve[0].field, curve[0].degree, len(curve)
    if any(len(row) != n for row in m):
        raise ValueError(f"expected a map with {n} columns")
    origin = (0,) * n
    units = [origin[:j] + (1,) + origin[j + 1:] for j in range(n)]
    images = _binary_images(F, [h.coeffs for h in curve])
    return [_binary_from_raw(F, degree, _substitute_raw(
                F, {u: r for u, x in zip(units, row)
                    if (r := embed(x, F).raw)}, images, (0,)))
            for row in m]


# -- binary forms --------------------------------------------------------


class BinaryForm:
    """Homogeneous form of fixed degree in (U, V).

    coeffs[j] is the coefficient of U^(d-j) V^j.  The zero form of any
    (possibly negative) degree has empty or all-zero coefficients.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree, coeffs):
        coeffs = tuple(coeffs)
        if degree >= 0 and len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field, degree):
        if degree < 0:
            return cls(field, degree, ())
        return cls(field, degree, (field.zero,) * (degree + 1))

    @classmethod
    def one(cls, field):
        return cls(field, 0, (field.one,))

    @classmethod
    def from_scalars(cls, field, scalars):
        vals = [field.scalar(s) for s in scalars]
        return cls(field, len(vals) - 1, vals)

    @classmethod
    def monomial(cls, field, i, j, value=1):
        c = [field.zero] * (i + j + 1)
        c[j] = field.scalar(value)
        return cls(field, i + j, c)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def coefficient(self, j):
        """Coefficient of U^(degree-j) V^j."""
        return self.coeffs[j]

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
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} vs {other.degree}")
        return BinaryForm(self.field, self.degree,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm(self.field, self.degree, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = self.field.scalar(other)
            return BinaryForm(self.field, self.degree,
                              [x * c for x in self.coeffs])
        F = self.field
        d = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return BinaryForm.zero(F, d)
        out = [F.zero] * (d + 1)
        for j1, c1 in enumerate(self.coeffs):
            if not c1:
                continue
            for j2, c2 in enumerate(other.coeffs):
                if c2:
                    out[j1 + j2] = out[j1 + j2] + c1 * c2
        return BinaryForm(F, d, out)

    __rmul__ = __mul__

    def promote(self, degree):
        """Reinterpret a zero form at the given degree; no-op otherwise."""
        if self.degree == degree:
            return self
        if self.is_zero():
            return BinaryForm.zero(self.field, degree)
        raise ValueError(f"cannot promote nonzero form of degree "
                         f"{self.degree} to {degree}")

    def evaluate(self, u, v):
        F = self.field
        u, v = F.scalar(u), F.scalar(v)
        acc = F.zero
        for j, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * u**(self.degree - j) * v**j
        return acc

    def v_content(self):
        """Largest m with V^m dividing the form (roots at (1:0))."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return self.degree

    def dehomogenize(self):
        """b(u, 1) as a univariate polynomial (loses roots at (1:0))."""
        return UPoly(self.field,
                     [c.raw for c in reversed(self.coeffs)])

    @classmethod
    def homogenize(cls, upoly, degree):
        """U-major rehomogenization of a univariate polynomial."""
        F = upoly.field
        coeffs = [F.zero] * (degree + 1)
        for i, c in enumerate(upoly.coeffs):
            coeffs[degree - i] = Scalar(F, c)
        return cls(F, degree, coeffs)

    def map_field(self, target):
        if target is self.field:
            return self
        return BinaryForm(target, self.degree,
                          [embed(c, target) for c in self.coeffs])

    def reparametrize(self, a, b, c, d):
        """Substitute U -> aU + bV, V -> cU + dV."""
        F = self.field
        terms = {(self.degree - j, j): x.raw
                 for j, x in enumerate(self.coeffs) if x}
        out = _substitute_raw(F, terms, _binary_images(F, [(a, b), (c, d)]),
                              (0,))
        return _binary_from_raw(F, self.degree, out)

    def __str__(self):
        items = [((self.degree - j, j), c)
                 for j, c in enumerate(self.coeffs) if c]
        return _terms_to_string(items, None) if not items else \
            _terms_to_string(items, ["U", "V"])

    def __repr__(self):
        return f"BinaryForm({self})"


def resultant_bin(q: BinaryForm, c: BinaryForm) -> Scalar:
    """Sylvester resultant; zero iff q, c share a projective root."""
    if q.is_zero() or c.is_zero():
        raise ValueError("resultant of a zero form")
    F = q.field
    m, n = q.degree, c.degree
    if m == 0 or n == 0:
        # one form is a nonzero constant: no projective roots at all
        const = (q.coeffs[0] if m == 0 else c.coeffs[0])
        other = n if m == 0 else m
        return const**other
    z = F.rzero
    arow = [x.raw for x in q.coeffs]
    brow = [x.raw for x in c.coeffs]
    rows = ([[z] * i + arow + [z] * (n - 1 - i) for i in range(n)]
            + [[z] * i + brow + [z] * (m - 1 - i) for i in range(m)])
    return Scalar(F, linalg.det(F, rows))


def gcd_bin(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """Monic gcd; constant iff no common projective root."""
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
    for j, c in enumerate(f.coeffs):
        if c:
            return f * c.inverse()
    return f


def binary_roots(f: BinaryForm, max_ext: int):
    """Projective roots of a nonzero binary form over extensions.

    Returns [(u, v, ext_degree, multiplicity)] with (u, v) normalized
    scalars in F_{q^ext}.
    """
    from .fields import find_roots
    if f.is_zero():
        raise ValueError("roots of the zero form")
    F = f.field
    out = []
    vc = f.v_content()
    if vc:
        out.append((F.one, F.zero, 1, vc))
    deh = f.dehomogenize()
    if deh.degree > 0:
        for r in find_roots(deh, max_ext):
            out.append((r.value, r.value.field.one, r.ext_degree,
                        r.multiplicity))
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
    return _monic(f.field, {e: c.raw for e, c in f.terms.items()},
                  _lead(f)[0])


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
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    F, nvars = gens[0].field, gens[0].nvars
    entries = []  # every entry made; pairs and basis index it
    leads = []
    basis = []
    pairs = []  # (lcm degree, lcm, i, j)

    def add(terms):
        rem = _normal_form(F, terms, [entries[i] for i in basis])
        if rem:
            entries.append(_monic(F, rem, next(iter(rem))))
            leads.append(entries[-1][0])
            _gm_update(leads, basis, pairs, len(entries) - 1)

    for g in sorted(gens, key=lambda g: _drl_key(_lead(g)[0])):
        add({e: c.raw for e, c in g.terms.items()})
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, lcm, i, j = pair
        add(_spair(F, entries[i], entries[j], lcm))
    # inter-reduce tails; a lead never divides a smaller monomial, so
    # each entry may stay in the list it is reduced by
    final = [entries[i] for i in basis]
    out = []
    for lead, tail in sorted(final, key=lambda t: _drl_key(t[0])):
        terms = {lead: Scalar(F, F.rone)}
        for e, c in _normal_form(F, tail, final).items():
            terms[e] = Scalar(F, c)
        out.append(MultiPoly(F, nvars, terms))
    return out


def reduce_poly(f: MultiPoly, basis) -> MultiPoly:
    """Full normal form of f modulo the basis (deterministic)."""
    F = f.field
    rem = _normal_form(F, {e: c.raw for e, c in f.terms.items()},
                       [_entry(g) for g in basis])
    return MultiPoly(F, f.nvars, {e: Scalar(F, c) for e, c in rem.items()})


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
    """Parse one field element in the polynomial expression syntax."""
    f = _PolyParser(text, field, {}).parse()
    if not f.is_zero() and set(f.terms) != {()}:
        raise ParseError(f"expected a constant, got {text!r}")
    return f.terms.get((), field.zero)
