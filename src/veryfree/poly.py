"""Exact polynomial algebra: multivariate forms, binary forms in (U, V),
homogeneous Laurent expressions, parsing, resultants, gcd, and Groebner
bases for unit-ideal tests.

Multivariate polynomials are sparse maps from exponent vectors to
nonzero scalars.  Binary forms of degree d store the coefficient of
U^(d-j) V^j at index j.
"""
from __future__ import annotations

from . import linalg
from .errors import ParseError
from .fields import FieldSpec, Scalar, UPoly


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

    def __hash__(self):
        return hash((id(self.field), self.nvars,
                     frozenset(self.terms.items())))

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

    def raw_terms(self):
        """[(raw coefficient, exponent tuple)] for fast evaluation loops."""
        return [(c.raw, e) for e, c in self.terms.items()]

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

    def map_field(self, target, embed_fn):
        return MultiPoly(target, self.nvars,
                         {e: embed_fn(c) for e, c in self.terms.items()})

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
    n = f.nvars
    raw = [[f.field.scalar(matrix[i][j]).raw for j in range(n)]
           for i in range(n)]
    if linalg.inverse(f.field, raw) is None:
        raise ValueError("substitution matrix is singular")
    return substitute_linear_map(f, _matrix_to_row_images(f.field, matrix), n)


def _matrix_to_row_images(field, matrix):
    # row i of M gives X_i = sum_j M[i][j] X_j; substitute_linear_map wants
    # rows[j][i] = coefficient of Y_j in the image of X_i
    n = len(matrix)
    return [[field.scalar(matrix[i][j]) for i in range(n)] for j in range(n)]


def substitute_linear_map(f: MultiPoly, rows, new_nvars: int) -> MultiPoly:
    """Substitute X_i = sum_j rows[j][i] * Y_j into f."""
    F = f.field
    images = []
    for i in range(f.nvars):
        t = {}
        for j in range(new_nvars):
            c = F.scalar(rows[j][i])
            if c:
                e = [0] * new_nvars
                e[j] = 1
                t[tuple(e)] = c
        images.append(MultiPoly(F, new_nvars, t))
    power_cache = [{} for _ in range(f.nvars)]

    def img_pow(i, k):
        if k == 0:
            return MultiPoly.constant(F, new_nvars, 1)
        cache = power_cache[i]
        if k not in cache:
            cache[k] = img_pow(i, k - 1) * images[i]
        return cache[k]

    out = MultiPoly.zero(F, new_nvars)
    for e, c in f.terms.items():
        term = MultiPoly.constant(F, new_nvars, c)
        for i, k in enumerate(e):
            if k:
                term = term * img_pow(i, k)
        out = out + term
    return out


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
    d = degs.pop()
    F = f.field
    target_deg = f.total_degree * d
    power_cache = [{} for _ in curve]

    def h_pow(i, k):
        if k == 0:
            return BinaryForm.one(F)
        cache = power_cache[i]
        if k not in cache:
            cache[k] = h_pow(i, k - 1) * curve[i]
        return cache[k]

    acc = BinaryForm.zero(F, target_deg)
    for e, c in f.terms.items():
        term = BinaryForm.constant(F, c)
        for i, k in enumerate(e):
            if k:
                term = term * h_pow(i, k)
        acc = acc + term.promote(target_deg)
    return acc


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
    def constant(cls, field, value):
        return cls(field, 0, (field.scalar(value),))

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

    def __pow__(self, n):
        result = BinaryForm.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def map_field(self, target, embed_fn):
        return BinaryForm(target, self.degree,
                          [embed_fn(c) for c in self.coeffs])

    def reparametrize(self, a, b, c, d):
        """Substitute U -> aU + bV, V -> cU + dV."""
        F = self.field
        row_u = BinaryForm.from_scalars(F, [a, b])
        row_v = BinaryForm.from_scalars(F, [c, d])
        acc = BinaryForm.zero(F, self.degree)
        for j, coeff in enumerate(self.coeffs):
            if coeff:
                acc = acc + coeff * (row_u**(self.degree - j) * row_v**j)
        return acc

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
    rows = sylvester_rows([x.raw for x in q.coeffs],
                          [x.raw for x in c.coeffs], F.rzero)
    return Scalar(F, linalg.det(F, rows))


def sylvester_rows(arow, brow, zero):
    """Rows of the Sylvester matrix of two coefficient lists (leading
    coefficient first); entries are raw scalars or UPolys alike."""
    m, n = len(arow) - 1, len(brow) - 1
    return ([[zero] * i + arow + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + brow + [zero] * (m - 1 - i) for i in range(m)])


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


def binary_roots(f: BinaryForm, max_ext: int, budget: int = 10**6):
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
        for r in find_roots(deh, max_ext, budget):
            out.append((r.value, r.value.field.one, r.ext_degree,
                        r.multiplicity))
    return out


# -- Laurent forms -------------------------------------------------------


class LaurentForm:
    """Homogeneous Laurent expression: terms U^i V^j with i + j fixed."""

    __slots__ = ("field", "total_degree", "terms")

    def __init__(self, field, total_degree, terms):
        clean = {}
        for (i, j), c in terms.items():
            if i + j != total_degree:
                raise ValueError(f"term U^{i}V^{j} breaks homogeneity "
                                 f"(total degree {total_degree})")
            if c:
                clean[(i, j)] = c
        self.field = field
        self.total_degree = total_degree
        self.terms = clean

    @classmethod
    def zero(cls, field, total_degree):
        return cls(field, total_degree, {})

    @classmethod
    def monomial(cls, field, i, j, value=1):
        return cls(field, i + j, {(i, j): field.scalar(value)})

    @classmethod
    def from_binary(cls, bf: BinaryForm):
        terms = {(bf.degree - j, j): c
                 for j, c in enumerate(bf.coeffs) if c}
        return cls(bf.field, bf.degree, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LaurentForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.total_degree == other.total_degree
                and self.terms == other.terms)

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.total_degree != other.total_degree:
            raise ValueError("adding Laurent forms of different degrees")
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, self.field.zero) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return LaurentForm(self.field, self.total_degree, t)

    def __neg__(self):
        return LaurentForm(self.field, self.total_degree,
                           {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = self.field.scalar(other)
            if not c:
                return LaurentForm.zero(self.field, self.total_degree)
            return LaurentForm(self.field, self.total_degree,
                               {e: v * c for e, v in self.terms.items()})
        if isinstance(other, BinaryForm):
            other = LaurentForm.from_binary(other)
        d = self.total_degree + other.total_degree
        out = {}
        z = self.field.zero
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, z) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentForm(self.field, d, out)

    __rmul__ = __mul__

    def shift(self, i, j):
        """Multiply by the monomial U^i V^j (j, i may be negative)."""
        return LaurentForm(self.field, self.total_degree + i + j,
                           {(a + i, b + j): c
                            for (a, b), c in self.terms.items()})

    def exact_divide(self, divisor: "LaurentForm"):
        """Quotient self/divisor as a LaurentForm, or None if not exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero Laurent form")
        if self.is_zero():
            return LaurentForm.zero(
                self.field, self.total_degree - divisor.total_degree)
        imin_n = min(i for (i, _) in self.terms)
        jmin_n = min(j for (_, j) in self.terms)
        imin_d = min(i for (i, _) in divisor.terms)
        jmin_d = min(j for (_, j) in divisor.terms)
        num = self.shift(-imin_n, -jmin_n)
        den = divisor.shift(-imin_d, -jmin_d)
        nb = num.to_binary()
        db = den.to_binary()
        qpoly, rem = nb.dehomogenize().divmod(db.dehomogenize())
        if not rem.is_zero():
            return None
        qdeg = nb.degree - db.degree
        quotient = BinaryForm.homogenize(qpoly, qdeg)
        # U/V contents must also divide exactly
        if quotient.dehomogenize().degree != qpoly.degree:
            return None
        q = LaurentForm.from_binary(quotient).shift(
            imin_n - imin_d, jmin_n - jmin_d)
        return q if q * divisor == self else None

    def to_binary(self) -> BinaryForm:
        if self.is_zero():
            return BinaryForm.zero(self.field, max(self.total_degree, 0))
        if any(i < 0 or j < 0 for (i, j) in self.terms):
            raise ValueError("negative exponents present")
        coeffs = [self.field.zero] * (self.total_degree + 1)
        for (i, j), c in self.terms.items():
            coeffs[j] = c
        return BinaryForm(self.field, self.total_degree, coeffs)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: -t[0][0])
        parts = []
        for (i, j), c in items:
            mono = []
            if i:
                mono.append(f"U^{i}" if i != 1 else "U")
            if j:
                mono.append(f"V^{j}" if j != 1 else "V")
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if mono and cs == "1":
                parts.append("*".join(mono))
            else:
                parts.append("*".join([cs] + mono) if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentForm({self})"


# -- Groebner bases -------------------------------------------------------


def _lead(f: MultiPoly):
    e = max(f.terms, key=_drl_key)
    return e, f.terms[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _mono_times(f, exps, coeff):
    return MultiPoly(f.field, f.nvars,
                     {tuple(a + b for a, b in zip(e, exps)): c * coeff
                      for e, c in f.terms.items()})


def reduce_poly(f: MultiPoly, basis) -> MultiPoly:
    """Full normal form of f modulo the basis (deterministic)."""
    work = dict(f.terms)
    remainder = {}
    leads = [_lead(g) for g in basis]
    while work:
        e = max(work, key=_drl_key)
        c = work.pop(e)
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                factor = c / gc
                shift = _exp_sub(e, ge)
                for e2, c2 in g.terms.items():
                    if e2 == ge:
                        continue
                    key = tuple(a + b for a, b in zip(e2, shift))
                    prev = work.get(key)
                    val = (prev - factor * c2) if prev is not None \
                        else -(factor * c2)
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[e] = c
    return MultiPoly(f.field, f.nvars, remainder)


def _spoly(f, g):
    fe, fc = _lead(f)
    ge, gc = _lead(g)
    l = _exp_lcm(fe, ge)
    return (_mono_times(f, _exp_sub(l, fe), fc.inverse())
            - _mono_times(g, _exp_sub(l, ge), gc.inverse()))


def groebner_basis(gens, order: str = "degrevlex"):
    """Reduced Groebner basis; S-pairs processed by (lcm degree, lcm)."""
    import heapq
    if order != "degrevlex":
        raise ValueError("only degrevlex is supported")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field, nvars = gens[0].field, gens[0].nvars
    basis = []
    for g in gens:
        _, c = _lead(g)
        basis.append(g * c.inverse())
    basis.sort(key=lambda g: _drl_key(_lead(g)[0]))
    leads = [_lead(g)[0] for g in basis]
    heap = []

    def push_pairs(new):
        for t in range(new):
            l = _exp_lcm(leads[new], leads[t])
            heapq.heappush(heap, (sum(l), l, t, new))

    for n in range(len(basis)):
        push_pairs(n)
    while heap:
        _, l, i, j = heapq.heappop(heap)
        ei, ej = leads[i], leads[j]
        if l == tuple(a + b for a, b in zip(ei, ej)):
            continue  # coprime leading monomials
        r = reduce_poly(_spoly(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        r = r * _lead(r)[1].inverse()
        basis.append(r)
        leads.append(_lead(r)[0])
        push_pairs(len(basis) - 1)
    # minimalize
    keep = []
    for i, g in enumerate(basis):
        ge = _lead(g)[0]
        if any(_divides(_lead(basis[j])[0], ge)
               for j in range(len(basis)) if j != i and
               (j in keep or j > i)):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others) if others else g
        if not r.is_zero():
            reduced.append(r * _lead(r)[1].inverse())
    reduced.sort(key=lambda g: _drl_key(_lead(g)[0]))
    return reduced


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
