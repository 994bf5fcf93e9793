"""Projective cubic hypersurfaces: smoothness certification, tangent
hyperplanes, plane sections, plane-cubic classification over the closure,
and lines / Eckardt points on cubic surfaces.

Smoothness is decided by one unit-ideal test (Groebner) on each stratum
X_0 = ... = X_{i-1} = 0, X_i = 1 of P^n; these strata partition P^n, so
each point is examined in exactly one affine chart.  A plane cubic is
classified by the tangent-cone table at its singular points, which come
from the same strata of P^2 and the same Groebner engine (an eliminant
in the first free coordinate, then the same step on the fibre over each
of its roots) unless the caller knows one: one point gives its row, two
or three a line and conic or a triangle, and an infinite locus a
repeated line, read at a rational point of it on the line X2 = 0.
Point scans are bounded cross-checks only.
The 27 lines come from the pencil of planes through one line, built
once over that line's field, and 16 Plücker transversals; the pencil's
tritangent planes and each residual conic's points on a coordinate line
are the roots of binary forms, each in its least field, from
`poly.binary_roots`.  That line, and the count of lines on the error
paths, come from a walk over the RREF cells of the Grassmannian: each
cell scans its smaller row, with one value per Frobenius orbit in its
first free coordinate, solves for the partner point on the other by a
linear condition and a gcd, and conjugates the lines found.
The Eckardt census meets one pair of lines per Frobenius orbit of pairs,
by their Plücker coordinates, and conjugates the point.  One zero scan
serves the line search, `surface_points`, `singular_points_scan` and the
base point of a conic: a form is restricted once to a row of P^n (pivot
coordinate 1, some coordinates 0, the rest free), each prefix of free
values is substituted once, and the last free coordinate is run through
Horner's rule; other forms are evaluated only at the zeros found.
`_zeros` walks the rows X_0 = ... = X_{i-1} = 0, X_i = 1 in
`proj_points` order.  Line and Eckardt censuses that pass are kept by
value in one bounded memo, `_CENSUS_CACHE`.

Points, hyperplanes and lines hold raw coordinates, normalized once, and
the scans build them from raw values with `from_raw`; their constructors
also take Scalars or ints, as polynomials do, and that is the only place
Scalars appear.  Charts, completion matrices and roots are raw.  A
hyperplane is its own chart: a section is returned alone, and the
hyperplane maps points, curves and lines between the section and P^n.
In P^2 one cross product gives both the line through two points and the
point where two lines meet.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import ExtensionCapExceeded, IntegrityError, ScanBudgetExceeded
from .fields import UPoly, _field_roots, _gcd, check_field, embed, \
    find_roots, join_field, make_field, DEFAULT_SCAN_BUDGET
from .poly import (BinaryForm, MultiPoly, binary_roots, eliminant, gcd_bin,
                   groebner_basis, is_unit_ideal, map_curve,
                   partial_derivative, resultant_bin, substitute_linear_map)

DEFAULT_EXT_CAP = 6
DEFAULT_LINE_FIELD_CAP = 4000  # largest field scanned for lines


# -- geometric primitives ------------------------------------------------


class _Projective:
    """A raw coordinate tuple up to scaling, normalized so its first
    nonzero entry is 1: the shared body of `ProjPoint` and `Hyperplane`.
    The constructor takes Scalars or ints, `from_raw` raw values."""

    __slots__ = ("field", "_v")

    def __init__(self, field, values):
        self._set(field, [field.scalar(c).raw for c in values])

    @classmethod
    def from_raw(cls, field, raw):
        obj = cls.__new__(cls)
        obj._set(field, raw)
        return obj

    def _set(self, field, raw):
        pivot = next((c for c in raw if c != field.rzero), None)
        if pivot is None:
            raise ValueError(self._ZERO)
        if pivot != field.rone:
            inv = field.rinv(pivot)
            raw = [field.rmul(c, inv) for c in raw]
        self.field = field
        self._v = tuple(raw)

    def sort_key(self):
        return tuple(self.field.lex_key(c) for c in self._v)

    def map_field(self, target):
        if target is self.field:
            return self
        F = self.field
        return type(self).from_raw(target, [embed(F, c, target)
                                            for c in self._v])

    def __eq__(self, other):
        return (type(other) is type(self) and self.field is other.field
                and self._v == other._v)

    def __hash__(self):
        return hash((id(self.field), self._v))

    def to_json(self):
        return [self.field.rstr(c) for c in self._v]

    def __str__(self):
        left, right = self._BRACKETS
        return left + ":".join(self.to_json()) + right

    def __repr__(self):
        return f"{type(self).__name__}{self}"


class ProjPoint(_Projective):
    """Point of P^n with raw coordinates."""

    __slots__ = ()
    _BRACKETS = "()"
    _ZERO = "projective point needs a nonzero coordinate"

    @property
    def coords(self):
        return self._v

    @property
    def n(self):
        return len(self._v) - 1


class Hyperplane(_Projective):
    """Hyperplane sum a_i X_i = 0 with raw coefficients a_i."""

    __slots__ = ()
    _BRACKETS = "[]"
    _ZERO = "hyperplane needs a nonzero coefficient"

    @property
    def coeffs(self):
        return self._v

    @property
    def pivot(self):
        return next(i for i, c in enumerate(self._v) if c != self.field.rzero)

    def contains(self, pt: ProjPoint) -> bool:
        check_field(self.field, pt)
        return _dot(self.field, self._v, pt.coords) == self.field.rzero

    def chart(self):
        """The parametrisation X = M.Y of the hyperplane by P^(n-1), as
        the rows of M in raw values: with pivot p (a_p = 1), the columns
        of M are e_k - a_k e_p for k != p in increasing order, so row p
        holds the -a_k and every other row is a unit row."""
        F, p, a = self.field, self.pivot, self._v
        others = [k for k in range(len(a)) if k != p]
        return tuple(tuple(F.rneg(a[k]) if i == p
                           else F.rone if i == k else F.rzero
                           for k in others)
                     for i in range(len(a)))

    def to_ambient(self, pt: ProjPoint):
        """The point of the hyperplane with plane coordinates pt: x_k =
        y_k for k != p in increasing order and x_p = -sum a_k y_k."""
        F, p, y = self.field, self.pivot, pt.coords
        check_field(F, pt)
        xp = F.rneg(_dot(F, self._v[:p] + self._v[p + 1:], y))
        return ProjPoint.from_raw(F, y[:p] + (xp,) + y[p:])

    def to_plane(self, pt: ProjPoint):
        F, p = self.field, self.pivot
        check_field(F, pt)
        return ProjPoint.from_raw(F, pt.coords[:p] + pt.coords[p + 1:])

    def curve_to_ambient(self, comps):
        """The ambient curve M.h of a curve h in plane coordinates, for
        M = `chart()`, over the field of its components."""
        return map_curve(self.field, self.chart(), comps)

    def line_in_plane(self, line: LineP3):
        """Coefficients of the image of a line of the hyperplane in plane
        coordinates (P^3 ambient only)."""
        check_field(self.field, line)
        a, b = [ProjPoint.from_raw(self.field, r) for r in line.rows]
        return plane_line_through(self.to_plane(a), self.to_plane(b))


def _dot(K, u, v):
    """Raw dot product, skipping zero entries."""
    zero, add, mul = K.rzero, K.radd, K.rmul
    acc = zero
    for a, b in zip(u, v):
        if a != zero and b != zero:
            acc = add(acc, mul(a, b))
    return acc


def _permutation_is_odd(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 1


# the index pairs ij of the Plücker coordinates p_ij, in order
_PAIRS = list(itertools.combinations(range(4), 2))

# the plane through a line and the coordinate point e_k, from the line's
# Plücker coordinates: det(a; b; e_k; X) has coefficient sign(i j k l) p_ij
# at X_l for {i, j, k, l} = {0, 1, 2, 3}; per k, the triples
# (l, index of ij among the Plücker coordinates, sign is -1)
_PLANES_THROUGH_E = [
    [(6 - i - j - k, n, _permutation_is_odd((i, j, k, 6 - i - j - k)))
     for n, (i, j) in enumerate(_PAIRS)
     if k not in (i, j)]
    for k in range(4)]


def _frobenius(F, values, e):
    """The raw values raised to the power e, a power of the
    characteristic.  That is a field automorphism, so 0 and 1 are fixed
    and cost no operation, and a normalized point stays normalized."""
    fixed = (F.rzero, F.rone)
    return tuple(c if c in fixed else F.rpow(c, e) for c in values)


def _plucker_frame(line):
    """What `_meet` reads of a line a: its dual Plücker vector, whose dot
    product with the Plücker vector of a line b is the pairing
    a01 b23 - a02 b13 + a03 b12 + a12 b03 - a13 b02 + a23 b01, and its
    planes through the coordinate points e_0, ..., e_3
    (`_PLANES_THROUGH_E`).  Each coordinate is negated once."""
    F = line.field
    signed = [(c, F.rneg(c) if c != F.rzero else c) for c in line.plucker]
    dual = tuple(signed[5 - k][k in (1, 4)] for k in range(6))
    planes = []
    for terms in _PLANES_THROUGH_E:
        plane = [F.rzero] * 4
        for l, ij, negate in terms:
            plane[l] = signed[ij][negate]
        planes.append(plane)
    return dual, planes


def _meet(F, frame, other) -> Optional[ProjPoint]:
    """Point where the line a with `_plucker_frame` frame meets the line
    `other`; None if they are skew, IntegrityError if they coincide.

    Two lines meet iff their Plücker coordinates pair to zero.  For
    meeting lines, the plane pi through a and e_k meets other, with rows
    c and d, in (pi . d) c - (pi . c) d; the first k whose plane does not
    hold other gives the point, and only coincident lines lie in all four
    planes.
    """
    dual, planes = frame
    zero = F.rzero
    if _dot(F, dual, other.plucker) != zero:
        return None
    c, d = other.rows
    for plane in planes:
        pc, pd = _dot(F, plane, c), _dot(F, plane, d)
        if pc != zero or pd != zero:
            sub, mul = F.rsub, F.rmul
            return ProjPoint.from_raw(F, [sub(mul(pd, x), mul(pc, y))
                                          for x, y in zip(c, d)])
    raise IntegrityError("coincident lines")


class LineP3:
    """Line in P^3 as a 2x4 matrix of raw values in reduced row echelon
    form, with the raw Plücker coordinates a_i b_j - a_j b_i of its rows
    a, b, for ij = 01, 02, 03, 12, 13, 23.  The constructor takes rows of
    Scalars or ints, `from_raw` rows of raw values and `from_plucker`
    raw Plücker coordinates."""

    __slots__ = ("field", "rows", "plucker")

    def __init__(self, field, rows):
        self._set(field, [[field.scalar(c).raw for c in r] for r in rows])

    @classmethod
    def from_raw(cls, field, rows):
        line = cls.__new__(cls)
        line._set(field, rows)
        return line

    def _set(self, field, rows):
        rr, pivots = linalg.rref(field, rows)
        if len(pivots) != 2:
            raise ValueError("line needs a rank-2 spanning matrix")
        self.field = field
        a, b = self.rows = tuple(tuple(r) for r in rr[:2])
        self.plucker = tuple(
            field.rsub(field.rmul(a[i], b[j]), field.rmul(a[j], b[i]))
            for i, j in _PAIRS)

    @classmethod
    def from_plucker(cls, field, p):
        """The line with raw Plücker coordinates p, up to scale, with no
        elimination: p scaled to make its first nonzero p_ij 1 gives the
        RREF rows a_t = p_tj and b_t = p_it (p_ts = -p_st, p_tt = 0)."""
        n = next(n for n, c in enumerate(p) if c != field.rzero)
        if p[n] != field.rone:
            inv = field.rinv(p[n])
            p = [field.rmul(c, inv) for c in p]
        i, j = _PAIRS[n]
        at = lambda s, t: (p[_PAIRS.index((s, t))] if s < t else field.rzero
                           if s == t else field.rneg(p[_PAIRS.index((t, s))]))
        line = cls.__new__(cls)
        line.field, line.plucker = field, tuple(p)
        line.rows = (tuple(at(t, j) for t in range(4)),
                     tuple(at(i, t) for t in range(4)))
        return line

    def conjugate(self, e):
        """The line with every coordinate raised to the power e, a power
        of the characteristic: rows and Plücker coordinates are mapped
        entry by entry (`_frobenius`), so the rows stay in RREF and no
        elimination is run."""
        F = self.field
        line = LineP3.__new__(LineP3)
        line.field = F
        line.rows = tuple(_frobenius(F, r, e) for r in self.rows)
        line.plucker = _frobenius(F, self.plucker, e)
        return line

    def param_forms(self):
        """Degree-1 binary forms of (U, V) -> U*row0 + V*row1."""
        F = self.field
        return [BinaryForm.from_raw(F, 1, (a, b)) for a, b in zip(*self.rows)]

    def map_field(self, target):
        """Entry by entry: an embedding keeps the rows in RREF."""
        if target is self.field:
            return self
        F = self.field
        line = LineP3.__new__(LineP3)
        line.field = target
        line.rows = tuple(tuple(embed(F, c, target) for c in r)
                          for r in self.rows)
        line.plucker = tuple(embed(F, c, target) for c in self.plucker)
        return line

    def sort_key(self):
        return tuple(tuple(self.field.lex_key(c) for c in r)
                     for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, LineP3) and self.field is other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def to_json(self):
        return [[self.field.rstr(c) for c in r] for r in self.rows]

    def __str__(self):
        return "Line" + str(self.to_json())


class Hypersurface:
    """Cubic hypersurface {f = 0} in P^n."""

    __slots__ = ("field", "n", "f", "_partials", "_smooth")

    def __init__(self, f: MultiPoly):
        if f.is_zero():
            raise ValueError("zero polynomial does not cut a hypersurface")
        if not f.is_homogeneous() or f.total_degree != 3:
            raise ValueError("hypersurface equation must be a cubic form")
        self.field = f.field
        self.n = f.nvars - 1
        self.f = f
        self._partials = None
        self._smooth = None

    @property
    def partials(self):
        if self._partials is None:
            self._partials = [partial_derivative(self.f, i)
                              for i in range(self.n + 1)]
        return self._partials

    def gradient(self, pt: ProjPoint):
        check_field(self.field, pt)
        return [g.evaluate(pt.coords) for g in self.partials]

    def contains(self, pt: ProjPoint) -> bool:
        check_field(self.field, pt)
        return not self.f.evaluate(pt.coords)

    def map_field(self, target):
        if target is self.field:
            return self
        return Hypersurface(self.f.map_field(target))

    def __repr__(self):
        return f"Hypersurface({self.f} = 0 in P^{self.n})"


# -- plane-cubic classification tags --------------------------------------

SMOOTH_CUBIC = "SmoothCubic"
NODAL_INTEGRAL = "NodalIntegral"
CUSPIDAL_INTEGRAL = "CuspidalIntegral"
LINE_CONIC_TRANSVERSE = "LineConicTransverse"
LINE_CONIC_TANGENT = "LineConicTangent"
THREE_LINES_TRIANGLE = "ThreeLinesTriangle"
THREE_LINES_CONCURRENT = "ThreeLinesConcurrent"
LINE_DOUBLE_LINE = "LineDoubleLine"
TRIPLE_LINE = "TripleLine"


@dataclass(frozen=True)
class CubicSectionClass:
    tag: str
    singular_point: Optional[ProjPoint]
    ext_degree_used: int

    def to_json(self):
        return {"tag": self.tag,
                "singular_point": (self.singular_point.to_json()
                                   if self.singular_point else None),
                "ext_degree_used": self.ext_degree_used}


# -- smoothness -----------------------------------------------------------


def _on_row(g: MultiPoly, pivot: int, free) -> MultiPoly:
    """g on the row X_pivot = 1 of P^n where the coordinates in `free`
    vary and all others are 0, as a polynomial in the free coordinates
    (in the order given).  Terms that differ only in the pivot exponent
    merge, which never happens for a form."""
    F = g.field
    dropped = [t for t in range(g.nvars) if t != pivot and t not in free]
    kept = {}
    for e, c in g.terms.items():
        for t in dropped:
            if e[t]:
                break
        else:
            key = tuple(e[t] for t in free)
            kept[key] = F.radd(kept[key], c) if key in kept else c
    return MultiPoly.from_raw(F, len(free), kept)


def _on_stratum(g: MultiPoly, i: int) -> MultiPoly:
    """A form g on the stratum X_0 = ... = X_{i-1} = 0, X_i = 1 of P^n,
    as a polynomial in X_{i+1}, ..., X_n."""
    return _on_row(g, i, range(i + 1, g.nvars))


def is_smooth(x: Hypersurface) -> bool:
    """Empty singular locus over the closure, stratum by stratum.

    The strata X_0 = ... = X_{i-1} = 0, X_i = 1 (i = 0..n) partition P^n
    in the order `proj_points` walks it, so each point lies in exactly
    one of them.  Stratum i contributes the ideal (f, df/dX_0, ...,
    df/dX_n) restricted to it, in the n - i coordinates X_{i+1}..X_n; by
    the Nullstellensatz the stratum is singularity-free iff that ideal is
    the unit ideal.  Where 3 != 0 f is left out: on the stratum, Euler's
    relation reads 3f = df/dX_i + sum_{j>i} X_j df/dX_j.
    """
    if x._smooth is None:
        gens_proj = x.partials if x.field.p != 3 else [x.f] + x.partials
        smooth = True
        for i in range(x.n + 1):
            gens = [_on_stratum(g, i) for g in gens_proj]
            gens = [g for g in gens if not g.is_zero()]
            if not gens or not is_unit_ideal(gens):
                smooth = False
                break
        x._smooth = smooth
    return x._smooth


def proj_points(field, n):
    """P^n(field) in canonical order: pivots first, then free coordinates."""
    for pivot in range(n + 1):
        free = n - pivot
        for tail in itertools.product(list(field.elements()), repeat=free):
            yield (field.rzero,) * pivot + (field.rone,) + tail


def proj_point_count(q, n):
    return (q**(n + 1) - 1) // (q - 1)


def _check_scan_budget(q, n):
    npoints = proj_point_count(q, n)
    if npoints > DEFAULT_SCAN_BUDGET:
        raise ScanBudgetExceeded(
            f"scan budget exceeded: |P^{n}(F_{q})| = {npoints}")


def _set_first(F, terms, a):
    """Raw terms {exponents: raw coefficient} with the first variable set
    to the raw value a; terms left with the same exponents merge."""
    # a line-search hot kernel: poly._substitute_raw takes 3x as long
    powers = [F.rone]
    out = {}
    for e, c in terms.items():
        while len(powers) <= e[0]:
            powers.append(F.rmul(powers[-1], a))
        if e[0]:
            c = F.rmul(c, powers[e[0]])
        out[e[1:]] = F.radd(out[e[1:]], c) if e[1:] in out else c
    return out


def _row_zeros(forms, pivot, free, first):
    """Zeros of forms[0] on the row of `_on_row`, each with the values of
    forms[1:] there: yields (raw point of P^n, [raw values]).

    The first free coordinate runs over the raw values `first`, the
    others over the field's elements, in `itertools.product` order.  Each
    prefix of free values is set once in the restricted form; what is
    left is a polynomial in the last free coordinate, evaluated by
    Horner.  The other forms are evaluated only at the zeros found, term
    by term, from one table of powers of each free value.
    """
    F = forms[0].field
    rzero, rone = F.rzero, F.rone
    elements = list(F.elements())
    f, *others = [_on_row(g, pivot, free).terms for g in forms]
    top = max((k for terms in others for e in terms for k in e), default=0)

    def values_at(vals):
        if not others:
            return []
        radd, rmul = F.radd, F.rmul
        powers = []
        for v in vals:
            row = [rone, v]
            while len(row) <= top:
                row.append(rmul(row[-1], v))
            powers.append(row)
        out = []
        for terms in others:
            acc = rzero
            for e, c in terms.items():
                for row, k in zip(powers, e):
                    if k:
                        c = rmul(c, row[k])
                acc = radd(acc, c)
            out.append(acc)
        return out

    def scan(terms, prefix, left, values):
        if left == 0:
            if terms.get((), rzero) == rzero:
                yield prefix
        elif left > 1:
            for a in values:
                yield from scan(_set_first(F, terms, a), prefix + (a,),
                                left - 1, elements)
        else:
            deg = max((e[0] for e, c in terms.items() if c != rzero),
                      default=0)
            top, *rest = [terms.get((k,), rzero) for k in range(deg, -1, -1)]
            radd, rmul = F.radd, F.rmul
            for b in values:
                acc = top
                for c in rest:
                    acc = radd(rmul(acc, b), c)
                if acc == rzero:
                    yield prefix + (b,)

    base = [rzero] * forms[0].nvars
    base[pivot] = F.rone
    for vals in scan(f, (), len(free), first):
        pt = list(base)
        for t, v in zip(free, vals):
            pt[t] = v
        yield tuple(pt), values_at(vals)


def _zeros(forms):
    """Zeros of forms[0] on all of P^n, row by row in `proj_points`
    order (X_0 = 1, then X_0 = 0, X_1 = 1, ...), each with the values of
    forms[1:] there, as `_row_zeros` yields them."""
    n = forms[0].nvars
    elements = list(forms[0].field.elements())
    for i in range(n):
        yield from _row_zeros(forms, i, range(i + 1, n), elements)


def singular_points_scan(x: Hypersurface, ext_cap: int):
    """All singular points of residue degree <= ext_cap, by exhaustive scan.

    A bounded cross-check for `is_smooth`, not a smoothness proof.  Each
    stratum of P^n is scanned for the zeros of f, and the partials are
    tested there.
    """
    base = x.field
    if base.is_rational:
        raise ValueError("point scans need a finite base field")
    found = []
    for j in range(1, ext_cap + 1):
        K = make_field(base.p, base.k * j)
        _check_scan_budget(K.size, x.n)
        fx = x.map_field(K)
        forms = [fx.f] + fx.partials
        prior = [p.map_field(K) for p, _ in found]
        for pt, grad in _zeros(forms):
            if any(g != K.rzero for g in grad):
                continue
            pp = ProjPoint.from_raw(K, pt)
            if pp not in prior:
                found.append((pp, j))
    return found


# -- tangent hyperplanes and sections --------------------------------------


def tangent_hyperplane(x: Hypersurface, pt: ProjPoint) -> Hyperplane:
    if not x.contains(pt):
        raise ValueError(f"{pt} does not lie on the hypersurface")
    grad = x.gradient(pt)
    if all(not g for g in grad):
        raise ValueError(f"{pt} is a singular point; no tangent hyperplane")
    return Hyperplane.from_raw(x.field, grad)


def hyperplane_section(x: Hypersurface, plane: Hyperplane):
    """Restrict the cubic to a hyperplane: a cubic in n variables, the
    coordinates of the plane's chart.

    The pivot coordinate of the hyperplane is eliminated; the remaining
    coordinates, in increasing index order, parametrize the hyperplane.
    """
    check_field(x.field, plane)
    section = substitute_linear_map(x.f, plane.chart())
    if section.is_zero():
        raise IntegrityError(
            "hypersurface contains the hyperplane; it cannot be smooth")
    return section


def plane_section(x: Hypersurface, plane: Hyperplane):
    """P^3 specialization of hyperplane_section: a ternary cubic."""
    if x.n != 3:
        raise ValueError("plane_section expects a surface in P^3")
    return hyperplane_section(x, plane)


# -- plane geometry helpers -------------------------------------------------


def _cross(a, b):
    """The cross product of two points or two lines of P^2: the line
    through the points, or the point where the lines meet; None when
    they coincide."""
    F = a.field
    check_field(F, b)
    (a0, a1, a2), (b0, b1, b2) = a._v, b._v
    v = [F.rsub(F.rmul(a1, b2), F.rmul(a2, b1)),
         F.rsub(F.rmul(a2, b0), F.rmul(a0, b2)),
         F.rsub(F.rmul(a0, b1), F.rmul(a1, b0))]
    if all(c == F.rzero for c in v):
        return None
    dual = Hyperplane if isinstance(a, ProjPoint) else ProjPoint
    return dual.from_raw(F, v)


def plane_line_through(p1: ProjPoint, p2: ProjPoint) -> Hyperplane:
    """Line of P^2 through two distinct points (cross product)."""
    line = _cross(p1, p2)
    if line is None:
        raise ValueError("points coincide; no unique line")
    return line


def divide_by_plane_line(f: MultiPoly, line: Hyperplane):
    """Exact quotient f / L for a linear form L dividing f, and its
    trace on the line, a binary form.

    With pivot p, X = M.Y for M = [e_p | chart] gives L(X) = Y_0, so
    f(M.Y) = Y_0 h(Y), and f / L = h(N.X) for the inverse N of M, whose
    rows are L and the unit rows e_k, k != p.  The chart's two columns
    are the points (1:0) and (0:1) of the trace h(0, U, V), whose terms
    are those of f(M.Y) with e_0 = 1."""
    F, p = f.field, line.pivot
    check_field(F, line)
    m = [(F.rone if i == p else F.rzero,) + row
         for i, row in enumerate(line.chart())]
    quo, trace = {}, [F.rzero] * f.total_degree
    for (e0, e1, e2), c in substitute_linear_map(f, m).terms.items():
        if e0 == 0:
            raise ValueError("line does not divide the form")
        if e0 == 1:
            trace[e2] = c
        quo[(e0 - 1, e1, e2)] = c
    units = [[F.rone if i == k else F.rzero for i in range(f.nvars)]
             for k in range(f.nvars) if k != p]
    return (substitute_linear_map(MultiPoly.from_raw(F, f.nvars, quo),
                                  [line.coeffs, *units]),
            BinaryForm.from_raw(F, f.total_degree - 1, trace))


# -- singular points of ternary cubics --------------------------------------


def _at_first(g: MultiPoly, K, xi) -> MultiPoly:
    """g with its first variable set to the raw value xi of K, over K."""
    return MultiPoly.from_raw(K, g.nvars - 1,
                              _set_first(K, g.map_field(K).terms, xi))


def _affine_zeros(field, gens, nvars: int, ext_cap: int):
    """Common zeros of polynomials over `field` in nvars variables, each
    as (residue field, raw coordinate tuple over it); None when there are
    infinitely many over the closure.  Raises ExtensionCapExceeded when a
    zero has residue degree above ext_cap.

    The eliminant of the Groebner basis in the first variable, then the
    fibre over each of its roots, one variable fewer.
    """
    gens = [g for g in gens if not g.is_zero()]
    if nvars == 0:
        return [] if gens else [(field, ())]
    if not gens:
        return None
    basis = groebner_basis(gens)
    elim = eliminant(basis)
    if elim is None:
        return None
    roots = find_roots(elim, ext_cap)
    if sum(r.multiplicity for r in roots) < elim.degree:
        raise ExtensionCapExceeded(
            f"a common zero needs extension degree above {ext_cap}")
    zeros = []
    for r in roots:
        fibre = [_at_first(g, r.field, r.value) for g in basis]
        for K, rest in _affine_zeros(r.field, fibre, nvars - 1,
                                     ext_cap // r.ext_degree):
            zeros.append((K, (embed(r.field, r.value, K),) + rest))
    return zeros


def _ternary_singular_points(cub: MultiPoly, ext_cap: int):
    """Singular points [(ProjPoint, level)], each over its residue field
    F_{q^level}; None when the singular locus is infinite (a repeated
    component).  Raises ExtensionCapExceeded when a singular point has
    residue degree above ext_cap.

    Walks the strata X_0 = 1, then X_0 = 0, X_1 = 1, then (0:0:1), which
    partition P^2 as in `is_smooth`.
    """
    base = cub.field
    forms = [cub] + [cub.partial(i) for i in range(3)]
    points = []
    for i in range(3):
        zeros = _affine_zeros(base, [_on_stratum(g, i) for g in forms],
                              2 - i, ext_cap)
        if zeros is None:
            return None
        for K, z in zeros:
            pt = ProjPoint.from_raw(K, [K.rzero] * i + [K.rone] + list(z))
            if any(g.map_field(K).evaluate(pt.coords) for g in forms):
                raise IntegrityError(f"{pt} solves the stratum system but "
                                     f"is not a singular point")
            points.append((pt, K.k // base.k))
    return points


# -- conic helpers -----------------------------------------------------------


def _conic_singular_point(q: MultiPoly) -> Optional[ProjPoint]:
    """Singular point of a ternary conic over its own field, or None."""
    F = q.field
    rows = []
    for i in range(3):
        d = q.partial(i)
        row = [F.rzero] * 3
        for e, c in d.terms.items():
            row[e.index(1)] = c
        rows.append(row)
    for v in linalg.kernel(F, rows, 3):
        if any(x != F.rzero for x in v) and not q.evaluate(v):
            return ProjPoint.from_raw(F, v)
    return None


def _quadric_distinct_roots(q: BinaryForm) -> bool:
    """Char-robust test that a binary quadric has two distinct roots."""
    if q.is_zero() or q.degree != 2:
        raise ValueError("expected a nonzero binary quadric")
    F, (a, b, c) = q.field, q.coeffs
    if F.p == 2:
        return bool(b)
    return bool(F.rsub(F.rmul(b, b), F.rmul(F.rmul(a, F.rfrom_int(4)), c)))


def _completion_matrix(field, first_column):
    """Invertible raw 3x3 matrix whose first column is the given nonzero
    raw vector and whose other columns are the unit vectors e_j in order,
    skipping j = the index of the last nonzero coordinate."""
    last = max(i for i, c in enumerate(first_column) if c != field.rzero)
    cols = [list(first_column)] + [
        [field.rone if i == j else field.rzero for i in range(3)]
        for j in range(3) if j != last]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


# -- classification -----------------------------------------------------------


def classify_plane_cubic(cub: MultiPoly, ext_cap: int = DEFAULT_EXT_CAP,
                         singular_point: Optional[ProjPoint] = None
                         ) -> CubicSectionClass:
    """Classification of a ternary cubic over the closure of its field.

    Every class is read off `_tangent_cone_class` at a singular point.
    `singular_point`, if given, is a point the caller knows to be
    singular, over its residue field (an extension of the cubic's field,
    as `_ternary_singular_points` gives points), and the table is read
    there first.  Otherwise, or where the table gives None, the Groebner
    strata give the singular points: none is a smooth cubic, one is its
    row of the table, two are a line and a transverse conic and three a
    triangle (the table giving None at each), and an infinite locus is a
    repeated line, whose class the table gives at a rational point of
    it.  Raises IntegrityError if the given point is not singular.
    """
    if cub.is_zero():
        raise ValueError("cannot classify the zero cubic")
    if cub.nvars != 3 or not cub.is_homogeneous() or cub.total_degree != 3:
        raise ValueError("expected a ternary cubic form")
    if cub.field.is_rational:
        raise ValueError("classification works over finite fields")
    if singular_point is not None:
        K, F = singular_point.field, cub.field
        if K.p != F.p or K.k % F.k or singular_point.n != 2:
            raise ValueError(f"{singular_point} is not a point of P^2 over "
                             f"an extension of {F}")
        cls = _tangent_cone_class(cub, singular_point, ext_cap)
        if cls is not None:
            return cls
    pts = _ternary_singular_points(cub, ext_cap)
    if pts is None:
        return _classify_nonreduced(cub, ext_cap)
    if not pts:
        return CubicSectionClass(SMOOTH_CUBIC, None, 1)
    if len(pts) > 1:
        return _classify_multi_singular(cub, pts, ext_cap)
    pt, _ = pts[0]
    cls = _tangent_cone_class(cub, pt, ext_cap)
    if cls is None:
        # the strata give every singular point or raise, so the rows with
        # several singular points never reach here
        raise IntegrityError(f"{pt} is the only singular point, but its "
                             f"tangent cone shows several")
    return cls


def _nodal_frame(cub: MultiPoly, pt: ProjPoint):
    """Move a singular point to (1:0:0): returns (m, q, c), m the
    `_completion_matrix` of pt, with the cubic equal to
    X0 q(X1, X2) + c(X1, X2) in the coordinates X = m Y.

    q and c are Taylor coefficients at pt, read off the terms with no
    substitution.  With `last` the index of pt's last nonzero coordinate,
    j < k the other two and Z = Y1 e_j + Y2 e_k, X = m Y is s pt + Z
    (s = Y0), and in every characteristic cub(s pt + Z) has
      s^0: cub(Z), the terms free of X_last, which is c;
      s^1: sum_l pt_l (d_l cub)(Z), which is q;
      s^2: Y1 (d_j cub)(pt) + Y2 (d_k cub)(pt);
      s^3: cub(pt).
    The point is singular iff the last two vanish; Euler's relation then
    gives (d_last cub)(pt) = 0.  cub(pt) is checked on its own, because
    in characteristic 3 the gradient also vanishes at points off the
    cubic.  Raises IntegrityError if the point is not singular.
    """
    K, x = pt.field, pt.coords
    m = _completion_matrix(K, x)
    last = max(i for i, v in enumerate(x) if v)
    j, k = (i for i in range(3) if i != last)
    radd, rmul, zero, one = K.radd, K.rmul, K.rzero, K.rone
    # at 0 and 1, where v^n = v for n >= 1, the tables take no product
    two, three = K.rfrom_int(2), K.rfrom_int(3)
    pw = []                     # x_i^n for n = 0..3
    for v in x:
        if v == zero or v == one:
            pw.append((one, v, v, v))
        else:
            v2 = rmul(v, v)
            pw.append((one, v, v2, rmul(v2, v)))
    mult, der = {}, {}          # n x_i and n x_i^(n-1), d/dt t^n at x_i
    for i in (j, k):
        v = x[i]
        if v == zero:
            mult[i], der[i] = (zero,) * 4, (zero, one, zero, zero)
        elif v == one:
            mult[i] = der[i] = (zero, one, two, three)
        else:
            v_2 = radd(v, v)
            v_3 = radd(v_2, v)
            mult[i] = (zero, v, v_2, v_3)
            der[i] = (zero, one, v_2, rmul(v_3, v))
    value = grad_j = grad_k = zero
    qco, cco = [zero] * 3, [zero] * 4
    for e, c in cub.terms.items():
        el, ej, ek = e[last], e[j], e[k]
        # s^3 and s^2: the term at pt and its derivatives along e_j, e_k,
        # with no product by a factor that is 1
        t = rmul(c, pw[last][el]) if el else c
        tj = rmul(t, pw[j][ej]) if ej else t
        tk = rmul(t, pw[k][ek]) if ek else t
        value = radd(value, tk if not ej else tj if not ek
                     else rmul(tj, pw[k][ek]))
        if ej:
            grad_j = radd(grad_j, rmul(tk, der[j][ej]) if ej > 1 else tk)
        if ek:
            grad_k = radd(grad_k, rmul(tj, der[k][ek]) if ek > 1 else tj)
        # s^0 and s^1, skipping derivatives along zero coordinates
        if el == 1:
            qco[ek] = radd(qco[ek], rmul(c, x[last]))
        elif el == 0:
            cco[ek] = c
            if ej and x[j]:
                qco[ek] = radd(qco[ek], rmul(c, mult[j][ej]))
            if ek and x[k]:
                qco[ek - 1] = radd(qco[ek - 1], rmul(c, mult[k][ek]))
    if value or grad_j or grad_k:
        raise IntegrityError("point is not singular on the cubic")
    return m, BinaryForm.from_raw(K, 2, qco), BinaryForm.from_raw(K, 3, cco)


def _integral_tag(q: BinaryForm, c: BinaryForm) -> Optional[str]:
    """The integral rows of the tangent-cone table: X0 q + c is
    irreducible iff q, c != 0 share no root, and then nodal or cuspidal
    as q has two roots or one."""
    if q.is_zero() or c.is_zero() or not resultant_bin(q, c):
        return None
    return NODAL_INTEGRAL if _quadric_distinct_roots(q) \
        else CUSPIDAL_INTEGRAL


def _tangent_cone_class(cub, pt, ext_cap):
    """Class of a cubic singular at pt, read off the tangent cone q and
    the cubic part c, the Taylor coefficients at pt that `_nodal_frame`
    gives over pt's residue field (Fulton, Algebraic Curves, Ch. 3);
    None for the rows with several singular points (a transverse line
    and conic, or a triangle).

      q = 0                   three concurrent lines, LineDoubleLine
                              if c = l^2 m, TripleLine if c = l^3
      Res(q, c) != 0          nodal or cuspidal integral
      q = l^2, gcd(q, c) = l  line and tangent conic
      q = l^2, q | c          LineDoubleLine: X0 q + c = l^2 (X0 + m)
    """
    F, K = cub.field, pt.field
    level = K.k // F.k
    _, q, c = _nodal_frame(cub.map_field(K), pt)
    if q.is_zero():
        # a repeated root of c is rational over K, so the scan finds it
        # whatever the cap
        roots = binary_roots(c, min(3, max(1, ext_cap // level)))
        mult = max((m for (_, _, _, m) in roots), default=0)
        if mult > 1:
            return CubicSectionClass(
                TRIPLE_LINE if mult == 3 else LINE_DOUBLE_LINE, None, 1)
        if len(roots) != 3:
            raise ExtensionCapExceeded(
                f"splitting the triple-point cubic needs extension degree "
                f"{3 * level}, cap is {ext_cap}")
        ext = max(Kr.k for (Kr, _, _, _) in roots) // F.k
        return CubicSectionClass(THREE_LINES_CONCURRENT, pt, ext)
    tag = _integral_tag(q, c)
    if tag is not None:
        return CubicSectionClass(tag, pt, level)
    if _quadric_distinct_roots(q):
        return None
    if gcd_bin(q, c).degree == 2:
        return CubicSectionClass(LINE_DOUBLE_LINE, None, 1)
    return CubicSectionClass(LINE_CONIC_TANGENT, pt, level)


def _classify_multi_singular(cub, pts, ext_cap):
    """A reduced cubic with two singular points is a line and a conic
    meeting transversally, with three a triangle: at each point the
    tangent cone is two distinct lines, where the table gives None.  The
    point is the least over the join of the residue fields."""
    if len(pts) > 3:
        raise IntegrityError(f"cubic with {len(pts)} singular points")
    for pt, _ in pts:
        cls = _tangent_cone_class(cub, pt, ext_cap)
        if cls is not None:
            raise IntegrityError(f"{pt} is one of {len(pts)} singular "
                                 f"points, but its tangent cone gives "
                                 f"{cls.tag}")
    K = join_field(*[p.field for p, _ in pts])
    least = min((p.map_field(K) for p, _ in pts), key=lambda p: p.sort_key())
    tag = LINE_CONIC_TRANSVERSE if len(pts) == 2 else THREE_LINES_TRIANGLE
    return CubicSectionClass(tag, least, K.k // cub.field.k)


def _classify_nonreduced(cub, ext_cap):
    """A cubic with a repeated line: its conjugates are repeated too, so
    the line is defined over the cubic's field and meets the line X2 = 0
    in a rational point, which the row scan finds.  The table gives the
    class at any point of the repeated line."""
    F = cub.field
    forms = [cub] + [cub.partial(i) for i in range(3)]
    elements = list(F.elements())
    raw = next((pt for pivot, free in ((0, (1,)), (1, ()))
                for pt, grad in _row_zeros(forms, pivot, free, elements)
                if all(g == F.rzero for g in grad)), None)
    cls = raw and _tangent_cone_class(cub, ProjPoint.from_raw(F, raw),
                                      ext_cap)
    if cls is None:
        raise IntegrityError("infinite singular locus on a reduced cubic")
    return cls


# -- lines on a cubic surface -------------------------------------------------


def _cell_patterns():
    """RREF cells of the Grassmannian of lines in P^3: (pivots, free
    positions)."""
    cells = []
    for i in range(4):
        for j in range(i + 1, 4):
            free0 = [t for t in range(4) if t not in (i, j) and t > i]
            free1 = [t for t in range(4) if t not in (i, j) and t > j]
            cells.append((i, j, free0, free1))
    return cells


def _on_affine_line(K, terms, powers):
    """Raw bivariate terms at (s, b0 + b1 s), as a UPoly in s.  powers
    holds the UPolys 1 and b0 + b1 s and grows to the next powers as the
    terms ask, so the forms on one line share it."""
    # a line-search hot kernel: poly._substitute_raw takes 2x as long
    radd, rmul = K.radd, K.rmul
    out = [K.rzero] * 4
    for (ea, eb), c in terms.items():
        while len(powers) <= eb:
            powers.append(powers[-1] * powers[1])
        for m, p in enumerate(powers[eb].coeffs, ea):
            out[m] = radd(out[m], rmul(c, p))
    return UPoly(K, out)


def _partners(K, i, free0, row_i, r1, g1):
    """Raw points r0 of row i (pivot i, coordinates free0 varying) with
    the line r0 r1 on X, or None when the tangent plane at r1 holds the
    whole row (its linear form is constant zero there).

    row_i holds f and its four partials on the row as raw terms, g1 the
    gradient at r1.  r0 must lie on the tangent plane g1 . r0 = 0
    (linear), on f and on the polar quadric sum_k r1_k df/dX_k.
    """
    rzero, rneg, rmul = K.rzero, K.rneg, K.rmul
    slopes = [g1[t] for t in free0]
    if all(c == rzero for c in slopes):
        return [] if g1[i] != rzero else None
    f_i, *partials_i = row_i
    polar = {}
    for c, terms in zip(r1, partials_i):
        if c != rzero:
            for e, v in terms.items():
                v = rmul(c, v)
                polar[e] = K.radd(polar[e], v) if e in polar else v

    def point(vals):
        r0 = [rzero] * 4
        r0[i] = K.rone
        for t, v in zip(free0, vals):
            r0[t] = v
        return r0

    if len(free0) == 1:
        s = rneg(rmul(g1[i], K.rinv(slopes[0])))
        on_both = all(_set_first(K, g, s).get((), rzero) == rzero
                      for g in (f_i, polar))
        return [point((s,))] if on_both else []
    alpha, beta = slopes
    if beta == rzero:
        # the first free coordinate is fixed, the second runs
        a0 = rneg(rmul(g1[i], K.rinv(alpha)))
        cub, quad = [UPoly(K, [t.get((d,), rzero) for d in range(4)])
                     for t in (_set_first(K, g, a0) for g in (f_i, polar))]
        on_line = lambda s: (a0, s)
    else:
        # the first free coordinate runs, the second follows it
        binv = K.rinv(beta)
        b0, b1 = rneg(rmul(g1[i], binv)), rneg(rmul(alpha, binv))
        powers = [UPoly(K, [K.rone]), UPoly(K, [b0, b1])]
        cub, quad = [_on_affine_line(K, g, powers) for g in (f_i, polar)]
        on_line = lambda s: (s, K.radd(b0, rmul(b1, s)))
    common = _gcd(K, cub.coeffs, quad.coeffs)
    if not common:
        raise IntegrityError("a plane lies on the surface; it cannot be "
                             "smooth")
    if len(common) == 1:
        return []
    if len(common) == 2:
        roots = [rneg(common[0])]
    else:
        roots = _field_roots(K, common)
    return [point(on_line(s)) for s in roots]


def _orbit_representatives(K, exps):
    """One raw element of each orbit of K under x -> x^q, the first in
    `elements()` order, with exps = [q^m for m = 1..k-1] and |K| = q^k."""
    reps, seen = [], set()
    for a in K.elements():
        if a not in seen:
            reps.append(a)
            seen.add(a)
            seen.update(K.rpow(a, e) for e in exps)
    return reps


def _lines_in_cells(forms, q):
    """Lines of P^3 on {f = 0}, forms = [f] + its four partials over
    K = F_{q^k} with coefficients in F_q, yielded each once as they are
    found, by the RREF cell (pivots i < j) they lie in.

    Each cell scans only its second row (pivot j), whose free
    coordinates are a subset of the first's.  A line spanned by r0 and r1
    lies on X iff f(r0), grad f(r0) . r1, grad f(r1) . r0 and f(r1) all
    vanish (the coefficients of f(u r0 + v r1)); given a zero r1 with
    gradient g1, the third condition is linear in r0, so `_partners`
    solves for r0 on the first row.  When the tangent plane at r1 holds
    the first row, its zeros are scanned once per cell and paired by the
    polar condition grad f(r0) . r1 = 0.

    The Frobenius x -> x^q fixes f and sends lines on X to lines on X; it
    fixes 0 and 1, so it keeps each cell.  The second row's first free
    coordinate therefore runs over one value per orbit of K under it,
    and each line found brings in its conjugates (`LineP3.conjugate`):
    a line whose coordinate there is a^(q^m) is the conjugate of one
    found at a.  At k = 1 every element is its own orbit.
    """
    K = forms[0].field
    exps = [q ** m for m in range(1, K.k) if q ** m < K.size]
    reps = _orbit_representatives(K, exps)
    found = set()
    for (i, j, free0, free1) in _cell_patterns():
        row_i = [_on_row(g, i, free0).terms for g in forms]
        zeros_i = None
        for r1, g1 in _row_zeros(forms, j, free1, reps):
            r0s = _partners(K, i, free0, row_i, r1, g1)
            if r0s is None:
                if zeros_i is None:
                    zeros_i = list(_row_zeros(forms, i, free0,
                                              list(K.elements())))
                r0s = [r0 for r0, g0 in zeros_i
                       if _dot(K, g0, r1) == K.rzero]
            for r0 in r0s:
                line = LineP3.from_raw(K, [r0, r1])
                if line in found:
                    continue
                found.add(line)
                yield line
                for e in exps:
                    conj = line.conjugate(e)
                    if conj == line:
                        break
                    found.add(conj)
                    yield conj


# the monomials a^i b^j of Q in `_pencil_lines`, for A, B, C, D, E, F
_CONIC_TERMS = ((2, 0), (0, 2), (0, 0), (1, 1), (1, 0), (0, 1))


def _pencil_lines(f: MultiPoly, line: LineP3, top: int):
    """The 27 lines on the smooth cubic surface {f = 0}, sorted, from one
    line L on it over f's field K, and the least extension of K that holds
    them: (lines, field); None if its degree m over K is above top.

    With L's rows r0, r1 and unit vectors e_c, e_d off its pivots, f = s Q
    on the plane a r0 + b r1 + s (l e_c + m e_d); Q = A a^2 + B b^2 +
    C s^2 + D ab + E as + F bs has binary forms in (l, m) as coefficients
    and its half-discriminant 4ABC + DEF - AF^2 - BE^2 - CD^2, valid in
    every characteristic, is a quintic with the five tritangent planes
    as roots, each in its least field, of degree d over K.  Each
    residual conic is two lines through the kernel P of its polar matrix
    (the nucleus in characteristic 2; on L exactly at an Eckardt point),
    met by a coordinate line missing P at Q's roots, over degree d or 2d;
    a conjugate plane over K takes the conjugate lines.  The other 16
    are the second transversals, besides L, of a pick from each of the
    first four pairs, so m is the lcm of the degrees of these ten, which
    are embedded with L into degree m: a 2-dimensional kernel of dual
    Plücker rows holds p_L, and for k in it with <p_L, k> != 0 the Klein
    quadric w meets it again at -w(k) p_L + <p_L, k> k (Vieta).
    """
    K = f.field
    zero = K.rzero
    r0, r1 = line.rows
    pivots = [next(t for t, v in enumerate(r) if v != zero) for r in (r0, r1)]
    c, d = (t for t in range(4) if t not in pivots)
    units = [[K.rone if t == u else zero for t in range(4)] for u in (c, d)]
    coeffs = {key: [zero] * (4 - sum(key)) for key in _CONIC_TERMS}
    for (ea, eb, _, ed), v in substitute_linear_map(
            f, list(zip(r0, r1, *units))).terms.items():
        coeffs[ea, eb][ed] = v
    forms = [BinaryForm.from_raw(K, 3 - sum(key), coeffs[key])
             for key in _CONIC_TERMS]
    A, B, C, D, E, F = forms
    delta = D * E * F - A * F * F - B * E * E - C * D * D
    if K.p != 2:
        delta = delta + (A * B * C).scale(K.rfrom_int(4))
    planes = None if delta.is_zero() else binary_roots(delta, top)
    if planes is None or any(mult > 1 for *_, mult in planes):
        raise IntegrityError("repeated tritangent plane through a line")
    if len(planes) < 5:
        return None
    meeting = []                # the ten lines that meet L
    images = {}                 # conic lines of the conjugate planes
    for Kp, l, m, _ in planes:
        if (Kp, l) in images:
            meeting += images[Kp, l]
            continue
        q = [g.map_field(Kp).evaluate(l, m) for g in forms]
        polar = linalg.kernel(Kp, [[Kp.radd(q[0], q[0]), q[3], q[4]],
                                   [q[3], Kp.radd(q[1], q[1]), q[5]],
                                   [q[4], q[5], Kp.radd(q[2], q[2])]], 3)
        cut = None
        if len(polar) == 1:
            o = next(t for t, v in enumerate(polar[0]) if v != Kp.rzero)
            o1, o2 = (t for t in range(3) if t != o)
            on_line = BinaryForm.from_raw(Kp, 2,
                                          [q[o1], q[2 + o1 + o2], q[o2]])
            if not on_line.is_zero():
                cut = binary_roots(on_line,
                                   2 if 2 * Kp.k <= top * K.k else 1)
        if cut is None or any(mult > 1 for *_, mult in cut):
            raise IntegrityError("double-line conic in a tritangent plane")
        if not cut:
            return None
        w = [Kp.rzero] * 4
        w[c], w[d] = l, m
        frame = list(zip(*line.map_field(Kp).rows, w))
        at_p = [_dot(Kp, polar[0], col) for col in frame]
        Kr = cut[0][0]
        if Kr is not Kp:
            frame = [[embed(Kp, t, Kr) for t in col] for col in frame]
            at_p = [embed(Kp, t, Kr) for t in at_p]
        for _, u, v, _ in cut:
            y = [Kr.rzero] * 3
            y[o1], y[o2] = u, v
            meeting.append(LineP3.from_raw(
                Kr, [at_p, [_dot(Kr, y, col) for col in frame]]))
        for e in (K.size ** i for i in range(1, Kp.k // K.k)):
            images[Kp, Kp.rpow(l, e)] = [g.conjugate(e) for g in meeting[-2:]]
    degree = math.lcm(*(g.field.k // K.k for g in meeting))
    if degree > top:
        return None
    K = make_field(K.p, K.k * degree)
    zero = K.rzero
    lines = [g.map_field(K) for g in [line] + meeting]
    line = lines[0]
    dual = _plucker_frame(line)[0]
    picks = [[_plucker_frame(g)[0] for g in lines[i:i + 2]]
             for i in (1, 3, 5, 7)]
    for rows in itertools.product(*picks):
        basis = linalg.kernel(K, list(rows), 6)
        if len(basis) != 2:
            raise IntegrityError(f"transversal kernel of dimension "
                                 f"{len(basis)}, not 2")
        k = next((k for k in basis if _dot(K, dual, k) != zero), None)
        if k is None:
            raise IntegrityError("the transversals of four skew lines pair "
                                 "to zero with L")
        pk = _dot(K, dual, k)
        wk = K.rsub(K.radd(K.rmul(k[0], k[5]), K.rmul(k[2], k[3])),
                    K.rmul(k[1], k[4]))
        lines.append(LineP3.from_plucker(K, [
            K.rsub(K.rmul(pk, a), K.rmul(wk, b))
            for a, b in zip(k, line.plucker)]))
    if len(set(lines)) < 27:
        raise IntegrityError("fewer than 27 distinct lines from one pencil "
                             "and its transversals")
    return sorted(lines, key=lambda l: l.sort_key()), K


def _most_lines(x, levels):
    """The most lines the scans of the levels find, each run to its end
    now; above 27 the surface is singular."""
    most, F = 0, x.field
    for k, first, scan in levels:
        if scan is None:
            xk = x.map_field(make_field(F.p, F.k * k))
            scan = _lines_in_cells([xk.f] + xk.partials, F.size)
        count = (first is not None) + sum(1 for _ in scan)
        if count > 27:
            raise IntegrityError(
                f"{count} lines found; the surface cannot be smooth")
        most = max(most, count)
    return most


_CENSUS_CACHE = {}


def _remember(key, value):
    """Keep a census that passed every check; the oldest goes past 16."""
    _CENSUS_CACHE[key] = value
    if len(_CENSUS_CACHE) > 16:
        _CENSUS_CACHE.pop(next(iter(_CENSUS_CACHE)))


def lines_on_cubic_surface(x: Hypersurface, ext_cap: int = DEFAULT_EXT_CAP,
                           field_cap: int = DEFAULT_LINE_FIELD_CAP):
    """The 27 lines on a smooth cubic surface over F_q, sorted, over the
    least F_{q^k} that holds them: (lines, field, k).  The scan
    (`_lines_in_cells`) runs level by level to the first line L, and the
    pencil of L (`_pencil_lines`) gives the least k among the multiples
    of L's level that the caps allow, or shows there is none.  The levels
    after L's are not scanned, but pass the same cap checks in the same
    order; errors count lines by the scans (`_most_lines`).

    `_CENSUS_CACHE` keeps the last 16 censuses that passed every check
    (lines and Eckardt reports), lines keyed by x's field, the raw terms
    of its cubic and both caps, so an equal surface built separately is
    not searched again.  An error is never kept, so it is raised on
    every call, and a hit returns a new list of the same lines.
    """
    if x.n != 3:
        raise ValueError("line enumeration expects a surface in P^3")
    base = x.field
    if base.is_rational:
        raise ValueError("line enumeration needs a finite base field")
    key = ("lines", base, frozenset(x.f.terms.items()), ext_cap, field_cap)
    hit = _CENSUS_CACHE.get(key)
    if hit is not None:
        return list(hit[0]), hit[1], hit[2]
    if not is_smooth(x):
        raise ValueError("surface is singular; the 27-line count needs "
                         "smoothness")
    q = base.size
    levels = []                 # (level, first line, scan or None)
    line = None
    for k in range(1, ext_cap + 1):
        if q ** k > field_cap:
            raise ScanBudgetExceeded(
                f"line scan budget exceeded at F_{base.p}^{base.k * k} "
                f"(size {q ** k} > {field_cap}); "
                f"{_most_lines(x, levels)} lines found so far")
        if line is not None:
            levels.append((k, None, None))
            continue
        xk = x.map_field(make_field(base.p, base.k * k))
        scan = _lines_in_cells([xk.f] + xk.partials, q)
        line = next(scan, None)
        levels.append((k, line, scan))
        if line is not None:
            found = _pencil_lines(xk.f, line, max(
                j for j in range(1, ext_cap // k + 1)
                if q ** (k * j) <= field_cap))
            if found:
                lines, K = found
                _remember(key, (tuple(lines), K, K.k // base.k))
                return lines, K, K.k // base.k
    raise ExtensionCapExceeded(
        f"only {_most_lines(x, levels)} lines found within "
        f"extension degree {ext_cap}")


@dataclass
class EckardtReport:
    eckardt: list        # [(ProjPoint, (i, j, k))]
    two_line: list       # [(ProjPoint, (i, j))]
    incident_pairs: int

    @property
    def counts(self):
        return {"eckardt": len(self.eckardt), "two_line": len(self.two_line),
                "incident_pairs": self.incident_pairs}

    def to_json(self):
        return {
            "eckardt": [{"point": p.to_json(), "lines": list(ls)}
                        for p, ls in self.eckardt],
            "two_line": [{"point": p.to_json(), "lines": list(ls)}
                         for p, ls in self.two_line],
            "counts": self.counts,
        }


def _frobenius_size(f: MultiPoly) -> Optional[int]:
    """q = p^d for the least d dividing k such that every coefficient of
    f, over K = F_{p^k}, is fixed by c -> c^(p^d): the size of the least
    subfield that holds them.  None over Q and when that subfield is K,
    where x -> x^q is the identity.  Raw values below p are the prime
    field (`rfrom_int`), which every such map fixes."""
    K = f.field
    if K.is_rational:
        return None
    coeffs = {c for c in f.terms.values() if c >= K.p}
    for d in range(1, K.k):
        if K.k % d == 0 and all(K.rpow(c, K.p ** d) == c for c in coeffs):
            return K.p ** d
    return None


def _frobenius_permutation(lines, q):
    """sigma with lines[sigma[i]] = lines[i].conjugate(q), looked up by
    the conjugated rows alone, as lines compare; IntegrityError if some
    conjugate is not in the list."""
    index = {line.rows: i for i, line in enumerate(lines)}
    sigma = []
    for i, line in enumerate(lines):
        j = index.get(tuple(_frobenius(line.field, r, q) for r in line.rows))
        if j is None:
            raise IntegrityError(f"the Frobenius conjugate of line {i} is "
                                 f"not among the lines")
        sigma.append(j)
    return sigma


def eckardt_points(x: Hypersurface, lines) -> EckardtReport:
    """Partition of pairwise line intersections into 3-line (Eckardt) and
    2-line points, with the counting identities asserted.

    x is defined over F_q (`_frobenius_size`), so x -> x^q permutes its
    lines (sigma) and sends the point where lines i and j meet to the
    point where sigma(i) and sigma(j) meet.  The pairs i < j are taken in
    order, and only the first pair of each sigma-orbit of pairs is met;
    the others get its point raised to the powers q^m, or None.  Each
    line's `_plucker_frame` is built once, and every count below runs
    over all 351 pairs.

    A report that passes is kept in `_CENSUS_CACHE` (see
    `lines_on_cubic_surface`), keyed by x's field, the raw terms of its
    cubic and the lines' rows in the order given; a hit returns a new
    report with its own lists, whose indices follow that order.
    """
    if len(lines) != 27:
        raise ValueError(f"expected the full set of 27 lines, got {len(lines)}")
    K = x.field
    for line in lines:
        check_field(K, line)
    key = ("eckardt", K, frozenset(x.f.terms.items()),
           tuple(line.rows for line in lines))
    hit = _CENSUS_CACHE.get(key)
    if hit is not None:
        return EckardtReport(list(hit[0]), list(hit[1]), hit[2])
    q = _frobenius_size(x.f)
    sigma = None if q is None else _frobenius_permutation(lines, q)
    frames = [_plucker_frame(line) for line in lines]
    conjugated = {}             # pair -> its point, from an earlier orbit
    by_point = {}
    meets_per_line = [0] * len(lines)
    pairs = 0
    for i, j in itertools.combinations(range(len(lines)), 2):
        if (i, j) in conjugated:
            pt = conjugated.pop((i, j))
        else:
            pt = _meet(K, frames[i], lines[j])
            # x -> x^q has order k/d on K, so the orbit closes within k
            # steps; the bound keeps a list with a repeated line, which
            # no permutation maps onto, to its "coincident lines"
            a, b, conj = i, j, pt
            for _ in range(K.k if sigma else 0):
                a, b = sigma[a], sigma[b]
                pair = (a, b) if a < b else (b, a)
                if pair == (i, j):
                    break
                if conj is not None:
                    conj = ProjPoint.from_raw(K, _frobenius(K, conj.coords,
                                                            q))
                conjugated[pair] = conj
        if pt is None:
            continue
        pairs += 1
        meets_per_line[i] += 1
        meets_per_line[j] += 1
        by_point.setdefault(pt, set()).update((i, j))
    for i, c in enumerate(meets_per_line):
        if c != 10:
            raise IntegrityError(f"line {i} meets {c} others, expected 10")
    eckardt, two_line = [], []
    for pt in sorted(by_point, key=lambda p: p.sort_key()):
        ls = tuple(sorted(by_point[pt]))
        if len(ls) == 3:
            eckardt.append((pt, ls))
        elif len(ls) == 2:
            two_line.append((pt, ls))
        else:
            raise IntegrityError(
                f"{len(ls)} concurrent lines at {pt}; impossible on a "
                f"smooth cubic surface")
    if pairs != 3 * len(eckardt) + len(two_line):
        raise IntegrityError("pair-count identity failed")
    _remember(key, (tuple(eckardt), tuple(two_line), pairs))
    return EckardtReport(eckardt, two_line, pairs)


def surface_points(x: Hypersurface):
    """Rational points of the hypersurface over its own base field.

    Raises ScanBudgetExceeded, before scanning, when P^n(F) has more than
    DEFAULT_SCAN_BUDGET points.
    """
    F = x.field
    _check_scan_budget(F.size, x.n)
    for pt, _ in _zeros([x.f]):
        yield ProjPoint.from_raw(F, pt)
