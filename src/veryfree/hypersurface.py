"""Projective cubic hypersurfaces: smoothness certification, tangent
hyperplanes, plane sections, plane-cubic classification over the closure,
and lines / Eckardt points on cubic surfaces.

Smoothness is decided by chart-wise unit-ideal tests (Groebner); point
scans are bounded cross-checks only.  Line enumeration walks the RREF
cells of the Grassmannian of lines in P^3 over growing extension fields,
so each line is seen exactly once per field.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import (ExtensionCapExceeded, IntegrityError,
                     ScanBudgetExceeded)
from .fields import FieldSpec, Scalar, UPoly, embed, find_roots, join_field, \
    DEFAULT_SCAN_BUDGET
from .poly import (BinaryForm, MultiPoly, binary_roots, compose_with_curve,
                   gcd_bin, is_unit_ideal, linear_substitute,
                   partial_derivative, resultant_bin, substitute_linear_map,
                   sylvester_rows)

DEFAULT_EXT_CAP = 6
DEFAULT_LINE_FIELD_CAP = 4000  # largest field scanned for lines


# -- geometric primitives ------------------------------------------------


class ProjPoint:
    """Point of P^n, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [field.scalar(c) for c in coords]
        pivot = next((i for i, c in enumerate(coords) if c), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = coords[pivot].inverse()
        self.field = field
        self.coords = tuple(c * inv for c in coords)

    @property
    def n(self):
        return len(self.coords) - 1

    def raw(self):
        return tuple(c.raw for c in self.coords)

    def sort_key(self):
        return tuple(self.field.lex_key(c.raw) for c in self.coords)

    def map_field(self, target):
        return ProjPoint(target, [embed(c, target) for c in self.coords])

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field is other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"ProjPoint{self}"

    def to_json(self):
        return [str(c) for c in self.coords]


class Hyperplane:
    """Hyperplane sum a_i X_i = 0, coefficients normalized like a point."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field.scalar(c) for c in coeffs]
        pivot = next((i for i, c in enumerate(coeffs) if c), None)
        if pivot is None:
            raise ValueError("hyperplane needs a nonzero coefficient")
        inv = coeffs[pivot].inverse()
        self.field = field
        self.coeffs = tuple(c * inv for c in coeffs)

    @property
    def pivot(self):
        return next(i for i, c in enumerate(self.coeffs) if c)

    def contains(self, pt: ProjPoint) -> bool:
        acc = self.field.zero
        for a, x in zip(self.coeffs, pt.coords):
            acc = acc + a * x
        return not acc

    def map_field(self, target):
        return Hyperplane(target, [embed(c, target) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, Hyperplane) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), "hyp", self.coeffs))

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coeffs) + "]"

    def to_json(self):
        return [str(c) for c in self.coeffs]


class LineP3:
    """Line in P^3 as a 2x4 matrix in reduced row echelon form."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        raw = [[field.scalar(c).raw for c in r] for r in rows]
        rr, pivots = linalg.rref(field, raw)
        if len(pivots) != 2:
            raise ValueError("line needs a rank-2 spanning matrix")
        self.field = field
        self.rows = tuple(tuple(Scalar(field, c) for c in r)
                          for r in rr[:2])

    def param_forms(self):
        """Degree-1 binary forms of (U, V) -> U*row0 + V*row1."""
        return [BinaryForm.from_scalars(self.field, [a, b])
                for a, b in zip(self.rows[0], self.rows[1])]

    def point_at(self, u, v):
        F = self.field
        u, v = F.scalar(u), F.scalar(v)
        return ProjPoint(F, [u * a + v * b
                             for a, b in zip(self.rows[0], self.rows[1])])

    def points(self):
        """All rational points, (1:t) in element order then (0:1)."""
        F = self.field
        for t in F.elements():
            yield self.point_at(F.one, Scalar(F, t))
        yield self.point_at(F.zero, F.one)

    def raw_rows(self):
        return [[c.raw for c in r] for r in self.rows]

    def meets(self, other) -> Optional[ProjPoint]:
        """Intersection point, None if skew; self is returned for equality."""
        F = self.field
        stacked = self.raw_rows() + other.raw_rows()
        cols = [[stacked[r][c] for r in range(4)] for c in range(4)]
        ker = linalg.kernel(F, cols, 4)
        if not ker:
            return None
        a, b = ker[0][0], ker[0][1]
        pt = [F.radd(F.rmul(a, x.raw), F.rmul(b, y.raw))
              for x, y in zip(self.rows[0], self.rows[1])]
        if all(v == F.rzero for v in pt):
            raise IntegrityError("coincident lines")
        return ProjPoint(F, [Scalar(F, v) for v in pt])

    def map_field(self, target):
        return LineP3(target, [[embed(c, target) for c in r]
                               for r in self.rows])

    def sort_key(self):
        return tuple(tuple(self.field.lex_key(c.raw) for c in r)
                     for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, LineP3) and self.field is other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def __str__(self):
        return "Line" + str([[str(c) for c in r] for r in self.rows])

    def to_json(self):
        return [[str(c) for c in r] for r in self.rows]


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
        return [g.evaluate(pt.coords) for g in self.partials]

    def contains(self, pt: ProjPoint) -> bool:
        return not self.f.evaluate(pt.coords)

    def map_field(self, target):
        emb = lambda s: embed(s, target)
        return Hypersurface(self.f.map_field(target, emb))

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

INTEGRAL_TAGS = (SMOOTH_CUBIC, NODAL_INTEGRAL, CUSPIDAL_INTEGRAL)


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


def _dehomogenize(f: MultiPoly, i: int) -> MultiPoly:
    terms = {}
    F = f.field
    for e, c in f.terms.items():
        e2 = tuple(e[:i] + e[i + 1:])
        prev = terms.get(e2)
        terms[e2] = c if prev is None else prev + c
    return MultiPoly(F, f.nvars - 1, terms)


def is_smooth(x: Hypersurface, scan_first: bool = True) -> bool:
    """Empty singular locus over the closure, chart by chart.

    Each chart X_i = 1 contributes the ideal (f, df/dX_0, ..., df/dX_n)
    dehomogenized; by the Nullstellensatz the chart is singularity-free
    iff that ideal is the unit ideal.  With scan_first a cheap rational
    point scan may short-circuit the answer (it cannot change it).
    """
    if x._smooth is not None:
        return x._smooth
    result = True
    # a rational singular point already witnesses a non-unit chart ideal
    if scan_first and not x.field.is_rational and \
            proj_point_count(x.field.size, x.n) <= 3000:
        raws = [g.raw_terms() for g in [x.f] + x.partials]
        for pt in proj_points(x.field, x.n):
            if all(_raw_eval(x.field, rt, pt) == x.field.rzero
                   for rt in raws):
                result = False
                break
    if result:
        gens_proj = [x.f] + x.partials
        for i in range(x.n + 1):
            gens = [_dehomogenize(g, i) for g in gens_proj]
            gens = [g for g in gens if not g.is_zero()]
            if not gens or not is_unit_ideal(gens):
                result = False
                break
    x._smooth = result
    return result


def proj_points(field, n):
    """P^n(field) in canonical order: pivots first, then free coordinates."""
    for pivot in range(n + 1):
        free = n - pivot
        for tail in itertools.product(list(field.elements()), repeat=free):
            yield (field.rzero,) * pivot + (field.rone,) + tail


def proj_point_count(q, n):
    return (q**(n + 1) - 1) // (q - 1)


def singular_points_scan(x: Hypersurface, ext_cap: int = 2,
                         budget: int = DEFAULT_SCAN_BUDGET):
    """All singular points of residue degree <= ext_cap, by exhaustive scan.

    A bounded cross-check for `is_smooth`, not a smoothness proof.
    """
    base = x.field
    if base.is_rational:
        raise ValueError("point scans need a finite base field")
    found = []
    for j in range(1, ext_cap + 1):
        K = make_field_ext(base, j)
        npoints = proj_point_count(K.size, x.n)
        if npoints > budget:
            raise ScanBudgetExceeded(
                f"scan budget exceeded: |P^{x.n}(F_{K.size})| = {npoints}")
        fx = x.map_field(K) if K is not base else x
        raws = [f.raw_terms() for f in [fx.f] + fx.partials]
        prior = [p.map_field(K) for p, _ in found]
        for pt in proj_points(K, x.n):
            if all(_raw_eval(K, rt, pt) == K.rzero for rt in raws):
                pp = ProjPoint(K, [Scalar(K, c) for c in pt])
                if pp not in prior:
                    found.append((pp, j))
    return found


def make_field_ext(base: FieldSpec, j: int) -> FieldSpec:
    from .fields import make_field
    return make_field(base.p, base.k * j)


def _raw_eval(field, raw_terms, pt):
    acc = field.rzero
    for c, exps in raw_terms:
        term = c
        for xval, e in zip(pt, exps):
            if e:
                if xval == field.rzero:
                    term = field.rzero
                    break
                term = field.rmul(term, field.rpow(xval, e))
        if term != field.rzero:
            acc = field.radd(acc, term)
    return acc


# -- tangent hyperplanes and sections --------------------------------------


def tangent_hyperplane(x: Hypersurface, pt: ProjPoint) -> Hyperplane:
    if not x.contains(pt):
        raise ValueError(f"{pt} does not lie on the hypersurface")
    grad = x.gradient(pt)
    if all(not g for g in grad):
        raise ValueError(f"{pt} is a singular point; no tangent hyperplane")
    return Hyperplane(x.field, grad)


@dataclass(frozen=True)
class SectionChart:
    """Linear parametrization of a hyperplane by P^(n-1)."""
    field: object
    pivot: int
    rows: tuple       # rows[j] = ambient image of the j-th plane coordinate

    def to_ambient(self, coords):
        F = self.field
        vals = [F.zero] * len(self.rows[0])
        for y, row in zip(coords, self.rows):
            y = F.scalar(y)
            if y:
                vals = [v + y * r for v, r in zip(vals, row)]
        return ProjPoint(F, vals)

    def to_plane(self, pt: ProjPoint):
        coords = [c for i, c in enumerate(pt.coords) if i != self.pivot]
        return ProjPoint(self.field, coords)

    def line_in_plane(self, line: LineP3):
        """Coefficients of the image of a line of the hyperplane in plane
        coordinates (P^3 ambient only)."""
        F = self.field
        pts = [self.to_plane(line.point_at(F.one, F.zero)),
               self.to_plane(line.point_at(F.zero, F.one))]
        return plane_line_through(pts[0], pts[1])


def hyperplane_section(x: Hypersurface, plane: Hyperplane):
    """Restrict the cubic to a hyperplane; returns (cubic in n vars, chart).

    The pivot coordinate of the hyperplane is eliminated; the remaining
    coordinates, in increasing index order, parametrize the hyperplane.
    """
    F = x.field
    piv = plane.pivot
    apiv_inv = plane.coeffs[piv].inverse()
    rows = []
    for j in range(x.n + 1):
        if j == piv:
            continue
        row = [F.zero] * (x.n + 1)
        row[j] = F.one
        row[piv] = -plane.coeffs[j] * apiv_inv
        rows.append(tuple(row))
    chart = SectionChart(F, piv, tuple(rows))
    section = substitute_linear_map(x.f, rows, x.n)
    if section.is_zero():
        raise IntegrityError(
            "hypersurface contains the hyperplane; it cannot be smooth")
    return section, chart


def plane_section(x: Hypersurface, plane: Hyperplane):
    """P^3 specialization of hyperplane_section: a ternary cubic plus chart."""
    if x.n != 3:
        raise ValueError("plane_section expects a surface in P^3")
    return hyperplane_section(x, plane)


# -- plane geometry helpers -------------------------------------------------


def plane_line_through(p1: ProjPoint, p2: ProjPoint) -> Hyperplane:
    """Line of P^2 through two distinct points (cross product)."""
    F = p1.field
    a = p1.coords
    b = p2.coords
    coeffs = [a[1] * b[2] - a[2] * b[1],
              a[2] * b[0] - a[0] * b[2],
              a[0] * b[1] - a[1] * b[0]]
    if all(not c for c in coeffs):
        raise ValueError("points coincide; no unique line")
    return Hyperplane(F, coeffs)


def plane_line_param(line: Hyperplane):
    """Two basis points spanning a line of P^2, as degree-1 binary forms."""
    F = line.field
    ker = linalg.kernel(F, [[c.raw for c in line.coeffs]], 3)
    if len(ker) != 2:
        raise ValueError("degenerate line")
    return [BinaryForm.from_scalars(F, [Scalar(F, a), Scalar(F, b)])
            for a, b in zip(ker[0], ker[1])]


def restrict_to_plane_line(f: MultiPoly, line: Hyperplane) -> BinaryForm:
    """Compose a ternary form with the parametrization of a plane line."""
    return compose_with_curve(f, plane_line_param(line))


def divides_plane_line(f: MultiPoly, line: Hyperplane) -> bool:
    return restrict_to_plane_line(f, line).is_zero()


def divide_by_plane_line(f: MultiPoly, line: Hyperplane) -> MultiPoly:
    """Exact quotient f / L for a linear form L dividing f."""
    F = f.field
    lam = [c.raw for c in line.coeffs]
    n_mat = [lam]
    for e in range(3):
        unit = [F.rzero] * 3
        unit[e] = F.rone
        cand = n_mat + [unit]
        if linalg.rank(F, [list(r) for r in cand]) == len(cand):
            n_mat = cand
        if len(n_mat) == 3:
            break
    n_inv = linalg.inverse(F, n_mat)
    if n_inv is None:
        raise IntegrityError("could not complete line to a basis")
    # in coordinates Y = N X the line is {Y_0 = 0}: g(Y) = f(N^{-1} Y)
    rows_fwd = [[Scalar(F, n_inv[i][j]) for i in range(3)] for j in range(3)]
    g = substitute_linear_map(f, rows_fwd, 3)
    quo = {}
    for exps, c in g.terms.items():
        if exps[0] == 0:
            raise ValueError("line does not divide the form")
        quo[(exps[0] - 1, exps[1], exps[2])] = c
    gq = MultiPoly(F, 3, quo)
    rows_back = [[Scalar(F, n_mat[i][j]) for i in range(3)] for j in range(3)]
    return substitute_linear_map(gq, rows_back, 3)


# -- singular points of ternary cubics --------------------------------------


def _y_coeff_upolys(f2: MultiPoly):
    """Coefficients of powers of the second variable, as UPolys in the
    first; f2 lives in two variables."""
    F = f2.field
    maxy = max((e[1] for e in f2.terms), default=-1)
    buckets = [dict() for _ in range(maxy + 1)]
    for (ex, ey), c in f2.terms.items():
        buckets[ey][ex] = c.raw
    out = []
    for bucket in buckets:
        if bucket:
            top = max(bucket)
            out.append(UPoly(F, [bucket.get(i, F.rzero)
                                 for i in range(top + 1)]))
        else:
            out.append(UPoly.zero(F))
    while out and out[-1].is_zero():
        out.pop()
    return out


def _upoly_det(field, mat):
    n = len(mat)
    if n == 0:
        return UPoly(field, [field.rone])
    if n == 1:
        return mat[0][0]

    def minor(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        acc = UPoly.zero(field)
        r = rows[0]
        for pos, c in enumerate(cols):
            entry = mat[r][c]
            if entry.is_zero():
                continue
            sub = minor(rows[1:], cols[:pos] + cols[pos + 1:])
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return minor(tuple(range(n)), tuple(range(n)))


def _resultant_y(field, a_coeffs, b_coeffs):
    """Resultant in the second variable of two bivariate polys given by
    their UPoly-in-x coefficient lists (low y-power first)."""
    rows = sylvester_rows(a_coeffs[::-1], b_coeffs[::-1], UPoly.zero(field))
    return _upoly_det(field, rows)


def _ternary_singular_points(cub: MultiPoly, ext_cap: int):
    """("finite", [(ProjPoint, level)]) or ("infinite", None) for the
    system {cub, d cub/d X_i}."""
    base = cub.field
    forms = [cub] + [cub.partial(i) for i in range(3)]
    forms = [g for g in forms if not g.is_zero()]
    points = []
    # points on the line X2 = 0
    restrictions = []
    for g in forms:
        terms = {e[:2]: c for e, c in g.terms.items() if e[2] == 0}
        if terms:
            d = g.total_degree
            coeffs = [base.zero] * (d + 1)
            for (e0, e1), c in terms.items():
                coeffs[e1] = c
            restrictions.append(BinaryForm(base, d, coeffs))
    if not restrictions:
        return "infinite", None
    g_inf = None
    for r in restrictions:
        g_inf = r if g_inf is None else gcd_bin(g_inf, r)
    if g_inf.degree > 0:
        for (u, v, ext, _mult) in binary_roots(g_inf, ext_cap):
            K = u.field
            pt = ProjPoint(K, [u, v, K.zero])
            gK = [f.map_field(K, lambda s: embed(s, K)) for f in forms]
            if all(not q.evaluate(pt.coords) for q in gK):
                points.append((pt, K.k // base.k))
    # affine chart X2 = 1
    affine = [g for g in (_dehomogenize(f, 2) for f in forms)
              if not g.is_zero()]
    if len(affine) < 2 and all(
            max((e[1] for e in g.terms), default=0) > 0 for g in affine):
        return "infinite", None
    ycoeffs = [_y_coeff_upolys(g) for g in affine]
    constraints = []
    for g, yc in zip(affine, ycoeffs):
        if len(yc) == 1:
            constraints.append(yc[0])
    positive = [yc for yc in ycoeffs if len(yc) > 1]
    for i in range(len(positive)):
        for j in range(i + 1, len(positive)):
            res = _resultant_y(base, positive[i], positive[j])
            if not res.is_zero():
                constraints.append(res)
    if not constraints:
        return "infinite", None
    elim = None
    for cst in constraints:
        elim = cst if elim is None else elim.gcd(cst)
    if elim.is_zero():
        return "infinite", None
    if elim.degree > 0:
        for root in find_roots(elim, ext_cap):
            xi, j1 = root.value, root.ext_degree
            K1 = xi.field
            ysys = []
            for yc in ycoeffs:
                coeffs = [u.map_field(K1).eval_raw(xi.raw) for u in yc]
                upoly = UPoly(K1, coeffs)
                if not upoly.is_zero():
                    ysys.append(upoly)
            if not ysys:
                return "infinite", None
            gy = None
            for u in ysys:
                gy = u if gy is None else gy.gcd(u)
            if gy.degree <= 0:
                continue
            sub_cap = max(1, ext_cap // j1)
            for yroot in find_roots(gy, sub_cap):
                eta = yroot.value
                K2 = eta.field
                xi2 = embed(xi, K2)
                pt = ProjPoint(K2, [xi2, eta, K2.one])
                gK = [f.map_field(K2, lambda s: embed(s, K2)) for f in forms]
                if all(not q.evaluate(pt.coords) for q in gK):
                    points.append((pt, K2.k // base.k))
    return "finite", points


# -- conic helpers -----------------------------------------------------------


def _conic_singular_point(q: MultiPoly) -> Optional[ProjPoint]:
    """Singular point of a ternary conic over its own field, or None."""
    F = q.field
    rows = []
    for i in range(3):
        d = q.partial(i)
        row = [F.rzero] * 3
        for e, c in d.terms.items():
            row[e.index(1)] = c.raw
        rows.append(row)
    for v in linalg.kernel(F, rows, 3):
        if any(x != F.rzero for x in v):
            pt = ProjPoint(F, [Scalar(F, x) for x in v])
            if not q.evaluate(pt.coords):
                return pt
    return None


def _quadric_distinct_roots(q: BinaryForm) -> bool:
    """Char-robust test that a binary quadric has two distinct roots."""
    if q.is_zero() or q.degree != 2:
        raise ValueError("expected a nonzero binary quadric")
    a, b, c = q.coeffs
    if q.field.p == 2:
        return bool(b)
    return bool(b * b - 4 * a * c)


def _completion_matrix(field, first_column):
    """Invertible 3x3 matrix with the given first column (deterministic)."""
    cols = [list(first_column)]
    for e in range(3):
        unit = [field.zero] * 3
        unit[e] = field.one
        cand = cols + [unit]
        raw = [[c.raw for c in col] for col in cand]
        if linalg.rank(field, raw) == len(cand):
            cols = cand
        if len(cols) == 3:
            break
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _factor_degenerate_conic(q: MultiPoly, s: ProjPoint, ext_cap: int):
    """Two lines through s whose product is the singular conic q."""
    F = q.field
    m = _completion_matrix(F, s.coords)
    # rotate columns so s sits at (0:0:1)
    m_rot = [[row[1], row[2], row[0]] for row in m]
    qy = linear_substitute(q, m_rot)
    coeffs = [F.zero] * 3
    for (e0, e1, e2), c in qy.terms.items():
        if e2 != 0:
            raise IntegrityError("conic is not singular at the given point")
        coeffs[e1] = c
    qbin = BinaryForm(F, 2, coeffs)
    roots = binary_roots(qbin, min(2, max(1, ext_cap)))
    lines = []
    K = None
    for (u, v, ext, mult) in roots:
        K = u.field if K is None or u.field.k > K.k else K
    for (u, v, ext, mult) in roots:
        Kr = u.field
        KK = Kr if K is None else K
        u2, v2 = embed(u, KK), embed(v, KK)
        sK = s.map_field(KK)
        mK = [[embed(c, KK) for c in row] for row in m_rot]
        direction = ProjPoint(KK, [row[0] * u2 + row[1] * v2 for row in mK])
        for _ in range(mult):
            lines.append(plane_line_through(sK, direction))
    if len(lines) != 2:
        raise IntegrityError(f"degenerate conic with {len(lines)} factors")
    return lines


# -- classification -----------------------------------------------------------


def classify_plane_cubic(cub: MultiPoly,
                         ext_cap: int = DEFAULT_EXT_CAP) -> CubicSectionClass:
    """Classification of a ternary cubic over the closure of its field."""
    if cub.is_zero():
        raise ValueError("cannot classify the zero cubic")
    if cub.nvars != 3 or not cub.is_homogeneous() or cub.total_degree != 3:
        raise ValueError("expected a ternary cubic form")
    if cub.field.is_rational:
        raise ValueError("classification works over finite fields")
    status, pts = _ternary_singular_points(cub, ext_cap)
    if status == "infinite":
        return _classify_nonreduced(cub)
    if not pts:
        return CubicSectionClass(SMOOTH_CUBIC, None, 1)
    if len(pts) == 1:
        return _classify_one_singular(cub, pts[0], ext_cap)
    return _classify_multi_singular(cub, pts, ext_cap)


def _nodal_frame(cub: MultiPoly, pt: ProjPoint):
    """Move a singular point to (1:0:0); returns (matrix, q, c)."""
    K = pt.field
    m = _completion_matrix(K, pt.coords)
    f_loc = linear_substitute(cub, m)
    qco = [K.zero] * 3
    cco = [K.zero] * 4
    for (e0, e1, e2), coeff in f_loc.terms.items():
        if e0 >= 2:
            raise IntegrityError("point is not singular on the cubic")
        if e0 == 1:
            qco[e2] = coeff
        else:
            cco[e2] = coeff
    return m, BinaryForm(K, 2, qco), BinaryForm(K, 3, cco)


def _classify_one_singular(cub, found, ext_cap):
    pt, level = found
    K = pt.field
    cub_k = cub.map_field(K, lambda s: embed(s, K)) if K is not cub.field \
        else cub
    m, q, c = _nodal_frame(cub_k, pt)
    remaining = max(1, ext_cap // level)
    if q.is_zero():
        roots = binary_roots(c, min(3, remaining))
        if sum(mult for (_, _, _, mult) in roots) != 3:
            raise ExtensionCapExceeded(
                f"splitting the triple-point cubic needs extension degree "
                f"{3 * level}, cap is {ext_cap}")
        if any(mult > 1 for (_, _, _, mult) in roots):
            raise IntegrityError("repeated line through a triple point "
                                 "escaped the non-reduced branch")
        ext = level * max(e for (_, _, e, _) in roots)
        return CubicSectionClass(THREE_LINES_CONCURRENT, pt, ext)
    integral = (not c.is_zero()) and bool(resultant_bin(q, c))
    if integral:
        tag = NODAL_INTEGRAL if _quadric_distinct_roots(q) \
            else CUSPIDAL_INTEGRAL
        return CubicSectionClass(tag, pt, level)
    # reducible with a unique singular point: line + tangent conic
    g = q if c.is_zero() else gcd_bin(q, c)
    shared = binary_roots(g, min(2, remaining))
    if not shared:
        raise ExtensionCapExceeded(
            f"tangent-cone root needs extension degree {2 * level}, "
            f"cap is {ext_cap}")
    u, v, ext_j, _ = shared[0]
    K2 = u.field
    cub2 = cub_k.map_field(K2, lambda s: embed(s, K2)) if K2 is not K \
        else cub_k
    pt2 = pt.map_field(K2)
    m2 = [[embed(x, K2) for x in row] for row in m]
    direction = ProjPoint(K2, [row[1] * u + row[2] * v for row in m2])
    line = plane_line_through(pt2, direction)
    if not divides_plane_line(cub2, line):
        raise IntegrityError("tangent-cone direction is not a component")
    conic = divide_by_plane_line(cub2, line)
    if divides_plane_line(conic, line):
        raise IntegrityError("non-reduced cubic escaped the infinite branch")
    if _conic_singular_point(conic) is not None:
        raise IntegrityError("three lines with a single non-triple point")
    meet = restrict_to_plane_line(conic, line)
    if meet.is_zero() or _quadric_distinct_roots(meet):
        raise IntegrityError("line meets conic transversally but the "
                             "section has one singular point")
    return CubicSectionClass(LINE_CONIC_TANGENT, pt2, level * ext_j)


def _classify_multi_singular(cub, pts, ext_cap):
    if len(pts) > 3:
        raise IntegrityError(f"cubic with {len(pts)} singular points")
    K = join_field(*[p.field for p, _ in pts])
    level = K.k // cub.field.k
    cub_k = cub.map_field(K, lambda s: embed(s, K)) if K is not cub.field \
        else cub
    points = sorted((p.map_field(K) for p, _ in pts),
                    key=lambda p: p.sort_key())
    line = plane_line_through(points[0], points[1])
    if not divides_plane_line(cub_k, line):
        raise IntegrityError("line through two singular points is not "
                             "a component")
    conic = divide_by_plane_line(cub_k, line)
    s = _conic_singular_point(conic)
    if len(pts) == 2:
        if s is not None:
            raise IntegrityError("degenerate residual conic with only two "
                                 "singular points")
        meet = restrict_to_plane_line(conic, line)
        if meet.is_zero() or not _quadric_distinct_roots(meet):
            raise IntegrityError("tangent contact with two singular points")
        return CubicSectionClass(LINE_CONIC_TRANSVERSE, points[0], level)
    if s is None:
        raise IntegrityError("three singular points but residual conic "
                             "is smooth")
    l2, l3 = _factor_degenerate_conic(conic, s, max(1, ext_cap // level))
    K3 = l2.field
    line3 = Hyperplane(K3, [embed(c, K3) for c in line.coeffs])
    coeff_rows = [[c.raw for c in ln.coeffs] for ln in (line3, l2, l3)]
    if linalg.rank(K3, coeff_rows) != 3:
        raise IntegrityError("triangle lines are concurrent or repeated")
    return CubicSectionClass(THREE_LINES_TRIANGLE, points[0],
                             K3.k // cub.field.k)


def _classify_nonreduced(cub):
    F = cub.field
    for coeffs in proj_points(F, 2):
        line = Hyperplane(F, [Scalar(F, c) for c in coeffs])
        if not divides_plane_line(cub, line):
            continue
        rest = divide_by_plane_line(cub, line)
        if not divides_plane_line(rest, line):
            continue
        residual = divide_by_plane_line(rest, line)
        res_coeffs = [F.zero] * 3
        for e, c in residual.terms.items():
            res_coeffs[e.index(1)] = c
        stack = [[c.raw for c in line.coeffs], [c.raw for c in res_coeffs]]
        tag = TRIPLE_LINE if linalg.rank(F, stack) == 1 else LINE_DOUBLE_LINE
        return CubicSectionClass(tag, None, 1)
    raise IntegrityError("infinite singular locus on a reduced cubic")


# -- lines on a cubic surface -------------------------------------------------


def _cell_patterns(n=4):
    """RREF cells of the Grassmannian of lines: (pivots, free positions)."""
    cells = []
    for i in range(n):
        for j in range(i + 1, n):
            free0 = [t for t in range(n) if t not in (i, j) and t > i]
            free1 = [t for t in range(n) if t not in (i, j) and t > j]
            cells.append((i, j, free0, free1))
    return cells


def _row_candidates(field, pivot, other_pivot, free, f_terms, grads):
    """Points of a cell row with f = 0, paired with their gradients."""
    out = []
    z, o = field.rzero, field.rone
    elements = list(field.elements())
    for assign in itertools.product(elements, repeat=len(free)):
        pt = [z] * 4
        pt[pivot] = o
        for pos, val in zip(free, assign):
            pt[pos] = val
        if _raw_eval(field, f_terms, pt) != z:
            continue
        grad = tuple(_raw_eval(field, g, pt) for g in grads)
        out.append((tuple(pt), grad))
    return out


def lines_on_cubic_surface(x: Hypersurface, ext_cap: int = DEFAULT_EXT_CAP,
                           field_cap: int = DEFAULT_LINE_FIELD_CAP,
                           check_smooth: bool = True):
    """All 27 lines on a smooth cubic surface over F_q.

    Scans the RREF cells of lines of P^3 over F_{q^k} for k = 1, 2, ...
    until exactly 27 distinct lines appear; returns (lines, field, k).
    """
    if x.n != 3:
        raise ValueError("line enumeration expects a surface in P^3")
    base = x.field
    if base.is_rational:
        raise ValueError("line enumeration needs a finite base field")
    if check_smooth and not is_smooth(x):
        raise ValueError("surface is singular; the 27-line count needs "
                         "smoothness")
    last_count = 0
    for k in range(1, ext_cap + 1):
        K = make_field_ext(base, k)
        if K.size > field_cap:
            raise ScanBudgetExceeded(
                f"line scan budget exceeded at F_{base.p}^{base.k * k} "
                f"(size {K.size} > {field_cap}); {last_count} lines found "
                f"so far")
        xk = x.map_field(K) if K is not base else x
        f_terms = xk.f.raw_terms()
        grads = [g.raw_terms() for g in xk.partials]
        lines = []
        for (i, j, free0, free1) in _cell_patterns():
            cand0 = _row_candidates(K, i, j, free0, f_terms, grads)
            cand1 = _row_candidates(K, j, i, free1, f_terms, grads)
            for r0, g0 in cand0:
                for r1, g1 in cand1:
                    dot_a = K.rzero
                    for gg, rr in zip(g0, r1):
                        if gg != K.rzero and rr != K.rzero:
                            dot_a = K.radd(dot_a, K.rmul(gg, rr))
                    if dot_a != K.rzero:
                        continue
                    dot_b = K.rzero
                    for gg, rr in zip(g1, r0):
                        if gg != K.rzero and rr != K.rzero:
                            dot_b = K.radd(dot_b, K.rmul(gg, rr))
                    if dot_b != K.rzero:
                        continue
                    lines.append(LineP3(K, [
                        [Scalar(K, c) for c in r0],
                        [Scalar(K, c) for c in r1]]))
        lines = sorted(set(lines), key=lambda l: l.sort_key())
        if len(lines) > 27:
            raise IntegrityError(
                f"{len(lines)} lines found; the surface cannot be smooth")
        if len(lines) == 27:
            return lines, K, k
        last_count = max(last_count, len(lines))
    raise ExtensionCapExceeded(
        f"only {last_count} lines found within extension degree {ext_cap}")


@dataclass
class EckardtReport:
    field: object
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


def eckardt_points(x: Hypersurface, lines) -> EckardtReport:
    """Partition of pairwise line intersections into 3-line (Eckardt) and
    2-line points, with the counting identities asserted."""
    if len(lines) != 27:
        raise ValueError(f"expected the full set of 27 lines, got {len(lines)}")
    by_point = {}
    meets_per_line = [0] * len(lines)
    pairs = 0
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = lines[i].meets(lines[j])
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
    return EckardtReport(lines[0].field if lines else x.field,
                         eckardt, two_line, pairs)


def surface_points(x: Hypersurface):
    """Rational points of the hypersurface over its own base field."""
    F = x.field
    raws = x.f.raw_terms()
    for pt in proj_points(F, x.n):
        if _raw_eval(F, raws, pt) == F.rzero:
            yield ProjPoint(F, [Scalar(F, c) for c in pt])
