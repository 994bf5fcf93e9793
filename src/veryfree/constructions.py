"""Explicit constructions on cubic hypersurfaces: nodal normal forms, the
degree-3 parametrizations and their tangent-bundle identities, the
two-line-point search pipeline for nodal tangent sections, the six-point
incidence search, the exhaustive char-2 Fermat analysis, and the
inductive very-free-curve builder in higher dimension.

The six-point search is one loop over one sequence: the diagonal points
off the line P4 P5, then the other meeting points of connecting lines by
`sort_key`.  The walk and the builder map points and curves between a
section and P^n through the `Hyperplane` that cuts it.

Sections of twists of pulled-back bundles are written in the Euler
quotient presentation: a tuple of Laurent forms, one per ambient
coordinate, whose terms all share one degree, considered modulo Laurent
multiples of the curve components.  A Laurent form is a MultiPoly in
(U, V) whose exponents may be negative; the private helpers beside
`LaurentSection` build monomials, convert binary forms, print Laurent
forms and divide one by a curve component.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from . import linalg
from .errors import ExtensionCapExceeded, IntegrityError
from .fields import FieldSpec, UPoly, check_field, check_raw, embed, \
    format_field_spec, join_field, make_field
from .hypersurface import (CubicSectionClass, Hyperplane, Hypersurface,
                           ProjPoint,
                           NODAL_INTEGRAL, CUSPIDAL_INTEGRAL,
                           LINE_CONIC_TANGENT, THREE_LINES_CONCURRENT,
                           _completion_matrix, _conic_singular_point, _cross,
                           _integral_tag, _nodal_frame,
                           _quadric_distinct_roots, _zeros,
                           classify_plane_cubic,
                           divide_by_plane_line,
                           eckardt_points, hyperplane_section, is_smooth,
                           lines_on_cubic_surface,
                           plane_line_through, plane_section, proj_points,
                           singular_points_scan,
                           surface_points, tangent_hyperplane,
                           DEFAULT_EXT_CAP, DEFAULT_LINE_FIELD_CAP)
from .poly import (BinaryForm, MultiPoly, binary_roots, compose_with_curve,
                   map_curve, parse_poly, poly_to_string)
from .sheafp1 import (MonadP1, SplittingType, _common_gcd, h0_twist,
                      is_very_free_splitting, quotient_graded_dim,
                      splitting_type, validate_monad)


# -- verification reports -------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    lhs: str = ""
    rhs: str = ""
    witness: Optional[str] = None
    flagged: Optional[str] = None

    def to_json(self):
        out = {"check_name": self.name, "pass": self.passed,
               "lhs": self.lhs, "rhs": self.rhs}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.flagged is not None:
            out["flagged"] = self.flagged
        return out


@dataclass
class VerificationReport:
    title: str
    checks: list = dc_field(default_factory=list)

    def add(self, name, passed, lhs="", rhs="", witness=None, flagged=None):
        self.checks.append(Check(name, bool(passed), str(lhs), str(rhs),
                                 witness, flagged))
        return self.checks[-1]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def flags(self):
        return [c.flagged for c in self.checks if c.flagged]

    def to_json(self):
        return {"title": self.title, "pass": self.passed,
                "checks": [c.to_json() for c in self.checks]}

    def __str__(self):
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
                 + (f"  ({c.flagged})" if c.flagged else "")
                 for c in self.checks]
        return "\n".join(lines)


# -- curves and normal forms ----------------------------------------------


@dataclass
class CurveOnX:
    surface: Hypersurface
    components: tuple
    splitting: SplittingType
    very_free: bool
    anticanonical_degree: int

    @property
    def degree(self):
        return self.components[0].degree

    def to_json(self):
        return {"components": [[h.field.rstr(c) for c in h.coeffs]
                               for h in self.components],
                "degree": self.degree,
                "splitting": self.splitting.to_json(),
                "very_free": self.very_free,
                "anticanonical_degree": self.anticanonical_degree,
                "surface": {"field": format_field_spec(self.surface.field),
                            "equation": poly_to_string(self.surface.f)}}


@dataclass
class TangentSectionNormalForm:
    """The surface X0 X1 X2 + X1^3 + X2^3 + X3 Q + X3^2 L + A X3^3."""
    field: FieldSpec
    quadric: MultiPoly             # Q(X0, X1, X2)
    linear: Optional[MultiPoly]    # L(X0, X1, X2)
    cubic_coeff: object            # raw A


def standard_nodal_parametrization(field: FieldSpec):
    """The plane curve map (U:V) -> (-U^3 - V^3 : U^2 V : U V^2)."""
    return scaled_nodal_parametrization(field, field.rone, field.rone)


def nodal_surface_form(field, quadric=None, linear=None, cubic_coeff=None):
    """X0 X1 X2 + X1^3 + X2^3 + X3 Q + X3^2 L + A X3^3 as a normal form.

    Q and L are given in the plane variables X0, X1, X2; Q defaults to
    X0^2 and must satisfy Q(1,0,0) != 0; A is a Scalar or an int.
    """
    if quadric is None:
        quadric = parse_poly("X0^2", 3, field)
    A = field.scalar(cubic_coeff).raw if cubic_coeff is not None \
        else field.rzero
    if not quadric.coefficient((2, 0, 0)):
        raise ValueError("Q(1,0,0) must be nonzero, else the surface is "
                         "singular at the node of the section")
    return TangentSectionNormalForm(field, quadric, linear, A)


def normal_form_surface(nf: TangentSectionNormalForm) -> Hypersurface:
    """The cubic surface attached to a (Q, L, A)-completed normal form."""
    F = nf.field
    # the X3 exponent tells the parts apart, so no two terms meet
    terms = {(1, 1, 1, 0): F.rone, (0, 3, 0, 0): F.rone, (0, 0, 3, 0): F.rone}
    for k, g in ((1, nf.quadric), (2, nf.linear)):
        if g is not None:
            check_field(F, g)
            terms.update({e + (k,): c for e, c in g.terms.items()})
    terms[(0, 0, 0, 3)] = nf.cubic_coeff
    return Hypersurface(MultiPoly.from_raw(F, 4, terms))


def curve_in_surface_coordinates(nf: TangentSectionNormalForm):
    """The standard nodal parametrization as a curve in P^3, X3 = 0."""
    comps = standard_nodal_parametrization(nf.field)
    return comps + [BinaryForm.zero(nf.field, 3)]


# -- tangent pullback monads ------------------------------------------------


def pullback_tangent(x: Hypersurface, curve) -> MonadP1:
    """Monad O -> (+) O(d)^(n+1) -> O(3d) presenting the pulled-back
    tangent bundle of the hypersurface along the curve h, by h and the
    (d_i f)(h).  ValueError if h is not on the hypersurface: away from
    characteristic 3 the monad check's composition sum_i h_i (d_i f)(h)
    is 3 f(h) (Euler), and f is composed with h only to print f(h)."""
    curve = list(curve)
    if len(curve) != x.n + 1:
        raise ValueError(f"curve needs {x.n + 1} components")
    degs = {h.degree for h in curve}
    if len(degs) != 1:
        raise ValueError("curve components must share one degree")
    d = degs.pop()
    if d < 1:
        raise ValueError("constant curves have no tangent pullback")
    if linalg.rank(x.field, [h.coeffs for h in curve]) < 2:
        raise ValueError("curve map is constant")
    beta = tuple(compose_with_curve(g, curve) for g in x.partials)
    monad = MonadP1(x.field, 0, (d,) * (x.n + 1), 3 * d, tuple(curve), beta)
    report = validate_monad(monad)
    if x.field.p == 3 or "composition" in dict(report.failures):
        image = compose_with_curve(x.f, curve)
        if not image.is_zero():
            raise ValueError(f"curve does not lie on the hypersurface: "
                             f"f(h) = {image}")
    if not report.ok:
        raise IntegrityError(f"pullback monad invalid: {report}")
    return monad


def very_free(x: Hypersurface, curve):
    """Splitting type of the pulled-back tangent bundle plus the min >= 1
    ampleness test."""
    s = splitting_type(pullback_tangent(x, curve))
    return is_very_free_splitting(s), s


def make_curve(x: Hypersurface, curve) -> CurveOnX:
    ok, s = very_free(x, curve)
    d = curve[0].degree
    return CurveOnX(x, tuple(curve), s, ok, (x.n - 2) * d)


# -- Laurent sections of twisted pullbacks ----------------------------------
#
# A Laurent form is a MultiPoly in (U, V) whose exponents may be negative.


def _laurent(field, i, j, value=None):
    """The Laurent monomial value * U^i V^j for a raw value (default 1)."""
    return MultiPoly.from_raw(field, 2, {(i, j): field.rone if value is None
                                         else value})


def _laurent_from_binary(bf: BinaryForm) -> MultiPoly:
    return MultiPoly.from_raw(bf.field, 2, {(bf.degree - j, j): c
                                            for j, c in enumerate(bf.coeffs)})


def _laurent_str(f: MultiPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for (i, j), c in sorted(f.terms.items(), key=lambda t: -t[0][0]):
        mono = []
        if i:
            mono.append(f"U^{i}" if i != 1 else "U")
        if j:
            mono.append(f"V^{j}" if j != 1 else "V")
        cs = f.field.rstr(c)
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        if mono and cs == "1":
            parts.append("*".join(mono))
        else:
            parts.append("*".join([cs] + mono) if mono else cs)
    return " + ".join(parts)


def _laurent_quotient(num: MultiPoly, den: MultiPoly):
    """The Laurent form q with q * den == num for homogeneous num and a
    nonzero homogeneous den, or None.

    In t = V/U a Laurent form of degree d is U^d times a Laurent
    polynomial in t, whose units are the monomials c t^k.  Stripped of
    their least powers of t, both sides are polynomials and den's has a
    nonzero constant term, so den divides num iff those divide."""
    F = num.field
    if num.is_zero():
        return num

    def split(f):
        j0 = min(j for _, j in f.terms)
        coeffs = [F.rzero] * (max(j for _, j in f.terms) - j0 + 1)
        for (_, j), c in f.terms.items():
            coeffs[j - j0] = c
        return sum(next(iter(f.terms))), j0, UPoly(F, coeffs)

    dn, jn, pn = split(num)
    dd, jd, pd = split(den)
    quo, rem = pn.divmod(pd)
    if not rem.is_zero():
        return None
    j0, d = jn - jd, dn - dd
    return MultiPoly.from_raw(F, 2, {(d - j0 - k, j0 + k): c
                                     for k, c in enumerate(quo.coeffs)})


@dataclass
class LaurentSection:
    components: tuple       # Laurent forms, one per ambient coordinate

    def __post_init__(self):
        if len({sum(e) for c in self.components for e in c.terms}) > 1:
            raise ValueError("section terms have mixed degrees")

    def shift(self, i, j):
        m = _laurent(self.components[0].field, i, j)
        return LaurentSection(tuple(m * c for c in self.components))

    def __sub__(self, other):
        return LaurentSection(tuple(a - b for a, b in
                                    zip(self.components, other.components)))

    def __add__(self, other):
        return LaurentSection(tuple(a + b for a, b in
                                    zip(self.components, other.components)))

    def dot(self, forms) -> MultiPoly:
        """Pair against Laurent forms: sum_i comp_i * forms_i."""
        acc = MultiPoly.zero(self.components[0].field, 2)
        for comp, f in zip(self.components, forms):
            acc = acc + comp * f
        return acc

    def __str__(self):
        return "(" + ", ".join(_laurent_str(c) for c in self.components) + ")"


def euler_multiple(diff: LaurentSection, curve):
    """Laurent multiplier t with diff = t * curve, or None; the curve
    components are given as Laurent forms.

    Realizes equality of chart expressions modulo the Euler relation.
    """
    idx = next((i for i, h in enumerate(curve) if not h.is_zero()), None)
    if idx is None:
        raise ValueError("zero curve")
    lam = _laurent_quotient(diff.components[idx], curve[idx])
    if lam is None or any(lam * h != d
                          for d, h in zip(diff.components, curve)):
        return None
    return lam


def euler_equivalent(a: LaurentSection, b: LaurentSection, curve) -> bool:
    return euler_multiple(a - b, curve) is not None


# -- the explicit identity replays ------------------------------------------


def _xi_eta_sections(field):
    L = _laurent
    z = MultiPoly.zero(field, 2)
    xi_v = LaurentSection((L(field, 2, -4), -L(field, 1, -3),
                           -L(field, 0, -2), z))
    xi_u = LaurentSection((L(field, -4, 2), -L(field, -2, 0),
                           -L(field, -3, 1), z))
    eta_v = LaurentSection((L(field, 1, -2), -L(field, 0, -1), z, z))
    eta_u = LaurentSection((-L(field, -2, 1), z, L(field, -1, 0), z))
    return xi_v, xi_u, eta_v, eta_u


def _generator_sections(field):
    L = _laurent
    z = MultiPoly.zero(field, 2)
    two, three = field.rfrom_int(2), field.rfrom_int(3)
    gen_v = LaurentSection((L(field, 2, -1, three), -L(field, 1, 0, two),
                            -L(field, 0, 1), z))
    gen_u = LaurentSection((-L(field, -1, 2, three), L(field, 1, 0),
                            L(field, 0, 1, two), z))
    return gen_v, gen_u


def _add_euler_check(report, name, a, b, curve):
    """Check that the chart expressions a and b of one section differ by
    a Laurent multiple of the curve, and record the multiplier."""
    lam = euler_multiple(a - b, curve)
    report.add(f"{name} chart expressions agree modulo Euler",
               lam is not None, lhs=str(a), rhs=str(b),
               witness=None if lam is None
               else f"multiplier {_laurent_str(lam)}")


def verify_xi_eta(nf: TangentSectionNormalForm) -> VerificationReport:
    """Replay the explicit section computations on the nodal normal form.

    The checks are independent of the completion data (Q, L, A) apart
    from the X3-derivative, exactly as the symbolic computation shows.
    """
    F = nf.field
    x = normal_form_surface(nf)
    curve = curve_in_surface_coordinates(nf)
    report = VerificationReport(f"nodal tangent sections over {F!r}")

    on_surface = compose_with_curve(x.f, curve)
    report.add("curve lies on surface", on_surface.is_zero(),
               lhs=f"f(h) = {on_surface}", rhs="0")

    beta = [compose_with_curve(g, curve) for g in x.partials]
    curve_l = [_laurent_from_binary(h) for h in curve]
    beta_l = [_laurent_from_binary(b) for b in beta]
    xi_v, xi_u, eta_v, eta_u = _xi_eta_sections(F)

    _add_euler_check(report, "xi", xi_v, xi_u, curve_l)
    _add_euler_check(report, "eta", eta_v, eta_u, curve_l)

    xi_f = xi_v.dot(beta_l)
    expected = -_laurent(F, 2, 2)
    report.add("xi . f = -U^2 V^2", xi_f == expected,
               lhs=_laurent_str(xi_f), rhs=_laurent_str(expected))

    eta_f = eta_v.dot(beta_l)
    support = set(eta_f.terms)
    units = all(c in (F.rone, F.rneg(F.rone)) for c in eta_f.terms.values())
    ok_support = support == {(4, 1), (1, 4)} and units
    signs = {e: ("+" if eta_f.terms[e] == F.rone else "-")
             for e in sorted(support, reverse=True)}
    stated = {(4, 1): "-", (1, 4): "-"}
    flag = None
    if ok_support and signs != stated and F.p != 2:
        flag = (f"sign deviation: computed eta.f = {_laurent_str(eta_f)}, "
                f"stated -U^4*V - U*V^4")
    report.add("eta . f has support {U^4 V, U V^4} with unit coefficients",
               ok_support, lhs=_laurent_str(eta_f),
               rhs="coefficients +-1 on U^4*V, U*V^4",
               witness=f"signs {signs}", flagged=flag)

    q_pull = compose_with_curve(nf.quadric, curve[:3])
    report.add("d f / d X3 pulled back equals Q(-U^3-V^3, U^2 V, U V^2)",
               beta[3] == q_pull, lhs=str(beta[3]), rhs=str(q_pull))

    monad = pullback_tangent(x, curve)
    gamma = quotient_graded_dim(monad, -3)
    report.add("sections of the (-3) twist vanish", gamma == 0,
               lhs=str(gamma), rhs="0")

    gen_v, gen_u = _generator_sections(F)
    report.add("generator chart expressions agree modulo Euler",
               euler_equivalent(gen_v, gen_u, curve_l),
               lhs=str(gen_v), rhs=str(gen_u))
    lhs = eta_v.shift(1, 1) - xi_v.shift(3, 0) + xi_v.shift(0, 3)
    sign = None
    if euler_equivalent(lhs, gen_v, curve_l):
        sign = "+"
    elif euler_multiple(lhs + gen_v, curve_l) is not None:
        sign = "-"
    flag = None if sign == "+" or F.p == 2 else (
        None if sign is None else
        f"generator matches only after global sign flip ({sign})")
    report.add("UV eta - U^3 xi + V^3 xi spans the degree-2 summand",
               sign is not None, lhs=str(lhs), rhs=str(gen_v),
               witness=f"sign {sign}", flagged=flag)
    return report


def cuspidal_parametrization(field, a):
    """(U:V) -> (U^3 + a U^2 V : -U V^2 : -V^3), the normalization of
    X0 X2^2 + X1^3 + a X1^2 X2 = 0 for a raw a (0 away from
    characteristic 3)."""
    check_raw(field, (a,))
    zero, minus = field.rzero, field.rneg(field.rone)
    return [BinaryForm.from_raw(field, 3, [field.rone, a, zero, zero]),
            BinaryForm.from_raw(field, 3, [zero, zero, minus, zero]),
            BinaryForm.from_raw(field, 3, [zero, zero, zero, minus])]


def _delta_sections(field, a):
    L = _laurent
    z = MultiPoly.zero(field, 2)
    if field.p == 3:
        a2 = field.rmul(a, a)
        dv = LaurentSection((-L(field, 1, -1, a), -L(field, 0, 0), z, z))
        c0 = L(field, -1, 1, field.rmul(a2, a)) - L(field, 0, 0, a2)
        c1 = -(L(field, -2, 2, a2) - L(field, -1, 1, field.radd(a, a))
               + L(field, 0, 0))
        c2 = -(L(field, -3, 3, a2) + L(field, -2, 2, a))
        du = LaurentSection((c0, c1, c2, z))
        return dv, du
    three = field.rfrom_int(3)
    dv = LaurentSection((L(field, 2, -2, three), -L(field, 0, 0), z, z))
    du = LaurentSection((z, L(field, 0, 0, field.rfrom_int(2)),
                         L(field, -1, 1, three), z))
    return dv, du


def verify_cuspidal_delta(field, alpha) -> VerificationReport:
    """Cuspidal tangent sections: the counterexample to very-freeness.

    For characteristic 3 the cubic X1^3 + alpha X1^2 X2 (alpha != 0)
    replaces X1^3; the section and the splitting conclusion are the same.
    """
    F = field
    a = F.scalar(alpha).raw
    if F.p == 3 and not a:
        raise ValueError("characteristic 3 needs alpha != 0: the cusp "
                         "normal form X1^3 alone is unavailable")
    if F.p != 3:
        a = F.rzero
    report = VerificationReport(f"cuspidal tangent sections over {F!r}, "
                                f"alpha = {F.rstr(a)}")
    # plane curve X0 X2^2 + X1^3 + a X1^2 X2, ambient completion X3 * X0^2
    x = Hypersurface(MultiPoly.from_raw(F, 4, {
        (1, 0, 2, 0): F.rone, (0, 3, 0, 0): F.rone, (2, 0, 0, 1): F.rone,
        (0, 2, 1, 0): a}))
    plane = cuspidal_parametrization(F, a)
    curve = plane + [BinaryForm.zero(F, 3)]
    on_surface = compose_with_curve(x.f, curve)
    report.add("curve lies on surface", on_surface.is_zero(),
               lhs=f"f(h) = {on_surface}", rhs="0")
    beta = [_laurent_from_binary(compose_with_curve(g, curve))
            for g in x.partials]
    dv, du = _delta_sections(F, a)
    _add_euler_check(report, "delta", dv, du,
                     [_laurent_from_binary(h) for h in curve])
    df = dv.dot(beta)
    report.add("delta . f = 0 (delta is a section of the (-3) twist)",
               df.is_zero(), lhs=_laurent_str(df), rhs="0")
    monad = pullback_tangent(x, curve)
    s = splitting_type(monad)
    report.add("splitting type is {3, 0}", s.parts == (3, 0),
               lhs=str(s), rhs="{3, 0}")
    report.add("curve is not very free", not is_very_free_splitting(s),
               lhs=f"min part {min(s.parts)}", rhs="< 1")
    h0m4 = h0_twist(monad, -4)
    report.add("sections of the (-4) twist vanish", h0m4 == 0,
               lhs=str(h0m4), rhs="0")
    return report


# -- nodal normal form --------------------------------------------------------


def _nodal_prenormalization(cub: MultiPoly, node: ProjPoint):
    """Coordinate change making a nodal integral cubic, over a finite
    field and already classified by the caller, equal to
    X0 X1 X2 + a0 X1^3 + a3 X2^3; only the tangent directions may force
    a quadratic extension.  Returns (K, matrix rows, a0, a3), raw over
    the field K of the tangent directions."""
    m1, q, c = _nodal_frame(cub, node)
    # tangent directions: q = lambda * L1 * L2 with distinct roots
    roots = binary_roots(q, 2)
    if sum(mult for (_, _, _, mult) in roots) != 2 or len(roots) != 2:
        raise IntegrityError("nodal quadric without two distinct roots")
    K = join_field(*(L for (L, _, _, _) in roots))
    (u1, v1), (u2, v2) = [(embed(L, u, K), embed(L, v, K))
                          for (L, u, v, _) in roots]
    qk, ck = q.map_field(K), c.map_field(K)
    # q(X1, X2) = lam * (v1 X1 - u1 X2)(v2 X1 - u2 X2)
    l1l2 = (BinaryForm.from_raw(K, 1, [v1, K.rneg(u1)])
            * BinaryForm.from_raw(K, 1, [v2, K.rneg(u2)]))
    jj = next(j for j in range(3) if l1l2.coeffs[j])
    lam = K.rmul(qk.coeffs[jj], K.rinv(l1l2.coeffs[jj]))
    # (Y1, Y2) = S (X1, X2) with Y1 = L1, Y2 = lam L2; substitute X = M2 Y,
    # which takes X0 q + c to Y0 Y1 Y2 + sum_t a_t Y1^(3-t) Y2^t (checked)
    s_inv = linalg.inverse(K, [[v1, K.rneg(u1)],
                               [K.rmul(lam, v2), K.rneg(K.rmul(lam, u2))]])
    if s_inv is None:
        raise IntegrityError("tangent directions are not independent")
    (s00, s01), (s10, s11) = s_inv
    a0, a1, a2, a3 = ck.reparametrize(s00, s01, s10, s11).coeffs
    if qk.reparametrize(s00, s01, s10, s11) != BinaryForm.monomial(K, 1, 1) \
            or not a0 or not a3:
        raise IntegrityError("unexpected shape after tangent normalization")
    # then X0 -> X0 - a1 X1 - a2 X2 absorbs the middle terms, a0 and a3
    # stay: M2 M3 with M2 = diag(1, S^-1) and M3 that shear
    z = K.rzero
    m23 = [[K.rone, K.rneg(a1), K.rneg(a2)], [z, s00, s01], [z, s10, s11]]
    return K, m1, m23, a0, a3


def scaled_nodal_parametrization(field, a0, a3):
    """(U:V) -> (-a0 U^3 - a3 V^3 : U^2 V : U V^2) for raw a0, a3, the
    normalization of X0 X1 X2 + a0 X1^3 + a3 X2^3 = 0; no root
    extraction needed."""
    check_raw(field, (a0, a3))
    zero, one = field.rzero, field.rone
    return [BinaryForm.from_raw(field, 3, [field.rneg(a0), zero, zero,
                                           field.rneg(a3)]),
            BinaryForm.from_raw(field, 3, [zero, one, zero, zero]),
            BinaryForm.from_raw(field, 3, [zero, zero, one, zero])]


def nodal_section_curve(res: "NodalSectionResult") -> CurveOnX:
    """The very free curve carried by a nodal tangent section.

    Uses the scaling-free parametrization of X0 X1 X2 + a0 X1^3 +
    a3 X2^3, which takes no cube root, so only the tangent directions
    may extend the field.  The walk has already classified the section
    with no point given.
    """
    cls = res.classification
    if cls.tag != NODAL_INTEGRAL:
        raise ValueError(f"expected a nodal integral section, classified "
                         f"as {cls.tag}")
    node = cls.singular_point
    kf, m1, m23, a0, a3 = _nodal_prenormalization(res.section, node)
    h = map_curve(kf, m23, scaled_nodal_parametrization(kf, a0, a3))
    h_plane = map_curve(node.field, m1, h)
    return make_curve(res.surface.map_field(kf),
                      res.plane.curve_to_ambient(h_plane))


# -- conic and line curves ----------------------------------------------------


def parametrize_conic(conic: MultiPoly):
    """Degree-2 parametrization of a smooth plane conic with a rational
    point (stereographic projection; valid in every characteristic)."""
    F = conic.field
    if F.is_rational:
        raise ValueError("conic parametrization needs a finite field")
    base = next((pt for pt, _ in _zeros([conic])), None)
    if base is None:
        raise ValueError("conic has no rational point over the base field")
    # complete to a basis; the residual pencil parametrizes the conic
    base_pt, e1, e2 = zip(*_completion_matrix(F, base))

    def bilinear(uvec, vvec):
        s = [F.radd(a, b) for a, b in zip(uvec, vvec)]
        return F.rsub(F.rsub(conic.evaluate(s), conic.evaluate(uvec)),
                      conic.evaluate(vvec))

    # point(s, t) = Q(Y) P0 - B(P0, Y) Y with Y = s e1 + t e2
    qY = BinaryForm.from_raw(F, 2, [conic.evaluate(e1), bilinear(e1, e2),
                                    conic.evaluate(e2)])
    bY = BinaryForm.from_raw(F, 1, [bilinear(base_pt, e1),
                                    bilinear(base_pt, e2)])
    comps = []
    for i in range(3):
        yi = BinaryForm.from_raw(F, 1, [e1[i], e2[i]])
        comps.append((qY.scale(base_pt[i]) - bY * yi).promote(2))
    check = compose_with_curve(conic, comps)
    if not check.is_zero():
        raise IntegrityError("conic parametrization failed")
    g = _common_gcd(comps)
    if g is None or g.degree > 0:
        raise IntegrityError("conic parametrization has a base point")
    return comps


# -- six-point incidence search ----------------------------------------------


@dataclass
class SixPointResult:
    q: Optional[ProjPoint]
    diagonal_points: tuple
    certificate: VerificationReport
    reason: Optional[str] = None

    def to_json(self):
        return {"q": self.q.to_json() if self.q else None,
                "diagonal_points": [p.to_json()
                                    for p in self.diagonal_points],
                "certificate": self.certificate.to_json(),
                "reason": self.reason}


def _conic_row(p):
    """Raw values at p of the conic monomials X^2, XY, Y^2, XZ, YZ, Z^2."""
    F, (x, y, z) = p.field, p.coords
    return [F.rmul(x, x), F.rmul(x, y), F.rmul(y, y),
            F.rmul(x, z), F.rmul(y, z), F.rmul(z, z)]


def _five_point_conic(points):
    F = points[0].field
    ker = linalg.kernel(F, [_conic_row(p) for p in points], 6)
    if len(ker) != 1:
        raise ValueError("five points do not determine a unique conic")
    c = ker[0]
    terms = {(2, 0, 0): c[0], (1, 1, 0): c[1], (0, 2, 0): c[2],
             (1, 0, 1): c[3], (0, 1, 1): c[4], (0, 0, 2): c[5]}
    return MultiPoly.from_raw(F, 3, terms)


def six_point_diagonal(points) -> SixPointResult:
    """A point on exactly two of the fifteen connecting lines, off all
    other lines, distinct from the six points, and off the six conics.

    Tries the diagonal points of the first four points first, then the
    other intersection points of two connecting lines; in characteristic
    2 the forced configuration admits no such point and the result
    records that.
    """
    points = list(points)
    if len(points) != 6:
        raise ValueError("expected six points")
    F = points[0].field
    if len(set(points)) != 6:
        raise ValueError("the six points must be distinct")
    for (i, j, k) in itertools.combinations(range(6), 3):
        rows = [points[t].coords for t in (i, j, k)]
        if linalg.det(F, rows) == F.rzero:
            raise ValueError(f"points {i}, {j}, {k} are collinear")
    if linalg.det(F, [_conic_row(p) for p in points]) == F.rzero:
        raise ValueError("the six points lie on a conic")

    lines = {}
    for (i, j) in itertools.combinations(range(6), 2):
        lines[(i, j)] = plane_line_through(points[i], points[j])
    conics = [_five_point_conic([p for t, p in enumerate(points) if t != i])
              for i in range(6)]

    def certify(q):
        cert = VerificationReport(f"incidence certificate for {q}")
        cert.add("distinct from the six points",
                 all(q != p for p in points))
        through = [ij for ij, ln in lines.items() if ln.contains(q)]
        cert.add("on exactly two connecting lines", len(through) == 2,
                 lhs=str(through), rhs="2 lines")
        on_conics = [i for i, cn in enumerate(conics)
                     if not cn.evaluate(q.coords)]
        cert.add("off all six five-point conics", not on_conics,
                 lhs=str(on_conics), rhs="[]")
        return cert

    # no three points are collinear, so two connecting lines with no
    # index in common are distinct and meet in a point
    diagonals = (_cross(lines[(0, 1)], lines[(2, 3)]),
                 _cross(lines[(0, 2)], lines[(1, 3)]),
                 _cross(lines[(0, 3)], lines[(1, 2)]))
    p45 = lines[(4, 5)]
    candidates = set()

    def search_order():
        """The diagonal points off P4 P5, then every other intersection
        point by `sort_key`; a diagonal point on P4 P5 lies on three
        connecting lines, so it is not tried."""
        yield from (d for d in diagonals if not p45.contains(d))
        candidates.update(_cross(lines[ij], lines[kl]) for ij, kl
                          in itertools.combinations(sorted(lines), 2)
                          if not set(ij) & set(kl))
        yield from sorted(candidates.difference(diagonals),
                          key=lambda p: p.sort_key())

    for q in search_order():
        cert = certify(q)
        if cert.passed:
            return SixPointResult(q, diagonals, cert)
    reason = ("no intersection point satisfies the incidence conditions"
              + ("; every diagonal point lies on the line through the "
                 "last two points" if all(p45.contains(d)
                                          for d in diagonals) else ""))
    empty = VerificationReport("no valid point")
    empty.add("exhaustive search over intersection points", False,
              lhs=f"{len(candidates)} candidates", rhs="none admissible")
    return SixPointResult(None, diagonals, empty, reason)


# -- the two-line-point pipeline ----------------------------------------------


class AllEckardtError(RuntimeError):
    """Every pairwise line intersection is an Eckardt point, so the
    nodal-section pipeline has no starting point."""

    def __init__(self, message, census):
        super().__init__(message)
        self.census = census


@dataclass
class NodalSectionResult:
    surface: Hypersurface        # over the working field
    point: ProjPoint
    plane: Hyperplane
    section: MultiPoly
    classification: CubicSectionClass
    work_ext: int                # working-field degree over the input field

    def to_json(self):
        return {"point": self.point.to_json(),
                "plane": self.plane.to_json(),
                "classification": self.classification.to_json(),
                "work_ext": self.work_ext}


def find_nodal_section(x: Hypersurface, ext_cap: int = DEFAULT_EXT_CAP,
                       line_field_cap: int = DEFAULT_LINE_FIELD_CAP
                       ) -> NodalSectionResult:
    """Tangent-plane section with an ordinary double point, found by the
    two-line-point walk: a non-Eckardt intersection point z, a line D
    through z, a point y on D whose residual conic is smooth and meets D
    twice, then a point x on that conic with C(x) nodal integral at x.
    """
    base = x.field
    lines, K, k = lines_on_cubic_surface(x, ext_cap, line_field_cap)
    xk = x.map_field(K)
    census = eckardt_points(xk, lines)
    if not census.two_line:
        raise AllEckardtError(
            "all intersection points are Eckardt points; no nodal "
            "tangent section exists through a two-line point", census)
    _, (i1, _i2) = census.two_line[0]
    mult = 1
    while True:
        km = make_field(base.p, K.k * mult)
        if km.size > line_field_cap:
            raise ExtensionCapExceeded(
                "nodal-section walk exhausted the working field sizes")
        xm = xk.map_field(km)
        dm = lines[i1].map_field(km)
        found = _walk_line_for_section(xm, dm, ext_cap)
        if found is not None:
            plane, section, cls, point = found
            return NodalSectionResult(xm, point, plane, section, cls,
                                      km.k // base.k)
        mult += 1


def _curve_points(comps):
    """The curve (U:V) -> (h_0 : ... : h_n) at each rational point of
    P^1 in `proj_points` order: (1:t) with t in element order, then
    (0:1)."""
    F = comps[0].field
    for u, v in proj_points(F, 1):
        yield ProjPoint.from_raw(F, [h.evaluate(u, v) for h in comps])


def _walk_line_for_section(xm, dm, ext_cap):
    for y in _curve_points(dm.param_forms()):
        plane = tangent_hyperplane(xm, y)
        section = plane_section(xm, plane)
        d_in = plane.line_in_plane(dm)
        try:
            conic, meet = divide_by_plane_line(section, d_in)
        except ValueError:
            raise IntegrityError("tangent section at a point of a line "
                                 "does not contain the line") from None
        if _conic_singular_point(conic) is not None:
            continue
        if meet.is_zero() or not _quadric_distinct_roots(meet):
            continue
        hit = _walk_conic_for_node(xm, plane, conic, d_in, ext_cap)
        if hit is not None:
            return hit
    return None


def _walk_conic_for_node(xm, plane, conic, d_in, ext_cap):
    for pt in _curve_points(parametrize_conic(conic)):
        if d_in.contains(pt):
            continue
        x_amb = plane.to_ambient(pt)
        plane_x = tangent_hyperplane(xm, x_amb)
        section_x = plane_section(xm, plane_x)
        x_in_plane = plane_x.to_plane(x_amb)
        # cheap exact screen: the integral rows of the tangent-cone table
        # at x; the confirming classification is given no point, so the
        # Groebner strata check the node independently
        _, q, c = _nodal_frame(section_x, x_in_plane)
        if _integral_tag(q, c) != NODAL_INTEGRAL:
            continue
        cls = classify_plane_cubic(section_x, ext_cap)
        if cls.tag != NODAL_INTEGRAL or cls.singular_point != x_in_plane:
            raise IntegrityError("classification disagrees with the "
                                 "nodal-frame screen")
        return plane_x, section_x, cls, x_amb
    return None


# -- the inductive very-free-curve builder -------------------------------------


def fermat_char2_curve(field):
    """The explicit very free curve on the characteristic-2 Fermat
    surface: (U:V) -> (U^3+U^2 V : U^3+U^2 V+V^3 : U^2 V+V^3 : U V^2)."""
    if field.p != 2:
        raise ValueError("this curve is specific to characteristic 2")
    return [BinaryForm.from_raw(field, 3, c)
            for c in ([1, 1, 0, 0], [1, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0])]


def build_very_free_curve(x: Hypersurface, ext_cap: int = DEFAULT_EXT_CAP,
                          line_field_cap: int = DEFAULT_LINE_FIELD_CAP
                          ) -> CurveOnX:
    """Degree-3 very free curve on a smooth cubic hypersurface in P^n.

    n = 3: nodal tangent section, normalized and parametrized; in
    characteristic 2, when no two-line point exists, the explicit
    Fermat curve if it lies on x.  n >= 4: scan hyperplanes for a
    smooth cubic section of one dimension less, recurse, re-embed, and
    certify very-freeness on the hypersurface itself.
    """
    if x.field.is_rational:
        raise ValueError("the constructive search needs a finite field")
    if x.n < 3:
        raise ValueError("expected an ambient dimension >= 3")
    if not is_smooth(x):
        raise ValueError("hypersurface is singular")
    if x.n == 3:
        return _surface_very_free_curve(x, ext_cap, line_field_cap)
    F = x.field
    for raw in proj_points(F, x.n):
        plane = Hyperplane.from_raw(F, raw)
        sec_x = Hypersurface(hyperplane_section(x, plane))
        if singular_points_scan(sec_x, 1):
            continue
        if not is_smooth(sec_x):
            continue
        sub = build_very_free_curve(sec_x, ext_cap, line_field_cap)
        xc = x.map_field(sub.surface.field)
        curve = make_curve(xc, plane.curve_to_ambient(sub.components))
        if not curve.very_free:
            raise IntegrityError(
                f"lifted curve has splitting {curve.splitting}; the "
                f"ample-divisor lifting argument predicts very freeness")
        return curve
    raise ExtensionCapExceeded("no hyperplane gives a smooth section")


def _surface_very_free_curve(x, ext_cap, line_field_cap):
    try:
        res = find_nodal_section(x, ext_cap, line_field_cap)
    except AllEckardtError:
        if x.field.p != 2:
            raise
        curve = fermat_char2_curve(x.field)
        if not compose_with_curve(x.f, curve).is_zero():
            raise
        return make_curve(x, curve)
    return nodal_section_curve(res)


# -- exhaustive characteristic-2 Fermat analysis --------------------------------

FERMAT2_TRICHOTOMY = (CUSPIDAL_INTEGRAL, LINE_CONIC_TANGENT,
                      THREE_LINES_CONCURRENT)
REFERENCE_ECKARDT_COUNT = 35   # count stated alongside the trichotomy claim


@dataclass
class FermatChar2Report:
    ext_degree: int
    field_size: int
    n_points: int
    class_counts: dict
    exceptions: list            # [(point, classification)] outside trichotomy
    eckardt_count: int
    two_line_count: int
    incident_pairs: int

    @property
    def trichotomy_holds(self):
        return not self.exceptions

    @property
    def matches_reference_count(self):
        return self.eckardt_count == REFERENCE_ECKARDT_COUNT

    def to_json(self):
        return {
            "extension_degree": self.ext_degree,
            "field_size": self.field_size,
            "points_classified": self.n_points,
            "class_counts": dict(sorted(self.class_counts.items())),
            "trichotomy_holds": self.trichotomy_holds,
            "exceptions": [{"point": p.to_json(), "class": c.to_json()}
                           for p, c in self.exceptions],
            "eckardt_count": self.eckardt_count,
            "two_line_count": self.two_line_count,
            "incident_pairs": self.incident_pairs,
            "reference_eckardt_count": REFERENCE_ECKARDT_COUNT,
            "matches_reference_count": self.matches_reference_count,
        }


def fermat_char2_report(k: int, ext_cap: int = DEFAULT_EXT_CAP,
                        line_field_cap: int = DEFAULT_LINE_FIELD_CAP
                        ) -> FermatChar2Report:
    """Classify the tangent section at every point of the Fermat cubic
    surface over F_{2^k} and census its Eckardt points."""
    K = make_field(2, k)
    x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, K))
    counts = {}
    exceptions = []
    n = 0
    for pt in surface_points(x):
        n += 1
        plane = tangent_hyperplane(x, pt)
        cls = classify_plane_cubic(plane_section(x, plane), ext_cap,
                                   plane.to_plane(pt))
        counts[cls.tag] = counts.get(cls.tag, 0) + 1
        if cls.tag not in FERMAT2_TRICHOTOMY:
            exceptions.append((pt, cls))
    lines, kl, _ = lines_on_cubic_surface(x, ext_cap, line_field_cap)
    census = eckardt_points(x.map_field(kl), lines)
    return FermatChar2Report(k, K.size, n, counts, exceptions,
                             len(census.eckardt), len(census.two_line),
                             census.incident_pairs)


def sample_admissible_completion(field, rng):
    """Random (Q, L, A) with Q(1,0,0) != 0, for the normal-form surface;
    A is a Scalar, as `nodal_surface_form` takes it."""
    def coeff():
        if field.is_rational:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        return rng.randrange(field.size)

    while True:
        q_terms = {}
        for combo in itertools.combinations_with_replacement(range(3), 2):
            e = [0, 0, 0]
            for i in combo:
                e[i] += 1
            c = coeff()
            if c:
                q_terms[tuple(e)] = c
        quadric = MultiPoly.from_raw(field, 3, q_terms)
        if not quadric.coefficient((2, 0, 0)):
            continue
        l_terms = {}
        for i in range(3):
            c = coeff()
            if c:
                e = [0, 0, 0]
                e[i] = 1
                l_terms[tuple(e)] = c
        linear = MultiPoly.from_raw(field, 3, l_terms)
        return (quadric, None if linear.is_zero() else linear,
                field.from_raw(coeff()))
