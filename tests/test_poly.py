import itertools
import random
from fractions import Fraction

import pytest
from sympy import Matrix, Poly, gcd, groebner, symbols
from sympy.polys.subresultants_qq_zz import sylvester

from veryfree.constructions import (LaurentSection, _laurent,
                                    _laurent_from_binary, _laurent_quotient,
                                    _laurent_str, cuspidal_parametrization,
                                    euler_multiple, fermat_char2_curve,
                                    nodal_surface_form,
                                    scaled_nodal_parametrization,
                                    standard_nodal_parametrization,
                                    verify_cuspidal_delta, verify_xi_eta)
from veryfree import poly
from veryfree.errors import FieldError, ParseError
from veryfree.fields import Scalar, embed, make_field
from veryfree.hypersurface import Hyperplane, LineP3, ProjPoint
from veryfree.poly import (BinaryForm, MultiPoly, binary_roots,
                           compose_with_curve, eliminant, gcd_bin,
                           groebner_basis, is_unit_ideal, linear_substitute,
                           map_curve,
                           parse_binary_form, parse_poly, partial_derivative,
                           poly_to_string, resultant_bin,
                           substitute_linear_map, _divides, _lead)

from helpers import (F2, F3, F4, F5, F7, QQ, embed_scalar, normal_form,
                     parse_any_poly, random_form, random_invertible, raw_dot,
                     spoly)

F9 = make_field(3, 2)
F16 = make_field(2, 4)
F7_6 = make_field(7, 6)  # past the Zech table cap: vector arithmetic


def _random_raw(field, rng):
    if field.is_rational:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.size)


def _random_poly(field, nvars, degree, rng, density=0.5):
    """Random polynomial of total degree <= degree, any coefficients."""
    return MultiPoly.from_raw(field, nvars, {
        e: _random_raw(field, rng)
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree and rng.random() < density})


# -- parsing ---------------------------------------------------------------

def test_parse_examples():
    f = parse_poly("X0*X1*X2 + X1^3 + X2^3", 4, F7)
    assert len(f.terms) == 3 and f.total_degree == 3
    fermat = parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2)
    assert len(fermat.terms) == 4
    with pytest.raises(ParseError):
        parse_poly("X0+X1^2", 2, F7)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("X0*X1 + X9", 2, F7)
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("X0 + %", 2, F7)


def test_parse_rational_literals_only_over_q():
    f = parse_poly("1/2*X0^2", 1, QQ)
    assert f.coefficient((2,)) == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_poly("1/2*X0", 1, F7)


def test_parse_generator_literal():
    f = parse_binary_form("g*U + V", F4)
    assert f.coeffs[0] == F4.gen.raw
    with pytest.raises(ParseError):
        parse_binary_form("g*U + V", F7)


def test_print_parse_roundtrip():
    rng = random.Random(5)
    for field in (QQ, F7, F4):
        for _ in range(50):
            nvars = rng.choice((2, 3, 4))
            if field.is_rational:
                terms = {}
                import itertools
                for e in itertools.combinations_with_replacement(
                        range(nvars), 3):
                    ev = [0] * nvars
                    for i in e:
                        ev[i] += 1
                    c = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
                    if c:
                        terms[tuple(ev)] = field.scalar(c)
                f = MultiPoly(field, nvars, terms)
            else:
                f = random_form(field, nvars, 3, rng)
            assert parse_poly(poly_to_string(f), nvars, field) == f


# -- derivatives -------------------------------------------------------------

def test_partial_examples():
    f = parse_poly("X0*X1*X2 + X1^3", 3, QQ)
    assert poly_to_string(partial_derivative(f, 1)) == "3*X1^2 + X0*X2"
    g = parse_poly("X1^3", 3, F3)
    assert partial_derivative(g, 1).is_zero()


def test_euler_identity():
    rng = random.Random(1)
    for field in (F7, F2):
        for _ in range(20):
            f = random_form(field, 4, 3, rng)
            lhs = MultiPoly.zero(field, 4)
            for i in range(4):
                lhs = lhs + MultiPoly.variable(field, 4, i) \
                    * partial_derivative(f, i)
            assert lhs == MultiPoly.constant(field, 4, 3) * f


# -- substitution -------------------------------------------------------------

def test_substitute_identity_and_roundtrip():
    rng = random.Random(2)
    f = random_form(F5, 3, 3, rng)
    ident = [[F5.one if i == j else F5.zero for j in range(3)]
             for i in range(3)]
    assert linear_substitute(f, ident) == f
    from veryfree import linalg
    for _ in range(10):
        m = random_invertible(F5, 3, rng)
        raw = [[c.raw for c in r] for r in m]
        inv_raw = linalg.inverse(F5, raw)
        minv = [[F5.from_raw(c) for c in r] for r in inv_raw]
        assert linear_substitute(linear_substitute(f, m), minv) == f


def test_substitute_kills_middle_cubic_coefficients():
    # with q = X1 X2, replacing X0 by X0 - a1 X1 - a2 X2 removes the
    # X1^2 X2 and X1 X2^2 terms
    f = parse_poly("X0*X1*X2 + 2*X1^3 + 3*X1^2*X2 + 5*X1*X2^2 + X2^3",
                   3, F7)
    m = [[F7.one, F7.scalar(-3), F7.scalar(-5)],
         [F7.zero, F7.one, F7.zero],
         [F7.zero, F7.zero, F7.one]]
    out = linear_substitute(f, m)
    assert out == parse_poly("X0*X1*X2 + 2*X1^3 + X2^3", 3, F7)


def test_substitute_rejects_singular_matrix():
    f = parse_poly("X0^3", 2, F7)
    with pytest.raises(ValueError):
        linear_substitute(f, [[F7.one, F7.one], [F7.one, F7.one]])


def test_substitute_rejects_bad_shapes():
    f = parse_poly("X0*X1*X2", 3, F7)
    with pytest.raises(ValueError):  # X2 would be left out
        substitute_linear_map(f, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        substitute_linear_map(f, [[1]] * 2 + [[1, 1]])
    square2 = [[F7.one, F7.zero], [F7.zero, F7.one]]
    with pytest.raises(ValueError):
        linear_substitute(f, square2 + [[F7.one, F7.one]])
    for short in ([[F7.one] * 3] * 2, []):
        with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
            linear_substitute(f, short)


@pytest.mark.parametrize("field", [QQ, F7, F16, F7_6],
                         ids=["Q", "F7", "F16", "F7^6"])
def test_substitute_linear_map_matches_evaluation(field):
    """f(M.y) equals f evaluated at the point x = M.y, at random points
    y, for square maps and for the rectangular (n+1 -> n variables) maps
    that hyperplane sections use; the polynomials need not be
    homogeneous."""
    rng = random.Random(31 + (field.size or 0))
    shapes = set()
    for case in range(8):
        nvars = 2 + case % 3
        new_nvars = nvars - case // 4
        f = _random_poly(field, nvars, 3, rng)
        m = [[_random_raw(field, rng) for _ in range(new_nvars)]
             for _ in range(nvars)]
        g = substitute_linear_map(f, m)
        assert g.field is field and g.nvars == new_nvars
        for _ in range(6):
            y = [_random_raw(field, rng) for _ in range(new_nvars)]
            x = [raw_dot(field, m[i], y) for i in range(nvars)]
            assert g.evaluate(y) == f.evaluate(x)
        shapes.add((nvars, new_nvars))
    assert {(n, n - 1) for n in (2, 3, 4)} <= shapes


# -- composition with curves ---------------------------------------------------

NODAL = ("-U^3-V^3", "U^2*V", "U*V^2")


def test_compose_examples():
    h = [parse_binary_form(s, F7) for s in NODAL]
    f = parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7)
    assert compose_with_curve(f, h).is_zero()
    q = parse_poly("X1*X2", 3, F7)
    # oracle by direct expansion: (U^2 V)(U V^2) = U^3 V^3
    expected = BinaryForm.monomial(F7, 3, 3)
    assert compose_with_curve(q, h) == expected


def test_compose_char2_fermat_curve():
    h = [parse_binary_form(s, F2) for s in
         ("U^3+U^2*V", "U^3+U^2*V+V^3", "U^2*V+V^3", "U*V^2")]
    f = parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2)
    assert compose_with_curve(f, h).is_zero()


def test_compose_rejects_mixed_degrees():
    h = [parse_binary_form("U", F7), parse_binary_form("U^2", F7)]
    with pytest.raises(ValueError):
        compose_with_curve(parse_poly("X0*X1", 2, F7), h)


def test_compose_rejects_bad_shapes():
    h = [parse_binary_form("U", F7), parse_binary_form("V", F7)]
    with pytest.raises(ValueError):  # three variables, two components
        compose_with_curve(parse_poly("X0*X1*X2", 3, F7), h)
    with pytest.raises(ValueError):
        compose_with_curve(parse_any_poly("X0^2+X1", 2, F7), h)


F49 = make_field(7, 2)
ENGINE_FIELDS = pytest.mark.parametrize(
    "field", [QQ, F7, F49, F7_6], ids=["Q", "F7", "F49", "F7^6"])


def _random_binary(field, degree, rng):
    return BinaryForm.from_raw(field, degree, [_random_raw(field, rng)
                                               for _ in range(degree + 1)])


@ENGINE_FIELDS
def test_compose_with_curve_matches_evaluation(field):
    """f(h(u, v)) equals compose_with_curve(f, h) at (u, v), at random
    (U:V), for random forms f and curves h of degree 1, 2 and 3; the zero
    form, and a composition that vanishes, keep degree deg f * deg h."""
    rng = random.Random(53 + (field.size or 0))
    for d in (1, 2, 3):
        for case in range(4):
            nvars, degree = 2 + case % 3, case
            f = MultiPoly.from_raw(field, nvars, {
                e: _random_raw(field, rng)
                for e in itertools.product(range(degree + 1), repeat=nvars)
                if sum(e) == degree})
            h = [_random_binary(field, d, rng) for _ in range(nvars)]
            g = compose_with_curve(f, h)
            assert g.field is field and g.degree == f.total_degree * d
            for _ in range(5):
                u, v = (_random_raw(field, rng) for _ in range(2))
                assert g.evaluate(u, v) == f.evaluate(
                    [hi.evaluate(u, v) for hi in h])
        zero = compose_with_curve(MultiPoly.zero(field, len(h)), h)
        assert zero.is_zero() and zero.degree == -d
        # X1^2 - X0 X2 vanishes on (a^2, ab, b^2) for linear forms a, b
        a, b = h[:2]
        conic = parse_poly("X1^2 - X0*X2", 3, field)
        on_conic = compose_with_curve(conic, [a * a, a * b, b * b])
        assert on_conic.is_zero() and on_conic.degree == 4 * d


@ENGINE_FIELDS
def test_map_curve_matches_evaluation(field):
    """Component i of map_curve(F, M, h) at (u, v) is sum_j m_ij h_j(u, v),
    for random M with one zero row, over F7 for curves over its
    extensions; each component, the zero one too, keeps the curve's
    degree."""
    rng = random.Random(61 + (field.size or 0))
    sub = F7 if field.p == 7 else field
    for d in (1, 2, 3):
        for nrows, ncols in ((3, 3), (4, 3), (5, 4)):
            h = [_random_binary(field, d, rng) for _ in range(ncols)]
            m = [[_random_raw(sub, rng) for _ in range(ncols)]
                 for _ in range(nrows)]
            m[rng.randrange(nrows)] = [sub.rzero] * ncols
            out = map_curve(sub, m, h)
            assert len(out) == nrows
            assert all(g.field is field and g.degree == d for g in out)
            assert any(g.is_zero() for g in out)
            for _ in range(3):
                u, v = (_random_raw(field, rng) for _ in range(2))
                vals = [hj.evaluate(u, v) for hj in h]
                for g, row in zip(out, m):
                    want = raw_dot(field, [embed(sub, c, field) for c in row],
                                vals)
                    assert g.evaluate(u, v) == want
    with pytest.raises(ValueError):  # two columns, three components
        map_curve(sub, [[1, 1]], h[:3])


@ENGINE_FIELDS
def test_reparametrize_matches_evaluation(field):
    """g(aU + bV, cU + dV) at (u, v) equals g evaluated at the point
    (au + bv, cu + dv), for forms of degree 0 to 5, the zero form
    included, and for singular substitutions too."""
    rng = random.Random(59 + (field.size or 0))
    for degree in range(6):
        for g in (_random_binary(field, degree, rng),
                  BinaryForm.zero(field, degree)):
            for singular in (False, True):
                a, b, c = (_random_raw(field, rng) for _ in range(3))
                d = field.rmul(field.rmul(b, c), field.rinv(a)) \
                    if singular and a else _random_raw(field, rng)
                h = g.reparametrize(a, b, c, d)
                assert h.field is field and h.degree == degree
                for _ in range(4):
                    u, v = (_random_raw(field, rng) for _ in range(2))
                    assert h.evaluate(u, v) == g.evaluate(
                        raw_dot(field, (a, b), (u, v)),
                        raw_dot(field, (c, d), (u, v)))


# -- resultants and gcd ---------------------------------------------------------

def test_resultant_examples():
    uv = parse_binary_form("U*V", F7)
    r = resultant_bin(uv, parse_binary_form("U^3+V^3", F7))
    assert r in (F7.rone, F7.rneg(F7.rone))
    assert not resultant_bin(uv, parse_binary_form("U^3", F7))
    assert resultant_bin(parse_binary_form("V^2", F7),
                         parse_binary_form("U^3", F7))


def test_resultant_of_constant_forms():
    """A nonzero constant c against a form of degree n gives c^n, its
    n x n diagonal Sylvester matrix, and two constants give 1, the
    determinant of no rows."""
    cases = [(F7, "3", "U^3+2*U*V^2+V^3", 6), (F7, "U^2+V^2", "5", 4),
             (F7, "3", "5", 1), (QQ, "2/3", "U^2-V^2", Fraction(4, 9)),
             (QQ, "U^3-V^3", "-2", -8), (F4, "g", "U^2+V^2", "g+1"),
             (F4, "g", "U^3+V^3", "1")]
    for field, a, b, want in cases:
        got = resultant_bin(parse_binary_form(a, field),
                            parse_binary_form(b, field))
        if isinstance(want, str):
            got = str(field.from_raw(got))
        assert got == want, (field, a, b)


def _sylvester_oracle(a, b, p):
    """Resultant of formal degrees len(a)-1, len(b)-1 (leading coefficient
    first) over F_p: Laplace expansion along the first Sylvester column
    while a leading coefficient is zero, then the determinant of sympy's
    Sylvester matrix.  Not `sympy.resultant`: sympy 1.14 negates the
    resultant of f, g of odd degrees deg f < deg g, e.g. -167 for
    f = 4x+5, g = x^3+x^2+3, where 4^3 * g(-5/4) = 167."""
    if a[0] == 0 and b[0] == 0:
        return 0                  # a common root at infinity
    if a[0] == 0:
        sign = -1 if (len(b) - 1) % 2 else 1
        return sign * b[0] * _sylvester_oracle(a[1:], b, p) % p
    if b[0] == 0:
        return a[0] * _sylvester_oracle(a, b[1:], p) % p
    if len(a) == 1 or len(b) == 1:
        return a[0] ** (len(b) - 1) * b[0] ** (len(a) - 1) % p
    x = symbols("x")
    f, g = Poly(a, x).as_expr(), Poly(b, x).as_expr()
    return int(Matrix(sylvester(f, g, x, 1)).det()) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_resultant_matches_sympy(p):
    F = make_field(p)
    rng = random.Random(300 + p)
    done = 0
    while done < 40:
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = [rng.randrange(p) for _ in range(m + 1)]
        b = [rng.randrange(p) for _ in range(n + 1)]
        if rng.random() < 0.3:
            a[0] = 0              # a root at infinity
        if not any(a) or not any(b):
            continue
        done += 1
        q = BinaryForm(F, m, [F.from_raw(c) for c in a])
        c = BinaryForm(F, n, [F.from_raw(c) for c in b])
        assert resultant_bin(q, c) == _sylvester_oracle(a, b, p)


def test_gcd_examples():
    g = gcd_bin(parse_binary_form("U^2*V", F7), parse_binary_form("U*V^2", F7))
    assert g == parse_binary_form("U*V", F7)
    g2 = gcd_bin(parse_binary_form("-U^3-V^3", F7),
                 parse_binary_form("U^2*V", F7))
    assert g2.degree == 0 and g2.coeffs[0] == F7.rone
    f = parse_binary_form("3*U^3+3*V^3", F7)
    g3 = gcd_bin(f, BinaryForm.zero(F7, 3))
    assert g3 == parse_binary_form("U^3+V^3", F7)


def test_binary_roots_reads_both_points_at_infinity():
    """`binary_roots` on binary quadrics over F7, coefficients from U^2
    down to V^2: (1:0) is a root exactly when the U^2 coefficient
    vanishes, and comes first; (0:1) when the V^2 coefficient does; a
    repeated root carries its multiplicity; a pair over F49 shows only
    with max_ext 2, each root in F49; the zero form is refused."""
    def roots(coeffs, max_ext=1):
        return binary_roots(BinaryForm.from_raw(F7, 2, coeffs), max_ext)

    assert roots([6, 0, 1]) == [(F7, 1, 1, 1), (F7, 6, 1, 1)]
    assert roots([6, 1, 0]) == [(F7, 0, 1, 1), (F7, 1, 1, 1)]
    assert roots([0, 1, 6]) == [(F7, 1, 0, 1), (F7, 1, 1, 1)]
    assert roots([3, 0, 0]) == [(F7, 0, 1, 2)]
    assert roots([0, 0, 3]) == [(F7, 1, 0, 2)]
    assert roots([1, 2, 1]) == [(F7, 6, 1, 2)]
    assert roots([1, 0, 1]) == []
    F49 = make_field(7, 2)
    pair = roots([1, 0, 1], 2)
    assert [(K, v, m) for K, _, v, m in pair] == [(F49, F49.rone, 1)] * 2
    assert all(F49.radd(F49.rmul(u, u), F49.rone) == F49.rzero
               for _, u, _, _ in pair)
    with pytest.raises(ValueError, match="roots of the zero form"):
        roots([0, 0, 0])



def _binary_to_sympy(f, p):
    u, v = symbols("u v")
    d = f.degree
    return Poly(sum(c * u**(d - j) * v**j
                    for j, c in enumerate(f.coeffs)), u, v, modulus=p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_gcd_bin_matches_sympy(p):
    """gcd_bin against sympy's gcd over F_p: the same degree and the same
    form up to a scalar, on products with a random common factor."""
    F = make_field(p)
    rng = random.Random(500 + p)

    def form(deg):
        return BinaryForm(F, deg, [F.from_raw(rng.randrange(p))
                                   for _ in range(deg + 1)])

    done = 0
    while done < 30:
        common = form(rng.randint(0, 3))
        a = common * form(rng.randint(0, 3))
        b = common * form(rng.randint(0, 3))
        if a.is_zero() or b.is_zero():
            continue
        done += 1
        g = gcd_bin(a, b)
        want = gcd(_binary_to_sympy(a, p), _binary_to_sympy(b, p))
        assert g.degree == want.total_degree()
        got = _binary_to_sympy(g, p)
        assert (got * want.LC() - want * got.LC()).is_zero


# -- one field per operation --------------------------------------------------


def _mixed_field_calls():
    """(name, call, error, match): an F7 polynomial or form meets F49
    values, an F7 constructor is handed an F49 Scalar or a float, or a
    Scalar or polynomial meets a scalar factor."""
    g = F49.gen
    f = parse_poly("X0^2+X1^2", 2, F7)
    b7 = parse_binary_form("U^2+V^2", F7)
    b49 = parse_binary_form("g*U^2+V^2", F49)
    line7 = [parse_binary_form("U", F7), parse_binary_form("V", F7)]
    line49 = [parse_binary_form("g*U", F49), parse_binary_form("V", F49)]
    refused = [
        ("compose_with_curve", lambda: compose_with_curve(f, line49),
         FieldError),
        ("BinaryForm +", lambda: b7 + b49, FieldError),
        ("BinaryForm *", lambda: b7 * b49, FieldError),
        ("MultiPoly.evaluate", lambda: f.evaluate([g, F49.one]), FieldError),
        ("substitute_linear_map",
         lambda: substitute_linear_map(f, [[g, F49.zero], [F49.zero, g]]),
         FieldError),
        ("substitute_linear_map raw",
         lambda: substitute_linear_map(f, [[g.raw, 0], [0, 1]]), FieldError),
        ("linear_substitute",
         lambda: linear_substitute(f, [[g, F49.zero], [F49.zero, g]]),
         FieldError),
        ("BinaryForm.evaluate", lambda: b7.evaluate(g, F49.one), FieldError),
        # raw values: an F49 index past 6 is no element of F7
        ("MultiPoly.evaluate raw", lambda: f.evaluate([g.raw, 1]), FieldError),
        ("BinaryForm.evaluate raw", lambda: b7.evaluate(g.raw, 1), FieldError),
        ("reparametrize",
         lambda: b7.reparametrize(g, F49.zero, F49.zero, F49.one),
         FieldError),
        ("map_curve", lambda: map_curve(F49, [[g.raw, 0], [0, g.raw]],
                                        line7), FieldError),
        ("map_curve raw", lambda: map_curve(F7, [[g.raw, 0], [0, 1]],
                                            line49), FieldError),
        ("cuspidal_parametrization",
         lambda: cuspidal_parametrization(F7, g.raw), FieldError),
        ("scaled_nodal_parametrization",
         lambda: scaled_nodal_parametrization(F7, 1, g), FieldError),
        ("MultiPoly +", lambda: f + f.map_field(F49), ValueError),
        ("resultant_bin", lambda: resultant_bin(b7, b49), FieldError),
        ("gcd_bin", lambda: gcd_bin(b7, b49), FieldError),
        # Scalars and polynomials do not multiply by a scalar
        ("Scalar + Scalar", lambda: F7.one + F7.one, TypeError),
        ("MultiPoly * int", lambda: f * 3, TypeError),
        ("BinaryForm * Scalar", lambda: b7 * F7.one, TypeError),
    ]
    # the F7 constructors that read values handed in
    handed_in = [
        ("ProjPoint", lambda x: ProjPoint(F7, [x, 0, 1])),
        ("Hyperplane", lambda x: Hyperplane(F7, [x, 0, 0, 1])),
        ("LineP3", lambda x: LineP3(F7, [[1, 0, x, 0], [0, 1, 0, 0]])),
        ("MultiPoly", lambda x: MultiPoly(F7, 2, {(1, 1): x})),
        ("BinaryForm", lambda x: BinaryForm(F7, 1, [x, 1])),
        ("nodal_surface_form",
         lambda x: nodal_surface_form(F7, cubic_coeff=x)),
        ("verify_cuspidal_delta", lambda x: verify_cuspidal_delta(F7, x)),
    ]
    return [(name, call, error, None) for name, call, error in refused] + [
        (f"{name} given {what}", lambda make=make, x=x: make(x), error, match)
        for name, make in handed_in
        for what, x, error, match in (
            ("an F49 Scalar", g, FieldError, r"scalar of 7\^2 used in 7"),
            ("a float", 0.5, TypeError, "cannot coerce"))]


_MIXED = _mixed_field_calls()


@pytest.mark.parametrize("name, call, error, match", _MIXED,
                         ids=[name for name, *_ in _MIXED])
def test_mixed_fields_are_refused(name, call, error, match):
    """Raw values carry no field, so every operation that meets values
    or forms of another field refuses them.  A constructor refuses a
    Scalar of another field and a value it cannot read; Scalars do not
    compute, and a polynomial multiplies only a polynomial of its
    class."""
    with pytest.raises(error, match=match):
        call()


def _raw_value(F, terms, point):
    """Sum of c * prod x_i^e_i of raw values, by the field's raw ops."""
    acc = F.rzero
    for e, c in terms.items():
        for x, k in zip(point, e):
            c = F.rmul(c, F.rpow(x, k))
        acc = F.radd(acc, c)
    return acc


@pytest.mark.parametrize("k", [1, 2, 6], ids=["F7", "F49", "F7^6"])
def test_polynomials_from_scalars_and_from_raw_agree(k):
    """Polynomials and binary forms built from Scalars and from raw values
    agree on equality, printing, evaluation, field maps and composition
    with a curve.  Over F49 and F_{7^6} the raw indices run past p, where
    an int read through `field.scalar` would land in the prime field.
    Values are checked against a sum of terms in raw ops on the raw
    coefficients, the printed form against the parser."""
    F, T = make_field(7, k), make_field(7, 6)
    rng = random.Random(1700 + k)
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    past_p = False
    for _ in range(8):
        raw = {e: rng.randrange(1, F.size) for e in rng.sample(exps, 5)}
        scalars = {e: Scalar(F, c) for e, c in raw.items()}
        a, b = MultiPoly(F, 3, scalars), MultiPoly.from_raw(F, 3, raw)
        assert a == b and a.terms == raw and str(a) == str(b)
        assert parse_poly(str(b), 3, F) == b
        pt = [rng.randrange(1, F.size) for _ in range(3)]
        want = _raw_value(F, raw, pt)
        assert a.evaluate(pt) == b.evaluate(pt) == want
        assert a.map_field(T) == b.map_field(T) == MultiPoly(
            T, 3, {e: embed_scalar(c, T) for e, c in scalars.items()})
        rows = [[rng.randrange(1, F.size) for _ in range(3)]
                for _ in range(3)]
        ha = [BinaryForm(F, 2, [Scalar(F, c) for c in r]) for r in rows]
        hb = [BinaryForm.from_raw(F, 2, r) for r in rows]
        assert ha == hb and [str(h) for h in ha] == [str(h) for h in hb]
        assert [parse_binary_form(str(h), F) for h in hb] == hb
        u, v = rng.randrange(1, F.size), rng.randrange(1, F.size)
        at = [_raw_value(F, {(2 - j, j): c for j, c in enumerate(r)},
                         [u, v]) for r in rows]
        assert [h.evaluate(u, v) for h in hb] == at
        g = compose_with_curve(b, hb)
        assert g == compose_with_curve(a, ha)
        assert g.evaluate(u, v) == _raw_value(F, raw, at)
        past_p |= any(c >= F.p for c in raw.values())
    assert past_p == (k > 1)

def test_resultant_gcd_roots_three_way_agreement():
    rng = random.Random(9)
    f5 = F5
    done = 0
    while done < 50:
        q = BinaryForm(f5, 2, [f5.from_raw(rng.randrange(5))
                               for _ in range(3)])
        c = BinaryForm(f5, 3, [f5.from_raw(rng.randrange(5))
                               for _ in range(4)])
        if q.is_zero() or c.is_zero():
            continue
        done += 1
        res_zero = not resultant_bin(q, c)
        gcd_nonconst = gcd_bin(q, c).degree > 0
        # shared root within extension degree <= deg q * deg c
        shared = False
        for (K, u, v, _) in binary_roots(q, 6):
            cc = c.map_field(K)
            if not cc.evaluate(u, v):
                shared = True
                break
        assert res_zero == gcd_nonconst == shared


# -- Laurent forms -----------------------------------------------------------
#
# A Laurent form is a MultiPoly in (U, V) with exponents of any sign; the
# section type and the Laurent helpers live in `constructions`.

F49 = make_field(7, 2)


def _random_laurent(field, rng, degree=None):
    """A homogeneous Laurent form with exponents of both signs."""
    d = rng.randint(-6, 3) if degree is None else degree
    return MultiPoly.from_raw(field, 2, {(d - j, j): _random_raw(field, rng)
                                         for j in rng.sample(range(-5, 6), 3)})


def _nonzero_raw(field, rng):
    while True:
        c = _random_raw(field, rng)
        if c:
            return c


def test_laurent_homogeneity_enforced():
    """A Laurent section holds terms of one degree: across its components
    and inside each of them; zero components are free."""
    z = MultiPoly.zero(F7, 2)
    LaurentSection((_laurent(F7, 2, -4), z, _laurent(F7, -1, -1, 3), z))
    with pytest.raises(ValueError):
        LaurentSection((_laurent(F7, 2, -4), _laurent(F7, 1, 0), z, z))
    with pytest.raises(ValueError):
        LaurentSection((_laurent(F7, 1, 0) + _laurent(F7, 0, -1), z, z, z))


def test_laurent_arithmetic_and_division():
    """Random-evaluation oracle: Laurent products and sums evaluate to the
    products and sums of the values at points with u, v != 0, and the
    exact quotient undoes a product by a binary form."""
    rng = random.Random(15)
    for field in (QQ, F7, F49):
        for _ in range(20):
            a, b = _random_laurent(field, rng), _random_laurent(field, rng)
            h = _laurent_from_binary(BinaryForm.from_raw(
                field, 3, [_random_raw(field, rng) for _ in range(4)]))
            pt = (_nonzero_raw(field, rng), _nonzero_raw(field, rng))
            va, vb, vh = (g.evaluate(pt) for g in (a, b, h))
            vab = field.rmul(va, vb)
            assert (a * b).evaluate(pt) == vab
            assert (a * b + a).evaluate(pt) == field.radd(vab, va)
            if h.is_zero():
                continue
            q = _laurent_quotient(a * h, h)
            assert q == a
            if vh:
                assert q.evaluate(pt) == field.rmul((a * h).evaluate(pt),
                                                    field.rinv(vh))
    # U^3 + V^3 = (U + V)(U^2 - U V + V^2), but not the other way round
    num = _laurent(F7, 3, 0) + _laurent(F7, 0, 3)
    den = _laurent(F7, 1, 0) + _laurent(F7, 0, 1)
    quot = _laurent_quotient(num, den)
    assert quot is not None and quot * den == num
    assert _laurent_quotient(den, num) is None
    assert _laurent_quotient(_laurent(F7, 2, -4), _laurent(F7, 5, 0)) \
        == _laurent(F7, -3, -4)


def test_euler_multiple_recovers_the_multiplier():
    """euler_multiple(lam * h, h) is lam on the nodal, the cuspidal
    (characteristic 3, alpha != 0) and the char-2 Fermat curves, and None
    once one coordinate gets an extra monomial."""
    rng = random.Random(16)
    curves = [(F, standard_nodal_parametrization(F) + [BinaryForm.zero(F, 3)])
              for F in (QQ, F7, F49)]
    curves += [(F, cuspidal_parametrization(F, a) + [BinaryForm.zero(F, 3)])
               for F, a in ((F3, 1), (F3, 2), (F9, 4))]
    curves += [(F, fermat_char2_curve(F)) for F in (F2, F4)]
    for field, curve in curves:
        h = [_laurent_from_binary(c) for c in curve]
        for _ in range(10):
            lam = _random_laurent(field, rng)
            if lam.is_zero():
                continue
            diff = LaurentSection(tuple(lam * c for c in h))
            assert euler_multiple(diff, h) == lam
            i = rng.randrange(len(h))
            d = sum(next(iter(diff.components[0].terms)))
            extra = list(diff.components)
            extra[i] = extra[i] + _laurent(field, d + 9, -9)
            assert euler_multiple(LaurentSection(tuple(extra)), h) is None


def test_laurent_printer_pinned():
    """The printer's output reaches the --json payload through witness
    strings and the eta . f sign finding."""
    assert _laurent_str(-_laurent(QQ, -1, -4) + _laurent(QQ, -4, -1)) \
        == "-1*U^-1*V^-4 + U^-4*V^-1"
    assert _laurent_str(-_laurent(F7, -1, -4) + _laurent(F7, -4, -1)) \
        == "6*U^-1*V^-4 + U^-4*V^-1"
    assert _laurent_str(-_laurent(QQ, 4, 1) + _laurent(QQ, 1, 4)) \
        == "-1*U^4*V + U*V^4"
    assert _laurent_str(MultiPoly.zero(QQ, 2)) == "0"
    assert _laurent_str(_laurent(QQ, 0, 0, Fraction(5))) == "5"
    g = F49.gen.raw
    assert _laurent_str(_laurent(F49, 1, -1, F49.radd(g, F49.rone))
                        + _laurent(F49, 0, 0, g)
                        + _laurent(F49, -1, 1, F49.rneg(g))) \
        == "(g+1)*U*V^-1 + g + 6*g*U^-1*V"
    rep = verify_xi_eta(nodal_surface_form(QQ))
    checks = {c.name: c for c in rep.checks}
    assert checks["xi chart expressions agree modulo Euler"].witness \
        == "multiplier -1*U^-1*V^-4 + U^-4*V^-1"
    assert "computed eta.f = -1*U^4*V + U*V^4" in checks[
        "eta . f has support {U^4 V, U V^4} with unit coefficients"].flagged


# -- Groebner bases ------------------------------------------------------------

def test_groebner_examples():
    a = parse_any_poly("X0-1", 1, QQ)
    b = parse_poly("X0", 1, QQ)
    gb = groebner_basis([a, b])
    assert len(gb) == 1 and gb[0] == MultiPoly.constant(QQ, 1, 1)
    assert is_unit_ideal([a, b])

    g1 = parse_poly("X0^2", 2, QQ)
    g2 = parse_poly("X0*X1+X1^2", 2, QQ)
    gb2 = groebner_basis([g1, g2])
    assert parse_poly("X1^3", 2, QQ) in gb2

    assert not is_unit_ideal([parse_poly("X0", 2, QQ),
                              parse_poly("X1", 2, QQ)])
    assert groebner_basis([]) == []


def test_groebner_stops_at_a_constant_from_an_s_pair(monkeypatch):
    """X0 X1 + 1 and X0^2 over F7: neither generator reduces to a
    constant, the S-pair X0 (X0 X1 + 1) - X1 X0^2 = X0 joins, and the
    S-pair X1 X0 - (X0 X1 + 1) = -1 ends the run with [1], the reduced
    basis of the unit ideal and sympy's."""
    gens = [parse_any_poly("X0*X1+1", 2, F7), parse_poly("X0^2", 2, F7)]
    spairs, spair = [], poly._spair
    monkeypatch.setattr(poly, "_spair",
                        lambda *args: spairs.append(args) or spair(*args))
    assert groebner_basis(gens) == [MultiPoly.constant(F7, 2, 1)]
    assert len(spairs) == 2
    assert is_unit_ideal(gens)
    x0, x1 = symbols("x0:2")
    assert groebner([x0 * x1 + 1, x0 ** 2], x0, x1, modulus=7,
                    order="grevlex").exprs == [1]


def test_groebner_fermat_chart_vs_scan():
    # chart X0 = 1 of the Fermat surface ideal: the basis must contain a
    # constant; oracle: brute-force scan of F_7 and F_49 chart points
    f = parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F7)
    gens = [f] + [partial_derivative(f, i) for i in range(4)]
    from veryfree.hypersurface import _on_stratum
    chart = [_on_stratum(g, 0) for g in gens]
    for k in (1, 2):
        K = make_field(7, k)
        chart_k = [g.map_field(K) for g in chart]
        import itertools
        found = False
        for pt in itertools.product(list(K.elements()), repeat=3):
            if all(not g.evaluate(pt) for g in chart_k):
                found = True
        assert not found
    assert is_unit_ideal(chart)


def _assert_reduced_groebner(gens, gb):
    """gb is monic, sorted by ascending lead and reduced: no term of one
    element, its lead included, is divisible by the lead of another.
    Every S-pair and every generator reduces to 0 modulo it."""
    leads = [_lead(g) for g in gb]
    assert all(c == 1 for _, c in leads)
    drl = [(sum(e), tuple(-a for a in reversed(e))) for e, _ in leads]
    assert drl == sorted(drl)
    for i, (ei, _) in enumerate(leads):
        for j, (ej, _) in enumerate(leads):
            if i != j:
                assert not _divides(ei, ej)
                assert not any(_divides(ei, t) for t in gb[j].terms)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(spoly(gb[i], gb[j]), gb).is_zero()
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_groebner_auto_reduced_and_spolys_vanish():
    rng = random.Random(4)
    for _ in range(5):
        gens = [random_form(F5, 3, rng.choice((2, 3)), rng)
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        _assert_reduced_groebner(gens, groebner_basis(gens))


@pytest.mark.parametrize("field", [F4, F9, F16], ids=["F4", "F9", "F16"])
def test_groebner_over_extension_fields(field):
    """Over F4, F9 and F16, with coefficients outside the prime field:
    the basis is reduced and monic, and every S-pair and generator
    reduces to 0.  Ideals in 1 to 3 variables, unit and not."""
    rng = random.Random(900 + field.size)
    sizes, outside = set(), False
    for case in range(15):
        gens = [_random_poly(field, 1 + case % 3, 2, rng)
                for _ in range(1 + case % 4)]
        gens = [g for g in gens if not g.is_zero()]
        gb = groebner_basis(gens)
        _assert_reduced_groebner(gens, gb)
        sizes.add(len(gb))
        outside |= any(c >= field.p for g in gb for c in g.terms.values())
    assert 1 in sizes and max(sizes) >= 3 and outside


@pytest.mark.parametrize("p", [2, 3, 5])
def test_groebner_base_change(p):
    """For ideals with F_p coefficients the basis over F_p, embedded into
    F_{p^2}, is the basis computed over F_{p^2}, and it is sympy's
    reduced grevlex basis."""
    F, K = make_field(p), make_field(p, 2)
    rng = random.Random(950 + p)
    for case in range(10):
        gens, exprs, xs = _random_ideal(F, 1 + case % 3, 1 + case % 3, rng)
        gb = groebner_basis(gens)
        assert [g.map_field(K) for g in gb] == groebner_basis(
            [g.map_field(K) for g in gens])
        ref = groebner(exprs, *xs, modulus=p, order="grevlex")
        assert ({frozenset(g.terms.items())
                 for g in gb}
                == {frozenset((e, c % p)
                              for e, c in Poly(g, *xs, modulus=p).terms())
                    for g in ref.exprs})



@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_is_unit_ideal_matches_sympy(p):
    """is_unit_ideal against sympy's reduced Groebner basis over F_p on
    random ideals of 2 or 3 affine polynomials of degree <= 2; half of
    them vanish at a chosen F_p-point, so both answers occur."""
    F = make_field(p)
    rng = random.Random(600 + p)
    answers = set()
    for case in range(16):
        nvars = 2 + case % 2
        xs = symbols(f"x0:{nvars}")
        point = [rng.randrange(p) for _ in range(nvars)]
        gens, exprs = [], []
        for _ in range(rng.randint(2, 3)):
            terms = {e: rng.randrange(1, p)
                     for e in itertools.product(range(3), repeat=nvars)
                     if sum(e) <= 2 and rng.random() < 0.5}
            if case % 2:
                value = sum(c * _monomial_value(e, point)
                            for e, c in terms.items())
                zero = (0,) * nvars
                terms[zero] = (terms.get(zero, 0) - value) % p
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                continue
            gens.append(MultiPoly(F, nvars, {e: F.from_raw(c)
                                             for e, c in terms.items()}))
            exprs.append(sum(c * _monomial_value(e, xs)
                             for e, c in terms.items()))
        if not gens:
            continue
        unit = groebner(exprs, *xs, modulus=p, order="grevlex").exprs == [1]
        assert is_unit_ideal(gens) == unit
        answers.add(unit)
    assert answers == {True, False}


def _monomial_value(e, values):
    out = 1
    for x, k in zip(values, e):
        out *= x ** k
    return out


def _random_ideal(F, nvars, ngens, rng):
    """ngens random polynomials of degree <= 2 over the prime field F, as
    MultiPolys and as sympy expressions in x0, x1, ..."""
    xs = symbols(f"x0:{nvars}")
    gens, exprs = [], []
    while len(gens) < ngens:
        terms = {e: rng.randrange(1, F.p)
                 for e in itertools.product(range(3), repeat=nvars)
                 if sum(e) <= 2 and rng.random() < 0.5}
        if terms:
            gens.append(MultiPoly(F, nvars, {e: F.from_raw(c)
                                             for e, c in terms.items()}))
            exprs.append(sum(c * _monomial_value(e, xs)
                             for e, c in terms.items()))
    return gens, exprs, xs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_groebner_basis_matches_sympy(p):
    """groebner_basis is sympy's reduced grevlex basis over F_p, basis
    element for basis element, on random ideals in 2 or 3 variables."""
    F = make_field(p)
    rng = random.Random(700 + p)
    sizes = set()
    for case in range(12):
        gens, exprs, xs = _random_ideal(F, 2 + case % 2, 1 + case % 3, rng)
        ours = {frozenset(g.terms.items())
                for g in groebner_basis(gens)}
        ref = groebner(exprs, *xs, modulus=p, order="grevlex")
        theirs = {frozenset((e, c % p)
                            for e, c in Poly(g, *xs, modulus=p).terms())
                  for g in ref.exprs}
        assert ours == theirs
        sizes.add(len(ours))
    assert len(sizes) > 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eliminant_matches_sympy_lex(p):
    """eliminant against the element in x0 alone of sympy's reduced lex
    basis with x0 least, in 1 to 3 variables (in one variable that is the
    gcd); None exactly when sympy finds the ideal positive-dimensional."""
    F = make_field(p)
    rng = random.Random(800 + p)
    kinds = set()
    for case in range(18):
        nvars = 1 + case % 3
        ngens = max(1, nvars - 1 + case // 3 % 3)
        gens, exprs, xs = _random_ideal(F, nvars, ngens, rng)
        elim = eliminant(groebner_basis(gens))
        ref = groebner(exprs, *reversed(xs), modulus=p, order="lex")
        if ref.exprs == [1]:
            assert elim.coeffs == (F.rone,)
            kinds.add("unit")
        elif not ref.is_zero_dimensional:
            assert elim is None
            kinds.add("infinite")
        else:
            uni, = [g for g in ref.exprs if g.free_symbols <= {xs[0]}]
            coeffs = Poly(uni, xs[0], modulus=p).monic().all_coeffs()
            assert elim.coeffs == tuple(c % p for c in reversed(coeffs))
            kinds.add(f"finite in {nvars}")
    assert kinds >= {"infinite", "finite in 1", "finite in 2"}
