import random

import pytest

from veryfree.errors import ExtensionCapExceeded, IntegrityError
from veryfree.fields import embed, make_field
from veryfree.hypersurface import (Hyperplane, Hypersurface, LineP3,
                                   ProjPoint, NODAL_INTEGRAL,
                                   classify_plane_cubic, is_smooth,
                                   lines_on_cubic_surface, plane_section,
                                   proj_points, surface_points,
                                   tangent_hyperplane)
from veryfree.poly import (BinaryForm, MultiPoly, compose_with_curve,
                           gcd_bin, linear_substitute, map_curve, parse_poly)
from veryfree import constructions, sheafp1
from veryfree.constructions import (AllEckardtError, NodalSectionResult,
                                    _curve_points, _nodal_prenormalization,
                                    build_very_free_curve,
                                    cuspidal_parametrization,
                                    curve_in_surface_coordinates,
                                    fermat_char2_curve, fermat_char2_report,
                                    find_nodal_section,
                                    make_curve, nodal_section_curve,
                                    nodal_surface_form,
                                    normal_form_surface,
                                    parametrize_conic, pullback_tangent,
                                    sample_admissible_completion,
                                    scaled_nodal_parametrization,
                                    six_point_diagonal,
                                    standard_nodal_parametrization,
                                    verify_cuspidal_delta, verify_xi_eta,
                                    very_free)
from veryfree.sheafp1 import splitting_type, validate_monad

from helpers import (F2, F3, F4, F5, F7, F11, F7_SURFACE_SEEDS, QQ,
                     _raw_mat_mul, binary_form_by_powers, cold_memos,
                     compose_by_powers, count_field_ops,
                     curve_to_ambient_by_forms,
                     general_sextuple, prenormalization_by_substitution,
                     random_cubic_form, six_point_by_two_passes)

CLEBSCH = "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3"

F7_6 = make_field(7, 6)   # past the Zech-table cap: vector arithmetic
FERMAT7 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F7))
FERMAT2 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2))


# -- standard parametrization -----------------------------------------------

def test_standard_parametrization():
    h = standard_nodal_parametrization(F7)
    cub = parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7)
    assert compose_with_curve(cub, h).is_zero()
    # both (1:0) and (0:1) map to the node (1:0:0)
    node = ProjPoint(F7, [1, 0, 0])
    at10 = ProjPoint(F7, [c.evaluate(1, 0) for c in h])
    at01 = ProjPoint(F7, [c.evaluate(0, 1) for c in h])
    assert at10 == node and at01 == node
    g = gcd_bin(gcd_bin(h[0], h[1]), h[2])
    assert g.degree == 0


# -- normal forms --------------------------------------------------------------

def _scalar_rows(field, rows):
    """A raw matrix as rows of Scalars, for `linear_substitute`."""
    return [[field.from_raw(c) for c in row] for row in rows]


def _check_prenormalization(cub, node):
    """`_nodal_prenormalization(cub, node)`, checked against the
    substitution route: the product of its two matrices takes cub to
    X0 X1 X2 + a0 X1^3 + a3 X2^3 and maps the scaled parametrization of
    that cubic onto cub, and mapping by the two in turn, as
    `nodal_section_curve` does, gives the same curve.  Returns
    (K, product rows, a0, a3)."""
    K, m1, m23, a0, a3 = _nodal_prenormalization(cub, node)
    F = cub.field
    total = _raw_mat_mul(K, [[embed(F, x, K) for x in row] for row in m1],
                         m23)
    out = K, total, a0, a3
    assert out == prenormalization_by_substitution(cub, node)
    cub_k = cub.map_field(K)
    assert linear_substitute(cub_k, _scalar_rows(K, total)) == \
        MultiPoly.from_raw(K, 3, {(1, 1, 1): K.rone, (0, 3, 0): a0,
                                  (0, 0, 3): a3})
    h = scaled_nodal_parametrization(K, a0, a3)
    curve = map_curve(K, total, h)
    assert compose_with_curve(cub_k, curve).is_zero()
    assert map_curve(F, m1, map_curve(K, m23, h)) == curve
    return out


def _check_swap(F, text):
    """For X0 X1 X2 + c0 X1^3 + c3 X2^3 with its node at (1:0:0),
    `binary_roots` lists the tangent direction (1:0) first, so the first
    direction is X2 and the matrix swaps X1 and X2 with a sign: a0 = -c3
    and a3 = -c0, over the cubic's own field."""
    cub = parse_poly(text, 3, F)
    K, total, a0, a3 = _check_prenormalization(cub, ProjPoint(F, [1, 0, 0]))
    m = F.rneg(F.rone)
    assert K is F and total == [[1, 0, 0], [0, 0, m], [0, m, 0]]
    assert (a0, a3) == (F.rneg(cub.coefficient((0, 0, 3))),
                        F.rneg(cub.coefficient((0, 3, 0))))


def test_nodal_prenormalization_swapped_directions():
    _check_swap(F5, "X0*X1*X2+X2^3+X1^3")


@pytest.mark.parametrize("text", ["X0*X1*X2+X1^3+X2^3",
                                  "X0*X1*X2+2*X1^3+X2^3",
                                  "X0*X1*X2+2*X1^3+2*X2^3"])
def test_nodal_prenormalization_in_characteristic_3(text):
    """The scaled parametrization takes no cube root, so the curve stays
    in the field in characteristic 3 as well."""
    _check_swap(F3, text)


def test_nodal_section_curve_rejects_a_cusp():
    """The tangent section of X0 X2^2 + X1^3 + X3 X0^2 at (1:0:0:0) is
    the cusp X0 X2^2 + X1^3: the curve is refused on its class, and the
    prenormalization finds one double tangent direction."""
    x = Hypersurface(parse_poly("X0*X2^2+X1^3+X3*X0^2", 4, F7))
    point = ProjPoint(F7, [1, 0, 0, 0])
    plane = tangent_hyperplane(x, point)
    section = plane_section(x, plane)
    cls = classify_plane_cubic(section)
    res = NodalSectionResult(x, point, plane, section, cls, 1)
    with pytest.raises(ValueError, match="classified as CuspidalIntegral"):
        nodal_section_curve(res)
    with pytest.raises(IntegrityError,
                       match="nodal quadric without two distinct roots"):
        _nodal_prenormalization(section, cls.singular_point)


def _pinned_nodal_sections():
    """(section, node) for every nodal integral tangent section at an
    F7-point of the pinned F7 surfaces, and the section the two-line-point
    walk finds on Clebsch's surface (over the field of its lines)."""
    out = []
    for seed in F7_SURFACE_SEEDS:
        x = Hypersurface(random_cubic_form(F7, 4, seed))
        for pt in surface_points(x):
            plane = tangent_hyperplane(x, pt)
            section, node = plane_section(x, plane), plane.to_plane(pt)
            if classify_plane_cubic(section, 6, node).tag == NODAL_INTEGRAL:
                out.append((section, node))
    res = find_nodal_section(Hypersurface(parse_poly(CLEBSCH, 4, F7)))
    out.append((res.section, res.classification.singular_point))
    return out


def test_nodal_prenormalization_matches_substitution_route():
    """The matrix and corner coefficients read off the tangent cone equal
    those of substituting the cubic after each coordinate change, the
    matrix takes the cubic to X0 X1 X2 + a0 X1^3 + a3 X2^3, and it maps
    the scaled parametrization onto the cubic."""
    steps = set()
    for section, node in _pinned_nodal_sections():
        K = _check_prenormalization(section, node)[0]
        steps.add((section.field.k, K.k))
    # tangent directions split over F7 and only over F49, on F7 sections
    assert {(1, 1), (1, 2)} <= steps


# -- tangent pullbacks -----------------------------------------------------------

def test_pullback_monad_shape_and_q_row():
    nf = nodal_surface_form(F7)   # Q = X0^2
    x = normal_form_surface(nf)
    curve = curve_in_surface_coordinates(nf)
    m = pullback_tangent(x, curve)
    assert m.a == 0 and m.b == (3, 3, 3, 3) and m.c == 9
    q_pull = compose_with_curve(nf.quadric, curve[:3])
    assert m.beta[3] == q_pull


def test_pullback_rejects_bad_curves():
    with pytest.raises(ValueError):
        pullback_tangent(FERMAT7, [BinaryForm(F7, 1, [1, 1])] * 4)
    const = [BinaryForm(F7, 3, [1, 0, 0, 1]) for _ in range(4)]
    with pytest.raises(ValueError):
        pullback_tangent(FERMAT7, const)


def _seeded_normal_form(field, seed):
    quadric, linear, a = sample_admissible_completion(field,
                                                      random.Random(seed))
    nf = nodal_surface_form(field, quadric, linear, a)
    return normal_form_surface(nf), curve_in_surface_coordinates(nf)


@pytest.fixture(scope="module")
def composition_inputs():
    """(surface, curve): the nodal-section curves of the five pinned F7
    surfaces and Clebsch, seeded normal forms over F_{7^6} and Q, the
    characteristic-2 Fermat curve and the characteristic-3 cusp."""
    bases = [random_cubic_form(F7, 4, s) for s in F7_SURFACE_SEEDS]
    out = [(c.surface, list(c.components)) for c in (
        nodal_section_curve(find_nodal_section(Hypersurface(f)))
        for f in bases + [parse_poly(CLEBSCH, 4, F7)])]
    out += [_seeded_normal_form(F, 7) for F in (F7_6, QQ)]
    out.append((FERMAT2, fermat_char2_curve(F2)))
    cusp = parse_poly("X0*X2^2+X1^3+X1^2*X2+X0^2*X3", 4, F3)
    out.append((Hypersurface(cusp), cuspidal_parametrization(F3, 1)
                + [BinaryForm.zero(F3, 3)]))
    return out


def test_compose_matches_composition_by_powers(composition_inputs):
    """Shared monomial images give each form's composition by powers of
    the h_i, cold and with the images that the partials, and then f,
    left behind."""
    for x, curve in composition_inputs:
        forms = x.partials + [x.f]
        for _ in range(2):
            assert [compose_with_curve(g, curve) for g in forms] == [
                compose_by_powers(g, curve) for g in forms]


@pytest.mark.parametrize("seed", [7, 11])
def test_vector_fallback_pullback_splits(monkeypatch, seed):
    """Over F_{7^6}, past the Zech-table cap, the seeded normal form's
    curve splits as (2, 1) with cold memos and again with warm ones; the
    splitting's own check of the monad is then a lookup."""
    x, curve = _seeded_normal_form(F7_6, seed)
    monad = pullback_tangent(x, curve)
    assert monad in sheafp1._COHOMOLOGY_CACHE
    common_gcd, calls = sheafp1._common_gcd, []
    monkeypatch.setattr(sheafp1, "_common_gcd",
                        lambda forms: calls.append(forms) or common_gcd(forms))
    assert splitting_type(monad).parts == (2, 1) and calls == []
    assert splitting_type(pullback_tangent(x, curve)).parts == (2, 1)
    assert calls == []


@pytest.mark.parametrize("field, checks", [(F7, 1), (F3, 1)],
                         ids=["euler", "composition"])
def test_curve_off_the_surface_prints_f_of_h(monkeypatch, field, checks):
    """The monad is checked once in every characteristic.  Away from
    characteristic 3 its nonzero composition, 3 f(h), finds the curve off
    the surface; in characteristic 3, where it is 0, f(h) itself does.
    Both print f(h), and neither keeps a verdict."""
    calls = []
    monkeypatch.setattr(constructions, "validate_monad",
                        lambda m: calls.append(m) or validate_monad(m))
    x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3+X0*X1*X2", 4, field))
    line = [BinaryForm(field, 1, c)
            for c in ([1, 0], [0, 1], [0, 0], [0, 0])]
    with pytest.raises(ValueError, match=r"^curve does not lie on the "
                                         r"hypersurface: f\(h\) = "
                                         r"U\^3 \+ V\^3$"):
        pullback_tangent(x, line)
    assert len(calls) == checks and not sheafp1._COHOMOLOGY_CACHE


def test_very_free_examples():
    nf = nodal_surface_form(F7)
    x = normal_form_surface(nf)
    ok, s = very_free(x, curve_in_surface_coordinates(nf))
    assert ok and s.parts == (2, 1)
    ok2, s2 = very_free(FERMAT2, fermat_char2_curve(F2))
    assert ok2 and s2.parts == (2, 1)


# -- xi, eta, delta --------------------------------------------------------------

def test_verify_xi_eta_fields_and_flags():
    for field in (F7, F5, QQ):
        rep = verify_xi_eta(nodal_surface_form(field))
        assert rep.passed
        assert any("sign deviation" in f for f in rep.flags)
    rep2 = verify_xi_eta(nodal_surface_form(F2))
    assert rep2.passed and not rep2.flags  # signs collapse in char 2


def test_verify_xi_eta_independent_of_completion():
    rng = random.Random(77)
    for field in (F7, QQ):
        for _ in range(3):
            quadric, linear, a = sample_admissible_completion(field, rng)
            rep = verify_xi_eta(nodal_surface_form(field, quadric, linear, a))
            assert rep.passed


def test_admissibility_is_validated():
    bad_q = parse_poly("X1*X2", 3, F7)
    with pytest.raises(ValueError):
        nodal_surface_form(F7, bad_q)


def test_cuspidal_delta():
    for field, alpha in ((F7, 0), (QQ, 0), (F3, 1), (F3, 2)):
        rep = verify_cuspidal_delta(field, alpha)
        assert rep.passed, str(rep)
    with pytest.raises(ValueError):
        verify_cuspidal_delta(F3, 0)


def test_cuspidal_parametrization_gcd():
    h = cuspidal_parametrization(F7, 0)
    g = gcd_bin(gcd_bin(h[0], h[1]), h[2])
    assert g.degree == 0


# -- six points -------------------------------------------------------------------

def test_six_point_standard_diagonals():
    pts = [ProjPoint(F11, [0, 0, 1]), ProjPoint(F11, [1, 0, 1]),
           ProjPoint(F11, [1, 1, 1]), ProjPoint(F11, [0, 1, 1]),
           ProjPoint(F11, [2, 6, 1]), ProjPoint(F11, [6, 3, 1])]
    res = six_point_diagonal(pts)
    assert set(res.diagonal_points) == {
        ProjPoint(F11, [1, 0, 0]), ProjPoint(F11, [1, 1, 2]),
        ProjPoint(F11, [0, 1, 0])}
    assert res.q is not None and res.certificate.passed


def test_six_point_seeded_general_position():
    rng = random.Random(2026)
    found = 0
    while found < 10:
        pts, seen = [], set()
        while len(pts) < 6:
            c = [F11.from_raw(rng.randrange(11)) for _ in range(3)]
            if all(not v for v in c):
                continue
            p = ProjPoint(F11, c)
            if p not in seen:
                seen.add(p)
                pts.append(p)
        try:
            res = six_point_diagonal(pts)
        except ValueError:
            continue
        found += 1
        assert res.q is not None, f"no Q for {[str(p) for p in pts]}"
        assert res.certificate.passed


def test_six_point_validations():
    pts = [ProjPoint(F11, [0, 0, 1]), ProjPoint(F11, [1, 0, 1]),
           ProjPoint(F11, [2, 0, 1]), ProjPoint(F11, [0, 1, 1]),
           ProjPoint(F11, [1, 3, 1]), ProjPoint(F11, [2, 5, 1])]
    with pytest.raises(ValueError):
        six_point_diagonal(pts)  # first three collinear


def test_six_point_char2_forced_configuration():
    z = F4.gen
    z2 = F4.from_raw(F4.rmul(z.raw, z.raw))
    pts = [ProjPoint(F4, [F4.zero, F4.zero, F4.one]),
           ProjPoint(F4, [F4.one, F4.zero, F4.one]),
           ProjPoint(F4, [F4.one, F4.one, F4.one]),
           ProjPoint(F4, [F4.zero, F4.one, F4.one]),
           ProjPoint(F4, [F4.one, z, F4.zero]),
           ProjPoint(F4, [F4.one, z2, F4.zero])]
    res = six_point_diagonal(pts)
    assert res.q is None
    assert "every diagonal point lies on the line" in res.reason
    p45 = res.diagonal_points
    line = Hyperplane(F4, [F4.zero, F4.zero, F4.one])
    assert all(line.contains(d) for d in p45)


def test_six_point_search_field_op_count(monkeypatch):
    """Raw field operations of the search on the forced configuration
    over F4, where no point passes and every diagonal point lies on
    P4 P5: 4 257 for the two-pass search, which certified the diagonal
    points in its second pass, and 3 864 with them skipped."""
    z = F4.gen
    z2 = F4.from_raw(F4.rmul(z.raw, z.raw))
    pts = [ProjPoint(F4, c) for c in ([0, 0, 1], [1, 0, 1], [1, 1, 1],
                                      [0, 1, 1], [1, z, 0], [1, z2, 0])]
    count = count_field_ops(monkeypatch)
    res = six_point_diagonal(pts)
    assert res.q is None and res.certificate.checks[0].lhs \
        == "15 candidates"
    assert count[0] <= 3_864


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (2, 4)],
                         ids=["F8", "F9", "F16"])
def test_six_point_search_matches_two_pass_oracle(p, k):
    """On 40 seeded sextuples in general position per field, the one
    search gives the point, diagonal points, reason and JSON of the old
    two-pass search.  Over F8 some sextuples have no diagonal point that
    passes, so the search goes on to the other intersection points."""
    F = make_field(p, k)
    rng = random.Random(3100 + F.size)
    beyond = 0
    for _ in range(40):
        pts = general_sextuple(F, rng)
        got, want = six_point_diagonal(pts), six_point_by_two_passes(pts)
        assert (got.q, got.diagonal_points, got.reason) \
            == (want.q, want.diagonal_points, want.reason)
        assert got.to_json() == want.to_json()
        beyond += got.q is not None and got.q not in got.diagonal_points
    assert beyond > 0 or F.size != 8


# -- pipelines ---------------------------------------------------------------------

def test_find_nodal_section_fermat7():
    res = find_nodal_section(FERMAT7)
    assert res.classification.tag == NODAL_INTEGRAL
    # re-validate: classification recomputed, curve very free with {2,1}
    cls = classify_plane_cubic(res.section)
    assert cls.tag == NODAL_INTEGRAL
    curve = nodal_section_curve(res)
    assert curve.very_free and curve.splitting.parts == (2, 1)


def test_find_nodal_section_char2_fermat_obstructed():
    with pytest.raises(AllEckardtError) as exc:
        find_nodal_section(FERMAT2)
    assert "Eckardt" in str(exc.value)
    assert len(exc.value.census.two_line) == 0


def test_walk_goes_up_the_working_fields_to_the_line_field_cap():
    """The lines of the seeded F2 surface 111 lie over F8, and no point
    of the walked line gives a nodal section there: the walk goes on
    over F64, and a line field cap of 8 stops it at F8."""
    x = Hypersurface(random_cubic_form(F2, 4, 111))
    with pytest.raises(ExtensionCapExceeded, match="nodal-section walk "
                       "exhausted the working field sizes"):
        find_nodal_section(x, 6, 8)
    res = find_nodal_section(x)
    assert res.work_ext == 6 and res.classification.tag == NODAL_INTEGRAL


def test_build_surface_curve():
    curve = build_very_free_curve(FERMAT7)
    assert curve.very_free and curve.splitting.parts == (2, 1)
    assert curve.anticanonical_degree == 3
    assert compose_with_curve(curve.surface.f,
                              list(curve.components)).is_zero()


def test_build_char2_fermat_fallback():
    curve = build_very_free_curve(FERMAT2)
    assert curve.splitting.parts == (2, 1)
    assert curve.components == tuple(fermat_char2_curve(F2))


def test_char2_fallback_is_decided_by_the_explicit_curve():
    """With no two-line point, characteristic 2 falls back on the
    explicit curve exactly when it lies on the surface: it does on a
    scaled Fermat form over F4; it does not on g X0^3 + X1^3 + X2^3 +
    X3^3 over F4 or on a change of coordinates of the Fermat form over
    F2, where every intersection point is an Eckardt point too."""
    scaled = Hypersurface(parse_poly("g*(X0^3+X1^3+X2^3+X3^3)", 4, F4))
    curve = build_very_free_curve(scaled)
    assert curve.splitting.parts == (2, 1)
    assert curve.components == tuple(fermat_char2_curve(F4))
    for text, field in (("g*X0^3+X1^3+X2^3+X3^3", F4),
                        ("X0^3+X1^3+X2^3+(X0+X3)^3", F2)):
        x = Hypersurface(parse_poly(text, 4, field))
        assert not compose_with_curve(
            x.f, fermat_char2_curve(field)).is_zero()
        with pytest.raises(AllEckardtError):
            build_very_free_curve(x)


def test_build_threefold_skips_singular_section():
    # smooth, but its first section in proj_points order, X0 = 0, is the
    # cone X1^3+X2^3+X3^3 with a rational vertex; the next, X0 + X4 = 0,
    # is Fermat
    x = Hypersurface(parse_poly("X1^3+X2^3+X3^3+2*X0^2*X4+X0*X4^2", 5, F7))
    curve = build_very_free_curve(x)
    assert curve.very_free and curve.splitting.parts == (3, 2, 1)
    comps = curve.components
    assert not comps[0].is_zero() and (comps[0] + comps[4]).is_zero()
    assert compose_with_curve(curve.surface.f, list(comps)).is_zero()


def test_build_without_a_smooth_hyperplane_section():
    """x0^2 y0 + x0 y0^2 + x1^2 y1 + x1 y1^2 + x2^2 y2 + x2 y2^2 over F2
    (x = X0..X2, y = X3..X5) is smooth, as its gradient (y^2, x^2)
    vanishes only at 0, and every F2-point of P^5 lies on it.  The
    hyperplane a.x + b.y = 0 is its tangent hyperplane at the F2-point
    (b, a), which it contains, so no F2-hyperplane section is smooth."""
    x = Hypersurface(parse_poly("X0^2*X3+X0*X3^2+X1^2*X4+X1*X4^2"
                                "+X2^2*X5+X2*X5^2", 6, F2))
    assert is_smooth(x)
    with pytest.raises(ExtensionCapExceeded,
                       match="no hyperplane gives a smooth section"):
        build_very_free_curve(x)


def _nodal_section_curve_f7():
    x = Hypersurface(random_cubic_form(F7, 4, F7_SURFACE_SEEDS[0]))
    return nodal_section_curve(find_nodal_section(x))


def test_compose_nodal_section_curve_field_op_count(monkeypatch):
    """Composing f and its four partials with the nodal-section curve of
    the first pinned F7 surface (over F_{7^4}), with no images kept: 1556
    raw field operations with one product per monomial image, 2207 with
    a product of powers per monomial, 2983 with `BinaryForm` products."""
    curve = _nodal_section_curve_f7()
    forms = [curve.surface.f] + curve.surface.partials
    cold_memos(monkeypatch)
    count = count_field_ops(monkeypatch)
    images = [compose_with_curve(g, list(curve.components)) for g in forms]
    assert count[0] <= 2500
    assert images[0].is_zero() and images[1].degree == 6


def test_pullback_nodal_section_curve_field_op_count(monkeypatch):
    """The tangent pullback along the same curve, with cold memos: 958
    raw field operations, with f(h) = 0 read off the monad check's
    composition; 2559 when f was composed too and every partial's
    monomials were products of powers."""
    curve = _nodal_section_curve_f7()
    cold_memos(monkeypatch)
    count = count_field_ops(monkeypatch)
    monad = pullback_tangent(curve.surface, list(curve.components))
    assert count[0] <= 1000
    assert monad in sheafp1._COHOMOLOGY_CACHE


def test_build_rejects_singular():
    cone = Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F7))
    with pytest.raises(ValueError):
        build_very_free_curve(cone)


def test_fermat_char2_report_small():
    rep = fermat_char2_report(2)
    assert rep.trichotomy_holds and rep.n_points == 45
    assert rep.two_line_count == 0
    assert not rep.matches_reference_count  # computed census differs from 35
    assert 3 * rep.eckardt_count == rep.incident_pairs


def test_fermat_char2_report_field_op_count(monkeypatch):
    """Raw field operations of the F16 Fermat census: about 604 000 with
    Groebner bases and substitutions on Scalar arithmetic, about 406 000
    on raw terms, about 125 000 with each section classified from the
    tangent cone at its point of tangency.  The bound catches a fall
    back to the Groebner strata."""
    count = count_field_ops(monkeypatch)
    rep = fermat_char2_report(4)
    assert rep.trichotomy_holds
    assert count[0] <= 200_000


# -- the walk over P^1 ---------------------------------------------------------

@pytest.mark.parametrize("F", [F7, F4], ids=["F7", "F4"])
def test_curve_points_walk_p1_in_element_order(F):
    """A line's points are a + t b for t in element order, then b, as
    the nodal-section walk has always taken them; a smooth conic's are
    its parametrization at the same points of P^1, so each of its q + 1
    points comes once."""
    line = LineP3(F, [[1, 0, 0, 1], [0, 1, 1, 0]])
    a, b = line.rows
    assert list(_curve_points(line.param_forms())) == [
        ProjPoint.from_raw(F, [F.radd(x, F.rmul(t, y)) for x, y in zip(a, b)])
        for t in F.elements()] + [ProjPoint.from_raw(F, b)]
    conic = parse_poly("X0^2+X1*X2", 3, F)
    points = list(_curve_points(parametrize_conic(conic)))
    assert len(set(points)) == F.size + 1
    assert all(not conic.evaluate(pt.coords) for pt in points)


class _RawPoint:
    """Stands in for ProjPoint in `_curve_points`: keeps the raw values
    unnormalized, so the walk's ops are the forms' evaluations alone."""

    @staticmethod
    def from_raw(field, raw):
        return tuple(raw)


@pytest.mark.parametrize("F", [F7, make_field(7, 2)], ids=["F7", "F49"])
def test_curve_points_evaluate_by_horner(monkeypatch, F):
    """On a line and a conic, the walk's values are the forms' values
    by powers of u and v, and Horner's rule makes at most one product
    and one sum per coefficient per point of P^1."""
    monkeypatch.setattr(constructions, "ProjPoint", _RawPoint)
    top = F.size - 1
    lines = [LineP3.from_raw(F, rows) for rows in (
        [[1, 0, 0, 1], [0, 1, 1, 0]], [[1, 0, top, 3], [0, 1, 5, top]])]
    conic = parametrize_conic(parse_poly("X0^2+X1*X2", 3, F))
    count = count_field_ops(monkeypatch)
    for comps in [l.param_forms() for l in lines] + [conic]:
        want = [tuple(binary_form_by_powers(h, u, v) for h in comps)
                for u, v in proj_points(F, 1)]
        count[0] = 0
        assert list(_curve_points(comps)) == want
        coefficients = sum(h.degree + 1 for h in comps)
        assert count[0] <= 2 * coefficients * (F.size + 1)


# -- anticanonical degree consistency ------------------------------------------

def test_degree_splitting_consistency():
    """Very free iff anticanonical degree >= 3, across the three curve
    shapes on a surface: line (1), conic (2), nodal plane section (3)."""
    x = FERMAT7
    lines, work, _ = lines_on_cubic_surface(x)
    line_c = make_curve(x, lines[0].param_forms())
    assert line_c.anticanonical_degree == 1
    assert line_c.splitting.parts == (2, -1) and not line_c.very_free

    # a smooth conic: residual of a tangent section through a line; over
    # F_7 every rational point of a Fermat line lies on another line, so
    # the walk runs over F_49
    K = make_field(7, 2)
    xk = x.map_field(K)
    line_k = lines[0].map_field(K)
    from veryfree.hypersurface import (divide_by_plane_line,
                                       _conic_singular_point)
    conic_curve = None
    for y in _curve_points(line_k.param_forms()):
        plane = tangent_hyperplane(xk, y)
        section = plane_section(xk, plane)
        d_in = plane.line_in_plane(line_k)
        conic, _ = divide_by_plane_line(section, d_in)
        if _conic_singular_point(conic) is not None:
            continue
        comps_plane = parametrize_conic(conic)
        comps = plane.curve_to_ambient(comps_plane)
        assert comps == curve_to_ambient_by_forms(K, plane.chart(),
                                                  comps_plane)
        conic_curve = make_curve(xk, comps)
        break
    assert conic_curve is not None
    assert conic_curve.anticanonical_degree == 2
    assert conic_curve.splitting.parts == (2, 0) and not conic_curve.very_free

    nodal = build_very_free_curve(x)
    assert nodal.anticanonical_degree == 3
    assert nodal.very_free and min(nodal.splitting.parts) >= 1


def test_xi_eta_identities_hold_in_every_characteristic():
    # the pairing identities have integer coefficients, so they reduce
    # correctly modulo any prime, including char 3 and extension fields
    for field in (F3, make_field(3, 2), F4, make_field(7, 2)):
        rep = verify_xi_eta(nodal_surface_form(field))
        assert rep.passed, f"{field!r}: {rep}"


def test_splitting_stable_under_field_extension():
    nf7 = nodal_surface_form(F7)
    x7 = normal_form_surface(nf7)
    curve7 = curve_in_surface_coordinates(nf7)
    ok7, s7 = very_free(x7, curve7)

    K = make_field(7, 2)
    xk = x7.map_field(K)
    curve_k = [h.map_field(K) for h in curve7]
    okk, sk = very_free(xk, curve_k)
    assert (ok7, s7.parts) == (okk, sk.parts) == (True, (2, 1))
