import dataclasses
import functools
import itertools
import math
import random
import sys

import pytest

from veryfree import linalg, poly
from veryfree.errors import (ExtensionCapExceeded, FieldError,
                             IntegrityError, ScanBudgetExceeded)
from veryfree.fields import Scalar, UPoly, embed, make_field
from veryfree import hypersurface
from veryfree.hypersurface import (CUSPIDAL_INTEGRAL, LINE_CONIC_TANGENT,
                                   LINE_CONIC_TRANSVERSE, LINE_DOUBLE_LINE,
                                   NODAL_INTEGRAL, SMOOTH_CUBIC,
                                   THREE_LINES_CONCURRENT,
                                   THREE_LINES_TRIANGLE, TRIPLE_LINE,
                                   EckardtReport, Hyperplane, Hypersurface,
                                   LineP3, ProjPoint, classify_plane_cubic,
                                   divide_by_plane_line, eckardt_points,
                                   hyperplane_section, is_smooth,
                                   lines_on_cubic_surface,
                                   plane_line_through, plane_section,
                                   proj_points,
                                   singular_points_scan,
                                   surface_points, tangent_hyperplane,
                                   _cell_patterns, _completion_matrix,
                                   _cross, _dot,
                                   _frobenius_size, _lines_in_cells,
                                   _nodal_frame, _on_affine_line, _on_row,
                                   _on_stratum, _row_zeros,
                                   _tangent_cone_class,
                                   _ternary_singular_points)
from veryfree.poly import (MultiPoly, compose_with_curve, is_unit_ideal,
                           linear_substitute, parse_poly,
                           substitute_linear_map)

from helpers import (F2, F3, F4, F5, F7, F11, QQ, affine_line_by_upoly,
                     cold_memos, count_field_ops, divide_by_completion_inverse,
                     eckardt_points_all_pairs,
                     embed_scalar, lines_by_row_pairing, meet,
                     nodal_frame_by_substitution, parse_any_poly,
                     random_cubic_form, random_form, random_invertible,
                     raw_dot, restrict_by_kernel_basis,
                     row_restriction_by_scan, row_values_by_set_first,
                     spy_calls, sympy_chart_smooth,
                     F5_SURFACE_SEEDS, F7_SURFACE_SEEDS)
from line_corpus import compare, corpus


def fermat(field, nvars=4):
    return Hypersurface(parse_poly("+".join(f"X{i}^3" for i in range(nvars)),
                                   nvars, field))


def clebsch(field):
    return Hypersurface(parse_poly(
        "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3", 4, field))


# -- smoothness ----------------------------------------------------------------

def test_is_smooth_examples():
    assert is_smooth(fermat(F7))
    assert not is_smooth(fermat(F3))
    assert is_smooth(fermat(QQ))
    # the cone over the Fermat plane cubic with vertex e_i is singular
    # only there, in stratum i alone, so a skipped stratum shows
    for i in range(4):
        cone = Hypersurface(parse_poly(
            "+".join(f"X{j}^3" for j in range(4) if j != i), 4, F7))
        assert not is_smooth(cone)
        assert not is_smooth(cone)  # answered from the cache


def test_scan_finds_cone_vertex():
    cone = Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F7))
    pts = singular_points_scan(cone, 1)
    assert any(p == ProjPoint(F7, [0, 0, 0, 1]) for p, _ in pts)
    no_x3 = Hypersurface(parse_poly("X0*X1*X2+X1^3+X2^3", 4, F7))
    assert any(p == ProjPoint(F7, [0, 0, 0, 1])
               for p, _ in singular_points_scan(no_x3, 1))


def test_scan_empty_on_smooth_fermat():
    assert singular_points_scan(fermat(F7), 2) == []


def test_smooth_gb_vs_scan_agreement():
    # criterion: on random cubics over F_5 a scan witness forces the
    # stratum-ideal test to answer False; without one, the verdict is
    # the sympy chart oracle's
    rng = random.Random(30)
    seen_singular = 0
    for trial in range(30):
        f = random_form(F5, 4, 3, rng)
        if f.is_zero():
            continue
        x = Hypersurface(f)
        witnesses = singular_points_scan(x, 1)
        gb_answer = is_smooth(Hypersurface(f))
        if witnesses:
            seen_singular += 1
            assert not gb_answer
        else:
            assert gb_answer == sympy_chart_smooth(f, 5)
    assert seen_singular >= 1


def test_singular_only_at_conjugate_pair():
    # singular only at (1:0:+-g:0) over F_9: a rational scan sees nothing
    x = Hypersurface(parse_poly(
        "2*X0^2*X1+2*X0*X1^2+X1^3+2*X1*X2^2+X0^2*X3+2*X0*X1*X3+X1^2*X3"
        "+2*X1*X2*X3+X2^2*X3+X2*X3^2+X3^3", 4, F3))
    assert singular_points_scan(x, 1) == []
    pts = singular_points_scan(x, 2)
    assert len(pts) == 2
    for p, ext in pts:
        assert ext == 2
        K, c = p.field, p.coords
        assert c[0] == K.rone and c[1] == c[3] == K.rzero
        assert K.rmul(c[2], c[2]) == K.rneg(K.rone)  # c[2] = +-g, g^2 = -1
    assert not is_smooth(x)
    assert not is_smooth(x)  # answered from the cache


def test_is_smooth_matches_sympy_chart_oracle():
    verdicts = set()
    for F in (F2, F3, F5, F7):
        rng = random.Random(700 + F.p)
        for _ in range(8):
            f = random_form(F, 4, 3, rng)
            want = sympy_chart_smooth(f, F.p)
            assert is_smooth(Hypersurface(f)) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_is_smooth_keeps_f_in_characteristic_3():
    """Where 3 != 0 `is_smooth` leaves f out, by Euler's relation; over
    F3 that relation reads sum X_j df/dX_j = 0 and f stays.  On a seeded
    smooth F3 cubic the partials alone leave the stratum X0 = 1 a
    common zero, so the surface would read as singular without f."""
    x = Hypersurface(random_cubic_form(F3, 4, 2))
    assert is_smooth(x) and sympy_chart_smooth(x.f, 3)
    assert not is_unit_ideal([_on_stratum(g, 0) for g in x.partials])


# -- point scans ------------------------------------------------------------------

def _rows_of_p3():
    """(pivot, free) of every Grassmannian cell row and every stratum of
    P^3: 0, 1, 2 and 3 free coordinates."""
    rows = {(i, tuple(free)) for i, j, free0, free1 in _cell_patterns()
            for i, free in ((i, free0), (j, free1))}
    rows |= {(i, tuple(range(i + 1, 4))) for i in range(4)}
    return sorted(rows)


def _brute_row_zeros(forms, pivot, free):
    """Every point of the row in itertools.product order, kept when
    forms[0] vanishes there, with the other forms' values."""
    F = forms[0].field
    out = []
    for vals in itertools.product(list(F.elements()), repeat=len(free)):
        pt = [F.rzero] * 4
        pt[pivot] = F.rone
        for t, v in zip(free, vals):
            pt[t] = v
        if not forms[0].evaluate(pt):
            out.append((tuple(pt), [g.evaluate(pt) for g in forms[1:]]))
    return out


def test_row_zeros_match_brute_force_evaluation():
    """Zeros of f on each cell row, and the partials there, against
    MultiPoly.evaluate at every point of the row; the non-homogeneous
    inputs make terms merge, and sometimes cancel, on restriction.  With
    the first free coordinate held to every other element, the zeros are
    the brute-force ones whose first free coordinate is among them."""
    rng = random.Random(90)
    rows = _rows_of_p3()
    assert {len(free) for _, free in rows} == {0, 1, 2, 3}
    cases, zeros_seen = 0, set()
    for F in (F2, F3, F4, F5, F7):
        polys = [random_form(F, 4, 3, rng) for _ in range(3)]
        polys += [random_form(F, 4, 3, rng) + random_form(F, 4, 2, rng)
                  + random_form(F, 4, 1, rng) for _ in range(2)]
        polys.append(parse_any_poly("X0^3-X0^2+X1^2*X0-X1^2+X2*X3", 4, F))
        polys.append(parse_poly("X1*X2*X3", 4, F))
        for f in polys:
            forms = [f] + [f.partial(i) for i in range(4)]
            elements = list(F.elements())
            for pivot, free in rows:
                got = list(_row_zeros(forms, pivot, free, elements))
                brute = _brute_row_zeros(forms, pivot, free)
                assert got == brute, (str(f), pivot, free)
                some = elements[::2]
                assert list(_row_zeros(forms, pivot, free, some)) == [
                    z for z in brute if not free or z[0][free[0]] in some
                ], (str(f), pivot, free)
                zeros_seen.add(min(len(got), 2))
                cases += 1
    assert cases == 35 * len(rows) and zeros_seen == {0, 1, 2}


def _brute_points(x):
    F = x.field
    return [ProjPoint.from_raw(F, raw)
            for raw in proj_points(F, x.n)
            if not x.f.evaluate(raw)]


def _brute_singular_points(x, ext_cap):
    found = []
    for j in range(1, ext_cap + 1):
        K = make_field(x.field.p, x.field.k * j)
        xk = x.map_field(K)
        prior = [p.map_field(K) for p, _ in found]
        for raw in proj_points(K, x.n):
            pt = ProjPoint.from_raw(K, raw)
            if (xk.contains(pt) and not any(xk.gradient(pt))
                    and pt not in prior):
                found.append((pt, j))
    return found


KERNEL_FIELDS = [F7, make_field(7, 2), F4, make_field(2, 4)]


def _kernel_forms(F, seed):
    """A seeded cubic, its four partials and a cubic plus a quadric, so
    that the forms after the first reach exponent 3 and merge terms on
    restriction."""
    f = random_cubic_form(F, 4, seed)
    rng = random.Random(seed)
    return ([f] + [f.partial(i) for i in range(4)]
            + [random_form(F, 4, 3, rng) + random_form(F, 4, 2, rng)])


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=["F7", "F49", "F4", "F16"])
def test_on_row_matches_scan_oracle(F):
    """Row restriction of seeded cubics and their partials on every cell
    row and stratum of P^3, against the per-term generator."""
    for seed in (1, 2, 3):
        for g in _kernel_forms(F, seed):
            for pivot, free in _rows_of_p3():
                assert _on_row(g, pivot, free) == row_restriction_by_scan(
                    g, pivot, free), (seed, str(g), pivot, free)
            for i in range(4):
                assert _on_stratum(g, i) == row_restriction_by_scan(
                    g, i, range(i + 1, 4))


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=["F7", "F49", "F4", "F16"])
def test_row_zero_values_match_set_first_chain(F):
    """The values `_row_zeros` yields at each zero are those of the
    restricted forms with each free coordinate set in turn; with no
    other forms the same zeros come with no values.  Over F49 the three
    free coordinates of the first stratum start at five values only."""
    elements = list(F.elements())
    zeros = 0
    for seed in (1, 2):
        forms = _kernel_forms(F, seed)
        for pivot, free in _rows_of_p3():
            first = elements if len(free) < 3 or F.size < 49 else elements[:5]
            got = list(_row_zeros(forms, pivot, free, first))
            others = [row_restriction_by_scan(g, pivot, free).terms
                      for g in forms[1:]]
            for pt, values in got:
                assert values == row_values_by_set_first(
                    F, others, [pt[t] for t in free]), (seed, pivot, free)
            assert list(_row_zeros(forms[:1], pivot, free, first)) == [
                (pt, []) for pt, _ in got]
            zeros += len(got)
    assert zeros


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=["F7", "F49", "F4", "F16"])
def test_on_affine_line_shares_powers(monkeypatch, F):
    """A cubic and a quadric on the line (s, b0 + b1 s) of each
    two-free-coordinate cell row, with one list of powers shared, equal
    the oracle's two calls, which build the powers each, and take no
    more field ops; b0 or b1 may be 0."""
    count = count_field_ops(monkeypatch)
    rng = random.Random(33)
    top = F.size - 1
    forms = _kernel_forms(F, 4)
    rows = [(i, free0) for i, j, free0, free1 in _cell_patterns()
            if len(free0) == 2]
    assert rows
    for i, free0 in rows:
        cub, quad = [_on_row(g, i, free0).terms for g in forms[:2]]
        for b0, b1 in ((0, 1), (top, 0), (1, top),
                       (rng.randrange(F.size), rng.randrange(1, F.size))):
            count[0] = 0
            want = [affine_line_by_upoly(F, g, b0, b1) for g in (cub, quad)]
            oracle_ops, count[0] = count[0], 0
            powers = [UPoly(F, [F.rone]), UPoly(F, [b0, b1])]
            got = [_on_affine_line(F, g, powers) for g in (cub, quad)]
            assert [p.coeffs for p in got] == [p.coeffs for p in want]
            assert count[0] <= oracle_ops


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=["F7", "F49", "F4", "F16"])
def test_point_sort_is_the_coefficient_vector_sort(F):
    """Sorting seeded points by `sort_key` gives the order of their
    coefficient vectors, whether or not the keys were read before."""
    rng = random.Random(F.size)
    for _ in range(2):
        points = [ProjPoint.from_raw(F, [rng.randrange(F.size)
                                         for _ in range(4)])
                  for _ in range(60)]
        want = sorted(points, key=lambda p: tuple(F.vector_of(c)
                                                  for c in p.coords))
        assert sorted(points, key=lambda p: p.sort_key()) == want


def test_point_scans_keep_proj_points_order():
    """surface_points and singular_points_scan list the points that a
    proj_points walk with MultiPoly.evaluate finds, in the same order
    (fermat2's class counts are filled in this order); so does the strata
    scan of a conic, whose first zero is the base point of
    `parametrize_conic`."""
    surfaces = [
        Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F2)),   # cone
        Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F3)),   # triple plane
        fermat(F2), fermat(F4), clebsch(F5),                  # smooth
        Hypersurface(parse_poly("X0*X1*X2+X3^3", 4, F3)),    # 3 points
        Hypersurface(parse_poly(                             # F_9 pair
            "2*X0^2*X1+2*X0*X1^2+X1^3+2*X1*X2^2+X0^2*X3+2*X0*X1*X3+X1^2*X3"
            "+2*X1*X2*X3+X2^2*X3+X2*X3^2+X3^3", 4, F3)),
    ]
    counts = set()
    for x in surfaces:
        assert list(surface_points(x)) == _brute_points(x)
        ext_cap = 2 if x.field.size <= 4 else 1
        scan = singular_points_scan(x, ext_cap)
        assert scan == _brute_singular_points(x, ext_cap)
        counts.add(min(len(scan), 4))
    assert counts == {0, 1, 2, 3, 4}
    # a smooth conic, first zero (1:1:1), and a double line off X0 = 1
    for conic, first in (("2*X0^2+X1^2+X1*X2+X2^2", (1, 1, 1)),
                         ("X0^2", (0, 1, 0))):
        conic = parse_poly(conic, 3, F5)
        zeros = [raw for i in range(3)
                 for raw, _ in _row_zeros([conic], i, range(i + 1, 3),
                                          list(F5.elements()))]
        assert zeros == [raw for raw in proj_points(F5, 2)
                         if not conic.evaluate(raw)]
        assert zeros[0] == first


# -- tangent hyperplanes --------------------------------------------------------

def test_tangent_hyperplane_examples():
    x = Hypersurface(parse_poly("X0*X1*X2+X1^3+X2^3+X3*X0^2", 4, F7))
    pt = ProjPoint(F7, [1, 0, 0, 0])
    assert tangent_hyperplane(x, pt) == Hyperplane(F7, [0, 0, 0, 1])
    f2 = fermat(F2)
    pt2 = ProjPoint(F2, [0, 0, 1, 1])
    # oracle: gradient of the char-2 Fermat is (X0^2, X1^2, X2^2, X3^2)
    assert tangent_hyperplane(f2, pt2) == Hyperplane(F2, [0, 0, 1, 1])


def test_point_lies_on_own_tangent_plane():
    for x in (fermat(F7), fermat(F2), clebsch(F7)):
        count = 0
        for pt in surface_points(x):
            if all(not g for g in x.gradient(pt)):
                continue
            assert tangent_hyperplane(x, pt).contains(pt)
            count += 1
            if count >= 25:
                break


def test_tangent_hyperplane_errors():
    x = fermat(F7)
    with pytest.raises(ValueError):
        tangent_hyperplane(x, ProjPoint(F7, [1, 0, 0, 0]))
    cone = Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F7))
    with pytest.raises(ValueError):
        tangent_hyperplane(cone, ProjPoint(F7, [0, 0, 0, 1]))


# -- plane sections ---------------------------------------------------------------

def test_plane_section_examples():
    x = Hypersurface(parse_poly("X0*X1*X2+X1^3+X2^3+X3*X0^2", 4, F7))
    section = plane_section(x, Hyperplane(F7, [0, 0, 0, 1]))
    assert section == parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7)

    f2 = fermat(F2)
    section2 = plane_section(f2, Hyperplane(F2, [0, 0, 1, 1]))
    assert section2 == parse_poly("X0^3+X1^3", 3, F2)

    section3 = plane_section(fermat(F7), Hyperplane(F7, [1, 0, 0, 0]))
    assert section3 == parse_poly("X0^3+X1^3+X2^3", 3, F7)


def test_section_chart_roundtrip():
    x = fermat(F7)
    plane = Hyperplane(F7, [1, 2, 0, 3])
    section = plane_section(x, plane)
    pt = plane.to_ambient(ProjPoint(F7, [1, 2, 5]))
    assert plane.contains(pt)
    assert plane.to_plane(pt) == ProjPoint(F7, [1, 2, 5])
    # raw coordinates carry no field: a point over F49 is refused
    F49 = make_field(7, 2)
    for call, arg in ((plane.to_ambient, ProjPoint(F49, [1, 2, 5])),
                      (plane.to_plane, pt.map_field(F49)),
                      (plane.contains, pt.map_field(F49)),
                      (lambda p: plane_section(x, p), plane.map_field(F49)),
                      (lambda ln: divide_by_plane_line(section, ln),
                       Hyperplane(F49, [1, 0, 0])),
                      (plane.line_in_plane,
                       LineP3.from_raw(F49, [[1, 10, 0, 0], [0, 0, 1, 0]]))):
        with pytest.raises(FieldError):
            call(arg)
    with pytest.raises(FieldError):
        plane_line_through(ProjPoint(F7, [1, 2, 5]), ProjPoint(F49, [1, 0, 0]))


# -- classification ----------------------------------------------------------------

def test_classify_examples():
    cls = classify_plane_cubic(parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7))
    assert cls.tag == NODAL_INTEGRAL
    assert cls.singular_point == ProjPoint(F7, [1, 0, 0])

    cls2 = classify_plane_cubic(parse_poly("X0*X2^2+X1^3", 3, F7))
    assert cls2.tag == CUSPIDAL_INTEGRAL
    assert cls2.singular_point == ProjPoint(F7, [1, 0, 0])

    cls3 = classify_plane_cubic(parse_poly("X0^3+X1^3", 3, F2))
    assert cls3.tag == THREE_LINES_CONCURRENT
    assert cls3.singular_point == ProjPoint(F2, [0, 0, 1])
    assert cls3.ext_degree_used == 2


def test_classify_refuses_singular_points_beyond_the_cap():
    """With no point given, a cubic whose singular points all lie beyond
    the cap is refused, not reported smooth: the triangle of the three
    conjugate lines N(X0 + g X1 + g^2 X2) over F7 (vertices over F_{7^3})
    and a line with a conic through two conjugate points of F49."""
    K = make_field(7, 3)
    norm = MultiPoly.constant(K, 3, 1)
    for k in range(3):
        g = K.rpow(K.gen.raw, 7 ** k)
        norm = norm * MultiPoly.from_raw(K, 3, {(1, 0, 0): K.rone,
                                                (0, 1, 0): g,
                                                (0, 0, 1): K.rmul(g, g)})
    down = {K.scalar(a).raw: a for a in range(7)}
    triangle = MultiPoly.from_raw(F7, 3, {e: down[c]
                                          for e, c in norm.terms.items()})
    line_conic = parse_poly("X0*(X0^2+X1^2-3*X2^2)", 3, F7)
    for cub, low, tag in ((triangle, 3, THREE_LINES_TRIANGLE),
                          (line_conic, 2, LINE_CONIC_TRANSVERSE)):
        for cap in range(1, low):
            with pytest.raises(ExtensionCapExceeded):
                classify_plane_cubic(cub, cap)
        for cap in (low, 6):
            cls = classify_plane_cubic(cub, cap)
            assert cls.tag == tag and cls.ext_degree_used == low


def test_classify_refuses_concurrent_lines_beyond_the_cap():
    """X1^3 - 2 X2^3 over F7 is three lines through (1:0:0), each defined
    over F_{7^3} only, as 2 is a cube in neither F7 nor F49: below cap 3
    the split is refused, with the point given or found."""
    cub = parse_poly("X1^3-2*X2^3", 3, F7)
    node = ProjPoint(F7, [1, 0, 0])
    for cap in (1, 2):
        for point in ((), (node,)):
            with pytest.raises(ExtensionCapExceeded, match="splitting the "
                               "triple-point cubic needs extension degree "
                               "3"):
                classify_plane_cubic(cub, cap, *point)
    cls = classify_plane_cubic(cub, 3)
    assert (cls.tag, cls.singular_point, cls.ext_degree_used) == \
        (THREE_LINES_CONCURRENT, node, 3)


def test_classify_full_zoo():
    assert classify_plane_cubic(
        parse_poly("X0^3+X1^3+X2^3", 3, F7)).tag == SMOOTH_CUBIC
    assert classify_plane_cubic(
        parse_poly("X0^3", 3, F7)).tag == TRIPLE_LINE
    assert classify_plane_cubic(
        parse_poly("X0^2*X1", 3, F7)).tag == LINE_DOUBLE_LINE
    assert classify_plane_cubic(
        parse_poly("X0*X1*X2", 3, F7)).tag == THREE_LINES_TRIANGLE
    assert classify_plane_cubic(
        parse_poly("X1*X2*(X1+X2)", 3, F7)).tag == THREE_LINES_CONCURRENT
    # tangent line: conic X1^2 - X0 X2 touches X2 = 0 at (1:0:0)
    assert classify_plane_cubic(
        parse_poly("X2*(X1^2-X0*X2)", 3, F7)).tag == LINE_CONIC_TANGENT
    # transverse line: X1 = 0 meets X1^2 - X0 X2 at (1:0:0) and (0:0:1)
    assert classify_plane_cubic(
        parse_poly("X1*(X1^2-X0*X2)", 3, F7)).tag == LINE_CONIC_TRANSVERSE


def _linear(K, coeffs):
    return MultiPoly.from_raw(K, 3, {
        e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)
        if c != K.rzero})


def _generated_rows(F, rng):
    """Cubics over F built as products, each with its tag, its singular
    points over the field K they are built in (none for a repeated
    line) and the extension degree of K: a triangle of rational lines, a
    rational line with the two conjugate lines of a norm from F_{q^2},
    the three conjugate lines of a norm from F_{q^3}, the line X0 = 0
    with the conic X0^2 + (X1 + a X2)(X1 + b X2) through two rational or
    two conjugate points of it, l^2 m and l^3."""
    q = F.size
    K2, K3 = make_field(F.p, 2 * F.k), make_field(F.p, 3 * F.k)

    def outside(K):
        return rng.choice([a for a in K.elements()
                           if K.rpow(a, q) != a])

    def conjugates(K, coeffs, d):
        return [[K.rpow(c, q ** i) for c in coeffs] for i in range(d)]

    def triangle(K, rows):
        lines = [Hyperplane.from_raw(K, r) for r in rows]
        cub = _linear(K, rows[0]) * _linear(K, rows[1]) * _linear(K, rows[2])
        return (cub, THREE_LINES_TRIANGLE,
                [_cross(a, b) for a, b in itertools.combinations(lines, 2)],
                K.k // F.k)

    def transverse(K, a, b):
        x0 = _linear(K, [K.rone, K.rzero, K.rzero])
        conic = (x0 * x0 + _linear(K, [K.rzero, K.rone, a])
                 * _linear(K, [K.rzero, K.rone, b]))
        return (x0 * conic, LINE_CONIC_TRANSVERSE,
                [ProjPoint.from_raw(K, [K.rzero, K.rneg(c), K.rone])
                 for c in (a, b)], K.k // F.k)

    one, zero = F.rone, F.rzero
    a2, a3 = outside(K2), outside(K3)
    x0, x1 = _linear(F, [one, zero, zero]), _linear(F, [zero, one, zero])
    split = rng.sample(list(F.elements()), 2)
    yield triangle(F, [[one, zero, zero], [zero, one, zero],
                       [zero, zero, one]])
    yield triangle(K2, conjugates(K2, [K2.rone, a2, K2.rzero], 2)
                   + [[K2.rzero, K2.rzero, K2.rone]])
    yield triangle(K3, conjugates(K3, [K3.rone, a3, K3.rmul(a3, a3)], 3))
    yield transverse(F, *split)
    yield transverse(K2, a2, K2.rpow(a2, q))
    yield x0 * x0 * x1, LINE_DOUBLE_LINE, [], 1
    yield x0 * x0 * x0, TRIPLE_LINE, [], 1


def test_classify_rows_the_table_leaves_match_generated_truth():
    """The rows `_tangent_cone_class` leaves to the singular points
    (transverse line and conic, triangle) and to the repeated line
    (LineDoubleLine, TripleLine), on cubics built as products and moved
    by a random X -> M Y.  The tag comes from the construction; so do
    the recorded point, the least of the moved points M^-1 p over their
    join field, and ext_degree_used; below that degree the cap is
    refused."""
    rng = random.Random(22)
    seen = set()
    for F in (F2, F3, F4, F5, F7):
        for cub, tag, points, ext in _generated_rows(F, rng):
            K = make_field(F.p, F.k * ext)
            back = {embed(F, x, K): x for x in F.elements()}
            cub = MultiPoly.from_raw(F, 3, {e: back[c]
                                            for e, c in cub.terms.items()})
            for _ in range(6):
                while True:
                    m = [[rng.randrange(F.size) for _ in range(3)]
                         for _ in range(3)]
                    inv = linalg.inverse(F, m)
                    if inv is not None:
                        break
                moved = substitute_linear_map(cub, m)
                inv_k = [[embed(F, c, K) for c in row] for row in inv]
                least = min((ProjPoint.from_raw(K, [
                    _dot(K, row, p.coords) for row in inv_k])
                    for p in points), key=lambda p: p.sort_key(),
                    default=None)
                cls = classify_plane_cubic(moved, 6)
                assert (cls.tag, cls.singular_point, cls.ext_degree_used) \
                    == (tag, least, ext), f"{moved} over {F}"
                if ext > 1:
                    with pytest.raises(ExtensionCapExceeded):
                        classify_plane_cubic(moved, ext - 1)
                seen.add((tag, ext))
    assert seen == {(THREE_LINES_TRIANGLE, 1), (THREE_LINES_TRIANGLE, 2),
                    (THREE_LINES_TRIANGLE, 3), (LINE_CONIC_TRANSVERSE, 1),
                    (LINE_CONIC_TRANSVERSE, 2), (LINE_DOUBLE_LINE, 1),
                    (TRIPLE_LINE, 1)}


def test_classify_char2_tangency():
    # characteristic-2 tangency needs the b != 0 criterion, not the
    # discriminant
    f2 = fermat(F2)
    cls = classify_plane_cubic(plane_section(f2, Hyperplane(F2,
                                                            [0, 0, 1, 1])))
    assert cls.tag == THREE_LINES_CONCURRENT


def test_classify_invariance_under_plane_coordinates():
    rng = random.Random(8)
    fixtures = [
        parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7),
        parse_poly("X0*X2^2+X1^3", 3, F7),
        parse_poly("X2*(X1^2-X0*X2)", 3, F7),
        parse_poly("X0*X1*X2", 3, F5),
    ]
    for cub in fixtures:
        base = classify_plane_cubic(cub)
        field = cub.field
        for _ in range(20):
            m = random_invertible(field, 3, rng)
            from veryfree.poly import linear_substitute
            moved = linear_substitute(cub, m)
            cls = classify_plane_cubic(moved)
            assert cls.tag == base.tag
            if base.singular_point is not None:
                # transport the singular point through the substitution
                K = cls.singular_point.field
                m_k = [[embed(field, c.raw, K) for c in row] for row in m]
                at = cls.singular_point.coords
                image = ProjPoint.from_raw(K, [raw_dot(K, m_k[i], at)
                                               for i in range(3)])
                if base.tag in (NODAL_INTEGRAL, CUSPIDAL_INTEGRAL,
                                LINE_CONIC_TANGENT,
                                THREE_LINES_CONCURRENT):
                    # these classes have one distinguished singular point
                    assert image == base.singular_point.map_field(K)
                else:
                    # otherwise the recorded point is a canonical pick
                    # among several; the transport must still be singular
                    cub_k = cub.map_field(K)
                    assert not cub_k.evaluate(image.coords)
                    for i in range(3):
                        assert not cub_k.partial(i).evaluate(image.coords)


def _plane_cubic_oracle_cases():
    """Seeded random ternary cubics over F2, F3, F4, F5 and F7 (dense,
    singular at a random rational point, and products of random linear
    and quadratic forms), plus L^2*M, L^3 and two characteristic-3
    cubics where C is not in the ideal of its partials."""
    from veryfree.poly import linear_substitute
    rng = random.Random(31)
    for field in (F2, F3, F4, F5, F7):
        for _ in range(3):
            yield random_form(field, 3, 3, rng)
        for _ in range(3):
            # singular at (1:0:0), then moved to a random rational point
            cub = random_form(field, 3, 3, rng)
            cub = MultiPoly.from_raw(field, 3, {
                e: c for e, c in cub.terms.items() if e[0] < 2})
            yield linear_substitute(cub, random_invertible(field, 3, rng))
        yield random_form(field, 3, 1, rng) * random_form(field, 3, 2, rng)
        yield (random_form(field, 3, 1, rng) * random_form(field, 3, 1, rng)
               * random_form(field, 3, 1, rng))
    for text, field in (("X0*X1*X2", F5), ("X1*X2*(X1+X2)", F7),
                        ("X0^2*X1", F7), ("(X0+X1)^2*(X0-X2)", F5),
                        ("X0^3", F3), ("(X0+2*X1+X2)^3", F7),
                        ("X0^3+X1*X2*(X1+X2)", F3), ("X0^3+X1^2*X2", F3)):
        yield parse_poly(text, 3, field)


def test_ternary_singular_points_match_scan_oracle():
    """Singular points of plane cubics against the exhaustive scan over
    F_q and F_{q^2}: the points of level <= 2 agree, and the locus is
    reported infinite exactly when the scan finds more than 3 points."""
    statuses, counts = set(), set()
    for cub in _plane_cubic_oracle_cases():
        if cub.is_zero() or cub.total_degree != 3:
            continue
        pts = _ternary_singular_points(cub, 6)
        scan = singular_points_scan(Hypersurface(cub), 2)
        assert (pts is None) == (len(scan) > 3), str(cub)
        statuses.add(pts is None)
        if pts is not None:
            assert {(p, lvl) for p, lvl in pts if lvl <= 2} == set(scan)
            counts.add(len(pts))
    assert statuses == {True, False} and counts == {0, 1, 2, 3}


# -- the tangent-cone table against the Groebner strata --------------------------

def _assert_point_path_agrees(cub, pt):
    """classify_plane_cubic with the known singular point pt gives the
    JSON of the Groebner path; returns the table's row, None when it
    fell back to the strata."""
    assert (classify_plane_cubic(cub, singular_point=pt).to_json()
            == classify_plane_cubic(cub).to_json()), f"{cub} at {pt}"
    return _tangent_cone_class(cub, pt, 6)


def test_tangent_cone_table_on_f16_fermat_sections():
    """All 369 tangent sections of the Fermat surface over F16, each at
    its point of tangency."""
    x = fermat(make_field(2, 4))
    tags = {}
    for pt in surface_points(x):
        plane = tangent_hyperplane(x, pt)
        row = _assert_point_path_agrees(plane_section(x, plane),
                                        plane.to_plane(pt))
        tags[row.tag] = tags.get(row.tag, 0) + 1
    assert tags == {LINE_CONIC_TANGENT: 324, THREE_LINES_CONCURRENT: 45}


def test_tangent_cone_table_on_seeded_singular_cubics():
    """Seeded cubics X0 q + c over F2, F3, F4, F5 and F7, moved by a
    random X -> M X, at the moved point M^-1 (1:0:0); then the scan
    oracle's cubics at each of their singular points of residue degree
    <= 2, each over its residue field."""
    from veryfree.poly import linear_substitute
    rng = random.Random(47)
    tags = set()
    for field in (F2, F3, F4, F5, F7):
        for _ in range(12):
            loc = random_form(field, 3, 3, rng)
            loc = MultiPoly.from_raw(field, 3, {
                e: c for e, c in loc.terms.items() if e[0] < 2})
            if loc.is_zero():
                continue
            m = random_invertible(field, 3, rng)
            inv = linalg.inverse(field, [[c.raw for c in r] for r in m])
            pt = ProjPoint.from_raw(field, [r[0] for r in inv])
            row = _assert_point_path_agrees(linear_substitute(loc, m), pt)
            tags.add(row.tag if row else None)
    assert {NODAL_INTEGRAL, LINE_CONIC_TANGENT, None} <= tags, tags
    levels = set()
    for cub in _plane_cubic_oracle_cases():
        if cub.is_zero() or cub.total_degree != 3:
            continue
        for pt, level in singular_points_scan(Hypersurface(cub), 2):
            row = _assert_point_path_agrees(cub, pt)
            levels.add((row.tag if row else None, level))
    assert {(None, 2), (LINE_DOUBLE_LINE, 2), (TRIPLE_LINE, 2)} <= levels


def test_tangent_cone_table_reaches_every_row():
    """Every tag, over F7 and moved: at each singular point of residue
    degree <= 2 (the exhaustive scan), the table and the Groebner path
    agree; the table falls back exactly on the rows with several
    singular points, and LineDoubleLine is reached both with q = 0 and
    with q = l^2.  A point that is not singular raises IntegrityError."""
    from veryfree.poly import linear_substitute
    zoo = {
        "X0*X1*X2+X1^3+X2^3": NODAL_INTEGRAL,
        "X0*X2^2+X1^3": CUSPIDAL_INTEGRAL,
        "X2*(X1^2-X0*X2)": LINE_CONIC_TANGENT,
        "X1*(X1^2-X0*X2)": LINE_CONIC_TRANSVERSE,
        "X0*X1*X2": THREE_LINES_TRIANGLE,
        "X1*X2*(X1+X2)": THREE_LINES_CONCURRENT,
        "X0^2*X1": LINE_DOUBLE_LINE,
        "X0^3": TRIPLE_LINE,
        "X0^3+X1^3+X2^3": SMOOTH_CUBIC,
    }
    rng = random.Random(5)
    rows = set()
    on_curve_tested = 0
    for text, tag in zoo.items():
        base = parse_poly(text, 3, F7)
        for cub in [base] + [linear_substitute(base, random_invertible(
                F7, 3, rng)) for _ in range(3)]:
            assert classify_plane_cubic(cub).tag == tag
            singular = [p for p, _ in singular_points_scan(Hypersurface(cub),
                                                           2)]
            assert bool(singular) == (tag != SMOOTH_CUBIC)
            for pt in singular:
                row = _assert_point_path_agrees(cub, pt)
                assert (row is None) == (tag in (LINE_CONIC_TRANSVERSE,
                                                 THREE_LINES_TRIANGLE))
                K = pt.field
                _, q, _ = _nodal_frame(cub.map_field(K), pt)
                rows.add((tag, q.is_zero()))
            # the first point that is not singular, and the first such
            # point that lies on the cubic
            smooth = [p for p in (ProjPoint.from_raw(F7, v)
                                  for v in proj_points(F7, 2))
                      if p not in singular]
            on_curve = [p for p in smooth if not cub.evaluate(p.coords)]
            on_curve_tested += bool(on_curve)
            for pt in smooth[:1] + on_curve[:1]:
                with pytest.raises(IntegrityError, match="not singular"):
                    classify_plane_cubic(cub, singular_point=pt)
    assert on_curve_tested == 32
    assert {t for t, _ in rows} == set(zoo.values()) - {SMOOTH_CUBIC}
    assert {(LINE_DOUBLE_LINE, True), (LINE_DOUBLE_LINE, False),
            (TRIPLE_LINE, True)} <= rows
    # the F2 cone whose lines need F4: the ext degree from binary_roots
    cone = parse_poly("X0^3+X1^3", 3, F2)
    vertex = ProjPoint(F2, [0, 0, 1])
    _assert_point_path_agrees(cone, vertex)
    assert classify_plane_cubic(cone, singular_point=vertex).ext_degree_used \
        == 2


def test_nodal_frame_matches_substitution():
    """`_nodal_frame`, read off Taylor coefficients, against the frame by
    substitution.  Seeded cubics with no term of X2-degree >= 2, so
    singular at (0:0:1), are moved by a random X -> M X; the frames agree
    at each singular point of residue degree <= 2, over its residue
    field, and both raise at every rational point of the cubic that is
    not singular."""
    rng = random.Random(24)
    singular_checked = on_curve_checked = 0
    for field in (F2, F3, F4, F5, F7, make_field(3, 2), make_field(2, 4)):
        for _ in range(20):
            loc = random_form(field, 3, 3, rng)
            loc = MultiPoly.from_raw(field, 3, {
                e: c for e, c in loc.terms.items() if e[2] < 2})
            if loc.is_zero():
                continue
            cub = linear_substitute(loc, random_invertible(field, 3, rng))
            singular = [p for p, _ in singular_points_scan(Hypersurface(cub),
                                                           2)]
            assert singular
            for pt in singular:
                cub_k = cub.map_field(pt.field)
                assert (_nodal_frame(cub_k, pt)
                        == nodal_frame_by_substitution(cub_k, pt))
                singular_checked += 1
            for v in proj_points(field, 2):
                pt = ProjPoint.from_raw(field, v)
                if cub.evaluate(v) or pt in singular:
                    continue
                for frame in (_nodal_frame, nodal_frame_by_substitution):
                    with pytest.raises(IntegrityError, match="not singular"):
                        frame(cub, pt)
                on_curve_checked += 1
    assert (singular_checked, on_curve_checked) == (191, 1027)


def test_char3_point_with_zero_gradient_off_the_cubic():
    """Over F3 the gradient (X1 X2, X0 X2, X0 X1) of
    X0^3 + X1^3 + X2^3 + X0 X1 X2 vanishes at (1:0:0), where the cubic is
    1: the point is not singular, and the frame must see cub(pt) != 0."""
    cub = parse_poly("X0^3+X1^3+X2^3+X0*X1*X2", 3, F3)
    pt = ProjPoint(F3, [1, 0, 0])
    assert cub.evaluate(pt.coords) == 1
    assert all(not cub.partial(i).evaluate(pt.coords) for i in range(3))
    with pytest.raises(IntegrityError, match="not singular"):
        classify_plane_cubic(cub, singular_point=pt)


# -- lines and Eckardt points ---------------------------------------------------

def test_lines_on_f7_fermat():
    lines, work, ext = lines_on_cubic_surface(fermat(F7))
    assert len(lines) == 27 and ext == 1
    target = LineP3(F7, [[1, -1, 0, 0], [0, 0, 1, -1]])
    assert target in set(lines)
    for line in lines:
        from veryfree.poly import compose_with_curve
        assert compose_with_curve(fermat(F7).f, line.param_forms()).is_zero()
    assert len(set(lines)) == 27


def _all_lines_of_p3(F):
    """Every line of P^3(F), one 2 x 4 reduced row echelon matrix each."""
    elements = [F.from_raw(c) for c in F.elements()]
    for i, j in itertools.combinations(range(4), 2):
        free0 = [t for t in range(i + 1, 4) if t != j]
        free1 = list(range(j + 1, 4))
        n0 = len(free0)
        for vals in itertools.product(elements, repeat=n0 + len(free1)):
            rows = [[F.zero] * 4, [F.zero] * 4]
            rows[0][i] = rows[1][j] = F.one
            for t, v in zip(free0, vals[:n0]):
                rows[0][t] = v
            for t, v in zip(free1, vals[n0:]):
                rows[1][t] = v
            yield rows


def test_lines_on_f7_fermat_match_every_line_of_p3():
    x = fermat(F7)
    every = [LineP3(F7, rows) for rows in _all_lines_of_p3(F7)]
    assert len(set(every)) == len(every) == 50 * 57
    on_x = sorted((L for L in every
                   if compose_with_curve(x.f, L.param_forms()).is_zero()),
                  key=lambda L: L.sort_key())
    lines, _, _ = lines_on_cubic_surface(x)
    assert lines == on_x


def test_line_search_field_op_count(monkeypatch):
    """Raw field operations of the line search, smoothness test included,
    on a pinned F7 surface whose lines need F_49.  Evaluating the cubic
    and its partials in full at every point of each cell row needs
    586 655; Horner scans of both rows of every cell, paired by the polar
    conditions, about 100 800; scanning only the second row and solving
    for the partner point about 33 000; scanning one value per Frobenius
    orbit of the second row's first free coordinate and conjugating the
    lines found about 20 500.  The bounds catch a fall back to scanning
    both rows and a fall back to the full second-row scan, which no
    wall-clock gate would."""
    x = Hypersurface(random_cubic_form(F7, 4, 256))
    count = count_field_ops(monkeypatch)
    lines, work, ext = lines_on_cubic_surface(x)
    assert len(lines) == 27 and ext == 2
    assert count[0] <= 60_000
    assert count[0] <= 26_000


def test_partners_restrict_each_form_once(monkeypatch):
    """`_partners` sets a free coordinate in the cubic and in the polar
    quadric at most once each per call, on pinned F7 surfaces whose
    lines need F_49 and on Clebsch."""
    per_call = []
    partners, set_first = hypersurface._partners, hypersurface._set_first

    def spy_partners(*args):
        per_call.append(0)
        return partners(*args)

    def spy_set_first(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # a comprehension
            frame = frame.f_back
        if frame.f_code is partners.__code__:
            per_call[-1] += 1
        return set_first(*args)
    monkeypatch.setattr(hypersurface, "_partners", spy_partners)
    monkeypatch.setattr(hypersurface, "_set_first", spy_set_first)
    for x in [_moved(random_cubic_form(F7, 4, s), 1)
              for s in F7_SURFACE_SEEDS] + [clebsch(F7)]:
        lines_on_cubic_surface(x)
    assert max(per_call) == 2


CYCLIC = "X0^2*X1+X1^2*X2+X2^2*X3+X3^2*X0"


def _moved(f, seed):
    """f(M X) for a seeded invertible M."""
    return Hypersurface(linear_substitute(
        f, random_invertible(f.field, 4, random.Random(seed))))


def _spy_line_search(monkeypatch):
    """Records the degree of each gcd that `_partners` takes, on raw
    coefficient lists (root finding takes its own inside `fields`), and
    each scan of a cell's first row, whose free coordinates are not all
    the coordinates after its pivot (the tangent plane at r1 holds the
    row)."""
    seen = {"gcd": set(), "first_rows": 0}
    gcd, row_zeros = hypersurface._gcd, hypersurface._row_zeros
    partners = hypersurface._partners.__code__

    def spy_gcd(F, a, b):
        out = gcd(F, a, b)
        if sys._getframe(1).f_code is partners:
            seen["gcd"].add(len(out) - 1)
        return out

    def spy_row_zeros(forms, pivot, free, first):
        if tuple(free) != tuple(range(pivot + 1, 4)):
            seen["first_rows"] += 1
        return row_zeros(forms, pivot, free, first)
    monkeypatch.setattr(hypersurface, "_gcd", spy_gcd)
    monkeypatch.setattr(hypersurface, "_row_zeros", spy_row_zeros)
    return seen


def _seeded(field, seed):
    return Hypersurface(random_cubic_form(field, 4, seed))


@pytest.mark.parametrize("name, x, reaches", [
    ("cyclic F2", Hypersurface(parse_poly(CYCLIC, 4, F2)), "first_rows"),
    ("cyclic F4", Hypersurface(parse_poly(CYCLIC, 4, F4)), "first_rows"),
    ("cyclic F11", Hypersurface(parse_poly(CYCLIC, 4, F11)), "first_rows"),
    ("Fermat F7", fermat(F7), {3}),
    ("Fermat F13", fermat(make_field(13)), {3}),
    ("Clebsch F7", clebsch(F7), {1, 2}),
    ("moved F5", _moved(random_cubic_form(F5, 4, F5_SURFACE_SEEDS[0]), 1),
     {1, 2}),
    ("moved F7", _moved(random_cubic_form(F7, 4, F7_SURFACE_SEEDS[0]), 1),
     {1, 2}),
    ("Fermat F2", fermat(F2), {3}),
    # lines over F32, F64 and F81
    ("F2 seed 17", _seeded(F2, 17), "first_rows"),
    ("F2 seed 26", _seeded(F2, 26), {1, 3}),
    ("F3 seed 10", _seeded(F3, 10), {1, 2}),
])
def test_line_search_matches_row_pairing(monkeypatch, name, x, reaches):
    """Solving for the partner point finds, over every field the search
    visits, exactly the lines of the two-row scan, each once.  The
    surfaces reach each way of solving: the tangent plane at r1 holding a
    first row (cyclic), a gcd of degree 3 (Fermat) and gcds of degrees 1
    and 2.  The search scans one value per Frobenius orbit of the second
    row's first free coordinate; the last three surfaces have orbits of
    lines longer than 2.  The scan runs in full at each level up to the
    line field's; the spies watch those scans."""
    lines, work, ext = lines_on_cubic_surface(x)
    assert len(lines) == 27
    seen = _spy_line_search(monkeypatch)
    scans = [list(_lines_in_cells([xk.f] + xk.partials, x.field.size))
             for xk in _levels(x, ext)]
    monkeypatch.undo()
    if reaches == "first_rows":
        assert seen["first_rows"] > 0, name
    else:
        assert reaches <= seen["gcd"], (name, seen)
    for k, (xk, found) in enumerate(zip(_levels(x, ext), scans), 1):
        assert len(set(found)) == len(found), (name, k)
        found.sort(key=lambda l: l.sort_key())
        assert found == lines_by_row_pairing(x, xk.field), (name, k)
    assert found == lines


def _levels(x, ext):
    """The surface over F_{q^k} for k = 1..ext."""
    return [x.map_field(make_field(x.field.p, x.field.k * k))
            for k in range(1, ext + 1)]


def _frobenius(line, e):
    """The line through the rows of `line` with every entry raised to
    the power e, put in RREF by `LineP3.from_raw`."""
    K = line.field
    return LineP3.from_raw(K, [[K.rpow(c, e) for c in r] for r in line.rows])


@pytest.mark.parametrize("name, x, degree", [
    *[(f"F5 seed {s}", _seeded(F5, s), 2) for s in F5_SURFACE_SEEDS],
    *[(f"F7 seed {s}", _seeded(F7, s), 2) for s in F7_SURFACE_SEEDS],
    ("Clebsch F7", clebsch(F7), 2),
    ("F2 seed 17", _seeded(F2, 17), 5),
    ("F2 seed 26", _seeded(F2, 26), 6),
    ("F3 seed 10", _seeded(F3, 10), 4),
])
def test_lines_closed_under_frobenius(monkeypatch, name, x, degree):
    """The premise of the orbit-reduced search: x -> x^q, with F_q the
    surface's field, maps the lines that the two-row scan finds over the
    line field F_{q^k} onto themselves, and the lengths of its orbits
    have least common multiple k, so for k > 2 some orbit is longer than
    2.  Every conjugate the scan builds, at each level up to the line
    field's, has the rows and Plücker coordinates that `LineP3.from_raw`
    gives for the conjugated rows."""
    lines, K, ext = lines_on_cubic_surface(x)
    built, conjugate = [], LineP3.conjugate

    def spy_conjugate(line, e):
        out = conjugate(line, e)
        built.append((line, e, out))
        return out
    monkeypatch.setattr(LineP3, "conjugate", spy_conjugate)
    for xk in _levels(x, ext):
        for _ in _lines_in_cells([xk.f] + xk.partials, x.field.size):
            pass
    monkeypatch.undo()
    assert ext == degree and built, name
    for line, e, out in built:
        ref = _frobenius(line, e)
        assert (out.rows, out.plucker) == (ref.rows, ref.plucker), name
    q = x.field.size
    full = set(lines_by_row_pairing(x, K))
    assert {_frobenius(l, q) for l in full} == full, name
    lengths, left = [], set(full)
    while left:
        orbit = [left.pop()]
        while (conj := _frobenius(orbit[-1], q)) != orbit[0]:
            orbit.append(conj)
        left -= set(orbit)
        lengths.append(len(orbit))
    assert math.lcm(*lengths) == ext, (name, sorted(lengths))


# a seeded slice of tests/line_corpus.py: characteristics 2, 3, 5, 7 and
# 11, Fermat over F4 (every meeting point of two lines an Eckardt point),
# the pencil's line at levels 1 and 3 and the lines at levels 1, 3, 4 and
# 5; planes of degree 2, 4 and 5 over the line's field, conics split only
# over twice the degree of their plane (the random F5 cubic: degrees 1
# and 2), a conic left unsplit within the caps and degrees whose lcm
# passes them (the random F8 cubic); and both errors, with counts, from
# levels after the pencil's that were not scanned
LINE_SLICE = [
    ("diagonal", (2, 2), 0, 6, 4000),
    ("random", (2, 2), 7, 6, 130),
    ("line", (2, 1), 1, 6, 130),
    ("random", (3, 1), 5, 6, 4000),
    ("diagonal", (7, 1), 1, 6, 4000),
    ("random", (3, 1), 7, 6, 4000),
    ("line", (3, 1), 1, 2, 4000),
    ("line", (2, 3), 2, 6, 130),
    ("line", (11, 1), 6, 6, 130),
    ("random", (5, 1), 1, 6, 4000),
    ("line", (7, 1), 5, 6, 130),
    ("random", (2, 3), 3, 6, 4000),
]


def test_pencil_matches_the_level_scans():
    """The pencil of one line answers as the search that scans every
    level in full (`helpers.lines_by_level_scans`): the same lines, rows
    and Plücker coordinates, field and level, or the same error and
    message."""
    items = list(corpus(LINE_SLICE))
    bad, kinds = compare(items)
    assert len(items) == len(LINE_SLICE) and bad == []
    assert kinds == {(1, 1): 1, (1, 3): 1, (1, 4): 2, (1, 5): 1, (3, 3): 1,
                     (1, "ExtensionCapExceeded"): 2,
                     (1, "ScanBudgetExceeded"): 4}


def _count_drawn(monkeypatch):
    """How many lines each scan gives before it is dropped or done."""
    drawn, scan = [], hypersurface._lines_in_cells

    def spy(forms, q):
        drawn.append(0)
        for line in scan(forms, q):
            drawn[-1] += 1
            yield line
    monkeypatch.setattr(hypersurface, "_lines_in_cells", spy)
    return drawn


def test_line_search_draws_one_line_then_counts_only_on_error(monkeypatch):
    """On a pinned F7 surface with lines over F7 and all 27 over F49, the
    line search scans level 1 up to its first line and no more, and that
    line's pencil gives the lines over F49.  With extension cap 1 the
    error finishes the level-1 scan, and its count is the message's."""
    x = Hypersurface(random_cubic_form(F7, 4, F7_SURFACE_SEEDS[0]))
    drawn = _count_drawn(monkeypatch)
    lines, K, ext = lines_on_cubic_surface(x)
    assert (len(lines), ext, drawn) == (27, 2, [1])
    drawn.clear()
    with pytest.raises(ExtensionCapExceeded) as err:
        lines_on_cubic_surface(x, 1)
    assert len(drawn) == 1 and drawn[0] > 1
    assert str(err.value) == (f"only {drawn[0]} lines found within "
                              f"extension degree 1")


@pytest.mark.parametrize("F", [F2, F3, F4], ids=str)
def test_line_from_plucker_matches_rref(F):
    """`LineP3.from_plucker` on every line of P^3(F), its Plücker vector
    scaled by a seeded unit, gives the rows and Plücker coordinates that
    elimination gives."""
    rng = random.Random(5)
    units = [c for c in F.elements() if c != F.rzero]
    for rows in _all_lines_of_p3(F):
        line = LineP3(F, rows)
        u = rng.choice(units)
        got = LineP3.from_plucker(F, [F.rmul(u, c) for c in line.plucker])
        assert (got.rows, got.plucker) == (line.rows, line.plucker)


def test_line_search_refuses_a_plane():
    """A plane on the surface makes both restrictions to the line of
    partner points vanish: X2 = 0 lies on X2 (X0^2 + X1^2 + X3^2)."""
    x = Hypersurface(parse_poly("X2*(X0^2+X1^2+X3^2)", 4, F7))
    with pytest.raises(IntegrityError, match="a plane lies on the surface"):
        list(_lines_in_cells([x.f] + x.partials, F7.size))


def test_is_smooth_field_op_count(monkeypatch):
    """Raw field operations of the smoothness test on the pinned F7
    surface: about 9 000 on Scalar arithmetic with every leading monomial
    recomputed, about 1 000 on raw monic entries with the Gebauer–Möller
    criteria.  The bound catches a fall back to the former."""
    x = Hypersurface(random_cubic_form(F7, 4, 256))
    count = count_field_ops(monkeypatch)
    assert is_smooth(x)
    assert count[0] <= 2_000


def test_lines_on_char2_fermat():
    lines, work, ext = lines_on_cubic_surface(fermat(F2))
    assert len(lines) == 27 and ext == 2 and work is make_field(2, 2)


def test_lines_on_seeded_f5_cubics():
    for seed in F5_SURFACE_SEEDS[:1]:
        x = Hypersurface(random_cubic_form(F5, 4, seed))
        assert is_smooth(x)
        lines, work, ext = lines_on_cubic_surface(x)
        assert len(lines) == 27


def test_lines_reject_singular_surface():
    cone = Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F7))
    with pytest.raises(ValueError):
        lines_on_cubic_surface(cone)


def test_line_search_stops_at_the_extension_cap():
    """X0^3 + X1^3 + X2^3 + 2 X3^3 has no line over F7, so with extension
    cap 1 and a field cap that F7 passes, the search ends at the cap."""
    x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+2*X3^3", 4, F7))
    with pytest.raises(ExtensionCapExceeded, match="only 0 lines found "
                       "within extension degree 1"):
        lines_on_cubic_surface(x, 1, 10**6)


def test_eckardt_census_f7_fermat():
    x = fermat(F7)
    lines, work, _ = lines_on_cubic_surface(x)
    rep = eckardt_points(x, lines)
    assert rep.incident_pairs == 135
    assert rep.incident_pairs == 3 * len(rep.eckardt) + len(rep.two_line)
    assert len(rep.eckardt) == 18 and len(rep.two_line) == 81


def test_equal_surfaces_share_one_census(monkeypatch):
    """The Fermat surface over F7, parsed and as the X4 = 0 section of the
    Fermat threefold, is one key: its pencil runs once and its Eckardt
    census (one `_frobenius_size` each) once, and both answers equal a
    cold call's."""
    pencils = spy_calls(monkeypatch, hypersurface, "_pencil_lines")
    censuses = spy_calls(monkeypatch, hypersurface, "_frobenius_size")
    parsed = fermat(F7)
    section = Hypersurface(hyperplane_section(
        fermat(F7, 5), Hyperplane(F7, [0, 0, 0, 0, 1])))
    found = [lines_on_cubic_surface(x) for x in (parsed, section)]
    reports = [eckardt_points(x, found[0][0]) for x in (parsed, section)]
    assert (len(pencils), len(censuses)) == (1, 1)
    assert found[1][0] is not found[0][0]
    assert reports[1].eckardt is not reports[0].eckardt
    cold_memos(monkeypatch)
    cold = lines_on_cubic_surface(fermat(F7))
    assert found == [cold, cold]
    assert reports == [eckardt_points(fermat(F7), cold[0])] * 2
    assert (len(pencils), len(censuses)) == (2, 2)


def _double_roots(monkeypatch):
    roots = poly.find_roots
    monkeypatch.setattr(poly, "find_roots", lambda f, max_ext: [
        dataclasses.replace(r, multiplicity=2) for r in roots(f, max_ext)])


SEED256 = Hypersurface(random_cubic_form(F7, 4, 256))


@pytest.mark.parametrize("x, caps, fault, error", [
    (SEED256, (6, 48), None, ScanBudgetExceeded),
    (SEED256, (1, 4000), None, ExtensionCapExceeded),
    (fermat(F7), (6, 4000), _double_roots, IntegrityError),
], ids=["field-cap", "ext-cap", "repeated-plane"])
def test_a_refused_line_census_is_not_kept(monkeypatch, x, caps, fault,
                                           error):
    """Only a census that passed is kept, so each call raises again."""
    if fault:
        fault(monkeypatch)
    for _ in range(2):
        with pytest.raises(error):
            lines_on_cubic_surface(x, *caps)
    assert not hypersurface._CENSUS_CACHE


def test_a_refused_eckardt_census_is_not_kept():
    """A line list not closed under x -> x^7 is refused on every call,
    and only the lines are kept."""
    x = clebsch(make_field(7, 2))
    lines, _, _ = lines_on_cubic_surface(x)
    k = next(k for k, line in enumerate(lines) if line.conjugate(7) != line)
    lines[k] = LineP3(x.field, [[1, 0, 0, 0], [0, 1, 0, 0]])
    for _ in range(2):
        with pytest.raises(IntegrityError, match="Frobenius conjugate"):
            eckardt_points(x, lines)
    assert [key[0] for key in hypersurface._CENSUS_CACHE] == ["lines"]


def test_a_census_hit_returns_copies():
    """Mutating the lines and the report that a call returned leaves the
    next call's answer as it was."""
    x = fermat(F7)
    lines, K, k = lines_on_cubic_surface(x)
    rep = eckardt_points(x, lines)
    want = (list(lines), list(rep.eckardt), list(rep.two_line))
    for _ in range(2):
        lines.reverse()
        lines.pop()
        rep.eckardt.clear()
        rep.two_line.pop()
        rep.incident_pairs = 0
        lines, K2, k2 = lines_on_cubic_surface(x)
        rep = eckardt_points(x, lines)
        assert (lines, K2, k2) == (want[0], K, k)
        assert rep == EckardtReport(want[1], want[2], 135)


def test_a_permuted_line_list_is_its_own_census(monkeypatch):
    """The same lines in reverse order miss, and the report's indices
    follow the new order."""
    x = fermat(F7)
    lines, _, _ = lines_on_cubic_surface(x)
    rep = eckardt_points(x, lines)
    censuses = spy_calls(monkeypatch, hypersurface, "_frobenius_size")
    reverse = eckardt_points(x, lines[::-1])
    assert len(censuses) == 1

    def relabel(points):
        return [(pt, tuple(sorted(26 - i for i in ls))) for pt, ls in points]
    assert reverse == EckardtReport(relabel(rep.eckardt),
                                    relabel(rep.two_line), 135)


def test_eckardt_clebsch_contains_permutation_points():
    import itertools
    x = clebsch(F7)
    lines, work, _ = lines_on_cubic_surface(x)
    rep = eckardt_points(x.map_field(work), lines)
    assert len(rep.eckardt) == 10
    expected = set()
    for i, j in itertools.combinations(range(5), 2):
        v = [F7.zero] * 5
        v[i], v[j] = F7.one, F7.scalar(-1)
        expected.add(ProjPoint(F7, v[:4]).map_field(work))
    assert expected == {p for p, _ in rep.eckardt}


def test_eckardt_points_field_op_count(monkeypatch):
    """Raw field operations of the Eckardt census on Clebsch over F49,
    its 27 lines given: 7 539 with each meeting point built and
    normalized in Scalar arithmetic, 7 339 on raw coordinates, most of
    them in the 351 Plücker pairings, and 3 246 with one pairing per
    Frobenius orbit of pairs and each line's Plücker frame built once.
    The bounds pin the last, so any arithmetic added to the census
    shows."""
    x = clebsch(make_field(7, 2))
    lines, _, _ = lines_on_cubic_surface(x)
    count = count_field_ops(monkeypatch)
    rep = eckardt_points(x, lines)
    assert (len(rep.eckardt), len(rep.two_line)) == (10, 105)
    assert count[0] <= 7_339
    assert count[0] <= 3_246


@pytest.mark.parametrize("name, x", [
    ("Fermat F7", fermat(F7)),
    ("Clebsch F7", clebsch(F7)),
    ("Clebsch F49", clebsch(make_field(7, 2))),
    *[(f"F5 seed {s}", _seeded(F5, s)) for s in F5_SURFACE_SEEDS],
    *[(f"F7 seed {s}", _seeded(F7, s)) for s in F7_SURFACE_SEEDS],
    ("Fermat F2", fermat(F2)),
    ("Fermat F4", fermat(F4)),
    ("Fermat F16", fermat(make_field(2, 4))),
    ("F2 seed 17", _seeded(F2, 17)),
    ("F2 seed 26", _seeded(F2, 26)),
    ("F3 seed 10", _seeded(F3, 10)),
    ("F4 seed 7", _seeded(F4, 7)),
])
def test_eckardt_points_match_all_pairs(name, x):
    """The census by Frobenius orbits of pairs gives the report of the
    all-pairs loop, byte for byte: over the line field F7 itself (no
    orbits), over F49 with q = 7, on the 45-point Fermat surface in
    characteristic 2 with lines over F4 and F16 and q = 2, on lines over
    F32, F64 and F81, and over F64 with q = 4, where x -> x^p is not a
    symmetry of the surface."""
    lines, work, _ = lines_on_cubic_surface(x)
    xw = x.map_field(work)
    assert (eckardt_points(xw, lines).to_json()
            == eckardt_points_all_pairs(xw, lines).to_json()), name


F8, F49, F64 = make_field(2, 3), make_field(7, 2), make_field(2, 6)


@pytest.mark.parametrize("field, poly, work, q", [
    (F7, "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3", F49, 7),
    (F49, "g*X0^3+X1^3+X2^3+X3^3", F49, None),
    (F8, "X0^3+X1^3+X2^3+X3^3+g*X0*X1*X2", F64, 8),
    (F4, "X0^3+X1^3+X2^3+X3^3+g*X0*X1*X2", F64, 4),
    (F2, "X0^3+X1^3+X2^3+X3^3+X0*X1*X2", F64, 2),
    (F7, "X0^3+X1^3+X2^3+X3^3", F7, None),
    (QQ, "X0^3+X1^3+X2^3+X3^3", QQ, None),
])
def test_frobenius_size_is_the_least_subfield(field, poly, work, q):
    """The Frobenius of the census is x -> x^q for the least subfield F_q
    of the surface's field that holds its coefficients, read off the
    coefficients themselves: F7 inside F49, F8 and F4 inside F64.  There
    is none over Q, over a prime field, or when a coefficient generates
    the surface's field, as g does F49."""
    x = Hypersurface(parse_poly(poly, 4, field)).map_field(work)
    assert _frobenius_size(x.f) == q


def test_eckardt_points_without_frobenius(monkeypatch):
    """Over F7 itself, and over F49 with a coefficient g, no line is
    conjugated and every pair is met; a line over another field is
    refused wherever it stands in the list."""
    def refuse(line, e):
        raise AssertionError("conjugated without a Frobenius")
    x = Hypersurface(parse_poly("g*X0^3+X1^3+X2^3+X3^3", 4, F49))
    for surface in (fermat(F7), x):
        lines, work, ext = lines_on_cubic_surface(surface)
        assert (work, ext) == (surface.field, 1)
        monkeypatch.setattr(LineP3, "conjugate", refuse)
        assert eckardt_points(surface, lines).incident_pairs == 135
        monkeypatch.undo()
    lines, _, _ = lines_on_cubic_surface(clebsch(F7))
    mixed = lines[:-1] + [LineP3(F7, [[1, 0, 0, 0], [0, 1, 0, 0]])]
    with pytest.raises(FieldError):
        eckardt_points(clebsch(F49), mixed)


def test_tangent_hyperplane_field_op_count(monkeypatch):
    """Raw field operations of `tangent_hyperplane` at the 85 points of
    Clebsch over F7, the four partials built by the first call: 21 181,
    both with the cubic and its partials evaluated in Scalar arithmetic
    and on raw coordinates (the same products, powers and sums).  The
    bound pins that count."""
    x = clebsch(F7)
    points = list(surface_points(x))
    assert len(points) == 85
    count = count_field_ops(monkeypatch)
    planes = [tangent_hyperplane(x, pt) for pt in points]
    ops = count[0]
    assert all(plane.contains(pt) for plane, pt in zip(planes, points))
    assert ops <= 21_181


@pytest.mark.parametrize("k", [1, 2, 6], ids=["F7", "F49", "F7^6"])
def test_primitives_from_scalars_and_from_raw_agree(k):
    """Points, hyperplanes and lines built from Scalars and from raw
    values agree on equality, hashing, printing, JSON, sort key and field
    maps.  Over F49 and F_{7^6} the raw indices run past p, where an int
    read through `field.scalar` would land in the prime field.  For
    points and hyperplanes the oracle normalizes by raw ops."""
    F, T = make_field(7, k), make_field(7, 6)
    rng = random.Random(1600 + k)
    for _ in range(10):
        raw = [F.rzero] + [rng.randrange(1, F.size) for _ in range(3)]
        scalars = [Scalar(F, c) for c in raw]
        inv = F.rinv(raw[1])
        unit = [F.rmul(c, inv) for c in raw]
        for cls in (ProjPoint, Hyperplane):
            a, b = cls(F, scalars), cls.from_raw(F, raw)
            assert a == b and hash(a) == hash(b) and str(a) == str(b)
            assert a.to_json() == b.to_json() == [F.rstr(c) for c in unit]
            assert a.sort_key() == b.sort_key() == tuple(
                F.lex_key(c) for c in unit)
            assert a.map_field(T) == b.map_field(T) == cls(
                T, [T.from_raw(embed(F, c, T)) for c in unit])
        rows = [[rng.randrange(F.size) for _ in range(4)] for _ in range(2)]
        try:
            a = LineP3(F, [[Scalar(F, c) for c in r] for r in rows])
        except ValueError:
            continue  # dependent rows span no line
        b = LineP3.from_raw(F, rows)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert a.to_json() == b.to_json() and a.sort_key() == b.sort_key()
        assert a.map_field(T) == b.map_field(T) == LineP3(
            T, [[embed_scalar(Scalar(F, c), T) for c in r] for r in a.rows])
        assert a.plucker == b.plucker


def test_completion_matrix_matches_greedy_rank_rule():
    """The closed-form completion (unit vectors, skipping the last nonzero
    coordinate) is the matrix of the greedy rule, which appends e_0, e_1,
    e_2 in turn whenever the rank grows, on every nonzero vector of F2^3,
    F3^3 and F4^3."""
    def greedy(field, v):
        cols = [list(v)]
        for j in range(3):
            unit = [field.rone if i == j else field.rzero for i in range(3)]
            if len(cols) < 3 and \
                    linalg.rank(field, cols + [unit]) == len(cols) + 1:
                cols.append(unit)
        return [[cols[j][i] for j in range(3)] for i in range(3)]
    for field in (F2, F3, F4):
        for raw in itertools.product(list(field.elements()), repeat=3):
            if any(raw):
                assert _completion_matrix(field, raw) == greedy(field, raw)


def _meets_by_kernel(a, b):
    """Intersection of two distinct lines from the kernel of their four
    stacked raw rows alone, None when skew."""
    F = a.field
    ker = linalg.kernel(F, [list(col) for col in zip(*a.rows, *b.rows)], 4)
    if not ker:
        return None
    u, v = ker[0][0], ker[0][1]
    return ProjPoint.from_raw(F, [F.radd(F.rmul(u, x), F.rmul(v, y))
                                  for x, y in zip(*a.rows)])


def test_meets_matches_kernel_on_27_lines():
    """The Plücker test keeps every answer of the kernel-only rule on all
    351 pairs of the 27 lines of the F7 Fermat surface (lines over F7)
    and of Clebsch (lines over F49); 135 pairs meet on each."""
    for x, ext in ((fermat(F7), 1), (clebsch(F7), 2)):
        lines, work, _ = lines_on_cubic_surface(x)
        assert work is make_field(7, ext)
        met = 0
        for a, b in itertools.combinations(lines, 2):
            pt = meet(a, b)
            assert pt == _meets_by_kernel(a, b)
            met += pt is not None
        assert met == 135


def _random_point(field, rng):
    while True:
        v = [rng.randrange(field.size) for _ in range(4)]
        if any(v):
            return v


def test_meets_random_pairs():
    """Random skew, meeting and coincident pairs of lines over F2, F4,
    F16, F3, F5, F7, F25 and F49: skew pairs give None, meeting pairs the
    kernel's point, which lies on both lines, and coincident lines raise
    IntegrityError."""
    rng = random.Random(12)
    for field in (F2, F4, make_field(2, 4), F3, F5, F7, make_field(5, 2),
                  make_field(7, 2)):
        kinds = {"skew": 0, "meet": 0}
        for _ in range(130):
            p, q, r, s = (_random_point(field, rng) for _ in range(4))
            try:
                a = LineP3.from_raw(field, [p, q])
                b = LineP3.from_raw(field, [r, s])
                c = LineP3.from_raw(field, [p, r])
            except ValueError:
                continue  # dependent points span no line
            for one, other in ((a, b), (a, c)):
                if one == other:
                    continue
                pt = meet(one, other)
                assert pt == _meets_by_kernel(one, other)
                assert pt == meet(other, one)
                if pt is not None:
                    for line in (one, other):
                        assert LineP3.from_raw(
                            field, [*line.rows, pt.coords]) == line
                kinds["skew" if pt is None else "meet"] += 1
            m = [[rng.randrange(field.size) for _ in range(2)]
                 for _ in range(2)]
            rmul, radd = field.rmul, field.radd
            if rmul(m[0][0], m[1][1]) != rmul(m[0][1], m[1][0]):
                same = LineP3.from_raw(field, [
                    [radd(rmul(m[i][0], u), rmul(m[i][1], v))
                     for u, v in zip(p, q)] for i in range(2)])
                assert same == a
                with pytest.raises(IntegrityError, match="coincident"):
                    meet(a, same)
                kinds["same"] = kinds.get("same", 0) + 1
        assert min(kinds.values()) >= 5, kinds


def test_eckardt_char2_fermat_all_triple():
    x = fermat(F2)
    lines, work, _ = lines_on_cubic_surface(x)
    rep = eckardt_points(x.map_field(work), lines)
    assert len(rep.two_line) == 0
    assert 3 * len(rep.eckardt) == rep.incident_pairs == 135


def test_scan_reports_each_point_once_across_levels():
    cone = Hypersurface(parse_poly("X0^3+X1^3+X2^3", 4, F7))
    pts = singular_points_scan(cone, 2)
    # the vertex is the only singular point; found at level 1, not
    # re-reported by the level-2 scan
    assert len(pts) == 1
    point, level = pts[0]
    assert level == 1 and point == ProjPoint(F7, [0, 0, 0, 1])


def test_hyperplane_section_chart_in_p4():
    x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3+X4^3", 5, F7))
    plane = Hyperplane(F7, [1, 1, 0, 2, 0])
    section = hyperplane_section(x, plane)
    assert section.nvars == 4 and section.total_degree == 3
    pt = plane.to_ambient(ProjPoint(F7, [1, 3, 0, 2]))
    assert plane.contains(pt)
    assert plane.to_plane(pt) == ProjPoint(F7, [1, 3, 0, 2])


@pytest.mark.parametrize("field", [F2, F7, F4, make_field(3, 2)],
                         ids=["F2", "F7", "F4", "F9"])
def test_to_ambient_is_the_chart_product(field):
    """`Hyperplane.to_ambient` builds no chart: on seeded hyperplanes of
    P^2, P^3 and P^4, every pivot among them, it gives the point M.y for
    M = `chart()` at seeded points y, and `to_plane` undoes it."""
    rng = random.Random(2500 + field.size)
    pivots = set()
    for n in (2, 3, 4):
        for _ in range(12):
            coeffs = [rng.randrange(field.size) for _ in range(n + 1)]
            coeffs[rng.randrange(n + 1)] = 0
            if not any(coeffs):
                continue
            plane = Hyperplane.from_raw(field, coeffs)
            pivots.add((n, plane.pivot))
            y = [rng.randrange(field.size) for _ in range(n)]
            if not any(y):
                continue
            pt = ProjPoint.from_raw(field, y)
            by_chart = ProjPoint.from_raw(field, [
                functools.reduce(field.radd, map(field.rmul, row, pt.coords))
                for row in plane.chart()])
            assert plane.to_ambient(pt) == by_chart
            assert plane.contains(by_chart)
            assert plane.to_plane(by_chart) == pt
    assert len(pivots) >= 6


@pytest.mark.parametrize("field", [F2, F3, F5, F7, F4, make_field(3, 2)],
                         ids=["F2", "F3", "F5", "F7", "F4", "F9"])
def test_plane_line_chart_matches_kernel_and_inverse_oracles(field):
    """Exact division by a line of P^2 through the line's chart gives the
    quotient of the matrix-inverse route, and a trace on the line equal
    to the quotient composed with the kernel basis, for seeded forms of
    degree 1 to 3; the kernel basis decides which forms the line
    divides, and the division refuses the others.  The coordinate
    lines, whose charts have a zero row, are among the lines."""
    rng = random.Random(1400 + field.size)
    units = [[field.one if i == k else field.zero for i in range(3)]
             for k in range(3)]
    lines = [Hyperplane(field, u) for u in units]
    assert all(any(not any(row) for row in line.chart()) for line in lines)
    while len(lines) < 10:
        coeffs = [field.from_raw(rng.randrange(field.size))
                  for _ in range(3)]
        if any(coeffs):
            lines.append(Hyperplane(field, coeffs))
    divisible = undivisible = 0
    for line in lines:
        ell = MultiPoly.from_raw(field, 3, {
            tuple(int(i == k) for i in range(3)): c
            for k, c in enumerate(line.coeffs)})
        for degree in (1, 2, 3):
            f = random_form(field, 3, degree, rng)
            g = random_form(field, 3, degree - 1, rng)
            for h in (f, ell * g):
                if h.is_zero():
                    continue
                if restrict_by_kernel_basis(h, line).is_zero():
                    divisible += 1
                    quo, trace = divide_by_plane_line(h, line)
                    assert quo == divide_by_completion_inverse(h, line)
                    assert ell * quo == h
                    want = restrict_by_kernel_basis(quo, line)
                    assert (trace.degree, trace.coeffs) == (want.degree,
                                                            want.coeffs)
                else:
                    undivisible += 1
                    with pytest.raises(ValueError):
                        divide_by_plane_line(h, line)
                    with pytest.raises(ValueError):
                        divide_by_completion_inverse(h, line)
    assert divisible >= 20 and undivisible >= 20


def test_map_field_to_own_field_returns_the_object():
    """Mapping into the field an object already lives over returns that
    object, so a surface keeps its cached partials and smoothness; any
    other field gives a new object."""
    x = fermat(F7)
    assert is_smooth(x)
    partials = x.partials
    assert x.map_field(F7) is x and x.partials is partials
    line = lines_on_cubic_surface(x)[0][0]
    for obj in (ProjPoint(F7, [1, 2, 3, 4]), Hyperplane(F7, [0, 1, 2, 3]),
                line, line.param_forms()[0], x.f):
        assert obj.map_field(obj.field) is obj
    K = make_field(7, 4)
    xk = x.map_field(K)
    assert xk is not x and xk.f == x.f.map_field(K)
