"""Fault injection: each consistency guard of `eckardt_points` fires when
one meeting point of the 27 lines on Clebsch over F49 is corrupted, or
the list of lines is not permuted by x -> x^7, and
each guard of the nodal prenormalization fires when one of its producers
(the tangent directions, the tangent-cone frame) is.  The
guards of `classify_plane_cubic` fire when the Groebner strata report a
wrong set of singular points, and the guards of the nodal-section walk
when a tangent section, a conic's base point or completion, or the
nodal-frame screen is wrong.  A hyperplane section fires its guard on a
cubic that contains the hyperplane, and the line search fires its guard
when the scan counts a 28th line; the pencil of a line fires its guards
on a repeated tritangent plane, a double-line conic, a transversal
system of the wrong rank or pairing to zero with the line, and a
transversal built twice.  The splitting guards fire when a generator
of ker(beta) is dropped, and the sign-flip branch of `verify_xi_eta`
answers when the generator sections are negated.  A monad of rank 0 is
refused; the generator search refuses a doubled monomial multiple and
kernels short of a vector; the splitting is refused when h^0 is wrong
at one twist or only past the last checked one; and the builder refuses
a lifted curve that is not very free."""
import dataclasses
import itertools

import pytest

from veryfree import cli, constructions, hypersurface, linalg, poly, sheafp1
from veryfree.errors import IntegrityError, MonadError
from veryfree.fields import make_field
from veryfree.hypersurface import (NODAL_INTEGRAL, Hyperplane,
                                   Hypersurface, LineP3, ProjPoint,
                                   _nodal_frame, classify_plane_cubic,
                                   eckardt_points, hyperplane_section,
                                   lines_on_cubic_surface)
from veryfree.poly import BinaryForm, binary_roots, parse_poly

from helpers import cold_memos

F49 = make_field(7, 2)
CLEBSCH = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3",
                                  4, F49))


@pytest.fixture(scope="module")
def census():
    lines, _, _ = lines_on_cubic_surface(CLEBSCH)
    return lines, eckardt_points(CLEBSCH, lines)


def _patch_meet(monkeypatch, lines, pair, answer):
    """`hypersurface._meet`, the census's meet kernel, with the answer
    for the lines of one index pair replaced."""
    meet = hypersurface._meet
    frame, b = hypersurface._plucker_frame(lines[pair[0]]), lines[pair[1]]

    def patched(F, fr, other):
        if (fr, other) == (frame, b):
            return answer
        return meet(F, fr, other)
    monkeypatch.setattr(hypersurface, "_meet", patched)


def _own_orbit(lines, pairs):
    """The pairs that x -> x^7 maps onto themselves.  Such a pair is the
    only pair of its Frobenius orbit, so the census meets it, and a wrong
    answer there reaches no other pair."""
    sigma = hypersurface._frobenius_permutation(lines, 7)
    return [(i, j) for i, j in pairs if {sigma[i], sigma[j]} == {i, j}]


def test_census_is_consistent(census):
    _, rep = census
    assert rep.counts == {"eckardt": 10, "two_line": 105,
                          "incident_pairs": 135}


def test_lost_meeting_point_breaks_the_line_count(monkeypatch, census):
    lines, rep = census
    i, j = _own_orbit(lines, [ls for _, ls in rep.two_line])[0]
    _patch_meet(monkeypatch, lines, (i, j), None)
    with pytest.raises(IntegrityError, match=f"line {i} meets 9 others"):
        eckardt_points(CLEBSCH, lines)


def test_two_line_pair_sent_to_an_eckardt_point(monkeypatch, census):
    lines, rep = census
    pt, triple = rep.eckardt[0]
    pair = _own_orbit(lines, [ls for _, ls in rep.two_line
                              if not set(ls) & set(triple)])[0]
    _patch_meet(monkeypatch, lines, pair, pt)
    with pytest.raises(IntegrityError, match="5 concurrent lines at"):
        eckardt_points(CLEBSCH, lines)


def test_eckardt_pair_given_another_point(monkeypatch, census):
    """Two pairs of an Eckardt triple still put all three lines at the
    point, so the concurrency check passes; only the pair count shows
    that the third pair met elsewhere.  A meeting point normalised
    inconsistently would fail the same way.  x -> x^7 permutes the
    three lines of the rational point, so it fixes one of their pairs."""
    lines, rep = census
    _, triple = rep.eckardt[0]
    a, b = _own_orbit(lines, itertools.combinations(triple, 2))[0]
    elsewhere = ProjPoint(F49, [1, 2, 3, 4])
    assert all(elsewhere != p for p, _ in rep.eckardt + rep.two_line)
    _patch_meet(monkeypatch, lines, (a, b), elsewhere)
    with pytest.raises(IntegrityError, match="pair-count identity failed"):
        eckardt_points(CLEBSCH, lines)


def test_line_list_not_closed_under_frobenius(census):
    """A line over F49 swapped for the line X2 = X3 = 0, which is over F7
    and not on X: the conjugate of its partner under x -> x^7 is gone."""
    lines, _ = census
    k = next(k for k, line in enumerate(lines) if line.conjugate(7) != line)
    partner = lines.index(lines[k].conjugate(7))
    swapped = list(lines)
    swapped[k] = LineP3(F49, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not CLEBSCH.contains(ProjPoint(F49, [1, 1, 0, 0]))
    with pytest.raises(IntegrityError,
                       match=f"the Frobenius conjugate of line {partner} "
                             f"is not among the lines"):
        eckardt_points(CLEBSCH, swapped)


def test_repeated_line_is_coincident(census):
    """A line over F7 listed twice, in place of another line over F7: the
    list is still closed under x -> x^7, but x -> x^7 no longer permutes
    it, and the census stops at the repeated pair."""
    lines, _ = census
    fixed = [k for k, line in enumerate(lines) if line.conjugate(7) == line]
    repeated = list(lines)
    repeated[fixed[1]] = lines[fixed[0]]
    with pytest.raises(IntegrityError, match="coincident lines"):
        eckardt_points(CLEBSCH, repeated)


# -- the nodal prenormalization ----------------------------------------------

F7 = make_field(7)
NODAL = parse_poly("X0*X1*X2+2*X1^3+X2^3", 3, F7)
NODE = ProjPoint(F7, [1, 0, 0])


def _first_root_twice(q, max_ext):
    first = binary_roots(q, max_ext)[0]
    return [first, first]


def _one_double_root(q, max_ext):
    K, u, v, _ = binary_roots(q, max_ext)[0]
    return [(K, u, v, 2)]


def _second_root_moved(q, max_ext):
    """(1:1) in place of the second tangent direction, which is no root
    of q = X1 X2."""
    first, (K, _, _, mult) = binary_roots(q, max_ext)
    return [first, (K, 1, 1, mult)]


def _corner_dropped(cub, pt):
    """The tangent-cone frame with the X1^3 coefficient of c set to 0."""
    m, q, c = _nodal_frame(cub, pt)
    return m, q, BinaryForm.from_raw(c.field, 3, (0,) + c.coeffs[1:])


@pytest.mark.parametrize("name, fault, message", [
    ("binary_roots", _one_double_root,
     "nodal quadric without two distinct roots"),
    ("binary_roots", _first_root_twice,
     "tangent directions are not independent"),
    ("binary_roots", _second_root_moved,
     "unexpected shape after tangent normalization"),
    ("_nodal_frame", _corner_dropped,
     "unexpected shape after tangent normalization"),
], ids=["double-root", "repeated-direction", "moved-direction",
        "dropped-corner"])
def test_nodal_prenormalization_guard_fires(monkeypatch, name, fault,
                                            message):
    """Each fault, injected where `constructions` calls the producer,
    reaches its own guard."""
    monkeypatch.setattr(constructions, name, fault)
    with pytest.raises(IntegrityError, match=message):
        constructions._nodal_prenormalization(NODAL, NODE)


# -- the nodal-section walk -------------------------------------------------

FERMAT = "X0^3+X1^3+X2^3+X3^3"
PLANE_SECTION = constructions.plane_section
ZEROS = constructions._zeros
COMPLETION_MATRIX = constructions._completion_matrix


def _fermat_added(x, plane):
    """The tangent section plus the Fermat cubic, which no line divides
    in characteristic 7."""
    section = PLANE_SECTION(x, plane)
    return section + parse_poly("X0^3+X1^3+X2^3", 3, section.field)


def _base_point_moved(forms):
    """The conic's zeros with their last coordinate raised by one."""
    F = forms[0].field
    for pt, values in ZEROS(forms):
        yield pt[:-1] + (F.radd(pt[-1], F.rone),), values


def _completion_repeated(field, first_column):
    """The completion with its third column equal to its second."""
    return [(b, u, u) for b, u, _ in COMPLETION_MATRIX(field, first_column)]


@pytest.mark.parametrize("name, fault, message", [
    ("plane_section", _fermat_added,
     "tangent section at a point of a line does not contain the line"),
    ("_zeros", _base_point_moved, "conic parametrization failed"),
    ("_completion_matrix", _completion_repeated,
     "conic parametrization has a base point"),
    ("_integral_tag", lambda q, c: NODAL_INTEGRAL,
     "classification disagrees with the nodal-frame screen"),
], ids=["section-off-the-line", "base-point-off-the-conic",
        "repeated-completion-column", "screen-passes-all"])
def test_nodal_section_walk_guard_fires(monkeypatch, capsys, name, fault,
                                        message):
    """On Fermat over F7, each fault reaches its own guard in the walk
    and makes `construct` exit 1.  A base point off the conic puts the
    parametrization off it; a repeated direction in the completion keeps
    it on the conic, through a square common factor of the components;
    a screen that passes every point sends a section that is not nodal
    at it to the classification."""
    monkeypatch.setattr(constructions, name, fault)
    with pytest.raises(IntegrityError, match=message):
        constructions.find_nodal_section(Hypersurface(parse_poly(FERMAT, 4,
                                                                 F7)))
    assert cli.main(["construct", "--field", "7", "--surface", FERMAT]) == 1
    assert f"verification failed: {message}" in capsys.readouterr().err


# -- plane-cubic classification ---------------------------------------------

SMOOTH = parse_poly("X0^3+X1^3+X2^3", 3, F7)
TRIANGLE = parse_poly("X0*X1*X2", 3, F7)
VERTICES = [(ProjPoint(F7, v), 1) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
AFFINE_ZEROS = hypersurface._affine_zeros


def _origin_added(field, gens, nvars, ext_cap):
    """The zeros of the first stratum with its origin (1:0:0) added."""
    zeros = AFFINE_ZEROS(field, gens, nvars, ext_cap)
    return zeros + [(field, (field.rzero,) * 2)] if nvars == 2 else zeros


def test_stratum_zero_that_is_not_singular(monkeypatch):
    monkeypatch.setattr(hypersurface, "_affine_zeros", _origin_added)
    with pytest.raises(IntegrityError, match="solves the stratum system but "
                                             "is not a singular point"):
        classify_plane_cubic(SMOOTH)


@pytest.mark.parametrize("cub, points, message", [
    (TRIANGLE, VERTICES[:1], "is the only singular point, but its tangent "
                             "cone shows several"),
    (TRIANGLE, VERTICES + VERTICES[:1], "cubic with 4 singular points"),
    (NODAL, [(NODE, 1)] * 2, "is one of 2 singular points, but its tangent "
                             "cone gives NodalIntegral"),
    (SMOOTH, None, "infinite singular locus on a reduced cubic"),
    (TRIANGLE, None, "infinite singular locus on a reduced cubic"),
], ids=["one-vertex-of-a-triangle", "four-points", "node-twice",
        "smooth-as-nonreduced", "triangle-as-nonreduced"])
def test_classification_guard_fires(monkeypatch, cub, points, message):
    """Each wrong answer of the Groebner strata reaches its own guard: one
    vertex of a triangle, where the table gives None; a fourth point; the
    node of a nodal cubic twice, where the table gives its class; and an
    infinite locus for a reduced cubic, whose line X2 = 0 holds no
    singular point (smooth) or one where the table gives None
    (triangle)."""
    monkeypatch.setattr(hypersurface, "_ternary_singular_points",
                        lambda *args: points)
    with pytest.raises(IntegrityError, match=message):
        classify_plane_cubic(cub)


# -- sections and lines of surfaces -----------------------------------------


def test_section_by_a_contained_hyperplane():
    """X0 (X1^2 + X2^2 + X3^2) contains the plane X0 = 0."""
    x = Hypersurface(parse_poly("X0*(X1^2+X2^2+X3^2)", 4, F7))
    with pytest.raises(IntegrityError, match="hypersurface contains the "
                                             "hyperplane"):
        hyperplane_section(x, Hyperplane(F7, [1, 0, 0, 0]))


LINES_IN_CELLS = hypersurface._lines_in_cells
FERMAT_F4 = Hypersurface(parse_poly(FERMAT, 4, make_field(2, 2)))


def _line_added(forms, q):
    """The lines of the cells plus X0 = X1 = 0, which is not on the
    Fermat surface: X2^3 + X3^3 does not vanish on it."""
    K = forms[0].field
    extra = LineP3(K, [[0, 0, 1, 0], [0, 0, 0, 1]])
    lines = list(LINES_IN_CELLS(forms, q))
    assert extra not in lines
    yield from lines + [extra]


def test_twenty_eight_lines(monkeypatch):
    """The 27 lines of Fermat over F4 and one more, counted by the scan
    on the error path, where the pencil leaves the level incomplete: the
    count shows the surface cannot be smooth."""
    monkeypatch.setattr(hypersurface, "_lines_in_cells", _line_added)
    monkeypatch.setattr(hypersurface, "_pencil_lines",
                        lambda f, line, top: None)
    with pytest.raises(IntegrityError, match="28 lines found; the surface "
                                             "cannot be smooth"):
        lines_on_cubic_surface(FERMAT_F4, 1)


def test_repeated_tritangent_plane(monkeypatch):
    """Each root of the pencil's quintic read as a double root."""
    roots = poly.find_roots
    monkeypatch.setattr(poly, "find_roots", lambda f, max_ext: [
        dataclasses.replace(r, multiplicity=2) for r in roots(f, max_ext)])
    with pytest.raises(IntegrityError, match="repeated tritangent plane "
                                             "through a line"):
        lines_on_cubic_surface(FERMAT_F4)


def test_double_line_conic(monkeypatch):
    """A residual conic that meets a coordinate line in one double point,
    as a double line does: the first root of each binary quadric kept,
    read as a double root."""
    roots = hypersurface.binary_roots

    def one_double_root(f, max_ext):
        found = roots(f, max_ext)
        return [r[:3] + (2,) for r in found[:1]] if f.degree == 2 else found
    monkeypatch.setattr(hypersurface, "binary_roots", one_double_root)
    with pytest.raises(IntegrityError, match="double-line conic in a "
                                             "tritangent plane"):
        lines_on_cubic_surface(FERMAT_F4)


def test_transversal_kernel_of_dimension_five(monkeypatch):
    """Each pick of the transversal system read as L: its four rows
    coincide."""
    frame, seen = hypersurface._plucker_frame, []

    def frame_of_l(line):
        seen.append(line)
        return frame(seen[0])
    monkeypatch.setattr(hypersurface, "_plucker_frame", frame_of_l)
    with pytest.raises(IntegrityError, match="transversal kernel of "
                                             "dimension 5, not 2"):
        lines_on_cubic_surface(FERMAT_F4)


def test_transversals_pair_to_zero_with_l(monkeypatch):
    """L's dual Plücker vector, the first one built, read as zero, so
    <p_L, k> = 0 for every k in the kernel."""
    frame, seen = hypersurface._plucker_frame, []

    def zero_dual_for_l(line):
        seen.append(line)
        dual, planes = frame(line)
        return (dual if len(seen) > 1 else (FERMAT_F4.field.rzero,) * 6,
                planes)
    monkeypatch.setattr(hypersurface, "_plucker_frame", zero_dual_for_l)
    with pytest.raises(IntegrityError, match="the transversals of four "
                                             "skew lines pair to zero with "
                                             "L"):
        lines_on_cubic_surface(FERMAT_F4)


def test_transversals_repeat_a_line(monkeypatch):
    """Every transversal built as the first one, as when Vieta's second
    root is read as a fixed point."""
    from_plucker, built = LineP3.from_plucker.__func__, []

    def first_transversal(cls, field, p):
        built.append(from_plucker(cls, field, p))
        return built[0]
    monkeypatch.setattr(LineP3, "from_plucker",
                        classmethod(first_transversal))
    with pytest.raises(IntegrityError, match="fewer than 27 distinct lines "
                                             "from one pencil and its "
                                             "transversals"):
        lines_on_cubic_surface(FERMAT_F4)


# -- the splitting of the pulled-back tangent bundle ------------------------


def _nodal_monad():
    nf = constructions.nodal_surface_form(F7)
    return constructions.pullback_tangent(
        constructions.normal_form_surface(nf),
        constructions.curve_in_surface_coordinates(nf))


@pytest.mark.parametrize("drop, message", [
    (0, r"alpha is not in the span of the generators of ker\(beta\)"),
    (2, r"splitting \{2\} does not match rank 2, degree 3"),
])
def test_dropped_generator_of_ker_beta(monkeypatch, drop, message):
    """K = ker(beta) has three generators in degree -1 on the F7 nodal
    monad.  Without the first, alpha leaves their span and `express`
    finds no coordinates; without the third, alpha still lies in the
    span and the splitting comes out of rank 1."""
    free_generators = sheafp1._free_generators
    calls = []

    def dropping(*args):
        gens = free_generators(*args)
        calls.append(len(gens))
        if len(calls) == 1:           # the pass on beta
            del gens[drop]
        return gens
    monad = _nodal_monad()
    cold_memos(monkeypatch)
    monkeypatch.setattr(sheafp1, "_free_generators", dropping)
    with pytest.raises(IntegrityError, match=message):
        sheafp1.splitting_type(monad)
    assert calls[0] == 3


GENERATOR_SECTIONS = constructions._generator_sections


def _negated_generator_sections(field):
    return [constructions.LaurentSection(tuple(-c for c in s.components))
            for s in GENERATOR_SECTIONS(field)]


def test_negated_generators_flag_the_sign_flip(monkeypatch):
    monkeypatch.setattr(constructions, "_generator_sections",
                        _negated_generator_sections)
    report = constructions.verify_xi_eta(constructions.nodal_surface_form(F7))
    check = report.checks[-1]
    assert check.name == "UV eta - U^3 xi + V^3 xi spans the degree-2 summand"
    assert check.passed and check.witness == "sign -"
    assert check.flagged == "generator matches only after global sign flip (-)"


def test_monad_with_no_middle_cohomology():
    """O -> O(1)^2 -> O(2) by (U, V) and (V, -U) is a valid monad whose
    middle cohomology has rank 0."""
    u, v = BinaryForm(F7, 1, [1, 0]), BinaryForm(F7, 1, [0, 1])
    monad = sheafp1.MonadP1(F7, 0, (1, 1), 2, (u, v), (v, -u))
    assert sheafp1.validate_monad(monad).ok
    with pytest.raises(MonadError, match="monad has middle cohomology of "
                                         "rank <= 0"):
        sheafp1.splitting_type(monad)


def test_dependent_monomial_multiples(monkeypatch):
    """A generator's monomial multiple listed twice is a dependent
    column, which the generator search refuses."""
    multiples = sheafp1._multiples

    def doubled(field, gens, src, t):
        cols = multiples(field, gens, src, t)
        return cols + cols[:1]
    monkeypatch.setattr(sheafp1, "_multiples", doubled)
    with pytest.raises(IntegrityError, match="monomial multiples of the "
                                             "generators are dependent in "
                                             "degree"):
        sheafp1.splitting_type(_nodal_monad())


class _KernelDropping:
    """`linalg` with the last vector of every kernel basis dropped."""

    def __getattr__(self, name):
        return getattr(linalg, name)

    @staticmethod
    def kernel(field, rows, ncols):
        return linalg.kernel(field, rows, ncols)[:-1]


def test_kernel_vector_dropped(monkeypatch):
    """Without the last kernel vector in each degree, the search for the
    generators of ker(beta) finds two in degree -1 and one in degree 0,
    whose degrees do not add up to ker(beta)'s."""
    monkeypatch.setattr(sheafp1, "linalg", _KernelDropping())
    with pytest.raises(IntegrityError, match=r"generators in degrees "
                                             r"\[-1, -1, 0\] do not span a "
                                             r"kernel of rank 3 and degree 3"):
        sheafp1.splitting_type(_nodal_monad())


def _h0_off_by_one(past):
    """`h0_twist` one too large at twist `past` + 1 and beyond, or only at
    the least twist the splitting is checked at when `past` is None."""
    h0_twist = sheafp1.h0_twist

    def wrong(m, twist):
        off = twist == -4 if past is None else twist > past
        return h0_twist(m, twist) + off
    return wrong


@pytest.mark.parametrize("past, message", [
    (None, r"h\^0 reconstruction failed at twist -4: 1 != 0"),
    (0, "Riemann-Roch failed at twist 1"),
], ids=["one-twist", "past-hi"])
def test_h0_twist_wrong(monkeypatch, past, message):
    """On the F7 nodal monad, splitting {2, 1}, h^0 is checked against
    the splitting at twists -4 to 0 and Riemann-Roch at twists 1 to 5; a
    wrong h^0 past twist 0 passes the first check and fails the second."""
    monkeypatch.setattr(sheafp1, "h0_twist", _h0_off_by_one(past))
    with pytest.raises(IntegrityError, match=message):
        sheafp1.splitting_type(_nodal_monad())


SPLITTING_TYPE = constructions.splitting_type


def _last_part_zero_in_p4(m):
    """The splitting with its least part set to 0 on a pulled-back
    tangent bundle of rank 3 (a curve in P^4)."""
    s = SPLITTING_TYPE(m)
    return sheafp1.SplittingType(s.parts[:-1] + (0,)) if s.rank == 3 else s


def test_lifted_curve_not_very_free(monkeypatch, capsys):
    """A lifted curve on the Fermat threefold over F7 whose splitting
    comes out {3, 2, 0} is refused, and `build --dim 4` exits 1."""
    monkeypatch.setattr(constructions, "splitting_type",
                        _last_part_zero_in_p4)
    fermat = FERMAT + "+X4^3"
    message = r"lifted curve has splitting \{3, 2, 0\}"
    with pytest.raises(IntegrityError, match=message):
        constructions.build_very_free_curve(Hypersurface(parse_poly(
            fermat, 5, F7)))
    assert cli.main(["build", "--field", "7", "--dim", "4",
                     "--poly", fermat]) == 1
    err = capsys.readouterr().err
    assert "verification failed: lifted curve has splitting {3, 2, 0}" in err
