"""Acceptance criteria, one test per criterion, all equalities exact.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline).  Stated runtime limits are asserted as hard bounds.
"""
import contextlib
import random
import time

import pytest

from veryfree.hypersurface import (Hypersurface, ProjPoint,
                                   NODAL_INTEGRAL, eckardt_points,
                                   is_smooth, lines_on_cubic_surface,
                                   singular_points_scan)
from veryfree.poly import (BinaryForm, compose_with_curve,
                           linear_substitute, parse_poly)
from veryfree.sheafp1 import (MonadP1, h0_twist, is_very_free_splitting,
                              quotient_graded_dim, splitting_type)
from veryfree.constructions import (AllEckardtError, build_very_free_curve,
                                    curve_in_surface_coordinates,
                                    fermat_char2_curve, fermat_char2_report,
                                    find_nodal_section, make_curve,
                                    nodal_section_curve, nodal_surface_form,
                                    normal_form_surface, pullback_tangent,
                                    sample_admissible_completion,
                                    six_point_diagonal, verify_cuspidal_delta,
                                    verify_xi_eta)

from helpers import (F2, F3, F5, F7, F11, F4, QQ, random_cubic_form,
                     random_form, random_invertible,
                     F5_SURFACE_SEEDS, F7_SURFACE_SEEDS)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def _xi_eta_runs(field, n_samples=5, seed=101):
    rng = random.Random(seed)
    out = []
    for _ in range(n_samples):
        quadric, linear, a = sample_admissible_completion(field, rng)
        out.append(verify_xi_eta(nodal_surface_form(field, quadric,
                                                    linear, a)))
    return out


_XI_FIELDS = (F7, F5, QQ, F2)
_XI_CACHE = {}


def _runs(field):
    if field not in _XI_CACHE:
        t0 = time.monotonic()
        _XI_CACHE[field] = (_xi_eta_runs(field), time.monotonic() - t0)
    return _XI_CACHE[field]


def _check(rep, name):
    return next(c for c in rep.checks if c.name.startswith(name))


def test_criterion_01_xi_f():
    with criterion(1, "xi . f = -U^2 V^2 over F7, F5, Q, F2 for 5 random "
                      "admissible completions each, < 1 s per field"):
        for field in _XI_FIELDS:
            runs, elapsed = _runs(field)
            assert len(runs) == 5
            for rep in runs:
                assert _check(rep, "xi . f").passed
            assert elapsed < 1.0, f"{field!r}: {elapsed:.2f}s"


def test_criterion_02_eta_f_support_and_signs():
    with criterion(2, "eta . f supported on U^4 V, U V^4 with unit "
                      "coefficients; sign deviations flagged, not failed"):
        for field in _XI_FIELDS:
            runs, _ = _runs(field)
            for rep in runs:
                chk = _check(rep, "eta . f")
                assert chk.passed
                assert "signs" in (chk.witness or "")
                if field.p not in (0, 2):
                    pass  # deviation is recorded via the flag when present
        deviations = [c.flagged for field in _XI_FIELDS
                      for rep in _runs(field)[0] for c in rep.checks
                      if c.flagged and "sign deviation" in c.flagged]
        assert deviations, "expected the recorded sign finding"


def test_criterion_03_d3_pullback():
    with criterion(3, "d3 f (h) = Q(-U^3-V^3, U^2 V, U V^2) in the same "
                      "runs"):
        for field in _XI_FIELDS:
            runs, _ = _runs(field)
            for rep in runs:
                assert _check(rep, "d f / d X3").passed


def test_criterion_04_nodal_splitting():
    with criterion(4, "sections of the (-3) twist vanish and splitting "
                      "{2,1} (very free) over F7, F5, Q, < 5 s each"):
        for field in (F7, F5, QQ):
            t0 = time.monotonic()
            nf = nodal_surface_form(field)
            x = normal_form_surface(nf)
            curve = curve_in_surface_coordinates(nf)
            monad = pullback_tangent(x, curve)
            assert quotient_graded_dim(monad, -3) == 0
            s = splitting_type(monad)
            assert s.parts == (2, 1) and is_very_free_splitting(s)
            assert time.monotonic() - t0 < 5.0


def test_criterion_05_cuspidal_splitting():
    with criterion(5, "cuspidal splitting {3,0} (not very free) over F7 "
                      "and Q with c = X1^3, and over F3 with alpha = 1, 2"):
        for field, alpha in ((F7, 0), (QQ, 0), (F3, 1), (F3, 2)):
            rep = verify_cuspidal_delta(field, alpha)
            assert _check(rep, "splitting type is {3, 0}").passed
            assert _check(rep, "curve is not very free").passed
            assert rep.passed


def test_criterion_06_char2_fermat_curve():
    with criterion(6, "char-2 Fermat explicit curve: f(h) = 0 and "
                      "splitting {2,1} over F2"):
        x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2))
        comps = fermat_char2_curve(F2)
        assert compose_with_curve(x.f, comps).is_zero()
        curve = make_curve(x, comps)
        assert curve.splitting.parts == (2, 1) and curve.very_free


def test_criterion_07_fermat_trichotomy():
    with criterion(7, "char-2 Fermat tangent sections over F4 and F16 all "
                      "classify inside the trichotomy, < 2 min at F16"):
        rep4 = fermat_char2_report(2)
        assert rep4.trichotomy_holds and not rep4.exceptions
        t0 = time.monotonic()
        rep16 = fermat_char2_report(4)
        elapsed = time.monotonic() - t0
        assert rep16.trichotomy_holds and not rep16.exceptions
        assert rep16.n_points == 369
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_08_line_census():
    with criterion(8, "27 lines on the F7 Fermat (rational over F7) and "
                      "on 3 seeded smooth cubics over F5; 10 meets per "
                      "line and the pair-count identity, all exact"):
        fermat = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F7))
        lines, work, ext = lines_on_cubic_surface(fermat)
        assert len(lines) == 27 and ext == 1 and work is F7
        rep = eckardt_points(fermat, lines)
        assert rep.incident_pairs == 3 * len(rep.eckardt) + len(rep.two_line)
        for seed in F5_SURFACE_SEEDS:
            x = Hypersurface(random_cubic_form(F5, 4, seed))
            assert is_smooth(x)
            lines5, work5, ext5 = lines_on_cubic_surface(x)
            assert len(lines5) == 27
            rep5 = eckardt_points(x.map_field(work5), lines5)
            assert rep5.incident_pairs == (3 * len(rep5.eckardt)
                                           + len(rep5.two_line))


def test_criterion_09_eckardt_censuses():
    with criterion(9, "Clebsch over F7 has the 10 permutation Eckardt "
                      "points; char-2 Fermat census computed exhaustively "
                      "and compared against the stated 35"):
        import itertools
        clebsch = Hypersurface(parse_poly(
            "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3", 4, F7))
        lines, work, _ = lines_on_cubic_surface(clebsch)
        rep = eckardt_points(clebsch.map_field(work), lines)
        expected = set()
        for i, j in itertools.combinations(range(5), 2):
            v = [F7.zero] * 5
            v[i], v[j] = F7.one, F7.scalar(-1)
            expected.add(ProjPoint(F7, v[:4]).map_field(work))
        found = {p for p, _ in rep.eckardt}
        assert expected <= found and len(rep.eckardt) == 10

        repf = fermat_char2_report(2)
        # the computation is authoritative; the mismatch with the stated
        # count is a recorded finding, witnessed by the pair identity
        assert 3 * repf.eckardt_count == repf.incident_pairs == 135
        assert repf.two_line_count == 0
        assert not repf.matches_reference_count
        print(f"  [NOTE] char-2 Fermat Eckardt census: computed "
              f"{repf.eckardt_count}, stated 35 "
              f"(pair identity 135 = 3 x {repf.eckardt_count})")


def test_criterion_10_pipeline():
    with criterion(10, "two-line-point pipeline succeeds on 5 seeded "
                       "smooth cubics over F7 and on Clebsch (< 1 min "
                       "each); char-2 Fermat fails with the all-Eckardt "
                       "diagnosis"):
        surfaces = [Hypersurface(random_cubic_form(F7, 4, s))
                    for s in F7_SURFACE_SEEDS]
        surfaces.append(Hypersurface(parse_poly(
            "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3", 4, F7)))
        assert len(surfaces) >= 6
        for x in surfaces:
            t0 = time.monotonic()
            res = find_nodal_section(x)
            assert res.classification.tag == NODAL_INTEGRAL
            curve = nodal_section_curve(res)
            assert curve.very_free and curve.splitting.parts == (2, 1)
            elapsed = time.monotonic() - t0
            assert elapsed < 60.0, f"{elapsed:.1f}s"
        fermat2 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2))
        with pytest.raises(AllEckardtError) as exc:
            find_nodal_section(fermat2)
        assert "all intersection points are Eckardt" in str(exc.value)


def test_criterion_11_six_points():
    with criterion(11, "diagonal points (1:0:0), (1:1:2), (0:1:0); valid "
                       "point with certificate for 10 seeded sextuples "
                       "over F11; forced char-2 configuration has none"):
        std = [ProjPoint(F11, [0, 0, 1]), ProjPoint(F11, [1, 0, 1]),
               ProjPoint(F11, [1, 1, 1]), ProjPoint(F11, [0, 1, 1]),
               ProjPoint(F11, [2, 6, 1]), ProjPoint(F11, [6, 3, 1])]
        res = six_point_diagonal(std)
        assert set(res.diagonal_points) == {
            ProjPoint(F11, [1, 0, 0]), ProjPoint(F11, [1, 1, 2]),
            ProjPoint(F11, [0, 1, 0])}
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
                r = six_point_diagonal(pts)
            except ValueError:
                continue
            found += 1
            assert r.q is not None and r.certificate.passed
        z = F4.gen
        z2 = F4.from_raw(F4.rmul(z.raw, z.raw))
        forced = [ProjPoint(F4, [F4.zero, F4.zero, F4.one]),
                  ProjPoint(F4, [F4.one, F4.zero, F4.one]),
                  ProjPoint(F4, [F4.one, F4.one, F4.one]),
                  ProjPoint(F4, [F4.zero, F4.one, F4.one]),
                  ProjPoint(F4, [F4.one, z, F4.zero]),
                  ProjPoint(F4, [F4.one, z2, F4.zero])]
        assert six_point_diagonal(forced).q is None


def test_criterion_12_threefold_builder():
    with criterion(12, "builder returns a plane curve with splitting "
                       "{3,2,1} on a smooth cubic threefold in P4 over "
                       "F7, hyperplane smoothness certified, < 2 min"):
        t0 = time.monotonic()
        x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3+X4^3", 5, F7))
        assert is_smooth(x)
        curve = build_very_free_curve(x)
        assert curve.splitting.parts == (3, 2, 1)
        assert sum(curve.splitting.parts) == 6
        assert min(curve.splitting.parts) >= 1 and curve.very_free
        assert compose_with_curve(curve.surface.f,
                                  list(curve.components)).is_zero()
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_13_property_suites():
    with criterion(13, "invariance under PGL2/PGL4 (20 seeded trials), "
                       "Riemann-Roch at 5 extra twists, direct-sum monad "
                       "oracle on 20 pairs, smoothness test vs scan on 30 "
                       "random cubics, all exact"):
        rng = random.Random(13)
        nf = nodal_surface_form(F7)
        x = normal_form_surface(nf)
        curve = curve_in_surface_coordinates(nf)
        base = splitting_type(pullback_tangent(x, curve)).parts

        for _ in range(10):  # PGL_2 reparametrizations
            (a, b), (c, d) = [[s.raw for s in row]
                              for row in random_invertible(F7, 2, rng)]
            h2 = [comp.reparametrize(a, b, c, d) for comp in curve]
            assert splitting_type(pullback_tangent(x, h2)).parts == base

        from veryfree import linalg
        for _ in range(10):  # PGL_4 coordinate changes of (X, h)
            m = random_invertible(F7, 4, rng)
            raw = [[s.raw for s in row] for row in m]
            inv = linalg.inverse(F7, raw)
            f2 = linear_substitute(x.f, m)
            h2 = []
            for i in range(4):
                acc = BinaryForm.zero(F7, 3)
                for j in range(4):
                    if inv[i][j]:
                        acc = acc + curve[j].scale(inv[i][j])
                h2.append(acc)
            x2 = Hypersurface(f2)
            assert splitting_type(pullback_tangent(x2, h2)).parts == base

        # Riemann-Roch at five twists beyond the recovery window
        monad = pullback_tangent(x, curve)
        s = splitting_type(monad)
        for twist in range(5, 10):
            assert (h0_twist(monad, twist) - s.h1(twist)
                    == s.degree + s.rank * (twist + 1))

        # direct-sum oracle
        for _ in range(20):
            d1, d2 = rng.randrange(-3, 6), rng.randrange(-3, 6)
            alpha = (BinaryForm.zero(F5, d1), BinaryForm.zero(F5, d2),
                     BinaryForm.monomial(F5, 0, 0), BinaryForm.zero(F5, 4))
            beta = (BinaryForm.zero(F5, 4 - d1), BinaryForm.zero(F5, 4 - d2),
                    BinaryForm.zero(F5, 4), BinaryForm.monomial(F5, 0, 0))
            m = MonadP1(F5, 0, (d1, d2, 0, 4), 4, alpha, beta)
            assert splitting_type(m).parts == tuple(sorted((d1, d2),
                                                           reverse=True))

        # stratum-ideal smoothness vs point scans
        singular_seen = 0
        for _ in range(30):
            f = random_form(F5, 4, 3, rng)
            if f.is_zero():
                continue
            witnesses = singular_points_scan(Hypersurface(f), 1)
            gb = is_smooth(Hypersurface(f))
            if witnesses:
                singular_seen += 1
                assert not gb
        assert singular_seen >= 1
