"""Command-line front end.

Every subcommand reads its cubic with `_parse_surface` and reports with
`_emit`, which builds the payload and prints it (JSON with --json) and
writes it to --out.  A failure is an exception, and `main` alone turns
it into an exit code: 0 = all checks passed (a computed "false" answer
is still a successful run); 1 = a mathematical verification failed, or
a cubic surface has no two-line point and no explicit curve; 2 = input
or usage error; 3 = a scan budget or extension cap was exhausted.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import __version__
from .errors import (ExtensionCapExceeded, FieldError, IntegrityError,
                     ParseError, ScanBudgetExceeded)
from .fields import make_field, parse_field_spec, format_field_spec
from .poly import (compose_with_curve, parse_binary_form, parse_poly,
                   scalar_from_string)
from .hypersurface import (Hyperplane, Hypersurface, ProjPoint,
                           eckardt_points, is_smooth,
                           lines_on_cubic_surface, plane_section,
                           tangent_hyperplane, DEFAULT_EXT_CAP,
                           DEFAULT_LINE_FIELD_CAP)
from .sheafp1 import is_very_free_splitting, splitting_type
from .constructions import (AllEckardtError, build_very_free_curve,
                            fermat_char2_curve, find_nodal_section,
                            make_curve, nodal_section_curve,
                            nodal_surface_form,
                            normal_form_surface, pullback_tangent,
                            sample_admissible_completion,
                            six_point_diagonal, standard_nodal_parametrization,
                            verify_cuspidal_delta, verify_xi_eta,
                            curve_in_surface_coordinates, fermat_char2_report,
                            VerificationReport)

USAGE_ERROR, MATH_FAIL, BUDGET_FAIL = 2, 1, 3


def _parse_surface(args, nvars):
    return Hypersurface(parse_poly(args.surface, nvars,
                                   parse_field_spec(args.field)))


def _parse_curve(text, field):
    parts = [p.strip() for p in text.split(";")]
    comps = [parse_binary_form(p, field) for p in parts]
    degs = {h.degree for h in comps if not h.is_zero()}
    if not degs:
        raise ParseError("every curve component is zero")
    if len(degs) != 1:
        raise ParseError(f"curve components have mixed degrees {sorted(degs)}")
    d = degs.pop()
    return [h.promote(d) if h.is_zero() else h for h in comps]


def _emit(args, field, checks, result, text_lines):
    """Print the report (JSON with --json, else text_lines) and write its
    JSON to --out when given."""
    payload = {"tool_version": __version__, "command": args.command,
               "field": field, "checks": checks, "result": result}
    blob = json.dumps(payload, indent=2, sort_keys=True)
    print(blob if args.json else "\n".join(text_lines))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")


# -- subcommands -----------------------------------------------------------


def cmd_splitting(args):
    x = _parse_surface(args, 4)
    curve = _parse_curve(args.curve, x.field)
    s = splitting_type(pullback_tangent(x, curve))
    result = {"splitting": s.to_json(),
              "very_free": is_very_free_splitting(s)}
    _emit(args, args.field, [], result,
          [f"splitting type: {s}", f"very free: {result['very_free']}"])
    return 0


def cmd_smooth(args):
    ans = is_smooth(_parse_surface(args, args.nvars))
    _emit(args, args.field, [], {"smooth": ans}, [f"smooth: {ans}"])
    return 0


def cmd_lines(args):
    x = _parse_surface(args, 4)
    lines, work, ext = lines_on_cubic_surface(
        x, ext_cap=args.ext_cap, field_cap=args.line_field_cap)
    result = {"count": len(lines), "extension_degree": ext,
              "field": format_field_spec(work),
              "lines": [l.to_json() for l in lines]}
    _emit(args, args.field, [], result,
          [f"{len(lines)} lines over {format_field_spec(work)} "
           f"(extension degree {ext})"]
          + [f"  {l.to_json()}" for l in lines])
    return 0


def cmd_eckardt(args):
    x = _parse_surface(args, 4)
    lines, work, ext = lines_on_cubic_surface(
        x, ext_cap=args.ext_cap, field_cap=args.line_field_cap)
    rep = eckardt_points(x.map_field(work), lines)
    result = rep.to_json()
    result["extension_degree"] = ext
    _emit(args, args.field, [], result,
          [f"Eckardt points: {len(rep.eckardt)}",
           f"two-line points: {len(rep.two_line)}",
           f"incident pairs: {rep.incident_pairs}"]
          + [f"  eckardt {p} on lines {list(ls)}" for p, ls in rep.eckardt])
    return 0


def cmd_construct(args):
    x = _parse_surface(args, 4)
    try:
        res = find_nodal_section(x, ext_cap=args.ext_cap,
                                 line_field_cap=args.line_field_cap)
    except AllEckardtError as e:
        _emit(args, args.field, [],
              {"found": False, "diagnosis": str(e),
               "eckardt_count": len(e.census.eckardt)},
              [f"no nodal section: {e}"])
        return MATH_FAIL
    _emit(args, args.field, [], res.to_json(),
          [f"nodal tangent section at {res.point}",
           f"plane {res.plane}",
           f"classification: {res.classification.tag} at "
           f"{res.classification.singular_point}",
           f"working extension degree: {res.work_ext}"])
    return 0


def cmd_build(args):
    curve = build_very_free_curve(_parse_surface(args, args.dim + 1),
                                  ext_cap=args.ext_cap,
                                  line_field_cap=args.line_field_cap)
    _emit(args, args.field, [], curve.to_json(),
          [f"curve components: "
           + "; ".join(str(h) for h in curve.components),
           f"splitting: {curve.splitting}",
           f"very free: {curve.very_free}"])
    return 0 if curve.very_free else MATH_FAIL


def cmd_fermat2(args):
    rep = fermat_char2_report(args.ext, ext_cap=args.ext_cap,
                              line_field_cap=args.line_field_cap)
    result = rep.to_json()
    _emit(args, f"2^{args.ext}", [], result,
          [f"points classified over F_{2**args.ext}: {rep.n_points}",
           f"class counts: {result['class_counts']}",
           f"trichotomy holds: {rep.trichotomy_holds}",
           f"Eckardt census: {rep.eckardt_count} "
           f"(reference value {result['reference_eckardt_count']}, "
           f"match: {rep.matches_reference_count})",
           f"two-line points: {rep.two_line_count}"])
    return 0 if rep.trichotomy_holds else MATH_FAIL


def cmd_sixpoints(args):
    field = parse_field_spec(args.field)
    pts = []
    for chunk in args.points.split(";"):
        coords = [scalar_from_string(c, field) for c in chunk.split(":")]
        if len(coords) != 3:
            raise ParseError(f"expected x:y:z, got {chunk!r}")
        pts.append(ProjPoint(field, coords))
    res = six_point_diagonal(pts)
    diagonal = "diagonal points: " + ", ".join(
        str(d) for d in res.diagonal_points)
    _emit(args, args.field, [], res.to_json(),
          [f"no valid point: {res.reason}", diagonal] if res.q is None
          else [f"point: {res.q}", diagonal, str(res.certificate)])
    return MATH_FAIL if res.q is None else 0


# -- the aggregated replay --------------------------------------------------


def run_verify_paper(seed, progress):
    """Every identity and census the source text states, replayed, with
    progress(check) called as each check is recorded.

    Returns (all_passed, checks, findings); findings are recorded
    deviations that do not count as failures.
    """
    rng = random.Random(seed)
    checks = []
    findings = []

    def note(name, anchor, passed, details=""):
        checks.append({"name": name, "paper_anchor": anchor,
                       "pass": bool(passed), "details": str(details)})
        progress(checks[-1])

    def note_report(rep: VerificationReport, anchor):
        for c in rep.checks:
            note(c.name, anchor, c.passed,
                 c.flagged or c.witness
                 or (f"{c.lhs} vs {c.rhs}" if not c.passed else ""))
        findings.extend(rep.flags)

    F7, F5, F3, F2 = (make_field(7), make_field(5), make_field(3),
                      make_field(2))
    QQ = make_field(0, 1)

    # explicit nodal-section identities, with random admissible (Q, L, A)
    for field in (QQ, F7, F5, F2):
        for trial in range(2):
            quadric, linear, a = sample_admissible_completion(field, rng)
            nf = nodal_surface_form(field, quadric, linear, a)
            rep = verify_xi_eta(nf)
            note_report(rep, "xi.f = -U^2 V^2; eta.f = -U^4 V - U V^4; "
                             "d3 f(h) = Q(-U^3-V^3, U^2 V, U V^2)")

    # nodal splitting and very-freeness
    for field in (F7, F5, QQ):
        nf = nodal_surface_form(field)
        x = normal_form_surface(nf)
        curve = curve_in_surface_coordinates(nf)
        s = splitting_type(pullback_tangent(x, curve))
        note(f"nodal section splitting over {field!r}",
             "d1 = 2 and d2 = 1", s.parts == (2, 1), str(s))
        note(f"nodal section very free over {field!r}",
             "H^1(P^1, (h*T_X)(-2)) = 0", is_very_free_splitting(s))

    # cuspidal splitting
    for field, alpha in ((F7, 0), (QQ, 0), (F3, 1), (F3, 2)):
        rep = verify_cuspidal_delta(field, alpha)
        note_report(rep, "h* T_X = O(3) + O; delta section")

    # characteristic-2 Fermat explicit curve
    fermat2 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F2))
    curve2 = make_curve(fermat2, fermat_char2_curve(F2))
    note("char-2 Fermat curve lies on the surface",
         "h: (U:V) -> (U^3+U^2 V : U^3+U^2 V+V^3 : U^2 V+V^3 : U V^2)",
         True)
    note("char-2 Fermat curve splitting",
         "h* T_X = O(2) + O(1)", curve2.splitting.parts == (2, 1),
         str(curve2.splitting))

    # tangent plane and section of the standard surface
    nf7 = nodal_surface_form(F7)
    x7 = normal_form_surface(nf7)
    pt = ProjPoint(F7, [1, 0, 0, 0])
    plane = tangent_hyperplane(x7, pt)
    note("tangent plane at (1:0:0:0) is X3 = 0",
         "X3 = 0 est l'equation du plan",
         plane == Hyperplane(F7, [0, 0, 0, 1]), str(plane))
    section = plane_section(x7, plane)
    note("tangent section is X0 X1 X2 + X1^3 + X2^3",
         "X0 q(X1, X2) + c(X1, X2) = 0",
         section == parse_poly("X0*X1*X2+X1^3+X2^3", 3, F7), str(section))
    comp = compose_with_curve(section, standard_nodal_parametrization(F7))
    note("nodal parametrization lies on the section",
         "(U:V) -> (-U^3-V^3 : U^2 V : U V^2)", comp.is_zero())

    # six-point configuration
    F11 = make_field(11)
    std = [ProjPoint(F11, [0, 0, 1]), ProjPoint(F11, [1, 0, 1]),
           ProjPoint(F11, [1, 1, 1]), ProjPoint(F11, [0, 1, 1]),
           ProjPoint(F11, [2, 6, 1]), ProjPoint(F11, [6, 3, 1])]
    res = six_point_diagonal(std)
    want = {ProjPoint(F11, [1, 0, 0]), ProjPoint(F11, [1, 1, 2]),
            ProjPoint(F11, [0, 1, 0])}
    note("diagonal points of the standard four points",
         "(1:0:0), (1:1:2), (0:1:0)",
         set(res.diagonal_points) == want,
         ", ".join(str(d) for d in res.diagonal_points))
    note("a valid two-line point exists for a general sextuple",
         "il existe un point Q", res.q is not None and
         res.certificate.passed, str(res.q))
    F4 = make_field(2, 2)
    z = F4.gen
    forced = [ProjPoint(F4, [F4.zero, F4.zero, F4.one]),
              ProjPoint(F4, [F4.one, F4.zero, F4.one]),
              ProjPoint(F4, [F4.one, F4.one, F4.one]),
              ProjPoint(F4, [F4.zero, F4.one, F4.one]),
              ProjPoint(F4, [F4.one, z, F4.zero]),
              ProjPoint(F4, [F4.one, F4.from_raw(F4.rmul(z.raw, z.raw)),
                             F4.zero])]
    res4 = six_point_diagonal(forced)
    note("forced char-2 configuration admits no valid point",
         "P4 = (1:zeta:0) et P5 = (1:zeta^2:0)", res4.q is None,
         res4.reason or "")

    # line censuses
    fermat7 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F7))
    lines7, work7, ext7 = lines_on_cubic_surface(fermat7)
    note("27 lines on the Fermat surface over F_7",
         "vingt-sept droites", len(lines7) == 27 and ext7 == 1,
         f"{len(lines7)} lines, extension {ext7}")
    rep7 = eckardt_points(fermat7, lines7)
    note("two-line points exist on the F_7 Fermat surface",
         "pas un point d'Eckardt", len(rep7.two_line) > 0,
         f"{len(rep7.two_line)} two-line points")

    # char-2 Fermat census and trichotomy at F_4
    repf2 = fermat_char2_report(2)
    note("char-2 Fermat tangent-section trichotomy over F_4",
         "cuspidale, droite et conique tangente, ou trois droites "
         "concourantes", repf2.trichotomy_holds,
         str(repf2.class_counts))
    note("char-2 Fermat: every intersection point is an Eckardt point",
         "trois droites concourantes en un point d'Eckardt",
         repf2.two_line_count == 0,
         f"{repf2.eckardt_count} Eckardt, {repf2.two_line_count} two-line")
    if not repf2.matches_reference_count:
        findings.append(
            f"char-2 Fermat Eckardt census: computed "
            f"{repf2.eckardt_count}, stated 35; the exhaustive count is "
            f"authoritative (incident pairs {repf2.incident_pairs} = 3 * "
            f"{repf2.eckardt_count})")
    note("char-2 Fermat Eckardt census computed exhaustively",
         "elle a 35 points d'Eckardt (compared, computation "
         "authoritative)", repf2.eckardt_count * 3 == repf2.incident_pairs,
         f"computed {repf2.eckardt_count}")

    # Clebsch
    clebsch = Hypersurface(parse_poly(
        "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3", 4, F7))
    linesC, workC, extC = lines_on_cubic_surface(clebsch)
    repC = eckardt_points(clebsch.map_field(workC), linesC)
    perm = set()
    for i, j in itertools.combinations(range(5), 2):
        v = [F7.zero] * 5
        v[i], v[j] = F7.one, F7.scalar(-1)
        perm.add(ProjPoint(F7, v[:4]).map_field(workC))
    found = {p for p, _ in repC.eckardt}
    note("Clebsch surface has the 10 permutation Eckardt points",
         "la surface de Clebsch, qui en a 10",
         perm <= found and len(repC.eckardt) == 10,
         f"{len(repC.eckardt)} Eckardt points")

    # pipelines
    resF = find_nodal_section(fermat7)
    curveF = nodal_section_curve(resF)
    note("two-line-point pipeline yields a very free nodal section "
         "(F_7 Fermat)", "un point double ordinaire en x",
         resF.classification.tag == "NodalIntegral"
         and curveF.splitting.parts == (2, 1), str(curveF.splitting))
    try:
        find_nodal_section(fermat2)
        note("char-2 Fermat pipeline is obstructed",
             "le lemme n'est pas valable", False, "pipeline succeeded")
    except AllEckardtError as e:
        note("char-2 Fermat pipeline is obstructed",
             "le lemme n'est pas valable", True, str(e))

    fermat4 = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3+X4^3", 5, F7))
    curve4 = build_very_free_curve(fermat4)
    note("very free plane curve on a smooth cubic threefold",
         "dont l'image est contenue dans un plan",
         curve4.very_free and curve4.splitting.parts == (3, 2, 1),
         str(curve4.splitting))

    passed = all(c["pass"] for c in checks)
    return passed, checks, findings


def cmd_verify_paper(args):
    def progress(check):
        mark = "PASS" if check["pass"] else "FAIL"
        print(f"[{mark}] {check['name']}", file=sys.stderr, flush=True)

    passed, checks, findings = run_verify_paper(seed=args.seed,
                                                progress=progress)
    result = {"pass": passed, "findings": findings,
              "checks_total": len(checks),
              "checks_failed": sum(1 for c in checks if not c["pass"])}
    width = max(len(c["name"]) for c in checks)
    text_lines = [f"[{'PASS' if c['pass'] else 'FAIL'}] "
                  f"{c['name']:<{width}}  {c['details']}" for c in checks]
    text_lines += [f"[NOTE] {f}" for f in findings]
    text_lines.append(f"{result['checks_total'] - result['checks_failed']}/"
                      f"{result['checks_total']} checks passed")
    _emit(args, "0,7,5,3,2", checks, result, text_lines)
    return 0 if passed else MATH_FAIL


# -- argument parsing --------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="veryfree",
        description="Exact constructions and verifications of very free "
                    "degree-3 curves on smooth cubic hypersurfaces.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        if field:
            sp.add_argument("--field", required=True,
                            help='field spec: "Q", "7", or "2^4"')
        sp.add_argument("--ext-cap", type=int, default=DEFAULT_EXT_CAP,
                        help="largest field-extension degree searched")
        sp.add_argument("--line-field-cap", type=int,
                        default=DEFAULT_LINE_FIELD_CAP,
                        help="largest field size scanned for lines")

    sp = sub.add_parser("verify-paper",
                        help="run the full replay of the stated identities")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify_paper)

    sp = sub.add_parser("splitting", help="splitting type of a curve's "
                                          "tangent pullback")
    common(sp)
    sp.add_argument("--surface", required=True)
    sp.add_argument("--curve", required=True,
                    help='semicolon-separated binary forms, e.g. '
                         '"-U^3-V^3;U^2*V;U*V^2;0"')
    sp.set_defaults(func=cmd_splitting)

    sp = sub.add_parser("smooth", help="smoothness of a projective "
                                       "hypersurface")
    common(sp)
    sp.add_argument("--poly", dest="surface", required=True)
    sp.add_argument("--nvars", type=int, default=4)
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("lines", help="the 27 lines of a smooth cubic "
                                      "surface")
    common(sp)
    sp.add_argument("--surface", required=True)
    sp.set_defaults(func=cmd_lines)

    sp = sub.add_parser("eckardt", help="Eckardt and two-line points")
    common(sp)
    sp.add_argument("--surface", required=True)
    sp.set_defaults(func=cmd_eckardt)

    sp = sub.add_parser("construct", help="nodal tangent section via the "
                                          "two-line-point walk")
    common(sp)
    sp.add_argument("--surface", required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("build", help="very free curve on a cubic "
                                      "hypersurface in P^n")
    common(sp)
    sp.add_argument("--dim", type=int, required=True,
                    help="ambient projective dimension n")
    sp.add_argument("--poly", dest="surface", required=True)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("fermat2", help="exhaustive char-2 Fermat analysis")
    common(sp, field=False)
    sp.add_argument("--ext", type=int, default=2,
                    help="classify points over F_{2^ext}")
    sp.set_defaults(func=cmd_fermat2)

    sp = sub.add_parser("sixpoints", help="two-line point for six plane "
                                          "points")
    common(sp)
    sp.add_argument("--points", required=True,
                    help='six points "x:y:z;...;x:y:z"')
    sp.set_defaults(func=cmd_sixpoints)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report")
        sp.add_argument("--out", help="also write the JSON report here")
    return p


_VALUE_FLAGS = {"--curve", "--surface", "--poly", "--points", "--field"}


def _join_value_flags(argv):
    """Glue values onto their flags so minus-leading polynomials parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# integer options with a least value, checked before any input is parsed
_LEAST_VALUES = (("ext_cap", 1), ("line_field_cap", 1), ("nvars", 1),
                 ("dim", 3), ("ext", 1))


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    try:
        for attr, least in _LEAST_VALUES:
            value = getattr(args, attr, least)
            if value < least:
                flag = "--" + attr.replace("_", "-")
                raise ValueError(f"{flag} must be at least {least}, "
                                 f"got {value}")
        return args.func(args)
    except (ParseError, FieldError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ScanBudgetExceeded, ExtensionCapExceeded) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return BUDGET_FAIL
    except IntegrityError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return MATH_FAIL
    except AllEckardtError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
