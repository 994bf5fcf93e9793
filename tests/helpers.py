"""Shared fixtures: deterministic random forms, pinned seeds, an
S-polynomial built from MultiPoly arithmetic, a field-op counter and a
two-row line search."""
import itertools
import random

from veryfree import fields
from veryfree.fields import Scalar, make_field
from veryfree.hypersurface import LineP3, _cell_patterns, _row_zeros
from veryfree.poly import MultiPoly, _lead

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
QQ = make_field(0, 1)


def random_form(field, nvars, degree, rng):
    terms = {}
    for combo in itertools.combinations_with_replacement(range(nvars),
                                                         degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        c = rng.randrange(field.size)
        if c:
            terms[tuple(e)] = field.from_raw(c)
    return MultiPoly(field, nvars, terms)


def random_cubic_form(field, nvars, seed):
    return random_form(field, nvars, 3, random.Random(seed))


def sympy_chart_smooth(f, p):
    """Oracle for smoothness of the cubic form f over F_p, independent of
    veryfree's Groebner code: sympy's partials and sympy's groebner over
    GF(p) on each of the overlapping affine charts X_i = 1; smooth iff
    every chart ideal (f, df/dX_0, ..., df/dX_n) is the unit ideal."""
    from sympy import Poly, groebner, symbols
    xs = symbols(f"x0:{f.nvars}")
    g = Poly.from_dict({e: c.raw for e, c in f.terms.items()}, *xs,
                       modulus=p)
    gens = [g] + [g.diff(x) for x in xs]
    for x in xs:
        chart = [h.eval(x, 1) for h in gens]
        chart = [h for h in chart if not h.is_zero]
        if not chart or groebner(chart, modulus=p,
                                 order="grevlex").exprs != [1]:
            return False
    return True


def random_invertible(field, n, rng):
    from veryfree import linalg
    while True:
        rows = [[field.from_raw(rng.randrange(field.size)) for _ in range(n)]
                for _ in range(n)]
        raw = [[c.raw for c in r] for r in rows]
        if linalg.inverse(field, raw) is not None:
            return rows


# smooth cubic surfaces over F_5 whose 27 lines live within F_25, and
# surfaces over F_7 whose lines live within F_49 (found by searching the
# seed space once; the checks below re-verify, nothing is assumed)
F5_SURFACE_SEEDS = [37, 47, 255]
F7_SURFACE_SEEDS = [256, 282, 365, 368, 722]


def spoly(f, g):
    """S-polynomial of f and g in degrevlex, by MultiPoly arithmetic."""
    (fe, fc), (ge, gc) = _lead(f), _lead(g)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))

    def shifted(h, e, c):
        shift = [a - b for a, b in zip(lcm, e)]
        return MultiPoly(h.field, h.nvars,
                         {tuple(a + b for a, b in zip(t, shift)): v / c
                          for t, v in h.terms.items()})
    return shifted(f, fe, fc) - shifted(g, ge, gc)


def count_field_ops(monkeypatch):
    """Count every raw field operation (radd, rsub, rmul, rneg, rinv,
    rpow) until the test ends; returns a one-item list that holds the
    running count.  A bound on it catches a fall back to slower
    arithmetic, which no wall-clock gate would."""
    count = [0]

    def counted(method):
        def wrapper(spec, *args):
            count[0] += 1
            return method(spec, *args)
        return wrapper
    for op in ("radd", "rsub", "rmul", "rneg", "rinv", "rpow"):
        monkeypatch.setattr(fields.FieldSpec, op,
                            counted(getattr(fields.FieldSpec, op)))
    return count


def lines_by_row_pairing(x, K):
    """Oracle for the line search: the lines of P^3 over K on the surface
    x, sorted.  Each RREF cell scans both rows and keeps every pair of
    zeros r0, r1 with grad f(r0) . r1 = grad f(r1) . r0 = 0, so no
    condition is solved for."""
    xk = x.map_field(K) if K is not x.field else x
    forms = [xk.f] + xk.partials

    def dot(u, v):
        acc = K.rzero
        for a, b in zip(u, v):
            acc = K.radd(acc, K.rmul(a, b))
        return acc
    lines = set()
    for (i, j, free0, free1) in _cell_patterns():
        zeros1 = list(_row_zeros(forms, j, free1))
        for r0, g0 in _row_zeros(forms, i, free0):
            for r1, g1 in zeros1:
                if dot(g0, r1) == K.rzero and dot(g1, r0) == K.rzero:
                    lines.add(LineP3(K, [[Scalar(K, c) for c in r]
                                         for r in (r0, r1)]))
    return sorted(lines, key=lambda l: l.sort_key())
