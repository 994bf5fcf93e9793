"""Shared fixtures: deterministic random forms, pinned seeds, an
S-polynomial built from MultiPoly arithmetic, a full normal form modulo
a Groebner basis, a field-op counter, a call recorder, root finding and
Zech tables by element scans and polynomial products, root finding on
UPoly objects (the list engine's oracle), a two-row line search, the line
search that scans every level in full (the pencil's oracle), a
tangent-cone frame and a nodal prenormalisation by substitution, and
plane-line and curve maps through a kernel basis, a matrix inverse and
binary-form arithmetic, curve composition by powers of each variable,
every value memo emptied, the six-point search in two passes,
diagonal points first, the Eckardt census over all pairs of lines, a parser
that also takes inhomogeneous polynomials, which the package never
needs, and the line search's earlier kernels: row restriction by a
per-term generator, values at row zeros by a `_set_first` chain, a line
substitution that builds its own powers, binary forms evaluated by
powers of u and v, and the Gauss-Jordan loop that computes every entry
it touches and the pivot product on every reduction."""
import itertools
import random

from veryfree import fields, hypersurface, linalg, poly, sheafp1
from veryfree.constructions import (SixPointResult, VerificationReport,
                                    _conic_row, _five_point_conic)
from veryfree.errors import (ExtensionCapExceeded, FieldError,
                             IntegrityError, ScanBudgetExceeded)
from veryfree.fields import (DEFAULT_SCAN_BUDGET, Root, Scalar, UPoly,
                             _prime_factors, _reduce, _vector_ops,
                             check_field, embed, join_field, make_field)
from veryfree.hypersurface import (DEFAULT_EXT_CAP, DEFAULT_LINE_FIELD_CAP,
                                   EckardtReport, Hypersurface, LineP3,
                                   ProjPoint, _cell_patterns,
                                   _completion_matrix, _cross,
                                   _lines_in_cells, _meet, _plucker_frame,
                                   _row_zeros, _set_first, is_smooth,
                                   plane_line_through)
from veryfree.poly import (BinaryForm, MultiPoly, _PolyParser, _entry, _lead,
                           _normal_form, binary_roots, compose_with_curve,
                           linear_substitute, substitute_linear_map)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
QQ = make_field(0, 1)


def embed_scalar(x, target):
    """The Scalar x embedded in the target field, as a Scalar."""
    return Scalar(target, embed(x.field, x.raw, target))


def raw_dot(F, xs, ys):
    """sum x_i y_i of raw values of F, by its raw ops."""
    acc = F.rzero
    for x, y in zip(xs, ys):
        acc = F.radd(acc, F.rmul(x, y))
    return acc


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


def parse_any_poly(text, nvars, field):
    """A polynomial in X0..X{nvars-1}, homogeneous or not: `parse_poly`
    without its homogeneity check."""
    return _PolyParser(text, field, {f"X{i}": i for i in range(nvars)}).parse()


def sympy_chart_smooth(f, p):
    """Oracle for smoothness of the cubic form f over F_p, independent of
    veryfree's Groebner code: sympy's partials and sympy's groebner over
    GF(p) on each of the overlapping affine charts X_i = 1; smooth iff
    every chart ideal (f, df/dX_0, ..., df/dX_n) is the unit ideal."""
    from sympy import Poly, groebner, symbols
    xs = symbols(f"x0:{f.nvars}")
    g = Poly.from_dict(dict(f.terms), *xs, modulus=p)
    gens = [g] + [g.diff(x) for x in xs]
    for x in xs:
        chart = [h.eval(x, 1) for h in gens]
        chart = [h for h in chart if not h.is_zero]
        if not chart or groebner(chart, modulus=p,
                                 order="grevlex").exprs != [1]:
            return False
    return True


def gauss_jordan_full_rows(field, rows):
    """Oracle for `linalg._gauss_jordan`: the loop that computes every
    entry it touches, pivot column included, and the signed pivot
    product on every reduction.  Returns (rref_rows, pivot_columns, det),
    `det` being the determinant when `rows` is square with a pivot in
    every column."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    z = field.rzero
    rmul, rsub = field.rmul, field.rsub
    det, odd = field.rone, False
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if m[i][col] != z), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            odd = not odd
        prow = m[r]
        det = rmul(det, prow[col])
        inv = field.rinv(prow[col])
        support = [j for j in range(col, ncols) if prow[j] != z]
        for j in support:
            prow[j] = rmul(inv, prow[j])
        for i in range(nrows):
            row = m[i]
            c = row[col]
            if i != r and c != z:
                for j in support:
                    row[j] = rsub(row[j], rmul(c, prow[j]))
        pivots.append(col)
    return m, pivots, (field.rneg(det) if odd else det)


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
        F, shift = h.field, [a - b for a, b in zip(lcm, e)]
        inv = F.rinv(c)
        return MultiPoly.from_raw(F, h.nvars,
                                  {tuple(a + b for a, b in zip(t, shift)):
                                   F.rmul(v, inv)
                                   for t, v in h.terms.items()})
    return shifted(f, fe, fc) - shifted(g, ge, gc)


def normal_form(f, basis):
    """Full normal form of f modulo the basis, by `poly._normal_form`."""
    rem = _normal_form(f.field, f.terms, [_entry(g) for g in basis])
    return MultiPoly.from_raw(f.field, f.nvars, rem)


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


def spy_calls(monkeypatch, module, name):
    """Record the arguments of each call of `module.<name>` until the
    test ends; returns the list they are appended to."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or original(*args))
    return calls


def cold_memos(monkeypatch):
    """Empty every value memo for the rest of the test, as a fresh
    process has them: the cohomology cache, which holds the validated
    monads, the curve images and the line and Eckardt censuses.  Every
    test starts this way (`conftest.py`); a test calls it again to run
    cold after building its inputs."""
    monkeypatch.setattr(sheafp1, "_COHOMOLOGY_CACHE", {})
    monkeypatch.setattr(poly, "_CURVE_IMAGES", {})
    monkeypatch.setattr(hypersurface, "_CENSUS_CACHE", {})


def compose_by_powers(f, curve):
    """Oracle for `poly.compose_with_curve`: f(h) by `BinaryForm`
    arithmetic, from the powers of each h_i, a product of powers per
    monomial, with no images kept between calls."""
    F = f.field
    one = BinaryForm.from_raw(F, 0, (F.rone,))
    powers = [[one, h] for h in curve]
    out = BinaryForm.zero(F, f.total_degree * curve[0].degree)
    for e, c in f.terms.items():
        term = one
        for cache, k in zip(powers, e):
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            term = term * cache[k]
        out = out + term.scale(c)
    return out


def roots_by_scan(f, max_ext):
    """Oracle for `fields.find_roots`: the same list of Roots, from an
    evaluation of f at every element of F_{p^(k*j)} for j = 1, 2, ...
    Raises ScanBudgetExceeded, before scanning it, if some scan field has
    more than DEFAULT_SCAN_BUDGET elements."""
    if f.is_zero():
        raise ValueError("find_roots of the zero polynomial")
    base = f.field
    found = []
    by_level = {}       # j -> list of raw roots at that level
    remaining = f.degree
    for j in range(1, max_ext + 1):
        if remaining == 0:
            break
        K = make_field(base.p, base.k * j)
        if K.size > DEFAULT_SCAN_BUDGET:
            raise ScanBudgetExceeded(
                f"scan budget exceeded: |F_{base.p}^{base.k * j}| = {K.size} "
                f"> {DEFAULT_SCAN_BUDGET}")
        fK = UPoly(K, [embed(base, c, K) for c in f.coeffs])
        known = set()
        for jp in range(1, j):
            if j % jp == 0 and jp in by_level:
                sub = make_field(base.p, base.k * jp)
                for r in by_level[jp]:
                    known.add(embed(sub, r, K))
        here = []
        for cand in K.elements():
            acc = K.rzero
            for c in reversed(fK.coeffs):
                acc = K.radd(K.rmul(acc, cand), c)
            if acc == K.rzero and cand not in known:
                here.append(cand)
        for r in here:
            mult = 0
            g = fK
            lin = UPoly(K, [K.rneg(r), K.rone])
            while True:
                q, rem = g.divmod(lin)
                if not rem.is_zero():
                    break
                mult += 1
                g = q
            found.append(Root(r, K, j, mult))
            remaining -= mult
        by_level[j] = here
    return found


# The root engine on UPoly objects, kept as the oracle for the engine on
# raw coefficient lists in `fields`: the same Roots from the same steps,
# with whole-polynomial subtraction and a scaling in every monic step.


class ObjectUPoly:
    """Univariate polynomial over one field; raw coefficients, low to high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == field.rzero:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __mul__(self, other):
        F = self.field
        radd, rmul, zero = F.radd, F.rmul, F.rzero
        out = [zero] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        if other is self and F.p == 2:  # the cross terms of a square cancel
            for i, a in enumerate(self.coeffs):
                out[2 * i] = rmul(a, a)
            return ObjectUPoly(F, out)
        for i, a in enumerate(self.coeffs):
            if a != zero:
                for j, b in enumerate(other.coeffs):
                    if b != zero:
                        out[i + j] = radd(out[i + j], rmul(a, b))
        return ObjectUPoly(F, out)

    def __sub__(self, other):
        F = self.field
        return ObjectUPoly(F, [F.rsub(a, b) for a, b in
                               itertools.zip_longest(self.coeffs, other.coeffs,
                                                     fillvalue=F.rzero)])

    def scale(self, raw):
        F = self.field
        return ObjectUPoly(F, [F.rmul(c, raw) for c in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.rinv(self.coeffs[-1]))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self.coeffs)
        q = _reduce(self.field, r, other.coeffs)
        return ObjectUPoly(self.field, q), ObjectUPoly(self.field, r)

    def __mod__(self, other):
        r = list(self.coeffs)
        _reduce(self.field, r, other.coeffs)
        return ObjectUPoly(self.field, r)

    def gcd(self, other):
        a, b = list(self.coeffs), list(other.coeffs)
        while b:
            _reduce(self.field, a, b)
            a, b = b, a
        return ObjectUPoly(self.field, a).monic()

    def map_field(self, target):
        """Coefficientwise embedding into an extension."""
        if target is self.field:
            return self
        return ObjectUPoly(target, [embed(self.field, c, target)
                              for c in self.coeffs])


def object_find_roots(f: ObjectUPoly, max_ext: int) -> list[Root]:
    """All roots of f over F_{p^(k*j)}, j <= max_ext, level j ascending
    and each level's roots in `lex_key` order.

    Each root appears once, in its minimal field, with multiplicity.
    Distinct-degree factorisation over the base field F_q gives the
    factor gcd(h, x^(q^j) - x) of the part h of f whose roots are not
    found yet, and `_object_split_roots` splits it over F_{q^j} (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, Ch. 14).  Dividing h by that
    factor until they are coprime gives the multiplicities.  Raises
    ScanBudgetExceeded at the first level j with roots left to find where
    F_{q^j} has more than DEFAULT_SCAN_BUDGET elements.
    """
    if f.is_zero():
        raise ValueError("object_find_roots of the zero polynomial")
    base = f.field
    if base.is_rational:
        raise FieldError("object_find_roots requires a finite field")
    found = []
    h = f.monic()
    x = ObjectUPoly(base, [base.rzero, base.rone])
    for j in range(1, max_ext + 1):
        if h.degree == 0:
            break
        size = base.size ** j
        if size > DEFAULT_SCAN_BUDGET:
            raise ScanBudgetExceeded(
                f"scan budget exceeded: |F_{base.p}^{base.k * j}| = {size} "
                f"> {DEFAULT_SCAN_BUDGET}")
        if j == 1:
            frob, aid = _object_frobenius(h)       # frob = x^(q^j) mod h
        else:
            frob = _object_powmod(frob, base.size, h)
        g = h.gcd(frob - x)
        if g.degree == 0:
            continue
        K = make_field(base.p, base.k * j)
        here, mult = [], 0
        while g.degree > 0:  # g: the level's factors of multiplicity > mult
            h = h.divmod(g)[0]
            mult += 1
            rest = h.gcd(g)
            piece = g.divmod(rest)[0].map_field(K)
            here += [(r, mult) for r in _object_split_roots(
                piece, aid if j == 1 else _object_frobenius(piece)[1])]
            g = rest
        here.sort(key=lambda rm: K.lex_key(rm[0]))
        found += [Root(r, K, j, m) for r, m in here]
    return found


def object_field_roots(f: ObjectUPoly):
    """The distinct roots of f in its own field, in `lex_key` order, for
    any size of field."""
    F = f.field
    frob, aid = _object_frobenius(f)
    g = f.gcd(frob - ObjectUPoly(F, [F.rzero, F.rone]))
    return sorted(_object_split_roots(g, aid), key=F.lex_key)


def _object_powmod(base: ObjectUPoly, e: int,
                   m: ObjectUPoly) -> ObjectUPoly:
    """base^e mod m for e >= 1, by left-to-right square and multiply."""
    base = base % m
    out = base
    for bit in bin(e)[3:]:
        out = out * out % m
        if bit == "1":
            out = out * base % m
    return out


def _object_frobenius(h: ObjectUPoly):
    """x^q mod h over F_q = h.field, and the aid that
    `_object_split_roots` takes for any factor of h, from the same squarings:
    the powers x^(2^i) mod h, i < k, in characteristic 2, else
    x^((q - 1)/2) mod h."""
    F = h.field
    x = ObjectUPoly(F, [F.rzero, F.rone])
    if F.p == 2:
        chain = [x % h]
        for _ in range(F.k):
            chain.append(chain[-1] * chain[-1] % h)
        return chain.pop(), chain
    half = _object_powmod(x, (F.size - 1) // 2, h)
    return half * half * x % h, half


def _object_split_roots(g: ObjectUPoly, aid):
    """The roots of the monic squarefree g, all of them in its field K,
    by Cantor-Zassenhaus equal-degree splitting into linear factors; aid
    is `_object_frobenius`'s for a multiple of g.

    The shifts a run over K in `elements()` order: gcd(h, (x + a)^((|K| -
    1)/2) - 1) for odd |K|, and gcd(h, Tr(a x)) with the trace to F_2 in
    characteristic 2, where Tr(a x) = sum a^(2^i) x^(2^i).  Two distinct
    roots r, s are split by some a: in odd characteristic (r + a)/(s + a)
    runs over every value but 1, and a -> Tr(a (r - s)) is a nonzero
    linear form.
    """
    K = g.field
    shifts = K.elements()
    if K.p == 2:
        next(shifts)  # Tr(0 x) = 0 splits nothing
    roots, todo = [], [g]
    while True:
        pending = []
        for h in todo:
            if h.degree == 1:
                roots.append(K.rneg(h.coeffs[0]))
            elif h.degree > 1:
                pending.append(h)
        if not pending:
            return roots
        a = next(shifts)
        todo = []
        for h in pending:
            d = h.gcd(_object_splitter(h, a, aid))
            todo += [d, h.divmod(d)[0]] if 0 < d.degree < h.degree else [h]


def _object_splitter(h: ObjectUPoly, a, aid):
    """The polynomial whose gcd with h splits h at the shift a."""
    K = h.field
    if K.p != 2:
        half = aid if a == K.rzero else _object_powmod(
            ObjectUPoly(K, [a, K.rone]), (K.size - 1) // 2, h)
        return half - ObjectUPoly(K, [K.rone])
    radd, rmul = K.radd, K.rmul
    trace = [K.rzero] * max(len(power.coeffs) for power in aid)
    for power in aid:
        for i, c in enumerate(power.coeffs):
            trace[i] = radd(trace[i], rmul(c, a))
        a = rmul(a, a)
    return ObjectUPoly(K, trace)


def zech_tables_by_multiplication(F):
    """Oracle for `fields._zech_tables`: the generator is the first
    primitive element in `elements()` order, each power is the previous
    one times the generator and each Zech entry one addition, all in
    coefficient-vector arithmetic."""
    n, m = F.size, F.size - 1
    vadd, _, _, vmul, _, vpow = _vector_ops(F)
    factors = _prime_factors(m)
    gen = next(c for c in F.elements()
               if c and all(vpow(c, m // f) != 1 for f in factors))
    exp = [1] * m
    for i in range(1, m):
        exp[i] = vmul(exp[i - 1], gen)
    log = [0] * n
    for i, e in enumerate(exp):
        log[e] = i
    zech = [log[s] if s else -1 for s in (vadd(1, e) for e in exp)]
    return exp, log, zech


def lines_by_row_pairing(x, K):
    """Oracle for the line search: the lines of P^3 over K on the surface
    x, sorted.  Each RREF cell scans both rows and keeps every pair of
    zeros r0, r1 with grad f(r0) . r1 = grad f(r1) . r0 = 0, so no
    condition is solved for."""
    xk = x.map_field(K)
    forms = [xk.f] + xk.partials
    elements = list(K.elements())
    lines = set()
    for (i, j, free0, free1) in _cell_patterns():
        zeros1 = list(_row_zeros(forms, j, free1, elements))
        for r0, g0 in _row_zeros(forms, i, free0, elements):
            for r1, g1 in zeros1:
                if raw_dot(K, g0, r1) == K.rzero \
                        and raw_dot(K, g1, r0) == K.rzero:
                    lines.add(LineP3.from_raw(K, [r0, r1]))
    return sorted(lines, key=lambda l: l.sort_key())


def lines_by_level_scans(x: Hypersurface, ext_cap: int = DEFAULT_EXT_CAP,
                         field_cap: int = DEFAULT_LINE_FIELD_CAP):
    """All 27 lines on a smooth cubic surface over F_q.

    Scans the RREF cells of lines of P^3 over F_{q^k} for k = 1, 2, ...
    until exactly 27 distinct lines appear; returns (lines, field, k).
    Over F_{q^k} each cell scans one value per Frobenius orbit of its
    second row's first free coordinate and adds the conjugates of the
    lines found (`_lines_in_cells`), so the set of lines is complete and
    more than 27 still shows a singular surface.
    """
    if x.n != 3:
        raise ValueError("line enumeration expects a surface in P^3")
    base = x.field
    if base.is_rational:
        raise ValueError("line enumeration needs a finite base field")
    if not is_smooth(x):
        raise ValueError("surface is singular; the 27-line count needs "
                         "smoothness")
    last_count = 0
    for k in range(1, ext_cap + 1):
        K = make_field(base.p, base.k * k)
        if K.size > field_cap:
            raise ScanBudgetExceeded(
                f"line scan budget exceeded at F_{base.p}^{base.k * k} "
                f"(size {K.size} > {field_cap}); {last_count} lines found "
                f"so far")
        xk = x.map_field(K)
        lines = sorted(_lines_in_cells([xk.f] + xk.partials, base.size),
                       key=lambda l: l.sort_key())
        if len(lines) > 27:
            raise IntegrityError(
                f"{len(lines)} lines found; the surface cannot be smooth")
        if len(lines) == 27:
            return lines, K, k
        last_count = max(last_count, len(lines))
    raise ExtensionCapExceeded(
        f"only {last_count} lines found within extension degree {ext_cap}")


def row_restriction_by_scan(g, pivot, free):
    """Oracle for `hypersurface._on_row`: each term is kept when every
    coordinate off the pivot and off `free` has exponent 0, tested by a
    generator over all coordinates."""
    F = g.field
    kept = {}
    for e, c in g.terms.items():
        if any(k for t, k in enumerate(e) if t != pivot and t not in free):
            continue
        key = tuple(e[t] for t in free)
        kept[key] = F.radd(kept[key], c) if key in kept else c
    return MultiPoly.from_raw(F, len(free), kept)


def row_values_by_set_first(F, others, vals):
    """Oracle for the values `_row_zeros` yields: each restricted form
    in `others` (raw terms) with its free coordinates set to vals one at
    a time by `_set_first`."""
    rzero = F.rzero
    out = []
    for terms in others:
        for v in vals:
            terms = _set_first(F, terms, v)
        out.append(terms.get((), rzero))
    return out


def affine_line_by_upoly(K, terms, b0, b1):
    """Oracle for `hypersurface._on_affine_line`: raw bivariate terms at
    (s, b0 + b1 s), as a UPoly in s, with the powers of b0 + b1 s built
    by UPoly products for this one form."""
    line = UPoly(K, [b0, b1])
    powers = [UPoly(K, [K.rone])]
    out = [K.rzero] * 4
    for (ea, eb), c in terms.items():
        while len(powers) <= eb:
            powers.append(powers[-1] * line)
        for m, p in enumerate(powers[eb].coeffs):
            out[ea + m] = K.radd(out[ea + m], K.rmul(c, p))
    return UPoly(K, out)


def binary_form_by_powers(form, u, v):
    """Oracle for `BinaryForm.evaluate`: sum of c_j u^(d-j) v^j, each
    power by `rpow`."""
    F = form.field
    acc = F.rzero
    for j, c in enumerate(form.coeffs):
        if c:
            term = F.rmul(c, F.rpow(u, form.degree - j))
            acc = F.radd(acc, F.rmul(term, F.rpow(v, j)))
    return acc


def meet(a, b):
    """Where the lines a and b meet, by the census's kernel
    `hypersurface._meet`: None if skew, IntegrityError if equal."""
    check_field(a.field, b)
    return _meet(a.field, _plucker_frame(a), b)


def eckardt_points_all_pairs(x, lines):
    """Oracle for `hypersurface.eckardt_points`: the same report, with
    `meet` called on each of the 351 pairs and no Frobenius orbits."""
    if len(lines) != 27:
        raise ValueError(f"expected the full set of 27 lines, got {len(lines)}")
    check_field(x.field, lines[0])
    by_point = {}
    meets_per_line = [0] * len(lines)
    pairs = 0
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = meet(lines[i], lines[j])
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
    return EckardtReport(eckardt, two_line, pairs)


def _raw_mat_mul(K, a, b):
    return [[raw_dot(K, row, col) for col in zip(*b)] for row in a]


def nodal_frame_by_substitution(cub, pt):
    """Oracle for `hypersurface._nodal_frame`: the same (m, q, c), read
    off the cubic substituted by X = m Y for the completion matrix m."""
    K = pt.field
    m = _completion_matrix(K, pt.coords)
    f_loc = substitute_linear_map(cub, m)
    qco = [K.rzero] * 3
    cco = [K.rzero] * 4
    for (e0, e1, e2), coeff in f_loc.terms.items():
        if e0 >= 2:
            raise IntegrityError("point is not singular on the cubic")
        if e0 == 1:
            qco[e2] = coeff
        else:
            cco[e2] = coeff
    return m, BinaryForm.from_raw(K, 2, qco), BinaryForm.from_raw(K, 3, cco)


def prenormalization_by_substitution(cub, node):
    """Oracle for `constructions._nodal_prenormalization`: the same
    (field, raw matrix, a0, a3), in raw arithmetic, with the cubic
    substituted again after each coordinate change (by
    `linear_substitute`, which takes the matrices as Scalars) and the
    coefficients read off the result.  After the node moves to (1:0:0),
    the tangent directions become Y1 and Y2 (matrix M2) and
    X0 -> X0 - alpha_1 X1 - alpha_2 X2 absorbs the middle terms (matrix
    M3)."""
    F = node.field
    m1, q, _ = nodal_frame_by_substitution(cub, node)
    roots = binary_roots(q, 2)
    assert len(roots) == 2 and all(mult == 1 for *_, mult in roots)
    K = join_field(*(L for (L, _, _, _) in roots))
    (u1, v1), (u2, v2) = [(embed(L, u, K), embed(L, v, K))
                          for (L, u, v, _) in roots]
    cub_k = cub.map_field(K)
    m1_k = [[embed(F, x, K) for x in row] for row in m1]
    l1l2 = (BinaryForm.from_raw(K, 1, [v1, K.rneg(u1)])
            * BinaryForm.from_raw(K, 1, [v2, K.rneg(u2)]))
    qk = q.map_field(K)
    jj = next(j for j in range(3) if l1l2.coeffs[j])
    lam = K.rmul(qk.coeffs[jj], K.rinv(l1l2.coeffs[jj]))
    assert l1l2.scale(lam) == qk
    s_inv = linalg.inverse(K, [[v1, K.rneg(u1)],
                               [K.rmul(lam, v2), K.rneg(K.rmul(lam, u2))]])
    m2 = [[K.rone, K.rzero, K.rzero],
          [K.rzero] + s_inv[0],
          [K.rzero] + s_inv[1]]

    def scalars(m):
        return [[K.from_raw(x) for x in row] for row in m]
    f2 = linear_substitute(linear_substitute(cub_k, scalars(m1_k)),
                           scalars(m2))
    alphas = [f2.coefficient((0, 3 - t, t)) for t in range(4)]
    assert f2.coefficient((1, 1, 1)) == K.rone
    m3 = [[K.rone, K.rneg(alphas[1]), K.rneg(alphas[2])],
          [K.rzero, K.rone, K.rzero],
          [K.rzero, K.rzero, K.rone]]
    f3 = linear_substitute(f2, scalars(m3))
    total = _raw_mat_mul(K, _raw_mat_mul(K, m1_k, m2), m3)
    return (K, total, f3.coefficient((0, 3, 0)), f3.coefficient((0, 0, 3)))


def restrict_by_kernel_basis(f, line):
    """Oracle for the trace that `hypersurface.divide_by_plane_line`
    returns, and for whether the line divides f: f composed with the two
    points of the line that `linalg.kernel` gives as a basis."""
    F = line.field
    ker = linalg.kernel(F, [line.coeffs], 3)
    assert len(ker) == 2
    return compose_with_curve(f, [BinaryForm.from_raw(F, 1, (a, b))
                                  for a, b in zip(ker[0], ker[1])])


def divide_by_completion_inverse(f, line):
    """Oracle for `hypersurface.divide_by_plane_line`: complete the line
    to an invertible N with the line as first row, substitute
    X = N^-1 Y, strip one Y_0 and substitute Y = N X back; ValueError if
    the line does not divide f."""
    F = f.field
    n = [list(col) for col in zip(*_completion_matrix(F, line.coeffs))]
    g = substitute_linear_map(f, linalg.inverse(F, n))
    quo = {}
    for (e0, e1, e2), c in g.terms.items():
        if e0 == 0:
            raise ValueError("line does not divide the form")
        quo[(e0 - 1, e1, e2)] = c
    return substitute_linear_map(MultiPoly.from_raw(F, 3, quo), n)


def curve_to_ambient_by_forms(field, matrix, comps):
    """Oracle for `Hyperplane.curve_to_ambient`: component i is
    sum_j matrix[i][j] comps[j] in BinaryForm arithmetic, over the field
    of the components, for a raw matrix over `field`."""
    K = comps[0].field
    out = []
    for row in matrix:
        acc = BinaryForm.zero(K, comps[0].degree)
        for h, c in zip(comps, row):
            if c:
                acc = acc + h.scale(embed(field, c, K))
        out.append(acc)
    return out


def six_point_by_two_passes(points):
    """Oracle for `constructions.six_point_diagonal` on six points in
    general position: certify the diagonal points of the first four that
    are off the line P4 P5, then, if none passes, every intersection
    point of two connecting lines with no index in common, in `sort_key`
    order, the diagonal points included."""
    F = points[0].field
    pairs = list(itertools.combinations(range(6), 2))
    lines = {ij: plane_line_through(points[ij[0]], points[ij[1]])
             for ij in pairs}
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
                     if cn.evaluate(q.coords) == F.rzero]
        cert.add("off all six five-point conics", not on_conics,
                 lhs=str(on_conics), rhs="[]")
        return cert

    diagonals = tuple(d for d in (_cross(lines[(0, 1)], lines[(2, 3)]),
                                  _cross(lines[(0, 2)], lines[(1, 3)]),
                                  _cross(lines[(0, 3)], lines[(1, 2)]))
                      if d is not None)
    p45 = lines[(4, 5)]
    for d in diagonals:
        if not p45.contains(d):
            cert = certify(d)
            if cert.passed:
                return SixPointResult(d, diagonals, cert)
    candidates = []
    for ij, kl in itertools.combinations(pairs, 2):
        q = None if set(ij) & set(kl) else _cross(lines[ij], lines[kl])
        if q is not None and q not in candidates:
            candidates.append(q)
    candidates.sort(key=lambda p: p.sort_key())
    for q in candidates:
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


def general_sextuple(field, rng):
    """Six seeded distinct points of P^2(field), no three on a line and
    not all six on a conic.  Never returns over F2, F3 or F5: P^2 has no
    6-arc over F2 or F3, and over F5 every 6-arc is a conic (Segre)."""
    while True:
        pts = []
        while len(pts) < 6:
            raw = [rng.randrange(field.size) for _ in range(3)]
            if any(raw):
                p = ProjPoint.from_raw(field, raw)
                if p not in pts:
                    pts.append(p)
        if all(linalg.det(field, [pts[t].coords for t in ijk]) != field.rzero
               for ijk in itertools.combinations(range(6), 3)) \
                and linalg.det(field, [_conic_row(p) for p in pts]) \
                != field.rzero:
            return pts
