import itertools
import os
import random
from fractions import Fraction

import pytest
from sympy import Poly, symbols

from veryfree import fields
from veryfree.errors import FieldError, ScanBudgetExceeded
from veryfree.fields import (QQ, UPoly, embed,
                             find_roots, join_field, make_field,
                             parse_field_spec, format_field_spec)
from veryfree.constructions import nodal_surface_form
from veryfree.hypersurface import Hypersurface, lines_on_cubic_surface
from veryfree.poly import parse_poly

from helpers import (F3, F4, F5, F7, ObjectUPoly, count_field_ops,
                     object_field_roots, object_find_roots, roots_by_scan,
                     zech_tables_by_multiplication)


def test_make_field_prime_and_rational():
    assert make_field(7, 1).size == 7
    assert make_field(0, 1) is QQ
    assert QQ.is_rational


@pytest.mark.parametrize("p, k, sample", [(2, 2, None), (2, 4, None),
                                           (7, 2, None), (7, 6, 200)])
def test_lex_key_is_the_coefficient_vector(p, k, sample):
    """`lex_key` is `vector_of` on every element of F4, F16 and F49 and
    on 200 seeded elements of F_{7^6}, when first read and when read
    again."""
    F = make_field(p, k)
    if sample is None:
        raws = list(F.elements())
    else:
        raws = random.Random(76).sample(range(F.size), sample)
    for _ in range(2):
        assert [F.lex_key(c) for c in raws] == [F.vector_of(c) for c in raws]


def test_lex_key_over_q_is_the_fraction():
    assert [QQ.lex_key(Fraction(n, 3)) for n in (-1, 2)] == [
        Fraction(-1, 3), Fraction(2, 3)]


def test_make_field_rejects_bad_input():
    with pytest.raises(FieldError):
        make_field(6, 1)
    with pytest.raises(FieldError):
        make_field(7, 0)
    with pytest.raises(FieldError):
        make_field(0, 2)


def _sympy_irreducible(coeffs, p):
    """Oracle: sympy's irreducibility test over GF(p); coeffs low to high."""
    return Poly(list(reversed(coeffs)), symbols("x"), modulus=p).is_irreducible


def _candidates(p, k):
    """Monic degree-k polynomials over F_p in coefficient-vector lex order."""
    for vec in itertools.product(range(p), repeat=k):
        yield list(vec) + [1]


@pytest.mark.parametrize("spec", [f"2^{k}" for k in range(2, 9)] + [
    "3^2", "3^3", "3^4", "5^2", "5^3", "7^2", "7^3"])
def test_modulus_is_first_irreducible(spec):
    F = parse_field_spec(spec)
    expected = next(tuple(m) for m in _candidates(F.p, F.k)
                    if _sympy_irreducible(m, F.p))
    assert F.modulus == expected


def test_f7_6_modulus_is_first_irreducible():
    modulus = (1, 0, 0, 0, 1, 0, 1)
    assert make_field(7, 6).modulus == modulus
    assert _sympy_irreducible(list(modulus), 7)
    for m in _candidates(7, 6):
        if tuple(m) == modulus:
            break
        if m[0]:  # a zero constant term makes x a factor
            assert not _sympy_irreducible(m, 7)


@pytest.mark.parametrize("spec", ["Q", "7", "2^2", "5^2", "3^3", "7^6"])
def test_field_axioms_on_raw_ops(spec):
    """Commutativity, associativity, distributivity, inverses and, on a
    finite field, a^q = a, on the raw ops of every backend: `Fraction`
    operators (Q), residues (F7), Zech tables (F4 exhaustively, F25 and
    F27) and the vector fallback (F_{7^6}, 117 649 elements)."""
    F = parse_field_spec(spec)
    radd, rmul = F.radd, F.rmul
    rng = random.Random(spec)
    if F.is_rational:
        mk = lambda: Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
    else:
        mk = lambda: rng.randrange(F.size)
    if F.size == 4:
        triples = itertools.product(F.elements(), repeat=3)
    else:
        triples = [(F.rzero, F.rone, mk()), (F.rone, mk(), F.rzero)] + [
            (mk(), mk(), mk()) for _ in range(40)]
    for a, b, c in triples:
        assert radd(a, b) == radd(b, a) and rmul(a, b) == rmul(b, a)
        assert radd(radd(a, b), c) == radd(a, radd(b, c))
        assert rmul(rmul(a, b), c) == rmul(a, rmul(b, c))
        assert rmul(a, radd(b, c)) == radd(rmul(a, b), rmul(a, c))
        assert radd(a, F.rneg(a)) == F.rzero
        if a != F.rzero:
            assert rmul(a, F.rinv(a)) == F.rone
        if not F.is_rational:
            assert F.rpow(a, F.size) == a


def test_fraction_with_denominator_divisible_by_p_refused():
    """A Fraction has a value in F_{p^k} only when p does not divide its
    denominator; otherwise the value is named in a FieldError."""
    assert F7.scalar(Fraction(3, 2)) == 5     # 3 * 4, as 2 * 4 = 1 mod 7
    F49 = make_field(7, 2)
    for F, value in ((F7, Fraction(1, 7)), (F49, Fraction(-5, 14))):
        with pytest.raises(FieldError, match=f"{value} has no value in"):
            F.scalar(value)
    with pytest.raises(FieldError, match="3/14 has no value in 7"):
        nodal_surface_form(F7, cubic_coeff=Fraction(3, 14))


def test_scalar_canonical_strings_roundtrip():
    F16 = make_field(2, 4)
    from veryfree.poly import scalar_from_string
    for raw in F16.elements():
        x = F16.from_raw(raw)
        assert scalar_from_string(str(x), F16) == x
    assert str(QQ.from_raw(QQ.rmul(QQ.rfrom_int(3),
                                   QQ.rinv(QQ.rfrom_int(4))))) == "3/4"


def test_embed_examples():
    F16 = make_field(2, 4)
    assert embed(F4, F4.rone, F16) == F16.rone
    img = embed(F4, F4.gen.raw, F16)
    # a root of x^2 + x + 1
    assert F16.radd(F16.radd(F16.rmul(img, img), img), F16.rone) == F16.rzero


def test_embed_is_homomorphism():
    F16 = make_field(2, 4)
    rng = random.Random(3)
    for _ in range(10):
        a, b = rng.randrange(4), rng.randrange(4)
        ea, eb = embed(F4, a, F16), embed(F4, b, F16)
        assert embed(F4, F4.rmul(a, b), F16) == F16.rmul(ea, eb)
        assert embed(F4, F4.radd(a, b), F16) == F16.radd(ea, eb)


def test_embed_tower_compatibility():
    F16, F256 = make_field(2, 4), make_field(2, 8)
    for x in F4.elements():
        assert embed(F16, embed(F4, x, F16), F256) == embed(F4, x, F256)


def _modulus_at(src, target, x):
    """The modulus of src evaluated at the raw element x of target."""
    acc = target.rzero
    for i, c in enumerate(src.modulus):
        acc = target.radd(acc, target.rmul(target.rpow(x, i),
                                           target.rfrom_int(c)))
    return acc


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)],
                         ids=["F4", "F8", "F9", "F25", "F49"])
def test_embed_takes_least_modulus_root(p, k):
    """The generator of F_{p^k} goes to the least root, in
    coefficient-vector lex order, of its modulus in F_{p^2k}: every
    element of the target is tried with raw arithmetic."""
    src, target = make_field(p, k), make_field(p, 2 * k)
    roots = [raw for raw in target.elements()
             if _modulus_at(src, target, raw) == target.rzero]
    assert len(roots) == k
    assert embed(src, src.gen.raw, target) == min(roots,
                                                  key=target.vector_of)


def test_embed_stops_at_first_modulus_root(monkeypatch):
    """F_{7^3} -> F_{7^6}: splitting the cubic modulus over F_{7^6}
    costs a few thousand field ops; a scan of every one of its 117 649
    elements costs about 700 000."""
    src, target = make_field(7, 3), make_field(7, 6)
    src._embed_cache.clear()  # an earlier embedding must not be reused
    count = count_field_ops(monkeypatch)
    img = embed(src, src.gen.raw, target)
    assert count[0] <= 5000
    assert _modulus_at(src, target, img) == target.rzero


def test_embed_rejects_bad_targets():
    with pytest.raises(FieldError):
        embed(F4, F4.gen.raw, make_field(2, 3))
    with pytest.raises(FieldError):
        embed(F4, F4.gen.raw, make_field(3, 2))


def test_join_field():
    assert join_field(F4, make_field(2, 3)).k == 6
    assert join_field(F7, F7) is F7


def test_field_spec_strings():
    assert parse_field_spec("7") is F7
    assert parse_field_spec("2^4") is make_field(2, 4)
    assert parse_field_spec("Q") is QQ
    assert format_field_spec(make_field(2, 4)) == "2^4"


def test_find_roots_examples():
    f = UPoly(F7, [F7.rneg(1), 0, 1])               # x^2 - 1
    roots = find_roots(f, 1)
    assert {r.field.rstr(r.value) for r in roots} == {"1", "6"}

    g = UPoly(F3, [1, 0, 1])                        # x^2 + 1
    roots = find_roots(g, 2)
    assert all(r.ext_degree == 2 for r in roots) and len(roots) == 2
    # oracle: scan all 9 elements of F_9 directly
    F9 = make_field(3, 2)
    direct = [x for x in F9.elements()
              if F9.radd(F9.rmul(x, x), 1) == 0]
    assert {r.value for r in roots} == set(direct)


def test_find_roots_cube_root_minimal_field():
    # roots of x^3 - 2 exist over F_{7^k} iff 2 is a cube there;
    # oracle: cube every element of F_7 and F_49
    for k in (1, 2):
        K = make_field(7, k)
        cubes = {K.rpow(x, 3) for x in K.elements()}
        assert K.rfrom_int(2) not in cubes
    f = UPoly(F7, [F7.rneg(2), 0, 0, 1])
    roots = find_roots(f, 3)
    assert len(roots) == 3 and all(r.ext_degree == 3 for r in roots)


def test_find_roots_multiplicity_and_completeness():
    rng = random.Random(11)
    for _ in range(10):
        K = F5
        rs = [rng.randrange(5) for _ in range(3)]
        poly = UPoly(K, [K.rone])
        for r in rs:
            poly = poly * UPoly(K, [K.rneg(r), K.rone])
        roots = find_roots(poly, 1)
        assert sum(r.multiplicity for r in roots) == 3
        assert {r.value for r in roots} == set(rs)


# largest extension degree scanned per prime: fields of at most 125 elements
_ROOT_EXT = {2: 6, 3: 4, 5: 3, 7: 2, 11: 2}


@pytest.mark.parametrize("p", sorted(_ROOT_EXT))
def test_find_roots_matches_sympy_factorisation(p):
    """Each irreducible factor of degree e <= max_ext and multiplicity mu
    gives e roots of minimal extension degree e and multiplicity mu."""
    F = make_field(p)
    max_ext = _ROOT_EXT[p]
    x = symbols("x")
    rng = random.Random(400 + p)
    for _ in range(25):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
        coeffs.append(rng.randrange(1, p))
        f = UPoly(F, coeffs)
        if rng.random() < 0.4:    # repeated factors
            f = f * f * UPoly(F, coeffs[:2] + [1])
        _, factors = Poly(list(reversed(f.coeffs)), x,
                          modulus=p).factor_list()
        expected = sorted((g.degree(), mu) for g, mu in factors
                          for _ in range(g.degree()) if g.degree() <= max_ext)
        roots = find_roots(f, max_ext)
        assert sorted((r.ext_degree, r.multiplicity)
                      for r in roots) == expected
        assert all(r.field is make_field(p, r.ext_degree)
                   for r in roots)


def test_find_roots_budget():
    # F_{2^20} has 1 048 576 > DEFAULT_SCAN_BUDGET elements, so the scan
    # is refused up front
    big = make_field(2, 20)
    assert big.size > fields.DEFAULT_SCAN_BUDGET
    f = UPoly(big, [1, 1, 0, 1])
    with pytest.raises(ScanBudgetExceeded, match=r"F_2\^20"):
        find_roots(f, 1)


def _root_key(roots):
    return [(r.value, id(r.field), r.ext_degree, r.multiplicity)
            for r in roots]


# every field whose roots are compared with the scan, and the largest
# level j with |F_{q^j}| <= 2401
_SCAN_FIELDS = {"2": 11, "3": 7, "2^2": 5, "5": 4, "7": 4, "2^3": 3,
                "3^2": 3, "2^4": 2, "5^2": 2, "7^2": 2}


@pytest.mark.parametrize("spec", sorted(_SCAN_FIELDS))
def test_find_roots_matches_scan(spec):
    """Seeded polynomials of degree 0-6, some with repeated factors, with
    max_ext counting down from the largest level: the same Roots, in the
    same order, as a scan of each level's field."""
    F = parse_field_spec(spec)
    top = _SCAN_FIELDS[spec]
    rng = random.Random(spec)

    def poly(deg):
        return UPoly(F, [rng.randrange(F.size) for _ in range(deg)]
                     + [rng.randrange(1, F.size)])
    cases = [poly(d) for d in range(7)]
    cases += [poly(1) * poly(1) * poly(2), poly(2) * poly(2) * poly(1),
              poly(1) * poly(1) * poly(1)]
    for n, f in enumerate(cases):
        max_ext = top - n % top
        assert _root_key(find_roots(f, max_ext)) == \
            _root_key(roots_by_scan(f, max_ext))


def _budget_outcome(finder, f, max_ext):
    try:
        return _root_key(finder(f, max_ext))
    except ScanBudgetExceeded as e:
        return str(e)


def test_find_roots_budget_matches_scan():
    """The budget is refused at the level where the scan refused it: the
    first level with roots left to find and more than
    DEFAULT_SCAN_BUDGET elements, whether or not that level has roots."""
    big = make_field(2, 20)
    f = UPoly(big, [1, 1, 0, 1])
    assert _budget_outcome(find_roots, f, 1) == \
        _budget_outcome(roots_by_scan, f, 1)
    K = make_field(2, 10)               # 1 024 elements, 2^20 at level 2
    split = UPoly(K, [1]) * UPoly(K, [5, 1]) * UPoly(K, [9, 1]) \
        * UPoly(K, [700, 1])
    out = _budget_outcome(find_roots, split, 2)
    assert out == _budget_outcome(roots_by_scan, split, 2)
    assert [v for v, *_ in out] == sorted([5, 9, 700], key=K.lex_key)
    c = next(c for c in K.elements()
             if not roots_by_scan(UPoly(K, [c, 1, 1]), 1))
    partly = UPoly(K, [c, 1, 1]) * UPoly(K, [3, 1])
    # a cubic without roots in K is irreducible: no roots at level 2
    # either, and still refused there
    c = next(c for c in K.elements()
             if not roots_by_scan(UPoly(K, [c, 1, 0, 1]), 1))
    cubic = UPoly(K, [c, 1, 0, 1])
    for f in (partly, cubic):
        out = _budget_outcome(find_roots, f, 2)
        assert out == _budget_outcome(roots_by_scan, f, 2)
        assert out == ("scan budget exceeded: |F_2^20| = 1048576 > "
                       f"{fields.DEFAULT_SCAN_BUDGET}")


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 4), (7, 1), (7, 2)],
                         ids=["F2", "F4", "F16", "F7", "F49"])
def test_root_engine_matches_the_engine_on_objects(monkeypatch, p, k):
    """Seeded polynomials of degree 1-6, squares and cubes of factors and
    zero constant terms, with max_ext counting down from 3 (over F49,
    level 3 is F_{7^6}, on the vector fallback): `find_roots` and
    `_field_roots` on raw lists give the Roots and roots of the engine on
    UPoly objects, with no more field ops."""
    F = make_field(p, k)
    for j in (2, 3):  # embeddings are cached: neither engine pays for them
        embed(F, F.rone, make_field(p, k * j))
    rng = random.Random(p * 10 + k)

    def poly(deg):
        return [rng.randrange(F.size) for _ in range(deg)] + [
            rng.randrange(1, F.size)]

    def times(*factors):
        out = UPoly(F, [F.rone])
        for c in factors:
            out = out * UPoly(F, c)
        return list(out.coeffs)
    cases = [poly(d) for d in range(1, 7) for _ in range(4)]
    a, b = poly(1), poly(2)
    cases += [times(a, a), times(b, b, a), times(a, a, a, b), times(b, b, b)]
    cases += [[0] + poly(d) for d in (0, 2, 4)]
    count = count_field_ops(monkeypatch)
    levels = set()
    for n, c in enumerate(cases):
        max_ext = 3 - n % 3
        count[0] = 0
        want = object_find_roots(ObjectUPoly(F, c), max_ext)
        oracle_ops, count[0] = count[0], 0
        assert find_roots(UPoly(F, c), max_ext) == want, c
        assert count[0] <= oracle_ops, c
        levels |= {r.ext_degree for r in want}
        count[0] = 0
        want = object_field_roots(ObjectUPoly(F, c))
        oracle_ops, count[0] = count[0], 0
        assert fields._field_roots(F, c) == want, c
        assert count[0] <= oracle_ops, c
    assert levels == {1, 2, 3}


def test_root_engine_budget_matches_the_engine_on_objects():
    """`ScanBudgetExceeded` fires at the same level, with the same
    message, as in the engine on UPoly objects: at level 1 over
    F_{2^20}, and at level 2 over F_{2^10} when roots are left to find."""
    K = make_field(2, 10)
    c = next(c for c in K.elements()
             if not find_roots(UPoly(K, [c, 1, 0, 1]), 1))
    cases = [(make_field(2, 20), [1, 1, 0, 1], 1), (K, [c, 1, 0, 1], 2),
             (K, [0, c, 1, 0, 1], 2), (K, [5, 1], 2)]
    outcomes = []
    for F, coeffs, max_ext in cases:
        out = _budget_outcome(find_roots, UPoly(F, coeffs), max_ext)
        assert out == _budget_outcome(object_find_roots,
                                      ObjectUPoly(F, coeffs), max_ext)
        outcomes.append(out)
    message = ("scan budget exceeded: |F_2^20| = 1048576 > "
               f"{fields.DEFAULT_SCAN_BUDGET}")
    assert outcomes == [message] * 3 + [[(5, id(K), 1, 1)]]


def test_find_roots_splits_instead_of_scanning(monkeypatch):
    """x^2 + g + 2 over F49 has its roots in F_{7^4}: factorising and
    splitting costs under a thousand field ops, where a scan of F49 and
    of F_{7^4} costs about 17 000."""
    F49 = make_field(7, 2)
    F49._embed_cache.clear()  # the embedding into F_{7^4} is counted too
    count = count_field_ops(monkeypatch)
    roots = find_roots(UPoly(F49, [9, 0, 1]), 2)
    assert count[0] <= 3000
    assert [(r.field, r.ext_degree, r.multiplicity) for r in roots] == \
        [(make_field(7, 4), 2, 1)] * 2


@pytest.mark.parametrize("spec", ["2^2", "2^3", "3^2", "2^4", "5^2", "3^3",
                                  "7^2", "7^3", "7^4", "2^8", "3^5"])
def test_zech_tables_match_multiplication(spec):
    F = parse_field_spec(spec)
    assert fields._zech_tables(F) == zech_tables_by_multiplication(F)


@pytest.mark.parametrize("p,k", [(7, 4), (2, 8), (3, 5)])
def test_vector_fallback_matches_zech_tables(monkeypatch, p, k):
    table = make_field(p, k)
    table._ensure_tables()
    assert table._exp is not None
    monkeypatch.setattr(fields, "_TABLE_CAP", 16)
    vector = fields.FieldSpec(p, k, table.modulus)
    rng = random.Random(p * 100 + k)
    samples = [0, 1, table.size - 1] + [rng.randrange(table.size)
                                        for _ in range(300)]
    for a in samples:
        b = rng.randrange(table.size)
        for op in ("radd", "rsub", "rmul"):
            assert getattr(vector, op)(a, b) == getattr(table, op)(a, b)
        assert vector.rneg(a) == table.rneg(a)
        e = rng.randrange(-3, 2 * table.size)
        if a:
            assert vector.rinv(a) == table.rinv(a)
        if a or e >= 0:
            assert vector.rpow(a, e) == table.rpow(a, e)
    assert vector._exp is None


@pytest.mark.parametrize("spec", ["Q", "7", "7^2", "7^6"])
def test_backend_contract(spec):
    # a fresh spec, so that a Zech field has not built its tables yet
    made = parse_field_spec(spec)
    F = fields.FieldSpec(made.p, made.k, made.modulus)
    assert F._exp is None
    with pytest.raises(ZeroDivisionError):
        F.rinv(F.rzero)
    assert F._exp is None
    rng = random.Random(spec)
    if F.is_rational:
        mk = lambda: Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
    else:
        mk = lambda: rng.randrange(F.size)
    samples = [F.rzero, F.rone] + [mk() for _ in range(40)]
    for a in samples:
        b = mk()
        assert F.rsub(a, b) == F.radd(a, F.rneg(b))
        assert F.rpow(a, 0) == F.rone
        if a != F.rzero:
            for e in (1, 2, 7, rng.randrange(3, 60)):
                assert F.rpow(a, -e) == F.rpow(F.rinv(a), e)
    assert (F._exp is not None) == (spec == "7^2")
    # read on a field, an op is its backend function: one call per op;
    # read on the class, it takes the field first, as op counters call it
    for op in ("radd", "rneg", "rsub", "rmul"):
        assert getattr(F, op) is getattr(F, "_" + op[1:])
        args = samples[2:3] if op == "rneg" else samples[2:4]
        assert getattr(fields.FieldSpec, op)(F, *args) == getattr(F, op)(*args)


def test_zech_stub_builds_tables_once(monkeypatch):
    """An op read before the field's first operation is its first-use
    stub; a caller that keeps calling the stub builds the tables once."""
    made = make_field(7, 2)
    F = fields.FieldSpec(7, 2, made.modulus)
    builds = [0]
    build = fields._zech_tables

    def counted(spec):
        builds[0] += 1
        return build(spec)
    monkeypatch.setattr(fields, "_zech_tables", counted)
    add = F.radd
    assert F._exp is None  # the bench worker's cold state reads this
    vadd = fields._vector_ops(F)[0]
    rng = random.Random(49)
    for _ in range(100):
        a, b = rng.randrange(F.size), rng.randrange(F.size)
        assert add(a, b) == vadd(a, b)
    assert F._exp is not None and builds[0] == 1
    assert F.radd is not add


def _check_zech_ops(F, values, partners):
    """Every op of the Zech field F on each a in values, and on (a, b) for
    each b in partners(a), against the vector fallback, with rpow at
    exponents that wrap round the group and below zero."""
    vadd, vneg, vsub, vmul, vinv, vpow = fields._vector_ops(F)
    m = F.size - 1
    for a in values:
        assert F.rneg(a) == vneg(a)
        if a:
            assert F.rinv(a) == vinv(a)
        for e in (0, 1, 2, m - 1, m, 2 * m + 3, -1, -2):
            if a or e >= 0:
                want = vpow(vinv(a), -e) if e < 0 else vpow(a, e)
                assert F.rpow(a, e) == want, (a, e)
        for b in partners(a):
            assert F.radd(a, b) == vadd(a, b), (a, b)
            assert F.rsub(a, b) == vsub(a, b), (a, b)
            assert F.rmul(a, b) == vmul(a, b), (a, b)
    assert F._exp is not None


@pytest.mark.parametrize("spec", ["2^2", "2^3", "2^4", "3^2", "3^3", "5^2",
                                  "7^2"])
def test_zech_ops_match_vector_ops_exhaustive(spec):
    F = parse_field_spec(spec)
    _check_zech_ops(F, list(F.elements()), lambda a: F.elements())


@pytest.mark.parametrize("p, k", [(7, 4), (2, 8), (3, 5)])
def test_zech_ops_at_the_table_edges(p, k):
    """The pairs built from 0, 1, -1, g, g^(m-1) and 20 seeded values,
    with b = a and b = -a for each a: a sum of logs with a zero in it
    lands in the zeros after the doubled exp table, 1 + g^i = 0 in the
    same zeros, and differences of logs index both halves of the doubled
    zech table."""
    F = make_field(p, k)
    F._ensure_tables()
    _, vneg, _, _, _, vpow = fields._vector_ops(F)
    g = F._exp[1]
    rng = random.Random(p * 100 + k)
    values = [0, 1, vneg(1), g, vpow(g, F.size - 2)] + [
        rng.randrange(F.size) for _ in range(20)]
    _check_zech_ops(F, values, lambda a: values + [a, vneg(a)])


def test_op_counters_agree(monkeypatch):
    """The test counter and the bench counter both patch the class-level
    ops; stacked, they count the same nonzero number of operations."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    from tracing import OpCounter
    count = count_field_ops(monkeypatch)
    bench = OpCounter()
    bench.install()
    try:
        x = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F4))
        lines, _, _ = lines_on_cubic_surface(x)
        assert len(lines) == 27
        assert count[0] > 0 and sum(bench.counts.values()) == count[0]
        before = count[0], sum(bench.counts.values())
        assert F7.rpow(3, -2) == 4
        # once for rpow and once for the rinv it calls
        assert (count[0], sum(bench.counts.values())) == (before[0] + 2,
                                                          before[1] + 2)
    finally:
        bench.uninstall()
