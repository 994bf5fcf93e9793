import itertools
import random
from fractions import Fraction

import pytest
from sympy import Poly, symbols

from veryfree import fields
from veryfree.errors import FieldError, ScanBudgetExceeded
from veryfree.fields import (QQ, UPoly, cube_root, embed,
                             find_roots, join_field, make_field,
                             parse_field_spec, format_field_spec)

from helpers import F2, F3, F4, F5, F7


def test_make_field_prime_and_rational():
    assert make_field(7, 1).size == 7
    assert make_field(0, 1) is QQ
    assert QQ.is_rational


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


def test_field_axioms_exhaustive_f4():
    for a in F4.elements():
        for b in F4.elements():
            for c in F4.elements():
                x, y, z = F4.from_raw(a), F4.from_raw(b), F4.from_raw(c)
                assert x + y == y + x
                assert x * (y + z) == x * y + x * z
                if a != 0:
                    assert x * x.inverse() == F4.one


def test_field_axioms_random():
    rng = random.Random(7)
    for field in (F7, make_field(5, 2), make_field(3, 3), QQ):
        for _ in range(25):
            if field.is_rational:
                from fractions import Fraction
                mk = lambda: field.scalar(Fraction(rng.randrange(-30, 30),
                                                   rng.randrange(1, 12)))
            else:
                mk = lambda: field.from_raw(rng.randrange(field.size))
            a, b, c = mk(), mk(), mk()
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == field.one


def test_frobenius_stability():
    for field in (F4, make_field(2, 4), make_field(3, 2), F7):
        for raw in field.elements():
            x = field.from_raw(raw)
            assert x ** field.size == x


def test_scalar_canonical_strings_roundtrip():
    F16 = make_field(2, 4)
    from veryfree.poly import scalar_from_string
    for raw in F16.elements():
        x = F16.from_raw(raw)
        assert scalar_from_string(str(x), F16) == x
    assert str(QQ.scalar(3) / QQ.scalar(4)) == "3/4"


def test_embed_examples():
    F16 = make_field(2, 4)
    assert embed(F4.one, F16) == F16.one
    img = embed(F4.gen, F16)
    assert img * img + img + F16.one == F16.zero  # root of x^2 + x + 1


def test_embed_is_homomorphism():
    F16 = make_field(2, 4)
    rng = random.Random(3)
    for _ in range(10):
        a = F4.from_raw(rng.randrange(4))
        b = F4.from_raw(rng.randrange(4))
        assert embed(a * b, F16) == embed(a, F16) * embed(b, F16)
        assert embed(a + b, F16) == embed(a, F16) + embed(b, F16)


def test_embed_tower_compatibility():
    F16, F256 = make_field(2, 4), make_field(2, 8)
    for raw in F4.elements():
        x = F4.from_raw(raw)
        assert embed(embed(x, F16), F256) == embed(x, F256)


def test_embed_rejects_bad_targets():
    with pytest.raises(FieldError):
        embed(F4.gen, make_field(2, 3))
    with pytest.raises(FieldError):
        embed(F4.gen, make_field(3, 2))


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldError):
        F7.one + F5.one


def test_join_field():
    assert join_field(F4, make_field(2, 3)).k == 6
    assert join_field(F7, F7) is F7


def test_field_spec_strings():
    assert parse_field_spec("7") is F7
    assert parse_field_spec("2^4") is make_field(2, 4)
    assert parse_field_spec("Q") is QQ
    assert format_field_spec(make_field(2, 4)) == "2^4"


def test_find_roots_examples():
    f = UPoly.from_scalars(F7, [-1, 0, 1])          # x^2 - 1
    roots = find_roots(f, 1)
    assert {str(r.value) for r in roots} == {"1", "6"}

    g = UPoly.from_scalars(F3, [1, 0, 1])           # x^2 + 1
    roots = find_roots(g, 2)
    assert all(r.ext_degree == 2 for r in roots) and len(roots) == 2
    # oracle: scan all 9 elements of F_9 directly
    F9 = make_field(3, 2)
    direct = [x for x in F9.elements()
              if F9.radd(F9.rmul(x, x), 1) == 0]
    assert {r.value.raw for r in roots} == set(direct)


def test_find_roots_cube_root_minimal_field():
    # roots of x^3 - 2 exist over F_{7^k} iff 2 is a cube there;
    # oracle: cube every element of F_7 and F_49
    for k in (1, 2):
        K = make_field(7, k)
        cubes = {K.rpow(x, 3) for x in K.elements()}
        assert K.rfrom_int(2) not in cubes
    f = UPoly.from_scalars(F7, [-2, 0, 0, 1])
    roots = find_roots(f, 3)
    assert len(roots) == 3 and all(r.ext_degree == 3 for r in roots)


def test_find_roots_multiplicity_and_completeness():
    rng = random.Random(11)
    for _ in range(10):
        K = F5
        rs = [K.from_raw(rng.randrange(5)) for _ in range(3)]
        poly = UPoly.from_scalars(K, [1])
        for r in rs:
            poly = poly * UPoly.from_scalars(K, [-r, K.one])
        roots = find_roots(poly, 1)
        assert sum(r.multiplicity for r in roots) == 3
        assert {r.value for r in roots} == set(rs)


def test_find_roots_budget():
    f = UPoly.from_scalars(F7, [-2, 0, 0, 1])
    with pytest.raises(ScanBudgetExceeded):
        find_roots(f, 6, budget=100)


def test_cube_root_everywhere():
    for field in (F7, make_field(7, 2), F2, F4, make_field(5, 1)):
        for raw in list(field.elements())[:12]:
            a = field.from_raw(raw)
            r = cube_root(a)
            target = a if r.field is field else embed(a, r.field)
            assert r ** 3 == target


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
