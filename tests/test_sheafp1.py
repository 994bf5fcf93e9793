import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from veryfree import linalg, sheafp1
from veryfree.constructions import (curve_in_surface_coordinates,
                                    nodal_surface_form, normal_form_surface,
                                    pullback_tangent,
                                    sample_admissible_completion)
from veryfree.errors import MonadError, ScanBudgetExceeded
from veryfree.fields import make_field
from veryfree.poly import (BinaryForm, binary_roots, compose_with_curve,
                           parse_binary_form, parse_poly, partial_derivative)
from veryfree.sheafp1 import (MonadP1, SplittingType, h0_twist,
                              is_very_free_splitting, quotient_graded_dim,
                              splitting_type, validate_monad)

from helpers import (F5, F7, QQ, cold_memos, count_field_ops,
                     random_invertible)


def nodal_monad(field, quadric_text="X0^2"):
    f = parse_poly(f"X0*X1*X2+X1^3+X2^3+X3*({quadric_text})", 4, field)
    h = [parse_binary_form(s, field)
         for s in ("-U^3-V^3", "U^2*V", "U*V^2")]
    h.append(BinaryForm.zero(field, 3))
    beta = tuple(compose_with_curve(partial_derivative(f, i), h)
                 for i in range(4))
    return MonadP1(field, 0, (3, 3, 3, 3), 9, tuple(h), beta), f, h


def oracle_monad(field, d1, d2, c=4):
    """Monad built so the middle cohomology is O(d1) + O(d2) by design."""
    alpha = (BinaryForm.zero(field, d1), BinaryForm.zero(field, d2),
             BinaryForm.monomial(field, 0, 0), BinaryForm.zero(field, c))
    beta = (BinaryForm.zero(field, c - d1), BinaryForm.zero(field, c - d2),
            BinaryForm.zero(field, c), BinaryForm.monomial(field, 0, 0))
    return MonadP1(field, 0, (d1, d2, 0, c), c, alpha, beta)


def with_killed_summand(field, a, b, alpha, c):
    """coker(alpha: O(a) -> (+) O(b_i)) as a monad: b plus a summand O(c)
    that beta maps isomorphically onto O(c) and alpha misses, so
    ker(beta) = (+) O(b_i) and the middle cohomology is the cokernel."""
    z = BinaryForm.zero
    return MonadP1(field, a, b + (c,), c, alpha + (z(field, c - a),),
                   tuple(z(field, c - bi) for bi in b)
                   + (BinaryForm.monomial(field, 0, 0),))


def mirror_killed_summand(field, a, b, beta, c):
    """ker(beta: (+) O(b_i) -> O(c)) as a monad, the mirror of
    with_killed_summand: b plus a summand O(a) onto which alpha maps O(a)
    isomorphically and which beta kills, so the middle cohomology is the
    kernel."""
    z = BinaryForm.zero
    return MonadP1(field, a, b + (a,), c,
                   tuple(z(field, bi - a) for bi in b)
                   + (BinaryForm.monomial(field, 0, 0),),
                   beta + (z(field, c - a),))


def test_validate_nodal_monad():
    m, _, _ = nodal_monad(F7)
    assert validate_monad(m).ok


def test_validate_detects_beta_common_factor():
    """The witness names the common root; over F49 it is printed in g,
    not as the raw index 7 of g."""
    F49 = make_field(7, 2)
    for field, factor, root in ((F7, "U", "root (0:1)"),
                                (F49, "U-g*V", "root (g:1)")):
        m, _, h = nodal_monad(field)
        u = parse_binary_form(factor, field)
        beta = tuple(b * u for b in m.beta)
        bad = MonadP1(field, 0, (3, 3, 3, 3), 10, m.alpha, beta)
        rep = validate_monad(bad)
        assert not rep.ok
        assert any(name == "beta" and root in detail
                   for name, detail in rep.failures), rep.failures


def test_validate_detects_alpha_common_root():
    alpha = tuple(parse_binary_form(s, F7)
                  for s in ("U^2*V", "U*V^2", "U^3", "U^2*V"))
    bad = with_killed_summand(F7, 0, (3, 3, 3, 3), alpha, 3)
    rep = validate_monad(bad)
    assert not rep.ok and any(n == "alpha" for n, _ in rep.failures)


def test_validate_detects_nonzero_composition():
    one3 = parse_binary_form("U^3", F7)
    m = MonadP1(F7, 0, (3,), 6, (one3,), (one3,))
    rep = validate_monad(m)
    assert not rep.ok and any(n == "composition" for n, _ in rep.failures)


def _broken_end(end, kind):
    """The nodal monad (alpha of degree 3, beta of degree 6) with one end
    cut short, given a nonzero entry of the wrong degree, or zeroed."""
    m, _, _ = nodal_monad(F7)
    want = 3 if end == "alpha" else 6
    maps = {"length": getattr(m, end)[:-1],
            "degree": (parse_binary_form(f"U^{want - 1}", F7),)
            + getattr(m, end)[1:],
            "zero": (BinaryForm.zero(F7, want),) * 4}[kind]
    return replace(m, **{end: maps})


@pytest.mark.parametrize("end", ["alpha", "beta"])
@pytest.mark.parametrize("kind, failure", [
    ("length", ("shape", "{end} length differs from b")),
    ("degree", ("degrees", "{end}[0] has degree {d}, expected {want}")),
    ("zero", ("{end}", "{end} is identically zero")),
])
def test_validate_names_each_failure_of_either_end(end, kind, failure):
    want = 3 if end == "alpha" else 6
    name, detail = (t.format(end=end, d=want - 1, want=want)
                    for t in failure)
    assert validate_monad(_broken_end(end, kind)).failures == [(name, detail)]


def test_validate_refuses_an_empty_middle_term():
    m = MonadP1(F7, 0, (), 0, (), ())
    assert validate_monad(m).failures == [("shape", "empty middle term")]


@pytest.mark.parametrize("end", ["alpha", "beta"])
def test_one_ended_monad_is_refused(end):
    """A missing end is one shape failure, and every operation refuses
    the monad before it reads the absent end."""
    m, _, _ = nodal_monad(F7)
    m = replace(m, **{end: None, "a" if end == "alpha" else "c": None})
    assert validate_monad(m).failures == [("shape",
                                           "a monad needs both ends")]
    for op in (splitting_type, lambda m: h0_twist(m, 0),
               lambda m: quotient_graded_dim(m, 0)):
        with pytest.raises(MonadError, match="a monad needs both ends"):
            op(m)


@pytest.mark.parametrize("first", ["declared at 0", "declared at 3"])
def test_verdict_ignores_a_zero_entry_declared_degree(monkeypatch, first):
    """Two monads that differ only in the declared degree of a zero alpha
    entry compare and hash equal, so the cohomology cache treats them as
    one; validation and the splitting agree on both, whichever runs
    first."""
    beta = tuple(parse_binary_form(s, F7) for s in ("U^5", "V^5"))
    m0 = mirror_killed_summand(F7, 0, (0, 0), beta, 5)
    m3 = replace(m0, alpha=(BinaryForm.zero(F7, 3),) + m0.alpha[1:])
    assert m0 == m3 and hash(m0) == hash(m3)
    cold_memos(monkeypatch)
    order = (m0, m3) if first == "declared at 0" else (m3, m0)
    assert [validate_monad(m).ok for m in order] == [True, True]
    assert [splitting_type(m) for m in order] == [SplittingType((-5,))] * 2


QUARTIC_F49 = "U^4+U*V^3+g*V^4"


@pytest.mark.parametrize("field, factor", [
    (QQ, "U^2+V^2"), (make_field(7, 2), QUARTIC_F49)],
    ids=["over Q", "past the scan budget"])
def test_root_witness_falls_back_to_the_common_factor(field, factor):
    """With no roots to name, over Q or when the roots of the common
    factor lie in a field past the scan budget (an irreducible quartic
    over F49 has them in F_{7^8}), the witness is the factor itself."""
    g = parse_binary_form(factor, field)
    if not field.is_rational:
        with pytest.raises(ScanBudgetExceeded):
            binary_roots(g, g.degree)
    d = g.degree + 1
    ends = tuple(g * parse_binary_form(s, field) for s in ("U", "V"))
    alpha_side = with_killed_summand(field, 0, (d, d), ends, d)
    beta_side = mirror_killed_summand(field, 0, (0, 0), ends, d)
    assert validate_monad(alpha_side).failures == [
        ("alpha", f"alpha not a subbundle inclusion, common root of {g} "
                  f"(common factor {g})")]
    assert validate_monad(beta_side).failures == [
        ("beta", f"beta not surjective, (common factor {g})")]


def test_root_witness_names_the_extension_degree():
    """When the common factor U^2 + V^2 over F7 has its roots only in
    F49, the witness names the least root there and the degree of F49
    over F7."""
    g = parse_binary_form("U^2+V^2", F7)
    ends = tuple(g * parse_binary_form(s, F7) for s in ("U", "V"))
    alpha_side = with_killed_summand(F7, 0, (3, 3), ends, 3)
    beta_side = mirror_killed_summand(F7, 0, (0, 0), ends, 3)
    root = "root (g:1) over extension degree 2"
    assert validate_monad(alpha_side).failures == [
        ("alpha", f"alpha not a subbundle inclusion, common root of {g} "
                  + root)]
    assert validate_monad(beta_side).failures == [
        ("beta", f"beta not surjective, {root}")]


def test_quotient_graded_dims():
    m, _, _ = nodal_monad(F7)
    assert quotient_graded_dim(m, -3) == 0
    assert quotient_graded_dim(m, 0) == 5
    # O(2) alone: the cokernel of (1, 0): O -> O + O(2)
    degenerate = with_killed_summand(
        F7, 0, (0, 2),
        (BinaryForm.monomial(F7, 0, 0), BinaryForm.zero(F7, 2)), 2)
    assert quotient_graded_dim(degenerate, 1) == 4


def test_h0_examples():
    m, _, _ = nodal_monad(F7)           # O(2) + O(1)
    assert h0_twist(m, -2) == 1
    assert h0_twist(m, -9) == 0
    cusp = oracle_monad(F7, 3, 0)       # O(3) + O
    assert h0_twist(cusp, -2) == 2


def test_splitting_examples():
    m, _, _ = nodal_monad(F7)
    s = splitting_type(m)
    assert s.parts == (2, 1) and is_very_free_splitting(s)
    assert not is_very_free_splitting(SplittingType((3, 0)))
    assert not is_very_free_splitting(SplittingType((2, -1)))


def test_splitting_line_on_fermat():
    # oracle: a line on a smooth cubic surface has self-intersection -1
    # and anticanonical degree 1, forcing O(2) + O(-1)
    f = parse_poly("X0^3+X1^3+X2^3+X3^3", 4, F7)
    h = [BinaryForm(F7, 1, [1, 0]),
         BinaryForm(F7, 1, [-1, 0]),
         BinaryForm(F7, 1, [0, 1]),
         BinaryForm(F7, 1, [0, -1])]
    assert compose_with_curve(f, h).is_zero()
    beta = tuple(compose_with_curve(partial_derivative(f, i), h)
                 for i in range(4))
    m = MonadP1(F7, 0, (1, 1, 1, 1), 3, tuple(h), beta)
    assert splitting_type(m).parts == (2, -1)


def test_direct_sum_oracle_20_random_pairs():
    rng = random.Random(20)
    for _ in range(20):
        d1 = rng.randrange(-3, 6)
        d2 = rng.randrange(-3, 6)
        m = oracle_monad(F5, d1, d2)
        assert splitting_type(m).parts == tuple(sorted((d1, d2),
                                                       reverse=True))


def test_agreement_with_graded_dims_in_stable_range():
    m, _, _ = nodal_monad(F7)
    for twist in range(-1, 6):
        assert h0_twist(m, twist) == quotient_graded_dim(m, twist)


def test_riemann_roch_at_extra_twists():
    for mk in ((2, 1), (3, 0), (0, -2)):
        m = oracle_monad(F7, *mk)
        s = splitting_type(m)
        for twist in range(-6, 7):
            h0 = h0_twist(m, twist)
            h1 = s.h1(twist)
            assert h0 - h1 == s.degree + s.rank * (twist + 1)


def test_reconstruction_of_h0_from_splitting():
    m, _, _ = nodal_monad(F5)
    s = splitting_type(m)
    for twist in range(-5, 5):
        assert h0_twist(m, twist) == s.h0(twist)


def test_splitting_invariance_under_reparametrization():
    rng = random.Random(14)
    m, f, h = nodal_monad(F7)
    base = splitting_type(m).parts
    for _ in range(5):
        (a, b), (c, d) = [[s.raw for s in row]
                          for row in random_invertible(F7, 2, rng)]
        h2 = [comp.reparametrize(a, b, c, d) for comp in h]
        beta2 = tuple(compose_with_curve(partial_derivative(f, i), h2)
                      for i in range(4))
        m2 = MonadP1(F7, 0, (3, 3, 3, 3), 9, tuple(h2), beta2)
        assert splitting_type(m2).parts == base


def test_splitting_over_q():
    m, _, _ = nodal_monad(QQ)
    assert splitting_type(m).parts == (2, 1)


def test_invalid_monad_rejected_by_operations():
    one3 = parse_binary_form("U^3", F7)
    bad = MonadP1(F7, 0, (3,), 6, (one3,), (one3,))
    with pytest.raises(MonadError, match="invalid monad"):
        quotient_graded_dim(bad, 0)


def test_an_invalid_monad_is_refused_on_every_call():
    """A failing verdict is never kept: the second check of an invalid
    monad runs in full and refuses it again, and so does each operation."""
    nodal, _, _ = nodal_monad(F7)
    bad = replace(nodal, beta=nodal.beta[:3] + (nodal.beta[0],))
    first = validate_monad(bad).failures
    assert [name for name, _ in first] == ["beta"]
    for _ in range(2):
        assert validate_monad(bad).failures == first
        with pytest.raises(MonadError, match="invalid monad: beta"):
            splitting_type(bad)
    assert bad not in sheafp1._COHOMOLOGY_CACHE
    assert validate_monad(nodal).ok and nodal in sheafp1._COHOMOLOGY_CACHE
    assert validate_monad(nodal).ok


def test_an_equal_monad_finds_the_same_cache_entry(monkeypatch):
    """Two monads built separately from equal forms hash and compare
    equal and find one cohomology cache entry.  Each hashes its forms
    once and keeps the hash, so a second lookup hashes no form."""
    m1, m2 = nodal_monad(F7)[0], nodal_monad(F7)[0]
    assert m1 is not m2 and m1 == m2
    form_hash, hashed = BinaryForm.__hash__, []
    monkeypatch.setattr(BinaryForm, "__hash__",
                        lambda f: hashed.append(f) or form_hash(f))
    assert hash(m1) == hash(m2) and len(hashed) == 16
    coh = sheafp1._cohomology(m1)
    assert sheafp1._cohomology(m2) is coh
    assert list(sheafp1._COHOMOLOGY_CACHE) == [m1]
    assert len(hashed) == 16


SPLITTING_FIELDS = {"Q": QQ, "F7": F7, "F7^6": make_field(7, 6)}


def splitting_backend_input(name):
    """The splitting_backends benchmark's seed-7 normal form over the
    named field: its (Q, L, A) samples are drawn in turn over Q, F7 and
    F_{7^6} from one generator, so each is drawn after the ones before."""
    rng = random.Random(7)
    for key, F in SPLITTING_FIELDS.items():
        nf = nodal_surface_form(F, *sample_admissible_completion(F, rng))
        if key == name:
            return normal_form_surface(nf), curve_in_surface_coordinates(nf)


@pytest.mark.parametrize("name, bound", [("Q", 325), ("F7", 275),
                                         ("F7^6", 325)],
                         ids=["Q", "F7", "F7^6"])
def test_splitting_field_op_count(monkeypatch, name, bound):
    """Tangent pullback and splitting type of the benchmark's seed-7
    normal forms, with cold memos: 325, 275 and 325 raw field operations
    over Q, F7 and F_{7^6}; 630, 558 and 630 when the elimination
    computed the pivot column, scaled pivots equal to one and formed the
    pivot product on every reduction."""
    x, curve = splitting_backend_input(name)
    cold_memos(monkeypatch)
    count = count_field_ops(monkeypatch)
    assert splitting_type(pullback_tangent(x, curve)).parts == (2, 1)
    assert count[0] <= bound


def test_serialization():
    assert SplittingType((1, 2)).to_json() == [2, 1]


def conjugate(m, rng):
    """m under three seeded elementary graded automorphisms g = I + f.e_ij
    of the middle term (f of degree b_i - b_j >= 0): alpha -> g.alpha,
    beta -> beta.g^-1.  The first two mix a nonzero alpha entry and a
    nonzero beta entry into the others, so the result is not diagonal."""
    F, b = m.field, m.b
    alpha, beta = list(m.alpha), list(m.beta)
    n = len(b)
    j_alpha = next(j for j in range(n) if not alpha[j].is_zero())
    i_beta = next(i for i in range(n) if not beta[i].is_zero())
    steps = [(rng.choice([i for i in range(n)
                          if i != j_alpha and b[i] >= b[j_alpha]]), j_alpha),
             (i_beta, rng.choice([j for j in range(n)
                                  if j != i_beta and b[i_beta] >= b[j]])),
             rng.choice([(i, j) for i in range(n) for j in range(n)
                         if i != j and b[i] >= b[j]])]
    for i, j in steps:
        d = b[i] - b[j]
        f = BinaryForm(F, d, [F.from_raw(rng.randrange(1, F.size))]
                       + [F.from_raw(rng.randrange(F.size))
                          for _ in range(d)])
        alpha[i] = alpha[i] + f * alpha[j]
        beta[j] = beta[j] - f * beta[i]
    return MonadP1(F, m.a, b, m.c, tuple(alpha), tuple(beta))


@pytest.mark.parametrize("make", [
    lambda: nodal_monad(F7)[0],
    lambda: oracle_monad(F7, 2, 1),
    lambda: oracle_monad(F7, 3, 0),
    lambda: oracle_monad(F7, 0, -2),
    lambda: oracle_monad(F5, 4, -1),
], ids=["nodal", "O2+O1", "O3+O0", "O0+O-2", "O4+O-1"])
def test_splitting_invariant_under_graded_conjugation(make):
    m = make()
    base = splitting_type(m)
    twists = range(-10, 8)
    h0 = [h0_twist(m, t) for t in twists]
    rng = random.Random(31)
    for _ in range(3):
        m2 = conjugate(m, rng)
        assert validate_monad(m2).ok
        assert sum(not f.is_zero() for f in m2.alpha) > 1
        assert sum(not f.is_zero() for f in m2.beta) > 1
        assert splitting_type(m2) == base
        assert [h0_twist(m2, t) for t in twists] == h0


def test_beta_only_monad_of_negative_degree():
    # ker((U^5, V^5): O^2 -> O(5)) = O(-5), below every summand of b
    beta = tuple(parse_binary_form(s, F7) for s in ("U^5", "V^5"))
    m = mirror_killed_summand(F7, 0, (0, 0), beta, 5)
    assert validate_monad(m).ok
    assert splitting_type(m) == SplittingType((-5,))


@st.composite
def block_monads(draw):
    """b = (0, 0, a+m, a+m, free...), c = k, beta = (U^k, V^k, 0, ...) and
    alpha = (0, 0, U^m, V^m, 0, ...): ker(beta) on the first block is
    O(-k) and coker(alpha) on the second is O(a+2m), so
    E = O(-k) + O(a+2m) + (+) O(free)."""
    a = draw(st.integers(-2, 2))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    free = tuple(draw(st.lists(st.integers(-3, 4), max_size=2)))
    b = (0, 0, a + m, a + m) + free
    z = BinaryForm.zero
    alpha = (z(F7, -a), z(F7, -a), parse_binary_form(f"U^{m}", F7),
             parse_binary_form(f"V^{m}", F7)) \
        + tuple(z(F7, d - a) for d in free)
    beta = (parse_binary_form(f"U^{k}", F7), parse_binary_form(f"V^{k}", F7),
            z(F7, k - a - m), z(F7, k - a - m)) \
        + tuple(z(F7, k - d) for d in free)
    return MonadP1(F7, a, b, k, alpha, beta), (-k, a + 2 * m) + free


@settings(derandomize=True, deadline=None, max_examples=80)
@given(mk=block_monads(), seed=st.integers(0, 2**16))
def test_splitting_matches_block_monad_oracle(mk, seed):
    m, degs = mk
    want = SplittingType(degs)
    m2 = conjugate(m, random.Random(seed))
    assert validate_monad(m).ok and validate_monad(m2).ok
    assert splitting_type(m) == want
    assert splitting_type(m2) == want


UV_QUADRICS = ("U^2", "V^2", "U*V")


def quadric_alpha_monad(field, c):
    """coker((U^2, V^2, UV): O -> O(2)^3) = O(3)^2 with a killed summand
    O(c); its graded quotient lags h^0 at twists -3 and -2 (0 < 2 and
    3 < 4)."""
    alpha = tuple(parse_binary_form(s, field) for s in UV_QUADRICS)
    return with_killed_summand(field, 0, (2, 2, 2), alpha, c)


def quadric_beta_monad(field, a):
    """ker((U^2, V^2, UV): O^3 -> O(2)) = O(-1)^2 with a killed summand
    O(a)."""
    beta = tuple(parse_binary_form(s, field) for s in UV_QUADRICS)
    return mirror_killed_summand(field, a, (0, 0, 0), beta, 2)


def _lagging_cases():
    rng = random.Random(5)
    F49 = make_field(7, 2)
    yield quadric_alpha_monad(F7, 3), (3, 3), True
    yield quadric_alpha_monad(QQ, 2), (3, 3), True
    for F in (F7, F49):
        for _ in range(2):
            m = conjugate(quadric_alpha_monad(F, 2), rng)
            assert validate_monad(m).ok
            yield m, (3, 3), True
    yield quadric_beta_monad(F7, 0), (-1, -1), False
    yield quadric_beta_monad(QQ, -1), (-1, -1), False


def test_h0_where_graded_quotient_lags():
    for m, parts, lags in _lagging_cases():
        s = SplittingType(parts)
        assert splitting_type(m) == s
        assert [h0_twist(m, t) for t in range(-10, 8)] \
            == [s.h0(t) for t in range(-10, 8)]
        for t in (-3, -2):
            q = quotient_graded_dim(m, t)
            assert (q < h0_twist(m, t)) if lags else q == h0_twist(m, t)


def _serre_dual_h0(a, b, alpha, twist):
    """h^0(E(t)) for E = coker(alpha: O(a) -> (+) O(b_i)): by Riemann-Roch
    and Serre duality, deg E + rank (t + 1) + h^0(E^dual(-t-2)), with
    E^dual = ker(alpha^dual) and alpha^dual: (+) S_{-b_i-t-2} -> S_{-a-t-2},
    (h_i) -> sum alpha_i h_i.
    """
    F = alpha[0].field
    tgt = -a - twist - 2
    srcs = [-bi - twist - 2 for bi in b]
    ncols = sum(max(0, d + 1) for d in srcs)
    rows = [[F.rzero] * ncols for _ in range(max(0, tgt + 1))]
    col = 0
    for f, d in zip(alpha, srcs):
        for s in range(d + 1):
            for k, c in enumerate(f.coeffs):
                rows[k + s][col] = c
            col += 1
    h1 = len(linalg.kernel(F, rows, ncols))
    return sum(b) - a + (len(b) - 1) * (twist + 1) + h1


@st.composite
def alpha_only_ends(draw):
    """(a, b, alpha) of an inclusion alpha: O(a) -> (+) O(b_i)."""
    a = draw(st.integers(-2, 2))
    gaps = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
    alpha = tuple(
        BinaryForm(F7, g, [F7.from_raw(x) for x in draw(
            st.lists(st.integers(0, 6), min_size=g + 1, max_size=g + 1))])
        for g in gaps)
    b = tuple(a + g for g in gaps)
    assume(validate_monad(with_killed_summand(F7, a, b, alpha, max(b))).ok)
    return a, b, alpha


@settings(derandomize=True, deadline=None, max_examples=150)
@given(ends=alpha_only_ends(), extra=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_h0_matches_serre_duality_oracle(ends, extra, seed):
    a, b, alpha = ends
    m = with_killed_summand(F7, a, b, alpha, max(b))
    m2 = conjugate(with_killed_summand(F7, a, b, alpha, max(b) + extra),
                   random.Random(seed))
    assert validate_monad(m2).ok
    for twist in range(-a - 10, -a + 3):
        want = _serre_dual_h0(a, b, alpha, twist)
        assert h0_twist(m, twist) == want
        assert h0_twist(m2, twist) == want
