"""Cohomology of three-term monads of line bundles on the projective line.

A monad O(a) --alpha--> (+) O(b_i) --beta--> O(c) with beta.alpha = 0,
alpha a subbundle inclusion and beta a bundle surjection presents its
middle cohomology E = ker(beta)/im(alpha), a vector bundle on P^1.
Twisted global sections come from 0 -> O(a) -> K -> E -> 0, K = ker(beta):
h^0(E(l)) = dim ker(beta_l) - h^0(O(a+l)) + h^1(O(a+l)) - rank M_l, where
M_l multiplies by the coordinates of alpha over a free basis of K (found
once per monad, degree by degree) and is the Serre dual of
H^1(O(a+l)) -> H^1(K(l)).  The splitting type of E is recovered from
first differences of h^0 over a window wide enough to see every summand.

Either end of the monad may be absent (alpha = None / beta = None); the
middle cohomology is then a quotient or subsheaf of the direct sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from . import linalg
from .errors import IntegrityError, MonadError
from .poly import BinaryForm, gcd_bin, binary_roots


@dataclass(frozen=True)
class MonadP1:
    field: object
    a: Optional[int]
    b: tuple
    c: Optional[int]
    alpha: Optional[tuple]  # alpha[i]: O(a) -> O(b_i), degree b_i - a
    beta: Optional[tuple]   # beta[i]: O(b_i) -> O(c), degree c - b_i

    @property
    def rank(self):
        return (len(self.b) - (1 if self.alpha is not None else 0)
                - (1 if self.beta is not None else 0))

    @property
    def euler_degree(self):
        d = sum(self.b)
        if self.alpha is not None:
            d -= self.a
        if self.beta is not None:
            d -= self.c
        return d


@dataclass(frozen=True)
class SplittingType:
    """Sorted (descending) degrees of the line-bundle summands."""
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts",
                           tuple(sorted(self.parts, reverse=True)))

    @property
    def rank(self):
        return len(self.parts)

    @property
    def degree(self):
        return sum(self.parts)

    def h0(self, twist=0):
        return sum(max(0, d + twist + 1) for d in self.parts)

    def h1(self, twist=0):
        return sum(max(0, -d - twist - 1) for d in self.parts)

    def to_json(self):
        return list(self.parts)

    def __str__(self):
        return "{" + ", ".join(str(d) for d in self.parts) + "}"


def is_very_free_splitting(s: SplittingType) -> bool:
    """Ampleness of the bundle: every summand of degree >= 1."""
    return bool(s.parts) and min(s.parts) >= 1


@dataclass
class MonadReport:
    ok: bool
    failures: list

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(f"{name}: {detail}" for name, detail in self.failures)


def validate_monad(m: MonadP1) -> MonadReport:
    """Check degree bookkeeping, zero composition, and both gcd invariants."""
    failures = []
    F = m.field
    if not m.b:
        return MonadReport(False, [("shape", "empty middle term")])
    if (m.alpha is None) != (m.a is None):
        failures.append(("shape", "alpha and a must be given together"))
    if (m.beta is None) != (m.c is None):
        failures.append(("shape", "beta and c must be given together"))
    if failures:
        return MonadReport(False, failures)
    if m.alpha is not None:
        if len(m.alpha) != len(m.b):
            failures.append(("shape", "alpha length differs from b"))
        else:
            for i, (f, bi) in enumerate(zip(m.alpha, m.b)):
                want = bi - m.a
                if not f.is_zero() and f.degree != want:
                    failures.append(
                        ("degrees", f"alpha[{i}] has degree {f.degree}, "
                                    f"expected {want}"))
                if f.is_zero() and want >= 0 and f.degree >= 0 \
                        and f.degree != want:
                    failures.append(
                        ("degrees", f"zero alpha[{i}] declared at wrong degree"))
    if m.beta is not None:
        if len(m.beta) != len(m.b):
            failures.append(("shape", "beta length differs from b"))
        else:
            for i, (f, bi) in enumerate(zip(m.beta, m.b)):
                want = m.c - bi
                if not f.is_zero() and f.degree != want:
                    failures.append(
                        ("degrees", f"beta[{i}] has degree {f.degree}, "
                                    f"expected {want}"))
    if failures:
        return MonadReport(False, failures)
    if m.alpha is not None and m.beta is not None:
        comp = BinaryForm.zero(F, m.c - m.a)
        for al, be in zip(m.alpha, m.beta):
            if not al.is_zero() and not be.is_zero():
                comp = comp + be * al
        if not comp.is_zero():
            failures.append(("composition", f"beta.alpha = {comp} != 0"))
    if m.alpha is not None:
        g = _common_gcd(F, m.alpha)
        if g is None:
            failures.append(("alpha", "alpha is identically zero"))
        elif g.degree > 0:
            failures.append(("alpha", "alpha not a subbundle inclusion, "
                                      f"common root of {g} " + _root_witness(g)))
    if m.beta is not None:
        g = _common_gcd(F, m.beta)
        if g is None:
            failures.append(("beta", "beta is identically zero"))
        elif g.degree > 0:
            failures.append(("beta", "beta not surjective, "
                                     + _root_witness(g)))
    return MonadReport(not failures, failures)


def _common_gcd(field, forms):
    g = None
    for f in forms:
        if f.is_zero():
            continue
        g = f if g is None else gcd_bin(g, f)
    if g is None:
        return None
    return _to_monic(g)


def _to_monic(g):
    for c in g.coeffs:
        if c:
            return g * c.inverse()
    return g


def _root_witness(g):
    if g.field.is_rational:
        return f"(common factor {g})"
    try:
        roots = binary_roots(g, max(1, g.degree))
    except Exception:
        return f"(common factor {g})"
    if roots:
        u, v, ext, _ = roots[0]
        return f"root ({u}:{v})" + (f" over extension degree {ext}"
                                    if ext > 1 else "")
    return f"(common factor {g})"


# -- graded machinery ----------------------------------------------------


def _form_dim(d):
    return d + 1 if d >= 0 else 0


def _offsets(degs):
    """Where each summand's coefficients start in (+) S_{degs[i]}, then
    the total dimension."""
    return list(accumulate(map(_form_dim, degs), initial=0))


def _raw(f):
    return [c.raw for c in f.coeffs]


def _mult_matrix(field, entries, src, tgt):
    """Matrix of (+)_j S_{src[j]} -> (+)_i S_{tgt[i]}, (h_j) -> (sum_j
    entries[i][j] h_j)_i, each entry a form given by its raw coefficients.

    Coordinates are coefficients, summand by summand; multiplying by the
    s-th monomial of a source piece shifts coefficients by s.
    """
    z = field.rzero
    cols, rows = _offsets(src), _offsets(tgt)
    mat = [[z] * cols[-1] for _ in range(rows[-1])]
    for i, forms in enumerate(entries):
        for j, f in enumerate(forms):
            for s in range(_form_dim(src[j])):
                for k, c in enumerate(f):
                    if c != z:
                        mat[rows[i] + k + s][cols[j] + s] = c
    return mat


class _Cohomology:
    """h^0 of the twists of E = ker(beta)/im(alpha), by the formula in
    the module docstring; K = ker(beta) splits as (+) O(k_j), with free
    generators g_j in degrees t_j = -k_j."""

    def __init__(self, monad):
        report = validate_monad(monad)
        if not report.ok:
            raise MonadError(f"invalid monad: {report}")
        self.m = monad
        self.field = monad.field
        self._beta = [] if monad.beta is None else [
            [_raw(f) for f in monad.beta]]
        self._f = None

    def _kernel_basis(self, t):
        """Basis of ker(beta_t) in W_t = (+) S_{b_i+t}, and dim W_t."""
        m = self.m
        src = [bi + t for bi in m.b]
        tgt = [] if m.beta is None else [m.c + t]
        rows = _mult_matrix(self.field, self._beta, src, tgt)
        wdim = _offsets(src)[-1]
        return linalg.kernel(self.field, rows, wdim), wdim

    def quotient_dim(self, t):
        m = self.m
        dim = len(self._kernel_basis(t)[0])
        return dim - (0 if m.alpha is None else _form_dim(m.a + t))

    def alpha_coordinates(self):
        """[(t_j, f_j)]: alpha = sum_j f_j g_j, g_j running over the free
        generators of ker(beta) in degrees t_j <= -a, f_j raw of degree
        -a - t_j.

        The generators are found degree by degree: in degree t, the
        kernel vectors that pivot after the monomial multiples of the
        generators found so far.
        """
        if self._f is not None:
            return self._f
        F, m = self.field, self.m
        gens = []   # (degree, raw coefficients of each summand)
        for t in range(-max(m.b), -m.a + 1):
            src = [bi + t for bi in m.b]
            mult = _mult_matrix(F, [[g[i] for _, g in gens]
                                    for i in range(len(src))],
                                [t - d for d, _ in gens], src)
            cols = [list(c) for c in zip(*mult)]
            n = len(cols)
            zbasis, wdim = self._kernel_basis(t)
            solver = linalg.Solver(F, cols + zbasis, wdim)
            if solver.pivots[:n] != list(range(n)):
                raise IntegrityError(
                    f"monomial multiples of the generators of ker(beta) "
                    f"are dependent in degree {t}")
            off = _offsets(src)
            for p in solver.pivots[n:]:
                v = zbasis[p - n]
                gens.append((t, [v[i:j] for i, j in zip(off, off[1:])]))
        avec = [r[0] for r in _mult_matrix(F, [[_raw(f)] for f in m.alpha],
                                           [0], src)]
        x = solver.express(avec)
        if x is None:
            raise IntegrityError(
                "alpha is not in the span of the generators of ker(beta)")
        coords = x[:n] + [x[p] for p in solver.pivots[n:]]
        self._f, pos = [], 0
        for d, _ in gens:
            e = _form_dim(-m.a - d)
            self._f.append((d, coords[pos:pos + e]))
            pos += e
        return self._f

    def h0(self, t):
        m = self.m
        h = self.quotient_dim(t)
        if m.alpha is None or t > -m.a - 2:
            return h
        f = self.alpha_coordinates()
        mt = _mult_matrix(self.field, [[fj for _, fj in f]],
                          [d - t - 2 for d, _ in f], [-m.a - t - 2])
        return h + _form_dim(-m.a - t - 2) - linalg.rank(self.field, mt)


_COHOMOLOGY_CACHE = {}


def _cohomology(m: MonadP1) -> _Cohomology:
    coh = _COHOMOLOGY_CACHE.get(m)
    if coh is None:
        coh = _Cohomology(m)
        _COHOMOLOGY_CACHE[m] = coh
        if len(_COHOMOLOGY_CACHE) > 64:
            _COHOMOLOGY_CACHE.pop(next(iter(_COHOMOLOGY_CACHE)))
    return coh


# -- public operations ----------------------------------------------------


def quotient_graded_dim(m: MonadP1, twist: int) -> int:
    """Dimension of the degree-`twist` piece of ker(beta)/im(alpha):
    dim ker(beta_twist) - h^0(O(a + twist)).

    Agrees with h^0(E(twist)) for twist >= -a - 1, where H^1(O(a+twist))
    vanishes.
    """
    return _cohomology(m).quotient_dim(twist)


def h0_twist(m: MonadP1, twist: int) -> int:
    """h^0(E(twist)) = quotient_graded_dim + h^1(O(a+twist)) - rank M_twist.

    M_twist is the multiplication matrix of the coordinates f_j of alpha
    over a free basis of ker(beta), the Serre dual of the map
    H^1(O(a+twist)) -> H^1(ker(beta)(twist)); it has no rows for
    twist >= -a - 1.
    """
    return _cohomology(m).h0(twist)


def splitting_type(m: MonadP1) -> SplittingType:
    """The unique multiset {d_i} with h^0(E(l)) = sum max(0, d_i + l + 1).

    Recovered from first differences of h^0 over a window covering all
    possible summand degrees; window end values, reconstruction of every
    h^0, and Riemann-Roch at five extra twists are all asserted.
    """
    rank = m.rank
    if rank <= 0:
        raise MonadError("monad has middle cohomology of rank <= 0")
    deg_e = m.euler_degree
    # Any summand degree lies in [-spread, deg_e + (rank-1)*spread]; for
    # monads with both maps spread = max(b) suffices, and widening to
    # cover direct sums with negative entries keeps the end assertions.
    spread = max(max(m.b), -min(m.b), 1)
    lo = -(deg_e + (rank - 1) * spread) - 1
    hi = spread + 1
    if lo > hi - 1:
        lo = hi - 1
    h = {}
    for twist in range(lo - 1, hi + 1):
        h[twist] = h0_twist(m, twist)
    delta = {twist: h[twist] - h[twist - 1] for twist in range(lo, hi + 1)}
    if delta[lo] != 0:
        raise IntegrityError(
            f"window assertion failed: delta({lo}) = {delta[lo]} != 0")
    if delta[hi] != rank:
        raise IntegrityError(
            f"window assertion failed: delta({hi}) = {delta[hi]} != {rank}")
    parts = []
    for d in range(-hi, -lo):
        mult = delta[-d] - delta[-d - 1]
        if mult < 0:
            raise IntegrityError(f"negative multiplicity at degree {d}")
        parts.extend([d] * mult)
    s = SplittingType(tuple(parts))
    if s.rank != rank or s.degree != deg_e:
        raise IntegrityError(
            f"splitting {s} does not match rank {rank}, degree {deg_e}")
    for twist in range(lo - 1, hi + 1):
        if h[twist] != s.h0(twist):
            raise IntegrityError(
                f"h^0 reconstruction failed at twist {twist}: "
                f"{h[twist]} != {s.h0(twist)}")
    for twist in range(hi + 1, hi + 6):
        h0 = h0_twist(m, twist)
        if h0 - s.h1(twist) != deg_e + rank * (twist + 1):
            raise IntegrityError(f"Riemann-Roch failed at twist {twist}")
    return s
