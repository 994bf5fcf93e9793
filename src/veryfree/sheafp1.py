"""Cohomology of three-term monads of line bundles on the projective line.

A monad O(a) --alpha--> (+) O(b_i) --beta--> O(c) with beta.alpha = 0,
alpha a subbundle inclusion and beta a bundle surjection presents its
middle cohomology E = ker(beta)/im(alpha), a vector bundle on P^1.
Everything here comes from two passes of one routine that finds the free
generators of a kernel degree by degree (Grothendieck's splitting):
K = ker(beta) = (+) O(-t_j), and, dualising 0 -> O(a) -> K -> E -> 0,
E^dual = ker((f_j): (+) O(t_j) -> O(-a)), f_j the coordinates of alpha
over K's generators; E's summand degrees are the second pass's generator
degrees.  Twisted global sections, the independent cross-check:
h^0(E(l)) = sum_j h^0(O(l - t_j)) - h^0(O(a+l)) + h^1(O(a+l)) - rank M_l,
where M_l multiplies by the f_j and is the Serre dual of
H^1(O(a+l)) -> H^1(K(l)).

Both ends are required: a cokernel or a kernel alone is written as a
monad with a killed summand, one that beta maps onto O(c) or onto which
alpha maps O(a) isomorphically.

One memo, `_COHOMOLOGY_CACHE`, keeps the last monads that passed
`validate_monad`, by value, each with its `_Cohomology` once an operation
asks for one (None until then); `_cohomology` is the one place where an
invalid monad becomes MonadError.  A `MonadP1` compares by value and
keeps its hash once taken, so only its first lookup hashes its forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from . import linalg
from .errors import IntegrityError, MonadError, ScanBudgetExceeded
from .poly import BinaryForm, gcd_bin, binary_roots, _monic_bin


@dataclass(frozen=True)
class MonadP1:
    field: object
    a: int
    b: tuple
    c: int
    alpha: tuple  # alpha[i]: O(a) -> O(b_i), degree b_i - a
    beta: tuple   # beta[i]: O(b_i) -> O(c), degree c - b_i

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The dataclass hash of the fields, taken once, since each cache
        lookup hashes the monad and so every coefficient of its forms."""
        return hash((self.field, self.a, self.b, self.c, self.alpha,
                     self.beta))

    @property
    def rank(self):
        return len(self.b) - 2

    @property
    def euler_degree(self):
        return sum(self.b) - self.a - self.c


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

    def h0(self, twist):
        return sum(max(0, d + twist + 1) for d in self.parts)

    def h1(self, twist):
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
    failures: list

    @property
    def ok(self):
        return not self.failures

    def __str__(self):
        return "; ".join(f"{name}: {detail}" for name, detail in self.failures)


_COHOMOLOGY_CACHE = {}


def validate_monad(m: MonadP1) -> MonadReport:
    """Check the shape, the degree of each nonzero entry, zero composition
    and both gcd invariants.  A zero entry's declared degree is not read:
    `BinaryForm` equality, and so the cohomology cache, ignores it.  The
    last monads that passed are the keys of `_COHOMOLOGY_CACHE`, so
    checking one again is a lookup; a failing verdict is never kept."""
    if m in _COHOMOLOGY_CACHE:
        return MonadReport([])
    if not m.b:
        return MonadReport([("shape", "empty middle term")])
    if None in (m.a, m.c, m.alpha, m.beta):
        return MonadReport([("shape", "a monad needs both ends")])
    failures = []
    for name, maps, wants in (("alpha", m.alpha, [bi - m.a for bi in m.b]),
                              ("beta", m.beta, [m.c - bi for bi in m.b])):
        if len(maps) != len(m.b):
            failures.append(("shape", f"{name} length differs from b"))
            continue
        failures += [("degrees", f"{name}[{i}] has degree {f.degree}, "
                                 f"expected {want}")
                     for i, (f, want) in enumerate(zip(maps, wants))
                     if not f.is_zero() and f.degree != want]
    if failures:
        return MonadReport(failures)
    comp = BinaryForm.zero(m.field, m.c - m.a)
    for al, be in zip(m.alpha, m.beta):
        if not al.is_zero() and not be.is_zero():
            comp = comp + be * al
    if not comp.is_zero():
        failures.append(("composition", f"beta.alpha = {comp} != 0"))
    g = _common_gcd(m.alpha)
    if g is None:
        failures.append(("alpha", "alpha is identically zero"))
    elif g.degree > 0:
        failures.append(("alpha", "alpha not a subbundle inclusion, "
                                  f"common root of {g} " + _root_witness(g)))
    g = _common_gcd(m.beta)
    if g is None:
        failures.append(("beta", "beta is identically zero"))
    elif g.degree > 0:
        failures.append(("beta", "beta not surjective, " + _root_witness(g)))
    if not failures:
        _COHOMOLOGY_CACHE[m] = None
        if len(_COHOMOLOGY_CACHE) > 64:
            _COHOMOLOGY_CACHE.pop(next(iter(_COHOMOLOGY_CACHE)))
    return MonadReport(failures)


def _common_gcd(forms):
    g = None
    for f in forms:
        if f.is_zero():
            continue
        g = f if g is None else gcd_bin(g, f)
    if g is None:
        return None
    return _monic_bin(g)


def _root_witness(g):
    if g.field.is_rational:
        return f"(common factor {g})"
    # a factor of degree <= deg g has its roots within that extension
    try:
        K, u, v, _ = binary_roots(g, g.degree)[0]
    except ScanBudgetExceeded:
        return f"(common factor {g})"
    ext = K.k // g.field.k
    return f"root ({K.rstr(u)}:{K.rstr(v)})" + (
        f" over extension degree {ext}" if ext > 1 else "")


# -- graded machinery ----------------------------------------------------


def _form_dim(d):
    return d + 1 if d >= 0 else 0


def _offsets(degs):
    """Where each summand's coefficients start in (+) S_{degs[i]}, then
    the total dimension."""
    return list(accumulate(map(_form_dim, degs), initial=0))


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
                    if c:
                        mat[rows[i] + k + s][cols[j] + s] = c
    return mat


def _multiples(field, gens, src, t):
    """Columns of the monomial multiples in degree t of the generators
    gens = [(t_j, g_j)], as vectors of (+) S_{src_i + t}."""
    mult = _mult_matrix(field, [[g[i] for _, g in gens]
                                for i in range(len(src))],
                        [t - d for d, _ in gens], [s + t for s in src])
    return [list(c) for c in zip(*mult)]


def _free_generators(field, row, src, tgt):
    """Free generators of ker(row: (+) O(src_i) -> O(tgt)): [(t_j, g_j)],
    g_j the raw coefficients, summand by summand, of a section in degree
    t_j, so that the kernel is (+) O(-t_j) (Grothendieck).

    Found degree by degree from t = -max(src): the new generators in
    degree t are the kernel vectors that pivot after the monomial
    multiples of those found so far.  The search stops at the kernel's
    rank; the generators are then a basis exactly when -sum(t_j) is the
    kernel's degree, which is asserted.
    """
    rank = len(src) - 1
    degree = sum(src) - tgt
    top = max(src)
    gens = []
    # every t_j >= -top and the t_j sum to -degree, which bounds the last
    for t in range(-top, (rank - 1) * top - degree + 1):
        if len(gens) == rank:
            break
        wsrc = [s + t for s in src]
        off = _offsets(wsrc)
        zbasis = linalg.kernel(field, _mult_matrix(field, [row], wsrc,
                                                   [tgt + t]), off[-1])
        cols = _multiples(field, gens, src, t)
        n = len(cols)
        pivots = linalg.rref(field, list(zip(*cols, *zbasis)))[1]
        if pivots[:n] != list(range(n)):
            raise IntegrityError(f"monomial multiples of the generators "
                                 f"are dependent in degree {t}")
        for p in pivots[n:]:
            v = zbasis[p - n]
            gens.append((t, [v[i:j] for i, j in zip(off, off[1:])]))
    if len(gens) != rank or -sum(d for d, _ in gens) != degree:
        raise IntegrityError(
            f"generators in degrees {[d for d, _ in gens]} do not span a "
            f"kernel of rank {rank} and degree {degree}")
    return gens


class _Cohomology:
    """Free generators of K = ker(beta) = (+) O(-t_j), the coordinates of
    alpha over them, and from these h^0 of the twists of E and its
    splitting, by the formulas in the module docstring."""

    def __init__(self, monad):
        self.m = monad
        self.field = monad.field
        self.k = _free_generators(self.field, [f.coeffs for f in monad.beta],
                                  monad.b, monad.c)
        self._f = None

    def quotient_dim(self, t):
        return (sum(_form_dim(t - d) for d, _ in self.k)
                - _form_dim(self.m.a + t))

    def alpha_coordinates(self):
        """[(t_j, f_j)]: alpha = sum_j f_j g_j over the generators g_j of
        K, f_j raw of degree -a - t_j (empty when t_j > -a)."""
        if self._f is None:
            F, m = self.field, self.m
            src = [bi - m.a for bi in m.b]
            avec = [r[0] for r in _mult_matrix(
                F, [[f.coeffs] for f in m.alpha], [0], src)]
            x = linalg.Solver(F, _multiples(F, self.k, m.b, -m.a),
                              _offsets(src)[-1]).express(avec)
            if x is None:
                raise IntegrityError(
                    "alpha is not in the span of the generators of ker(beta)")
            off = _offsets([-m.a - d for d, _ in self.k])
            self._f = [(d, x[i:j])
                       for (d, _), i, j in zip(self.k, off, off[1:])]
        return self._f

    def parts(self):
        """Summand degrees of E: the generator degrees of
        E^dual = ker((f_j): (+) O(t_j) -> O(-a))."""
        f = self.alpha_coordinates()
        return [d for d, _ in _free_generators(
            self.field, [fj for _, fj in f], [d for d, _ in f], -self.m.a)]

    def h0(self, t):
        m = self.m
        h = self.quotient_dim(t)
        if t > -m.a - 2:
            return h
        f = self.alpha_coordinates()
        mt = _mult_matrix(self.field, [[fj for _, fj in f]],
                          [d - t - 2 for d, _ in f], [-m.a - t - 2])
        return h + _form_dim(-m.a - t - 2) - linalg.rank(self.field, mt)


def _cohomology(m: MonadP1) -> _Cohomology:
    """The cached `_Cohomology` of m, made once m passes validation;
    MonadError if it does not."""
    coh = _COHOMOLOGY_CACHE.get(m)
    if coh is None:
        report = validate_monad(m)
        if not report.ok:
            raise MonadError(f"invalid monad: {report}")
        coh = _COHOMOLOGY_CACHE[m] = _Cohomology(m)
    return coh


# -- public operations ----------------------------------------------------


def quotient_graded_dim(m: MonadP1, twist: int) -> int:
    """Dimension of the degree-`twist` piece of ker(beta)/im(alpha):
    dim ker(beta_twist) - h^0(O(a + twist)), the first read off the
    generator degrees of ker(beta).

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
    """The unique multiset {d_i} with E = (+) O(d_i).

    Read off two free-generator passes: K = ker(beta) = (+) O(-t_j), and
    E^dual = ker((f_j): (+) O(t_j) -> O(-a)), f_j the coordinates of
    alpha over K's generators.  Rank and degree, h^0 against h0_twist
    at every twist from -max(d_i) - 2 to -min(d_i) + 1, and Riemann-Roch
    at the five twists after are all asserted.
    """
    rank = m.rank
    if rank <= 0:
        raise MonadError("monad has middle cohomology of rank <= 0")
    s = SplittingType(tuple(_cohomology(m).parts()))
    deg_e = m.euler_degree  # read only once _cohomology has validated m
    if s.rank != rank or s.degree != deg_e:
        raise IntegrityError(
            f"splitting {s} does not match rank {rank}, degree {deg_e}")
    hi = -s.parts[-1] + 1
    for twist in range(-s.parts[0] - 2, hi + 1):
        h0 = h0_twist(m, twist)
        if h0 != s.h0(twist):
            raise IntegrityError(
                f"h^0 reconstruction failed at twist {twist}: "
                f"{h0} != {s.h0(twist)}")
    for twist in range(hi + 1, hi + 6):
        h0 = h0_twist(m, twist)
        if h0 - s.h1(twist) != deg_e + rank * (twist + 1):
            raise IntegrityError(f"Riemann-Roch failed at twist {twist}")
    return s
