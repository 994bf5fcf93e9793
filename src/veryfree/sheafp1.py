"""Cohomology of three-term monads of line bundles on the projective line.

A monad O(a) --alpha--> (+) O(b_i) --beta--> O(c) with beta.alpha = 0,
alpha a subbundle inclusion and beta a bundle surjection presents its
middle cohomology E = ker(beta)/im(alpha), a vector bundle on P^1.
Twisted global sections h^0(E(l)) are computed from the graded module
T = ker/im by saturation: dim Hom(m^k, T)_l, m = (U, V), stabilized over
k.  The splitting type of E is recovered from first differences of h^0
over a window wide enough to see every summand.

Either end of the monad may be absent (alpha = None / beta = None); the
middle cohomology is then a quotient or subsheaf of the direct sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import IntegrityError, MonadError, SaturationError
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


class _Piece:
    __slots__ = ("dim", "reps", "solver", "tcols")

    def __init__(self, dim, reps, solver, tcols):
        self.dim = dim
        self.reps = reps       # T-basis representatives as W-vectors
        self.solver = solver   # expresses W-vectors over [A-cols | Z-basis]
        self.tcols = tcols     # solver columns holding the reps


class _Cohomology:
    """Graded pieces of T = ker(beta)/im(alpha) with U/V multiplication."""

    def __init__(self, monad):
        report = validate_monad(monad)
        if not report.ok:
            raise MonadError(f"invalid monad: {report}")
        self.m = monad
        self.field = monad.field
        self._pieces = {}
        self._mul = {}

    def _w_layout(self, deg):
        sizes = [_form_dim(bi + deg) for bi in self.m.b]
        offsets = []
        total = 0
        for s in sizes:
            offsets.append(total)
            total += s
        return sizes, offsets, total

    def piece(self, deg) -> _Piece:
        if deg in self._pieces:
            return self._pieces[deg]
        F = self.field
        m = self.m
        sizes, offsets, wdim = self._w_layout(deg)
        z = F.rzero
        # kernel of beta (all of W when beta or its target piece is absent)
        rows = []
        if m.beta is not None and wdim > 0:
            rows = [[z] * wdim for _ in range(_form_dim(m.c + deg))]
            for i, (bi, be) in enumerate(zip(m.b, m.beta)):
                if sizes[i] == 0 or be.is_zero():
                    continue
                for t, coeff in enumerate(be.coeffs):
                    if not coeff:
                        continue
                    for j in range(sizes[i]):
                        rows[t + j][offsets[i] + j] = F.radd(
                            rows[t + j][offsets[i] + j], coeff.raw)
        zbasis = linalg.kernel(F, rows, wdim)
        # image of alpha
        acols = []
        if m.alpha is not None:
            adim = _form_dim(m.a + deg)
            for s in range(adim):
                col = [z] * wdim
                for i, (bi, al) in enumerate(zip(m.b, m.alpha)):
                    if sizes[i] == 0 or al.is_zero():
                        continue
                    for t, coeff in enumerate(al.coeffs):
                        if coeff:
                            col[offsets[i] + t + s] = F.radd(
                                col[offsets[i] + t + s], coeff.raw)
                acols.append(col)
        # T basis: the Z vectors among the solver's pivot columns, each
        # independent modulo span(acols) and the Z vectors before it
        # (the acols, independent since alpha is injective, all pivot)
        n_amb = len(acols)
        solver = linalg.Solver(F, acols + zbasis, wdim) if wdim else None
        tcols = [p for p in solver.pivots if p >= n_amb] if solver else []
        reps = [zbasis[p - n_amb] for p in tcols]
        piece = _Piece(len(reps), reps, solver, tcols)
        self._pieces[deg] = piece
        return piece

    def reduce(self, deg, w):
        """T-coordinates of a W_deg vector lying in ker(beta)."""
        piece = self.piece(deg)
        if piece.solver is None:
            if any(x != self.field.rzero for x in w):
                raise IntegrityError("nonzero vector in empty degree")
            return []
        coords = piece.solver.express(w)
        if coords is None:
            raise IntegrityError("vector not in ker(beta) + im(alpha)")
        return [coords[p] for p in piece.tcols]

    def mul_matrices(self, deg):
        """(MU, MV): matrices of U,V: T_deg -> T_{deg+1}, columns = images."""
        if deg in self._mul:
            return self._mul[deg]
        src = self.piece(deg)
        dst = self.piece(deg + 1)
        sizes, offsets, _ = self._w_layout(deg)
        sizes1, offsets1, wdim1 = self._w_layout(deg + 1)
        z = self.field.rzero
        mu = [[z] * src.dim for _ in range(dst.dim)]
        mv = [[z] * src.dim for _ in range(dst.dim)]
        for t, rep in enumerate(src.reps):
            wu = [z] * wdim1
            wv = [z] * wdim1
            for i in range(len(self.m.b)):
                for j in range(sizes[i]):
                    val = rep[offsets[i] + j]
                    if val != z:
                        wu[offsets1[i] + j] = val
                        wv[offsets1[i] + j + 1] = val
            for row, coords in ((mu, self.reduce(deg + 1, wu)),
                                (mv, self.reduce(deg + 1, wv))):
                for r, x in enumerate(coords):
                    row[r][t] = x
        self._mul[deg] = (mu, mv)
        return self._mul[deg]

    def hom_power_dim(self, twist, k):
        """dim Hom(m^k, T)_twist: tuples (t_0..t_k) in T_{twist+k}^{k+1}
        with V.t_j = U.t_{j+1}."""
        d0 = self.piece(twist + k).dim
        if k == 0:
            return d0
        if d0 == 0:
            return 0
        d1 = self.piece(twist + k + 1).dim
        if d1 == 0:
            return (k + 1) * d0
        mu, mv = self.mul_matrices(twist + k)
        F = self.field
        z = F.rzero
        rows = []
        for j in range(k):
            for r in range(d1):
                row = [z] * ((k + 1) * d0)
                for t in range(d0):
                    row[j * d0 + t] = mv[r][t]
                    row[(j + 1) * d0 + t] = F.rneg(mu[r][t])
                rows.append(row)
        return (k + 1) * d0 - linalg.rank(F, rows)


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
    """Dimension of the degree-`twist` piece of ker(beta)/im(alpha).

    Agrees with h^0(E(twist)) in the saturated range twist >= -a - 1.
    """
    return _cohomology(m).piece(twist).dim


def _saturation_cap(m: MonadP1) -> int:
    cap = 8 + sum(abs(x) for x in m.b)
    if m.a is not None:
        cap += abs(m.a)
    if m.c is not None:
        cap += abs(m.c)
    return cap


def h0_twist(m: MonadP1, twist: int) -> int:
    """True h^0(E(twist)) via saturation of the graded quotient module.

    Equal consecutive dimensions are only trusted once the smaller index
    k has twist + k >= -a - 1: below that degree the graded quotient can
    lag behind the section module and a spurious plateau occurs (the
    cuspidal monad exhibits one at its (-3) twist).  The hard cap stays
    as a bug guard.
    """
    coh = _cohomology(m)
    cap = _saturation_cap(m)
    stable_from = (-m.a - 1 - twist) if m.alpha is not None else 0
    prev = None
    for k in range(cap + 1):
        cur = coh.hom_power_dim(twist, k)
        if prev is not None and cur == prev and k - 1 >= stable_from:
            return cur
        prev = cur
    raise SaturationError(
        f"saturation did not stabilize at twist {twist} within k <= {cap}")


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
