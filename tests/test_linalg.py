"""Direct checks of the Gauss-Jordan routines against independent oracles:
the Leibniz formula, matrix products, membership by rank and the
elimination loop that computes every entry it touches."""
import itertools
import random
from fractions import Fraction

import pytest

from veryfree import linalg
from veryfree.fields import make_field

from helpers import F7, QQ, gauss_jordan_full_rows

F16 = make_field(2, 4)
F49 = make_field(7, 2)
F7_6 = make_field(7, 6)   # above the Zech-table cap: vector fallback

FIELDS = [QQ, F7, F16, F7_6]


def rand_elt(field, rng):
    if field.is_rational:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.size)


def rand_matrix(field, nrows, ncols, rng):
    return [[rand_elt(field, rng) for _ in range(ncols)]
            for _ in range(nrows)]


def mat_mul(field, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = field.rzero
            for t, x in enumerate(row):
                acc = field.radd(acc, field.rmul(x, b[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def leibniz_det(field, m):
    n = len(m)
    total = field.rzero
    for perm in itertools.permutations(range(n)):
        term = field.rone
        for i, j in enumerate(perm):
            term = field.rmul(term, m[i][j])
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        total = (field.rsub(total, term) if inversions % 2
                 else field.radd(total, term))
    return total


def combine(field, rows, coeffs, length=None):
    """The linear combination sum coeffs[i] * rows[i] of vectors of the
    given length (read off rows[0] when not given)."""
    out = [field.rzero] * (len(rows[0]) if length is None else length)
    for c, row in zip(coeffs, rows):
        out = [field.radd(x, field.rmul(c, y)) for x, y in zip(out, row)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_matches_leibniz(field):
    rng = random.Random(101)
    assert linalg.det(field, []) == field.rone
    for n in range(1, 5):
        for _ in range(4):
            m = rand_matrix(field, n, n, rng)
            m[0][0] = field.rzero            # forces a row swap
            assert linalg.det(field, m) == leibniz_det(field, m)
            swapped = [m[1], m[0]] + m[2:] if n > 1 else m
            assert linalg.det(field, swapped) == leibniz_det(field, swapped)
            if n > 1:
                singular = m[:-1] + [combine(
                    field, m[:-1], [rand_elt(field, rng)
                                    for _ in range(n - 1)])]
                assert leibniz_det(field, singular) == field.rzero
                assert linalg.det(field, singular) == field.rzero


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inverse_times_matrix_is_identity(field):
    rng = random.Random(102)
    for n in range(1, 5):
        for _ in range(3):
            m = rand_matrix(field, n, n, rng)
            inv = linalg.inverse(field, m)
            if linalg.det(field, m) == field.rzero:
                assert inv is None
            else:
                assert mat_mul(field, inv, m) == linalg.identity(field, n)
        singular = [list(r) for r in m]
        singular[-1] = [field.rzero] * n
        assert linalg.inverse(field, singular) is None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_is_annihilated_and_complementary(field):
    rng = random.Random(103)
    for nrows, ncols in ((1, 3), (2, 5), (3, 3), (4, 6), (5, 4)):
        m = rand_matrix(field, nrows, ncols, rng)
        if nrows > 2:                        # force a rank drop
            m[-1] = combine(field, m[:2], [rand_elt(field, rng),
                                           rand_elt(field, rng)])
        ker = linalg.kernel(field, m)
        assert len(ker) == ncols - linalg.rank(field, m)
        zero = [[field.rzero] for _ in range(nrows)]
        for v in ker:
            assert mat_mul(field, m, [[x] for x in v]) == zero
        if ker:
            assert linalg.rank(field, ker) == len(ker)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solver_expresses_span_and_rejects_outside(field):
    rng = random.Random(104)
    dim = 5
    for ncols in (2, 4, 7):
        cols = [[rand_elt(field, rng) for _ in range(dim)]
                for _ in range(ncols)]
        cols.insert(1, combine(field, cols[:1], [rand_elt(field, rng)]))
        solver = linalg.Solver(field, cols, dim)
        pivots = linalg.rref(field, [[col[i] for col in cols]
                                     for i in range(dim)])[1]
        span_rank = linalg.rank(field, cols)
        assert len(pivots) == span_rank
        for _ in range(3):
            x = [rand_elt(field, rng) for _ in cols]
            w = combine(field, cols, x)
            got = solver.express(w)
            assert got is not None and combine(field, cols, got) == w
            assert all(got[j] == field.rzero for j in range(len(cols))
                       if j not in pivots)
        outside = 0
        for _ in range(4):
            w = [rand_elt(field, rng) for _ in range(dim)]
            if linalg.rank(field, cols + [w]) > span_rank:
                outside += 1
                assert solver.express(w) is None
        if span_rank < dim:
            assert outside > 0
        for w in ([field.rzero] * (dim - 1), [field.rzero] * (dim + 1)):
            with pytest.raises(ValueError):
                solver.express(w)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solver_pivots_are_rref_pivots(field):
    rng = random.Random(105)
    dim = 4
    for ncols in (1, 3, 6):
        cols = [[rand_elt(field, rng) for _ in range(dim)]
                for _ in range(ncols)]
        cols.append(list(cols[0]))           # a dependent column
        rows = [[col[i] for col in cols] for i in range(dim)]
        solver = linalg.Solver(field, cols, dim)
        pivots = linalg.rref(field, rows)[1]
        # x is supported on the rref pivots: each pivot column is its own
        # unit vector, every other column a combination of earlier pivots
        for j, col in enumerate(cols):
            x = solver.express(col)
            if j in pivots:
                assert x == [field.rone if k == j else field.rzero
                             for k in range(len(cols))]
            else:
                assert all(x[k] == field.rzero for k in range(len(cols))
                           if k not in pivots or k > j)


def sparse_elt(field, rng):
    return field.rzero if rng.random() < 0.5 else rand_elt(field, rng)


def column_family(field, dim, ncols, span, rng):
    """`ncols` sparse columns in F^dim inside a random `span`-dimensional
    subspace, with a zero column, a repeated column and zeros on top of
    the first columns, so the elimination meets row swaps and dependent
    columns."""
    basis = [[sparse_elt(field, rng) for _ in range(dim)]
             for _ in range(span)]
    for i, b in enumerate(basis):
        for t in range(min(i + 2, dim - 1)):
            b[t] = field.rzero            # leading zeros force swaps
        b[-1 - i % dim] = field.rone
    cols = [combine(field, basis, [sparse_elt(field, rng) for _ in basis],
                    dim)
            for _ in range(ncols)]
    if ncols > 2:
        cols[1] = [field.rzero] * dim
        cols[-1] = list(cols[0])
    return cols


# (dim, ncols, span): wide and dependent, tall, full row rank, no columns
SOLVER_SHAPES = [(24, 40, 16), (40, 24, 20), (30, 40, 30), (12, 0, 0)]


@pytest.mark.parametrize("field", [QQ, F7, F49, F7_6], ids=repr)
@pytest.mark.parametrize("dim,ncols,span", SOLVER_SHAPES)
def test_solver_replay_on_wide_families(field, dim, ncols, span):
    rng = random.Random(106 + dim + ncols)
    cols = column_family(field, dim, ncols, span, rng)
    solver = linalg.Solver(field, cols, dim)
    rows = [[col[i] for col in cols] for i in range(dim)]
    pivots = linalg.rref(field, rows)[1]
    cols_rank = linalg.rank(field, cols)
    assert len(pivots) == cols_rank
    samples = [combine(field, cols, [sparse_elt(field, rng) for _ in cols],
                       dim)
               for _ in range(2)]
    samples += [[sparse_elt(field, rng) for _ in range(dim)]
                for _ in range(2)]
    samples.append([field.rzero] * dim)
    outside = 0
    for w in samples:
        x = solver.express(w)
        if linalg.rank(field, cols + [w]) > cols_rank:
            outside += 1
            assert x is None
            continue
        assert x is not None and len(x) == ncols
        assert combine(field, cols, x, dim) == w
        assert all(x[j] == field.rzero for j in range(ncols)
                   if j not in pivots)
    assert (outside > 0) == (cols_rank < dim)


def full_row_reduction(field, rows):
    """The oracle loop in `_gauss_jordan`'s return shape: its signed
    pivot product stands as the one pivot value, with even parity, so
    `det` returns it as it is."""
    m, pivots, d = gauss_jordan_full_rows(field, rows)
    return m, pivots, [d], False


def public_answers(field, rows, ncols, targets):
    """repr of every public answer read off one matrix, so that a value
    of another type (an int for a Fraction) is a difference too."""
    cols = [[row[j] for row in rows] for j in range(ncols)]
    solver = linalg.Solver(field, cols, len(rows))
    out = [linalg.rref(field, rows), linalg.rank(field, rows),
           linalg.kernel(field, rows, ncols),
           [solver.express(w) for w in targets]]
    if len(rows) == ncols:
        out += [linalg.det(field, rows), linalg.inverse(field, rows)]
    return repr(out)


def oracle_matrices(field, rng):
    """(rows, ncols): the 0 x 4 and 3 x 0 cases, a zero matrix, then per
    shape (square, wide, tall) a sparse matrix, a 0/1 matrix, one whose
    rows lead with one, a square one with a zero corner (a row swap), and
    a rank-deficient one with a zero row and a zero column."""
    z, o = field.rzero, field.rone
    out = [([], 4), ([[] for _ in range(3)], 0),
           ([[z] * 4 for _ in range(3)], 4)]
    for nrows, ncols in ((3, 3), (4, 4), (5, 5), (2, 5), (3, 7), (6, 2),
                         (7, 4)):
        sparse = [[sparse_elt(field, rng) for _ in range(ncols)]
                  for _ in range(nrows)]
        binary = [[rng.choice((z, o)) for _ in range(ncols)]
                  for _ in range(nrows)]
        monic = []
        for row in rand_matrix(field, nrows, ncols, rng):
            lead = next((x for x in row if x), o)
            monic.append([field.rmul(x, field.rinv(lead)) for x in row])
        out += [(m, ncols) for m in (sparse, binary, monic)]
        if nrows == ncols:
            corner = rand_matrix(field, nrows, ncols, rng)
            corner[0][0] = z
            out.append((corner, ncols))
        deficient = rand_matrix(field, nrows, ncols, rng)
        if nrows > 2:
            deficient[-1] = combine(field, deficient[:2],
                                    [rand_elt(field, rng) for _ in range(2)])
        deficient[rng.randrange(nrows)] = [z] * ncols
        zero_col = rng.randrange(ncols)
        for row in deficient:
            row[zero_col] = z
        out.append((deficient, ncols))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_elimination_matches_full_row_oracle(monkeypatch, field):
    """rref rows and pivots, rank, kernel, Solver.express, det and
    inverse are the same raw values, of the same types, as when every
    entry is computed; the seeded matrices meet pivots equal to one,
    which are not scaled, and pivots that are not."""
    rng = random.Random(107)
    pivot_kinds = set()
    for rows, ncols in oracle_matrices(field, rng):
        cols = [[row[j] for row in rows] for j in range(ncols)]
        targets = [[field.rzero] * len(rows),
                   [sparse_elt(field, rng) for _ in rows]]
        if cols:
            targets += [cols[-1], combine(field, cols, [
                rand_elt(field, rng) for _ in cols], len(rows))]
        got = public_answers(field, rows, ncols, targets)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_gauss_jordan", full_row_reduction)
            assert got == public_answers(field, rows, ncols, targets)
        heads = linalg._gauss_jordan(field, rows)[2]
        pivot_kinds.update(head == field.rone for head in heads)
    assert pivot_kinds == {True, False}
