"""Exact Gauss-Jordan elimination over a FieldSpec.

Matrices are lists of rows of raw field values (int indices over finite
fields, Fractions over Q).  No pivoting heuristics: the first row with a
nonzero entry in the current column is used, so results are
deterministic and exact.  `_gauss_jordan` holds the only row-operation
loop; every public routine here reads its answer off that one reduction.
The loop makes no field operation whose value is known (a scaled pivot,
a cleared entry) or unread (the pivot product, which only `det` forms).
"""
from __future__ import annotations


def identity(field, n):
    z, o = field.rzero, field.rone
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _gauss_jordan(field, rows):
    """Reduce a copy of `rows`; returns (rref_rows, pivot_columns,
    pivot_values, odd).

    `pivot_values` are the pivots as met, before scaling, and `odd` says
    whether an odd number of row swaps was made; `det` alone multiplies
    them.  The loop does only arithmetic whose result is read: a pivot
    row is scaled over its nonzero support right of the pivot, and not
    at all when the pivot is already one; the pivot entry is set to one
    and each entry it clears is set to zero, since inv * head = 1 and
    c - c * 1 = 0 exactly.  Raw zeros (0 and Fraction(0)) are falsy, so
    zero tests are truthiness tests.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    zero, one = field.rzero, field.rone
    rmul, rsub = field.rmul, field.rsub
    heads, odd = [], False
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if m[i][col]), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            odd = not odd
        prow = m[r]
        head = prow[col]
        heads.append(head)
        support = [j for j in range(col + 1, ncols) if prow[j]]
        if head != one:
            inv = field.rinv(head)
            for j in support:
                prow[j] = rmul(inv, prow[j])
            prow[col] = one
        for i in range(nrows):
            row = m[i]
            c = row[col]
            if i != r and c:
                for j in support:
                    row[j] = rsub(row[j], rmul(c, prow[j]))
                row[col] = zero
        pivots.append(col)
    return m, pivots, heads, odd


def rref(field, rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m, pivots, _, _ = _gauss_jordan(field, rows)
    return m, pivots


def rank(field, rows):
    if not rows:
        return 0
    return len(rref(field, rows)[1])


def kernel(field, rows, ncols=None):
    """Basis of the right null space {v : rows . v = 0}.

    One basis vector per free column, in column order, with the free
    coordinate set to one.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return identity(field, ncols)
    m, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    z, o = field.rzero, field.rone
    for fcol in free:
        v = [z] * ncols
        v[fcol] = o
        for r, pcol in enumerate(pivots):
            v[pcol] = field.rneg(m[r][fcol])
        basis.append(v)
    return basis


def inverse(field, rows):
    """Matrix inverse, or None if singular."""
    n = len(rows)
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(field, n))]
    m, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in m[:n]]


def det(field, rows):
    """Determinant: the pivots of one Gauss-Jordan pass multiplied in the
    order met, negated once if the pass made an odd number of row swaps;
    zero, with no product formed, when a column has no pivot."""
    _, pivots, heads, odd = _gauss_jordan(field, rows)
    if len(pivots) < len(rows):
        return field.rzero
    d = field.rone
    for head in heads:
        d = field.rmul(d, head)
    return field.rneg(d) if odd else d


class Solver:
    """Solves columns . x = w for a fixed column family.

    Columns are vectors in F^dim; `express(w)` returns coefficients x
    with columns . x = w, or None.  Each call runs one `rref` of the
    augmented matrix [columns | w]: w is outside the span when its
    column carries a pivot, and otherwise x is read off the pivot rows.
    x is supported on the pivot columns of the family (the greedy
    left-to-right basis of its span), with the free coordinates 0.
    """

    def __init__(self, field, columns, dim):
        self.field = field
        self.ncols = len(columns)
        self._rows = [[col[i] for col in columns] for i in range(dim)]

    def express(self, w):
        n = self.ncols
        m, pivots = rref(self.field, [row + [wi] for row, wi
                                      in zip(self._rows, w, strict=True)])
        if pivots and pivots[-1] == n:
            return None
        x = [self.field.rzero] * n
        for r, p in enumerate(pivots):
            x[p] = m[r][n]
        return x
