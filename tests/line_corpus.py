"""The line-search corpus: `lines_on_cubic_surface` against the search
that scans every level in full (`helpers.lines_by_level_scans`).

    PYTHONPATH=src python3 tests/line_corpus.py

runs the whole corpus, about 600 runs in two minutes, and prints each
mismatch in the line list, the field, the level, the exception type or
its message, then a summary: runs, mismatches, how many runs ended at
each level or in each error, and how many at each pair of the level of
the line whose pencil is built (None when the caps allow no line) and
that outcome.  It exits 1 on a mismatch.  Every item is seeded and
built in code:
- random cubics over F2, F3, F4, F5, F7, F8, F9, F11 and F16;
- cubics X0 q + X1 q' through the line X0 = X1 = 0, q and q' random
  quadrics, over the same fields;
- diagonal cubics a X0^3 + b X1^3 + c X2^3 + d X3^3, Fermat among them;
each with extension caps 2 and 6 and `field_cap` 130 and 4000, and
singular surfaces skipped; and the random F2 cubics of seeds 17 and 26,
whose lines need F32 and F64.  The file name keeps pytest from collecting
it; `tests/test_hypersurface.py` runs a slice of it.
"""
import itertools
import random
import sys

from helpers import lines_by_level_scans, random_form
from veryfree import hypersurface
from veryfree.fields import make_field
from veryfree.hypersurface import (Hypersurface, is_smooth,
                                   lines_on_cubic_surface)
from veryfree.poly import MultiPoly

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (2, 4)]
FIELD_CAPS = (130, 4000)


def random_surface(F, seed):
    return Hypersurface(random_form(F, 4, 3, random.Random(seed)))


def surface_through_a_line(F, seed):
    """X0 q + X1 q' for seeded random quadrics q, q': the line
    X0 = X1 = 0 lies on it."""
    rng = random.Random(seed)
    terms = {}
    for var in (0, 1):
        for e, c in random_form(F, 4, 2, rng).terms.items():
            e = tuple(k + (i == var) for i, k in enumerate(e))
            terms[e] = F.radd(terms[e], c) if e in terms else c
    return Hypersurface(MultiPoly.from_raw(
        F, 4, {e: c for e, c in terms.items() if c != F.rzero}))


def diagonal_surface(F, seed):
    """a X0^3 + b X1^3 + c X2^3 + d X3^3 with seeded nonzero a, b, c, d;
    seed 0 is the Fermat surface."""
    rng = random.Random(seed)
    units = [c for c in F.elements() if c != F.rzero]
    coeffs = [F.rone] * 4 if seed == 0 else [rng.choice(units)
                                              for _ in range(4)]
    return Hypersurface(MultiPoly.from_raw(
        F, 4, {tuple(3 * (i == k) for i in range(4)): c
               for k, c in enumerate(coeffs)}))


FAMILIES = {"random": random_surface, "line": surface_through_a_line,
            "diagonal": diagonal_surface}
EXT_CAPS = (2, 6)


def specs(seeds=range(8)):
    """(family, p, k, seed, ext_cap, field_cap) for the whole corpus."""
    return list(itertools.product(FAMILIES, FIELDS, seeds, EXT_CAPS,
                                  FIELD_CAPS)) + [
        ("random", (2, 1), seed, 6, 4000) for seed in (17, 26)]


def corpus(items):
    """(name, surface, ext_cap, field_cap) for each spec whose surface is
    smooth."""
    for family, (p, k), seed, ext_cap, field_cap in items:
        F = make_field(p, k)
        x = FAMILIES[family](F, seed)
        if x.f.is_zero() or not x.f.is_homogeneous() or not is_smooth(x):
            continue
        yield (f"{family} {F} seed {seed} ext {ext_cap} cap {field_cap}", x,
               ext_cap, field_cap)


def outcome(search, x, ext_cap, field_cap):
    """What a line search answers: the rows and Plücker coordinates of
    the lines, the field's size and the level, or the exception's type
    and message."""
    try:
        lines, K, k = search(x, ext_cap, field_cap)
    except Exception as e:  # the type and message are the answer
        return type(e).__name__, str(e)
    return [(line.rows, line.plucker) for line in lines], K.size, k


def compare(items):
    """(mismatched names, {(level of the pencil's line or None, level or
    error type): runs}) over the items."""
    bad, kinds, pencil_levels = [], {}, []
    pencil = hypersurface._pencil_lines

    def spy(f, line, top):
        pencil_levels.append(line.field.k)
        return pencil(f, line, top)
    hypersurface._pencil_lines = spy
    try:
        for name, x, ext_cap, field_cap in items:
            pencil_levels.clear()
            got = outcome(lines_on_cubic_surface, x, ext_cap, field_cap)
            if got != outcome(lines_by_level_scans, x, ext_cap, field_cap):
                bad.append(name)
            kind = (pencil_levels[0] // x.field.k if pencil_levels else None,
                    got[0] if isinstance(got[0], str) else got[2])
            kinds[kind] = kinds.get(kind, 0) + 1
    finally:
        hypersurface._pencil_lines = pencil
    return bad, kinds


if __name__ == "__main__":
    items = list(corpus(specs()))
    bad, kinds = compare(items)
    for name in bad:
        print("mismatch:", name)
    outcomes = {}
    for (_, kind), runs in kinds.items():
        outcomes[kind] = outcomes.get(kind, 0) + runs
    print(f"{len(items)} runs, {len(bad)} mismatches, by outcome "
          f"{dict(sorted(outcomes.items(), key=str))}, by (level of the "
          f"pencil's line, outcome) {dict(sorted(kinds.items(), key=str))}")
    sys.exit(1 if bad else 0)
