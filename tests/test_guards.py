"""Fault injection: each consistency guard of `eckardt_points` fires when
one meeting point of the 27 lines on Clebsch over F49 is corrupted."""
import pytest

from veryfree.errors import IntegrityError
from veryfree.fields import make_field
from veryfree.hypersurface import (Hypersurface, LineP3, ProjPoint,
                                   eckardt_points, lines_on_cubic_surface)
from veryfree.poly import parse_poly

F49 = make_field(7, 2)
CLEBSCH = Hypersurface(parse_poly("X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3",
                                  4, F49))


@pytest.fixture(scope="module")
def census():
    lines, _, _ = lines_on_cubic_surface(CLEBSCH)
    return lines, eckardt_points(CLEBSCH, lines)


def _patch_meets(monkeypatch, lines, pair, answer):
    """`LineP3.meets` with the answer for the lines of one index pair
    replaced."""
    meets = LineP3.meets
    a, b = lines[pair[0]], lines[pair[1]]

    def patched(self, other):
        if (self, other) == (a, b):
            return answer
        return meets(self, other)
    monkeypatch.setattr(LineP3, "meets", patched)


def test_census_is_consistent(census):
    _, rep = census
    assert rep.counts == {"eckardt": 10, "two_line": 105,
                          "incident_pairs": 135}


def test_lost_meeting_point_breaks_the_line_count(monkeypatch, census):
    lines, rep = census
    _, (i, j) = rep.two_line[0]
    _patch_meets(monkeypatch, lines, (i, j), None)
    with pytest.raises(IntegrityError, match=f"line {i} meets 9 others"):
        eckardt_points(CLEBSCH, lines)


def test_two_line_pair_sent_to_an_eckardt_point(monkeypatch, census):
    lines, rep = census
    pt, triple = rep.eckardt[0]
    pair = next(ls for _, ls in rep.two_line if not set(ls) & set(triple))
    _patch_meets(monkeypatch, lines, pair, pt)
    with pytest.raises(IntegrityError, match="5 concurrent lines"):
        eckardt_points(CLEBSCH, lines)


def test_eckardt_pair_given_another_point(monkeypatch, census):
    """Two pairs of an Eckardt triple still put all three lines at the
    point, so the concurrency check passes; only the pair count shows
    that the third pair met elsewhere.  A meeting point normalised
    inconsistently would fail the same way."""
    lines, rep = census
    _, (a, b, _) = rep.eckardt[0]
    elsewhere = ProjPoint(F49, [1, 2, 3, 4])
    assert all(elsewhere != p for p, _ in rep.eckardt + rep.two_line)
    _patch_meets(monkeypatch, lines, (a, b), elsewhere)
    with pytest.raises(IntegrityError, match="pair-count identity failed"):
        eckardt_points(CLEBSCH, lines)
