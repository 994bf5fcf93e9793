"""Answer digests: the sha256 of stdout and the exit code of 48 in-process
CLI runs, and the sha256 of stderr for those that fail, compared with
`tests/answer_digests.json`.

The runs cover `lines`, `eckardt`, `construct` and `build --dim 3` with
`--json` over F7 on Fermat, Clebsch and five pinned random surfaces,
`build --dim 4` on the F7 Fermat threefold, and `fermat2 --ext 1..4`.
Over base fields whose raw element indices pass p, they cover `lines`
and `eckardt --json` on Clebsch over F49 and on Fermat over F4, and
`sixpoints` on a sextuple over F49 and on the forced configuration over
F4, which exits 1; `sixpoints --json` also runs on a sextuple over F11.  `lines --json`
runs on three pinned random surfaces over F5, whose lines lie over F25,
and on one over F4, whose lines lie over F64, where q = 4 is not p.
Four error paths are pinned by stderr: `splitting` with a curve whose
pullback monad fails surjectivity at a root (exit 1) and with a curve
off the surface over F3, which prints f(h) (exit 2), and `lines` on the
seed-256 surface under `--ext-cap 1` and `--line-field-cap 48`, which
count the lines found (exit 3).
A change that must keep every answer byte-identical keeps this test
passing.  After a deliberate change of answers, rewrite the JSON with

    PYTHONPATH=src python tests/test_answers.py
"""
import contextlib
import hashlib
import io
import json
import os

from veryfree import hypersurface
from veryfree.cli import main
from veryfree.fields import make_field

from helpers import random_cubic_form

DIGESTS = os.path.join(os.path.dirname(__file__), "answer_digests.json")
FERMAT = "X0^3+X1^3+X2^3+X3^3"
CLEBSCH = "X0^3+X1^3+X2^3+X3^3-(X0+X1+X2+X3)^3"
SEEDS = (256, 282, 365, 368, 722)
LINE_SEEDS = (("5", 5, 1, (37, 47, 255)), ("2^2", 2, 2, (7,)))
SIXPOINTS = (
    ("f11", "11", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;6:3:1", ["--json"]),
    ("forced4", "2^2", "0:0:1;1:0:1;1:1:1;0:1:1;1:g:0;1:g+1:0", []),
    ("f49", "7^2", "0:0:1;1:0:1;1:1:1;0:1:1;g:2:1;3:g+1:1", ["--json"]))
SPLITTING = (
    ("witness", "7", "X0*X1*X2+X1^3+X2^3+X3^3", "-U^3-V^3;U^2*V;U*V^2;0"),
    ("f3 off surface", "3", FERMAT + "+X0*X1*X2", "U;V;0;0"))


def _surfaces():
    F7 = make_field(7)
    out = [("fermat", FERMAT), ("clebsch", CLEBSCH)]
    out += [(f"seed{s}", str(random_cubic_form(F7, 4, s))) for s in SEEDS]
    return out


def _runs():
    """(name, argv) for every recorded run, in a fixed order."""
    runs = []
    for name, surface in _surfaces():
        for cmd in ("lines", "eckardt", "construct"):
            runs.append((f"{cmd} {name}", [cmd, "--field", "7", "--surface",
                                           surface, "--json"]))
        runs.append((f"build3 {name}", ["build", "--field", "7", "--dim",
                                        "3", "--poly", surface, "--json"]))
    runs.append(("build4 fermat", ["build", "--field", "7", "--dim", "4",
                                   "--poly", FERMAT + "+X4^3", "--json"]))
    for ext in range(1, 5):
        runs.append((f"fermat2 {ext}", ["fermat2", "--ext", str(ext),
                                        "--json"]))
    for name, field, points, fmt in SIXPOINTS:
        runs.append((f"sixpoints {name}", ["sixpoints", "--field", field,
                                           "--points", points, *fmt]))
    for name, field, surface in (("clebsch49", "7^2", CLEBSCH),
                                 ("fermat4", "2^2", FERMAT)):
        runs.append((f"lines {name}", ["lines", "--field", field,
                                       "--surface", surface]))
        runs.append((f"eckardt {name}", ["eckardt", "--field", field,
                                         "--surface", surface, "--json"]))
    for field, p, k, seeds in LINE_SEEDS:
        for s in seeds:
            surface = str(random_cubic_form(make_field(p, k), 4, s))
            runs.append((f"lines f{p ** k}seed{s}",
                         ["lines", "--field", field, "--surface", surface,
                          "--json"]))
    for name, field, surface, curve in SPLITTING:
        runs.append((f"splitting {name}", ["splitting", "--field", field,
                                           "--surface", surface,
                                           "--curve", curve]))
    seed256 = str(random_cubic_form(make_field(7), 4, 256))
    for flag, cap in (("--ext-cap", "1"), ("--line-field-cap", "48")):
        runs.append((f"lines seed256 {flag} {cap}",
                     ["lines", "--field", "7", "--surface", seed256, flag,
                      cap]))
    return runs


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    answer = {"exit": code,
              "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code:
        answer["stderr"] = hashlib.sha256(err.getvalue().encode()).hexdigest()
    return answer


def compute():
    return {name: _answer(argv) for name, argv in _runs()}


def test_answer_digests_unchanged():
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    assert len(recorded) == 48
    got = compute()
    assert list(got) == list(recorded)
    changed = [name for name in recorded if got[name] != recorded[name]]
    assert not changed, f"answers changed: {changed}"


def test_caps_are_part_of_the_census_key():
    """The line census that the default run on the seed-256 surface
    keeps does not answer the run under `--line-field-cap 48`, which
    still exits 3 with its recorded stderr."""
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    runs = dict(_runs())
    default, capped = "lines seed256", "lines seed256 --line-field-cap 48"
    assert _answer(runs[default]) == recorded[default]
    assert hypersurface._CENSUS_CACHE
    assert _answer(runs[capped]) == recorded[capped]
    assert recorded[capped]["exit"] == 3


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump(compute(), fh, indent=1)
        fh.write("\n")
