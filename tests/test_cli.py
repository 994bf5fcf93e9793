import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from veryfree import cli, hypersurface
from veryfree.cli import main
from veryfree.constructions import AllEckardtError
from veryfree.errors import (ExtensionCapExceeded, FieldError,
                             IntegrityError, MonadError, ParseError,
                             ScanBudgetExceeded)

from helpers import spy_calls

FERMAT = "X0^3+X1^3+X2^3+X3^3"
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "bench", "golden", "verify_paper.json")


def run_err(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run(capsys, *argv):
    return run_err(capsys, *argv)[:2]


def test_splitting_example(capsys):
    code, out = run(capsys, "splitting", "--field", "7",
                    "--surface", "X0*X1*X2+X1^3+X2^3+X3*X0^2",
                    "--curve", "-U^3-V^3;U^2*V;U*V^2;0")
    assert code == 0
    assert "{2, 1}" in out and "very free: True" in out


def test_splitting_json(capsys):
    code, out = run(capsys, "splitting", "--field", "7",
                    "--surface", "X0*X1*X2+X1^3+X2^3+X3*X0^2",
                    "--curve", "-U^3-V^3;U^2*V;U*V^2;0", "--json")
    payload = json.loads(out)
    assert payload["result"]["splitting"] == [2, 1]
    assert payload["result"]["very_free"] is True
    assert payload["tool_version"]
    assert payload["command"] == "splitting"


def test_smooth_false_still_exits_zero(capsys):
    code, out = run(capsys, "smooth", "--field", "3", "--poly", FERMAT)
    assert code == 0 and "smooth: False" in out


def test_main_reads_the_command_line(capsys, monkeypatch):
    """Called with no argument, as the `veryfree` console script calls
    it, `main` reads sys.argv."""
    monkeypatch.setattr(sys, "argv",
                        ["veryfree", "smooth", "--field", "7", "--poly",
                         FERMAT])
    assert main() == 0
    assert "smooth: True" in capsys.readouterr().out


def test_module_runs_as_a_script():
    """`python -m veryfree.cli` exits with the code `main` returns."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "veryfree.cli", "smooth", "--field", "7",
         "--poly", FERMAT], env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0 and "smooth: True" in proc.stdout


def test_usage_error_exit_code(capsys):
    code = main(["smooth", "--field", "6", "--poly", FERMAT])
    assert code == 2
    code = main(["smooth", "--field", "7", "--poly", "X0+X1^2"])
    assert code == 2
    for cap in ("-1", "0"):
        code, _, err = run_err(capsys, "construct", "--field", "7",
                               "--surface", FERMAT, "--ext-cap", cap)
        assert code == 2 and "--ext-cap" in err
        code, _, err = run_err(capsys, "lines", "--field", "7",
                               "--surface", FERMAT, "--line-field-cap", cap)
        assert code == 2 and "--line-field-cap" in err
    for nvars in ("0", "-1"):
        code, _, err = run_err(capsys, "smooth", "--field", "7",
                               "--nvars", nvars, "--poly", "X0^3")
        assert code == 2 and "--nvars" in err and "unknown" not in err
    for dim in ("-3", "0", "2"):
        code, _, err = run_err(capsys, "build", "--field", "7",
                               "--dim", dim, "--poly", "X0^3")
        assert code == 2 and "--dim" in err and "unknown" not in err
    for ext in ("0", "-1"):
        code, _, err = run_err(capsys, "fermat2", "--ext", ext)
        assert code == 2 and "--ext must be at least 1" in err
    code, _, err = run_err(capsys, "splitting", "--field", "7",
                           "--surface", FERMAT, "--curve", "0;0;0;0")
    assert code == 2 and "every curve component is zero" in err


NODAL = "X0*X1*X2+X1^3+X2^3+X3*X0^2"


@pytest.mark.parametrize("argv, message", [
    (["splitting", "--field", "7", "--surface", NODAL,
      "--curve", "U^2;U*V^2;V^3;0"],
     "curve components have mixed degrees [2, 3]"),
    (["splitting", "--field", "7", "--surface", NODAL,
      "--curve", "U^2+V;U*V;V^2;0"], "inhomogeneous binary form"),
    (["sixpoints", "--field", "11",
      "--points", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;6:3"],
     "expected x:y:z, got '6:3'"),
    (["lines", "--field", "7", "--surface", "X0^3+X1^3+"],
     "unexpected end of input"),
    (["lines", "--field", "7", "--surface", "(" + FERMAT], "expected ')'"),
    (["lines", "--field", "7", "--surface", FERMAT + ")"],
     "unexpected ')'"),
    (["lines", "--field", "7", "--surface", "X0^3+X1^+X2^3+X3^3"],
     "expected a number"),
    (["smooth", "--field", "Q", "--poly", "1/0*X0^3+X1^3+X2^3+X3^3"],
     "zero denominator"),
    (["smooth", "--field", "7^x", "--poly", FERMAT], "bad field spec"),
    (["smooth", "--field", "1", "--poly", FERMAT], "bad field spec"),
    (["smooth", "--field", "7", "--poly", "X0-X0"],
     "zero polynomial does not cut a hypersurface"),
    (["smooth", "--field", "7", "--poly", "X0^2+X1^2"],
     "hypersurface equation must be a cubic form"),
    (["lines", "--field", "Q", "--surface", FERMAT],
     "line enumeration needs a finite base field"),
    (["build", "--field", "Q", "--dim", "3", "--poly", FERMAT],
     "the constructive search needs a finite field"),
    (["sixpoints", "--field", "11",
      "--points", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1"], "expected six points"),
    (["sixpoints", "--field", "11",
      "--points", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;0:0:1"],
     "the six points must be distinct"),
    (["sixpoints", "--field", "11",
      "--points", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;0:0:0"],
     "projective point needs a nonzero coordinate"),
    (["splitting", "--field", "7", "--surface", FERMAT, "--curve", "U;V;U"],
     "curve needs 4 components"),
    (["splitting", "--field", "7", "--surface", FERMAT,
      "--curve", "1;2;3;4"], "constant curves have no tangent pullback"),
    (["splitting", "--field", "7", "--surface", FERMAT,
      "--curve", "U;V;U;V"], "curve does not lie on the hypersurface"),
], ids=["mixed-degrees", "inhomogeneous-curve", "two-coordinates",
        "end-of-input", "open-parenthesis", "close-parenthesis",
        "missing-exponent", "zero-denominator", "bad-exponent",
        "field-one", "zero-polynomial", "quadric", "lines-over-q",
        "build-over-q", "five-points", "repeated-point", "zero-point",
        "three-components", "constant-curve", "curve-off-surface"])
def test_malformed_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run_err(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_invalid_pullback_monad_fails_verification(capsys):
    """A cubic curve through the node (1:0:0:0) of the surface, which it
    passes at (1:0): every partial vanishes there, so beta is not
    surjective and `pullback_tangent` refuses the monad."""
    code, _, err = run_err(capsys, "splitting", "--field", "7", "--surface",
                           "X0*X1*X2+X1^3+X2^3+X3^3",
                           "--curve", "-U^3-V^3;U^2*V;U*V^2;0")
    assert code == 1
    assert "verification failed: pullback monad invalid" in err


def test_budget_exit_code(capsys):
    code = main(["lines", "--field", "5", "--surface",
                 "X0^3+X1^3+X2^3+X3^3+X0*X1*X2",
                 "--line-field-cap", "4"])
    assert code == 3
    # |P^3(F_128)| is over the point-scan budget: refused before scanning
    for ext in ("7", "40"):
        start = time.perf_counter()
        code, _, err = run_err(capsys, "fermat2", "--ext", ext)
        assert code == 3 and "scan budget exceeded" in err
        assert time.perf_counter() - start < 5


def test_lines_json(capsys):
    code, out = run(capsys, "lines", "--field", "7", "--surface", FERMAT,
                    "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"]["count"] == 27
    assert len(payload["result"]["lines"]) == 27


def test_eckardt_and_construct(capsys):
    code, out = run(capsys, "eckardt", "--field", "7", "--surface", FERMAT)
    assert code == 0 and "Eckardt points: 18" in out
    code, out = run(capsys, "construct", "--field", "7",
                    "--surface", FERMAT)
    assert code == 0 and "NodalIntegral" in out


def test_construct_char2_fermat_diagnosis(capsys):
    code, out = run(capsys, "construct", "--field", "2",
                    "--surface", FERMAT, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["found"] is False
    assert "Eckardt" in payload["result"]["diagnosis"]


def test_fermat2(capsys):
    code, out = run(capsys, "fermat2", "--ext", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["trichotomy_holds"] is True
    assert payload["result"]["reference_eckardt_count"] == 35


def test_sixpoints(capsys):
    code, out = run(capsys, "sixpoints", "--field", "11",
                    "--points", "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;6:3:1",
                    "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"]["q"] is not None


def test_sixpoints_char2_forced(capsys):
    code, out = run(capsys, "sixpoints", "--field", "2^2",
                    "--points", "0:0:1;1:0:1;1:1:1;0:1:1;1:g:0;1:g+1:0")
    assert code == 1


def test_sixpoints_beyond_the_diagonal_points(capsys):
    """No diagonal point of this sextuple over F8 passes its certificate,
    so the search certifies another intersection point, (0:1:0)."""
    code, out = run(capsys, "sixpoints", "--field", "2^3", "--json",
                    "--points", "1:g^2:g^2+1;1:1:g^2+g;1:g^2+g+1:g^2+g+1;"
                                "1:g:g^2+g;1:g+1:g^2+1;1:g:g^2")
    result = json.loads(out)["result"]
    assert code == 0 and result["q"] == ["0", "1", "0"]
    assert result["diagonal_points"] == [["1", "g^2+g", "0"],
                                         ["1", "0", "g^2+g"],
                                         ["1", "g^2+1", "g+1"]]
    assert result["certificate"]["pass"]
    assert result["certificate"]["checks"][1]["lhs"] == "[(0, 4), (1, 3)]"


def test_json_determinism(capsys):
    args = ["splitting", "--field", "7",
            "--surface", "X0*X1*X2+X1^3+X2^3+X3*X0^2",
            "--curve", "-U^3-V^3;U^2*V;U*V^2;0", "--json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_paper_json_schema_and_determinism(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_err(capsys, "verify-paper", "--json",
                             "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    # progress streams to stderr only; stdout keeps the recorded bytes
    assert err.splitlines() == [f"[PASS] {c['name']}"
                                for c in payload["checks"]]
    with open(GOLDEN) as fh:
        golden = json.load(fh)["0"]
    assert hashlib.sha256(out.encode()).hexdigest() == golden
    assert payload["command"] == "verify-paper"
    assert payload["result"]["pass"] is True
    assert payload["checks"], "expected a populated checks array"
    for chk in payload["checks"]:
        assert set(chk) == {"name", "paper_anchor", "pass", "details"}
        assert chk["pass"] is True
    assert any("sign deviation" in f for f in payload["result"]["findings"])
    assert out_path.read_text().strip() == json.dumps(
        payload, indent=2, sort_keys=True)

    # same seed, byte-identical output
    code2, out2 = run(capsys, "verify-paper", "--json")
    assert out2 == out


def test_verify_paper_json_matches_golden_for_every_seed(capsys):
    """Each seed draws other admissible completions for the tangent-bundle
    pullbacks and the normal form, so every recorded digest is checked,
    not only seed 0's."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden, key=int) == [str(s) for s in range(16)]
    for seed, digest in golden.items():
        code, out = run(capsys, "verify-paper", "--json", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def test_verify_paper_computes_each_census_once(monkeypatch, capsys):
    """verify-paper meets the F7 Fermat surface three times (its census
    check, its nodal section and the X4 = 0 section of the threefold) and
    the F4 Fermat surface twice, and computes each line and Eckardt
    census once: 4 pencils and 3 Eckardt censuses (one `_frobenius_size`
    each), not 6 and 6, with the recorded bytes."""
    pencils = spy_calls(monkeypatch, hypersurface, "_pencil_lines")
    censuses = spy_calls(monkeypatch, hypersurface, "_frobenius_size")
    code, out = run(capsys, "verify-paper", "--json", "--seed", "7")
    with open(GOLDEN) as fh:
        golden = json.load(fh)["7"]
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == golden
    assert (len(pencils), len(censuses)) == (4, 3)


def test_verify_paper_seed_reaches_the_drawn_completions(monkeypatch,
                                                        capsys):
    """Two seeds draw different admissible completions (Q, L, A), and the
    right-hand side Q(-U^3-V^3, U^2 V, U V^2) of the d f / d X3 check
    differs with them; the --json payload records neither side of a
    passing check, so it is the same for both seeds."""
    sample, verify = cli.sample_admissible_completion, cli.verify_xi_eta
    draws, rhs = [], []

    def recording_sample(field, rng):
        out = sample(field, rng)
        draws[-1].append(tuple(str(x) for x in out))
        return out

    def recording_verify(nf):
        rep = verify(nf)
        rhs[-1].extend(c.rhs for c in rep.checks
                       if c.name.startswith("d f / d X3 pulled back"))
        return rep
    monkeypatch.setattr(cli, "sample_admissible_completion",
                        recording_sample)
    monkeypatch.setattr(cli, "verify_xi_eta", recording_verify)
    payloads = []
    for seed in ("0", "1"):
        draws.append([])
        rhs.append([])
        code, out = run(capsys, "verify-paper", "--json", "--seed", seed)
        assert code == 0
        payloads.append(out)
    assert len(draws[0]) == len(draws[1]) == 8
    assert len(rhs[0]) == len(rhs[1]) == 8
    assert draws[0] != draws[1]
    assert rhs[0] != rhs[1]
    assert payloads[0] == payloads[1]


def test_verify_paper_text_progress_on_stderr(capsys):
    code, out, err = run_err(capsys, "verify-paper")
    assert code == 0
    progress = err.splitlines()
    assert progress and all(line.startswith("[PASS] ") for line in progress)
    names = [line[len("[PASS] "):] for line in progress]
    lines = out.splitlines()
    # stdout: one padded row per check, the notes, then the summary
    for name, line in zip(names, lines):
        assert line.startswith(f"[PASS] {name} ")
    assert all(ln.startswith("[NOTE] ") for ln in lines[len(names):-1])
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed"
    assert not set(progress) & set(lines)


def test_build_threefold_cli(capsys):
    code, out = run(capsys, "build", "--field", "7", "--dim", "4",
                    "--poly", "X0^3+X1^3+X2^3+X3^3+X4^3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["splitting"] == [3, 2, 1]
    assert payload["result"]["surface"]["field"].startswith("7")


def test_eckardt_cli_with_extension(capsys):
    code, out = run(capsys, "eckardt", "--field", "2", "--surface", FERMAT,
                    "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["counts"]["eckardt"] == 45
    assert payload["result"]["counts"]["two_line"] == 0


def test_verify_paper_text_out_matches_json_out(tmp_path, capsys):
    text_path, json_path = tmp_path / "text.json", tmp_path / "json.json"
    code, out = run(capsys, "verify-paper", "--out", str(text_path))
    assert code == 0
    assert out.splitlines()[-1] == "119/119 checks passed"
    code, _ = run(capsys, "verify-paper", "--json", "--out", str(json_path))
    assert code == 0
    assert text_path.read_bytes() == json_path.read_bytes()


SIXPOINTS = "0:0:1;1:0:1;1:1:1;0:1:1;2:6:1;6:3:1"


@pytest.mark.parametrize("argv", [
    ["verify-paper"],
    ["splitting", "--field", "7", "--surface", NODAL,
     "--curve", "-U^3-V^3;U^2*V;U*V^2;0"],
    ["smooth", "--field", "3", "--poly", FERMAT],
    ["lines", "--field", "7", "--surface", FERMAT],
    ["eckardt", "--field", "7", "--surface", FERMAT],
    ["construct", "--field", "7", "--surface", FERMAT],
    ["construct", "--field", "2", "--surface", FERMAT],
    ["build", "--field", "7", "--dim", "3", "--poly", FERMAT],
    ["fermat2", "--ext", "1"],
    ["sixpoints", "--field", "11", "--points", SIXPOINTS],
], ids=["verify-paper", "splitting", "smooth", "lines", "eckardt",
        "construct", "construct-diagnosis", "build", "fermat2",
        "sixpoints"])
def test_out_file_is_the_json_stdout(tmp_path, capsys, argv):
    """--out writes the bytes that --json prints, with or without
    --json."""
    json_path, text_path = tmp_path / "json.json", tmp_path / "text.json"
    code, out = run(capsys, *argv, "--json", "--out", str(json_path))
    assert json.loads(out)["command"] == argv[0]
    assert json_path.read_bytes() == out.encode()
    assert run(capsys, *argv, "--out", str(text_path))[0] == code
    assert text_path.read_bytes() == out.encode()


@pytest.mark.parametrize("cubic", [FERMAT + "+X4^3",
                                   "X0^3+X1^2+X2^3+X3^3"],
                         ids=["unknown-variable", "inhomogeneous"])
def test_bad_cubic_reads_alike_in_every_subcommand(capsys, cubic):
    runs = {run_err(capsys, *argv) for argv in (
        ["lines", "--field", "7", "--surface", cubic],
        ["eckardt", "--field", "7", "--surface", cubic],
        ["construct", "--field", "7", "--surface", cubic],
        ["splitting", "--field", "7", "--surface", cubic,
         "--curve", "-U^3-V^3;U^2*V;U*V^2;0"],
        ["smooth", "--field", "7", "--poly", cubic],
        ["build", "--field", "7", "--dim", "3", "--poly", cubic])}
    assert len(runs) == 1
    code, out, err = runs.pop()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error, code, prefix", [
    (FieldError("planted"), 2, "error"),
    (ParseError("planted"), 2, "error"),
    (MonadError("planted"), 2, "error"),
    (ScanBudgetExceeded("planted"), 3, "budget exhausted"),
    (ExtensionCapExceeded("planted"), 3, "budget exhausted"),
    (IntegrityError("planted"), 1, "verification failed"),
    (AllEckardtError("planted", None), 1, "construction failed"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_failure_has_its_exit_code(monkeypatch, capsys, error, code,
                                         prefix):
    def fail(x):
        raise error
    monkeypatch.setattr(cli, "is_smooth", fail)
    assert run_err(capsys, "smooth", "--field", "7", "--poly", FERMAT) \
        == (code, "", f"{prefix}: planted\n")


@pytest.mark.parametrize("field, cubic", [
    ("2^2", "g*X0^3+X1^3+X2^3+X3^3"),
    ("2", "X0^3+X1^3+X2^3+(X0+X3)^3"),
], ids=["scaled-coordinate", "changed-coordinates"])
def test_build_without_two_line_point_or_explicit_curve(capsys, field,
                                                        cubic):
    """Every intersection point is an Eckardt point, and the explicit
    characteristic-2 curve does not lie on the surface."""
    code, out, err = run_err(capsys, "build", "--field", field, "--dim", "3",
                             "--poly", cubic)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == ("construction failed: all intersection points are "
                   "Eckardt points; no nodal tangent section exists "
                   "through a two-line point\n")

