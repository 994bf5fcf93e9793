import hashlib
import json
import os

from veryfree.cli import main

FERMAT = "X0^3+X1^3+X2^3+X3^3"
GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "golden", "verify_paper.json")


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


def test_budget_exit_code(capsys):
    code = main(["lines", "--field", "5", "--surface",
                 "X0^3+X1^3+X2^3+X3^3+X0*X1*X2",
                 "--line-field-cap", "4"])
    assert code == 3


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
