"""End-to-end tests of the command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from qmacdonald.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
# stdout and exit code of every subcommand in JSON and CSV, of the error
# exits and of config files, recorded before the field-table refactor
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_config(capsys, tmp_path, command, doc, *argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run_cli(capsys, command, "--config", str(cfg), *argv)


def run_golden(capsys, tmp_path, case):
    argv = list(case["argv"])
    if "config" in case:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(case["config"]))
        argv[argv.index("{config}")] = str(cfg)
    return run_cli(capsys, *argv)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_output(capsys, tmp_path, case):
    assert run_golden(capsys, tmp_path, case) == (case["code"], case["stdout"])


def test_golden_output_after_exit_and_config(capsys, tmp_path):
    # the parser is built once per process, so neither a parse that ends
    # in SystemExit nor a --config run may leave state behind
    assert build_parser() is build_parser()
    config_case = next(c for c in GOLDEN
                       if "config" in c and c["argv"][0] == "verify")
    for case in GOLDEN:
        for argv in (["verify", "--mode", "A"], ["solve", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        run_golden(capsys, tmp_path, config_case)
        assert (run_golden(capsys, tmp_path, case)
                == (case["code"], case["stdout"])), case["argv"]


class TestSolve:
    def test_json_document(self, capsys):
        code, out = run_cli(capsys, "solve", "--q", "0.5", "--k", "0.4",
                            "--lambda", "0.3,-0.3", "--N", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["coeffs"][0] == {"p": [0], "re": 1.0, "im": 0.0}
        assert doc["N"] == 8

    def test_csv_document(self, capsys):
        code, out = run_cli(capsys, "solve", "--lambda", "0.27,-0.27",
                            "--N", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p1,re,im"
        assert len(lines) == 5

    def test_weyl_element_flag(self, capsys):
        code, out = run_cli(capsys, "solve", "--lambda", "0.27,-0.27",
                            "--w", "2,1", "--N", "2")
        assert code == 0
        assert json.loads(out)["w"] == [1, 0]

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "solve", "--lambda", "0.27,-0.27", "--N", "6")
        _, out2 = run_cli(capsys, "solve", "--lambda", "0.27,-0.27", "--N", "6")
        assert out1 == out2

    def test_deep_solve_names_the_first_coefficient_out_of_range(self, capsys):
        # the table of 100,001 multi-indices is built before the solve,
        # which then fails where the coefficients leave the float range
        code, out = run_cli(capsys, "solve", "--lambda=0.3,-0.3",
                            "--N", "100000")
        assert code == 4
        assert json.loads(out)["error"]["message"] == (
            "series coefficient at p=(1024,) is not finite at q = 0.5, "
            "w = (0, 1)")


class TestEval:
    def test_points(self, capsys):
        code, out = run_cli(capsys, "eval", "--lambda", "0.27,-0.27",
                            "--N", "20", "--points", "1,8;1+0.5j,9")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 2
        assert doc["points"][0]["tail_estimate"] < 1e-12


class TestMacpoly:
    def test_golden_example(self, capsys):
        code, out = run_cli(capsys, "macpoly", "--lambda", "2,0",
                            "--q", "0.5", "--k", "0.4")
        assert code == 0
        doc = json.loads(out)
        q, t = 0.5, 0.5 ** 0.4
        ref = (1 - t) * (1 + q) / (1 - t * q)
        mid = [e for e in doc["terms"] if e["exp"] == [1, 1]][0]
        assert abs(mid["re"] - ref) < 1e-12

    def test_three_variables(self, capsys):
        code, out = run_cli(capsys, "macpoly", "--lambda", "1,1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert len(doc["terms"]) == 3


class TestConnect:
    def test_matrix_schema(self, capsys):
        code, out = run_cli(capsys, "connect", "--lambda", "0.27,-0.27",
                            "--points", "1.3,1.0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"i", "w", "ratio", "entries"}
        assert len(doc["entries"]) == 2 and len(doc["entries"][0]) == 2


class TestVerify:
    def test_report_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--lambda", "0.27,-0.27",
                            "--N", "12", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"]
        names = {c["name"] for c in doc["checks"]}
        assert "eigen_w12_m1" in names
        assert "double_crossing" in names

    def test_failure_exit_code(self, capsys):
        code, out = run_cli(capsys, "verify", "--lambda", "0.27,-0.27",
                            "--N", "2", "--tol", "1e-14")
        assert code == 1
        assert not json.loads(out)["all_pass"]


class TestConfigAndErrors:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"command": "macpoly", "lambda": [3, 0], "q": 0.5, "k": 0.4,
             "seed": 5}))  # a key without a field is ignored
        code, out = run_cli(capsys, "macpoly", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_domain_error_exit(self, capsys):
        code, out = run_cli(capsys, "solve", "--q", "1.5",
                            "--lambda", "0.3,-0.3")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainError"

    def test_negative_depth_exit(self, capsys):
        for command in ("solve", "verify"):
            code, out = run_cli(capsys, command, "--lambda", "0.27,-0.27",
                                "--N", "-5")
            assert code == 2
            assert json.loads(out)["error"]["type"] == "DomainError"

    def test_verify_point_of_wrong_length_exit(self, capsys):
        code, out = run_cli(capsys, "verify", "--lambda", "0.3,-0.3",
                            "--points", ",".join(map(str, range(1, 41))))
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "DomainError", "message": "point must have 2 coordinates"}

    def test_zone_error_exit(self, capsys):
        code, out = run_cli(capsys, "eval", "--lambda", "0.27,-0.27",
                            "--points", "8,1")
        assert code == 2
        assert "error" in json.loads(out)

    def test_resonance_error_exit(self, capsys):
        code, out = run_cli(capsys, "solve", "--lambda=-0.5,0.5",
                            "--N", "4")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NondegeneracyError"

    def test_bad_lambda_rejected(self, capsys):
        code, out = run_cli(capsys, "solve", "--lambda", "0.3,abc")
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"q": "0.5"}, {"i": "1"}, {"tol": "1e-6"}, {"lambda": "0.3,-0.3"},
        {"points": [[1]]}, {"points": [[[1, 0, 0]]]}, {"w": [2.0, 1]},
        {"N": True}, {"format": "xml"}, {"tol": 0}, {"q": 10 ** 400},
        5, [1, 2], "verify",
    ])
    def test_bad_config_is_a_domain_error(self, capsys, tmp_path, doc):
        code, out = run_config(capsys, tmp_path, "verify", doc)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1e-6"),
        ("--tol", "inf"), ("--format", "xml"), ("--q", "abc"),
        ("--N", "2.5"), ("--i", "x"), ("--lambda", "inf,-inf"),
        ("--lambda", "nan,0"), ("--points", "inf,1"),
    ])
    def test_bad_flag_is_a_domain_error(self, capsys, flag, value):
        code, out = run_cli(capsys, "verify", f"{flag}={value}")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainError"

    # verify reads no w, and solve checked it 0-based after parsing
    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("w", [[3, 1], [1, 1], [0, 1], [2, 3, 3]])
    def test_w_is_checked_when_parsed(self, capsys, tmp_path, command, w):
        flag = ",".join(map(str, w))
        n = len(w)
        code, out = run_cli(capsys, command, "--lambda=0.3,-0.3",
                            f"--w={flag}")
        assert (code, json.loads(out)["error"]) == (2, {
            "type": "DomainError",
            "message": f"could not parse --w: expected a permutation of "
                       f"1..{n}, got {flag!r}"})
        code, out = run_config(capsys, tmp_path, command,
                               {"lambda": [0.3, -0.3], "w": w})
        assert (code, json.loads(out)["error"]) == (2, {
            "type": "DomainError",
            "message": f"could not parse config key 'w': expected a "
                       f"permutation of 1..{n}, got {w!r}"})

    @pytest.mark.parametrize("command", ["solve", "macpoly", "connect"])
    def test_non_finite_lambda_exit(self, capsys, command):
        code, out = run_cli(capsys, command, "--lambda=inf,-inf")
        assert code == 2
        assert "finite" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("argv, code, error", [
        # a theta argument at the edge of the float range
        (("connect", "--points=1e308,1"), 2, "ZoneError"),
        # Theta_q(1/zeta) overflows
        (("connect", "--points=1e200,1"), 4, "ConvergenceError"),
        # q^(-1e300) overflows in the eigenvalue
        (("solve", "--lambda=1e300,-1e300"), 2, "DomainError"),
        (("verify", "--lambda=1e300,-1e300"), 2, "DomainError"),
        # (q^a;q)_inf in the written leading coefficients and the theta
        # denominators underflow near q = 1
        (("solve", "--q", "0.999"), 4, "ConvergenceError"),
        (("connect", "--q", "0.999"), 4, "ConvergenceError"),
        # the default points q^(-3i) overflow
        (("connect", "--q", "1e-300"), 2, "DomainError"),
        (("verify", "--q", "1e-300"), 2, "DomainError"),
        # the theta denominators of the braid check underflow near q = 1
        (("verify", "--q", "0.999"), 4, "ConvergenceError"),
        # abs() of a ratio, and of a coordinate in D^m's coincidence test,
        # overflows
        (("eval", "--points=1.5e308+1.5e308j,1"), 2, "ZoneError"),
        (("verify", "--points=1,1.5e308+1.5e308j"), 2, "DomainError"),
    ])
    def test_float_range_errors_are_typed(self, capsys, argv, code, error):
        got, out = run_cli(capsys, *argv)
        assert got == code
        assert json.loads(out)["error"]["type"] == error

    @pytest.mark.parametrize("argv, code, error", [
        # the coefficients overflow at q = 1e-300
        (("solve", "--lambda=0.3,-0.3", "--q", "1e-300", "--N", "3"), 4,
         "ConvergenceError"),
        (("eval", "--lambda=0.3,-0.3", "--q", "1e-300",
          "--points=1,1e301"), 4, "ConvergenceError"),
        # the branch point of the prefactor
        (("eval", "--points=1,0"), 2, "DomainError"),
        (("eval", "--points=0,1"), 2, "DomainError"),
        (("verify", "--points=0,1"), 2, "DomainError"),
    ])
    def test_series_errors_are_typed(self, capsys, argv, code, error):
        assert main(list(argv)) == code
        out, err = capsys.readouterr()
        # strict JSON: no NaN, and no NumPy warning on stderr
        doc = json.loads(out, parse_constant=pytest.fail)
        assert doc["error"]["type"] == error
        assert "Warning" not in err

    def test_eval_needs_no_leading_coefficient(self, capsys):
        # Gamma_q underflows at q = 0.999, but eval never normalizes
        code, out = run_cli(capsys, "eval", "--q", "0.999", "--N", "4")
        assert code == 0
        assert json.loads(out)["points"][0]["value"]["re"] > 0

    def test_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "A"])
        assert exc.value.code == 2


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_verification_sweep(self, capsys):
        assert _script("verification_sweep").main([]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("[ok ]") for line in lines)

    def test_solve_and_serialize(self, capsys, tmp_path):
        out = tmp_path / "solution.json"
        assert _script("solve_and_serialize").main(["--out", str(out)]) == 0
        assert "JSON round trip ok" in capsys.readouterr().out
        assert json.loads(out.read_text())["n"] == 3
