"""End-to-end tests of the command-line interface."""

import json

import pytest

from qmacdonald.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
