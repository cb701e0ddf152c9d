import dataclasses
import json
import subprocess
import sys
from importlib import resources

import pytest

import logsurf.cli
from logsurf.cli import main
from logsurf.scenario import MAX_BLOWUPS, serialize_scenario, star_scenario


@pytest.fixture
def bundled(tmp_path):
    def materialize(name):
        text = resources.files("logsurf").joinpath("scenarios", f"{name}.json").read_text("utf-8")
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return materialize


@pytest.fixture
def fork_path(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(serialize_scenario(star_scenario(3, (2, 3, 6), 3)), encoding="utf-8")
    return str(path)


class TestBuild:
    def test_human_output(self, bundled, capsys):
        assert main(["build", bundled("quad_fork_threshold")]) == 0
        out = capsys.readouterr().out
        assert "rank: 11" in out
        assert "K²: -1" in out
        assert "contracted: E0, E1, E2, E3" in out
        assert "curve" in out and "self²" in out

    def test_json_output(self, bundled, capsys):
        assert main(["build", "--json", bundled("quad_fork_threshold")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 11
        assert doc["k_squared"] == -1
        assert doc["contracted"] == ["E0", "E1", "E2", "E3"]
        by_name = {c["name"]: c for c in doc["curves"]}
        assert by_name["D"]["self_int"] == -3
        assert by_name["D"]["genus"] == "0"


class TestClassify:
    def test_defaults_to_scenario_epsilon(self, fork_path, capsys):
        assert main(["classify", fork_path]) == 0
        out = capsys.readouterr().out
        assert "total discrepancy: -1" in out
        assert "classification: eps-log-canonical" in out

    def test_epsilon_override(self, fork_path, capsys):
        assert main(["classify", "--epsilon", "1/7", fork_path]) == 0
        out = capsys.readouterr().out
        assert "classification: not-log-canonical" in out

    def test_json_fields(self, bundled, capsys):
        assert main(["classify", "--json", bundled("quad_fork_star")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "total_discrepancy": "-inf",
            "classification": "not-log-canonical",
            "mr_total_discrepancy": "-20/19",
            "mr_classification": "not-log-canonical",
            "epsilon": "1/7",
        }

    def test_bad_epsilon_exits_2(self, fork_path, capsys):
        assert main(["classify", "--epsilon", "x", fork_path]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiscrepancies:
    def test_fork_table(self, fork_path, capsys):
        assert main(["discrepancies", fork_path]) == 0
        out = capsys.readouterr().out
        for name, value in [("E0", "-1"), ("E1", "-1/2"), ("E2", "-2/3"), ("E3", "-5/6")]:
            assert f"{name}" in out and value in out

    def test_boundary_is_ignored(self, tmp_path, capsys):
        # discrepancies are a property of the contracted surface alone
        with_b = tmp_path / "b.json"
        with_b.write_text(
            serialize_scenario(star_scenario(3, (2, 3, 6), 3, boundary="1")), encoding="utf-8"
        )
        assert main(["discrepancies", "--json", str(with_b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"E0": "-1", "E1": "-1/2", "E2": "-2/3", "E3": "-5/6"}


class TestPullback:
    def test_fork_coefficients(self, fork_path, capsys):
        assert main(["pullback", "--divisor", "D", "--json", fork_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "divisor": "D",
            "coefficients": {"E0": "1/2", "E1": "1/4", "E2": "1/6", "E3": "1/12"},
        }

    def test_unknown_divisor_exits_2(self, fork_path, capsys):
        assert main(["pullback", "--divisor", "ZZ", fork_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_contracted_divisor_exits_2(self, fork_path, capsys):
        assert main(["pullback", "--divisor", "E0", fork_path]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_threshold_scenario(self, bundled, capsys):
        assert main(["run", bundled("quad_fork_threshold")]) == 0
        out = capsys.readouterr().out
        assert "1. contract D (artin-type)" in out
        assert "value=-23/49" in out
        assert "outcome: exhausted" in out
        assert "audit: rho 7 -> 6" in out
        assert "audit violations: none" in out

    def test_strategy_override(self, bundled, capsys):
        assert main(["run", "--strategy", "named:X1", bundled("quad_fork_threshold")]) == 0
        out = capsys.readouterr().out
        assert "contract X1" in out
        assert "outcome: exhausted" in out

    def test_json_document(self, bundled, capsys):
        assert main(["run", "--json", bundled("quad_fork_threshold")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["contracted_curve"] for s in doc["steps"]] == ["D"]
        assert doc["steps"][0]["extremal_value"] == "-23/49"
        assert doc["steps"][0]["post_classification"]["classification"] == "not-log-canonical"
        assert doc["outcome"] == {"kind": "exhausted"}
        assert doc["audit"]["ok"] is True
        assert doc["audit"]["rho_sequence"] == [7, 6]
        assert doc["audit"]["steps"][0]["step3_value"] == "-114/49"

    def test_audit_violations_exit_1(self, bundled, capsys, monkeypatch):
        real_run = logsurf.cli.run

        def tampered(state, strategy, epsilon=0):
            result = real_run(state, strategy, epsilon=epsilon)
            audit = dataclasses.replace(result.audit, violations=("rho: tampered for test",))
            return dataclasses.replace(result, audit=audit)

        monkeypatch.setattr(logsurf.cli, "run", tampered)
        assert main(["run", bundled("quad_fork_threshold")]) == 1
        out = capsys.readouterr().out
        assert "audit violations (1):" in out
        assert "rho: tampered for test" in out

    def test_bad_strategy_exits_2(self, bundled, capsys):
        assert main(["run", "--strategy", "bogus", bundled("quad_fork_threshold")]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_small_clean_sweep(self, capsys):
        assert main(["verify-thm31", "--trials", "50", "--seed", "7", "--epsilon", "1/4"]) == 0
        out = capsys.readouterr().out
        assert "trials: 50  seed: 7  epsilon: 1/4  max blow-ups: 10" in out
        assert "violations: none" in out

    def test_json_report(self, capsys):
        rc = main(["verify-thm31", "--trials", "10", "--seed", "3", "--epsilon", "0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 10
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert sum(doc["outcomes"].values()) == 10

    def test_violations_exit_1(self, capsys, monkeypatch):
        real = logsurf.cli.verify_smooth_start_runs

        def tampered(**kwargs):
            report = real(**kwargs)
            return dataclasses.replace(report, violations=("trial 0: fake",))

        monkeypatch.setattr(logsurf.cli, "verify_smooth_start_runs", tampered)
        assert main(["verify-thm31", "--trials", "2", "--seed", "1", "--epsilon", "0"]) == 1
        assert "trial 0: fake" in capsys.readouterr().out

    def test_input_validation_exits_2(self, capsys):
        assert main(["verify-thm31", "--trials", "0", "--seed", "1", "--epsilon", "0"]) == 2
        capsys.readouterr()
        assert main(["verify-thm31", "--trials", "2", "--seed", "1", "--epsilon", "3/2"]) == 2
        capsys.readouterr()
        assert main(["verify-thm31", "--trials", "2", "--seed", "1", "--epsilon", "1/0"]) == 2
        assert "zero denominator" in capsys.readouterr().err
        argv = ["verify-thm31", "--trials", "2", "--seed", "1", "--epsilon", "0", "--max-blowups", "0"]
        assert main(argv) == 2
        assert "max_blowups must be >= 1" in capsys.readouterr().err
        # argparse-level failure: --seed missing
        assert main(["verify-thm31", "--trials", "2", "--epsilon", "0"]) == 2

    def test_blowup_cap_exits_2(self, monkeypatch, capsys):
        def never(**kwargs):
            raise AssertionError("verify ran past the blow-up cap")

        monkeypatch.setattr(logsurf.cli, "verify_smooth_start_runs", never)
        argv = ["verify-thm31", "--trials", "1", "--seed", "1", "--epsilon", "0"]
        assert main(argv + ["--max-blowups", str(MAX_BLOWUPS + 1)]) == 2
        assert f"exceeds the cap of {MAX_BLOWUPS} blow-ups" in capsys.readouterr().err


class TestDot:
    def test_contracted_star(self, bundled, capsys):
        assert main(["dot", bundled("quad_fork_star")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph dual {\n")
        assert out.endswith("}\n")
        assert '"D" [label="D (self²=-3)"];' in out
        assert '"E0" [label="E0 (self²=-5)"];' in out
        assert '"D" -- "E0";' in out
        assert "X1" not in out

    def test_all_set_includes_branch_tips(self, bundled, capsys):
        assert main(["dot", "--set", "all", bundled("quad_fork_star")]) == 0
        out = capsys.readouterr().out
        assert '"X1" [label="X1 (self²=-1)"];' in out
        assert '"E1" -- "X1";' in out

    def test_byte_determinism_and_json_agreement(self, bundled, capsys):
        path = bundled("triple_fork_236")
        assert main(["dot", path]) == 0
        first = capsys.readouterr().out
        assert main(["dot", path]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["dot", "--json", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"dot": first}


class TestSearch:
    def test_smoke(self, capsys):
        assert main(["search-q44", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "trials: 5  seed: 3" in out
        assert "canonical starts: 5" in out

    def test_json(self, capsys):
        assert main(["search-q44", "--trials", "4", "--seed", "9", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 4
        assert doc["canonical_starts"] == 4
        assert set(doc) == {
            "trials",
            "seed",
            "canonical_starts",
            "total_steps",
            "runs_with_not_lc_intermediate",
            "not_lc_steps",
            "samples",
        }


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["build", str(tmp_path / "absent.json")]) == 2
        assert "error: cannot read scenario file" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        path.write_text('{"base": "P2", "epsilon": "3/0"}', encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_oversized_scenario(self, tmp_path, capsys):
        blowups = [{"point": "general", "name": f"G{i}"} for i in range(MAX_BLOWUPS + 1)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"base": "P2", "blowups": blowups}), encoding="utf-8")
        assert main(["build", str(path)]) == 2
        assert f"exceed the cap of {MAX_BLOWUPS}" in capsys.readouterr().err

    def test_argparse_failures(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
        assert main(["pullback", "x.json"]) == 2  # --divisor required

    def test_module_entry_point(self, fork_path):
        proc = subprocess.run(
            [sys.executable, "-m", "logsurf", "classify", fork_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "eps-log-canonical" in proc.stdout
