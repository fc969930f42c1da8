"""Exit codes, report structure and determinism of the command-line interface."""

import json

import numpy as np
import pytest

from cstar_rank import (
    Algebra,
    ModuleSpace,
    ModuleTuple,
    acceptance,
    corner_space,
    is_unimodular,
    tuple_from_json_list,
)
from cstar_rank.cli import main


def write_tuple(path, t):
    path.write_text(json.dumps(t.to_json_list()))
    return str(path)


def unimodular_pair(space, seed=0):
    rng = np.random.default_rng(seed)
    return ModuleTuple((space.random_element(rng), space.random_element(rng)))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sr_formula_report(capsys):
    code, out, _ = run_cli(
        capsys, ["sr-formula", "--sr-a", "2", "--n", "3", "--m", "5", "--no-timestamp"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"] == 2
    assert report["command"] == "sr-formula"
    assert "version" in report and "tolerance" in report and "seed" in report
    assert "timestamp" not in report


def test_check_zero_tuple(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "zero.json", ModuleTuple((space.zero(),)))
    code, out, _ = run_cli(capsys, ["check", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"unimodular": False}
    assert "timestamp" in report and "wall_time_s" in report


def test_dual_reports_residual(tmp_path, capsys):
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    path = write_tuple(tmp_path / "t.json", unimodular_pair(space, seed=3))
    code, out, _ = run_cli(capsys, ["dual", "--input", path, "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["pairing_residual"] <= 1e-8
    assert len(report["result"]["witness"]) == 2


def test_reduce_end_to_end(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "t.json", unimodular_pair(space, seed=5))
    code, out, _ = run_cli(
        capsys, ["reduce", "--input", path, "--seed", "2", "--no-timestamp"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["reduced_unimodular"] is True
    assert report["residuals"]["reduced_margin"] > 1e-9


def test_pad_with_default_padding(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(1)
    t = ModuleTuple((space.random_element(rng), space.random_element(rng)))
    payload = {"tuple": t.to_json_list(), "pad_with": None}
    path = tmp_path / "pad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, ["pad", "--input", str(path), "--eps", "0.5", "--no-timestamp"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["unimodular"] is True
    assert len(report["result"]["padded"]) == 4  # n=2 plus r=2 padding entries


def test_perturb_reports_distance(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(
        tmp_path / "x.json", ModuleTuple((space.zero(),))
    )
    code, out, _ = run_cli(
        capsys,
        ["perturb", "--input", path, "--eps", "0.01", "--seed", "4", "--no-timestamp"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["distance"] < report["result"]["distance_bound"]


def test_density_deterministic_reports(capsys):
    argv = [
        "density", "--blocks", "1", "--rows", "1", "--cols", "2",
        "--k", "2", "--trials", "100", "--seed", "7", "--no-timestamp",
    ]
    code1, out1, _ = run_cli(capsys, list(argv))
    code2, out2, _ = run_cli(capsys, list(argv))
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"]["unimodular_fraction"] == 1.0


def test_density_multi_block(capsys):
    argv = [
        "density", "--blocks", "1", "2", "--rows", "2", "--cols", "3",
        "--k", "2", "--trials", "50", "--seed", "3", "--no-timestamp",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["predicted_sr"] == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["sr-formula", "--sr-a", "1", "--n", "1", "--m", "1",
         "--out", str(target), "--no-timestamp"],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"] == 1


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    code, _, err = run_cli(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, ["check", "--input", "/nonexistent/x.json"])
    assert code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(0)
    path = write_tuple(tmp_path / "row.json", ModuleTuple((space.random_element(rng),)))
    code, _, err = run_cli(capsys, ["dual", "--input", path])
    assert code == 1
    assert "not unimodular" in err


def test_reduction_failure_exit_code(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    path = write_tuple(tmp_path / "pair.json", unimodular_pair(space, seed=9))
    code, _, err = run_cli(
        capsys,
        ["reduce", "--input", path, "--max-retries", "5", "--no-timestamp"],
    )
    assert code == 1
    assert "retries" in err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_flag_value_is_a_usage_error(capsys):
    assert main(["density", "--blocks", "1", "--rows", "0", "--cols", "1",
                 "--k", "1", "--trials", "10"]) == 2


def test_env_var_overrides_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CSTAR_RANK_TOL", "1e-3")
    space = ModuleSpace(Algebra((1,)), 1, 1)
    x = space.element([np.array([[1e-3]], dtype=complex)])
    path = write_tuple(tmp_path / "small.json", ModuleTuple((x,)))
    code, out, _ = run_cli(capsys, ["check", "--input", path, "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    # |x|^2 = 1e-6 clears the default threshold but not the coarsened one.
    assert report["tolerance"] == 1e-3
    assert report["result"] == {"unimodular": False}
    monkeypatch.delenv("CSTAR_RANK_TOL")
    code, out, _ = run_cli(capsys, ["check", "--input", path, "--no-timestamp"])
    report = json.loads(out)
    assert report["tolerance"] == 1e-9
    assert report["result"] == {"unimodular": True}


@pytest.mark.parametrize(
    "env, flag",
    [("-1", None), ("abc", None), ("nan", None), (None, "nan"), (None, "inf"), (None, "-1")],
)
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, monkeypatch, env, flag):
    # Accepted, -1 would call the zero tuple unimodular and nan or inf would
    # call every tuple singular, all with exit 0.
    if env is not None:
        monkeypatch.setenv("CSTAR_RANK_TOL", env)
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "zero.json", ModuleTuple((space.zero(),)))
    argv = ["check", "--input", path] + (["--tol", flag] if flag else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("entry", [float("inf"), float("nan")])
def test_non_finite_entries_are_a_parse_error(tmp_path, capsys, entry):
    space = ModuleSpace(Algebra((1, 2)), 1, 1)
    data = ModuleTuple((space.random_element(np.random.default_rng(0)),)).to_json_list()
    data[0]["blocks"][1][0][1] = [entry, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # written as the tokens Infinity / NaN
    code, out, err = run_cli(capsys, ["check", "--input", str(path), "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_unparsable_env_tolerance_names_the_rule(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CSTAR_RANK_TOL", "abc")
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "zero.json", ModuleTuple((space.zero(),)))
    code, out, err = run_cli(capsys, ["check", "--input", path])
    assert code == 2
    assert out == ""
    assert "positive finite" in err and "CSTAR_RANK_TOL" in err


def test_overflowing_gram_is_a_domain_error(tmp_path, capsys):
    # The Gram sum of 1e200 overflows to inf; that once read as "not
    # unimodular" with a NaN margin, invalid JSON and exit 0.
    space = ModuleSpace(Algebra((1,)), 1, 1)
    x = space.element([np.array([[1e200]], dtype=complex)])
    path = write_tuple(tmp_path / "big.json", ModuleTuple((x,)))
    code, out, err = run_cli(capsys, ["check", "--input", path, "--no-timestamp"])
    assert code == 1
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize(
    "corner, edit",
    [
        (False, lambda s: s.update(rows=1.5)),
        (False, lambda s: s["algebra"].update(blocks=[1.9])),
        (True, lambda s: s.update(size=2.0)),
    ],
    ids=["rows", "blocks", "size"],
)
def test_non_integer_shapes_are_a_parse_error(tmp_path, capsys, corner, edit):
    # int() once truncated or coerced these shapes and check exited 0.
    alg = Algebra((1,))
    if corner:
        p = alg.matrix_algebra(2).element([np.diag([1.0, 0.0])])
        space = corner_space(alg, 2, p, p)
    else:
        space = ModuleSpace(alg, 1, 1)
    data = ModuleTuple((space.random_element(np.random.default_rng(0)),)).to_json_list()
    edit(data[0]["space"])
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["check", "--input", str(path), "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert "integer" in err


def test_pad_with_explicit_padding(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(2)
    t = ModuleTuple((space.random_element(rng),))
    u = unimodular_pair(space, seed=6)
    payload = {"tuple": t.to_json_list(), "pad_with": u.to_json_list()}
    path = tmp_path / "pad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, ["pad", "--input", str(path), "--eps", "0.5", "--no-timestamp"]
    )
    assert code == 0
    padded = tuple_from_json_list(json.loads(out)["result"]["padded"])
    assert len(padded) == 1 + len(u)
    assert is_unimodular(padded)

    other = ModuleSpace(Algebra((2,)), 1, 2)
    payload["pad_with"] = unimodular_pair(other, seed=6).to_json_list()
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        capsys, ["pad", "--input", str(path), "--eps", "0.5", "--no-timestamp"]
    )
    assert code == 1
    assert out == ""
    assert "different spaces" in err


def _fake_criterion(name, passed, details, seconds):
    return lambda: acceptance.CriterionResult(name, passed, details, seconds)


def test_verify_suite_prints_one_line_per_criterion(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance,
        "ALL_CRITERIA",
        (
            _fake_criterion("fake-pass", True, "all good", 0.4),
            _fake_criterion("fake-fail", False, "run 3: off by 1", 12.0),
        ),
    )
    target = tmp_path / "suite.json"
    code, out, _ = run_cli(capsys, ["verify-suite", "--out", str(target)])
    assert code == 1
    assert out.splitlines() == [
        "PASS  fake-pass                (   0.4s)  all good",
        "FAIL  fake-fail                (  12.0s)  run 3: off by 1",
        "1/2 criteria passed",
    ]
    summary = json.loads(target.read_text())
    assert summary["command"] == "verify-suite"
    assert [c["name"] for c in summary["criteria"]] == ["fake-pass", "fake-fail"]
    assert [c["passed"] for c in summary["criteria"]] == [True, False]

    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA", (_fake_criterion("fake-pass", True, "all good", 0.4),)
    )
    code, out, _ = run_cli(capsys, ["verify-suite"])
    assert code == 0
    assert out.splitlines()[-1] == "1/1 criteria passed"
