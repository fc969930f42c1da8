"""Exit codes, report structure and determinism of the command-line interface."""

import json

import numpy as np
import pytest

from cstar_rank import Algebra, ModuleSpace, ModuleTuple
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
