"""Exit codes, report structure and determinism of the command-line interface."""

import builtins
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cstar_rank import (
    Algebra,
    ModuleSpace,
    ModuleTuple,
    acceptance,
    corner_space,
    errors,
    generation_margin,
    gram,
    hilbert_module,
    is_unimodular,
    stable_rank,
    tuple_from_json_list,
)
from cstar_rank.cli import main
from test_hilbert_module import corner_with_ranks, space_of_kind
from test_stable_rank import count_lapack_and_gram, random_tuple, random_unimodular, scaled_to_norm


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


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, **kwargs):
    """A fresh interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


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


def test_an_unwritable_out_is_one_error_line(tmp_path, capsys, monkeypatch):
    # The report was written outside the error handlers: a raw traceback with
    # exit 1 for a command, an escaping FileNotFoundError for verify-suite.
    target = str(tmp_path / "missing" / "report.json")
    path = write_tuple(tmp_path / "t.json", unimodular_pair(ModuleSpace(Algebra((1,)), 1, 2)))
    for argv in (["sr-formula", "--sr-a", "1", "--n", "1", "--m", "1"], ["check", "--input", path]):
        code, out, err = run_cli(capsys, [*argv, "--out", target])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and target in err
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA", (_fake_criterion("fake-pass", True, "all good", 0.4),)
    )
    code, out, err = run_cli(capsys, ["verify-suite", "--out", target])
    assert code == 2
    assert out.splitlines()[-1] == "1/1 criteria passed"
    assert err.startswith("error: ") and err.count("\n") == 1 and target in err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    code, _, err = run_cli(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("command", [["check"], ["dual"], ["reduce"], ["pad", "--eps", "0.1"],
                                     ["perturb", "--eps", "0.1"]])
def test_over_deep_json_is_a_parse_error(tmp_path, capsys, command):
    # Valid JSON nested past the parser's recursion limit once escaped as a
    # raw RecursionError traceback with exit 1.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert code == 2
    assert err.startswith("error: ") and "nests too deeply" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", [["check"], ["dual"], ["reduce"], ["perturb", "--eps", "0.1"]])
@pytest.mark.parametrize("document", [{"tuple": [], "pad_with": None}, {}, 5, "x", []],
                         ids=["pad-object", "empty-object", "number", "string", "empty-list"])
def test_a_tuple_that_is_not_a_list_is_a_parse_error_naming_the_shape(tmp_path, capsys, command, document):
    # The reader refuses a non-list before it indexes data[0], so pad's input object handed
    # to another command names the shape it needs, not KeyError(0).
    path = tmp_path / "t.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert (code, out, err) == (2, "", "error: bad input: $ must be a nonempty JSON list\n")


@pytest.mark.parametrize("command", [["check"], ["dual"], ["reduce"], ["perturb", "--eps", "0.1"]])
@pytest.mark.parametrize("index, entry, message", [
    (0, 5, '$[0] must be a JSON object with "space"'),
    (0, {}, '$[0] must be a JSON object with "space"'),
    (0, "x", '$[0] must be a JSON object with "space"'),
    (0, [1, 0, 3], '$[0] must be a JSON object with "space"'),
    (0, {"space": {}}, '$[0].space must be a JSON object with "algebra"'),
    (1, {"blocks": []}, '$[1] must be a JSON object with "space"'),
], ids=["number", "empty-object", "string", "list", "no-blocks", "second-entry"])
def test_an_entry_that_is_not_an_element_is_a_parse_error_naming_its_index(tmp_path, capsys, command, index, entry,
                                                                            message):
    # check on [5] once printed TypeError("'int' object is not subscriptable"), and on [{}] KeyError('space').
    element = ModuleSpace(Algebra((1,)), 1, 1).zero().to_json_dict()
    path = tmp_path / "t.json"
    path.write_text(json.dumps([element] * index + [entry]))
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert (code, out, err) == (2, "", f"error: bad input: {message}\n")


def test_a_space_with_rows_is_read_as_a_matrix_space(tmp_path, capsys):
    # A key "rows", null or not, makes a space a matrix space; a corner's keys do not excuse a
    # null "rows", which is refused on its own key, nor a missing "cols".
    element = _corner_of_m3().zero().to_json_dict()
    element["space"]["rows"] = None
    path = tmp_path / "t.json"
    path.write_text(json.dumps([element]))
    code, out, err = run_cli(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (2, "", "error: bad input: $[0].space.rows must not be null\n")
    element["space"]["rows"] = 1
    path.write_text(json.dumps([element]))
    code, out, err = run_cli(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (2, "", 'error: bad input: $[0].space must be a JSON object with "cols"\n')


@pytest.mark.parametrize("document", [{"tuple": 5, "pad_with": None}, {"tuple": {}}])
def test_pad_refuses_a_tuple_that_is_not_a_list(tmp_path, capsys, document):
    path = tmp_path / "pad.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, ["pad", "--eps", "0.1", "--input", str(path)])
    assert (code, out, err) == (2, "", "error: bad input: $.tuple must be a nonempty JSON list\n")


@pytest.mark.parametrize("document, node", [
    ({"tuple": [5]}, "$.tuple[0]"),
    ({"tuple": [ModuleSpace(Algebra((1,)), 1, 1).zero().to_json_dict()], "pad_with": [{}]}, "$.pad_with[0]"),
], ids=["tuple", "pad-with"])
def test_pad_refuses_an_entry_that_is_not_an_element(tmp_path, capsys, document, node):
    path = tmp_path / "pad.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, ["pad", "--eps", "0.1", "--input", str(path)])
    assert (code, out, err) == (2, "", f'error: bad input: {node} must be a JSON object with "space"\n')


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


def lone_row(tmp_path, twin=False):
    # A 1-tuple of M_{1x2}(C), or the 2-tuple (x, 2x): singular Gram sums.
    x = ModuleSpace(Algebra((1,)), 1, 2).random_element(np.random.default_rng(5))
    return write_tuple(tmp_path / "row.json", ModuleTuple((x, 2.0 * x) if twin else (x,)))


@pytest.mark.parametrize("tol", ["1e-9", "1e-25"])
def test_perturb_below_the_stable_rank_fails_from_the_counting_bound(tmp_path, capsys, tol):
    # At tol 1e-25 this once exited 2 with a raw LinAlgError.
    argv = ["perturb", "--input", lone_row(tmp_path), "--eps", "0.1", "--tol", tol, "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "counting bound" in err and "stable rank 2" in err


@pytest.mark.parametrize("twin, phrase", [(False, "counting bound"), (True, "pairing residual")])
def test_dual_below_rounding_gives_no_witness(tmp_path, capsys, twin, phrase):
    # Both Gram sums pass tol=1e-25 on rounding noise; the witness once
    # printed with exit 0 and a pairing residual above 1.
    argv = ["dual", "--input", lone_row(tmp_path, twin), "--tol", "1e-25", "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert phrase in err


@pytest.mark.parametrize("command, multiples", [("dual", (1, 1)), ("dual", (1, 2)), ("reduce", (1, 2, 3))],
                         ids=["dual-x-x", "dual-x-2x", "reduce-x-2x-3x"])
def test_an_exactly_singular_gram_sum_below_rounding_is_a_domain_error(tmp_path, capfd, command, multiples):
    # With x = [[1, 2]] these Gram sums are exactly singular.  Their SVD margins
    # once passed tol=1e-25 on rounding noise, and LAPACK's inverse then refused
    # them with a raw LinAlgError, which exited 2; their eigenvalue margins are 0.
    x = ModuleSpace(Algebra((1,)), 1, 2).element([np.array([[1.0, 2.0]])])
    path = write_tuple(tmp_path / "row.json", ModuleTuple(tuple(c * x for c in multiples)))
    code = main([command, "--input", path, "--tol", "1e-25", "--no-timestamp"])
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: tuple is not unimodular at tol=1e-25 (margin 0)") and err.count("\n") == 1


def test_density_below_rounding_on_an_obstructed_cell_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, [
        "density", "--blocks", "1", "--rows", "1", "--cols", "3", "--k", "1",
        "--trials", "20", "--tol", "1e-30", "--no-timestamp",
    ])
    assert code == 1
    assert out == ""
    assert "tol=1e-30" in err


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_check_below_rounding_applies_the_counting_bound(tmp_path, capsys, seed):
    # 1-tuples of M_{1x2}(C) like these were once called unimodular at tol 1e-25.
    # The Gram sum of M_{1x3}(C) has rank 1 of 3, so its margin is rounding noise.
    x = ModuleSpace(Algebra((1,)), 1, 3).random_element(np.random.default_rng(seed))
    path = write_tuple(tmp_path / "row.json", ModuleTuple((x,)))
    code, out, _ = run_cli(capsys, ["check", "--input", path, "--tol", "1e-25", "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"unimodular": False}
    assert report["residuals"]["unimodularity_margin"] > 1e-25


def test_reduce_below_rounding_fails_from_the_retries(tmp_path, capsys):
    # The truncations cannot be unimodular, so the counting bound refuses the
    # pair before any retry; this once failed inside the truncation's dual
    # witness with a message about a 1-tuple.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    path = write_tuple(tmp_path / "pair.json", unimodular_pair(space, seed=5))
    argv = ["reduce", "--input", path, "--tol", "1e-25", "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "counting bound" in err and "stable rank 2" in err


def test_reduce_succeeds_at_scale_1e5(tmp_path, capsys):
    # The renormalized truncation of this tuple's witness once failed its own
    # margin test (6.05e-11 at tol 1e-9), and reduce exited 1 on valid input.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(0)
    t = ModuleTuple(tuple(space.random_element(rng) * 1e5 for _ in range(3)))
    path = write_tuple(tmp_path / "scaled.json", t)
    code, out, _ = run_cli(capsys, ["reduce", "--input", path, "--no-timestamp"])
    assert code == 0
    reduced = tuple_from_json_list(json.loads(out)["result"]["reduced"])
    assert len(reduced) == 2
    assert generation_margin(reduced) > 1e-9


def test_corner_element_outside_the_corner_is_a_parse_error(tmp_path, capsys):
    # p = diag(1, 0), q = 1 in M_2(C): entries are 1 x 2 rows, stable rank 2.
    # The block I_2 is not p x q; check once called it unimodular with exit 0.
    alg = Algebra((1,))
    ambient = alg.matrix_algebra(2)
    corner = corner_space(alg, 2, ambient.element([np.diag([1.0, 0.0])]), ambient.unit())
    data = ModuleTuple((corner.element([np.eye(2)]),)).to_json_list()
    assert data[0]["blocks"] == [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, ["check", "--input", str(path), "--no-timestamp"])[0] == 0
    data[0]["blocks"] = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    path.write_text(json.dumps(data))
    for command in ("check", "dual"):
        code, out, err = run_cli(capsys, [command, "--input", str(path), "--no-timestamp"])
        assert code == 2
        assert out == ""
        assert "not in its space" in err


def test_reduction_failure_exit_code(tmp_path, capsys):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    path = write_tuple(tmp_path / "pair.json", unimodular_pair(space, seed=9))
    code, _, err = run_cli(
        capsys,
        ["reduce", "--input", path, "--no-timestamp"],
    )
    assert code == 1
    assert "counting bound" in err


def test_reduce_reduces_the_pair_that_exhausted_the_retries(tmp_path, capsys):
    # The bound allows this pair's truncations; random retries once ran out
    # on it, and the polar completion reduces it.
    space = ModuleSpace(Algebra((1,)), 1, 1)
    t = ModuleTuple(tuple(space.element([np.array([[v]], dtype=complex)]) for v in (0.0, 1.0)))
    path = write_tuple(tmp_path / "pair.json", t)
    argv = ["reduce", "--input", path, "--tol", "1e-4", "--seed", "0", "--no-timestamp"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    assert json.loads(out)["result"]["reduced_unimodular"] is True


@pytest.mark.parametrize("command", ["reduce", "perturb"])
def test_max_retries_is_a_usage_error(tmp_path, capsys, command):
    # The reductions no longer retry, so the flag is gone rather than ignored.
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "t.json", unimodular_pair(space, seed=5))
    eps = ["--eps", "0.1"] if command == "perturb" else []
    code, out, err = run_cli(capsys, [command, "--input", path, *eps, "--max-retries", "3"])
    assert code == 2
    assert out == ""
    assert "--max-retries" in err


def test_reduce_takes_no_eps(tmp_path, capsys):
    # bass_reduce never read eps, so the flag is gone rather than ignored.
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "t.json", unimodular_pair(space, seed=5))
    code, out, err = run_cli(capsys, ["reduce", "--input", path, "--eps", "0.1"])
    assert code == 2
    assert out == ""
    assert "--eps" in err


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


@pytest.mark.parametrize("where", ["re", "im", "p", "q"])
def test_boolean_entries_are_a_parse_error(tmp_path, capsys, where):
    # complex(True, 0) is 1, so a boolean entry once passed as a number and check exited 0.
    alg = Algebra((1,))
    p = alg.matrix_algebra(2).element([np.diag([1.0, 0.0])])
    data = ModuleTuple((corner_space(alg, 2, p, p).random_element(np.random.default_rng(0)),)).to_json_list()
    entry = data[0]["space"][where]["blocks"][0][0] if where in ("p", "q") else data[0]["blocks"][0][0]
    entry[0] = [True, entry[0][1]] if where != "im" else [entry[0][0], False]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["check", "--input", str(path), "--no-timestamp"])
    node = f"$[0].space.{where}.blocks[0][0][0]" if where in ("p", "q") else "$[0].blocks[0][0][0]"
    assert (code, out, err) == (2, "", f"error: bad input: {node} must be a [re, im] pair of finite numbers\n")


def test_a_big_declared_shape_fails_on_its_blocks_before_allocating(tmp_path, capsys):
    # The unit of the right algebra M_100000(C) alone would take 149 GiB; the
    # space allocates nothing, so the block shape check answers first.
    data = [{"space": {"algebra": {"blocks": [1]}, "rows": 100000, "cols": 100000},
             "blocks": [[[[1.0, 0.0]]]]}]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["check", "--input", str(path), "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err == "error: bad input: $[0]: block has shape (1, 1), expected (100000, 100000)\n"


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


@pytest.mark.parametrize("command", ["pad", "perturb"])
def test_overflowing_padding_is_a_domain_error(tmp_path, capsys, command):
    # The Gram sum of 1e155 overflows, so the bump's self-adjointness check
    # takes the norm of a NaN block; that once raised a raw LinAlgError (exit 2).
    space = ModuleSpace(Algebra((1,)), 1, 1)
    t = ModuleTuple((space.element([np.array([[1e155]], dtype=complex)]),))
    path = tmp_path / "big.json"
    payload = {"tuple": t.to_json_list(), "pad_with": None}
    path.write_text(json.dumps(payload if command == "pad" else t.to_json_list()))
    code, out, err = run_cli(
        capsys, [command, "--input", str(path), "--eps", "0.1", "--no-timestamp"]
    )
    assert code == 1
    assert out == ""
    assert "not finite" in err


def half_scalar():
    space = ModuleSpace(Algebra((1,)), 1, 1)
    return ModuleTuple((space.element([np.array([[0.5]], dtype=complex)]),))


def test_perturb_at_a_subnormal_eps_returns_the_input(tmp_path, capsys):
    # b0 = 0.25 >= eps, so the bump (eps - b0)^+/eps is 0; taken as 1 - b0/eps,
    # it once overflowed into a NaN block and exit 1.
    t = half_scalar()
    path = write_tuple(tmp_path / "half.json", t)
    code, out, err = run_cli(
        capsys, ["perturb", "--input", path, "--eps", "1e-320", "--no-timestamp"]
    )
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["distance"] == 0.0
    assert result["perturbed"] == t.to_json_list()


def test_pad_at_a_subnormal_eps_pads_with_zero(tmp_path, capsys):
    t = half_scalar()
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"tuple": t.to_json_list(), "pad_with": None}))
    code, out, err = run_cli(
        capsys, ["pad", "--input", str(path), "--eps", "1e-320", "--no-timestamp"]
    )
    assert (code, err) == (0, "")
    head, padding = tuple_from_json_list(json.loads(out)["result"]["padded"])
    assert head.to_json_dict() == t[0].to_json_dict()
    assert not any(b.any() for b in padding.blocks)


def test_perturb_at_a_subnormal_eps_refuses_an_unbounded_damping(tmp_path, capsys):
    # The zero tuple's bump is 1, and its damping k = floor(||a||/eps) + 1 may
    # have no float value at eps = 1e-320, so it is refused before padding.
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "zero.json", ModuleTuple((space.zero(),)))
    code, out, err = run_cli(
        capsys, ["perturb", "--input", path, "--eps", "1e-320", "--no-timestamp"]
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: a nonzero bump needs the damping k = floor(||a||/eps) + 1, "
        "which may overflow at a subnormal eps=9.99989e-321\n"
    )


def overflowing_tuple(base, rows, cols, k, entries):
    """A random ``k``-tuple with ``{(entry, block, row, col): value}`` set."""
    space = ModuleSpace(Algebra(base), rows, cols)
    rng = np.random.default_rng(0)
    blocks = [[np.array(b) for b in space.random_element(rng).blocks] for _ in range(k)]
    for (j, i, row, col), value in entries.items():
        blocks[j][i][row, col] = value
    return ModuleTuple(tuple(space.element(b) for b in blocks))


@pytest.mark.parametrize("command, t", [
    # With an entry of 1e150 the Gram sum is near 1e300, and b0/eps overflowed.
    *(pytest.param(["perturb", "--eps", eps], overflowing_tuple((1, 2), 1, 2, 3, {(0, 1, 1, 0): 1e150}),
                   id=eps) for eps in ("1e-160", "1e-300")),
    # Entries of 1e308 make the Gram sum infinite, which reached the SVD.
    *(pytest.param([command], overflowing_tuple((2,), 2, 3, 2, {(0, 0, 2, 3): 1e308j, (1, 0, 3, 0): 1e308}),
                   id=command) for command in ("check", "dual", "reduce")),
])
def test_an_overflowing_bump_leaves_lapack_silent(tmp_path, capfd, command, t):
    # LAPACK printed DLASCL complaints on non-finite blocks to the process's
    # own stdout, which only capfd sees, before the non-finite rule raised.
    path = write_tuple(tmp_path / "big.json", t)
    code = main([*command, "--input", path, "--no-timestamp"])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _corner_of_m3():
    alg = Algebra((1,))
    p, q = (alg.matrix_algebra(3).element([np.diag(d)]) for d in ([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]))
    return corner_space(alg, 3, p, q)


#: The spaces the fuzz draws its valid inputs from: M_{1x2}(C), M_{1x2}(C+M_2),
#: M_{2x3}(M_2) and a corner of M_3(C).
FUZZ_SPACES = (ModuleSpace(Algebra((1,)), 1, 2), ModuleSpace(Algebra((1, 2)), 1, 2),
               ModuleSpace(Algebra((2,)), 2, 3), _corner_of_m3())

#: What a mutation may put in place of a JSON node; the integers stay small, so
#: that no declared shape allocates much, except 10**400, which no float holds.
FUZZ_MENU = (0, 1, -1, 0.5, 1e150, -1e150, 1e-150, 1e308, 1e-320, 10**400, True, False, None, "x",
             [], {}, [[1, 2]], [[[0.5, 0.0]]])


@st.composite
def fuzz_cases(draw):
    """``(argv, document)``: a command of the CLI and a valid input of it."""
    space = draw(st.sampled_from(FUZZ_SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def entries():
        return ModuleTuple(tuple(space.random_element(rng) for _ in range(draw(st.integers(1, 3))))).to_json_list()

    command = draw(st.sampled_from(["check", "dual", "reduce", "perturb", "pad"]))
    eps = ["--eps", draw(st.sampled_from(["0.1", "0.5", "1e-300"]))] if command in ("perturb", "pad") else []
    if command == "pad":
        document = {"tuple": entries(), "pad_with": entries() if draw(st.booleans()) else None}
    else:
        document = entries()
    return [command, *eps], document


#: A mutation: replace a node by an item of ``FUZZ_MENU``, drop a list item, or
#: scale a number; the integer picks the node, modulo the number of candidates.
fuzz_mutations = st.lists(
    st.tuples(
        st.one_of(st.tuples(st.just("replace"), st.sampled_from(FUZZ_MENU)),
                  st.tuples(st.just("drop"), st.none()),
                  st.tuples(st.just("scale"), st.sampled_from([1e150, 1e-150]))),
        st.integers(0, 10**6),
    ),
    min_size=1, max_size=3,
)


def _json_nodes(document):
    """``(container, key)`` of every node below the root of a JSON document."""
    found = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in list(items):
            found.append((node, key))
            walk(child)

    walk(document)
    return found


def _mutate(document, kind, value, pick):
    nodes = _json_nodes(document)
    if kind == "drop":
        nodes = [(c, k) for c, k in nodes if isinstance(c, list)]
    elif kind == "scale":
        # Scaling by a float converts the integer, which 10**400 overflows.
        nodes = [(c, k) for c, k in nodes if type(c[k]) is float or type(c[k]) is int and abs(c[k]) < 2**1000]
    if nodes:
        container, key = nodes[pick % len(nodes)]
        if kind == "drop":
            del container[key]
        elif kind == "scale":
            container[key] *= value
        else:
            container[key] = json.loads(json.dumps(value))


def _run_fuzz_case(tmp_path, capfd, case, mutations):
    """``(document, code, out, err)``: the case's document, mutated, run in-process."""
    argv, document = case
    document = json.loads(json.dumps(document))
    for (kind, value), pick in mutations:
        _mutate(document, kind, value, pick)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    capfd.readouterr()
    code = main([*argv, "--input", str(path), "--no-timestamp"])
    return (document, code, *capfd.readouterr())


#: A matrix entry no float holds: its conversion to complex once escaped as a raw OverflowError, exit 1.
HUGE_ENTRY_CASE = (["check"], [{"space": {"algebra": {"blocks": [1]}, "rows": 1, "cols": 1},
                                "blocks": [[[[10**400, 0]]]]}])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_cases(), mutations=fuzz_mutations)
# The two inputs whose overflow once reached LAPACK, which printed DLASCL text on stdout.
@example(case=(["perturb", "--eps", "1e-300"],
               overflowing_tuple((1, 2), 1, 2, 3, {(0, 1, 1, 0): 1e150}).to_json_list()), mutations=[])
@example(case=(["check"], overflowing_tuple((2,), 2, 3, 2, {(0, 0, 2, 3): 1e308j, (1, 0, 3, 0): 1e308}).to_json_list()),
         mutations=[])
@example(case=HUGE_ENTRY_CASE, mutations=[])
def test_every_input_ends_in_one_report_or_one_error_line(tmp_path, capfd, case, mutations):
    # Input defects were found one at a time (booleans, over-deep JSON, a huge
    # declared shape, LAPACK's text on stdout); every mutated input of every
    # --input command must end in one JSON report or one error line.
    _, code, out, err = _run_fuzz_case(tmp_path, capfd, case, mutations)
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1


def _is_number(value):
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_shape(value):
    return type(value) is int and value >= 1


def _blocks_fit(blocks, shapes):
    """Whether ``blocks`` is a JSON list of matrices of ``[re, im]`` number pairs of these shapes."""
    return type(blocks) is list and len(blocks) == len(shapes) and all(
        type(m) is list and len(m) == rows and all(
            type(row) is list and len(row) == cols
            and all(type(z) is list and len(z) == 2 and all(map(_is_number, z)) for z in row)
            for row in m)
        for m, (rows, cols) in zip(blocks, shapes))


def _declared_shapes(space):
    """The element block shapes a JSON space declares, or ``None`` if it is no space as JSON."""
    algebra = space.get("algebra") if type(space) is dict else None
    sizes = algebra.get("blocks") if type(algebra) is dict else None
    if type(sizes) is not list or not sizes or not all(map(_is_shape, sizes)):
        return None
    if "rows" in space:
        rows, cols = space["rows"], space.get("cols")
        return [(rows * k, cols * k) for k in sizes] if _is_shape(rows) and _is_shape(cols) else None
    size = space.get("size")
    shapes = [(size * k, size * k) for k in sizes] if _is_shape(size) else None
    projections = [space.get(key) for key in ("p", "q")]
    fit = shapes and all(type(e) is dict and _blocks_fit(e.get("blocks"), shapes) for e in projections)
    return shapes if fit else None


def _is_tuple(entries):
    if type(entries) is not list or not entries or not all(type(x) is dict for x in entries):
        return False
    shapes = _declared_shapes(entries[0].get("space"))
    return shapes is not None and all(
        x.get("space") == entries[0]["space"] and _blocks_fit(x.get("blocks"), shapes) for x in entries)


def _is_well_formed(argv, document):
    """Whether ``document`` has the JSON structure of ``argv``'s input: kinds, keys, integer
    shapes, block counts and shapes, finite non-boolean entries and one declared space per
    tuple.  Projections, margins and spaces across pad's two tuples are not structure."""
    if argv[0] != "pad":
        return _is_tuple(document)
    return type(document) is dict and _is_tuple(document.get("tuple")) and (
        document.get("pad_with") is None or _is_tuple(document["pad_with"]))


#: Names a message must not show: the exception classes of Python, numpy, json and the package.
EXCEPTION_NAMES = {name for name, value in vars(builtins).items()
                   if isinstance(value, type) and issubclass(value, BaseException)} | {
    "LinAlgError", "JSONDecodeError", *(name for name in vars(errors) if name.endswith("Error"))}


#: What the refusal of a matrix row, ``[re, im]`` pair, null key or non-integer shape said, naming only
#: the block or space.
LEAF_REASONS = re.compile(r"unpack|iterable|complex\(\)|NoneType|cannot be interpreted as an integer")


def _leaf_case(matrix, **space):
    """``check`` on one element of M_{1x2}(C) with this matrix and these keys of its space replaced."""
    return (["check"], [{"space": {"algebra": {"blocks": [1]}, "rows": 1, "cols": 2, **space}, "blocks": [matrix]}])


#: A malformed leaf of a document, and the line that names it.
LEAF_CASES = {
    "row-of-numbers": (_leaf_case([[0.5, 0.0]]), "$[0].blocks[0][0][0] must be a [re, im] pair of finite numbers"),
    "short-pair": (_leaf_case([[[0.5, 0.0], [1.0]]]), "$[0].blocks[0][0][1] must be a [re, im] pair of finite numbers"),
    "nested-pair": (_leaf_case([[[[0.5], 0.0], [1.0, 0.0]]]),
                    "$[0].blocks[0][0][0] must be a [re, im] pair of finite numbers"),
    "string-entry": (_leaf_case([[["1", 0.0], [1.0, 0.0]]]),
                     "$[0].blocks[0][0][0] must be a [re, im] pair of finite numbers"),
    "huge-entry": (_leaf_case([[[0.5, 0.0], [10**400, 0]]]),
                   "$[0].blocks[0][0][1] must be a [re, im] pair of finite numbers"),
    "ragged-rows": (_leaf_case([[[0.5, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]),
                    "$[0].blocks[0][1] must hold as many pairs as $[0].blocks[0][0]"),
    "row-not-a-list": (_leaf_case([[[0.5, 0.0], [1.0, 0.0]], 0.5]), "$[0].blocks[0][1] must be a nonempty JSON list"),
    "null-rows": (_leaf_case([[[0.5, 0.0], [1.0, 0.0]]], rows=None), "$[0].space.rows must not be null"),
    "null-cols": (_leaf_case([[[0.5, 0.0], [1.0, 0.0]]], cols=None), "$[0].space.cols must not be null"),
}


@pytest.mark.parametrize("case, message", LEAF_CASES.values(), ids=LEAF_CASES.keys())
def test_a_malformed_leaf_is_refused_by_its_own_path(tmp_path, capfd, case, message):
    # These read "$[0].blocks[0]: cannot unpack non-iterable float object" and
    # "$[0].space: 'NoneType' object cannot be interpreted as an integer".
    _, code, out, err = _run_fuzz_case(tmp_path, capfd, case, [])
    assert (code, out, err) == (2, "", f"error: bad input: {message}\n")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_cases(), mutations=fuzz_mutations)
@example(case=HUGE_ENTRY_CASE, mutations=[])
@example(case=LEAF_CASES["row-of-numbers"][0], mutations=[])
@example(case=LEAF_CASES["null-rows"][0], mutations=[])
@example(case=_leaf_case([[[0.5, 0.0], [1.0, 0.0]]], rows=1.5), mutations=[])
def test_every_malformed_input_is_refused_with_its_json_path(tmp_path, capfd, case, mutations):
    # Input errors once exited 1 or 2 depending on the exception a loader hit, and
    # printed its repr (TypeError, KeyError) instead of the node that was wrong; a
    # malformed matrix row, pair or entry, a null key, or a shape that is no integer
    # is named by its own path.
    document, code, _, err = _run_fuzz_case(tmp_path, capfd, case, mutations)
    if not _is_well_formed(case[0], document):
        assert code == 2, err
    if code == 2:
        assert "$" in err and not EXCEPTION_NAMES & set(re.findall(r"\w+", err)), err
        assert not LEAF_REASONS.search(err), err


@pytest.mark.parametrize("defect", [TypeError, ValueError, KeyError])
def test_a_defect_in_the_computation_is_no_input_error(tmp_path, capsys, monkeypatch, defect):
    # Every TypeError, ValueError and KeyError once read as "bad input" with exit 2.
    def broken(t):
        raise defect("internal bug")

    monkeypatch.setattr(hilbert_module, "unimodularity_margin", broken)
    path = write_tuple(tmp_path / "x.json", unimodular_pair(ModuleSpace(Algebra((1,)), 1, 2)))
    with pytest.raises(defect, match="internal bug"):
        main(["check", "--input", path, "--no-timestamp"])
    assert capsys.readouterr() == ("", "")


def test_an_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # Without the catch-all this was a raw UnicodeDecodeError with exit 1.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"space": "\xe9"}]')
    code, out, err = run_cli(capsys, ["check", "--input", str(path)])
    message = f"error: bad input: {path}: 'utf-8' codec can't decode byte 0xe9 in position 12: invalid continuation byte\n"
    assert (code, out, err) == (2, "", message)


def test_an_integer_too_long_to_convert_is_a_parse_error(tmp_path, capsys):
    # The parser refuses integer literals past 4300 digits with a plain ValueError, which
    # escaped as a traceback once the catch-all went; no float could hold one anyway.
    space = ModuleSpace(Algebra((1,)), 1, 1).zero().to_json_dict()["space"]
    path = tmp_path / "long.json"
    path.write_text(f'[{{"space": {json.dumps(space)}, "blocks": [[[[1{"0" * 5000}, 0]]]]}}]')
    code, out, err = run_cli(capsys, ["check", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad input: {path}: Exceeds the limit (4300 digits)") and err.count("\n") == 1


def test_failed_postcondition_is_a_domain_error(tmp_path, capsys, monkeypatch):
    # A negative sqrt puts the distance bound below every distance.
    monkeypatch.setattr(stable_rank, "math", SimpleNamespace(floor=math.floor, sqrt=lambda x: -1.0))
    space = ModuleSpace(Algebra((1,)), 1, 1)
    path = write_tuple(tmp_path / "x.json", ModuleTuple((space.zero(),)))
    code, out, err = run_cli(
        capsys, ["perturb", "--input", path, "--eps", "0.01", "--seed", "1", "--no-timestamp"]
    )
    assert code == 1
    assert out == ""
    assert "not below sqrt(eps)+eps" in err


def test_a_large_repeated_tuple_fails_the_padded_gate_with_exit_1(tmp_path, capsys):
    # (x, x) scaled by 1e4: the padded tuple generates, but its relative margin is about 1/||b0||.
    x = 1e4 * ModuleSpace(Algebra((1, 2)), 2, 3).random_element(np.random.default_rng(0))
    path = write_tuple(tmp_path / "x.json", ModuleTuple((x, x)))
    code, out, err = run_cli(capsys, ["perturb", "--input", path, "--eps", "0.5", "--no-timestamp"])
    assert (code, out) == (1, "")
    assert err.startswith("error: padded tuple failed the unimodularity postcondition: the margin is relative")


def test_memory_exhaustion_exits_1_with_an_error_line(capsys, monkeypatch):
    # numpy raises a MemoryError subclass when a draw buffer is too big to allocate.
    def exhausted(seed, trials, size):
        raise MemoryError("Unable to allocate 5.96 GiB for an array with shape (1, 800000000)")

    monkeypatch.setattr(stable_rank, "trial_draws", exhausted)
    code, out, err = run_cli(
        capsys, ["density", "--blocks", "1", "--rows", "2", "--cols", "2", "--k", "1", "--trials", "1"]
    )
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 5.96 GiB for an array with shape (1, 800000000)\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--k", "--trials"])
def test_a_draw_past_numpys_index_range_is_out_of_memory(capsys, option):
    # numpy refuses such a shape with a ValueError, which escaped as a traceback once
    # the CLI stopped reading every ValueError as bad input.
    argv = ["density", "--blocks", "1", "--rows", "1", "--cols", "2", "--k", "2", "--trials", "1"]
    argv[argv.index(option) + 1] = "2000000000000000000"
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "corner, edit, leaf",
    [
        (False, lambda s: s.update(rows=1.5), "rows"),
        (False, lambda s: s["algebra"].update(blocks=[1.9]), "algebra.blocks[0]"),
        (True, lambda s: s.update(size=2.0), "size"),
        (False, lambda s: s.update(rows=True), "rows"),
        (False, lambda s: s["algebra"].update(blocks=[True]), "algebra.blocks[0]"),
        (True, lambda s: s.update(size=True), "size"),
        (False, lambda s: s.update(cols="1"), "cols"),
        (False, lambda s: s.update(rows=[1]), "rows"),
        (True, lambda s: s.update(size="2"), "size"),
        (True, lambda s: s.update(size=[2]), "size"),
        (True, lambda s: s["algebra"].update(blocks=["1"]), "algebra.blocks[0]"),
        (True, lambda s: s["algebra"].update(blocks=[[1]]), "algebra.blocks[0]"),
    ],
    ids=["rows", "blocks", "size", "rows-bool", "blocks-bool", "size-bool", "cols-string", "rows-list",
         "size-string", "size-list", "corner-blocks-string", "corner-blocks-list"],
)
def test_non_integer_shapes_are_a_parse_error(tmp_path, capsys, corner, edit, leaf):
    # int() once truncated or coerced these shapes and check exited 0; later the refusal
    # read "$[0].space: 'float' object cannot be interpreted as an integer".
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
    assert (code, out, err) == (2, "", f"error: bad input: $[0].space.{leaf} must be a JSON integer\n")


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

    # The bare tuple list that check takes is not a pad input.
    path.write_text(json.dumps(t.to_json_list()))
    code, out, err = run_cli(
        capsys, ["pad", "--input", str(path), "--eps", "0.5", "--no-timestamp"]
    )
    assert (code, out, err) == (2, "", 'error: bad input: $ must be a JSON object with "tuple"\n')


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


def test_verify_suite_takes_no_tolerance(capsys, monkeypatch):
    # The battery pins its own tolerances, so neither the flag nor the
    # environment variable may look as if it changed them.
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA", (_fake_criterion("fake-pass", True, "all good", 0.4),)
    )
    for flag in (["--tol", "0.5"],):
        code, out, err = run_cli(capsys, ["verify-suite", *flag])
        assert code == 2
        assert out == ""
        assert flag[0] in err
    monkeypatch.setenv("CSTAR_RANK_TOL", "abc")
    code, out, _ = run_cli(capsys, ["verify-suite"])
    assert code == 0
    assert out.splitlines()[-1] == "1/1 criteria passed"


def test_verify_suite_without_timestamps_repeats_byte_for_byte(tmp_path, capsys, monkeypatch):
    # Each criterion's wall time once stood in the table and the --out file,
    # so no two runs could be diffed; --no-timestamp drops it from both.
    runs = []
    for seconds in (0.4, 12.0):
        monkeypatch.setattr(
            acceptance, "ALL_CRITERIA", (_fake_criterion("fake-pass", True, "all good", seconds),)
        )
        target = tmp_path / f"suite-{seconds}.json"
        code, out, _ = run_cli(capsys, ["verify-suite", "--no-timestamp", "--out", str(target)])
        assert code == 0
        runs.append((out, target.read_text()))
    assert runs[0] == runs[1]
    out, text = runs[0]
    assert out.splitlines() == ["PASS  fake-pass                 all good", "1/1 criteria passed"]
    assert json.loads(text)["criteria"] == [{"name": "fake-pass", "passed": True, "details": "all good"}]


@pytest.mark.parametrize("count, details", [
    (1, "check 0 failed"),
    (3, "check 0 failed; check 1 failed; check 2 failed"),
    (5, "check 0 failed; check 1 failed; check 2 failed (+2 more)"),
])
def test_a_failed_criterion_shows_its_first_three_messages(count, details):
    @acceptance._criterion("fake")
    def criterion(failures):
        failures.extend(f"check {i} failed" for i in range(count))
        return "the details of a pass"

    result = criterion()
    assert (result.name, result.passed, result.details) == ("fake", False, details)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random takes about 14 ms to import, which every run of a command
    # that draws nothing would pay; sampling loads it on the first draw.
    # (numpy before 2.0 loads it itself.)
    code = (
        "import sys, numpy; print('numpy.random' in sys.modules); "
        "import cstar_rank.cli; print('numpy.random' in sys.modules)"
    )
    result = run_python(["-c", code], capture_output=True, check=True)
    by_numpy, after_cli = result.stdout.split()
    assert after_cli == by_numpy


#: The modules whose loading a command pays: numpy, its draws and the numeric layers.
NUMERIC_MODULES = ("numpy", "numpy.random", "cstar_rank.algebra", "cstar_rank.hilbert_module",
                   "cstar_rank.stable_rank")


def numeric_modules_after(code):
    """The ``NUMERIC_MODULES`` that a fresh interpreter holds after running ``code``."""
    report = f"import sys; print(*[m for m in {NUMERIC_MODULES!r} if m in sys.modules])"
    result = run_python(["-c", f"{code}\n{report}"], capture_output=True, check=True)
    return set(result.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def drawn_by_numpy():
    """``{"numpy.random"}`` if importing numpy loads it (numpy before 2.0), else nothing."""
    return numeric_modules_after("import numpy") & {"numpy.random"}


def test_importing_the_package_loads_no_numpy():
    # The package binds its public names on the first read of one, so the
    # command line, imported through the package, parses its options without numpy.
    assert numeric_modules_after("import cstar_rank, cstar_rank.cli") == set()


def test_sr_formula_loads_no_numpy(tmp_path):
    # The closed form is integer arithmetic; numpy took about 100 ms of each run.
    argv = ["sr-formula", "--sr-a", "2", "--n", "3", "--m", "5", "--out", str(tmp_path / "r.json")]
    code = f"from cstar_rank.cli import main\nassert main({argv!r}) == 0"
    assert numeric_modules_after(code) == set()
    assert json.loads((tmp_path / "r.json").read_text())["result"] == 2


@pytest.mark.parametrize("command, unimodular, exit_code",
                         [("check", False, 0), ("dual", True, 0), ("dual", False, 1)],
                         ids=["check", "dual", "dual-fails"])
def test_check_and_dual_load_no_reduction_and_no_draws(tmp_path, drawn_by_numpy, command, unimodular, exit_code):
    # The verdict and the witness need the module layer, not stable_rank or numpy.random.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    t = unimodular_pair(space) if unimodular else ModuleTuple((space.zero(),))
    path = write_tuple(tmp_path / "t.json", t)
    argv = [command, "--input", path, "--out", str(tmp_path / "r.json")]
    code = f"from cstar_rank.cli import main\nassert main({argv!r}) == {exit_code}"
    loaded = numeric_modules_after(code)
    assert loaded == {"numpy", "cstar_rank.algebra", "cstar_rank.hilbert_module"} | drawn_by_numpy


def test_reading_a_public_name_loads_the_library(drawn_by_numpy):
    # A tracer that wraps the layers after reading cstar_rank.DEFAULT_TOL, as the
    # benchmark's does, must find all three already loaded.
    loaded = numeric_modules_after("import cstar_rank\ncstar_rank.DEFAULT_TOL")
    assert loaded == {"numpy", "cstar_rank.algebra", "cstar_rank.hilbert_module",
                      "cstar_rank.stable_rank"} | drawn_by_numpy


def run_cli_into_a_closed_pipe(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return run_python(["-m", "cstar_rank.cli", *argv], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)


def test_a_closed_stdout_is_one_error_line(tmp_path):
    space = ModuleSpace(Algebra((1,)), 1, 2)
    t = unimodular_pair(space)
    pad_input = tmp_path / "pad.json"
    pad_input.write_text(json.dumps({"tuple": t.to_json_list()}))
    for argv in (
        ["check", "--input", write_tuple(tmp_path / "t.json", t)],
        ["pad", "--input", str(pad_input), "--eps", "0.5"],
    ):
        result = run_cli_into_a_closed_pipe(argv)
        assert result.returncode == 1
        assert result.stderr.startswith("error: broken pipe")
        assert result.stderr.count("\n") == 1


class ClosedPipe:
    """A stdout whose reader has gone: every flush raises ``BrokenPipeError``."""

    def __init__(self):
        read, self.fd = os.pipe()
        os.close(read)

    def write(self, text):
        return len(text)

    def flush(self):
        os.write(self.fd, b"x")

    def fileno(self):
        return self.fd


def test_verify_suite_into_a_closed_stdout_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA", (_fake_criterion("fake-pass", True, "all good", 0.4),)
    )
    stdout = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["verify-suite"]) == 1
        stdout.flush()  # stdout now points at devnull
    finally:
        os.close(stdout.fd)
    assert capsys.readouterr().err.startswith("error: broken pipe")


# -- reports print what the library decided ---------------------------------------------------


def spy_on_decisions(monkeypatch):
    """``(decided, collapsed)``: the margin of each unimodularity decision and stacked dual that
    ``stable_rank`` makes, in order, read from the Gram spectrum it takes or the margin it is given,
    and the stacked tuple of each Warfield step, as decided."""
    spectra, decided, collapsed = [], [], []

    def spectrum(self, g, _original=hilbert_module._SpaceOps._gram_spectrum):
        result = _original(self, g)
        spectra.append(result[0])
        return result

    def unimodular_at(space, stacked, tol, margin=None, _original=stable_rank._is_unimodular_at):
        verdict = _original(space, stacked, tol, margin)
        decided.append(spectra[-1] if margin is None else margin)
        return verdict

    def stacked_dual(space, stacked, tol, _original=stable_rank._stacked_dual):
        result = _original(space, stacked, tol)
        decided.append(spectra[-1])
        return result

    def warfield(*args, _original=stable_rank._warfield):
        result = _original(*args)
        collapsed.append(result[1])
        return result

    monkeypatch.setattr(hilbert_module._SpaceOps, "_gram_spectrum", spectrum)
    monkeypatch.setattr(stable_rank, "_is_unimodular_at", unimodular_at)
    monkeypatch.setattr(stable_rank, "_stacked_dual", stacked_dual)
    monkeypatch.setattr(stable_rank, "_warfield", warfield)
    return decided, collapsed


def report_inputs(tmp_path, kind):
    """``(argv, residual, collapses)`` of each reduce, pad and perturb run on ``M_{2x3}(C + M_2)`` or
    on a corner of ``M_4(C)`` with p of rank 2 and q of rank 3, randomly oriented: the residual that
    reports the output's margin, and the Warfield steps the run takes (perturb: 0 on the zero route)."""
    rng = np.random.default_rng(23)
    space = space_of_kind(kind, rng) if kind == "matrix" else corner_with_ranks((1,), 4, (2,), (3,), rng)
    sr = space.predicted_stable_rank()
    longer = write_tuple(tmp_path / "longer.json", random_unimodular(space, rng, sr + 1))
    t = random_unimodular(space, rng, sr)
    smallest = min(np.linalg.eigvalsh(b)[0] for b in space._compress(gram(t).blocks))
    small = write_tuple(tmp_path / "small.json", scaled_to_norm(t, 0.05))
    pads = []
    for pad_with in (None, random_unimodular(space, rng, sr).to_json_list()):
        pads.append(tmp_path / f"pad-{len(pads)}.json")
        pads[-1].write_text(json.dumps({"tuple": random_tuple(space, rng, 1).to_json_list(), "pad_with": pad_with}))
    return [
        (["reduce", "--input", longer], "reduced_margin", 1),
        (["pad", "--input", str(pads[0]), "--eps", "0.5"], "padded_margin", 0),
        (["pad", "--input", str(pads[1]), "--eps", "0.5"], "padded_margin", 0),
        (["perturb", "--input", write_tuple(tmp_path / "t.json", t), "--eps", str(float(smallest / 2))],
         "perturbed_margin", 0),
        (["perturb", "--input", small, "--eps", "0.1"], "perturbed_margin", 1),
    ]


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_each_report_prints_the_margin_and_the_tuple_that_were_decided(tmp_path, capsys, monkeypatch, kind):
    # The margins of reduce, pad (with and without pad_with) and perturb (on both routes) are those
    # of the last decision, bit for bit, and reduce prints the tuple its Warfield step decided: on a
    # corner, a second collapse from the coefficients, projected again, would move its last bits.
    for argv, residual, collapses in report_inputs(tmp_path, kind):
        decided, collapsed = spy_on_decisions(monkeypatch)
        code, out, err = run_cli(capsys, argv + ["--no-timestamp"])
        assert (code, err) == (0, ""), argv
        report = json.loads(out)
        assert len(collapsed) == collapses, argv
        assert report["residuals"][residual].hex() == float(decided[-1]).hex(), argv
        if argv[0] == "reduce":
            printed = tuple_from_json_list(report["result"]["reduced"])._stacked()
            assert all(np.array_equal(p, c) for p, c in zip(printed, collapsed[0]))
        monkeypatch.undo()


#: The LAPACK calls of in-process reduce, pad and perturb runs on the command-line benchmark's shapes.
COMMAND_CALLS = {
    "reduce": {"eigvalsh": 2, "inv": 1, "svd": 1},
    "pad": {"eigh": 1, "eigvalsh": 1, "inv": 1},
    "pad-with": {"eigh": 2, "eigvalsh": 1, "inv": 1, "svd": 1},
    "perturb-zero": {"eigvalsh": 1, "svd": 1},
    "perturb-collapse": {"eigh": 1, "eigvalsh": 4, "inv": 1, "svd": 3},
}


def test_each_command_makes_exactly_its_lapack_calls(tmp_path, capsys, monkeypatch):
    # A report prints the margins its run decided, so the output's decision is its one eigvalsh:
    # reduce took 3, pad 2 and perturb 2 on its zero route while they took a second Gram sum of
    # their outputs.  perturb's distance is the SVD norm of t - moved, one svd on either route.
    rng = np.random.default_rng(24)
    small, big = ModuleSpace(Algebra((1, 2)), 2, 3), ModuleSpace(Algebra((2, 3)), 4, 5)
    triple = write_tuple(tmp_path / "triple.json", random_unimodular(small, rng, 3))
    pads = {}
    for name, pad_with in (("pad", None), ("pad-with", random_unimodular(small, rng, 2).to_json_list())):
        pads[name] = tmp_path / f"{name}.json"
        pads[name].write_text(json.dumps({"tuple": random_tuple(small, rng, 1).to_json_list(), "pad_with": pad_with}))
    pair = random_unimodular(big, rng, 2)
    runs = {
        "reduce": ["reduce", "--input", triple],
        "pad": ["pad", "--input", str(pads["pad"]), "--eps", "0.5"],
        "pad-with": ["pad", "--input", str(pads["pad-with"]), "--eps", "0.5"],
        "perturb-zero": ["perturb", "--input", write_tuple(tmp_path / "big.json", pair), "--eps", "1e-6"],
        "perturb-collapse": ["perturb", "--input", write_tuple(tmp_path / "small.json", scaled_to_norm(pair, 0.05)),
                             "--eps", "0.1"],
    }
    counts = count_lapack_and_gram(monkeypatch)
    for name, argv in runs.items():
        counts.clear()
        code, out, err = run_cli(capsys, argv + ["--no-timestamp"])
        assert (code, err) == (0, ""), name
        moved = name.startswith("perturb") and json.loads(out)["result"]["distance"] > 0
        assert moved == (name == "perturb-collapse"), name
        assert {r: n for r, n in counts.items() if r in {"eigh", "eigvalsh", "inv", "svd", "cholesky"}} \
            == COMMAND_CALLS[name], name
