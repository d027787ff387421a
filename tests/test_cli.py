"""Command-line interface: solve/verify round trips and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knapsolve
from knapsolve.cli import main
from knapsolve.expr import parse_expr
from knapsolve.groups import build_backend
from knapsolve.oracle import compare
from knapsolve.semilinear import SemilinearSet


@pytest.fixture
def z_group(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"type": "IntegerGroup", "generator": "t"}))
    return str(path)


@pytest.fixture
def free_group(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "type": "GraphProduct",
        "vertices": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 3, "generator": "b"},
        ],
        "edges": [],
    }))
    return str(path)


def test_solve_integer_instance(z_group, capsys):
    code = main(["solve", "--group", z_group, "--expr", "t^x t'^4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vars"] == ["x"]
    assert data["components"] == [{"base": [4], "periods": []}]
    assert "diagnostics" in data


def test_solve_output_sorted(free_group, capsys):
    code = main(["solve", "--group", free_group, "--expr", "a^x b^y"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    comps = data["components"]
    assert comps == sorted(comps, key=lambda c: (c["base"], c["periods"]))


def test_expression_with_trailing_whitespace_solves(free_group, capsys):
    code = main(["solve", "--group", free_group, "--expr", "(a)^x "])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["vars"] == ["x"]


def test_malformed_expression_exit_code(z_group, capsys):
    code = main(["solve", "--group", z_group, "--expr", "t^x )("])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_group_file_exit_code(capsys):
    code = main(["solve", "--group", "/nonexistent.json", "--expr", "t^x"])
    assert code == 1


def test_malformed_group_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "type": "FreeProduct",
        "children": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 0, "generator": "b"},
        ],
    }))
    env = dict(os.environ)
    src = str(Path(knapsolve.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "knapsolve.cli", "solve", "--group", str(path),
         "--expr", "a^x"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "$.children[1].order" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_budget_exhaustion_exit_code(free_group, capsys):
    code = main([
        "solve", "--group", free_group,
        "--expr", "(a b)^x (b b a)^y (a b b)^z",
        "--budget-automata", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["diagnostics"]["states"] > 0
    assert captured.err.startswith("error: budget exhausted")


def test_diophantine_budget_reports_its_nodes(z_group, capsys):
    def power(letter, k, var):
        return f"({' '.join([letter] * k)})^{var}"

    expr = " ".join([power("t", 37, "x"), power("t'", 41, "y"),
                     power("t", 29, "z"), power("t'", 41, "w")])
    code = main(["solve", "--group", z_group, "--expr", expr])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["diagnostics"]["dioph_nodes"] > 0
    assert captured.err.startswith(
        "error: budget exhausted: Diophantine minimal-solution search")


def test_incomplete_solve_warns(free_group, capsys):
    # a splits budget that refuses the split of the constant a b' every
    # reduction needs, and FACTOR_CAP refusing a fourth factor of a power
    # that the splits ceiling allows
    for args in (
        ["--expr", "a^x a b' b^y", "--budget-refinement", "0"],
        ["--expr", "(a' b')^x (b' b b)^y a'"],
    ):
        code = main(["solve", "--group", free_group] + args)
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["diagnostics"]["complete"] is False
        assert "warning" in captured.err


def test_complete_solve_is_quiet(free_group, capsys):
    backend = build_backend(json.loads(Path(free_group).read_text()))
    # a splits budget that no reduction reaches leaves the answer complete
    for args in (["a^x b^y"], ["a^x b a^y b'"],
                 ["a^x b a^y b'", "--budget-refinement", "0"]):
        text = args[0]
        code = main(["solve", "--group", free_group, "--expr"] + args)
        captured = capsys.readouterr()
        assert code == 0
        data = json.loads(captured.out)
        assert data["diagnostics"]["complete"] is True
        assert captured.err == ""
        sols = SemilinearSet.from_json_dict(data)
        assert compare(backend, parse_expr(text), sols, 6)["ok"]


def test_solve_then_verify_round_trip(free_group, tmp_path, capsys):
    code = main([
        "solve", "--group", free_group, "--expr", "(a b)^x (b' a)^y",
    ])
    assert code == 0
    out = tmp_path / "result.json"
    out.write_text(capsys.readouterr().out)
    code = main([
        "verify", "--group", free_group, "--expr", "(a b)^x (b' a)^y",
        "--result", str(out), "--box", "6",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"]


def test_verify_rejects_perturbed_result(z_group, tmp_path, capsys):
    out = tmp_path / "wrong.json"
    out.write_text(json.dumps({
        "vars": ["x"], "components": [{"base": [3], "periods": []}],
    }))
    code = main([
        "verify", "--group", z_group, "--expr", "t^x t'^4",
        "--result", str(out), "--box", "8",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not report["ok"]


def test_verify_dimension_mismatch(z_group, tmp_path, capsys):
    out = tmp_path / "mismatch.json"
    out.write_text(json.dumps({
        "vars": ["x", "y"],
        "components": [{"base": [0, 0], "periods": []}],
    }))
    code = main([
        "verify", "--group", z_group, "--expr", "t^x t'^4",
        "--result", str(out), "--box", "5",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _run_cli(*args):
    env = dict(os.environ)
    src = str(Path(knapsolve.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "knapsolve.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("result", [
    {"vars": ["x"], "components": [{"base": ["q"], "periods": []}]},
    {"vars": ["x"], "components": [{"base": [1.5], "periods": []}]},
    {"vars": ["x"], "components": [{"base": [True], "periods": []}]},
    {"vars": ["x"], "components": [{"base": [4], "periods": [["1"]]}]},
    {"vars": "x", "components": [{"base": [4], "periods": []}]},
    {"vars": [1], "components": [{"base": [4], "periods": []}]},
    {"vars": ["x", "x"], "components": [{"base": [4, 4], "periods": []}]},
    {"vars": ["x"], "components": ["base"]},
])
def test_verify_rejects_unreadable_result(z_group, tmp_path, result):
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(result))
    proc = _run_cli("verify", "--group", z_group, "--expr", "t^x t'^4",
                    "--result", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--budget-refinement", "--budget-automata"])
def test_negative_solve_budget_is_an_input_error(free_group, flag, capsys):
    code = main(["solve", "--group", free_group, "--expr", "a^x b^y",
                 flag, "-5"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}")


def test_negative_verify_box_is_an_input_error(z_group, tmp_path, capsys):
    out = tmp_path / "result.json"
    out.write_text(json.dumps({
        "vars": ["x"], "components": [{"base": [4], "periods": []}],
    }))
    code = main(["verify", "--group", z_group, "--expr", "t^x t'^4",
                 "--result", str(out), "--box", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: --box")


def test_huge_numeric_exponent_is_an_input_error(z_group):
    # the repetition count fits no machine index, so the parser fails
    # before it allocates anything
    proc = _run_cli("solve", "--group", z_group,
                    "--expr", "t^1000000000000000000000000000000 (t)^x")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


#: a trivial finite extension of Z, opened around its subgroup
_FINITE_EXT_LEVEL = (
    '{"type": "FiniteExt", "cosets": ["1"], "rules": '
    '[["1", "t", ["t"], "1"], ["1", "t\'", ["t\'"], "1"]], "subgroup": ')


@pytest.mark.parametrize("command, depth", [
    ("solve", 3000), ("solve", 400), ("verify", 3000),
], ids=["group-past-json", "group-past-build", "result-past-json"])
def test_deep_nesting_is_an_input_error(z_group, tmp_path, command, depth):
    # 3,000 levels overflow the JSON decoder, 400 the description walk
    deep = tmp_path / "deep.json"
    if command == "solve":
        group = str(deep)
        deep.write_text(_FINITE_EXT_LEVEL * depth
                        + '{"type": "IntegerGroup", "generator": "t"}'
                        + "}" * depth)
        extra = ()
    else:
        group = z_group
        deep.write_text('{"vars": ["x"], "components": [{"base": [4], '
                        '"periods": ' + "[" * depth + "]" * depth + "}]}")
        extra = ("--result", str(deep))
    proc = _run_cli(command, "--group", group, "--expr", "t^x t'^4", *extra)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
