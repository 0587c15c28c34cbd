import functools
import json
import os
import subprocess
import sys

import pytest

import latmac.cli
import latmac.latimer
from latmac.cli import (
    ideal_to_json, main, matrix_from_json, matrix_to_json, parse_matrix_arg,
    poly_to_string,
)
from latmac.exactla import (
    IntMatrix, MonicIntPoly, is_irreducible, poly_from_string,
)
from latmac.ideal import unit_ideal
from latmac.latimer import order_for

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "latmac.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_poly_round_trip():
    for text in ("1,-1,-1", "1,0,-10", "1,0,-1,-1"):
        assert poly_to_string(poly_from_string(text)) == text


def test_matrix_round_trip():
    m = IntMatrix(((0, 10 ** 30), (1, -2)))
    doc = matrix_to_json(m)
    assert doc["rows"][0][1] == str(10 ** 30)
    assert matrix_from_json(json.loads(json.dumps(doc))) == m


def test_ideal_serialization():
    doc = ideal_to_json(unit_ideal(order_for(MonicIntPoly((1, 0, -10)))))
    assert doc == {"den": "1", "hnf": [["1", "0"], ["0", "1"]]}


def test_parse_matrix_arg_file(tmp_path):
    m = IntMatrix(((0, 2), (5, 0)))
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(matrix_to_json(m)))
    assert parse_matrix_arg("@" + str(path)) == m
    assert parse_matrix_arg(json.dumps(matrix_to_json(m))) == m


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_classify_counts(capsys):
    code, out = run_cli(["classify", "--poly", "1,-1,-1"], capsys)
    assert code == 0 and "count\t1" in out
    code, out = run_cli(["classify", "--poly", "1,0,-10"], capsys)
    assert code == 0 and "count\t2" in out


def test_classify_reducible_is_input_error(capsys):
    code = main(["classify", "--poly", "1,0,-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "reducible" in captured.err


def test_degree_cap_is_input_error(capsys):
    code = main(["classify", "--poly", "1,0,0,0,0,0,0,-2"])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_conjugate_command(capsys):
    a = json.dumps(matrix_to_json(IntMatrix(((0, 10), (1, 0)))))
    b = json.dumps(matrix_to_json(IntMatrix(((0, 2), (5, 0)))))
    code, out = run_cli(["conjugate", "--mat-a", a, "--mat-b", b], capsys)
    assert code == 0 and "status\tinequivalent" in out
    code, out = run_cli(["conjugate", "--mat-a", a, "--mat-b", a], capsys)
    assert code == 0 and "status\tequivalent" in out and "witness" in out


def test_pell_command(capsys):
    code, out = run_cli(["pell", "--d", "5"], capsys)
    assert code == 0 and out == "a=3 b=1\n"
    assert main(["pell", "--d", "9"]) == 1
    capsys.readouterr()


def test_bounds_command(capsys):
    code, out = run_cli(["bounds", "--genus", "2"], capsys)
    assert code == 0
    assert "max_index\t168" in out
    assert "rank_bound\t4" in out
    assert "class_number_bound_digits\t1210" in out


def test_verify_example_command(capsys):
    code, out = run_cli(["verify-example"], capsys)
    assert code == 0 and "rank(M-I6)=2 OK" in out


def test_cover_command(capsys):
    code, out = run_cli(["cover", "--genus", "2", "--hom", "0,1,1,0"], capsys)
    assert code == 0 and out == "cover_genus=3\n"
    assert main(["cover", "--genus", "2", "--hom", "0,0,0,0"]) == 1
    capsys.readouterr()


def test_mw_command(capsys):
    code, out = run_cli(["mw", "--count", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d\tclass_number\tmw_value"
    assert lines[1].startswith("5\t1\t")


def test_ttclass_command(tmp_path, capsys):
    doc = {"arcs": 2, "transition": {"n": 2, "rows": [["1", "1"], ["1", "0"]]},
           "switches": [[[0, 1], [1, 0]]]}
    path = tmp_path / "track.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["ttclass", "--file", str(path)], capsys)
    assert code == 0
    assert "poly\t1,-1,-1" in out
    assert "stretch\t1.6180339" in out


def test_icm_json_format(capsys):
    code, out = run_cli(["--format", "json", "icm", "--poly", "1,0,-45"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == "4" and doc["picard_size"] == "1"
    assert all(isinstance(cell, str) for row in doc["classes"][0]["hnf"] for cell in row)


def test_unknown_verdict_yields_exit_two(capsys):
    code, out = run_cli(["--budget", "0", "classify", "--poly", "1,0,-1,-1"],
                        capsys)
    assert code == 2
    assert "unknown_pairs\t1" in out


def test_disc_1125_quartic_is_certified(capsys):
    code, out = run_cli(["classify", "--poly", "1,-1,-4,4,1"], capsys)
    assert code == 0
    assert "count\t1\n" in out and "unknown_pairs\t0\n" in out


def test_spent_budget_yields_exit_three(capsys, monkeypatch):
    # X^3-2X-5 needs more than 1000 witness candidates over all its pairs
    small = functools.partial(latmac.cli.SearchBudget, max_candidates=1000)
    monkeypatch.setattr(latmac.cli, "SearchBudget", small)
    code = main(["classify", "--poly", "1,0,-2,-5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "budget" in captured.err


def test_irreducibility_budget_yields_exit_three(capsys, monkeypatch):
    # X^4+1 tries 36 candidate factors, X^6-5 tries 37,836
    monkeypatch.setattr(latmac.exactla, "FACTOR_CANDIDATE_CAP", 1000)
    assert is_irreducible(MonicIntPoly((1, 0, 0, 0, 1)))
    code = main(["classify", "--poly", "1,0,0,0,0,0,-5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "irreducibility" in captured.err


def test_failed_certificate_yields_exit_four(capsys, monkeypatch):
    # a wrong charpoly makes ideal_to_matrix's exact check fail: an internal
    # fault, reported on stderr instead of a traceback
    monkeypatch.setattr(latmac.latimer, "charpoly",
                        lambda m: MonicIntPoly((1, 0, 1)))
    code = main(["classify", "--poly", "1,0,5"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: internal certification failure: ")


@pytest.mark.parametrize("bound", ["0", "-3", "1", "4"])
@pytest.mark.parametrize("cmd", ["classify", "icm"])
def test_bound_below_one_is_input_error(capsys, cmd, bound):
    # X^2+5 has class number 2 and default bound ceil(sqrt 20) = 5.  A bound
    # below 1 used to print an empty list, and a bound from 1 to 4 a short
    # one with exit 0 (count 1 at --bound 1); both are now refused
    code = main(["--bound", bound, cmd, "--poly", "1,0,5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "bound" in captured.err


@pytest.mark.parametrize("cmd", ["classify", "pell"])
def test_negative_budget_is_input_error(capsys, cmd):
    argv = ["classify", "--poly", "1,0,-1,-1"] if cmd == "classify" else ["pell", "--d", "5"]
    code = main(["--budget", "-1", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "budget" in captured.err


def test_inventory_round_trip(capsys):
    from latmac.cli import ideal_from_json
    code, out = run_cli(["--format", "json", "classify", "--poly", "1,0,-10"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    order = order_for(poly_from_string(doc["poly"]))
    rebuilt = []
    for cls in doc["classes"]:
        ideal = ideal_from_json(cls, order)
        mat = matrix_from_json(cls["matrix"])
        rebuilt.append({**ideal_to_json(ideal), "invertible": cls["invertible"],
                        "norm": cls["norm"], "matrix": matrix_to_json(mat)})
    assert rebuilt == doc["classes"]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_hit_is_bit_identical(tmp_path, capsys):
    args = ["--cache-dir", str(tmp_path), "classify", "--poly", "1,0,-10"]
    code1, out1 = run_cli(args, capsys)
    assert code1 == 0
    cached_files = os.listdir(tmp_path)
    assert len(cached_files) == 1
    code2, out2 = run_cli(args, capsys)
    assert code2 == 0 and out1 == out2
    entry = json.loads((tmp_path / cached_files[0]).read_text())
    assert entry["payload"] == out1


@pytest.mark.parametrize("cmd", ["classify", "icm"])
def test_cache_hit_restores_exit_code_without_math(tmp_path, capsys,
                                                   monkeypatch, cmd):
    # budget 1 leaves unknown pairs for X^3+2X-2, so the cold run exits 2
    args = ["--cache-dir", str(tmp_path), "--budget", "1", cmd,
            "--poly", "1,0,2,-2"]
    cold = run_cli(args, capsys)
    assert cold[0] == 2

    def no_math(*args, **kwargs):
        raise AssertionError("class_monoid ran on a cache hit")

    monkeypatch.setattr(latmac.cli, "class_monoid", no_math)
    monkeypatch.setattr(latmac.latimer, "class_monoid", no_math)
    assert run_cli(args, capsys) == cold
    monkeypatch.undo()
    # an entry without the exit code is a miss: recomputed and rewritten
    (path,) = tmp_path.iterdir()
    entry = json.loads(path.read_text())
    del entry["code"]
    path.write_text(json.dumps(entry))
    assert run_cli(args, capsys) == cold
    assert json.loads(path.read_text())["code"] == 2


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LATMAC_CACHE_DIR", str(tmp_path))
    run_cli(["icm", "--poly", "1,0,-10"], capsys)
    assert os.listdir(tmp_path)


def test_cache_distinguishes_format(tmp_path, capsys):
    run_cli(["--cache-dir", str(tmp_path), "icm", "--poly", "1,0,-10"], capsys)
    run_cli(["--cache-dir", str(tmp_path), "--format", "json",
             "icm", "--poly", "1,0,-10"], capsys)
    assert len(os.listdir(tmp_path)) == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

CLI_MATRIX = [
    ["classify", "--poly", "1,0,-10"],
    ["--format", "json", "classify", "--poly", "1,-1,-1"],
    ["icm", "--poly", "1,0,-45"],
    ["pell", "--d", "61"],
    ["mw", "--count", "3"],
    ["bounds", "--genus", "2"],
    ["verify-example"],
    ["cover", "--genus", "2", "--hom", "0,1,0,0"],
]


def test_cli_matrix_deterministic_across_processes():
    first = [run_subprocess(argv) for argv in CLI_MATRIX]
    second = [run_subprocess(argv) for argv in CLI_MATRIX]
    assert first == second
    assert all(code == 0 for code, _ in first)
