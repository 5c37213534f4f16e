"""Command line behaviour: exit codes, report shape, determinism."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import measureode
from measureode.cli import main
from measureode.fileio import load_problem, parse_problem, render_report
from measureode.errors import ParseError

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name: str) -> str:
    return os.path.join(DATA, name)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing ----------------------------------------------------------------------


def test_problem_files_round_trip_through_the_parser():
    parsed = load_problem(data("instance_a.json"))
    assert parsed.problem.n == 2
    assert parsed.window == (-1.0, 1.0)
    assert parsed.f is not None
    assert parsed.f.n == 2


def test_unknown_key_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown key 'weight'"):
        load_problem(data("malformed.json"))


def test_parse_error_context_names_the_offending_path():
    bad = {"n": 2, "J": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]],
           "interval": [-1.0, 1.0],
           "q": {"atoms": [{"x": 0.0, "matrix": [[[1, 0]], [[0, 0]]]}]},
           "w": {"atoms": []}}
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "$.q.atoms[0]" in str(err.value)


def test_tolerances_must_be_fractions():
    bad = {"n": 1, "J": [[[0, 1]]], "interval": [0.0, 1.0],
           "q": {"atoms": []}, "w": {"atoms": []},
           "tolerances": {"tol_rank": 2.0}}
    with pytest.raises(ParseError, match="between 0 and 1"):
        parse_problem(bad)


# -- exit codes -------------------------------------------------------------------


def test_validate_passes_on_a_well_formed_problem(capsys):
    code, out, _ = run_main(["validate", "--input", data("instance_a.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} >= {"J invertible", "w PSD"}


def test_validate_fails_on_an_indefinite_weight(capsys):
    code, out, _ = run_main(["validate", "--input", data("bad_negative_w.json")],
                            capsys)
    assert code == 1
    report = json.loads(out)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["w PSD"]


def test_other_modes_skip_work_when_validation_fails(capsys):
    code, out, _ = run_main(["kernel", "--input", data("bad_negative_w.json")],
                            capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"] == {"skipped": "validation failed"}


def test_solve_reports_the_obstructed_instance_as_inconsistent(capsys):
    code, out, _ = run_main(["solve", "--input", data("instance_a.json")], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["consistent"] is False
    assert report["results"]["particular"] is None
    assert report["results"]["residual"] == pytest.approx(2.0 ** 0.5, abs=1e-9)


def test_solve_succeeds_on_the_unobstructed_twin(capsys):
    code, out, _ = run_main(["solve", "--input", data("instance_b.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["consistent"] is True
    assert len(report["results"]["particular"]) == 101


def test_solve_without_f_is_an_input_error(capsys):
    code, _, err = run_main(["solve", "--input", data("no_rhs.json")], capsys)
    assert code == 2
    assert "f block" in err


def test_malformed_input_exits_two(capsys):
    code, _, err = run_main(["analyze", "--input", data("malformed.json")], capsys)
    assert code == 2
    assert "unknown key" in err


def _instance_b() -> dict:
    with open(data("instance_b.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_a_list_field_that_is_not_a_list_is_a_parse_error():
    forced = _instance_b()
    forced["forced_partition_points"] = 3
    with pytest.raises(ParseError, match="must be a list") as err:
        parse_problem(forced)
    assert "$.forced_partition_points" in str(err.value)
    atom_values = _instance_b()
    atom_values["f"]["atom_values"] = 5
    with pytest.raises(ParseError, match="must be a list") as err:
        parse_problem(atom_values)
    assert "$.f" in str(err.value)


def test_a_malformed_list_field_exits_two(tmp_path, capsys):
    raw = _instance_b()
    raw["f"]["atom_values"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_main(["validate", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "atom_values must be a list" in err


def test_missing_input_exits_two_except_for_random_verify(capsys):
    code, _, err = run_main(["kernel"], capsys)
    assert code == 2
    assert "--input is required" in err
    code, out, _ = run_main(["verify", "--random", "1", "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["random_instances"] == 1


@pytest.mark.parametrize("mode, flag", [("kernel", "--tol-rank"), ("analyze", "--tol-sing")])
@pytest.mark.parametrize("value", ["nan", "-1", "5"])
def test_tolerance_overrides_outside_zero_one_exit_two(mode, flag, value, capsys):
    code, out, err = run_main([mode, "--input", data("instance_b.json"), flag, value],
                              capsys)
    assert code == 2
    assert out == ""
    assert "between 0 and 1" in err and flag in err


@pytest.mark.parametrize("argv", [["--samples", "-1"], ["--samples", "0"],
                                  ["--samples", "1"], ["--random", "-3"]])
def test_out_of_range_counts_exit_two(argv, capsys):
    code, out, err = run_main(["verify", "--input", data("instance_b.json")] + argv,
                              capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and argv[0] in err


def test_two_samples_are_enough(capsys):
    code, out, _ = run_main(["kernel", "--input", data("instance_b.json"),
                             "--samples", "2"], capsys)
    assert code == 0
    elements = json.loads(out)["results"]["elements"]
    assert elements and all(len(el["samples"]) == 2 for el in elements)


def test_unknown_suite_name_exits_two(capsys):
    code, _, err = run_main(["verify", "--random", "1", "--checks", "cbbc,bogus"],
                            capsys)
    assert code == 2
    assert "bogus" in err


# -- reports ----------------------------------------------------------------------


def test_analyze_locates_the_singular_atoms(capsys):
    code, out, _ = run_main(["analyze", "--input", data("instance_a.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["singular_points"] == [-0.5, 0.5]
    partition = report["results"]["partition"]
    assert partition["interior"] == [-0.5, 0.5]
    assert partition["points"][0] == -1.0 and partition["points"][-1] == 1.0


def test_kernel_and_compact_agree_on_instance_a(capsys):
    code, out, _ = run_main(["kernel", "--input", data("instance_a.json")], capsys)
    assert code == 0
    assert json.loads(out)["results"]["dimension"] == 3
    code, out, _ = run_main(["compact", "--input", data("instance_a.json")], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["adjoint_kernel_dimension"] == 1
    assert len(results["solutions"]) == 1
    assert results["solutions"][0]["endpoint_defect"] <= 1e-12


def test_report_has_the_documented_shape(capsys):
    code, out, _ = run_main(["verify", "--input", data("instance_b.json"),
                             "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "version", "seed", "input", "results",
                           "checks", "passed"}
    assert report["command"] == "verify"
    assert report["seed"] == 3
    assert report["input"]["n"] == 2
    for row in report["checks"]:
        assert set(row) == {"name", "defect", "tolerance", "pass"}


def test_verify_reports_a_failed_lift_as_failing_rows(capsys):
    # Each subinterval's propagator grows by about e^33, so the lifts break down.
    code, out, _ = run_main(["verify", "--input", data("instance_hyperbolic.json")],
                            capsys)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    raised = [row for row in report["checks"] if " raised " in row["name"]]
    assert "lift raised InconsistentLift [input]" in [row["name"] for row in raised]
    assert all(not row["pass"] and row["defect"] > row["tolerance"]
               for row in raised)


def test_reports_are_byte_identical_for_a_fixed_seed(tmp_path, capsys):
    outputs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = main(["verify", "--input", data("instance_a.json"),
                     "--random", "3", "--seed", "17", "--output", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith(b"\n")


def test_render_report_rejects_nan():
    with pytest.raises(ValueError):
        render_report({"value": float("nan")})


def test_console_script_is_installed():
    exe = shutil.which("measureode")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "validate", "--input", data("instance_a.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_console_script_names_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["measureode"] == "measureode.cli:main"
    module, _, name = scripts["measureode"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_module_invocation_matches_the_entry_point():
    # The child imports the package the tests import, installed or not.
    src = os.path.dirname(os.path.dirname(measureode.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "measureode.cli", "validate",
                           "--input", data("instance_a.json")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "validate"
