"""Command line behaviour: exit codes, report shape, determinism."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import measureode
from measureode.cli import main
from measureode.coefficients import Tolerances
from measureode.fileio import load_problem, parse_problem, render_report
from measureode.errors import ParseError

from conftest import fresh_python

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


def _raw(name: str = "instance_b.json") -> dict:
    with open(data(name), encoding="utf-8") as handle:
        return json.load(handle)


def _write(directory, raw: dict, name: str = "problem.json") -> str:
    path = directory / name
    path.write_text(json.dumps(raw), encoding="utf-8")  # NaN and inf as NaN and Infinity
    return str(path)


@pytest.mark.parametrize("keys, value, context", [
    (("J", 0, 0, 0), float("nan"), "$.J[0]"),
    (("f", "pieces", 0, "vector", 0, 0), float("nan"), "$.f.pieces[0]"),
    (("f", "atom_values"), [{"x": 0.0, "vector": [[float("nan"), 0], [1, 0]]}],
     "$.f.atom_values[0]"),
    (("f", "pieces", 0, "to"), float("inf"), "$.f.pieces[0]"),
    (("interval", 1), 10 ** 400, "$.interval"),  # past the float range
], ids=["J", "f piece", "f atom value", "f piece end", "interval end"])
def test_a_non_finite_number_in_a_problem_file_exits_two(keys, value, context, tmp_path,
                                                          capsys):
    raw = _raw("instance_a.json")
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    code, out, err = run_main(["validate", "--input", _write(tmp_path, raw)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {context}: expected a finite number, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", [b'{"n": ' + b"1" * 5000 + b"}", b'{"n": \xff}'],
                         ids=["long integer", "not utf-8"])
def test_a_file_the_json_reader_rejects_exits_two(text, tmp_path, capsys):
    # An integer too long to convert, and a byte that is not UTF-8.
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    code, out, err = run_main(["validate", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ") and err.count("\n") == 1


def test_a_list_field_that_is_not_a_list_is_a_parse_error():
    forced = _raw()
    forced["forced_partition_points"] = 3
    with pytest.raises(ParseError, match="must be a list") as err:
        parse_problem(forced)
    assert "$.forced_partition_points" in str(err.value)
    atom_values = _raw()
    atom_values["f"]["atom_values"] = 5
    with pytest.raises(ParseError, match="must be a list") as err:
        parse_problem(atom_values)
    assert "$.f" in str(err.value)


def test_a_malformed_list_field_exits_two(tmp_path, capsys):
    raw = _raw()
    raw["f"]["atom_values"] = 5
    code, out, err = run_main(["validate", "--input", _write(tmp_path, raw)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "atom_values must be a list" in err


def test_two_atom_values_at_one_x_exit_two(tmp_path, capsys):
    # As for two q or w atoms at one x: the second value is not silently kept.
    raw = _raw()
    raw["f"]["atom_values"] = [{"x": 0.0, "vector": [[5, 0], [0, 0]]},
                               {"x": 0.0, "vector": [[7, 0], [0, 0]]}]
    code, out, err = run_main(["solve", "--input", _write(tmp_path, raw)], capsys)
    assert code == 2 and out == ""
    assert err == "error: $.f.atom_values[1]: a second atom value at x = 0.0\n"


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


def _borderline(tolerances: dict) -> dict:
    """One q-atom (1 + 1e-7) [[0, 2], [2, 0]] at 0 with J = [[0, -1], [1, 0]].

    sigma_min(J + dq/2) = 1e-7 against sigma_max about 2: the jump is
    borderline at the default tol_sing 1e-9 and singular at 1e-5.
    """
    two = 2.0 * (1.0 + 1e-7)
    return {"n": 2, "J": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]], "interval": [-1.0, 1.0],
            "q": {"atoms": [{"x": 0.0, "matrix": [[[0, 0], [two, 0]], [[two, 0], [0, 0]]]}]},
            "w": {"atoms": []}, "tolerances": tolerances}


def test_tol_sing_from_the_file_or_the_flag_decides_a_borderline_jump(tmp_path, capsys):
    def status(tolerances, *flags):
        path = _write(tmp_path, _borderline(tolerances))
        code, out, _ = run_main(["analyze", "--input", path, *flags], capsys)
        assert code == 0
        (jump,) = json.loads(out)["results"]["jumps"]
        return jump["status"]

    assert status({}) == "borderline"
    assert status({"tol_sing": 1e-5}) == "singular"
    assert status({}, "--tol-sing", "1e-5") == "singular"
    assert status({"tol_sing": 1e-5}, "--tol-sing", "1e-9") == "borderline"
    assert load_problem(_write(tmp_path, _borderline({"tol_sing": 1e-5}))).tolerances \
        == Tolerances(sing=1e-5)


def test_tol_solve_from_the_file_scales_the_consistency_bound(tmp_path, capsys):
    from measureode import build_system, moment_vectors
    raw = _raw()
    raw["tolerances"] = {"tol_solve": 1e-3}
    path = _write(tmp_path, raw)
    code, out, _ = run_main(["solve", "--input", path], capsys)
    assert code == 0
    (row,) = [c for c in json.loads(out)["checks"] if c["name"] == "solve consistent"]
    parsed = load_problem(path)
    bs = build_system(parsed.problem, parsed.window, parsed.forced_points)
    rhs = moment_vectors(bs, parsed.f.refined_against(parsed.problem.w)).rhs
    assert row["tolerance"] == pytest.approx(1e-3 * (1.0 + np.linalg.norm(rhs)), rel=1e-12)


@pytest.mark.parametrize("mode", ["solve", "kernel", "compact", "verify"])
def test_tol_rank_from_the_file_or_the_flag_reaches_every_rank_decision(mode, tmp_path,
                                                                        monkeypatch, capsys):
    from measureode.blocksystem import Factorisation
    cuts = []
    sweep = Factorisation._sweep

    def spy(self, tol_rank):
        cuts.append(tol_rank)
        return sweep(self, tol_rank)

    monkeypatch.setattr(Factorisation, "_sweep", spy)
    raw = _raw()
    raw["tolerances"] = {"tol_rank": 1e-4}
    path = _write(tmp_path, raw)
    for flags, expected in [((), 1e-4), (("--tol-rank", "1e-6"), 1e-6)]:
        cuts.clear()
        code, _, _ = run_main([mode, "--input", path, *flags], capsys)
        assert code == 0
        assert cuts and set(cuts) == {expected}


@pytest.mark.parametrize("argv", [["--samples", "-1"], ["--samples", "0"],
                                  ["--samples", "1"], ["--random", "-3"],
                                  ["--seed", "-1"]])
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


@pytest.mark.parametrize("argv", [["--input", data("instance_b.json"), "--checks", ","],
                                  ["--input", data("instance_b.json"), "--checks", ""],
                                  ["--random", "2", "--checks", ""]])
def test_an_empty_suite_selection_exits_two(argv, capsys):
    code, out, err = run_main(["verify"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert "--checks" in err


@pytest.mark.parametrize("checks", ["bogus", ","])
def test_a_malformed_checks_exits_two_before_the_input_is_read(checks, capsys):
    code, out, err = run_main(["verify", "--input", data("bad_negative_w.json"),
                               "--checks", checks], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --checks")


def test_selected_suites_are_reported_once_in_suite_order(capsys):
    code, out, _ = run_main(["verify", "--input", data("instance_b.json"),
                             "--checks", "lift,cbbc,cbbc"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["suites"] == ["cbbc", "lift"]
    cbbc = [row["name"] for row in report["checks"] if row["name"].startswith("cbbc")]
    assert len(cbbc) == len(set(cbbc)) == 3


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


def test_verify_passes_on_the_padded_hyperbolic_window(capsys):
    # Forced points every 2 units keep each propagator near e^2, but the t0
    # solve on the tall B_m is unstable if it recurses along the partition.
    code, out, _ = run_main(["verify", "--input", data("instance_hyperbolic_padded.json")],
                            capsys)
    report = json.loads(out)
    assert [row["name"] for row in report["checks"] if not row["pass"]] == []
    assert code == 0 and report["passed"] is True


def test_non_finite_defects_become_failing_rows_in_a_valid_report(monkeypatch, capsys):
    import measureode.verify as verify
    from measureode.coefficients import Check
    # An inf that would pass a "greater than" row, and a NaN, in every instance.
    monkeypatch.setattr(verify, "suite_cbbc", lambda bs, tag, tol_rank: [
        Check(f"inf [{tag}]", float("inf"), 1.0, True),
        Check(f"nan [{tag}]", float("nan"), 1.0, False)])
    code, out, _ = run_main(["verify", "--input", data("instance_a.json"),
                             "--checks", "cbbc,wronskian", "--random", "1"], capsys)
    assert code == 1
    rows = json.loads(out)["checks"]
    suspect = [row for row in rows if row["name"].split()[0] in ("inf", "nan")
               or row["name"].startswith("non-finite: ")]
    assert [row["name"] for row in suspect] == [
        f"non-finite: {kind} [{tag}]" for tag in ("input", "random 0")
        for kind in ("inf", "nan")]
    assert all(row["defect"] == sys.float_info.max and not row["pass"] for row in suspect)
    assert all(row["pass"] for row in rows if row not in suspect)


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


def test_an_unwritable_output_is_one_error_line_and_exit_two(tmp_path):
    target = tmp_path / "missing" / "r.json"
    proc = fresh_python("-m", "measureode.cli", "solve", "--input", data("instance_b.json"),
                        "--output", str(target))
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not target.parent.exists()


def test_an_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, capsys):
    from measureode import cli

    def forbidden(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, forbidden))
    monkeypatch.setattr(cli, "load_problem", forbidden)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (tmp_path / "missing" / "r.json", blocker / "r.json"):
        code, out, err = run_main(["verify", "--input", data("instance_b.json"),
                                   "--random", "3", "--output", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists() and blocker.read_text() == ""


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
    proc = fresh_python("-m", "measureode.cli", "validate",
                        "--input", data("instance_a.json"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "validate"


def _stretched_hyperbolic(directory, end: float) -> str:
    """instance_hyperbolic.json stretched from (0, 100) to (0, end).

    Its propagators grow like e^x, so a long window overflows them.
    """
    raw = _raw("instance_hyperbolic.json")
    raw["interval"][1] = end
    for piece in (raw["q"]["density"][0], raw["w"]["density"][0], raw["f"]["pieces"][0]):
        piece["to"] = end
    return _write(directory, raw, f"hyperbolic_{end:g}.json")


@pytest.mark.parametrize("mode, end", [("solve", 800.0), ("kernel", 1600.0)])
def test_a_non_finite_result_is_one_error_line_and_exit_one(mode, end, tmp_path, capsys):
    code, out, err = run_main([mode, "--input", _stretched_hyperbolic(tmp_path, end)],
                              capsys)
    assert (code, out, err) == (1, "", "error: the result holds a non-finite number\n")


def _conditioned_row(report) -> dict:
    (row,) = [row for row in report["checks"] if row["name"] == "propagator conditioned"]
    return row


@pytest.mark.parametrize("end", [100.0, 400.0])
@pytest.mark.parametrize("mode", ["kernel", "solve"])
def test_an_ill_conditioned_propagator_fails_its_row_and_exits_one(mode, end, tmp_path,
                                                                   capsys):
    # The unpadded hyperbolic window: its propagators grow like e^x between
    # partition points, so kernel reported dimension 4 (the truth is 2) and
    # solve on (0, 400) a "consistent" residual of 1.7e125, both with exit 0.
    path = data("instance_hyperbolic.json") if end == 100.0 \
        else _stretched_hyperbolic(tmp_path, end)
    code, out, _ = run_main([mode, "--input", path], capsys)
    report = json.loads(out)
    row = _conditioned_row(report)
    assert code == 1 and report["passed"] is False
    assert not row["pass"] and row["defect"] > 1e12 and row["tolerance"] == 1e-10
    if end == 100.0:
        assert row["defect"] == pytest.approx(6.9e12, rel=0.01)


@pytest.mark.parametrize("instance", ["instance_a", "instance_b",
                                      "instance_hyperbolic_padded"])
@pytest.mark.parametrize("mode", ["kernel", "solve", "compact"])
def test_a_well_conditioned_propagator_passes_its_row(mode, instance, capsys):
    code, out, _ = run_main([mode, "--input", data(f"{instance}.json")], capsys)
    report = json.loads(out)
    row = _conditioned_row(report)
    assert row["pass"] and row["defect"] <= 1e-14
    # solve on instance_a is inconsistent; every other report passes.
    assert code == (1 if (mode, instance) == ("solve", "instance_a") else 0)
    assert [r["name"] for r in report["checks"] if not r["pass"]] == (
        ["solve consistent"] if code else [])


def test_verify_on_an_overflowing_window_lists_its_failing_rows(tmp_path, capsys):
    # Some rows there have a NaN tolerance as well as a NaN defect.
    code, out, _ = run_main(["verify", "--input", _stretched_hyperbolic(tmp_path, 800.0),
                             "--random", "0"], capsys)
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert "non-finite: t0 certificate two-route [input]" in [
        row["name"] for row in report["checks"] if not row["pass"]]


def test_a_failed_svd_is_one_error_line_and_exit_one(monkeypatch, capsys):
    from measureode import cli

    def diverge(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(cli._HANDLERS, "kernel", diverge)
    code, out, err = run_main(["kernel", "--input", data("instance_a.json")], capsys)
    assert (code, out, err) == (1, "", "error: SVD did not converge\n")


@pytest.mark.parametrize("instance", ["instance_a", "instance_b", "instance_hyperbolic",
                                      "instance_hyperbolic_padded", "stretched"])
@pytest.mark.parametrize("mode", ["validate", "analyze", "solve", "kernel", "compact",
                                  "verify"])
def test_no_warning_or_traceback_escapes_a_cli_process(mode, instance, tmp_path):
    # Warnings are errors in the fresh interpreter, so any would end in a
    # traceback; failing checks and error exits are fine.  "stretched" is
    # instance_hyperbolic.json on (0, 800), where solve and verify overflow.
    path = (_stretched_hyperbolic(tmp_path, 800.0) if instance == "stretched"
            else data(f"{instance}.json"))
    argv = [mode, "--input", path, "--output", str(tmp_path / "r.json")]
    if mode == "verify":
        argv += ["--random", "2"]
    proc = fresh_python("-m", "measureode.cli", *argv)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr


def _assert_scipy_stays_unloaded(code: str) -> None:
    """Run ``code`` in a fresh interpreter; scipy must not be imported after it."""
    proc = fresh_python("-c", f"import sys\n{code}\nassert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mode", ["validate", "analyze", "solve", "kernel", "compact",
                                  "verify"])
def test_the_cli_never_imports_scipy(mode, tmp_path):
    # The package imports no scipy; this guards against an import creeping back.
    argv = [mode, "--input", data("instance_b.json"), "--output", str(tmp_path / "r.json")]
    if mode == "verify":
        argv += ["--random", "1"]
    # Each mode loads the modules it runs and no others, never numpy.ma
    # (np.unique would import it) and never dataclasses: no class in the
    # package is one.
    loaded = {"cli", "coefficients", "errors", "fileio", "functions"}
    if mode != "validate":
        loaded.add("partition")
    if mode not in ("validate", "analyze"):
        loaded |= {"blocksystem", "propagation"}
    if mode in ("solve", "compact", "kernel", "verify"):
        loaded.add("solutions")
    if mode in ("kernel", "verify"):
        loaded.add("relations")
    if mode == "verify":
        loaded |= {"fuzz", "verify"}
    expected = sorted(f"measureode.{name}" for name in loaded)
    _assert_scipy_stays_unloaded(
        f"from measureode.cli import main\nassert main({argv!r}) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('measureode.'))\n"
        f"assert loaded == {expected!r}, loaded\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules")


def test_importing_the_package_does_not_import_scipy():
    _assert_scipy_stays_unloaded(
        "import measureode\n"
        "assert not [m for m in sys.modules if m.startswith('measureode.')]")


def test_public_names_resolve_on_first_use():
    import measureode.verify
    from measureode import blocksystem, coefficients, propagation, solutions
    # The shared defaults have one home and are re-exported where they were.
    for module, name in [(blocksystem, "DEFAULT_TOL_RANK"), (blocksystem, "DEFAULT_TOL_SING"),
                         (propagation, "DEFAULT_TOL_SING"), (solutions, "DEFAULT_TOL_SOLVE"),
                         (measureode.verify, "SUITE_NAMES")]:
        assert getattr(module, name) is getattr(coefficients, name)
    assert set(measureode.__all__) <= set(dir(measureode))
    namespace = {}
    exec("from measureode import *", namespace)
    for name in measureode.__all__:
        assert namespace[name] is getattr(measureode, name)
    with pytest.raises(AttributeError):
        measureode.no_such_name


def test_single_exponentials_and_pointwise_values_do_not_import_scipy():
    _assert_scipy_stays_unloaded(
        "from measureode import MeasureMatrix, Problem, segment_exponential, "
        "solve_ivp_regular\n"
        "J = [[0, -1], [1, 0]]\n"
        "segment_exponential(J, [[1, 0], [0, -1]], 0.5)\n"
        "q = MeasureMatrix.lebesgue((0.0, 1.0), [[1.0, 0.0], [0.0, -1.0]])\n"
        "problem = Problem(J, q, MeasureMatrix.zero((0.0, 1.0), 2))\n"
        "solve_ivp_regular(problem, (0.0, 1.0), 0.0, [1.0, 0.0]).evaluate(0.3)")


def test_report_digests_compare_counts_moves_flips_and_exit_changes(tmp_path, capsys):
    from report_digests import compare
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text('a.json "r1 [x]" 1e-12 1e-09 True\na.json "r2" 0.5 1.0 True\n'
                      'a.json "raised" 1.0 0.0 False\na.json - exit 0\nb.json - exit 2\n')
    after.write_text('a.json "r1 [x]" 3e-12 1e-09 True\na.json "r2" 1.5 1.0 False\n'
                     'a.json "raised" 1.0 0.0 False\na.json - exit 1\nb.json - exit 2\n')
    compare(str(before), str(after))
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rows moved: 2 of 3"
    assert out[1:3] == ["pass/fail flips: 1", '  a.json "r2" True -> False']
    assert out[3:5] == ["exit-code changes: 1", "  a.json exit 0 -> 1"]
    assert out[5].startswith('largest move: 1.000e+00 of its tolerance, a.json "r2" 0.5 -> 1.5')


def test_report_digests_names_rows_on_one_side_and_digests_results_without_rows(
        tmp_path, capsys):
    from report_digests import _without_checks, compare
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text('a.json:validate "kept" 0.0 1.0 True\n'
                      'a.json:validate "gone" 0.0 0.0 True\n'
                      'a.json:solve "gone" 0.0 0.0 True\n')
    after.write_text('a.json:validate "kept" 0.0 1.0 True\n')
    compare(str(before), str(after))
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["rows moved: 0 of 1", "rows only in before: 2", '  2 x "gone"']
    report = b'{"command": "validate", "checks": [{"name": "gone"}], "passed": true}'
    assert _without_checks(report) == b'{"command": "validate", "passed": true}'
    assert _without_checks(b"") == b""


@pytest.mark.parametrize("after, code", [
    ('a.json:solve "r" 0.5 1.0 True\na.json:solve - exit 0\n', 0),
    ('a.json:solve "r" 0.6 1.0 True\na.json:solve - exit 0\n', 1),
    ('a.json:solve "r" 0.5 1.0 True\na.json:solve "s" 0.5 1.0 True\n'
     'a.json:solve - exit 0\n', 1),
    ('a.json:solve "r" 0.5 1.0 False\na.json:solve - exit 0\n', 1),
    ('a.json:solve "r" 0.5 1.0 True\na.json:solve - exit 1\n', 1),
], ids=["same", "moved", "one side", "flip", "exit code"])
def test_report_digests_compare_exits_one_on_any_difference(tmp_path, capsys, after, code):
    spec = importlib.util.spec_from_file_location(
        "report_digests_script", os.path.join(os.path.dirname(__file__), "report_digests.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "before.txt").write_text('a.json:solve "r" 0.5 1.0 True\na.json:solve - exit 0\n')
    (tmp_path / "after.txt").write_text(after)
    assert script.main(["--compare", str(tmp_path / "before.txt"),
                        str(tmp_path / "after.txt")]) == code
    assert capsys.readouterr().out.startswith("rows moved: ")


def test_package_reach_lists_what_no_cli_run_enters():
    # One data file in a fresh interpreter: segment_integral is kept for the
    # acceptance battery alone, and every CLI mode builds a block system.
    script = os.path.join(os.path.dirname(__file__), "package_reach.py")
    proc = fresh_python(script, data("instance_a.json"))
    assert proc.returncode == 0, proc.stderr
    names = {line.split()[-1] for line in proc.stdout.splitlines()}
    assert "segment_integral" in names
    assert "build_system" not in names


def test_package_reach_arms_lists_the_arms_whose_condition_ran_and_they_did_not():
    # No data file sets --tol-sing: the override's test runs and its else arm
    # does not, while the arm taken is not listed.
    script = os.path.join(os.path.dirname(__file__), "package_reach.py")
    proc = fresh_python(script, "--arms", data("instance_a.json"))
    assert proc.returncode == 0, proc.stderr
    arms = [line.split(" in ", 1)[1] for line in proc.stdout.splitlines() if " in " in line]
    assert '_tolerances: else arm: check_tolerance(args.tol_sing, "--tol-sing")' in arms
    assert not any(arm.startswith("_tolerances: if arm") for arm in arms)
