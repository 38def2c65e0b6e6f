import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliffcalc.cli import _ARGS, main, render_job
from cliffcalc.operators import CliffordOperator, operator_to_json


def run_cli(capsysbinary, argv):
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out


def test_mul_command(capsysbinary):
    code, out = run_cli(capsysbinary, ["mul", "-n", "2", "--a", "1+e1", "--b", "1+e2"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "mul"
    assert report["result"]["product"]["coeffs"] == {"": 1.0, "1": 1.0, "2": 1.0, "12": 1.0}


def test_spectrum_command(capsysbinary):
    code, out = run_cli(capsysbinary, ["spectrum", "-n", "2", "--paravector", "1+2e1+2e2"])
    assert code == 0
    report = json.loads(out)
    s_plus = report["result"]["s_plus"]
    assert s_plus[0] == pytest.approx(1.0)
    assert s_plus[1] == pytest.approx(2 * np.sqrt(2))


def test_resolvent_command(capsysbinary):
    code, out = run_cli(capsysbinary, ["resolvent", "-n", "1", "--paravector", "e1",
                                       "--lambda", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"]["coeffs"][""] == [pytest.approx(0.4), 0.0]


def test_eval_both_methods(capsysbinary):
    code, out = run_cli(capsysbinary, [
        "eval", "-n", "2", "--fn", "z^2", "--at", "e1+e2", "--method", "both"])
    assert code == 0
    report = json.loads(out)
    direct = report["result"]["direct"]["coeffs"][""]
    assert direct[0] == pytest.approx(-2.0)
    assert report["result"]["residual"] <= 1e-8


def test_eval_both_methods_at_a_nearly_real_paravector(capsysbinary):
    code, out = run_cli(capsysbinary, [
        "eval", "-n", "2", "--fn", "exp(0.5*z)*(1+e1) + z^3", "--at", "0.3+0.000001e1",
        "--method", "both"])
    assert code == 0
    assert json.loads(out)["result"]["residual"] <= 1e-8


def test_regularity_command(capsysbinary):
    code, out = run_cli(capsysbinary, [
        "regularity", "-n", "2", "--fn", "z^2 - e1*z", "--at", "0.5+e1"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["residual"] <= 1e-6


def test_operator_commands(tmp_path, capsysbinary):
    T = CliffordOperator(1, 1, {0: [[0.0]], 1: [[1.0]]})
    matrix_file = tmp_path / "op.json"
    matrix_file.write_text(json.dumps(operator_to_json(T)))

    code, out = run_cli(capsysbinary, ["op-spectrum", "--matrix", str(matrix_file)])
    assert code == 0
    report = json.loads(out)
    assert sorted(tuple(e) for e in report["result"]["eigenvalues"]) == [(0.0, -1.0), (0.0, 1.0)]

    code, out = run_cli(capsysbinary, [
        "op-eval", "--matrix", str(matrix_file), "--fn", "z^2", "--method", "both"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["riesz"]["components"][""][0][0] == pytest.approx(-1.0)
    assert report["result"]["residual"] <= 1e-6


def test_check_command(capsysbinary):
    code, out = run_cli(capsysbinary, ["check", "--suite", "projections", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is True


def test_validation_error_exit_code(capsysbinary):
    code, out = run_cli(capsysbinary, ["eval", "-n", "2", "--fn", "e5*z", "--at", "e1"])
    assert code == 1
    report = json.loads(out)
    assert "error" in report


def test_numeric_error_exit_code(capsysbinary):
    # resolvent exactly at a spectral point
    code, out = run_cli(capsysbinary, ["resolvent", "-n", "1", "--paravector", "e1",
                                       "--lambda", "1j"])
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "SpectralPointError"


def test_out_flag_writes_file(tmp_path, capsysbinary):
    target = tmp_path / "report.json"
    code, out = run_cli(capsysbinary, ["mul", "-n", "1", "--a", "e1", "--b", "e1",
                                       "--out", str(target)])
    assert code == 0
    assert out == b""
    assert json.loads(target.read_text())["result"]["product"]["coeffs"] == {"": -1.0}


@pytest.mark.parametrize("before", [True, False])
def test_out_flag_works_before_and_after_the_subcommand(tmp_path, capsysbinary, before):
    target = tmp_path / "report.json"
    command, out_flag = ["mul", "-n", "1", "--a", "e1", "--b", "e1"], ["--out", str(target)]
    code, out = run_cli(capsysbinary, out_flag + command if before else command + out_flag)
    assert code == 0
    assert out == b""
    assert json.loads(target.read_text())["result"]["product"]["coeffs"] == {"": -1.0}


def test_job_file_replay(tmp_path, capsysbinary):
    job = {"command": "eval",
           "args": {"fn": "z^2", "at": "e1+e2", "n": 2, "method": "both"}}
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    code_a, out_a = run_cli(capsysbinary, ["--job", str(job_file)])
    code_b, out_b = run_cli(capsysbinary, ["--job", str(job_file)])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_render_job_bytes_deterministic():
    job = {"command": "spectrum", "args": {"paravector": "1+2e1", "n": 1}}
    assert render_job(job) == render_job(job)


@pytest.mark.parametrize("nodes", ["0", "-4"])
def test_eval_rejects_nonpositive_node_counts(capsysbinary, nodes):
    code, out = run_cli(capsysbinary, [
        "eval", "-n", "2", "--fn", "z^2", "--at", "e1+e2", "--method", "both", "--nodes", nodes])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_dsl_failures_are_error_documents(capsysbinary):
    for fn, code_expected in [("1e+400*z", 1), ("(" * 300 + "z" + ")" * 300, 1),
                              ("exp(1000*z)", 2)]:
        code, out = run_cli(capsysbinary, ["eval", "-n", "1", "--fn", fn, "--at", "1"])
        assert code == code_expected, fn
        assert "error" in json.loads(out)


def test_file_errors_are_error_documents(tmp_path, capsysbinary):
    missing = str(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for argv in (["op-spectrum", "--matrix", missing],
                 ["op-eval", "--matrix", str(garbled), "--fn", "z"],
                 ["eval", "-n", "1", "--fn", "z", "--at", "1", "--domain", missing],
                 ["--job", missing],
                 ["--job", str(garbled)],
                 ["--job", str(listed)]):
        code, out = run_cli(capsysbinary, argv)
        assert code == 1, argv
        assert json.loads(out)["error"]["type"] in ("InputError", "FormatError"), argv


def test_out_write_failure_is_error_document(tmp_path, capsysbinary):
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli(capsysbinary, ["mul", "-n", "1", "--a", "e1", "--b", "e1",
                                       "--out", str(target)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"
    assert not target.exists()


def test_unknown_suite_is_error_document(capsysbinary):
    code, out = run_cli(capsysbinary, ["check", "--suite", "nope"])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "InputError"
    assert "equivalence" in report["error"]["message"]


def test_singular_resolvent_is_numeric_error_document(tmp_path, capsysbinary):
    # J_3(1) + 0.5 I e1: a defective spectrum puts a quadrature node on an eigenvalue
    T = CliffordOperator(3, 1, {0: np.eye(3) + np.diag([1.0, 1.0], 1), 1: 0.5 * np.eye(3)})
    matrix_file = tmp_path / "op.json"
    matrix_file.write_text(json.dumps(operator_to_json(T)))
    code, out = run_cli(capsysbinary, ["op-eval", "--matrix", str(matrix_file),
                                       "--fn", "z^2 + e1*z"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ContourSpectrumError"


@pytest.mark.parametrize("option", [["--tol", "0"], ["--tol", "nan"], ["--tol", "-1"],
                                    ["--nodes", "8192"]])
def test_eval_rejects_quadrature_parameters_that_cannot_converge(capsysbinary, option):
    code, out = run_cli(capsysbinary, ["eval", "-n", "2", "--fn", "z^2", "--at", "0.3+0.5e1",
                                       "--method", "cauchy"] + option)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
def test_regularity_rejects_steps_that_are_not_finite_and_positive(capsysbinary, step):
    code, out = run_cli(capsysbinary, ["regularity", "-n", "1", "--fn", "z^2",
                                       "--at", "0.3 + 0.8e1", f"--fd-step={step}"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_resolvent_refuses_tolerances_that_are_not_finite_and_positive(capsysbinary, tol):
    code, out = run_cli(capsysbinary, ["resolvent", "-n", "1", "--paravector", "e1",
                                       "--lambda", "1j", f"--tol={tol}"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv, flag, value", [
    (["regularity", "-n", "1", "--fn", "z^2", "--at", "0.3 + 0.8e1"], "--fd-step", "-1e-4"),
    (["eval", "-n", "2", "--fn", "z^2", "--at", "0.3+0.5e1", "--method", "cauchy"], "--tol",
     "-1e-9"),
    (["mul", "-n", "2", "--b", "e2"], "--a", "-e1"),
    (["eval", "-n", "2", "--at", "0.3+0.5e1"], "--fn", "-z^2"),
    (["resolvent", "-n", "1", "--paravector", "e1"], "--lambda", "-1+2j"),
])
def test_a_flag_value_starting_with_a_minus_reads_like_its_joined_form(capsysbinary, argv, flag,
                                                                        value):
    joined = run_cli(capsysbinary, argv + [f"{flag}={value}"])
    assert json.loads(joined[1])
    assert run_cli(capsysbinary, argv + [flag, value]) == joined
    # also right before the rank flag: the join takes the value and leaves -n an option
    assert run_cli(capsysbinary, argv[:1] + [flag, value] + argv[1:]) == joined


def test_cli_import_loads_no_verification_or_test_modules():
    # every cold CLI job pays for what ``import cliffcalc.cli`` loads
    src = Path(__import__("cliffcalc").__file__).resolve().parent.parent
    unwanted = ["cliffcalc.verify", "numpy.random", "numpy.ma", "scipy", "hypothesis"]
    probe = ("import sys, cliffcalc.cli; "
             f"print([m for m in {unwanted!r} if m in sys.modules])")
    path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("rank", ["60", "12"])
def test_eval_rejects_ranks_beyond_the_text_format(capsysbinary, rank):
    code, out = run_cli(capsysbinary, ["eval", "-n", rank, "--fn", "z", "--at", "1"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FormatError"


@pytest.mark.parametrize("fields", [{"d": -1, "n": 1}, {"d": "a", "n": 1}, {"d": 0, "n": 1},
                                    {"d": 2.5, "n": 1}, {"d": 2, "n": 10}, {"d": 2, "n": -1}])
def test_operator_files_need_integer_sizes_in_range(tmp_path, capsysbinary, fields):
    matrix_file = tmp_path / "op.json"
    matrix_file.write_text(json.dumps(dict(fields, components={})))
    code, out = run_cli(capsysbinary, ["op-spectrum", "--matrix", str(matrix_file)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FormatError"


@pytest.mark.parametrize("command, args", [
    ("eval", {"n": "a"}),
    ("eval", {"n": True}),
    ("eval", {"n": 2.0}),
    ("eval", {}),
    ("eval", {"n": 2, "method": "cauchy", "tol": [1]}),
    ("eval", {"n": 2, "method": "cauchy", "nodes": 64.5}),
    ("eval", {"n": 2, "method": "cauchy", "radius_frac": "x"}),
    ("regularity", {"n": 2, "fd_step": "x"}),
    ("resolvent", {"n": 1, "paravector": "e1", "lambda": {"re": 2}}),
    ("resolvent", {"n": 1, "paravector": "e1", "lambda": [2, 0, 1]}),
    ("resolvent", {"n": 1, "paravector": "e1", "lambda": "2+"}),
    ("check", {"suite": "algebra", "seed": "x"}),
])
def test_malformed_job_arguments_are_format_errors(tmp_path, capsysbinary, command, args):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": command,
                               "args": dict({"fn": "z^2", "at": "0.3+0.5e1"}, **args)}))
    code, out = run_cli(capsysbinary, ["--job", str(job)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FormatError"


def test_job_arguments_take_numbers_text_and_pairs(tmp_path, capsysbinary):
    values = []
    for lam in ("2+0.5j", [2, 0.5], ["2", "0.5"]):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"command": "resolvent", "args": {
            "n": "1", "paravector": "e1", "lambda": lam, "tol": "1e-12"}}))
        code, out = run_cli(capsysbinary, ["--job", str(job)])
        assert code == 0
        values.append(json.loads(out)["result"])
    assert values[0] == values[1] == values[2]


def test_negative_rank_is_refused_before_the_function_is_built(capsysbinary):
    code, out = run_cli(capsysbinary, ["eval", "-n", "-1", "--fn", "z", "--at", "1"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FormatError"


# -- the argument table ------------------------------------------------------------

# One report per command, recorded before the argument table replaced the per-command
# argument handling; parsing arguments differently must not change a report.
GOLDEN = Path(__file__).parent / "golden"
ONE_BY_ONE = CliffordOperator(1, 1, {0: [[0.0]], 1: [[1.0]]})


@pytest.fixture
def job_dir(tmp_path, monkeypatch):
    """A working directory holding ``op.json`` (a 1 x 1 operator, n = 1) and
    ``domain.json`` (a disk of radius 5), so reports echo stable relative paths."""
    (tmp_path / "op.json").write_text(json.dumps(operator_to_json(ONE_BY_ONE)))
    (tmp_path / "domain.json").write_text(json.dumps({"disks": [{"c": [0, 0], "r": 5}]}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_job_file(capsysbinary, directory, job):
    path = directory / "job.json"
    path.write_text(json.dumps(job))
    return run_cli(capsysbinary, ["--job", str(path)])


@pytest.mark.parametrize("command, args", [
    ("mul", {"n": 2, "a": "1+e1", "b": "1+e2"}),
    ("spectrum", {"n": 2, "paravector": "1+2e1+2e2"}),
    ("resolvent", {"n": 1, "paravector": "e1", "lambda": "2"}),
    ("eval", {"n": 2, "fn": "z^2", "at": "e1+e2", "method": "direct"}),
    ("regularity", {"n": 1, "fn": "z^2", "at": "0.5+e1"}),
    ("op-spectrum", {"matrix": "op.json"}),
    ("op-eval", {"matrix": "op.json", "fn": "z^2"}),
    ("check", {"suite": "projections"}),
])
def test_reports_match_recorded_bytes(job_dir, command, args):
    assert render_job({"command": command, "args": args}) == \
        (GOLDEN / f"{command}.json").read_bytes()


@pytest.mark.parametrize("command, args", [
    ("mul", {"n": 2, "a": "1+e1", "b": "1+e2"}),
    ("spectrum", {"n": 2, "paravector": "1+2e1+2e2"}),
    ("resolvent", {"n": 1, "paravector": "e1", "lambda": "2+1j", "tol": 1e-9}),
    ("eval", {"n": 2, "fn": "z^2", "at": "0.3+0.5e1", "method": "both", "domain": "domain.json",
              "nodes": 32, "radius_frac": 0.4, "tol": 1e-10}),
    ("regularity", {"n": 1, "fn": "z^3", "at": "0.5+e1", "domain": "domain.json",
                    "fd_step": 1e-3}),
    ("op-spectrum", {"matrix": "op.json", "slice_unit": "e1"}),
    ("op-eval", {"matrix": "op.json", "fn": "z^2", "method": "both", "domain": "domain.json",
                 "slice_unit": "e1", "radius_frac": 0.4, "tol": 1e-10}),
    ("check", {"suite": "projections", "seed": 3}),
])
def test_flags_and_job_files_give_the_same_bytes(job_dir, capsysbinary, command, args):
    argv = [command]
    for key, value in args.items():
        argv += ["-n" if key == "n" else "--" + key.replace("_", "-"), str(value)]
    code_flags, out_flags = run_cli(capsysbinary, argv)
    code_job, out_job = run_job_file(capsysbinary, job_dir, {"command": command, "args": args})
    assert code_flags == code_job == 0
    assert out_flags == out_job


@pytest.mark.parametrize("job, named", [
    ({"command": "mul", "args": 5}, "'args'"),
    ({"command": ["mul"]}, "['mul']"),
    ({"command": "mul", "args": {"n": 1}}, "'a'"),
    ({"command": "eval", "args": {"n": 1, "fn": "z", "at": 5}}, "'at'"),
    ({"command": "eval", "args": {"n": 1, "fn": "z", "at": "1", "method": "Both"}}, "'method'"),
    ({"command": "eval", "args": {"n": 2, "fn": "z^2", "at": "0.3+0.5e1", "method": "cauchy",
                                  "nodez": 8000}}, "'nodez'"),
    ({"command": "regularity", "args": {"n": 2, "fn": "z^2", "at": "0.5+e1", "tol": 1e-9}},
     "'tol'"),
    ({"command": "op-spectrum", "args": {"matrix": 0}}, "'matrix'"),
    ({"command": "eval", "args": {"n": 1, "fn": "z", "at": "1", "domain": 1}}, "'domain'"),
    ({"command": "check", "args": {"suite": ["projections"]}}, "'suite'"),
    ({"command": "mul", "args": {"n": 1, "a": "e1", "b": "e1"}, "out": True}, "'out'"),
    ({"command": "mul", "args": {"n": 1, "a": "e1", "b": "e1"}, "out": 2}, "'out'"),
])
def test_malformed_jobs_are_refused_naming_the_key(job_dir, capsysbinary, job, named):
    code, out = run_job_file(capsysbinary, job_dir, job)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] in ("FormatError", "InputError")
    assert named in error["message"]


@pytest.mark.parametrize("domain, named", [
    ({"disks": [{"c": [0, 0], "r": "x"}]}, "'r'"),
    ([1, 2], "[1, 2]"),
])
def test_malformed_domain_files_are_format_errors(job_dir, capsysbinary, domain, named):
    (job_dir / "bad.json").write_text(json.dumps(domain))
    code, out = run_cli(capsysbinary, ["eval", "-n", "1", "--fn", "z", "--at", "1",
                                       "--domain", "bad.json"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "FormatError"
    assert named in error["message"]


@pytest.mark.parametrize("components, named", [
    (5, "components"),
    ({"": [["a"]]}, "''"),
    ({"": [[float("nan")]]}, "''"),
    ({"1": [[float("inf")]]}, "'1'"),
    ({"x": [[1.0]]}, "'x'"),
    ({"": [[1.0, 2.0], [3.0]]}, "''"),
])
def test_malformed_operator_components_are_format_errors(job_dir, capsysbinary, components,
                                                         named):
    (job_dir / "bad.json").write_text(json.dumps({"d": 1, "n": 1, "components": components}))
    code, out = run_cli(capsysbinary, ["op-spectrum", "--matrix", "bad.json"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "FormatError"
    assert named in error["message"]


# Valid values per key, small enough to run fast; ``suite`` is pinned to
# projections because a missing suite means all of them.
_FUZZ_VALID = {
    "n": [1, 2, 3, 0], "a": ["1", "e1", "1-e1"], "b": ["e1", "2-e1"],
    "paravector": ["0.3+0.5e1", "1"], "at": ["0.3+0.5e1", "1"],
    "fn": ["z", "z^2"], "lambda": ["2", "2+1j", [2, 0.5]], "tol": [1e-12, 1e-9],
    "nodes": [16, 64], "radius_frac": [0.5, 0.3], "fd_step": [1e-4, 1e-3],
    "domain": ["domain.json"], "matrix": ["op.json"], "slice_unit": ["e1"],
    "seed": [0, 1],
}
_FUZZ_JUNK = [True, None, [1, 2, 3], {"x": 1}, float("nan"), 10 ** 40, "junk"]
_MISSING = object()


@st.composite
def job_documents(draw):
    command = draw(st.sampled_from(sorted(_ARGS)))
    table = _ARGS[command]
    broken = draw(st.just(set()) | st.sets(st.sampled_from(sorted(table)), max_size=2))
    args = {}
    for key, (kind, _) in table.items():
        if key == "suite":
            args[key] = "projections"
            continue
        valid = list(kind) if isinstance(kind, tuple) else _FUZZ_VALID[key]
        value = draw(st.sampled_from(_FUZZ_JUNK + [_MISSING]) if key in broken
                     else st.sampled_from(valid))
        if value is not _MISSING:
            args[key] = value
    extra = draw(st.sampled_from([None, None, None, "nodez", "fn"]))
    if extra and extra not in table:
        args[extra] = 1
    return {"command": command, "args": args}


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(job=job_documents())
def test_job_documents_end_in_a_report_or_an_error_document(job_dir, capsysbinary, job):
    code, out = run_job_file(capsysbinary, job_dir, job)
    document = json.loads(out)
    assert (code, sorted(document)) in [(0, ["command", "inputs", "result"]),
                                        (1, ["error"]), (2, ["error"])], job
