import json
import os
import random
import subprocess
import sys

import pytest

from apparent import __version__, third_order_example
from apparent.cli import ode_json, run

from _gen import third_params

HEUN_PARAMS = {
    "t": "3",
    "theta1": "1/2",
    "theta2": "1/3",
    "theta3": "1/5",
    "theta_inf": "1/7",
    "alpha": "173/210",
    "q": "5",
}


@pytest.fixture()
def heun_file(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(HEUN_PARAMS))
    path = tmp_path / "heun.json"
    assert run(["heun", "--family", "general", "--params", str(params), "--format", "json"]) == 0
    path.write_text(capsys.readouterr().out)
    return path


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_envelope_fields(heun_file, capsys):
    code, rep = run_json(capsys, ["analyze", str(heun_file), "--format", "json"])
    assert code == 0
    assert rep["schema"] == "apparent/v1"
    assert rep["tool"] == "apparent"
    assert rep["version"] == __version__
    assert rep["command"] == "analyze"
    assert rep["fuchs"]["is_fuchsian"] is True
    locs = [sp["location"] for sp in rep["singular_points"]]
    assert locs == ["0", "1", "3", "inf"]


def test_output_is_deterministic(heun_file, capsys):
    run(["analyze", str(heun_file), "--format", "json"])
    first = capsys.readouterr().out
    run(["analyze", str(heun_file), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_deform_then_undeform_pipe(heun_file, tmp_path, capsys):
    code, deformed = run_json(capsys, ["deform", str(heun_file), "--format", "json"])
    assert code == 0
    assert deformed["new_apparent"] == [{"location": "5", "expected_gap": 2}]
    mid = tmp_path / "deformed.json"
    mid.write_text(json.dumps(deformed))

    code, restored = run_json(capsys, ["undeform", str(mid), "--format", "json"])
    assert code == 0
    assert restored["removed_points"] == ["5"]
    assert restored["free_parameters"] == 0
    assert restored["ode"] == json.loads(heun_file.read_text())["ode"]


def test_deform_iterations(heun_file, capsys):
    code, rep = run_json(capsys, ["deform", str(heun_file), "--iterations", "2", "--format", "json"])
    assert code == 0
    assert len(rep["stages"]) == 2
    assert rep["ode"] == rep["stages"][-1]["ode"]


def test_riemann_text_output(heun_file, capsys):
    assert run(["riemann", str(heun_file)]) == 0
    out = capsys.readouterr().out
    assert "inf" in out and "1/2" in out


def test_text_is_default_format(heun_file, capsys):
    assert run(["analyze", str(heun_file)]) == 0
    out = capsys.readouterr().out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "fuchsian" in out


def test_usage_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["analyze", str(missing), "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["analyze", str(bad), "--format", "json"]) == 2


def test_domain_error_reports_code(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"coeffs": [["1"], ["1"], ["0"]]}))
    code, rep = run_json(capsys, ["deform", str(path), "--format", "json"])
    assert code == 1
    assert rep["error"]["code"] == "AlreadyIntegrated"
    assert "message" in rep["error"]


def test_polymer_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, rep = run_json(
        capsys,
        [
            "polymer", "--b", "2", "--W", "1/4", "--nu-min", "5", "--nu-max", "10",
            "--precision-bits", "96", "--series-order", "100", "--grid-points", "24",
            "--csv", str(csv_path), "--format", "json",
        ],
    )
    assert code == 0
    assert rep["params"] == {"b": "2", "W": "1/4", "tau": "1", "kappa": "1/2"}
    assert rep["eigenvalues"][0] == pytest.approx(7.157674592, rel=1e-6)
    assert rep["T_rel"] == pytest.approx(2.0 / rep["eigenvalues"][0], rel=1e-12)
    diag = rep["diagnostics"]
    assert diag["evaluations"] > len(diag["wronskian_samples"]) >= 2
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "W,nu_1,T_rel"
    assert len(lines) == 2


def test_polymer_zero_eigenvalue_is_a_domain_error(capsys):
    argv = ["polymer", "--b", "1e-400", "--W", "1/4", "--nu-max", "1"]
    code, rep = run_json(capsys, [*argv, "--format", "json"])
    assert code == 1
    assert rep["error"]["code"] == "PrecisionExhausted"
    assert rep["error"]["details"]["nu"] == "0.0"
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error[PrecisionExhausted]: ")


def test_polymer_rounding_root_at_zero_is_a_domain_error(capsys):
    argv = ["polymer", "--b", "1e-400", "--W", "1/4", "--nu-min=-1/2", "--nu-max", "1"]
    code, rep = run_json(capsys, [*argv, "--format", "json"])
    assert code == 1
    assert rep["error"]["code"] == "PrecisionExhausted"
    assert 0 < abs(float(rep["error"]["details"]["nu"])) < 1e-16


def test_polymer_bad_sweep_literal(capsys):
    assert run(["polymer", "--b", "2", "--W", "1/4", "--sweep", "1/4:1/3"]) == 2
    assert "bad rational" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "apparent.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("analyze", "riemann", "deform", "undeform", "heun", "polymer"):
        assert sub in proc.stdout


def test_closed_stdout_exits_without_traceback(heun_file):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "apparent.cli", "analyze", str(heun_file), "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# runs the CLI in a fresh process, then lists the apparent modules it loaded
MODULE_PROBE = """
import sys
from apparent.cli import main
code = main()
print(*(m for m in sys.modules if m.startswith("apparent.")), file=sys.stderr)
sys.exit(code)
"""
NEVER_IMPORTED = {
    "heun": {"polymer", "transform"},
    "deform": {"polymer", "heun"},
    "analyze": {"polymer", "heun", "transform"},
    "riemann": {"polymer", "heun", "transform"},
    "undeform": {"polymer", "heun"},
    "deform3": {"polymer", "heun"},
    "polymer": {"heun", "transform", "frobenius", "_linalg"},
}


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    params, heun_out, deform_out = (tmp_path / n for n in ("p.json", "heun.json", "deform.json"))
    params.write_text(json.dumps(HEUN_PARAMS))
    steps = [
        ("heun", ["heun", "--family", "general", "--params", str(params)], heun_out),
        ("deform", ["deform", str(heun_out)], deform_out),
        ("analyze", ["analyze", str(deform_out)], None),
        ("riemann", ["riemann", str(deform_out)], None),
        ("undeform", ["undeform", str(deform_out)], None),
        ("deform3", ["deform", str(heun_out), "--iterations", "3"], None),
        ("polymer", ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "7", "--nu-max", "15/2",
                     "--grid-points", "2", "--precision-bits", "64"], None),
    ]
    for name, argv, out in steps:
        proc = subprocess.run(
            [sys.executable, "-c", MODULE_PROBE, *argv, "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        if out is not None:
            out.write_text(proc.stdout)
        loaded = {m.removeprefix("apparent.") for m in proc.stderr.split()}
        assert loaded & NEVER_IMPORTED[name] == set(), name


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--count", "0"),
        ("--grid-points", "1"),
        ("--b", "0"),
        ("--W", "0"),
        ("--tau", "0"),
        ("--sweep", "1/4,0"),
        ("--nu-min", "20"),
    ],
)
def test_polymer_bad_value_is_usage_error(capsys, flag, value):
    argv = ["polymer", "--b", "2", "--W", "1/4", "--nu-max", "20", "--format", "json"]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert flag in rep["error"]["message"]


@pytest.mark.parametrize(
    "sub, extra, flag",
    [
        ("deform", ["--iterations", "0"], "--iterations"),
        ("undeform", ["--targets", "abc"], "--targets"),
        ("undeform", ["--multiplicities", "x"], "--multiplicities"),
        ("undeform", ["--multiplicities", "0"], "--multiplicities"),
        ("undeform", ["--targets", "5", "--multiplicities", "1,1"], "--multiplicities"),
    ],
)
def test_exact_bad_value_is_usage_error(heun_file, capsys, sub, extra, flag):
    code, rep = run_json(capsys, [sub, str(heun_file), *extra, "--format", "json"])
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert flag in rep["error"]["message"]


@pytest.mark.parametrize("flag, value", [("--precision-bits", "-5"), ("--series-order", "0")])
def test_polymer_bad_solver_limit_is_usage_error(capsys, flag, value):
    argv = ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "5", "--nu-max", "10",
            flag, value, "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert flag in rep["error"]["message"]


@pytest.fixture()
def deformed_heun_file(heun_file, tmp_path, capsys):
    code, rep = run_json(capsys, ["deform", str(heun_file), "--format", "json"])
    assert code == 0 and len(rep["new_apparent"]) == 1
    path = tmp_path / "deformed.json"
    path.write_text(json.dumps(rep))
    return path


def test_undeform_inferred_target_count_is_usage_error(deformed_heun_file, capsys):
    # one apparent point is inferred, two multiplicities are given
    argv = ["undeform", str(deformed_heun_file), "--multiplicities", "1,1", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert "--multiplicities" in rep["error"]["message"]


def test_undeform_third_order_targets_read_the_ladder(tmp_path, capsys):
    ode = third_order_example(third_params(random.Random(3)))
    src = tmp_path / "third.json"
    src.write_text(json.dumps(ode_json(ode)))
    code, rep = run_json(capsys, ["deform", str(src), "--format", "json"])
    assert code == 0
    assert rep["new_apparent"] == [{"location": "-2/5", "expected_gap": 3}]
    path = tmp_path / "deformed3.json"
    path.write_text(json.dumps(rep))
    code, rep = run_json(capsys, ["undeform", str(path), "--targets=-2/5", "--format", "json"])
    assert code == 0 and rep["removed_points"] == ["-2/5"]
    assert rep["ode"] == ode_json(ode)
    argv = ["undeform", str(path), "--targets=-2/5", "--multiplicities", "1", "--format", "json"]
    assert run_json(capsys, argv) == (0, rep)


def test_undeform_repeated_target_is_usage_error(deformed_heun_file, capsys):
    for targets in ("5,5", "5,10/2"):
        argv = ["undeform", str(deformed_heun_file), "--targets", targets, "--format", "json"]
        code, rep = run_json(capsys, argv)
        assert code == 2
        assert rep["error"]["code"] == "Usage"
        assert "--targets" in rep["error"]["message"]


def test_undeform_negative_slack_is_usage_error(deformed_heun_file, capsys):
    argv = ["undeform", str(deformed_heun_file), "--max-slack", "-3", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert "--max-slack" in rep["error"]["message"]


def test_undeform_first_order_is_usage_error(tmp_path, capsys):
    path = tmp_path / "first.json"
    path.write_text(json.dumps({"coeffs": [["1", "1"], ["2"]]}))
    code, rep = run_json(capsys, ["undeform", str(path), "--format", "json"])
    assert code == 2
    assert rep["error"]["code"] == "Usage"


@pytest.mark.parametrize(
    "coeffs",
    [
        [["0", "0", "1"], ["0", "1"], ["-4"]],  # exponents {-2, 2}: the a = 0 candidate
        [["0", "0", "1"], ["0", "1"], ["-2"]],  # exponents +-sqrt(2): no rational gap
    ],
)
def test_undeform_unremovable_target_is_domain_error(tmp_path, capsys, coeffs):
    path = tmp_path / "euler.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    code, rep = run_json(capsys, ["undeform", str(path), "--targets", "0", "--format", "json"])
    assert code == 1
    assert rep["error"]["code"] == "NotRemovable"


def test_riemann_lists_apparent_point_at_infinity(tmp_path, capsys):
    # w' (z + 1) + 2 w = 0 has w = (z + 1)^-2: infinity is apparent
    path = tmp_path / "first.json"
    path.write_text(json.dumps({"coeffs": [["1", "1"], ["2"]]}))
    code, rep = run_json(capsys, ["riemann", str(path), "--format", "json"])
    assert code == 0
    assert {"location": "inf", "role": "apparent"} in rep["extra"]


def test_help_lists_every_domain_error_code(capsys):
    from apparent import errors

    assert run(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = text.split("domain error codes (exit 1): ")[1].split(". Exit 2")[0]
    defined = [
        cls.code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.ApparentError)
        and cls is not errors.ApparentError
    ]
    assert listed.split(", ") == defined


MULTI_PARAMS = {
    "zs": ["0", "1", "3"],
    "thetas": ["1/2", "1/3", "1/5"],
    "theta_inf": "1/7",
    "alpha": "173/210",
    "qs": ["5"],
}
CONFLUENT_PARAMS = {"p0": ["0", "1"], "p1": ["1", "0", "1"], "alpha": "1", "q": "2"}


def heun_json(capsys, tmp_path, family, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return run_json(capsys, ["heun", "--family", family, "--params", str(path), "--format", "json"])


def test_heun_list_parameters_build(tmp_path, capsys):
    code, rep = heun_json(capsys, tmp_path, "multi", MULTI_PARAMS)
    assert code == 0
    assert [sp["location"] for sp in rep["singular_points"]] == ["0", "1", "3", "inf"]
    code, rep = heun_json(capsys, tmp_path, "confluent", CONFLUENT_PARAMS)
    assert code == 0
    assert rep["ode"]["coeffs"][0] == ["0", "1"]


@pytest.mark.parametrize(
    "family, name, value",
    [
        ("multi", "zs", "012"),  # once read character by character
        ("multi", "zs", 5),
        ("multi", "zs", ["a", "1", "3"]),
        ("multi", "thetas", ["1/2", "1/3"]),
        ("multi", "qs", []),
        ("confluent", "p0", "11"),  # once read as 1 + z
    ],
)
def test_heun_bad_list_parameter_is_usage_error(tmp_path, capsys, family, name, value):
    base = MULTI_PARAMS if family == "multi" else CONFLUENT_PARAMS
    code, rep = heun_json(capsys, tmp_path, family, {**base, name: value})
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert repr(name) in rep["error"]["message"]
