import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from apparent import ThirdOrderParams, __version__, third_order_example
from apparent.cli import ode_json, run

from _gen import third_params

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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


ANALYZE, HEUN = ["analyze"], ["heun", "--family", "general", "--params"]
NOT_UTF8 = (b"\xff\xfe{", "cannot read")
# nested past the decoder's depth, which raises RecursionError
TOO_DEEP = (b"[" * 200_000, "invalid JSON in")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "sub, content",
    [(ANALYZE, NOT_UTF8), (HEUN, NOT_UTF8), (ANALYZE, TOO_DEEP), (HEUN, TOO_DEEP)],
    ids=["analyze", "heun", "analyze-nested", "heun-nested"],
)
def test_input_that_is_not_utf8_is_usage_error(tmp_path, capsys, sub, content, fmt):
    data, message = content
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert run([*sub, str(bad), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert f"{message} {bad}" in err and "Traceback" not in err
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "Usage"
    else:
        assert out == ""


# each prints exact integers past Python's default 4,300-digit limit
BIG_INPUTS = {
    # deform multiplies a 2,500-digit coefficient into larger ones
    "deform": '{"coeffs": [["1", "0", "1"], ["3", "1"], ["' + "7" * 2500 + '", "3", "5"]]}',
    # a coefficient written as a bare JSON integer of 5,000 digits
    "analyze": '{"coeffs": [["1", "1"], [' + "9" * 5000 + '], ["1"]]}',
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("sub", sorted(BIG_INPUTS))
def test_results_of_any_size_print_in_full(tmp_path, capsys, sub, fmt):
    path = tmp_path / "big.json"
    path.write_text(BIG_INPUTS[sub])
    limit = sys.get_int_max_str_digits()
    assert run([sub, str(path), "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    assert max(len(m) for m in re.findall(r"\d+", out)) >= 5000
    if fmt == "json":
        assert json.loads(out)["command"] == sub


def test_a_long_string_coefficient_is_analysed(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"coeffs": [["1", "1"], ["9" * 5000], ["1"]]}))
    code, rep = run_json(capsys, ["analyze", str(path), "--format", "json"])
    assert code == 0
    assert rep["ode"]["coeffs"][1] == ["9" * 5000]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_exponent_beyond_the_bound_is_usage_error(tmp_path, capsys, fmt):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"coeffs": [["1", "1"], ["1e2000000"], ["1"]]}))
    start = time.perf_counter()
    assert run(["analyze", str(path), "--format", fmt]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert "decimal exponent beyond 1000" in err
    if fmt == "json":
        assert json.loads(out)["error"]["code"] == "Usage"
    else:
        assert out == ""


@pytest.mark.parametrize(
    "literal, code",
    [("1e1000", 0), ("-25E-1_000", 0), ("1e0001000", 0), ("1e1001", 2), ("1.5e+99999", 2)],
)
def test_exponent_bound_is_inclusive(tmp_path, capsys, literal, code):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"coeffs": [["1", "1"], [literal], ["1"]]}))
    assert run(["analyze", str(path), "--format", "json"]) == code
    capsys.readouterr()
    if code == 2:
        # the same bound holds for option values, before any solving
        code, rep = run_json(capsys, ["polymer", "--b", literal, "--W", "1/4", "--format", "json"])
        assert code == 2 and "--b" in rep["error"]["message"]


# each branch's terms still grow at the 6,400-term cap; the error used to
# come only after the full cap of ever longer integers, 11 s or more
@pytest.mark.parametrize(
    "flags",
    [
        ["--b", "1e100", "--W", "1/4"],
        ["--b", "2", "--W", "1e100"],
        ["--b", "2", "--W", "1/4", "--nu-min", "1e99", "--nu-max", "1e100"],
        ["--b", "1e1000", "--W", "1/4"],
    ],
    ids=["b", "W", "nu", "b-1e1000"],
)
def test_polymer_cost_is_bounded_for_huge_parameters(capsys, flags):
    start = time.perf_counter()
    code, rep = run_json(capsys, ["polymer", *flags, "--format", "json"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert rep["error"]["code"] == "PrecisionExhausted"
    assert rep["error"]["message"] == "series tail not negligible within the term cap"
    assert rep["error"]["details"] == {"order": "6400", "bits": "256", "endpoint": "0"}


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


SWEEP_WITH_WARNING = ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "1/10", "--nu-max", "30",
                      "--count", "3", "--precision-bits", "128", "--grid-points", "48",
                      "--sweep", "1/3,3/10"]


def test_polymer_sweep_text_matches_json(capsys):
    code, rep = run_json(capsys, [*SWEEP_WITH_WARNING, "--format", "json"])
    assert code == 0
    assert [row["W"] for row in rep["sweep"]] == ["1/3", "3/10"]
    for row in rep["sweep"]:
        assert row["T_rel"] == pytest.approx(2 / row["nu_1"], rel=1e-12)
    assert rep["diagnostics"]["warnings"] == ["requested 3 eigenvalues, found 2"]
    assert run([*SWEEP_WITH_WARNING, "--format", "text"]) == 0
    pr = rep["params"]
    want = [
        f"b={pr['b']} W={pr['W']} tau={pr['tau']} (kappa={pr['kappa']})",
        "eigenvalues: " + ", ".join(f"{v:.12g}" for v in rep["eigenvalues"]),
        f"T_rel: {rep['T_rel']:.12g}",
        f"apparent point q at nu_1: {rep['q']:.12g}",
        *(f"  W={r['W']}: nu_1={r['nu_1']:.12g}  T_rel={r['T_rel']:.12g}" for r in rep["sweep"]),
        "warning: requested 3 eigenvalues, found 2",
    ]
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["analyze", "-"], '{"coeffs": [["1"], "2"]}', "list of coefficient lists"),
        (["analyze", "-"], '{"coeffs": "12"}', "list of coefficient lists"),
        (["polymer", "--b", "2", "--W", "1/4", "--nu-min", "7", "--nu-max", "15/2",
          "--grid-points", "2", "--precision-bits", "64", "--csv", "{missing}/out.csv"],
         "", "cannot write"),
    ],
)
def test_malformed_input_and_unwritable_output_are_usage_errors(
        tmp_path, capsys, monkeypatch, argv, text, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, rep = run_json(capsys, [*argv, "--format", "json"])
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert message in rep["error"]["message"]


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


@pytest.mark.parametrize("argv, code, error", [
    (["analyze", "missing.json"], 2, "Usage"),
    (["undeform", "heun.json"], 1, "NothingToRemove"),
    (["undeform", "heun.json", "--multiplicities", "1"], 1, "NothingToRemove"),
])
def test_error_exits_through_the_module_entry_point(heun_file, monkeypatch, capsys,
                                                    argv, code, error):
    # under -m the entry module runs as __main__: the handlers must raise
    # the UsageError class that the dispatcher catches, not a second copy
    monkeypatch.chdir(heun_file.parent)
    argv = [*argv, "--format", "json"]
    assert run(argv) == code
    expected = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "apparent.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert (proc.stdout, proc.stderr) == (expected.out, expected.err)
    assert json.loads(proc.stdout)["error"]["code"] == error


def test_console_script_target_is_callable(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"apparent": "apparent.cli:main"}
    module, attr = scripts["apparent"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["apparent", "--version"])
    assert entry() == 0
    assert capsys.readouterr().out == f"apparent {__version__}\n"


# standard-library modules a happy-path child leaves unloaded: argparse
# (with gettext and locale) is for help and errors, csv for --csv
LAZY_STDLIB = {"argparse", "gettext", "locale", "csv"}
# runs the CLI in a fresh process, then lists the apparent modules and
# the LAZY_STDLIB modules it loaded
MODULE_PROBE = f"""
import sys
from apparent.cli import main
code = main()
print(*(m for m in sys.modules if m.startswith("apparent.") or m in {LAZY_STDLIB!r}),
      file=sys.stderr)
sys.exit(code)
"""
NEVER_IMPORTED = {
    "heun": {"polymer", "transform"},
    "deform": {"polymer", "heun", "frobenius", "_linalg"},
    "analyze": {"polymer", "heun", "transform"},
    "riemann": {"polymer", "heun", "transform"},
    "undeform": {"polymer", "heun"},
    "deform3": {"polymer", "heun", "frobenius", "_linalg"},
    "polymer": {"heun", "transform", "frobenius", "_linalg"},
}


def loaded_in_child(code: str, names) -> set[str]:
    """Those of names that a fresh interpreter has loaded after running code."""
    probe = f"{code}\nimport sys\nprint(*sorted({set(names)!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    return set(proc.stdout.split())


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    from apparent.cli import COMMANDS

    handlers = {f"cli.{command.module}" for command in COMMANDS.values()}
    bare = loaded_in_child("pass", LAZY_STDLIB)
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
        own = f"cli.{COMMANDS[argv[0]].module}"
        assert own in loaded and loaded & handlers == {own}, name
        assert loaded & LAZY_STDLIB <= bare, name


# dataclasses pulls in inspect (and with it ast, dis, tokenize): several
# milliseconds of start-up in every CLI child
HEAVY_STDLIB = {"dataclasses", "inspect"}
API_IMPORTS = "import apparent.cli, " + ", ".join(
    f"apparent.{m}" for m in ("errors", "polyrat", "odemodel", "frobenius", "transform", "heun",
                              "polymer")
)


def test_package_imports_neither_dataclasses_nor_inspect():
    assert loaded_in_child(API_IMPORTS, HEAVY_STDLIB) <= loaded_in_child("pass", HEAVY_STDLIB)


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


def test_polymer_precision_past_the_cap_is_usage_error(monkeypatch, capsys):
    # refused before any solve starts, so 10^11 bits allocate nothing
    from apparent import polymer

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(polymer, "solve_spectrum", no_solve)
    argv = ["polymer", "--b", "2", "--W", "1/4", "--precision-bits", "100000000000",
            "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"] == {"code": "Usage", "details": {},
                            "message": "--precision-bits must be at most 4096, got 100000000000"}
    argv[6] = "4096"
    with pytest.raises(AssertionError, match="a solve started"):
        run(argv)


def test_polymer_grid_past_the_cap_is_usage_error(monkeypatch, capsys):
    # refused before any solve starts, so 10^11 grid points scan nothing
    from apparent import polymer

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(polymer, "solve_spectrum", no_solve)
    argv = ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "0", "--nu-max", "1",
            "--grid-points", "100000000000", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"] == {"code": "Usage", "details": {},
                            "message": "--grid-points must be at most 4096, got 100000000000"}
    argv[10] = "4096"
    with pytest.raises(AssertionError, match="a solve started"):
        run(argv)


def test_deform_iterations_past_the_cap_is_usage_error(heun_file, monkeypatch, capsys):
    # refused before any stage runs
    from apparent import transform

    def no_deform(*args, **kwargs):
        raise AssertionError("a deform started")

    monkeypatch.setattr(transform, "deform_iter", no_deform)
    argv = ["deform", str(heun_file), "--iterations", "33", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"] == {"code": "Usage", "details": {},
                            "message": "--iterations must be at most 32, got 33"}
    argv[3] = "32"
    with pytest.raises(AssertionError, match="a deform started"):
        run(argv)


@pytest.mark.parametrize("text", ["9" * 100_000, "x" * 100_000, "-" + "9" * 4_000],
                         ids=["digits", "letters", "negative"])
def test_long_integer_option_is_named_by_its_length(heun_file, capsys, text):
    # echoing the text would print it twice: on stderr and in the JSON body
    code = run(["deform", str(heun_file), "--iterations", text, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert len(out.encode()) < 1000 and len(err.encode()) < 1000
    assert json.loads(out)["error"]["code"] == "Usage"
    assert f"{len(text)} characters" in err


@pytest.mark.parametrize(
    "argv, flag, value, code, message",
    [
        (["polymer", "--b", "2", "--W", "1/4", "--nu-max", "30"], "--nu-min", "-1/2", 0, None),
        (["polymer", "--b", "2", "--W", "1/4", "--nu-max", "-2e3"], "--nu-min", "-1e3", 2,
         "need --nu-min < --nu-max, got -1000 and -2000"),
        (["polymer", "--b", "2", "--W", "1/4"], "--tau", "-1/2", 2,
         "--tau must be positive, got '-1/2'"),
        (["undeform", "HEUN"], "--targets", "-1/2", 1, "no singularity at -1/2 to remove"),
        (["undeform", "HEUN"], "--targets", "-1/2,3", 1, "no singularity at -1/2 to remove"),
    ],
)
def test_negative_option_value_reads_like_the_attached_form(
    heun_file, capsys, argv, flag, value, code, message
):
    # argparse alone takes "-3" and "-0.25" as values, not "-1/2" or "-1e3"
    argv = [str(heun_file) if a == "HEUN" else a for a in argv]
    for fmt in ("text", "json"):
        run([*argv, f"{flag}={value}", "--format", fmt])
        attached = capsys.readouterr()
        assert run([*argv, flag, value, "--format", fmt]) == code
        assert capsys.readouterr() == attached
    assert json.loads(attached.out).get("error", {}).get("message") == message


def test_polymer_overflowing_t_rel_is_a_domain_error(capsys):
    argv = ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "7", "--nu-max", "15/2",
            "--grid-points", "2", "--tau", "1e1000", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 1
    assert rep["error"]["code"] == "PrecisionExhausted"
    assert rep["error"]["message"] == "T_rel overflows a float"
    assert set(rep["error"]["details"]) == {"nu", "bits"}


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


def test_undeform_slack_past_the_cap_is_usage_error(deformed_heun_file, capsys):
    # slack 32 is accepted; 33 is refused before the equation is read
    argv = ["undeform", str(deformed_heun_file), "--max-slack", "32", "--format", "json"]
    assert run_json(capsys, argv)[0] == 0
    argv[3] = "33"
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"]["code"] == "Usage"
    assert "--max-slack" in rep["error"]["message"] and "32" in rep["error"]["message"]


def test_undeform_multiplicity_past_the_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    # 65, given or read off the exponent gap, is refused before undeform
    # starts, and given before the input is read; 64 is accepted
    from apparent import transform

    def no_undeform(*args, **kwargs):
        raise AssertionError("an undeform started")

    monkeypatch.setattr(transform, "undeform", no_undeform)
    argv = ["undeform", str(tmp_path / "missing.json"), "--multiplicities", "65",
            "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 2
    assert rep["error"] == {"code": "Usage", "details": {},
                            "message": "--multiplicities must be at most 64, got 65"}
    # z(z - 1) w'' - k w' + w = 0 has exponents {0, k + 1} at 1: gap k + 1,
    # so multiplicity k; k = 3999 is the largest gap the exponent cap lets through
    path = tmp_path / "gap.json"
    for k in (65, 3999):
        path.write_text(json.dumps({"coeffs": [["0", "-1", "1"], [str(-k)], ["1"]]}))
        start = time.perf_counter()
        code, rep = run_json(capsys, ["undeform", str(path), "--targets", "1", "--format", "json"])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert rep["error"] == {"code": "Usage", "details": {}, "message": (
            f"the exponent gap at 1 asks for multiplicity {k}; "
            "the command line removes multiplicities up to 64")}
    path.write_text(json.dumps({"coeffs": [["0", "-1", "1"], ["-64"], ["1"]]}))
    for extra in ([], ["--multiplicities", "64"]):
        with pytest.raises(AssertionError, match="an undeform started"):
            run(["undeform", str(path), "--targets", "1", *extra])


def test_format_without_a_value_is_usage_error_without_a_json_body(heun_file, capsys):
    # argparse refuses it, and no --format json was read, so no body follows
    assert run(["analyze", str(heun_file), "--format"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --format: expected one argument\n")


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


def test_riemann_of_an_equation_without_singular_points(tmp_path, capsys):
    # w' = 0: no finite singular point, and infinity is ordinary
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"coeffs": [["1"], ["0"]]}))
    assert run(["riemann", str(path)]) == 0
    assert capsys.readouterr().out == "P(  -  ; z )\n"


def test_riemann_of_irrational_singular_points_is_domain_error(tmp_path, capsys):
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps({"coeffs": [["-2", "0", "1"], ["0"], ["1"]]}))
    code, rep = run_json(capsys, ["riemann", str(path), "--format", "json"])
    assert code == 1
    assert rep["error"]["code"] == "NotFuchsian"
    assert rep["error"]["details"] == {"unresolved_factor": "z^2 - 2"}


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


# third_order_example has exponents {0, 1, 2 + theta2} at 1
WIDE_THIRD = {"t": "3", "alpha": "1/3", "beta": "2/5", "theta3": "1/7", "kappa": "1/2",
              "q": "1/11"}


def wide_gap_argv(tmp_path, command, theta2):
    params = {**WIDE_THIRD, "theta2": theta2}
    if command == "heun":
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        return ["heun", "--family", "third", "--params", str(path), "--format", "json"]
    ode = third_order_example(ThirdOrderParams(**{k: Fraction(v) for k, v in params.items()}))
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"coeffs": ode_json(ode)["coeffs"]}))
    return [command, str(path), "--format", "json"]


@pytest.mark.parametrize("command", ["heun", "analyze", "riemann", "undeform"])
def test_integer_exponent_past_the_cap_is_usage_error(command, tmp_path, monkeypatch, capsys):
    # at theta2 = 1e30 the verdict at 1 would sum 10^30 + 3 terms: refused
    # before any verdict runs, while E = 4000 reaches the verdict
    from apparent import frobenius

    def no_verdict(self):
        raise AssertionError("a verdict started")

    monkeypatch.setattr(frobenius._LocalData, "verdict", property(no_verdict))
    code, rep = run_json(capsys, wide_gap_argv(tmp_path, command, "1e30"))
    assert code == 2
    assert rep["error"] == {
        "code": "Usage", "details": {},
        "message": "an integer exponent at 1 exceeds 4000; "
                   "the command line decides apparency only up to that exponent",
    }
    code, rep = run_json(capsys, wide_gap_argv(tmp_path, command, "3999"))
    assert code == 2 and "exceeds 4000" in rep["error"]["message"]
    with pytest.raises(AssertionError, match="a verdict started"):
        run(wide_gap_argv(tmp_path, command, "3998"))


def test_largest_accepted_integer_exponent_is_decided(tmp_path, capsys):
    code, rep = run_json(capsys, wide_gap_argv(tmp_path, "heun", "3998"))
    assert code == 0
    at_one = rep["singular_points"][1]
    assert at_one == {"location": "1", "kind": "RegularSingular", "exponents": ["0", "1", "4000"]}


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format=json"], ["--form", "json"],
                                 ["--fo=json"], ["--format", "text"], []])
@pytest.mark.parametrize(
    "argv",
    [
        ["polymer", "--b", "2", "--W", "1/4", "--count", "x"],  # argparse's int type once
        ["deform", "HEUN", "--bogus", "1"],
        ["heun", "--family", "nope", "--params", "-"],
        ["polymer", "--W", "1/4"],
        ["undeform", "HEUN", "--max-slack"],
        ["deform", "HEUN", "--iterations", "0"],
    ],
)
def test_every_usage_error_prints_its_json_body(heun_file, capsys, argv, fmt):
    argv = [str(heun_file) if a == "HEUN" else a for a in argv]
    assert run([*argv, *fmt]) == 2
    out, err = capsys.readouterr()
    if "json" not in "".join(fmt):
        assert out == ""
        return
    body = json.loads(out)
    assert body["error"]["code"] == "Usage" and body["error"]["details"] == {}
    assert err.endswith(f"error: {body['error']['message']}\n")


def test_polymer_q_uses_the_exact_parameters(capsys):
    # kappa = 3/5 has no exact float: rounding it first moved q's last digit
    from apparent.polymer import apparent_location

    argv = ["polymer", "--b", "2", "--W", "3/10", "--nu-min", "1/10", "--format", "json"]
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["params"]["kappa"] == "3/5"
    nu1 = rep["eigenvalues"][0]
    assert rep["q"] == float(apparent_location(Fraction(2), Fraction(3, 5), nu1))
