"""The four benchmark workloads: inputs, ops and output checks.

A workload turns a seed into a fixed list of ops.  Each op is one call
sequence a closed-loop client makes (one op in flight at a time); its
``run`` is what gets timed, and its ``check`` looks at the output
afterwards and returns a failure message or None.

Three workloads draw their inputs from a fixed pool, generated from a
constant pool seed, and use the run seed only to order the ops.  Their
costs are heavy-tailed (one multi-point equation in 150 took 2.3 s of
root search; one deform stage-4 in 26 took 15.7 s), so fresh draws per
seed would swing every figure by more than any bound worth having.  The
CLI workload draws fresh parameters from the run seed, because process
start-up dominates its cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# calls go through the package namespace, where the tracer installs its
# wrappers; names imported with `from apparent import ...` would bypass them
import apparent as ap

import gen

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    """Ops for one seed plus what the traced run must see fire."""

    name: str
    ops: list[Op]
    expected: tuple[str, ...]
    tail_pct: float | None  # None: report the max
    layer_metrics: Callable[[list[tuple[Op, float, object]]], dict] = lambda _done: {}
    cli_peak: list[int] = field(default_factory=list)  # children's maxrss, KiB
    min_passes: int = 1


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# ------------------------------------------------------------ family_roundtrip

FAMILY_POOL_BLOCKS = 14
# one block: two general Heun, one 5-point, one third-order, one confluent
FAMILY_BLOCK = ("general", "general", "multi5", "third", "confluent")
FUCHSIAN = {"general", "multi5", "third"}
# looked up on the package at call time, so the tracer's wrappers are seen
BUILD = {
    "general": "general_heun",
    "multi5": "multi_heun",
    "third": "third_order_example",
    "confluent": "confluent_heun",
}


def family_pool() -> list[tuple[str, object]]:
    rng = random.Random("family_roundtrip/pool")
    return [(fam, gen.family_params(rng, fam))
            for _ in range(FAMILY_POOL_BLOCKS) for fam in FAMILY_BLOCK]


def roundtrip(family: str, params):
    """build -> deform -> fuchs_check -> riemann_symbol -> undeform.

    The planted points are also certified one by one: is_apparent at
    every order, and for order 2 a log-free Frobenius series through
    the resonance.
    """
    x = getattr(ap, BUILD[family])(params)
    d = ap.deform(x)
    report = ap.fuchs_check(d.ode)
    symbol = ap.riemann_symbol(d.ode) if family in FUCHSIAN else None
    verdicts = [ap.is_apparent(d.ode, q).is_apparent for q, _gap in d.new_apparent]
    series = []
    if d.ode.order == 2:
        series = [ap.frobenius_series(d.ode, q, 0, gap + 1).log_free for q, gap in d.new_apparent]
    back = ap.undeform(d.ode)
    return x, d, report, symbol, verdicts, series, back


def check_roundtrip(family: str, out) -> str | None:
    x, d, report, symbol, verdicts, series, back = out
    if back.ode != x:
        return "undeform(deform(x)).ode != x"
    if family in FUCHSIAN:
        if not (report.is_fuchsian and report.identity_holds):
            return "Fuchs identity does not hold"
        if {loc for loc, role in symbol.apparent_params if role == "apparent"} != {
            q for q, _gap in d.new_apparent
        }:
            return "Riemann symbol does not list the planted points as apparent"
    elif report.is_fuchsian:
        return "confluent equation reported Fuchsian"
    kinds = {sp.location: sp.kind for sp in report.points}
    if not d.new_apparent:
        return "deform planted no point"
    if any(kinds.get(q) is not ap.PointKind.APPARENT for q, _gap in d.new_apparent):
        return "a planted point is not reported apparent"
    if not all(verdicts) or not all(series):
        return "a planted point failed its local certificate"
    return None


def family_roundtrip(seed: int) -> Workload:
    pool = family_pool()
    random.Random(f"family_roundtrip:{seed}").shuffle(pool)
    ops = [
        Op(fam, lambda fam=fam, p=p: roundtrip(fam, p), lambda out, fam=fam: check_roundtrip(fam, out))
        for fam, p in pool
    ]
    # warm-up input, drawn apart from the pool
    warm = gen.heun_params(random.Random("family_roundtrip/warmup"))
    check_roundtrip("general", roundtrip("general", warm))
    return Workload(
        name="family_roundtrip",
        ops=ops,
        expected=(
            "polyrat.rational_roots", "polyrat.RatPoly.shifted", "polyrat.radical",
            "polyrat.exact_div",
            "frobenius.classify_point", "frobenius.indicial_exponents",
            "frobenius.indicial_polynomial", "frobenius.is_apparent",
            "frobenius.frobenius_series",
            "odemodel.singular_points", "odemodel.fuchs_check", "odemodel.riemann_symbol",
            "odemodel.moebius_transform", "odemodel.make_ode",
            "transform.deform", "transform.undeform",
            "linalg.nullspace_basis",
            "heun.general_heun", "heun.multi_heun", "heun.third_order_example",
            "heun.confluent_heun",
        ),
        tail_pct=85.0,  # ten of the 70 ops lie beyond it
    )


# --------------------------------------------------------------- deform_ladder

LADDER_POOL = 24
LADDER_STAGES = 4  # stage 5 already ran 51 s on one pool draw


def ladder_pool() -> list:
    rng = random.Random("deform_ladder/pool")
    return [ap.general_heun(gen.heun_params(rng)) for _ in range(LADDER_POOL)]


def stage_digest(res) -> str:
    """Digest of one deform stage's exact output."""
    text = json.dumps(
        {
            "ode": [[str(c) for c in p.coeffs] for p in res.ode.coeffs],
            "new_apparent": [[str(q), str(g)] for q, g in res.new_apparent],
            "clearing_factor": [str(c) for c in res.clearing_factor.coeffs],
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def ladder_chain(base, index: int, digests: list[str]) -> list[Op]:
    """One op per stage; stage k consumes stage k-1's output."""
    state: dict[int, object] = {}

    def run_stage(k: int):
        if k == 1:
            state.clear()
            res = ap.deform(base)
            back = ap.undeform(res.ode)
            state[1] = res.ode
            return res, back
        if k - 1 not in state:
            raise RuntimeError(f"stage {k - 1} of chain {index} did not complete")
        res = ap.deform(state[k - 1])
        state[k] = res.ode
        return res, None

    def check_stage(k: int, out) -> str | None:
        res, back = out
        if k == 1 and back.ode != base:
            return f"chain {index}: stage 1 does not round-trip through undeform"
        if stage_digest(res) != digests[k - 1]:
            return f"chain {index}: stage {k} digest differs from the reference"
        return None

    return [
        Op(f"stage{k}", lambda k=k: run_stage(k), lambda out, k=k: check_stage(k, out))
        for k in range(1, LADDER_STAGES + 1)
    ]


def deform_ladder(seed: int, reference: dict) -> Workload:
    pool = ladder_pool()
    digests = reference["deform_ladder"]
    order = list(range(len(pool)))
    random.Random(f"deform_ladder:{seed}").shuffle(order)
    ops = [op for i in order for op in ladder_chain(pool[i], i, digests[i])]
    ap.deform(ap.general_heun(gen.heun_params(random.Random("deform_ladder/warmup"))))
    return Workload(
        name="deform_ladder",
        ops=ops,
        expected=(
            "polyrat.rational_roots", "polyrat.radical", "polyrat.exact_div",
            "odemodel.make_ode", "transform.deform", "transform.undeform",
        ),
        # the top samples come from a handful of stage-4 ops two passes
        # repeat, so a high percentile jumps between ops; the max does not
        tail_pct=None,
    )


# ------------------------------------------------------------ polymer_spectrum

# (b, W, nu_min, nu_max, count, keyword arguments)
POLYMER_SOLVES = (
    ("100", "1/4", "1", "60", 1, {}),
    ("100", "7/20", "1", "60", 1, {}),
    ("100", "9/20", "1", "60", 1, {}),
    ("2", "1/4", "1/10", "30", 2,
     {"precision_bits": 128, "series_order": 120, "grid_points": 48}),
)
EIGEN_RTOL = 1e-8


def solve_key(spec) -> str:
    return f"b{spec[0]}_W{spec[1]}"


def solve(spec):
    b, w, lo, hi, count, kwargs = spec
    p = ap.PolymerParams(b=Fraction(b), W=Fraction(w))
    return p, ap.solve_spectrum(p, Fraction(lo), Fraction(hi), count, **kwargs)


def _check_eigen(found, expected) -> str | None:
    if len(found) != len(expected):
        return f"found {len(found)} eigenvalues, expected {len(expected)}"
    for got, want in zip(found, expected):
        if abs(got - want) > EIGEN_RTOL * abs(want):
            return f"eigenvalue {got!r} differs from reference {want!r}"
    return None


def polymer_layers(done) -> dict:
    """Work counts of one traced pass, plus one timed mismatch evaluation."""
    solved = {op.kind: out for op, _lat, out in done}
    results = [res for _p, res in solved.values()]
    out = {
        "polymer.series_order": max(r.series_order for r in results),
        "polymer.precision_bits": max(r.precision_bits for r in results),
        "polymer.scan_points": sum(len(r.wronskian_samples) for r in results),
    }
    # at the final order and bits of the first criterion-9 solve
    p, res = solved[solve_key(POLYMER_SOLVES[0])]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        ap.wronskian_mismatch(p, res.eigenvalues[0],
                              precision_bits=res.precision_bits, series_order=res.series_order)
        times.append(time.perf_counter() - t0)
    out["polymer.wronskian_mismatch_ms"] = statistics.median(times) * 1e3
    return out


def polymer_spectrum(seed: int, reference: dict) -> Workload:
    expected = reference["polymer_spectrum"]
    specs = list(POLYMER_SOLVES)
    random.Random(f"polymer_spectrum:{seed}").shuffle(specs)
    ops = []
    for spec in specs:
        key = solve_key(spec)
        ops.append(Op(key, lambda spec=spec: solve(spec),
                      lambda out, key=key: _check_eigen(out[1].eigenvalues, expected[key])))
    ap.wronskian_mismatch(ap.PolymerParams(b=2, W=Fraction(1, 4)), 5, precision_bits=128, series_order=120)
    return Workload(
        name="polymer_spectrum",
        ops=ops,
        expected=("polymer.solve_spectrum",),
        tail_pct=None,
        layer_metrics=polymer_layers,
    )


# ---------------------------------------------------------------- cli_pipeline

CLI_PIPELINES = 4
SUBCOMMANDS = ("heun", "deform", "analyze", "riemann", "undeform", "deform3", "polymer")
# the cheapest solve that passes its own tail check (order 70 at 64 bits)
# and still bisects to 1e-10; its reference is the b=2 spectrum
CLI_POLYMER = ["polymer", "--b", "2", "--W", "1/4", "--nu-min", "7", "--nu-max", "15/2",
               "--grid-points", "2", "--precision-bits", "64", "--series-order", "70"]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli(root: Path, argv: list[str], out_path: Path, peak: list[int]) -> int:
    """One `apparent` invocation, stdout to out_path; returns the exit code.

    The child is reaped with wait4 so its own peak RSS is recorded.
    """
    with open(out_path, "wb") as out, open(os.devnull, "rb") as devnull:
        proc = subprocess.Popen(
            [sys.executable, "-m", "apparent.cli", *argv],
            cwd=root, env=cli_env(root), stdin=devnull, stdout=out, stderr=subprocess.DEVNULL,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak.append(usage.ru_maxrss)
    return proc.returncode


def cli_pipeline(seed: int, workdir: Path, reference: dict, root: Path) -> Workload:
    rng = random.Random(f"cli_pipeline:{seed}")
    nu_ref = reference["polymer_spectrum"]["b2_W1/4"][0]
    peak: list[int] = []
    seen: dict[str, bytes] = {}
    ops = []
    for i in range(CLI_PIPELINES):
        p = gen.heun_params(rng)
        d = workdir / f"p{i}"
        d.mkdir(parents=True, exist_ok=True)
        params = {k: str(getattr(p, k)) for k in
                  ("t", "theta1", "theta2", "theta3", "theta_inf", "alpha", "q")}
        (d / "params.json").write_text(json.dumps(params), encoding="utf-8")
        steps = {
            "heun": ["heun", "--family", "general", "--params", str(d / "params.json")],
            "deform": ["deform", str(d / "heun.json")],
            "analyze": ["analyze", str(d / "deform.json")],
            "riemann": ["riemann", str(d / "deform.json")],
            "undeform": ["undeform", str(d / "deform.json")],
            "deform3": ["deform", str(d / "heun.json"), "--iterations", "3"],
            "polymer": CLI_POLYMER,
        }
        for sub in SUBCOMMANDS:
            out_path = d / f"{sub}.json"
            key = f"{i}/{sub}"
            argv = steps[sub] + ["--format", "json"]
            ops.append(Op(
                f"cli.{sub}",
                lambda argv=argv, out_path=out_path: (run_cli(root, argv, out_path, peak), out_path),
                lambda out, sub=sub, key=key, d=d, q=p.q: check_cli(out, sub, key, d, q, seen, nu_ref),
            ))
    run_cli(root, ["--version"], workdir / "version.txt", [])
    return Workload(
        name="cli_pipeline",
        ops=ops,
        layer_metrics=cli_layers,
        expected=tuple(f"cli.{sub}" for sub in SUBCOMMANDS),
        # one op in seven is the slowest (`polymer`), so any percentile
        # near the top sits on the edge of that group; the max does not
        tail_pct=None,
        cli_peak=peak,
        min_passes=2,  # so every invocation's JSON is compared with a repeat
    )


def check_cli(out, sub, key, d: Path, q, seen: dict, nu_ref: float) -> str | None:
    code, path = out
    if code != 0:
        return f"{key}: exit code {code}"
    raw = path.read_bytes()
    if key in seen and seen[key] != raw:
        return f"{key}: repeated invocation changed its JSON"
    seen.setdefault(key, raw)
    try:
        rep = json.loads(raw)
    except json.JSONDecodeError:
        return f"{key}: output is not JSON"
    if rep.get("schema") != "apparent/v1":
        return f"{key}: schema is {rep.get('schema')!r}"
    if rep.get("command") != ("deform" if sub == "deform3" else sub):
        return f"{key}: command is {rep.get('command')!r}"
    if sub == "deform" and [e["location"] for e in rep["new_apparent"]] != [str(q)]:
        return f"{key}: planted points {rep['new_apparent']}"
    if sub == "analyze" and not rep["fuchs"]["identity_holds"]:
        return f"{key}: Fuchs identity does not hold"
    if sub == "undeform":
        heun = json.loads((d / "heun.json").read_bytes())
        if rep["ode"] != heun["ode"]:
            return f"{key}: undeform does not give back the heun equation"
    if sub == "deform3":
        one = json.loads((d / "deform.json").read_bytes())
        if len(rep["stages"]) != 3 or rep["stages"][0]["ode"] != one["ode"]:
            return f"{key}: stage 1 of --iterations 3 differs from deform"
    if sub == "polymer":
        return _check_eigen(rep["eigenvalues"], [nu_ref])
    return None


def cli_layers(done) -> dict:
    """Median wall time of each subcommand's invocations."""
    by_kind: dict[str, list[float]] = {}
    for op, lat, _out in done:
        by_kind.setdefault(op.kind, []).append(lat)
    return {f"{kind}_ms": statistics.median(lats) * 1e3 for kind, lats in by_kind.items()}


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    if name == "family_roundtrip":
        return family_roundtrip(seed)
    reference = load_reference()
    if name == "deform_ladder":
        return deform_ladder(seed, reference)
    if name == "polymer_spectrum":
        return polymer_spectrum(seed, reference)
    if name == "cli_pipeline":
        return cli_pipeline(seed, workdir, reference, root)
    raise KeyError(name)


WORKLOADS = ("family_roundtrip", "deform_ladder", "polymer_spectrum", "cli_pipeline")
