"""Exact tools for apparent singularities of linear ODEs.

Build Heun-class equations with rational parameters, analyze their
singular points and Riemann symbols, generate apparent singularities by
the derivative transform, remove them again by inverse differentiation,
and solve the polymer coil-stretch spectral problem numerically.

`import apparent` loads no submodule, so `python -m apparent.cli <sub>`
pays only for the modules that `<sub>` runs: the `cli` dispatcher, the
handler module of `<sub>` and the API modules it calls.  argparse loads
only for help, errors and lines that are not plain (see `cli`),
`frobenius` and `_linalg` not for `deform`, and `csv` only for
`polymer --csv`.  A child's start-up is then the interpreter with
`site`, plus loading those modules, which means compiling them from
source when bytecode is not written (PYTHONDONTWRITEBYTECODE=1).  The
records are `typing.NamedTuple`s and the dispatcher imports `typing`
anyway, so they add no standard-library import to a child.  The first lookup of a
name in `__all__` imports all seven API modules at once and binds every
public name here.  The load is all-at-once rather than per name because
code that patches the package from outside, such as the benchmark's
span tracer, expects every API module to be loaded and every public
name to be bound in this namespace once any one of them is.
"""

# the public API, by the module that defines each name
_API = {
    "errors": (
        "AlreadyIntegratedError", "ApparentError", "BothZeroError",
        "DegenerateApparentPointError", "DegenerateGeometryError",
        "DegenerateLeadingError", "FuchsianIdentityError", "IrregularPointError",
        "NoEigenvalueInWindowError", "NotAnExponentError", "NotAnODEError",
        "NotConfluentClassError", "NotFuchsianError", "NothingToRemoveError",
        "NotRemovableError", "NotSingularError", "PrecisionExhaustedError",
        "SingularMoebiusError", "ZeroPolynomialError",
    ),
    "polyrat": ("RatPoly", "as_fraction", "exact_div", "radical", "rational_roots"),
    "odemodel": (
        "INFINITY", "FuchsReport", "LinearODE", "PointKind", "RiemannSymbol", "SingularPoint",
        "fuchs_check", "make_ode", "moebius_transform", "riemann_symbol", "singular_points",
    ),
    "frobenius": (
        "ApparentVerdict", "FrobeniusSolution", "IndicialExponents", "classify_point",
        "frobenius_series", "indicial_exponents", "indicial_polynomial", "is_apparent",
    ),
    "transform": ("DeformResult", "UndeformResult", "deform", "deform_iter", "undeform"),
    "heun": (
        "ConfluentHeunParams", "HeunParams", "MultiHeunParams", "ThirdOrderParams",
        "confluent_heun", "general_heun", "multi_heun", "third_order_example",
    ),
    "polymer": (
        "PolymerParams", "SpectralResult", "apparent_location", "eigenfunction_samples",
        "polymer_deformed", "polymer_ode", "solve_spectrum", "wronskian_mismatch",
    ),
}

__version__ = "0.1.0"

APPARENT_SCHEMA = "apparent/v1"

__all__ = ["APPARENT_SCHEMA", *(name for names in _API.values() for name in names)]


def _load_api() -> None:
    from importlib import import_module

    namespace = globals()
    for module, names in _API.items():
        mod = import_module(f".{module}", __name__)
        for name in names:
            namespace[name] = getattr(mod, name)


def __getattr__(name: str):
    # only public names load the API: `from . import odemodel` looks up
    # "odemodel" here first and must fall through to the submodule import
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_api()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
