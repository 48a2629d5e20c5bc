"""Exact tools for apparent singularities of linear ODEs.

Build Heun-class equations with rational parameters, analyze their
singular points and Riemann symbols, generate apparent singularities by
the derivative transform, remove them again by inverse differentiation,
and solve the polymer coil-stretch spectral problem numerically.

`import apparent` loads no submodule, so `python -m apparent.cli <sub>`
pays only for the modules that `<sub>` runs.  The first lookup of a name
in `__all__` imports all seven API modules at once and binds every
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
    "polyrat": (
        "RatPoly", "as_fraction", "exact_div", "poly_derivative", "poly_gcd", "radical",
        "rational_roots",
    ),
    "odemodel": (
        "INFINITY", "FuchsReport", "LinearODE", "PointKind", "RiemannSymbol",
        "SingularPoint", "fuchs_check", "leading_residual", "make_ode",
        "moebius_transform", "riemann_symbol", "singular_points",
    ),
    "frobenius": (
        "ApparentVerdict", "FrobeniusSolution", "IndicialExponents", "classify_point",
        "frobenius_series", "indicial_exponents", "indicial_polynomial", "is_apparent",
        "substitution_rows",
    ),
    "transform": (
        "DeformResult", "UndeformResult", "deform", "deform_iter", "undeform",
    ),
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

__all__ = [
    "APPARENT_SCHEMA",
    "AlreadyIntegratedError",
    "ApparentError",
    "ApparentVerdict",
    "BothZeroError",
    "ConfluentHeunParams",
    "DeformResult",
    "DegenerateApparentPointError",
    "DegenerateGeometryError",
    "DegenerateLeadingError",
    "FrobeniusSolution",
    "FuchsReport",
    "FuchsianIdentityError",
    "HeunParams",
    "INFINITY",
    "IndicialExponents",
    "IrregularPointError",
    "LinearODE",
    "MultiHeunParams",
    "NoEigenvalueInWindowError",
    "NotAnExponentError",
    "NotAnODEError",
    "NotConfluentClassError",
    "NotFuchsianError",
    "NothingToRemoveError",
    "NotRemovableError",
    "NotSingularError",
    "PointKind",
    "PolymerParams",
    "PrecisionExhaustedError",
    "RatPoly",
    "RiemannSymbol",
    "SingularMoebiusError",
    "SingularPoint",
    "SpectralResult",
    "ThirdOrderParams",
    "UndeformResult",
    "ZeroPolynomialError",
    "apparent_location",
    "as_fraction",
    "classify_point",
    "confluent_heun",
    "deform",
    "deform_iter",
    "eigenfunction_samples",
    "exact_div",
    "frobenius_series",
    "fuchs_check",
    "general_heun",
    "indicial_exponents",
    "indicial_polynomial",
    "is_apparent",
    "leading_residual",
    "make_ode",
    "moebius_transform",
    "multi_heun",
    "poly_derivative",
    "poly_gcd",
    "polymer_deformed",
    "polymer_ode",
    "radical",
    "rational_roots",
    "riemann_symbol",
    "singular_points",
    "solve_spectrum",
    "substitution_rows",
    "third_order_example",
    "undeform",
    "wronskian_mismatch",
]

APPARENT_SCHEMA = "apparent/v1"


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
