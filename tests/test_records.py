"""The sixteen record classes: immutable, compared by value, stable repr.

Fifteen are NamedTuples and LinearODE is a plain class.  The pinned
reprs keep the `Name(field=value, ...)` text that callers who log or
diff records read; the CLI and the golden files depend on none of them.
"""

import copy
import pickle
import re
import typing
from decimal import Decimal
from fractions import Fraction as F

import pytest

from apparent import (
    INFINITY,
    ApparentVerdict,
    ConfluentHeunParams,
    DeformResult,
    FrobeniusSolution,
    FuchsReport,
    HeunParams,
    IndicialExponents,
    MultiHeunParams,
    PointKind,
    PolymerParams,
    RatPoly,
    RiemannSymbol,
    SingularPoint,
    SpectralResult,
    ThirdOrderParams,
    UndeformResult,
    general_heun,
    make_ode,
    singular_points,
)
from apparent.cli import _FAMILIES
from apparent.polymer import _Branch


def _ode():
    return make_ode([[0, -3, 2, 1], [1, 1], [-5, 1]])


def _point():
    return SingularPoint(F(1, 2), PointKind.REGULAR, (F(0), F(1, 3)))


def _column():
    return IndicialExponents(INFINITY, (F(1, 7),), RatPoly([1, 0, 1]))


# one fixed instance per class, built afresh on each call
BUILD = {
    "LinearODE": _ode,
    "SingularPoint": _point,
    "RiemannSymbol": lambda: RiemannSymbol((_column(),), ((F(5), "apparent"),)),
    "FuchsReport": lambda: FuchsReport(True, (_point(),), F(1), F(1), None),
    "IndicialExponents": _column,
    "FrobeniusSolution": lambda: FrobeniusSolution(F(0), F(0), (F(1), F(-1, 2)), 2, ((1, F(0)),)),
    "ApparentVerdict": lambda: ApparentVerdict(True, (F(0), F(2)), None, 2),
    "DeformResult": lambda: DeformResult(_ode(), ((F(5), 2),), RatPoly([-5, 1])),
    "UndeformResult": lambda: UndeformResult(_ode(), (F(5),)),
    "SpectralResult": lambda: SpectralResult((7.25,), 0.5, ((7.0, -0.5),), 70, 64, 3),
    "_Branch": lambda: _Branch(1, -2, 64, 30, 64, 3),
    "HeunParams": lambda: HeunParams("3", "1/2", "1/3", "1/5", "1/7", "173/210", 5),
    "MultiHeunParams": lambda: MultiHeunParams(
        (0, 1, 3, -2), ("1/2", 0.5, 2, "1/3"), "1/7", 1, (5, "1/9")
    ),
    "ThirdOrderParams": lambda: ThirdOrderParams(3, "1/2", "1/3", 2, "1/5", "-1/4", 5),
    "ConfluentHeunParams": lambda: ConfluentHeunParams([0, 1], [1, 0, 1], 2, "1/3"),
    "PolymerParams": lambda: PolymerParams(2, "1/4"),
}

_LINEAR_ODE = "LinearODE([z^3 + 2*z^2 - 3*z, z + 1, z - 5])"
_SINGULAR_POINT = (
    "SingularPoint(location=Fraction(1, 2), kind=<PointKind.REGULAR: 'RegularSingular'>, "
    "exponents=(Fraction(0, 1), Fraction(1, 3)), residual=None)"
)
_COLUMN = (
    "IndicialExponents(location=Infinity, exponents=(Fraction(1, 7),), "
    "residual=RatPoly(z^2 + 1))"
)
REPRS = {
    "LinearODE": _LINEAR_ODE,
    "SingularPoint": _SINGULAR_POINT,
    "RiemannSymbol": (
        f"RiemannSymbol(columns=({_COLUMN},), apparent_params=((Fraction(5, 1), 'apparent'),))"
    ),
    "FuchsReport": (
        f"FuchsReport(is_fuchsian=True, points=({_SINGULAR_POINT},), "
        "exponent_sum=Fraction(1, 1), expected_sum=Fraction(1, 1), unresolved_factor=None)"
    ),
    "IndicialExponents": _COLUMN,
    "FrobeniusSolution": (
        "FrobeniusSolution(point=Fraction(0, 1), exponent=Fraction(0, 1), "
        "coeffs=(Fraction(1, 1), Fraction(-1, 2)), truncation=2, "
        "obstructions=((1, Fraction(0, 1)),))"
    ),
    "ApparentVerdict": (
        "ApparentVerdict(is_apparent=True, exponents=(Fraction(0, 1), Fraction(2, 1)), "
        "failed_condition=None, holomorphic_dim=2)"
    ),
    "DeformResult": (
        f"DeformResult(ode={_LINEAR_ODE}, new_apparent=((Fraction(5, 1), 2),), "
        "clearing_factor=RatPoly(z - 5))"
    ),
    "UndeformResult": (
        f"UndeformResult(ode={_LINEAR_ODE}, removed_points=(Fraction(5, 1),))"
    ),
    "SpectralResult": (
        "SpectralResult(eigenvalues=(7.25,), t_rel=0.5, wronskian_samples=((7.0, -0.5),), "
        "series_order=70, precision_bits=64, evaluations=3, warnings=())"
    ),
    "_Branch": "_Branch(w=1, dw=-2, frac_bits=64, terms=30, bits=64, lost=3)",
    "HeunParams": (
        "HeunParams(t=Fraction(3, 1), theta1=Fraction(1, 2), theta2=Fraction(1, 3), "
        "theta3=Fraction(1, 5), theta_inf=Fraction(1, 7), alpha=Fraction(173, 210), "
        "q=Fraction(5, 1))"
    ),
    "MultiHeunParams": (
        "MultiHeunParams(zs=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 1), Fraction(-2, 1)), "
        "thetas=(Fraction(1, 2), Fraction(1, 2), Fraction(2, 1), Fraction(1, 3)), "
        "theta_inf=Fraction(1, 7), alpha=Fraction(1, 1), qs=(Fraction(5, 1), Fraction(1, 9)))"
    ),
    "ThirdOrderParams": (
        "ThirdOrderParams(t=Fraction(3, 1), alpha=Fraction(1, 2), beta=Fraction(1, 3), "
        "theta2=Fraction(2, 1), theta3=Fraction(1, 5), kappa=Fraction(-1, 4), q=Fraction(5, 1))"
    ),
    "ConfluentHeunParams": (
        "ConfluentHeunParams(p0=RatPoly(z), p1=RatPoly(z^2 + 1), alpha=Fraction(2, 1), "
        "q=Fraction(1, 3))"
    ),
    "PolymerParams": "PolymerParams(b=Fraction(2, 1), W=Fraction(1, 4), tau=Fraction(1, 1))",
}

NAMES = sorted(BUILD)


def _first_field(name: str) -> str:
    found = re.match(r"\w+\((\w+)=", REPRS[name])
    return found[1] if found else "coeffs"


def _changed(record):
    """The record with one field set to a different value."""
    if hasattr(record, "_replace"):
        return record._replace(**{record._fields[-1]: "other"})
    return make_ode([[0, 1], [1]])


def test_the_sixteen_classes_are_pinned():
    assert len(BUILD) == len(REPRS) == 16
    assert {type(BUILD[name]()).__name__ for name in NAMES} == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_record_is_frozen(name):
    record = BUILD[name]()
    field = _first_field(name)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_go_by_value(name):
    a, b = BUILD[name](), BUILD[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != _changed(a)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(BUILD[name]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    record = BUILD[name]()
    again = clone(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == REPRS[name]


def _values(record) -> list:
    return [getattr(record, name) for name in typing.get_type_hints(type(record))]


@pytest.mark.parametrize("value", ["3/16", Decimal("0.1875"), 0.1875, 3], ids=repr)
def test_parameter_records_convert_their_inputs(value):
    exact = F(3, 16) if value != 3 else F(3)
    rec = HeunParams(value, value, value, value, value, value, value)
    assert all(type(v) is F and v == exact for v in _values(rec))
    rec = ThirdOrderParams(value, value, value, value, value, value, value)
    assert all(type(v) is F and v == exact for v in _values(rec))
    rec = MultiHeunParams((value, 0, 1), (value,) * 3, value, value, [value])
    assert rec.zs == (exact, F(0), F(1)) and rec.thetas == (exact,) * 3 and rec.qs == (exact,)
    assert all(type(v) is F for v in (*rec.zs, *rec.thetas, *rec.qs, rec.theta_inf, rec.alpha))
    rec = ConfluentHeunParams(RatPoly([1]), RatPoly([0, 0, 1]), value, value)
    assert type(rec.alpha) is F and rec.alpha == rec.q == exact
    rec = PolymerParams(value, value, value)
    assert all(type(v) is F and v == exact for v in _values(rec))
    assert rec.kappa == exact * exact


def test_floats_convert_by_their_exact_binary_value():
    assert HeunParams(0.1, 0, 0, 0, 0, 0, 0).t == F(0.1) != F(1, 10)
    assert PolymerParams(0.1, 1).b == F(0.1)


def test_confluent_params_turn_lists_into_polynomials():
    rec = ConfluentHeunParams([0, 1], (1, 0, 1), 2, 3)
    assert type(rec.p0) is RatPoly and rec.p0 == RatPoly([0, 1])
    assert type(rec.p1) is RatPoly and rec.p1 == RatPoly([1, 0, 1])
    poly = RatPoly([1, 2])
    assert ConfluentHeunParams(poly, poly, 1, 1).p0 is poly


@pytest.mark.parametrize(
    "args, message",
    [
        (((0, 1, 3), (1, 2), 1, 1, (5,)),
         "'thetas' needs one entry per point of 'zs': 3 points, 2 thetas"),
        (((0, 1, 3, 4), (1, 2, 3, 4), 1, 1, (5,)),
         "'qs' needs len(zs) - 2 = 2 accessory locations, got 1"),
    ],
)
def test_multi_heun_params_check_list_lengths(args, message):
    with pytest.raises(ValueError) as info:
        MultiHeunParams(*args)
    assert str(info.value) == message


def test_multi_heun_params_with_fewer_than_three_points_pass_to_the_constructor():
    assert MultiHeunParams((0, 1), (1, 2), 1, 1, ()).m == 2


@pytest.mark.parametrize("args", [(0, 1), (1, 0), (1, 1, 0), (-1, 1), (1, 1, "-1/2")])
def test_polymer_params_must_be_positive(args):
    with pytest.raises(ValueError, match=r"^b, W, tau must all be positive$"):
        PolymerParams(*args)


def test_heun_records_give_the_cli_their_field_names_and_kinds():
    from apparent import heun

    fractions = tuple[F, ...]
    expected = {
        "HeunParams": [("t", F), ("theta1", F), ("theta2", F), ("theta3", F),
                       ("theta_inf", F), ("alpha", F), ("q", F)],
        "MultiHeunParams": [("zs", fractions), ("thetas", fractions), ("theta_inf", F),
                            ("alpha", F), ("qs", fractions)],
        "ThirdOrderParams": [("t", F), ("alpha", F), ("beta", F), ("theta2", F),
                             ("theta3", F), ("kappa", F), ("q", F)],
        "ConfluentHeunParams": [("p0", RatPoly), ("p1", RatPoly), ("alpha", F), ("q", F)],
    }
    assert sorted(name for name, _construct in _FAMILIES.values()) == sorted(expected)
    for name, fields in expected.items():
        assert list(typing.get_type_hints(getattr(heun, name)).items()) == fields


def test_linear_ode_memo_stays_out_of_eq_hash_and_repr():
    fresh = general_heun(HeunParams(3, "1/2", "1/3", "1/5", "1/7", "173/210", 5))
    used = make_ode(fresh.coeffs)
    singular_points(used)
    assert used._memo and not fresh._memo
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
