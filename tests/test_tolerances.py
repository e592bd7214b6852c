"""Thresholds are named constants of one module, never parameters."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import wovenframes
from wovenframes import (
    BoundsReport,
    FusionFrame,
    Subspace,
    WovenFamily,
    fusion_bounds,
    woven_bounds_exhaustive,
)
from wovenframes.weaving import contribution_stacks, woven_bounds_from_contributions

from helpers import basis_vec, ex3_2_frames

SRC = pathlib.Path(wovenframes.__file__).parent


def _callables(obj, name):
    """``obj`` itself when it is a function, else the functions,
    classmethods and staticmethods a class defines."""
    if inspect.isfunction(obj):
        return [(name, obj)]
    if inspect.isclass(obj):
        return [
            (f"{name}.{attr}", getattr(value, "__func__", value))
            for attr, value in vars(obj).items()
            if inspect.isfunction(getattr(value, "__func__", value))
        ]
    return []


def _tolerance_parameters(named):
    return [
        f"{name}({param})"
        for name, fn in named
        for param in inspect.signature(fn).parameters
        if "tol" in param
    ]


def test_no_public_callable_takes_a_tolerance():
    named = []
    for name in wovenframes.__all__:
        named += _callables(getattr(wovenframes, name), name)
    assert any(name == "InvertibleOperator.from_matrix" for name, _ in named)
    assert any(name == "Subspace.from_spanning" for name, _ in named)
    assert _tolerance_parameters(named) == []


def test_no_callable_in_any_module_takes_a_tolerance():
    named = []
    for info in pkgutil.iter_modules(wovenframes.__path__):
        module = importlib.import_module(f"wovenframes.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__:
                named += _callables(obj, f"{info.name}.{name}")
    assert len(named) > 100
    assert _tolerance_parameters(named) == []


def test_literal_tolerances_live_only_in_the_tolerance_module():
    literal = re.compile(r"\d(\.\d+)?e-\d+")
    found = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if literal.search(line)
    ]
    assert found == []


def test_fusion_bounds_is_the_one_bounds_record():
    assert not hasattr(wovenframes, "FusionBoundsReport")
    assert "FusionBoundsReport" not in wovenframes.__all__
    subs = tuple(Subspace.from_spanning(2, [basis_vec(2, k)]) for k in range(2))
    rep = fusion_bounds(FusionFrame(2, subs, [1.0, 2.0]))
    assert type(rep) is BoundsReport
    assert (rep.lower, rep.upper, rep.is_frame) == (1.0, 4.0, True)


def test_eps_is_keyword_only():
    family = WovenFamily.discrete(ex3_2_frames())
    with pytest.raises(TypeError):
        woven_bounds_exhaustive(family, 1e-10)
    with pytest.raises(TypeError):
        woven_bounds_from_contributions(contribution_stacks(family), 1e-10)
    assert woven_bounds_exhaustive(family, eps=0.5).witness is None
