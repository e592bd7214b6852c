"""The package root: its public names resolve on first use, from their home
modules, and stay plain attributes after."""

import importlib
import subprocess
import sys

import pytest

import wovenframes


@pytest.mark.parametrize("name", wovenframes.__all__)
def test_every_public_name_is_its_home_module_object(name):
    value = getattr(wovenframes, name)
    # every public name is a class or function defined in its home module
    assert value is getattr(importlib.import_module(value.__module__), name)
    # cached: a second read finds the name in the package's own namespace
    assert vars(wovenframes)[name] is value


def test_public_names_are_unique():
    assert len(set(wovenframes.__all__)) == len(wovenframes.__all__) == 43


def test_an_unknown_name_raises_attribute_error():
    # a report type that the package no longer defines
    assert not hasattr(wovenframes, "FusionBoundsReport")
    with pytest.raises(AttributeError, match="FusionBoundsReport"):
        wovenframes.FusionBoundsReport


def test_submodules_still_import_from_the_root():
    from wovenframes import perturbation, transforms

    assert perturbation is sys.modules["wovenframes.perturbation"]
    assert perturbation.pw_check is wovenframes.pw_check
    assert transforms.LocalSystem is wovenframes.LocalSystem


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule_and_dir_lists_every_name():
    code = (
        "import sys, wovenframes\n"
        "print(*sorted(m for m in sys.modules if m.startswith('wovenframes')))\n"
        "names = dir(wovenframes)\n"
        "print(sorted(set(wovenframes.__all__) - set(names)), '__version__' in names)"
    )
    assert _fresh(code) == "wovenframes\n[] True\n"


def test_star_import_binds_every_public_name():
    code = (
        "import wovenframes\n"
        "from wovenframes import *\n"
        "names = wovenframes.__all__\n"
        "print(len(names), [n for n in names if globals().get(n) is not getattr(wovenframes, n)])"
    )
    assert _fresh(code) == "43 []\n"
