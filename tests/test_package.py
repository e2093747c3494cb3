"""The package's public surface: each name declared once, in one module."""

import dghlab
from dghlab import (
    characteristics,
    diagnostics,
    dissipative,
    grid,
    helmholtz,
    invariants,
    profiles,
    solver,
)

MODULES = (characteristics, diagnostics, dissipative, grid, helmholtz, invariants, profiles, solver)


def test_all_is_the_union_of_the_module_lists():
    from_modules = [name for m in MODULES for name in m.__all__]
    assert len(from_modules) == len(set(from_modules))  # no name in two modules
    assert sorted(dghlab.__all__) == sorted(from_modules + ["__version__"])
    assert len(dghlab.__all__) == len(set(dghlab.__all__))
    assert len(dghlab.__all__) <= 40


def test_every_exported_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dghlab, name) is getattr(m, name), name
    assert isinstance(dghlab.__version__, str)
