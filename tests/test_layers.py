"""The package's layer map: which module may import what from which.

Each module's relative imports are read with `ast`, so the map holds for
every import the source writes, whether or not it runs.
"""

import ast
from pathlib import Path

import pytest

import taulattice

SRC = Path(taulattice.__file__).parent

# module -> {module it may import from: the names it may import, or None for any}
ANY = None
LAYERS = {
    "errors": {},
    "report": {},
    "numdiff": {},
    "couplings": {"errors": ANY},
    "moments": {"couplings": ANY, "errors": ANY},
    "lax": {"couplings": ANY, "errors": ANY, "moments": ANY, "report": ANY},
    "flows": {"couplings": ANY, "errors": ANY, "lax": ANY},
    "continuum": {"couplings": ANY, "errors": ANY, "report": ANY,
                  "flows": {"_rk4_stepper", "_csv_text"}},
}
_BELOW = list(LAYERS)
LAYERS["identities"] = dict.fromkeys(_BELOW, ANY)
LAYERS["cli"] = dict.fromkeys(_BELOW + ["identities"], ANY)


def package_imports(module: str) -> dict:
    """{module of the package: the names imported from it} over every
    relative import in the module's source; `from . import m` imports the
    module m whole, read as the name "*"."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not any(n and n.split(".")[0] == "taulattice" for n in names), (
                f"{module} imports the package by its absolute name")
    return found


def test_every_module_has_a_row():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", list(LAYERS))
def test_module_imports_only_what_its_layer_allows(module):
    allowed = LAYERS[module]
    for source, names in package_imports(module).items():
        assert source in allowed, f"{module} imports from {source}"
        if allowed[source] is not ANY:
            assert names <= allowed[source], (
                f"{module} imports {sorted(names - allowed[source])} from {source}")

