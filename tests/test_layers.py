"""The package's layer map: which module may import what from which.

Each module's relative imports are read with `ast`, so the map holds for
every import the source writes, whether or not it runs.
"""

import ast
from pathlib import Path

import pytest

import conftest
import taulattice
from taulattice import identities

SRC = Path(taulattice.__file__).parent

# module -> {module it may import from: the names it may import, or None for any}
ANY = None
LAYERS = {
    "errors": {},
    "report": {},
    "numdiff": {},
    "couplings": {"errors": ANY},
    "moments": {"couplings": ANY, "errors": ANY},
    "lax": {"couplings": {"CouplingVector", "_checked_int", "_is_integer", "_own_arrays"},
            "errors": ANY, "report": ANY,
            # the skew Gram F of the Stieltjes basis is the one skew route
            "moments": {"SkewMomentMatrix", "_MEMO_SIZE", "_log_tau_jets", "_stieltjes_basis"}},
    "flows": {"couplings": ANY, "errors": ANY, "lax": ANY},
    "continuum": {"couplings": ANY, "errors": ANY, "report": ANY,
                  "flows": {"_MAX_STEPS", "_rk4_stepper", "_csv_text", "_guarded"}},
}
_BELOW = list(LAYERS)
LAYERS["identities"] = dict.fromkeys(_BELOW, ANY)
LAYERS["identities"]["couplings"] = {"CouplingVector", "_checked_int", "_checked_seed"}
LAYERS["identities"]["moments"] = {"_log_tau_jets", "_log_tau_of_basis", "_monomial_skew_moments",
                                   "_stieltjes_basis"}
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


def test_no_module_raises_grid_nodes_to_a_power():
    # skew products of monomials at the nodes cancel as the degree grows;
    # the library writes x^i in the q_k of the Stieltjes basis instead
    # (`moments._monomial_skew_moments`)
    found = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "np.power":
                base = node.args[0]
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "nodes"
                   or isinstance(n, ast.Attribute) and n.attr == "nodes" for n in ast.walk(base)):
                found.append(f"{path.stem}:{node.lineno}")
    assert not found, f"grid nodes raised to a power at {found}"


def _reads(tree) -> set:
    """Every name the tree reads: loaded names, attributes, imported names
    and string constants (a name looked up by getattr or a table)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_private_helper_has_a_library_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    helpers = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    unread = sorted(f"{module}.{name}" for module, name in helpers if name not in read)
    assert not unread, f"private helpers no library code reads: {unread}"


# (module, public name) -> why it stays in the library though no entry point
# reads it
_UNREAD_PUBLIC = {
    ("numdiff", "mixed_derivative"): "perfbench's --trace 1 looks numdiff up by name; the "
                                     "module moves to the tests with the benchmark's change "
                                     "(ROADMAP items 10 and 33)",
}


def _loads(tree) -> set:
    """The names the tree reads as code: loaded names and attributes, not
    imported names or strings (an `__all__` entry, a command's name)."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_function_is_an_entry_point_or_has_a_library_reader():
    # a public top-level function or class is in the package's __all__, is
    # a check named in SUITES, or is read by library code; else only tests
    # call it, and it belongs with them
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set().union(*map(_loads, trees.values()))
    entry = set(taulattice.__all__) | {function for function, _ in identities.SUITES.values()}
    unread = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in entry | read}
    assert unread == set(_UNREAD_PUBLIC), (
        f"public names no entry point or library code reads: {sorted(unread)}, "
        f"listed {sorted(_UNREAD_PUBLIC)}")


def test_every_public_record_method_has_a_library_caller():
    # a method or property of a public dataclass that only tests call is
    # uncalled code; matched by name, as the helper check is
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    unread = sorted(f"{cls.name}.{node.name}" for tree in trees.values() for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                    for node in cls.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.name not in read)
    assert not unread, f"record methods no library code reads: {unread}"


def test_every_record_array_passes_through_own_arrays():
    # `couplings._own_arrays` is the one place a record copies, freezes and
    # checks the finiteness of its arrays, so every np.ndarray field of a
    # public dataclass is named in a call of it in the class's __post_init__
    fields, missed = 0, []
    for path in SRC.glob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            arrays = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)
                      and ast.unparse(node.annotation) == "np.ndarray"}
            post = [node for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
            owned = {arg.value for call in ast.walk(ast.Module(post, []))
                     if isinstance(call, ast.Call) and ast.unparse(call.func) == "_own_arrays"
                     for arg in call.args[1:] if isinstance(arg, ast.Constant)}
            fields += len(arrays)
            missed += [f"{path.stem}.{cls.name}.{name}" for name in sorted(arrays - owned)]
    assert fields and not missed, f"array fields not passed to _own_arrays: {missed}"


# (module, top-level function) -> why it catches FloatingPointError itself
_FLOATING_POINT_HANDLERS = {
    ("flows", "_guarded"): "the one guard: overflow -> DivergedField naming the call",
}


def test_floating_point_errors_are_caught_only_where_listed():
    # every overflow guard goes through `flows._guarded`, and a listed
    # handler that is gone fails too
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.ExceptHandler) and node.type is not None
                        and "FloatingPointError" in ast.unparse(node.type)):
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == set(_FLOATING_POINT_HANDLERS), (
        f"FloatingPointError caught in {sorted(found)}, listed "
        f"{sorted(_FLOATING_POINT_HANDLERS)}")


# (module, function) -> why it keeps results in an lru_cache.  Process
# memos keep results keyed on couplings, bounded by `moments._MEMO_SIZE`;
# plans depend on a few small integers or on nothing.
_PROCESS_MEMOS = {
    ("moments", "_stieltjes_basis"): "Stieltjes bases, the one cache in front of quadrature",
    ("moments", "_kept_jets"): "log-tau jets read off one kept basis",
    ("lax", "_skew_basis"): "skew Gram-Schmidt on one kept basis",
}
_LRU_CACHES = {
    **_PROCESS_MEMOS,
    ("couplings", "_gauss_legendre"): "plan: the one reference Gauss-Legendre rule",
    ("couplings", "_cumulative_matrix"): "plan: the panel's cumulative-integration matrix",
    ("continuum", "_rhs_plan"): "plan: the chain RHS's monomial blocks per window",
    ("continuum", "_tensor_plan"): "plan: the Haantjes contractions per window",
    ("continuum", "_closed_layout"): "plan: the Haantjes scan's closed-form layout per window",
    ("numdiff", "stencil"): "plan: central-difference weights per order",
    ("cli", "_parser"): "plan: the one argument parser",
}


def _lru_caches() -> dict:
    """{(module, function): its lru_cache decorator, unparsed} over the library."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    if "lru_cache" in ast.unparse(dec):
                        found[path.stem, node.name] = ast.unparse(dec)
    return found


def test_every_lru_cache_is_listed():
    # a cache added beside the basis memo, or a listed one that is gone, fails
    found = _lru_caches()
    assert set(found) == set(_LRU_CACHES), (
        f"lru_cache on {sorted(found)}, listed {sorted(_LRU_CACHES)}")
    bounded = {key for key, dec in found.items() if "_MEMO_SIZE" in dec}
    assert bounded == set(_PROCESS_MEMOS), f"bounded by _MEMO_SIZE: {sorted(bounded)}"


def test_the_fixture_clears_exactly_the_process_memos():
    listed = {getattr(getattr(taulattice, module), name) for module, name in _PROCESS_MEMOS}
    assert set(conftest.PROCESS_MEMOS) == listed
    assert len(conftest.PROCESS_MEMOS) == len(listed)


def test_build_quadrature_has_one_library_caller():
    # every grid the library builds goes through the basis memo
    callers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == (
                        "build_quadrature"):
                    callers.add((path.stem, getattr(top, "name", "<module>")))
    assert callers == {("moments", "_tau_grid")}, f"build_quadrature called from {sorted(callers)}"
