"""Source-level checks on the kisindim package: its correctness checks are
explicit raises, which `python -O` keeps, none of its caches grows without
bound in a long-running process, no module keeps mutable state in a
lower-case global, no module reads the environment, importing the CLI
stays cheap, no module of the package or its tests imports a name it
never uses, every function and method of the package has a caller, every
top-level function and class of the package is used by the package or a
demo, and every class with value semantics is a `Frozen` record."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kisindim
from kisindim import bounds as bd, solver as sv
from kisindim.cli import main
from kisindim.kisin_model import KisinInstance
from kisindim.polyhedra import Frozen, vec
from oracles import (DualityData, _q_generators, a_set, b_value, clear_caches, code_calls,
                     lru_caches)

SRC = Path(kisindim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
ORTHANT_PM = (vec((1, 0)), vec((0, -1)))  # generators of R+ x R-


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_imports(path):
    """Names that path imports and never reads; `from __future__` is exempt."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [x for path in paths for x in _unused_imports(path)] == []


def _environment_reads(path):
    """Places where path names os.environ, os.getenv or os.putenv."""
    names = {"environ", "getenv", "putenv"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                      if a.name in names]
    return found


def test_no_module_reads_the_environment():
    # results, witnesses, node counts and refusals must not depend on
    # environment variables
    assert [x for path in sorted(SRC.glob("*.py")) for x in _environment_reads(path)] == []


def _fresh_interpreter(code: str) -> str:
    """stdout of code run by a new interpreter; -S keeps site's imports out."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI call pays for its imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize
    out = _fresh_interpreter("import kisindim.cli, sys; "
                             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[]\n"


def test_cli_imports_only_argparse_json_and_fractions():
    # the README's start-up promise: no standard-library module beyond these
    # three and what they import themselves
    out = _fresh_interpreter(
        "import sys, argparse, json, fractions; std = set(sys.modules); "
        "import kisindim.cli; "
        "print(sorted(m for m in set(sys.modules) - std if m.split('.')[0] != 'kisindim'))")
    assert out == "['__future__']\n"


def test_every_lru_cache_is_bounded():
    caches = dict(lru_caches())
    assert set(caches) == {"kisindim.solver._prove"}
    unbounded = [name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_no_module_level_mutable_state():
    # state kept between queries in a module global would make node counts
    # and refusals depend on what ran before; upper-case names are constants
    found = []
    for info in pkgutil.iter_modules(kisindim.__path__):
        module = importlib.import_module(f"kisindim.{info.name}")
        found += [f"{module.__name__}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, (dict, list, set)) and not name.isupper()
                  and not name.startswith("__")]
    assert found == []


def test_every_record_type_is_frozen():
    # one record type: a class that defines equality or hashing is a value,
    # and a value is a Frozen, immutable and equal by its fields
    found = []
    for info in pkgutil.iter_modules(kisindim.__path__):
        module = importlib.import_module(f"kisindim.{info.name}")
        found += [f"{module.__name__}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and {"__eq__", "__hash__"} & set(vars(obj)) and not issubclass(obj, Frozen)]
    assert found == []


def test_bounds_output_same_with_caches_cold_and_warm(capsys):
    argvs = [["bounds", "--d", "3", "--b", "2", "--e", "4"],
             ["bounds", "--d", "3", "--b", "3", "--mu", "9,5,1", "--le-mu"],
             ["tables", "--d", "3", "--b", "5"]]

    def outputs():
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        inst = KisinInstance(3, 3)
        out.append(repr(a_set(inst, "Q", "g")))
        out.append(b_value(DualityData(inst, "Qmax", "f", ORTHANT_PM), (3, -2)))
        return out

    clear_caches()
    cold = outputs()
    assert _q_generators.cache_info().currsize > 0
    assert outputs() == cold
    clear_caches()
    assert outputs() == cold


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


# mu at d = 3, b = 2 with its (b-regular, strongly integrally b-regular) flags
FLAGGED_MU = {"12,5,0": (True, True), "7,4,1": (True, False), "10,9,0": (False, False)}


@pytest.mark.parametrize("mu", sorted(FLAGGED_MU))
def test_bounds_requests_take_no_vertex_route(capsys, monkeypatch, mu):
    # the three targets of `bounds`, on strongly regular, regular and
    # non-regular mu, never take the package's vertex routes: the vertices
    # of the Q_max A-set or the K(b) tables
    flags = bd.regularity(vec(map(int, mu.split(","))), KisinInstance(3, 2))
    assert (flags.b_regular, flags.strongly_integrally_b_regular) == FLAGGED_MU[mu]
    for name in ("extremal_points_a_qmax", "k_polytopes"):
        monkeypatch.setattr(bd, name, _refuse(name))
    for target in (["--e", "9"], ["--mu", mu], ["--mu", mu, "--le-mu"]):
        assert main(["bounds", "--d", "3", "--b", "2", *target]) == 0, target
        assert json.loads(capsys.readouterr().out)["target"]
    # control: the commands that take those routes are refused
    with pytest.raises(AssertionError, match="k_polytopes called"):
        main(["tables", "--d", "3", "--b", "2"])
    assert main(["verify"]) == 1
    assert "FAIL  extremal points of the Q_max A-set  [AssertionError(" \
        "'extremal_points_a_qmax called')]" in capsys.readouterr().out


# one strongly regular type per (d, b), so bounds --le-mu builds its witness
CONE_Q_REQUESTS = {(2, 3): "8,0", (3, 2): "12,5,0"}


def test_witness_checks_build_cone_q_once_per_instance(capsys):
    # bounds, witness and dim requests decide membership in Q from its
    # games and read no rows for it: the search's rows are read only by
    # its proof, once per (d, b) in a process, from the first dim request,
    # however many requests check a witness there
    builds = Counter()
    proof = sv._prove.__wrapped__.__code__
    clear_caches()
    for _ in range(2):
        for (d, b), mu in CONE_Q_REQUESTS.items():
            for target in (["bounds", "--e", "9"], ["bounds", "--mu", mu],
                           ["bounds", "--mu", mu, "--le-mu"], ["witness", "--e", "6"],
                           ["witness", "--mu", mu], ["dim", "--e", "4"], ["dim", "--mu", mu]):
                argv = [target[0], "--d", str(d), "--b", str(b), *target[1:]]
                exits = []
                builds[target[0], d, b] += code_calls(proof, lambda: exits.append(main(argv)))
                assert exits == [0], argv
                capsys.readouterr()
    assert +builds == Counter({("dim", d, b): 1 for d, b in CONE_Q_REQUESTS})


def _references(tree):
    """Counter of the names that tree reads: as a name, an attribute or a
    string such as a monkeypatch target."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _dead_names():
    """Functions and methods defined in the package that nothing in the
    package, its tests or its demos refers to outside their own body.
    Dunders and overrides of a base-class method are exempt: Python or the
    base class calls them."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for root in (SRC, TESTS, DEMOS) for path in sorted(root.glob("*.py"))}
    everywhere = sum(map(_references, trees.values()), Counter())
    dead = []
    for info in pkgutil.iter_modules(kisindim.__path__):
        module = importlib.import_module(f"kisindim.{info.name}")
        for top in trees[SRC / f"{info.name}.py"].body:
            defs = [(None, top)] if not isinstance(top, ast.ClassDef) else [
                (getattr(module, top.name), node) for node in top.body]
            for cls, node in defs:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if cls is not None and any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
                if everywhere[name] == _references(node)[name]:
                    dead.append(f"{info.name}.{cls.__name__ + '.' if cls else ''}{name}")
    return dead


def test_every_function_has_a_caller():
    # a function or method that only its definition names is dead code
    assert _dead_names() == []


# q_from_mu stays though no command or demo calls it: it is the documented
# inverse of mu_from_q (MuTriangle.in_lattice states its contract through
# it), and the two transforms share one Fraction edge, `_apply`.  KTables.K_vertices
# stays beside Kp_vertices, which the demo reads: the two document how a
# vertex row (Y, T) reads as a point.  perm.rho_w stays though no module
# calls it (the A-set reads its vertices off the rows `rho_row`): it is the
# documented value of one rho_w (its doctest), and perfbench's tracer
# wraps it
PRODUCT_ALLOWLIST = {"q_from_mu", "K_vertices", "rho_w"}


def _product_references(tree):
    """Counter of the names that tree reads as a name, an attribute or an
    import alias."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _attribute_reads(tree):
    """Counter of the names that tree reads as an attribute."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_src_name_is_used_by_the_product():
    # a top-level function or class, or a method, that only the tests reach
    # is a test oracle and lives in tests/oracles.py: the package keeps what
    # its own modules or a demo use.  A method is used when its name is read
    # as an attribute outside its own definition; dunders and overrides of
    # a base-class method are exempt, as Python or the base class calls
    # them.  Names cannot tell methods apart, so this misses a method whose
    # name a used one shares (a triangle's `to_json` beside KTables'), and
    # one that only unused code calls (`cycles` read by `order`, `compose`
    # by `power`)
    paths = sorted(SRC.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in paths + sorted(DEMOS.glob("*.py"))}
    everywhere = sum(map(_product_references, trees.values()), Counter())
    attributes = sum(map(_attribute_reads, trees.values()), Counter())
    unused = []
    for path in paths:
        module = importlib.import_module(f"kisindim.{path.stem}")
        for top in trees[path].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (top.name not in PRODUCT_ALLOWLIST
                    and everywhere[top.name] == _product_references(top)[top.name]):
                unused.append(f"{path.stem}.{top.name}")
            if not isinstance(top, ast.ClassDef):
                continue
            bases = getattr(module, top.name).__mro__[1:]
            unused += [f"{path.stem}.{top.name}.{node.name}" for node in top.body
                       if isinstance(node, ast.FunctionDef)
                       and not (node.name.startswith("__") and node.name.endswith("__"))
                       and not any(hasattr(base, node.name) for base in bases)
                       and node.name not in PRODUCT_ALLOWLIST
                       and attributes[node.name] == _attribute_reads(node)[node.name]]
    assert unused == []
