"""Checks on the package's imports and public names, most made on the source
with `ast`."""

import ast
import contextlib
import importlib
import inspect
import io
from pathlib import Path

import entrecovery
from conftest import load_benchmark_module

PACKAGE = Path(entrecovery.__file__).resolve().parent


def test_no_private_name_imported_across_modules():
    # a module's underscore names are its own; another module that needs one
    # needs a public name instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "entrecovery":
                continue
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _republished():
    # the modules whose names the package republishes: its `from .x import *`
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [node.module for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 and [a.name for a in node.names] == ["*"]]


def test_every_library_module_is_republished():
    # cli is the command-line front end, not part of the library's names
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    assert sorted(_republished()) == sorted(modules)


def test_each_public_name_is_listed_once_by_the_module_that_defines_it():
    listed = []
    for name in _republished():
        module = importlib.import_module(f"entrecovery.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (name, attr)
        listed += module.__all__
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    assert sorted(entrecovery.__all__) == sorted(listed)
    ns = {}
    exec("from entrecovery import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(listed)


def test_package_init_lists_no_name_itself():
    # `from .x import Name` or an assignment in __init__.py would write a
    # public name down a second time; only __version__ and __all__ are its own
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            found += [alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.ImportFrom):  # from . import <submodules>
            found += [alias.name for alias in node.names
                      if not (PACKAGE / f"{alias.name}.py").is_file()]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [ast.unparse(t) for t in targets
                      if ast.unparse(t) not in ("__version__", "__all__")]
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            found.append(ast.unparse(node).splitlines()[0])
    assert found == []


def test_no_assert_statement_in_the_package():
    # `python -O` strips asserts, so a check on input must raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_the_unit_range_is_written_in_one_place():
    # every [1/2, 1] gate leaves the ends of the range to one helper, so the
    # bounds text of its messages appears once in the package
    found = {path.name: path.read_text(encoding="utf-8").count("[1/2, 1]")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(found.values()) == 1, found


def test_the_codes_of_a_grid_are_judged_in_one_place():
    # RegionGrid.counts() judges a grid's codes for the CSV writer, so the
    # command-line front end calls no class_at and compares no codes, nor
    # anything with the class count
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno} calls .class_at" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "class_at"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
            if names & {"codes", "len"}:
                found.append(f"cli.py:{node.lineno} compares {sorted(names)}")
    assert found == []


def test_the_run_layout_of_a_kernel_grid_is_known_in_one_place():
    # region_grid takes a grid's census from its row runs and builds the grid
    # at its one exit; RegionGrid holds the census, so none of its methods
    # reads runs back (a bincount or a reshape)
    tree = ast.parse((PACKAGE / "recovery.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = [f"recovery.py:{node.lineno} RegionGrid calls .{node.func.attr}"
             for node in ast.walk(defs["RegionGrid"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("bincount", "reshape")]
    returns = [node.lineno for node in ast.walk(defs["region_grid"])
               if isinstance(node, ast.Return)]
    builds = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "RegionGrid"]
    assert found == [] and len(returns) == 1 and len(builds) == 1, (found, returns, builds)


def test_whether_b_counts_as_one_is_decided_in_one_place():
    # RecoveryProblem stores a b within eps of 1 as 1.0, so the test of b
    # against 1 - eps is written once, and the command-line front end, which
    # routes on the stored b, compares no value within a Tolerance
    found = {path.name: path.read_text(encoding="utf-8").count("1.0 - eps")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(found.values()) == 1, found
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [f"cli.py:{node.lineno} calls .{node.func.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("lt", "leq", "gt", "geq", "close")]
    assert calls == []


def test_no_dataclasses_import_in_the_package():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, which
    # every short-lived CLI process would pay for; the value classes derive
    # from spectra.FrozenValue instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_benchmark_traced_layers_resolve():
    # perfbench/spans.py traces these functions by name; renaming or removing
    # one would leave the benchmark without that layer
    spans = load_benchmark_module("spans")
    assert len(spans.LAYERS) == 14
    for name in spans.LAYERS:
        module, *path = name.split(".")
        obj = importlib.import_module(f"entrecovery.{module}")
        for part in path:
            obj = getattr(obj, part)
        assert callable(obj), name


def test_classify_point_keeps_the_traced_call_structure():
    # the benchmark's own tests pin these counts for one classify_point call;
    # they run outside this suite, so an inlined classify_point is caught here
    tracer = load_benchmark_module("spans").Tracer()
    recovery = importlib.import_module("entrecovery.recovery")
    with tracer.installed():
        recovery.classify_point(recovery.RecoveryProblem(0.7, 0.8), 0.6, 0.55)
    assert tracer.stats["recovery.classify_point"][0] == 1
    assert tracer.stats["recovery.product_spectra"][0] == 1
    assert tracer.stats["majorization.is_majorized_by"][0] >= 1
    # the classify command prints the spectra its class was decided on, so
    # one command builds them once
    tracer = load_benchmark_module("spans").Tracer()
    cli = importlib.import_module("entrecovery.cli")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()) as out:
        status = cli.main(["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"])
    assert status == 0 and "class: true-recovery" in out.getvalue()
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.stats["recovery.product_spectra"][0] == 1


def test_no_test_prints_past_the_capture():
    # a passing run prints pytest's own lines only: no test reports through
    # capsys.disabled(), which writes to the terminal whatever the outcome
    found = []
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "disabled"
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "capsys"]
    assert found == []
