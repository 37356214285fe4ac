import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import chaoscontrol

MODULES = sorted(info.name for info in pkgutil.iter_modules(chaoscontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"chaoscontrol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"chaoscontrol.{name}.__all__ names undefined {missing}"


def _names_read_in_package() -> set:
    """Every name and attribute the package's modules read, re-exports aside."""
    read = set()
    for path in Path(chaoscontrol.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):  # from .esn import train as esn_train
                read.add(node.name)
    return read


@pytest.mark.parametrize("name", MODULES)
def test_public_names_have_a_caller_in_the_package(name):
    # a public name that no package code reads is kept for the tests
    # alone; it belongs in tests/oracles.py
    module = importlib.import_module(f"chaoscontrol.{name}")
    read = _names_read_in_package()
    unused = [attr for attr in getattr(module, "__all__", ()) if attr not in read]
    assert not unused, f"chaoscontrol.{name} exports names no package code reads: {unused}"


def _classes_built_with_arguments() -> set:
    """Names of the callables package code calls with at least one argument."""
    called = set()
    for path in Path(chaoscontrol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (node.args or node.keywords):
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return called


@pytest.mark.parametrize("name", MODULES)
def test_exported_configs_are_set_in_the_package(name):
    # a config class that package code only ever builds with its defaults
    # holds constants; they belong in its module as named values
    module = importlib.import_module(f"chaoscontrol.{name}")
    configs = [
        attr for attr in getattr(module, "__all__", ())
        if attr.endswith("Config") and dataclasses.is_dataclass(getattr(module, attr))
    ]
    built = _classes_built_with_arguments()
    unset = [attr for attr in configs if attr not in built]
    assert not unset, f"chaoscontrol.{name} exports configs built only with defaults: {unset}"


def test_only_experiments_imports_csv():
    # trajectory files are written and read in experiments.py alone, so
    # their row format cannot drift apart in two modules
    importers = set()
    for path in Path(chaoscontrol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                importers.add(path.name)
    assert importers == {"experiments.py"}


def test_only_errors_names_memory_error():
    # errors.py declares how every failure is reported and recorded, so
    # chaosctl and a sweep cell cannot treat an allocation failure apart
    namers = set()
    for path in Path(chaoscontrol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "MemoryError":
                namers.add(path.name)
    assert namers == {"errors.py"}


def _traced_names() -> dict:
    """``SELF_METRIC`` of the bench tracer, read without importing it."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SELF_METRIC"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SELF_METRIC in {path}")


@pytest.mark.parametrize("name", sorted(_traced_names()))
def test_names_the_bench_traces_resolve(name):
    # the tracer patches these by name; a renamed function leaves its
    # layer untraced, which only the bench's own tests would notice
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"chaoscontrol.{module}"), function, None))


@pytest.mark.parametrize("cls", ["esn.EsnModel", "ngrc.NgrcModel"])
def test_stepper_methods_the_bench_traces_exist(cls):
    module, name = cls.split(".")
    model = getattr(importlib.import_module(f"chaoscontrol.{module}"), name)
    assert callable(getattr(model, "stepper", None))
