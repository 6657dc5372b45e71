"""The runtime dependency is numpy only: every absolute import in the package is
the standard library, numpy or modemil itself. And every name a module exports
in ``__all__`` exists."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import modemil

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "modemil"}


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(modemil.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in ALLOWED
    }
    assert not foreign, sorted(foreign)


def test_every_exported_name_resolves():
    names = ["modemil"] + [m.name for m in pkgutil.walk_packages(modemil.__path__, "modemil.")]
    assert len(names) >= 20
    stale = []
    for name in names:
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), name
        stale += [f"{name}.{export}" for export in module.__all__ if not hasattr(module, export)]
    assert not stale, stale
