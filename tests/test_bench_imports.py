"""The benchmark scripts import only names the library still defines.

``perfbench/`` is frozen: its files may not change when the library moves a
definition, so the library keeps the names they use resolvable (``spaces``,
``generators`` and ``gromov`` forward four moved names).  This reads every
``from ultrametric... import ...`` statement and every ``jsonio.<name>`` use
in the benchmark and growth-bench scripts, and each ``lib.<name>`` use, by
which the growth bench reaches a column's package, and checks that each name
resolves to the object its home module defines.
"""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import ultrametric

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "bench" / "growth.py"]


def used_names(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each name the script takes from the library."""
    used = []
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "ultrametric":
                used += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            # The growth bench reaches each column's package as ``lib``.
            module = {"jsonio": "ultrametric.jsonio", "lib": "ultrametric"}.get(node.value.id)
            if module:
                used.append((module, node.attr))
    return used


def home_of(module: str, name: str, obj) -> str:
    """The module that defines ``obj``."""
    if hasattr(obj, "__module__") and not isinstance(obj, ModuleType):
        return obj.__module__
    if module == "ultrametric":  # a constant, placed by the package's table
        return f"ultrametric.{ultrametric._HOME[name]}"
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_library_name_a_script_uses_resolves_to_its_home(path):
    used = used_names(path)
    for module, name in used:
        obj = getattr(import_module(module), name)
        if isinstance(obj, ModuleType):
            assert obj.__name__ == f"{module}.{name}", (module, name)
            continue
        home = home_of(module, name, obj)
        assert vars(import_module(home)).get(name) is obj, (module, name, home)


def test_the_growth_bench_names_are_read():
    used = set(used_names(ROOT / "bench" / "growth.py"))
    assert {("ultrametric", "glue"), ("ultrametric", "restrict"), ("ultrametric.jsonio", "loads")} <= used


def test_the_replay_uses_the_forwarded_names():
    used = set(used_names(ROOT / "perfbench" / "replay.py"))
    assert {
        ("ultrametric.spaces", "closed_quotient"),
        ("ultrametric.generators", "single_linkage"),
        ("ultrametric.gromov", "certificate"),
        ("ultrametric.gromov", "verify_certificate"),
    } <= used
