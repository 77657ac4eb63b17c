"""The benchmark traces a few names inside the package by string; a name
that is renamed away would be skipped without an error, and its per-layer
figure would read zero.  These tests keep those names alive."""

import ast
import importlib
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_names() -> tuple[list[str], list[str]]:
    """The ``private=`` names and the hook keys of run.py's tracer install."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "install"
        ):
            keywords = {kw.arg: kw.value for kw in node.keywords}
            private = [ast.literal_eval(e) for e in keywords["private"].elts]
            hooks = [ast.literal_eval(k) for k in node.args[1].keys]
            return private, hooks
    raise AssertionError("no tracer install call in perfbench/run.py")


def _resolve(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"altpaths.{module}"), attr, None)


def test_private_hooks_are_functions():
    private, _ = _traced_names()
    assert {"verify._scan_chunk", "lpsearch._pivot"} <= set(private)
    for name in private:
        fn = _resolve(name)
        assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), name


def test_counter_hooks_are_functions():
    _, hooks = _traced_names()
    assert hooks
    for name in hooks:
        assert inspect.isfunction(_resolve(name)), name
