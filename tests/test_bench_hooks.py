"""The benchmark traces a few names inside the package by string; a name
that is renamed away would be skipped without an error, and its per-layer
figure would read zero.  These tests keep those names alive."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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


class _HookTaker:
    """Stands in for perfbench's Tracer: keeps the counter hooks that
    ``install_tracer`` hands it and the counts they make, wraps nothing."""

    def __init__(self):
        self.hooks, self.counters = {}, {}

    def install(self, modules, hooks, private=()):
        self.hooks.update(hooks)

    def install_method(self, cls, method, name, hook=None):
        pass

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount


def test_glued_hook_counts_states_and_refusals(monkeypatch):
    # The traced entropy figures: the glued states of a returned
    # distribution, and a refusal for a gluing refused by its guard.
    from altpaths.constructions import alternating_path, fixture
    from altpaths.ecgraph import BudgetExceeded, host_from_index
    from altpaths.entropy import glued_distribution

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = _HookTaker()
    run.install_tracer(tracer)
    hook = tracer.hooks["entropy.glued_distribution"]

    g = host_from_index(4, 44)
    args = (fixture("H3_large"), alternating_path(3), g)
    hook(args, {"guard": 30_000}, glued_distribution(*args, guard=30_000), None)
    args = (fixture("H5"), alternating_path(5), g)
    with pytest.raises(BudgetExceeded) as refused:
        glued_distribution(*args, guard=30_000)
    hook(args, {"guard": 30_000}, None, refused.value)
    assert tracer.counters == {"entropy.glued_states": 23_328, "entropy.refusals": 1}
