"""In-memory span recorder that wraps library functions from outside.

A span is (name, start, end, parent).  Spans live in flat arrays while the
benchmark runs and are written out once, when it ends.  Wrapping is done by
rebinding: every module attribute that refers to a wrapped function is
pointed at the wrapper, so ``altpaths.homcount.hom_forest`` and the copy
that ``altpaths.verify`` imported are both traced.  ``restore`` undoes it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Callable, Optional

import numpy as np

# count(args, kwargs, result, exc) -> None, run after the span has ended.
CountHook = Callable[[tuple, dict, object, Optional[BaseException]], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str, hook: Optional[CountHook] = None) -> Callable:
        sid = self.name_id(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result, None)
            return result

        return traced

    def install(self, modules, hooks: dict[str, CountHook], private: tuple[str, ...] = ()) -> None:
        """Wrap every public function defined in ``modules`` plus the named
        private ones, rebinding each in every module that holds it.

        Spans are named ``<module>.<function>`` with the module's last dotted
        component.  Generator functions are left alone: their work happens
        while the caller iterates, so it stays in the caller's span.
        """
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and f"{short}.{attr}" not in private:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(fn, name, hooks.get(name))
                for holder in modules:
                    for held_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, held_name, fn))
                            setattr(holder, held_name, wrapped)

    def install_method(self, cls, method: str, name: str, hook: Optional[CountHook] = None) -> None:
        original = cls.__dict__[method]
        self._patched.append((cls, method, original))
        setattr(cls, method, self.wrap(original, name, hook))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.ids)

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """Per span name over spans [lo, hi): (calls, inclusive s, self s).

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans under one root add up to
        the root's duration.
        """
        ids = np.frombuffer(self.ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi] - lo
        dur = np.frombuffer(self.ends, dtype=np.float64)[lo:hi] - np.frombuffer(
            self.starts, dtype=np.float64
        )[lo:hi]
        inner = parents >= 0
        child = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        own = dur - child
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        incl = np.bincount(ids, weights=dur, minlength=width)
        selft = np.bincount(ids, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(incl[i]), float(selft[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def dump(self, path) -> None:
        """Write every recorded span: names table plus four parallel arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
