"""Per-layer attribution of a simulation, from outside the program.

:class:`LayerTracer` wraps the public entry points (public functions,
public methods and ``__init__``) of every module of each layer named in
:data:`LAYERS`, times each call, and charges a layer the call's *self*
time: its duration minus the part its wrapped callees took.  What no
wrapped call covers -- code reached through private helpers of the
benchmark itself, the interpreter's own work between calls -- is the
``unattributed`` remainder, so the self times plus the remainder equal
the traced wall time.

Wrappers exist only between :meth:`LayerTracer.install` and
:meth:`LayerTracer.remove`; removal puts back the very objects it
replaced.  Install before a simulation's objects are built: components
that bind a collaborator's method at construction keep whatever was
installed then.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

#: Layer name -> modules whose entry points count as that layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "runner": ("repro.experiments.runner",),
    "workloads": (
        "repro.workloads.models", "repro.workloads.suites",
        "repro.workloads.trace", "repro.scenarios.phases",
        "repro.scenarios.library", "repro.scenarios.colocate",
    ),
    "sim.engine": ("repro.sim.engine",),
    "sim.system": ("repro.sim.system",),
    "sim.stats": ("repro.sim.stats",),
    "cpu": (
        "repro.cpu.cache", "repro.cpu.core", "repro.cpu.dram",
        "repro.cpu.hierarchy", "repro.cpu.mshr", "repro.cpu.replay",
    ),
    "host": (
        "repro.host.page_table", "repro.host.plb", "repro.host.scheduler",
        "repro.host.threads",
    ),
    "cxl": ("repro.cxl.link", "repro.cxl.protocol"),
    "core": (
        "repro.core.controller", "repro.core.write_log",
        "repro.core.data_cache", "repro.core.compaction",
        "repro.core.migration", "repro.core.dram_manager",
        "repro.core.log_index", "repro.core.trigger",
    ),
    "ssd.controller": (
        "repro.ssd.base_controller", "repro.ssd.base_cache",
        "repro.ssd.factory", "repro.ssd.interface",
    ),
    "ssd.ftl": ("repro.ssd.ftl",),
    "ssd.flash": ("repro.ssd.flash", "repro.ssd.geometry"),
    "ssd.gc": ("repro.ssd.gc",),
}


def _entry_point(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


class LayerTracer:
    """Self time and call count per layer over the installed interval."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        # One frame per active wrapped call: [callees' total seconds].
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _patch(self, owner: object, name: str, raw: object, layer: str) -> None:
        if isinstance(raw, staticmethod):
            fn, rewrap = raw.__func__, staticmethod
        elif isinstance(raw, classmethod):
            fn, rewrap = raw.__func__, classmethod
        elif inspect.isfunction(raw):
            fn, rewrap = raw, None
        else:
            return
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            return  # the call returns before the work happens
        wrapped = self._wrap(fn, layer)
        self._saved.append((owner, name, raw))
        setattr(owner, name, rewrap(wrapped) if rewrap else wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for layer, modules in LAYERS.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module_name:
                        continue  # imported from elsewhere
                    if inspect.isclass(obj):
                        for attr, raw in list(vars(obj).items()):
                            if _entry_point(attr):
                                self._patch(obj, attr, raw, layer)
                    elif inspect.isfunction(obj) and _entry_point(name):
                        self._patch(module, name, obj, layer)

    def remove(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        restored = all(
            (vars(owner).get(name) is raw) for owner, name, raw in self._saved
        )
        self._saved = []
        if not restored:
            raise RuntimeError("layer tracer left a wrapper installed")

    @property
    def installed(self) -> bool:
        return bool(self._saved)
