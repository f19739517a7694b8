"""Outside-in tracing of tdsynth's public functions.

Every public module-level function of the tdsynth modules (and
``NetworkCase.clone``) is wrapped from outside: the wrapper replaces the
function at every module attribute that binds it, so ``solve`` is traced
whether ``oltc``, ``synth`` or the package namespace calls it.  Nothing in
the program changes; :meth:`Tracer.uninstall` puts every original binding
back.

Spans nest strictly (one thread, ``jobs = 1``).  For every function the
tracer keeps calls, inclusive seconds, self seconds (span minus its child
spans) and the number of ``powerflow.solve`` calls made inside it, split by
phase (``setup`` or ``op``).  A few functions also report what their
return values expose: NR iterations, regulation rounds, relaxation rounds.
``residual`` is the independent checker and is never wrapped.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "tdsynth"
UNTRACED_MODULES = {"tdsynth.residual"}
METHODS = [("tdsynth.netmodel", "NetworkCase", "clone")]

SMALL_BUSES = 100     # solves below this size are "small"
LARGE_BUSES = 1000    # solves at or above this size are "large"


@dataclass
class Layer:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    solves: int = 0
    durations_s: list[float] = field(default_factory=list)


@dataclass
class _Frame:
    name: str
    start: float
    parent: str | None
    child_s: float = 0.0
    solves: int = 0


def tdsynth_modules() -> list:
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def public_functions() -> dict[str, object]:
    """Qualified layer name (``module.function``) -> original function."""
    out = {}
    for mod in tdsynth_modules():
        if mod.__name__ in UNTRACED_MODULES or mod.__name__ == PACKAGE:
            continue
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[f"{short}.{name}"] = obj
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        out[f"{mod_name.rsplit('.', 1)[1]}.{meth}"] = cls.__dict__[meth]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "op"
        self.layers: dict[str, dict[str, Layer]] = {"setup": defaultdict(Layer), "op": defaultdict(Layer)}
        # counts read off return values: solve_iters, regulate_rounds,
        # relaxation_rounds, combined_regulate_s
        self.counts: dict[str, Counter] = {"setup": Counter(), "op": Counter()}
        self.customize_keys: dict[str, set] = {"setup": set(), "op": set()}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self.targets = public_functions()
        self._customize_sig = inspect.signature(self.targets["synth.customize_dn"])
        self.op_wall_s: list[float] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        by_id = {id(fn): (name, fn) for name, fn in self.targets.items()}
        wrappers = {}
        for mod in tdsynth_modules():
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is None:
                    continue
                name, fn = hit
                wrapper = wrappers.setdefault(name, self._wrap(name, fn))
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            name = f"{mod_name.rsplit('.', 1)[1]}.{meth}"
            self._patched.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(name, 0.0, stack[-1].name if stack else None)
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "powerflow.solve":
                    frame.solves += 1
                tracer._close(frame, end - frame.start, stack)
            tracer._observe(name, frame, end - frame.start, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _close(self, frame: _Frame, dur: float, stack: list[_Frame]) -> None:
        layers = self.layers[self.phase]
        rec = layers[frame.name]
        rec.calls += 1
        rec.incl_s += dur
        rec.self_s += dur - frame.child_s
        rec.solves += frame.solves
        if stack:
            stack[-1].child_s += dur
            stack[-1].solves += frame.solves

    def _observe(self, name, frame, dur, args, kwargs, result) -> None:
        layers = self.layers[self.phase]
        counts = self.counts[self.phase]
        if name == "powerflow.solve":
            case = args[0] if args else kwargs["case"]
            n = len(case.buses)
            size = "small" if n < SMALL_BUSES else "large" if n >= LARGE_BUSES else "mid"
            rec = layers[f"powerflow.solve.{size}"]
            rec.calls += 1
            rec.incl_s += dur
            rec.self_s += dur - frame.child_s
            rec.durations_s.append(dur)
            counts["solve_iters"] += result.iterations
        elif name == "oltc.regulate":
            counts["regulate_rounds"] += result[1].rounds
            if frame.parent == "synth.generate":
                counts["combined_regulate_s"] += dur
        elif name == "synth.customize_dn":
            layers[name].durations_s.append(dur)
            a = self._customize_sig.bind(*args, **kwargs).arguments
            self.customize_keys[self.phase].add((a.get("host_bus", 0), a["target_p"], a.get("source_v")))
        elif name == "opf.solve_with_relaxation":
            counts["relaxation_rounds"] += result.relaxation_rounds

    @contextmanager
    def setup_phase(self):
        """Trace the benchmark's input building as phase ``setup``."""
        self.phase, self.active = "setup", True
        try:
            yield
        finally:
            self.phase, self.active = "op", False

    @contextmanager
    def root_span(self):
        """Trace one operation; its wall time goes to ``op_wall_s``."""
        frame = _Frame("op", time.perf_counter(), None)
        self._stack.append(frame)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._stack.pop()
            self.op_wall_s.append(time.perf_counter() - frame.start)

    def unreached(self) -> list[str]:
        seen = set(self.layers["setup"]) | set(self.layers["op"])
        return sorted(name for name in self.targets if name not in seen)

