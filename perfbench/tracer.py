"""Per-layer tracing of fxbench from outside the program.

`Tracer.install` wraps every public function, and every public method of a
public class, defined in the layer modules of fxbench (`LAYERS`). Each
wrapper replaces the original wherever an fxbench module bound it by name,
so calls made inside the program are seen too. `Tracer.uninstall` puts the
originals back and checks that nothing is left wrapped.

A wrapper records, per (layer, function, arch, outermost-in-layer):
call count, inclusive time, self time (inclusive minus the time of wrapped
calls made inside it) and the items it returned (length of a returned list,
rows of returned CSV bytes). The arch label comes from the first argument
when it is a model or spec, else from the enclosing call.

For `cells` forward and backward calls the wrapper also adds the GEMM flop
count of the call, computed from the model shapes and batch size (not
measured by a counter).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "fxbench"
LAYERS = ("cli", "data", "experiment", "cells", "optim", "serialize")


def _arch_of(args):
    if not args:
        return None
    first = args[0]
    first = getattr(first, "spec", first)
    arch = getattr(first, "arch", None)
    return arch if isinstance(arch, str) else None


def _items(result):
    if isinstance(result, list):
        return len(result)
    if isinstance(result, bytes):
        return max(result.count(b"\n") - 1, 0)  # CSV rows below the header
    return 0


def gemm_flops(kind: str, spec, batch: int) -> int:
    """Multiply-add flops (2 per MAC) of the matrix products in one call.

    Follows the products written in fxbench.cells: per time step, forward
    runs one product per gate on [x; h] (or on x and h separately for
    SRNN), backward runs one weight-gradient and one input-gradient product
    per gate. Elementwise work is not counted.
    """
    d, h, out, t = spec.input_dim, spec.hidden, spec.output_dim, spec.window
    head = 2 * batch * h * out  # output layer (forward) / each of dW_out, dh (backward)
    if spec.arch == "mlp":
        cell = 2 * batch * d * h
        return head + cell if kind == "forward" else 2 * head + cell
    if spec.arch == "srnn":
        step = 2 * batch * h * (d + h)
        return head + t * step if kind == "forward" else 2 * head + t * (step + 2 * batch * h * h)
    gates = 4 if spec.arch == "lstm" else 3
    gate = 2 * batch * h * (d + h)
    return head + t * gates * gate if kind == "forward" else 2 * head + t * 2 * gates * gate


def _batch(kind: str, args) -> int:
    if kind == "forward":
        return len(args[1])
    return args[1].x.shape[0]


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    flops: int = 0
    flops_unknown: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=lambda: {layer: 0 for layer in LAYERS})

    def reset(self):
        self.stats = {}

    def install(self):
        """Wrap the layers' public callables; returns the number of bindings replaced."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, mname, meth, self._wrap(meth, layer, f"{attr}.{mname}"))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
        return len(self._patches)

    def uninstall(self) -> bool:
        """Restore every original; True when none of the wrappers remains."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        clean = all(vars(owner).get(attr) is original for owner, attr, original in self._patches)
        self._patches = []
        return clean and not self._stack

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        depth = self._depth
        tracer = self
        clock = time.perf_counter
        flop_kind = None
        if layer == "cells" and name.startswith("forward"):
            flop_kind = "forward"
        elif layer == "cells" and name.startswith("backward"):
            flop_kind = "backward"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            arch = _arch_of(args) or (parent[1] if parent is not None else None)
            outer = depth[layer] == 0
            frame = [0.0, arch]
            stack.append(frame)
            depth[layer] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                depth[layer] -= 1
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                key = (layer, name, arch, outer)
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = Stat()
                st.calls += 1
                st.incl_s += elapsed
                st.self_s += elapsed - frame[0]
                st.items += _items(result)
                if flop_kind is not None and outer:
                    try:
                        st.flops += gemm_flops(flop_kind, args[0].spec, _batch(flop_kind, args))
                    except (AttributeError, IndexError, TypeError):
                        st.flops_unknown += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper
