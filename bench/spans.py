"""Per-layer spans taken from outside the program.

A Tracer wraps public functions of d2dreuse and, while it is entered,
installs each wrapper under every module attribute that holds the original
function object (``solver.solve_allocation``, ``selection.solve_allocation``,
``oracle.solve_allocation``, ``d2dreuse.solve_allocation``, and aliases such
as ``cli.run_selection``).  A call through any of those names opens a span
named after the function's home module.  Self time is a span's duration
minus the durations of the spans it encloses.  Leaving the tracer puts the
original functions back, so untraced calls pay nothing.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "d2dreuse"

# A hook maps (args, kwargs, result) of a call to counter increments.
Hook = Callable[[tuple, dict, object], dict]


class SpanCoverageError(RuntimeError):
    """A layer the benchmark traces is not where the benchmark looks for it."""


@dataclass
class Layer:
    name: str
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    aliases: list = field(default_factory=list)  # module attributes wrapped


class Tracer:
    """Call counts, self time and counters per wrapped function."""

    def __init__(self, targets: dict[str, Optional[Hook]]):
        """targets maps "module.function" (relative to the package) to the
        hook that counts the layer's work, or None."""
        self.layers: dict[str, Layer] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer_name, hook in targets.items():
            module_name, attr = layer_name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                raise SpanCoverageError(f"layer {layer_name}: {PACKAGE}.{layer_name} not found")
            layer = self.layers[layer_name] = Layer(layer_name)
            wrapper = self._wrap(layer, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original, wrapper))
                        layer.aliases.append(f"{module.__name__}.{name}")

    def _wrap(self, layer: Layer, fn: Callable, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                layer.calls += 1
                layer.self_s += dur - child
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    layer.counts[key] = layer.counts.get(key, 0) + inc
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)
        self._stack.clear()

    def unreached(self, required: list[str]) -> list[str]:
        """Required layers that recorded no call."""
        return [name for name in required if self.layers[name].calls == 0]


def arg(args: tuple, kwargs: dict, index: int, name: str):
    """Positional-or-keyword argument of a wrapped call."""
    return args[index] if len(args) > index else kwargs[name]
