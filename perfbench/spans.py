"""The benchmark's own span recorder for the traced run.

The program under test is never edited: the traced run swaps each public
entry point for a wrapper at every place a caller looks the name up (the
module globals that imported it, the class that defines the method, the
``DATASETS`` registry), records one span per call, and restores the
originals afterwards.  Untraced passes therefore run the unmodified code.

Spans are aggregated as they close instead of being stored: a span's
self time is its duration minus the durations of its direct children,
and summing self times per key keeps memory constant however many spans
a pass opens.  The sum of every key's self time equals the time covered
by root spans, so ``attributed / wall`` says how much of a traced pass
the wrapped layers account for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Aggregate", "Recorder", "Patch", "find_global_sites"]


@dataclass
class Aggregate:
    """Span totals keyed by span name, plus counters."""

    self_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Time covered by root spans (spans opened with no span active).
    attributed: float = 0.0

    def scaled(self, factor: float) -> "Aggregate":
        out = Aggregate()
        for mine, theirs in (
            (self.self_seconds, out.self_seconds),
            (self.total_seconds, out.total_seconds),
            (self.counts, out.counts),
        ):
            for key, value in mine.items():
                theirs[key] = value * factor
        out.attributed = self.attributed * factor
        return out

    def plus(self, other: "Aggregate") -> "Aggregate":
        out = self.scaled(1.0)
        for mine, theirs in (
            (other.self_seconds, out.self_seconds),
            (other.total_seconds, out.total_seconds),
            (other.counts, out.counts),
        ):
            for key, value in mine.items():
                theirs[key] += value
        out.attributed += other.attributed
        return out


class Recorder:
    """A stack of open spans folded into an :class:`Aggregate` on close.

    ``layer`` groups keys for :meth:`inside`: an outermost-only wrapper
    (estimators, data generators) skips opening a span when its layer is
    already active, so a nested call is neither timed twice nor counted
    twice - its time stays in the outer span's self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.agg = Aggregate()
        # Each frame: [key, layer, start, child_seconds].
        self._stack: list[list[Any]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def enter(self, key: str, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([key, layer, self.clock(), 0.0])

    def exit(self) -> None:
        key, layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self._depth[layer] -= 1
        self.agg.self_seconds[key] += duration - child
        self.agg.total_seconds[key] += duration
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.agg.attributed += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.agg.counts[key] += amount

    def take(self) -> Aggregate:
        """Return the aggregate so far and start a fresh one."""
        if self._stack:
            raise RuntimeError("cannot take an aggregate while spans are open")
        agg, self.agg = self.agg, Aggregate()
        return agg

    def wrap(
        self,
        fn: Callable[..., Any],
        key: str | Callable[[tuple, dict], str],
        layer: str,
        *,
        outermost: bool = False,
        counter: Callable[["Recorder", tuple, dict, Any], None] | None = None,
        materialize: bool = False,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around ``fn``.

        ``key`` is the span name or a function of the call's arguments;
        ``counter`` is called with the result of every spanned call.
        ``materialize`` is for functions returning a generator: the span
        then covers consuming it, and the caller receives a list.
        """
        key_of = key if callable(key) else (lambda args, kwargs: key)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if outermost and self.inside(layer):
                return fn(*args, **kwargs)
            self.enter(key_of(args, kwargs), layer)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self.exit()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper


def find_global_sites(
    fn: Callable[..., Any], module_prefixes: Iterable[str]
) -> list[tuple[Any, str]]:
    """Every ``(module, name)`` whose global currently refers to ``fn``.

    This is where callers look the name up: ``from x import f`` binds a
    global in the importing module, so patching only ``x.f`` would miss it.
    """
    prefixes = tuple(module_prefixes)
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(prefixes):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, name))
    return sites


class Patch:
    """A reversible set of attribute and mapping replacements."""

    def __init__(self) -> None:
        self._edits: list[tuple[Any, str, Any, Any]] = []

    def set_attr(self, owner: Any, name: str, replacement: Any) -> None:
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._edits.append((owner, name, original, replacement))

    def set_item(self, mapping: dict, key: str, replacement: Any) -> None:
        self._edits.append((mapping, key, mapping[key], replacement))

    def _assign(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def apply(self) -> None:
        for owner, name, _original, replacement in self._edits:
            self._assign(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original, _replacement in reversed(self._edits):
            self._assign(owner, name, original)
