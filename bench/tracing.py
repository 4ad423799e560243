"""In-memory span tracer for the benchmark's layer boundaries.

A span is (name, start, end, parent, op, failed). Spans are opened by
wrappers that the benchmark installs on the module attributes through which
the package calls its own public functions (``vsckinetics.config.propagate``
and so on), so the package itself is never edited. Spans stay in memory and
are written out once, when the run ends.

Only the standard library is imported here: the fresh-process CLI helper
loads this module before it times ``import vsckinetics.cli``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Layer name -> (module that defines the function, function name). The layer
# names follow the package's modules; ``import.vsckinetics_cli`` and
# ``interpreter.*`` are spans the benchmark opens itself.
LAYERS: Dict[str, Tuple[str, str]] = {
    "cli.main": ("vsckinetics.cli", "main"),
    "config.load_config": ("vsckinetics.config", "load_config"),
    "config.run_scenario": ("vsckinetics.config", "run_scenario"),
    "eigenmodes.build_mode_basis": ("vsckinetics.eigenmodes", "build_mode_basis"),
    "states.enumerate_states": ("vsckinetics.states", "enumerate_states"),
    "states.initial_distribution": ("vsckinetics.states", "initial_distribution"),
    "rates.assemble_rate_matrix": ("vsckinetics.rates", "assemble_rate_matrix"),
    "propagate.propagate": ("vsckinetics.propagate", "propagate"),
    "config.export": ("vsckinetics.config", "export"),
}
IMPORT_LAYER = "import.vsckinetics_cli"
# A fresh CLI process outside any package call: spawn until the script's
# first line runs, and from its last line until the parent sees it exit.
START_LAYER = "interpreter.start"
EXIT_LAYER = "interpreter.exit"
REPORTED_LAYERS: Tuple[str, ...] = (START_LAYER, EXIT_LAYER, IMPORT_LAYER) + tuple(LAYERS)


def _count_propagate(tracer: "Tracer", args, trajectory) -> None:
    tracer.add("propagate.grid_points", len(trajectory.grid.points))
    tracer.maximum("propagate.state_dim_max", len(trajectory.states))


def _count_rates(tracer: "Tracer", args, rate_matrix) -> None:
    m = rate_matrix.matrix
    tracer.add("rates.nonzero_rates", int((m != 0).sum() - (m.diagonal() != 0).sum()))


def _count_export(tracer: "Tracer", args, paths) -> None:
    tracer.add("config.export_bytes", sum(os.path.getsize(p) for p in paths))


# Work counted at the layer boundary, after the span has closed.
WORK_COUNTERS: Dict[str, Callable] = {
    "propagate.propagate": _count_propagate,
    "rates.assemble_rate_matrix": _count_rates,
    "config.export": _count_export,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    op: Optional[int]  # op id; None for set-up
    failed: bool = False


class Tracer:
    """Records nested spans and work counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), float("nan"), parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = self.clock()
            self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + value

    def maximum(self, counter: str, value: float) -> None:
        self.counts[counter] = max(self.counts.get(counter, value), value)

    def adopt(self, spans: Iterable[dict], parent: Optional[int]) -> None:
        """Append spans recorded by another process under ``parent``.

        Their times must come from the same monotonic clock; their parent
        indices are relative to the list they arrive in.
        """
        offset = len(self.spans)
        for raw in spans:
            local_parent = raw["parent"]
            self.spans.append(
                Span(
                    raw["name"],
                    raw["start"],
                    raw["end"],
                    parent if local_parent is None else local_parent + offset,
                    self.op,
                    raw["failed"],
                )
            )

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``after(tracer, args, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, hooks: Optional[Dict[str, Callable]] = None) -> List[str]:
        """Wrap every attribute of a loaded ``vsckinetics`` module that is one
        of the LAYERS functions. Returns the layers whose function was found;
        a layer whose function is gone simply records no calls."""
        hooks = hooks or {}
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vsckinetics" and m]
        found = []
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            found.append(layer)
            wrapper = self.wrap(layer, original, hooks.get(layer))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        return found

    def uninstall(self) -> None:
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()

    def to_json(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: Sequence[Span], wall: float, layers: Iterable[str] = REPORTED_LAYERS) -> Dict[str, float]:
    """calls, self_s, share (self time / wall), p50_ms and failed per layer."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for layer in layers:
        picked = [i for i, s in enumerate(spans) if s.name == layer]
        durations = sorted(spans[i].end - spans[i].start for i in picked)
        self_s = sum(own[i] for i in picked)
        out[f"{layer}.calls"] = len(picked)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall if wall > 0 else 0.0
        out[f"{layer}.p50_ms"] = 1e3 * _median(durations) if durations else 0.0
        out[f"{layer}.failed"] = sum(1 for i in picked if spans[i].failed)
    return out


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    return sorted_values[mid] if n % 2 else 0.5 * (sorted_values[mid - 1] + sorted_values[mid])
