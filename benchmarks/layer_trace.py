"""Outside-in layer tracing: wrap nilpath's functions, time and count them.

The tracer replaces each traced function at every place it is bound — its
own module, every nilpath module that imported it by name, the package
namespace and module-level dicts such as ``cli._RENDERERS`` — so that
calls between modules are seen too. Each call becomes a span (id, parent
id, operation id, name, start, end) kept in memory; per-name totals of
calls, busy time and self time are kept alongside. Busy time excludes the
tracer's own bookkeeping; self time is busy time minus the busy time of
traced calls made inside it.

Generators (``iter_walks_from``) do their work in ``__next__``, so each
``__next__`` is timed as a span of the generator's name and its yields are
counted.

Work counters are functions of the arguments and results, computed
outside the timed region:

- ``gf2.mat_mul.row_xors``: set bits in the left factor, one row XOR each
  under the row-broadcast product.
- ``gf2.mat_mul.bytes_computed``: bytes of right-factor rows XORed,
  row_xors times the packed row width.
- ``walks.count_walks_parity.steps``: k, one recurrence step each.
- ``walks.count_walks_exact.cell_updates``: k times n.
- ``walks.enumerate_walks.walks_listed``: walks returned.
- ``walks.iter_walks_from.walks_yielded``: walks yielded.
- ``report.render.bytes``: UTF-8 bytes of rendered reports; the only
  count that may differ between runs, by the width of the elapsed time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

__all__ = ["TRACED", "COUNTERS", "INEXACT", "Tracer"]


def _mat_mul_counts(args: tuple, result: Any) -> dict[str, int]:
    a = args[0]
    xors = sum(row.bit_count() for row in a.rows)
    return {"row_xors": xors, "bytes_computed": xors * ((a.n + 7) // 8)}


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


# traced name -> (module, attribute, counter function or None)
TRACED: dict[str, tuple[str, str, Callable | None]] = {
    "cli.run": ("cli", "run", None),
    "report.render": ("report", "render_json", lambda a, kw, r: {"bytes": len(r.encode())}),
    "gf2.mat_mul": ("gf2", "mat_mul", lambda a, kw, r: _mat_mul_counts(a, r)),
    "gf2.mat_pow": ("gf2", "mat_pow", None),
    "gf2.nilpotency_index": ("gf2", "nilpotency_index", None),
    "walks.count_walks_parity": (
        "walks",
        "count_walks_parity",
        lambda a, kw, r: {"steps": _arg(a, kw, 3, "k")},
    ),
    "walks.count_walks_exact": (
        "walks",
        "count_walks_exact",
        lambda a, kw, r: {"cell_updates": _arg(a, kw, 3, "k") * _arg(a, kw, 0, "n")},
    ),
    "walks.enumerate_walks": (
        "walks",
        "enumerate_walks",
        lambda a, kw, r: {"walks_listed": len(r)},
    ),
    "walks.iter_walks_from": ("walks", "iter_walks_from", None),
    "walks.integer_adjacency_power": ("walks", "integer_adjacency_power", None),
    "proofcheck.classify": ("proofcheck", "classify", None),
    "proofcheck.reflect_class3": ("proofcheck", "reflect_class3", None),
    "proofcheck.class_census": ("proofcheck", "class_census", None),
    "proofcheck.theorem_check": ("proofcheck", "theorem_check", None),
    "proofcheck.find_naive_failure": ("proofcheck", "find_naive_failure", None),
    "charpoly.charpoly_path": ("charpoly", "charpoly_path", None),
}
# The three renderers share the report.render name and its byte counter.
_RENDER_ALIASES = ("render_text", "render_csv")
_GENERATORS = {"walks.iter_walks_from": "walks_yielded"}

# traced name -> {counter: unit}
COUNTERS = {
    "gf2.mat_mul": {"row_xors": "count", "bytes_computed": "bytes"},
    "walks.count_walks_parity": {"steps": "count"},
    "walks.count_walks_exact": {"cell_updates": "count"},
    "walks.enumerate_walks": {"walks_listed": "count"},
    "walks.iter_walks_from": {"walks_yielded": "count"},
    "report.render": {"bytes": "bytes"},
}
# Counters that need not repeat exactly: a report's elapsed time changes width.
INEXACT = {"report.render.bytes"}

MAX_SPANS = 50_000

_MODULES = ("nilpath", "nilpath.cli", "nilpath.report", "nilpath.gf2",
            "nilpath.walks", "nilpath.proofcheck", "nilpath.charpoly")


class Tracer:
    """Collects spans and per-name totals while installed.

    ``install()`` patches the package, ``uninstall()`` restores it. Spans
    past ``MAX_SPANS`` are counted in ``dropped_spans`` but not kept, so a
    long run stays small in memory; the totals stay exact.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id, op id, name, start, end]
        self.dropped_spans = 0
        self.op_id: int | None = None
        self.missing: list[str] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child busy, overhead at start, span]
        self._overhead = 0.0
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- timing -----------------------------------------------------------

    def _enter(self) -> list:
        # spans are kept in start order, so a kept span's parent is kept too
        record = None
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else None
            record = [self._next_id, parent, self.op_id, None, None, None]
            self.spans.append(record)
        else:
            self.dropped_spans += 1
        frame = [self._next_id, 0.0, self._overhead, record]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        busy = (t1 - t0) - (self._overhead - frame[2])
        self.busy[name] += busy
        self.self_time[name] += busy - frame[1]
        if self._stack:
            self._stack[-1][1] += busy
        if frame[3] is not None:
            frame[3][3:] = name, t0, t1

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            e0 = perf_counter()
            tracer.calls[name] += 1
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._leave(name, frame, t0, t1)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            if name in _GENERATORS:
                result = _TimedIterator(tracer, name, result)
            tracer._overhead += (t0 - e0) + (perf_counter() - t1)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in _MODULES]
        targets: dict[int, Callable] = {}
        self.missing = []
        for name, (module, attr, counter) in TRACED.items():
            names = (attr,) + (_RENDER_ALIASES if name == "report.render" else ())
            for a in names:
                fn = getattr(importlib.import_module(f"nilpath.{module}"), a, None)
                if fn is None:
                    self.missing.append(f"{module}.{a}")
                    continue
                targets[id(fn)] = self._wrap(name, fn, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in targets:
                    self._patch(mod.__dict__, key, targets[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in targets:
                            self._patch(value, k, targets[id(v)])

    def _patch(self, namespace: dict, key: str, wrapper: Callable) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


class _TimedIterator:
    """Times each ``__next__`` of a traced generator and counts its yields."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it: Any) -> None:
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        e0 = perf_counter()
        frame = tracer._enter()
        t0 = perf_counter()
        try:
            item = next(self._it)
        finally:
            t1 = perf_counter()
            tracer._leave(self._name, frame, t0, t1)
            tracer._overhead += (t0 - e0) + (perf_counter() - t1)
        tracer.counts[f"{self._name}.{_GENERATORS[self._name]}"] += 1
        return item
