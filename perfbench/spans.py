"""In-memory span recorder that wraps the package's public functions from outside.

The package has no tracing of its own, so the traced benchmark run replaces
selected public functions and methods with timing wrappers before the
workload starts.  Each call records one span: name, start, end and the span
that caused it.  A span opened on a thread with no open span of its own (the
prover server's handler, the experiment thread pool) takes as parent the
innermost open span of the thread that created the tracer, so the prover's
work inside a round counts as a child of ``run_verification`` and is not
charged to the verifier's self time.

A target that no longer exists (a later refactor renamed or removed it) is
listed in :attr:`Tracer.missing` and skipped; the run carries on.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "iqpverify"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` may be ``"name"`` or ``"Class.method"``.

    ``kind`` is ``"span"`` (timed span), ``"count"`` (call count only, for
    gate-level calls too frequent to time one by one) or ``"map"`` (a span
    around ``parallel_map`` that also times every mapped call).
    """

    module: str
    attr: str
    kind: str = "span"

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("protocol", "run_verification"),
    Target("protocol", "ChallengeMsg.from_program"),
    Target("protocol", "ChallengeMsg.encode"),
    Target("protocol", "ChallengeMsg.from_payload"),
    Target("protocol", "SamplesMsg.encode"),
    Target("protocol", "SamplesMsg.from_payload"),
    Target("protocol", "SamplesMsg.check_against"),
    Target("protocol", "SamplesMsg.to_vectors"),
    Target("protocol", "judge"),
    Target("protocol", "prover_honest"),
    Target("protocol", "prover_uniform"),
    Target("protocol", "prover_leak"),
    Target("evaluators", "evaluate"),
    Target("evaluators", "output_distribution"),
    Target("evaluators", "sample_outputs"),
    Target("evaluators", "all_correlations"),
    Target("evaluators", "correlation_clifford"),
    Target("evaluators", "correlation_subspace"),
    Target("evaluators", "correlation_diagonal"),
    Target("bitlin", "walsh_hadamard"),
    Target("bitlin", "add_column"),
    Target("keygen", "build_challenge"),
    Target("keygen", "search_main_part"),
    Target("keygen", "add_redundant_rows"),
    Target("keygen", "scramble"),
    Target("model", "partition"),
    Target("chform", "CHForm.apply_h"),
    Target("chform", "CHForm.apply_cx", kind="count"),
    Target("experiments", "exp_fig1b"),
    Target("experiments", "exp_anticoncentration"),
    Target("experiments", "parallel_map", kind="map"),
)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def summarize(spans) -> tuple[dict, dict]:
    """Per-name and per-(name, parent name) call counts, total and self time.

    ``spans`` holds ``(sid, name, parent_sid, start, end)`` records.  A span's
    self time is its duration minus the part of it that its children cover.
    """
    children = defaultdict(list)
    names = {}
    for sid, name, parent, start, end in spans:
        names[sid] = name
        if parent is not None:
            children[parent].append((start, end))
    by_name: dict[str, SpanStats] = defaultdict(SpanStats)
    by_parent: dict[tuple[str, str | None], SpanStats] = defaultdict(SpanStats)
    for sid, name, parent, start, end in spans:
        duration = end - start
        own = duration - covered(start, end, children.get(sid, ()))
        for stats in (by_name[name], by_parent[name, names.get(parent)]):
            stats.calls += 1
            stats.total += duration
            stats.self_time += own
    return by_name, by_parent


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maps: list[tuple[float, float, int]] = []  # wall, busy, threads
        self.wire: list[tuple[str, bytes]] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _stack_and_parent(self) -> tuple[list[int], int | None]:
        if threading.get_ident() == self._home:
            stack = self._home_stack
            return stack, (stack[-1] if stack else None)
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            return stack, stack[-1]
        try:
            return stack, self._home_stack[-1]
        except IndexError:
            return stack, None

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            stack, parent = self._stack_and_parent()
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, start, end))
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def mapper(self, name: str, fn: Callable) -> Callable:
        """Span around ``fn(func, items)`` that also times each ``func`` call."""

        def mapped(func, items):
            busy = []
            threads = set()

            def timed(item):
                start = time.perf_counter()
                try:
                    return func(item)
                finally:
                    busy.append(time.perf_counter() - start)
                    threads.add(threading.get_ident())

            start = time.perf_counter()
            result = fn(timed, items)
            self.maps.append((time.perf_counter() - start, sum(busy), len(threads)))
            return result

        return self.span(name, mapped)

    # -- hooks that turn return values into counts --------------------------

    def _after(self, target: Target) -> Callable | None:
        if target.attr == "output_distribution":
            return lambda table: self.count("dense_entries", 1 << table.n)
        if target.attr == "ChallengeMsg.encode":
            return lambda data: self._wire("to_prover", data)
        if target.attr == "SamplesMsg.encode":
            return lambda data: self._wire("to_verifier", data)
        return None

    def _wire(self, direction: str, data: bytes) -> None:
        self.count(f"bytes_{direction}", len(data))
        with self._lock:
            self.wire.append((direction, data))

    def take_wire(self) -> list[tuple[str, bytes]]:
        with self._lock:
            wire, self.wire = self.wire, []
        return wire

    # -- installing wrappers --------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.kind == "count":
            return self.counter(target.name, fn)
        if target.kind == "map":
            return self.mapper(target.name, fn)
        return self.span(target.name, fn, self._after(target))

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target; a target that cannot be found goes to ``missing``."""
        for target in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
                *owner_path, attr = target.attr.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.name)
                continue
            if owner_path:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patch(owner, attr, wrapped)
                continue
            # A module-level function is also reachable through every other
            # module of the package that imported it by name.
            wrapped = self._wrap(target, raw)
            for name, mod in list(sys.modules.items()):
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

