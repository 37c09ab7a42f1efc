"""Span recorder, probe installation and the arithmetic the benchmark reports.

The benchmark never edits the program under test.  It measures by
replacing the public entry points of each layer (functions and class
methods of the ``repro`` package) with thin wrappers for the duration of
one training episode, then putting the originals back.

* :class:`Tracer` keeps spans in memory: name, start, end, parent span
  and round id, on one stack (the executor is serial, so spans nest).
* :func:`install` swaps wrappers in.  A function imported by name into
  several modules (``from repro.autograd import matmul``) is replaced in
  every ``repro`` module and class that holds the same object, so every
  call site goes through the wrapper.  :meth:`Installed.restore` undoes
  each replacement.
* :func:`self_times`, :func:`round_profile`, :func:`tail_percentile`
  and :func:`digest` are the pure pieces the report is built from;
  ``perfbench/tests`` pins them.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Observer = Callable[[tuple, dict, Any], None]


@dataclass(slots=True)
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    round: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span stack on the benchmark's own clock.

    Spans are kept column-wise in lists of plain numbers and strings, so
    hundreds of thousands of them add no objects for the garbage
    collector to scan while the program runs.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rounds: List[Optional[int]] = []
        self._stack: List[int] = []
        self.round: Optional[int] = None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        now = self.clock()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._stack.pop()
        self.ends[idx] = now

    @property
    def spans(self) -> List[Span]:
        return [
            Span(*row)
            for row in zip(self.names, self.starts, self.ends, self.parents, self.rounds)
        ]


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap.

    ``owner`` is a module or class and ``attr`` the name of the function
    on it.  ``span`` names the span recorded per call (``None`` records
    none); ``observe(args, kwargs, result)`` runs after each call that
    returns.
    """

    owner: Any
    attr: str
    span: Optional[str] = None
    observe: Optional[Observer] = None


def _wrap(fn: Callable, tracer: Tracer, probe: Probe) -> Callable:
    name, observe = probe.span, probe.observe
    if name is None:

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        return observed

    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return traced


def _holders(fn: Callable) -> List[Tuple[Any, str]]:
    """Every ``repro`` module or class attribute that is ``fn`` itself."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is fn:
                        found.append((value, cattr))
    return found


@dataclass
class Installed:
    """The replacements one :func:`install` made, for :meth:`restore`."""

    replaced: List[Tuple[Any, str, Any]]

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []


def install(probes: Sequence[Probe], tracer: Tracer) -> Installed:
    """Wrap every probe's function wherever the program can reach it.

    Raises when a probe's target is missing, so a renamed entry point
    fails the benchmark instead of going unmeasured.
    """
    done = Installed([])
    try:
        for probe in probes:
            original = vars(probe.owner).get(probe.attr)
            if original is None:
                raise AttributeError(f"{probe.owner!r} has no attribute {probe.attr!r}")
            wrapper = _wrap(original, tracer, probe)
            holders = _holders(original) if not isinstance(probe.owner, type) else []
            if (probe.owner, probe.attr) not in holders:
                holders.append((probe.owner, probe.attr))
            for owner, attr in holders:
                done.replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
    except BaseException:
        done.restore()
        raise
    return done


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping or out-of-range children are never subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(sp.duration - covered)
    return out


def nearest_ancestor(spans: Sequence[Span], idx: int, names: Dict[str, str]) -> Optional[str]:
    """``names[span.name]`` of the closest enclosing span listed in ``names``."""
    parent = spans[idx].parent
    while parent >= 0:
        label = names.get(spans[parent].name)
        if label is not None:
            return label
        parent = spans[parent].parent
    return None


def tail_percentile(values: Sequence[float], beyond: int = 10) -> Tuple[int, float, int]:
    """The highest whole percentile with at least ``beyond`` samples above its rank.

    Nearest-rank definition: percentile ``p`` is the sample at rank
    ``ceil(p·n/100)`` of the sorted values.  Returns ``(p, value,
    samples beyond it)``; needs more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(values)
    p = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1], n - rank


def round_profile(episodes: Sequence[Sequence[float]]) -> List[float]:
    """Each measured round's time replaced by its round's median over the episodes.

    Every episode of a run repeats the same trajectory, so round ``r``
    does the same work in each; the median of round ``r`` across the
    episodes is its cost with a passing slowdown of the machine taken
    out.  The result keeps one value per measured round (the profile
    repeated once per episode), so a percentile over it counts rounds
    exactly as one over the raw times would.
    """
    if not episodes:
        raise ValueError("round profile of no episodes")
    lengths = {len(ep) for ep in episodes}
    if len(lengths) != 1:
        raise ValueError(f"episodes differ in length: {sorted(lengths)}")
    profile = [median(column) for column in zip(*episodes)]
    return profile * len(episodes)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def digest(history, final_test_acc: float) -> str:
    """SHA-256 of the deterministic metrics at 10 significant digits.

    Same formatting as the golden-history regression test (each record's
    ``metrics_dict`` keys sorted, ``{key}={value:.10e}``), plus the
    restored model's test accuracy.
    """
    lines = []
    for rec in history.records:
        metrics = rec.metrics_dict()
        lines.append(",".join(f"{key}={float(metrics[key]):.10e}" for key in sorted(metrics)))
    lines.append(f"final_test_acc={float(final_test_acc):.10e}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
