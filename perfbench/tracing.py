"""In-memory span tracer installed around the library's public functions.

The tracer rebinds each traced function on every ``whitefact`` module that
holds it (``whitefact.autos.reduce_to_base`` as well as
``whitefact.reduction.reduce_to_base``), so calls between modules are seen
too.  Nothing under ``src/`` changes.

A span is (index, name, start_ns, end_ns, parent index, request id).  Spans
nest strictly, since one thread runs everything, so a layer's self time is
its span time minus the time of its direct child spans, accumulated as the
spans close.  Aggregates cover every span; only the first ``SPAN_CAP``
spans are kept for the span file, and the rest are counted as dropped.
The wrappers are in place only inside ``installed()``, so untraced passes
run the library's own functions.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

SPAN_CAP = 100_000

# (module, attribute, span name); FactorSystem methods are counted, not spanned.
SPANNED = [
    ("whitefact.words", "normal_form", "words.normal_form"),
    ("whitefact.tree", "distance", "tree.distance"),
    ("whitefact.tree", "geodesic", "tree.geodesic"),
    ("whitefact.labellings", "volume", "labellings.volume"),
    ("whitefact.labellings", "star_equivalent", "labellings.star_equivalent"),
    ("whitefact.labellings", "apex_equivalent", "labellings.apex_equivalent"),
    ("whitefact.reduction", "reduce_to_base", "reduction.reduce_to_base"),
    ("whitefact.reduction", "find_fold", "reduction.find_fold"),
    ("whitefact.autos", "factorize", "autos.factorize"),
    ("whitefact.autos", "verify_factorization", "autos.verify_factorization"),
    ("whitefact.autos", "evaluate_factorization", "autos.evaluate_factorization"),
    ("whitefact.autos", "compose", "autos.compose"),
    ("whitefact.explorer", "enumerate_ball", "explorer.enumerate_ball"),
    ("whitefact.explorer", "check_ball", "explorer.check_ball"),
]
COUNTED = [
    ("whitefact.words", "word_mul", "words.word_mul"),
]
COUNTED_METHODS = [
    ("whitefact.factors", "FactorSystem", "mul", "factors.mul"),
    ("whitefact.factors", "FactorSystem", "inverse", "factors.inverse"),
]
# Stage spans opened by the benchmark's request runner, not by a wrapper.
STAGES = ("jsonio.decode", "jsonio.encode")


class Tracer:
    def __init__(self):
        self.active = False
        self.request = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack: list[list] = []  # [index, name id, start, child ns]
        self.opened = 0
        self.spans = array("q")
        self.dropped = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> list:
        frame = [self.opened, name_id, 0, 0]
        self.opened += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        index, name_id, start, child = frame
        duration = end - start
        self.calls[name_id] += 1
        self.self_ns[name_id] += duration - child
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        if len(self.spans) < 6 * SPAN_CAP:
            self.spans.extend((index, name_id, start, end, parent, self.request))
        else:
            self.dropped += 1

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark's own code, such as a request stage."""
        frame = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(frame)

    def inside(self, name: str) -> bool:
        target = self._ids.get(name)
        return any(frame[1] == target for frame in self._stack)

    def span(self, name: str, fn, before=None, after=None):
        """Wrapper of fn recording one span per call while active.

        ``before(args)`` may replace the positional arguments (to measure
        them); ``after(args, result, error)`` records counts.
        """
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            frame = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                tracer.close(frame)
                if after is not None:
                    after(args, None, error)
                raise
            tracer.close(frame)
            if after is not None:
                after(args, result, None)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        hooks = _hooks(self)
        replaced = []
        for module_name, attribute, name in SPANNED:
            original = getattr(sys.modules[module_name], attribute)
            before, after = hooks.get(name, (None, None))
            replaced += _rebind(original, self.span(name, original, before, after))
        for module_name, attribute, name in COUNTED:
            original = getattr(sys.modules[module_name], attribute)
            replaced += _rebind(original, self.counter(name, original))
        for module_name, cls_name, attribute, name in COUNTED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = getattr(cls, attribute)
            setattr(cls, attribute, self.counter(name, original))
            replaced.append((cls, attribute, original))
        for name in STAGES:
            self.name_id(name)
        try:
            yield self
        finally:
            for owner, attribute, original in replaced:
                setattr(owner, attribute, original)

    def self_ms(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e6

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def write(self, path, about: dict) -> None:
        """Span file: one header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                **about,
                "fields": ["index", "name", "start_ns", "end_ns", "parent", "request"],
                "names": self.names,
                "dropped": self.dropped,
            }
            handle.write(json.dumps(header) + "\n")
            spans = self.spans
            for k in range(0, len(spans), 6):
                handle.write(json.dumps(spans[k : k + 6].tolist()) + "\n")


def _rebind(original, replacement) -> list:
    """Replace original on every whitefact module binding that holds it."""
    replaced = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "whitefact" or module_name.startswith("whitefact.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced.append((module, attribute, original))
    return replaced


def _hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def normal_form_before(args):
        system, letters = args
        if not hasattr(letters, "__len__"):
            letters = list(letters)
        counts["words.normal_form.syllables_in"] += len(letters)
        return (system, letters)

    def geodesic_after(args, result, error):
        if result is not None:
            counts["tree.geodesic.vertices_out"] += len(result)

    def star_after(args, result, error):
        counts["labellings.equiv_hits"] += result is not None

    def apex_after(args, result, error):
        counts["labellings.equiv_hits"] += bool(result)

    def reduce_after(args, result, error):
        from whitefact.errors import NonSplittingError

        if result is not None:
            counts["reduction.fold_moves"] += len(result[1])
        if isinstance(error, NonSplittingError):
            counts["reduction.nonsplitting"] += 1
        if tracer.inside("explorer.enumerate_ball"):
            counts["explorer.reduce_attempts"] += 1

    def enumerate_after(args, result, error):
        if result is not None:
            counts["explorer.alpha_kept"] += len(result.alpha_classes)

    return {
        "words.normal_form": (normal_form_before, None),
        "tree.geodesic": (None, geodesic_after),
        "labellings.star_equivalent": (None, star_after),
        "labellings.apex_equivalent": (None, apex_after),
        "reduction.reduce_to_base": (None, reduce_after),
        "explorer.enumerate_ball": (None, enumerate_after),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, keyed as in BENCHMARK.json."""
    counts = tracer.counts
    out = {}

    def count(name, value):
        out[name] = (value / passes, "count")

    def spanned(name, with_calls=True):
        if with_calls:
            count(f"{name}.calls", tracer.calls_of(name))
        out[f"{name}.self_ms"] = (tracer.self_ms(name) / passes, "ms")

    spanned("words.normal_form")
    count("words.normal_form.syllables_in", counts["words.normal_form.syllables_in"])
    count("words.word_mul.calls", counts["words.word_mul"])
    count("factors.mul.calls", counts["factors.mul"])
    count("factors.inverse.calls", counts["factors.inverse"])
    spanned("tree.distance")
    spanned("tree.geodesic")
    count("tree.geodesic.vertices_out", counts["tree.geodesic.vertices_out"])
    for name in ("volume", "star_equivalent", "apex_equivalent"):
        spanned(f"labellings.{name}")
    equiv_calls = tracer.calls_of("labellings.star_equivalent") + tracer.calls_of(
        "labellings.apex_equivalent"
    )
    out["labellings.equiv_hit_ratio"] = (_ratio(counts["labellings.equiv_hits"], equiv_calls), "ratio")
    spanned("reduction.reduce_to_base")
    spanned("reduction.find_fold")
    count("reduction.fold_moves", counts["reduction.fold_moves"])
    out["reduction.nonsplitting_ratio"] = (
        _ratio(counts["reduction.nonsplitting"], tracer.calls_of("reduction.reduce_to_base")),
        "ratio",
    )
    for name in ("factorize", "verify_factorization", "evaluate_factorization", "compose"):
        spanned(f"autos.{name}")
    spanned("explorer.enumerate_ball")
    spanned("explorer.check_ball")
    out["explorer.useful_ratio"] = (
        _ratio(counts["explorer.alpha_kept"], counts["explorer.reduce_attempts"]),
        "ratio",
    )
    spanned("jsonio.decode", with_calls=False)
    spanned("jsonio.encode", with_calls=False)
    return out
