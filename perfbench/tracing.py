"""Per-layer tracing of frvkit from outside the library.

A :class:`Tracer` wraps, for the span of one ``with`` block,

- every public function defined in a layer module, rebound under every name
  that any ``frvkit`` module namespace holds it by (``cli`` imports
  ``audit`` from ``axioms``, ``frvkit`` re-exports nearly everything);
- the ``__post_init__`` of every public dataclass in a layer module, which
  is where constructors validate;
- ``ConditionalKernel.prob``, counted only while ``find_mediator`` runs;
- ``fractions.Fraction.__new__``, counted.

Spans record name, start, end and parent; every span stays in memory, six
integers in one flat array, and all are written out once the run ends.
Nothing in ``src/`` is edited, and leaving the block puts every original
object back.

The metrics count only what happens inside ops, not the output checks or
calibrations between them (spans outside an op have op -1).  Their times
are wall times, not scaled to reference speed as the end-to-end times are
(see ``harness.py``): the wrapped ``Fraction.__new__`` slows the calibration
kernel too, so scaling would hide the tracing overhead.
"""

from __future__ import annotations

import fractions
import inspect
from array import array
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "core",
    "measures",
    "markov",
    "axioms",
    "constructions",
    "generators",
    "documents",
    "cli",
)

# Constructor checks of the exact core types (the ``core.validate_ms`` metric).
CORE_VALIDATORS = tuple(
    f"core.{cls}.__post_init__"
    for cls in ("SampleSpace", "FiniteRandomVariable", "JointTable", "MeasurePreservingMap")
)
SEARCH = "markov.find_mediator"
AXIOM_CHECKS = (
    "continuity",
    "strong_additivity",
    "symmetry",
    "pullback_invariance",
    "weak_functoriality",
    "vacuity",
)

SPAN_FIELDS = ["id", "name", "start_ns", "end_ns", "parent", "op"]

# Name and unit of every per-layer metric, in report order.
LAYER_METRICS = (
    *((f"{layer}.calls", "calls/op") for layer in LAYERS),
    *((f"{layer}.self_ms", "ms/op") for layer in LAYERS),
    ("core.validate_ms", "ms/op"),
    ("fractions.created", "count/op"),
    ("core.joint_cells", "cells/op"),
    ("measures.entropy_ms", "ms/op"),
    ("measures.entropy_terms", "terms/op"),
    ("measures.kernel_ms", "ms/op"),
    ("markov.search_ms", "ms/op"),
    ("markov.tests_per_cell", "lookups/cell"),
    ("axioms.corpus_ms", "ms/op"),
    ("axioms.corpus_builds", "count/op"),
    *((f"axioms.check_ms.{check}", "ms/op") for check in AXIOM_CHECKS),
    ("axioms.probe_ms", "ms/op"),
    ("documents.parse_ms", "ms/op"),
    ("documents.serialize_ms", "ms/op"),
    ("trace.overhead_ratio", "1"),
)


def _mediator_cells(args, kwargs, result) -> tuple:
    triple = args[0] if args else kwargs["t"]
    return "markov.cells", len(triple.z.alphabet) * len(triple.x.alphabet)


def _joint_cells(args, kwargs, result) -> tuple:
    return "core.joint_cells", len(args[0].cells)


def _entropy_terms(args, kwargs, result) -> tuple:
    # Entries handed to ``entropy``, exact zeros included: its loop length.
    distribution = args[0] if args else kwargs["distribution"]
    return "measures.entropy_terms", len(distribution)


# Counters read off a call once it has returned, keyed by span name.
AFTER_HOOKS = {
    SEARCH: _mediator_cells,
    "core.JointTable.__post_init__": _joint_cells,
    "measures.entropy": _entropy_terms,
}


def frvkit_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "frvkit" or name.startswith("frvkit."))
    ]


class Tracer:
    """Wraps the frvkit layers while active and aggregates what they did.

    Use as ``with Tracer() as tracer: ...``; call :meth:`begin_op` before
    each op and :meth:`end_op` after it.
    """

    def __init__(self):
        self.spans = array("q")  # per span: id, name index, start ns, end ns, parent id, op
        self.span_names = {}  # name -> name index
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> calls, incl ns, self ns
        self.counters = defaultdict(int)
        self.fractions_created = 0
        self._fractions = [0]  # Fraction.__new__ calls, in ops or not
        self._op_totals = defaultdict(lambda: [0, 0, 0])  # the current op's
        self._op_counters = defaultdict(int)
        self.search_depth = 0
        self.ops = 0
        self._stack = []  # [span id, start ns, ns covered by children]
        self._next_id = 0
        self._op = -1
        self._restore = []  # (owner, attribute, original object)

    # -- spans ---------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, covered = frame
        duration = end - start
        total = self._op_totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        name_index = self.span_names.setdefault(name, len(self.span_names))
        self.spans.extend((span_id, name_index, start, end, parent, self._op))

    def begin_op(self, index: int) -> None:
        self._op_totals.clear()
        self._op_counters.clear()
        self._op = index
        self._fractions_at_begin = self._fractions[0]
        self._op_frame = self._open()

    def end_op(self) -> None:
        self._close("op", self._op_frame)
        self._op = -1
        for name, op_total in self._op_totals.items():
            total = self.totals[name]
            for k, amount in enumerate(op_total):
                total[k] += amount
        for key, amount in self._op_counters.items():
            self.counters[key] += amount
        self.fractions_created += self._fractions[0] - self._fractions_at_begin
        self.ops += 1

    def _wrap(self, name: str, fn):
        tracer = self
        after = AFTER_HOOKS.get(name)
        search = name == SEARCH

        def traced(*args, **kwargs):
            frame = tracer._open()
            if search:
                tracer.search_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if search:
                    tracer.search_depth -= 1
                tracer._close(name, frame)
            if after is not None:
                key, amount = after(args, kwargs, result)
                tracer._op_counters[key] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- install / restore ---------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        modules = frvkit_modules()
        by_name = {module.__name__: module for module in modules}
        for layer in LAYERS:
            module = by_name[f"frvkit.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for holder in modules:
                        for held, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, held, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in obj.__dict__:
                    name = f"{layer}.{attr}.__post_init__"
                    self._set(obj, "__post_init__", self._wrap(name, obj.__dict__["__post_init__"]))

        kernel = by_name["frvkit.measures"].ConditionalKernel
        prob = kernel.__dict__["prob"]
        tracer = self

        def counted_prob(kernel_self, out, given):
            if tracer.search_depth:
                tracer._op_counters["markov.prob_lookups"] += 1
            return prob(kernel_self, out, given)

        self._set(kernel, "prob", counted_prob)

        new = fractions.Fraction.__dict__["__new__"].__func__
        created = self._fractions

        def counted_new(cls, *args, **kwargs):
            created[0] += 1
            return new(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def _inclusive_ms(self, *names: str) -> float:
        return sum(self.totals[name][1] for name in names if name in self.totals) / 1e6

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every metric of :data:`LAYER_METRICS`, per traced op."""
        ops = max(self.ops, 1)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for name, (count, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            calls[layer] += count
            self_ns[layer] += own
        cells = self.counters["markov.cells"]
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = calls[layer] / ops
            values[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
        values.update({
            "core.validate_ms": self._inclusive_ms(*CORE_VALIDATORS) / ops,
            "fractions.created": self.fractions_created / ops,
            "core.joint_cells": self.counters["core.joint_cells"] / ops,
            "measures.entropy_ms": self._inclusive_ms("measures.entropy") / ops,
            "measures.entropy_terms": self.counters["measures.entropy_terms"] / ops,
            "measures.kernel_ms": self._inclusive_ms("measures.conditional_kernel") / ops,
            "markov.search_ms": self._inclusive_ms(SEARCH) / ops,
            "markov.tests_per_cell": self.counters["markov.prob_lookups"] / cells if cells else 0.0,
            "axioms.corpus_ms": self._inclusive_ms("axioms.build_audit_corpus") / ops,
            "axioms.corpus_builds": self.totals["axioms.build_audit_corpus"][0] / ops,
            "axioms.probe_ms": self._inclusive_ms("axioms.characterization_probe") / ops,
            "documents.parse_ms": self._inclusive_ms(
                "documents.load_document", "documents.parse_instance_document") / ops,
            "documents.serialize_ms": self._inclusive_ms(
                "documents.instance_document", "documents.serialize_document") / ops,
            "trace.overhead_ratio": overhead_ratio,
        })
        for check in AXIOM_CHECKS:
            values[f"axioms.check_ms.{check}"] = self._inclusive_ms(f"axioms.check_{check}") / ops
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    @property
    def span_count(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON document: ``spans`` is the
        flat list of their :data:`SPAN_FIELDS`, ``name`` indexing ``names``.
        The list is written in chunks, so no copy of it is held as objects."""
        head = json.dumps({"fields": SPAN_FIELDS, "names": list(self.span_names)})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(head[:-1] + ', "spans": [')
            step = 6 * 10_000
            for start in range(0, len(self.spans), step):
                handle.write(("," if start else "") + ",".join(map(str, self.spans[start:start + step])))
            handle.write("]}\n")
