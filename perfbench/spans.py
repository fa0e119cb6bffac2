"""Spans around the calls into indmatch's public functions, recorded from
outside the library.

:class:`Tracer` replaces each function in :data:`TARGETS` at the module
attribute through which the pipeline looks it up (``pipeline.py`` and
``sparsify.py`` import names directly, so ``indmatch.pipeline.enumerate_triangles``
and ``indmatch.sparsify.enumerate_triangles`` are two targets) and puts the
originals back when the traced region ends. Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from indmatch import generators, graph, pipeline, sparsify


def _driver_tags(args, result) -> dict[str, Any]:
    passed = bool(result.attempt_stats) and result.attempt_stats[-1].outcome == "pass"
    return {
        "attempts": result.attempts,
        "bypassed": result.bypassed,
        "outcomes": [a.outcome for a in result.attempt_stats],
        "sampled": result.attempt_stats[-1].sampled if passed else 0,
    }


def _run_tags(args, result) -> dict[str, Any]:
    s = result.stats
    return {
        "match_size": s.match_size,
        "quotient_n": s.contracted_n,
        "quotient_dmax": s.contracted_max_degree,
        "quotient_triangles": s.contracted_triangles,
        "budget": s.budget,
    }


Tagger = Callable[[tuple, Any], dict[str, Any]]

# (module, attribute, span name, tagger). A tagger reads counts from the
# call's arguments and return value after the span has ended.
TARGETS: tuple[tuple[Any, str, str, Tagger | None], ...] = (
    (generators, "random_regular", "generators.generate", None),
    (generators, "projective_incidence_graph", "generators.generate", None),
    (graph, "write_edge_list", "graph.write_edge_list", None),
    (graph, "read_edge_list", "graph.read_edge_list", None),
    (pipeline, "prepare_pipeline", "pipeline.prepare", None),
    (pipeline, "run_prepared", "pipeline.run", _run_tags),
    (pipeline, "misra_gries_edge_color", "matching.color", lambda a, r: {"colors": r.num_colors}),
    (pipeline, "extract_matching", "matching.extract", None),
    (pipeline, "contract_matching", "matching.contract", lambda a, r: {"n": r.graph.n, "m": r.graph.m}),
    (pipeline, "enumerate_triangles", "graph.triangles", lambda a, r: {"n": a[0].n}),
    (pipeline, "sparsify_independent_set", "sparsify.driver", _driver_tags),
    (pipeline, "pull_back_matching", "matching.pull_back", None),
    (pipeline, "is_induced_matching", "graph.certify", None),
    (sparsify, "enumerate_triangles", "graph.triangles", lambda a, r: {"n": a[0].n}),
    (sparsify, "induced_subgraph", "graph.induce", None),
    (sparsify, "sample_vertices", "sparsify.sample", None),
    (sparsify, "break_triangles", "sparsify.break", None),
    (sparsify, "triangle_free_independent_set", "sparsify.greedy", lambda a, r: {"m": a[0].m}),
)

# Per-op self-time layers, and the layers that can run in set-up.
OP_LAYERS = (
    "graph.read_edge_list",
    "pipeline.prepare",
    "matching.color",
    "matching.extract",
    "matching.contract",
    "graph.triangles_quotient",
    "pipeline.run",
    "sparsify.driver_self",
    "sparsify.sample",
    "graph.induce",
    "graph.triangles_sample",
    "sparsify.break",
    "sparsify.greedy",
    "matching.pull_back",
    "graph.certify",
)
SETUP_LAYERS = (
    "generators.generate",
    "graph.write_edge_list",
    "pipeline.prepare",
    "matching.color",
    "matching.extract",
    "matching.contract",
    "graph.triangles_quotient",
)
OUTCOMES = ("vertex-count", "triangles", "edges")

# Unit of every per-layer metric a traced run reports, in report order.
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in OP_LAYERS},
    **{f"setup.{name}_s": "s" for name in SETUP_LAYERS},
    "matching.colors_used": "colors",
    "matching.match_size": "edges",
    "matching.quotient_n": "vertices",
    "matching.quotient_m": "edges",
    "matching.quotient_dmax": "degree",
    "graph.quotient_triangles": "triangles",
    "pipeline.triangle_budget": "triangles",
    "graph.triangles_quotient_calls": "calls",
    "sparsify.attempts_per_op": "attempts",
    "sparsify.pass_ratio": "ratio",
    "sparsify.bypass_share": "ratio",
    "sparsify.sampled_vertices": "vertices",
    "sparsify.remainder_edges": "edges",
    **{f"sparsify.outcome.{o}": "attempts" for o in OUTCOMES},
    "sparsify.bypass_im_size": "edges",
    "pipeline.greedy_im_size": "edges",
    "trace_overhead_frac": "ratio",
}


@dataclass(slots=True)
class Span:
    name: str
    op: int | None  # None for set-up
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    tags: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Records one span per call into a :data:`TARGETS` function while a
    region opened by :meth:`active` is running."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: int | None = None
        self._patches = [
            (module, attr, getattr(module, attr), name, tag)
            for module, attr, name, tag in TARGETS
        ]

    def _wrap(self, fn: Callable, name: str, tag: Tagger | None) -> Callable:
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._op, open_[-1] if open_ else None, perf_counter())
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if tag is not None:
                span.tags = tag(args, result)
            return result

        return traced

    @contextmanager
    def active(self, op: int | None) -> Iterator[None]:
        """Trace calls made inside the block as part of ``op`` (``None``
        for set-up); the original functions are back when it exits."""
        self._op = op
        for module, attr, original, name, tag in self._patches:
            setattr(module, attr, self._wrap(original, name, tag))
        try:
            yield
        finally:
            for module, attr, original, _, _ in self._patches:
                setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(m, a) is original for m, a, original, _, _ in self._patches)

    def dump(self) -> list[list[Any]]:
        return [[s.name, s.op, s.parent, s.start, s.end, s.tags] for s in self.spans]


def _layer(span: Span, quotient_n: int) -> str:
    if span.name == "graph.triangles":
        # Sampled subgraphs keep a share p < 0.1 of the quotient's vertices;
        # the prepare and budget checks, and the bypass path's break and
        # greedy guard, see (nearly) all of it.
        full = 2 * span.tags["n"] > quotient_n
        return "graph.triangles_quotient" if full else "graph.triangles_sample"
    if span.name == "sparsify.driver":
        return "sparsify.driver_self"
    return span.name


def layer_metrics(spans: list[Span], ops: int, count_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one set-up and ``ops`` traced ops.

    ``<layer>_s`` is the layer's self time (span minus its child spans)
    summed over the traced ops and divided by their number;
    ``setup.<layer>_s`` is the self time in the one traced set-up. Counts are taken over ops ``0..count_ops-1`` so that they are a
    function of the workload seed alone.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start

    def counted(name: str) -> list[dict[str, Any]]:
        # tags of set-up and of ops 0..count_ops-1; a call that raised has none
        return [
            s.tags for s in spans
            if s.name == name and s.tags and (s.op is None or s.op < count_ops)
        ]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    contract, run, color = (
        (counted(name) or [{}])[0]
        for name in ("matching.contract", "pipeline.run", "matching.color")
    )
    quotient_n = contract.get("n", 0)

    out = {f"{name}_s": 0.0 for name in OP_LAYERS}
    out.update({f"setup.{name}_s": 0.0 for name in SETUP_LAYERS})
    quotient_calls = 0
    for i, s in enumerate(spans):
        layer = _layer(s, quotient_n)
        self_time = s.end - s.start - child[i]
        if s.op is None:
            out[f"setup.{layer}_s"] += self_time
        else:
            out[f"{layer}_s"] += self_time / ops
            if layer == "graph.triangles_quotient" and s.op < count_ops:
                quotient_calls += 1

    drivers = counted("sparsify.driver")
    attempts = sum(t["attempts"] for t in drivers)
    outcomes = [o for t in drivers for o in t["outcomes"]]
    out.update(
        {
            "matching.colors_used": color.get("colors", 0),
            "matching.match_size": run.get("match_size", 0),
            "matching.quotient_n": quotient_n,
            "matching.quotient_m": contract.get("m", 0),
            "matching.quotient_dmax": run.get("quotient_dmax", 0),
            "graph.quotient_triangles": run.get("quotient_triangles", 0),
            "pipeline.triangle_budget": run.get("budget", 0.0),
            "graph.triangles_quotient_calls": quotient_calls / count_ops,
            "sparsify.attempts_per_op": mean([t["attempts"] for t in drivers]),
            "sparsify.pass_ratio": outcomes.count("pass") / attempts if attempts else 0.0,
            "sparsify.bypass_share": mean([float(t["bypassed"]) for t in drivers]),
            "sparsify.sampled_vertices": mean([t["sampled"] for t in drivers]),
            "sparsify.remainder_edges": mean([t["m"] for t in counted("sparsify.greedy")]),
        }
    )
    for outcome in OUTCOMES:
        out[f"sparsify.outcome.{outcome}"] = outcomes.count(outcome) / count_ops
    return out
