"""Workloads, timed loop and output checks of the indmatch benchmark.

The loop is closed with one caller in one thread: the next op is issued
only after the previous one has returned, which is how a script or
``indmatch run`` / ``indmatch experiment`` drives the library. The graph and
the per-op pipeline seeds derive from the workload seed through ``mix64``;
the library only receives the generated inputs.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from indmatch import generators, pipeline
from indmatch import graph as graph_mod
from indmatch.graph import Graph
from indmatch.seeds import mix64
from indmatch.sparsify import RetriesExhausted, TriangleBudgetExceeded

from spans import PER_LAYER_UNITS, Tracer, layer_metrics

CONFIG = pipeline.PipelineConfig()


@dataclass(frozen=True)
class Workload:
    """``mode`` says what one op is:

    - ``sweep``: the graph is prepared in set-up, one op runs one seed
      (sampled sparsify path on every op);
    - ``file``: read the edge list written in set-up, solve, check, write
      the certificate file (bypass path, file I/O, a large certificate).
    """

    name: str
    mode: str
    n: int = 0  # random-regular size; 0 selects the projective family
    d: int = 0
    q: int = 0
    # Every run completes at least this many ops; the digest, im_size_p50
    # and the per-layer counts cover exactly these ops.
    digest_ops: int = 2
    greedy_reference: bool = True
    # setup_s is the median of this many set-ups in an untraced run.
    setup_repeats: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        # The projective graph does not depend on the seed, so fewer set-ups
        # give as steady a median.
        Workload("sweep-proj", "sweep", q=31, digest_ops=200, setup_repeats=3),
        # greedy_induced_matching rescans from vertex 0 after every pick and
        # takes seconds at this size, so its reference count is skipped.
        Workload("sparse-file", "file", n=100_000, d=4, greedy_reference=False),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "im_size_p50": "edges",
    "peak_rss_mb": "MB",
}


def check_certificate(g: Graph, matching) -> str | None:
    """Independent induced-matching check; returns the first problem found,
    or ``None`` when ``matching`` is an induced matching of ``g``.

    Written here rather than calling ``is_induced_matching``, which is a
    measured layer and resolves negative ids by Python indexing.
    """
    owner: dict[int, int] = {}
    for idx, (u, v) in enumerate(matching):
        for x in (u, v):
            if not (isinstance(x, int) and 0 <= x < g.n):
                return f"edge {idx}: id {x!r} outside [0, {g.n})"
        if u == v:
            return f"edge {idx}: endpoints coincide"
        if u in owner or v in owner:
            return f"edge {idx}: shares an endpoint with another edge"
        if v not in g.adjacency[u]:
            return f"edge {idx}: ({u}, {v}) is not an edge of the graph"
        owner[u] = owner[v] = idx
    for x, idx in owner.items():
        for w in g.adjacency[x]:
            other = owner.get(w)
            if other is not None and other != idx:
                return f"edges {idx} and {other} are joined by host edge ({x}, {w})"
    return None


def certificate_text(matching) -> str:
    """The certificate file body written by ``indmatch run --out``."""
    return "".join(f"{u} {v}\n" for u, v in matching)


@dataclass
class Setup:
    graph: Graph
    prep: pipeline.PreparedPipeline | None = None
    edge_list: Path | None = None


def set_up(w: Workload, seed: int, graph_index: int, workdir: Path) -> Setup:
    if w.n:
        g = generators.random_regular(w.n, w.d, mix64(seed, w.name, "graph", graph_index))
    else:
        g = generators.projective_incidence_graph(w.q)
    s = Setup(g)
    if w.mode == "sweep":
        s.prep = pipeline.prepare_pipeline(g, CONFIG)
    elif w.mode == "file":
        s.edge_list = workdir / "graph.txt"
        graph_mod.write_edge_list(g, s.edge_list)
    return s


@dataclass
class OpOutput:
    graph: Graph
    prep: pipeline.PreparedPipeline
    result: pipeline.InducedMatchingResult
    certificate: str
    problem: str | None


def run_op(w: Workload, s: Setup, op_seed: int, workdir: Path) -> OpOutput:
    """One timed op. Library calls go through module attributes so that a
    traced op reaches the wrapped functions."""
    if w.mode == "sweep":
        g, prep = s.graph, s.prep
    else:
        g = graph_mod.read_edge_list(s.edge_list)
        prep = pipeline.prepare_pipeline(g, CONFIG)
    result = pipeline.run_prepared(prep, op_seed)
    problem = check_certificate(g, result.matching)
    text = certificate_text(result.matching)
    if w.mode == "file":
        (workdir / "certificate.txt").write_text(text, encoding="utf-8")
    return OpOutput(g, prep, result, text, problem)


@dataclass
class Side:
    """Outcomes of the ops run with or without tracing."""

    latencies: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)  # of ops 0..digest_ops-1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record(self, i: int, w: Workload, latency: float, out: OpOutput | None) -> None:
        self.latencies.append(latency)
        if out is None or out.problem is not None:
            self.failed += 1
        if out is not None and out.problem is not None:
            self.problems.append(f"op {i}: {out.problem}")
        if i < w.digest_ops:
            self.digest.update(f"op {i}\n".encode())
            self.digest.update(b"failed\n" if out is None else out.certificate.encode())
            if out is not None and out.problem is None:
                self.sizes.append(out.result.size)


def _timed_op(
    w: Workload, s: Setup, i: int, seed: int, workdir: Path, side: Side, tracer: Tracer | None
) -> OpOutput | None:
    gc.collect()
    out = None
    with tracer.active(i) if tracer else nullcontext():
        start = perf_counter()
        try:
            out = run_op(w, s, mix64(seed, w.name, "op", i), workdir)
        except (RetriesExhausted, TriangleBudgetExceeded):
            pass
        latency = perf_counter() - start
    side.record(i, w, latency, out)
    return out


def _references(w: Workload, out: OpOutput, problems: list[str]) -> dict[str, float]:
    """Reference quality counts: host greedy, and the bypass path forced by
    an unbounded degree cutoff on the same prepared pipeline."""
    bypass_config = dataclasses.replace(CONFIG, degree_cutoff=10**9)
    bypass = pipeline.run_prepared(dataclasses.replace(out.prep, config=bypass_config), 0)
    references = {"sparsify.bypass_im_size": bypass.matching}
    if w.greedy_reference:
        references["pipeline.greedy_im_size"] = pipeline.greedy_induced_matching(out.graph)
    refs = {"pipeline.greedy_im_size": 0.0}
    for name, matching in references.items():
        refs[name] = float(len(matching))
        problem = check_certificate(out.graph, matching)
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return refs


@dataclass
class Report:
    lines: list[str]
    result: dict
    spans: list | None = None


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    """Set up, then run ops until ``seconds`` have passed and at least
    ``w.digest_ops`` ops are done. A traced run runs each op twice on the
    same inputs, untraced and then traced, and reports per-layer metrics."""
    tracer = Tracer() if trace else None
    # Set-up cost depends on the graph seed (the pairing model restarts), so
    # setup_s is a median over set-ups of graphs 1..w.setup_repeats-1, each
    # dropped, and of graph 0, which the ops use in every run.
    setup_times = []
    for k in range(0 if trace else w.setup_repeats - 1, -1, -1):
        s = None
        gc.collect()
        with tracer.active(None) if tracer else nullcontext():
            start = perf_counter()
            s = set_up(w, seed, k, workdir)
            setup_times.append(perf_counter() - start)

    plain, traced = Side(), Side()
    refs: dict[str, float] = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < w.digest_ops or perf_counter() < deadline:
        out = _timed_op(w, s, i, seed, workdir, plain, None)
        if tracer and i == 0 and out is not None:
            refs = _references(w, out, plain.problems)
        out = None  # dropped before the next op's gc.collect()
        if tracer:
            _timed_op(w, s, i, seed, workdir, traced, tracer)
        i += 1

    problems = plain.problems + traced.problems
    lines = [
        f"workload {w.name}  seed {seed}  trace {int(trace)}  ops {i}  "
        f"digest over ops 0..{w.digest_ops - 1}: {plain.digest.hexdigest()}"
    ]
    lat = plain.latencies
    attempted = len(lat) + len(traced.latencies)
    failed = plain.failed + traced.failed
    lines.append(f"fail_frac {failed / attempted} ratio ({failed} of {attempted} ops)")
    if trace:
        correct = not problems and traced.digest.digest() == plain.digest.digest() and tracer.restored()
        lines.append(f"traced digest {traced.digest.hexdigest()}")
        metrics = layer_metrics(tracer.spans, len(traced.latencies), w.digest_ops)
        metrics.update(refs)
        metrics["trace_overhead_frac"] = (
            statistics.median(traced.latencies) / statistics.median(lat) - 1
        )
        if not w.greedy_reference:
            lines.append("pipeline.greedy_im_size not recorded on this workload (0)")
        op_mean = statistics.fmean(traced.latencies)
        metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
        for name, value in metrics.items():
            share = ""
            if name.endswith("_s") and not name.startswith("setup."):
                share = f"  {100 * value / op_mean:5.1f}% of a traced op"
            lines.append(f"  {name:34s} {value:.6g} {PER_LAYER_UNITS[name]}{share}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}
    else:
        correct = not problems
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": _quantile90(lat),
            "ops_per_s": len(lat) / sum(lat),
            "im_size_p50": statistics.median(plain.sizes) if plain.sizes else 0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        counts = {
            "setup_s": f"median of {len(setup_times)} set-ups, one per graph seed",
            "im_size_p50": f"{len(plain.sizes)} samples",
            "peak_rss_mb": "whole process",
        }
        for name, value in metrics.items():
            note = counts.get(name, f"{len(lat)} samples")
            lines.append(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}  ({note})")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    lines.extend(f"certificate problem: {p}" for p in problems)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return Report(lines, result, tracer.dump() if tracer else None)
