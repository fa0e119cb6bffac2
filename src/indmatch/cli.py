"""Command-line harness: generate corpora, run the pipeline, sweep
experiments, query the brute-force oracles, and verify certificates.

Exit codes: 0 success / valid certificate, 1 invalid certificate, 2 usage
error or out of memory, 3 algorithmic failure (``FAILURES``). All randomness
flows from ``--seed`` through the documented mixer, so identical
invocations produce byte-identical stdout and files; wall-clock timings go
to stderr only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from . import generators, oracle
from .graph import Graph, edge_line_columns, is_induced_matching, read_edge_list, write_edge_list
from .pipeline import (
    EmptyMatchingError,
    InducedMatchingResult,
    PipelineConfig,
    PreparedPipeline,
    prepare_pipeline,
    run_prepared,
)
from .seeds import mix64
from .sparsify import RetriesExhausted, TriangleBudgetExceeded

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_ALGORITHM = 3

# Each algorithmic failure and its ``experiment`` status; ``main`` exits
# EXIT_ALGORITHM on any of them.
FAILURES = {
    RetriesExhausted: "retries",
    TriangleBudgetExceeded: "triangle-budget",
    EmptyMatchingError: "empty-matching",
    generators.GenerationError: "generation",
}

# Frozen stats schema. ratio_ln uses the natural logarithm:
# size / ((n/d) * ln d), blank when max degree < 2. q holds the family
# parameter (q for the finite-geometry families, n for random-regular).
CSV_HEADER = (
    "family,q,n,d,match_size,gm_n,gm_triangles,gm_budget,attempts,"
    "im_size,ratio_ln,seed,status"
)


def _stats_row(
    family: str, param: str, seed: int, status: str,
    prep: PreparedPipeline | None, result: InducedMatchingResult | None,
) -> str:
    """One CSV row: n and d are the host's, 0 when preparation failed; the
    stats columns are blank without a result, whose ``prepared`` is ``prep``."""
    n, d = (prep.graph.n, prep.graph.degree_profile[1]) if prep is not None else (0, 0)
    if result is None:
        return f"{family},{param},{n},{d},,,,,,,,{seed},{status}"
    ratio = "" if result.ratio is None else f"{result.ratio:.6f}"
    return (
        f"{family},{param},{n},{d},{prep.match_size},{prep.contracted_n},"
        f"{prep.contracted_triangles},{prep.budget:.3f},{result.found.attempts},"
        f"{result.size},{ratio},{seed},{status}"
    )


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        B=args.B,
        epsilon=args.epsilon,
        degree_cutoff=args.d0,
        max_retries=args.max_retries,
    )


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    # defaults come from PipelineConfig and induced_matching, so the CLI and
    # the library agree
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--B", type=int, default=PipelineConfig.B, help="forbidden K_{B,B} parameter")
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="triangle-budget exponent; default derives 1/(2B)",
    )
    parser.add_argument(
        "--d0", type=int, default=PipelineConfig.degree_cutoff, help="degree cutoff that skips sampling"
    )
    parser.add_argument("--max-retries", type=int, default=PipelineConfig.max_retries)


def cmd_generate(args: argparse.Namespace) -> int:
    graph = generators.build_graph(
        args.family, q=args.q, n=args.n, d=args.d, seed=args.seed, name=args.name
    )
    write_edge_list(graph, args.out)
    lo, hi, regular = graph.degree_profile
    print(
        f"n={graph.n} m={graph.m} min_degree={lo} max_degree={hi} "
        f"regular={'true' if regular else 'false'}"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    config = _pipeline_config(args)
    start = time.monotonic()
    prep = prepare_pipeline(graph, config)
    result = run_prepared(prep, args.seed)
    elapsed = time.monotonic() - start
    edge_lines = "".join(f"{u} {v}\n" for u, v in result.matching)
    # write the certificate before printing, so a failed write prints nothing
    if args.out:
        Path(args.out).write_text(edge_lines, encoding="utf-8")
    status = "ok" if result.certificate else "invalid"
    print(edge_lines + CSV_HEADER)
    print(_stats_row("file", "", args.seed, status, prep, result))
    print(f"# wall_seconds={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK if result.certificate else EXIT_INVALID


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    params = [int(tok) for tok in args.q.split(",") if tok.strip()] if args.q else []
    if not params:
        raise ValueError("parameter list is empty; pass --q like 3,5,7")
    config = _pipeline_config(args)
    # an unwritable --out fails before any pipeline work, and a failed
    # sweep leaves an existing --out as it was
    if args.out:
        open(args.out, "a", encoding="utf-8").close()
    rows, summaries = _sweep(args, params, config)
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.write("".join(f"{line}\n" for line in rows + summaries))
    if args.out:
        for line in summaries:
            print(line)
    return EXIT_OK


def _sweep(
    args: argparse.Namespace, params: list[int], config: PipelineConfig
) -> tuple[list[str], list[str]]:
    """CSV rows (header first) and summary lines of an experiment sweep.

    Each failure in ``FAILURES`` becomes a row status; a parameter the
    family rejects raises ``ValueError``, so the sweep writes no row.
    """
    rows = [CSV_HEADER]
    summaries = []
    sweep_ratios: list[float] = []
    for param in params:
        ratios = []
        ok = 0
        try:
            graph_seed = mix64(args.seed, args.family, param, "graph")
            graph = generators.build_graph(
                args.family, q=param, n=param, d=args.d, seed=graph_seed
            )
            prep = prepare_pipeline(graph, config)
        except tuple(FAILURES) as exc:
            prep = None
            status = FAILURES[type(exc)]
        for trial in range(args.trials):
            seed = mix64(args.seed, args.family, param, trial)
            result = None
            if prep is not None:
                start = time.monotonic()
                try:
                    result = run_prepared(prep, seed)
                    status = "ok" if result.certificate else "invalid"
                except RetriesExhausted as exc:
                    status = FAILURES[type(exc)]
                print(
                    f"# timing param={param} trial={trial} "
                    f"seconds={time.monotonic() - start:.3f}",
                    file=sys.stderr,
                )
            if status == "ok":
                ok += 1
                if result.ratio is not None:
                    ratios.append(result.ratio)
            rows.append(_stats_row(args.family, str(param), seed, status, prep, result))
        sweep_ratios.extend(ratios)
        low, mid = (f"{min(ratios):.6f}", f"{statistics.median(ratios):.6f}") if ratios else ("", "")
        summaries.append(
            f"# summary family={args.family} q={param} trials={args.trials} "
            f"ok={ok} min_ratio={low} median_ratio={mid}"
        )

    if args.floor is not None:
        passed = bool(sweep_ratios) and min(sweep_ratios) >= args.floor
        summaries.append(f"# floor={args.floor:.6f} verdict={'PASS' if passed else 'FAIL'}")
    return rows, summaries


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _max_independent_set(graph: Graph, args: argparse.Namespace) -> str:
    size, witness = oracle.max_independent_set_bf(graph, limit=args.limit)
    return f"size={size}\nwitness=" + " ".join(str(v) for v in sorted(witness))


def _max_induced_matching(graph: Graph, args: argparse.Namespace) -> str:
    size, witness = oracle.max_induced_matching_bf(graph, limit=args.limit)
    return f"size={size}\nwitness=" + " ".join(f"{u}-{v}" for u, v in witness)


# Each oracle op and the function that gives its stdout from the graph and
# the parsed flags.
ORACLE_OPS = {
    "count-triangles": lambda graph, args: (
        f"triangles={oracle.count_triangles_bf(graph, limit=args.limit)}"
    ),
    "max-independent-set": _max_independent_set,
    "max-induced-matching": _max_induced_matching,
    "contains-kbb": lambda graph, args: (
        f"contains_k{args.B}{args.B}="
        + _flag(oracle.contains_kbb_bf(graph, args.B, limit=args.limit))
    ),
    "c4-free": lambda graph, args: (
        "c4_free=" + _flag(oracle.is_c4_free_bf(graph, limit=args.limit))
    ),
}


def cmd_oracle(args: argparse.Namespace) -> int:
    print(ORACLE_OPS[args.op](read_edge_list(args.graph), args))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    with open(args.certificate, encoding="utf-8") as text:
        us, vs, bad_lines = edge_line_columns(text)
    if bad_lines:
        print(f"line {bad_lines[0]}: expected two integers", file=sys.stderr)
        return EXIT_USAGE
    try:
        valid = is_induced_matching(graph, zip(us, vs))
    except ValueError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not valid:
        print("invalid certificate: not an induced matching", file=sys.stderr)
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indmatch",
        description="Certified induced matchings via matching contraction "
        "and triangle-sparse independent sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph in edge-list format")
    gen.add_argument("--family", required=True, choices=generators.FAMILIES)
    gen.add_argument("--q", type=int, default=None, help="prime field order")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--name", default=None, help="fixture name")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the pipeline on an edge-list file")
    run.add_argument("graph")
    _add_pipeline_flags(run)
    run.add_argument("--out", default=None, help="write the certificate (edges only) here")
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser("experiment", help="sweep a family and emit CSV stats")
    # a fixture has a name, not a size to sweep
    swept = [family for family, (needs, _, _) in generators.FAMILIES.items() if "name" not in needs]
    exp.add_argument("--family", required=True, choices=swept)
    exp.add_argument("--q", required=True, help="comma-separated parameter list (q, or n for random-regular)")
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--d", type=int, default=3, help="degree for random-regular sweeps (default 3)")
    _add_pipeline_flags(exp)
    exp.add_argument("--out", default=None)
    exp.add_argument("--floor", type=float, default=None, help="flag PASS/FAIL against this min-ratio floor")
    exp.set_defaults(func=cmd_experiment)

    orc = sub.add_parser("oracle", help="brute-force spot checks (small graphs)")
    orc.add_argument("--op", required=True, choices=ORACLE_OPS)
    orc.add_argument("graph")
    orc.add_argument("--B", type=int, default=2)
    orc.add_argument("--limit", type=int, default=None)
    orc.set_defaults(func=cmd_oracle)

    ver = sub.add_parser("verify", help="check a certificate file against a graph")
    ver.add_argument("graph")
    ver.add_argument("certificate")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RetriesExhausted):
            print("attempt,sampled,triangles,edges,outcome", file=sys.stderr)
            for a in exc.attempts:
                print(
                    f"{a.index},{a.sampled},{a.triangles},{a.edges},{a.outcome}",
                    file=sys.stderr,
                )
        return EXIT_ALGORITHM
    except MemoryError:
        # str(MemoryError()) is empty, so the line names the failure
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
