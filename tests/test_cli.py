import hashlib
import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from indmatch import (
    PipelineConfig,
    generators,
    named_fixture,
    projective_incidence_graph,
    write_edge_list,
)
from indmatch.cli import CSV_HEADER, FAILURES, _pipeline_config, build_parser, main

from conftest import subprocess_env


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    write_edge_list(named_fixture("complete-2"), path)
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    write_edge_list(named_fixture("cycle-6"), path)
    return str(path)


def test_generate_projective(tmp_path):
    out_file = tmp_path / "g.txt"
    code, out, _ = run_cli(
        "generate", "--family", "projective", "--q", "3", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "26 52"
    assert "n=26 m=52" in out and "regular=true" in out


def test_generate_fixture(tmp_path):
    out_file = tmp_path / "p.txt"
    code, out, _ = run_cli(
        "generate", "--family", "fixture", "--name", "petersen", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "10 15"


def test_run_k2(k2_file):
    code, out, _ = run_cli("run", k2_file)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "0 1"
    assert lines[1] == CSV_HEADER
    assert lines[2].endswith(",ok")


def test_run_edgeless(tmp_path):
    path = tmp_path / "e.txt"
    write_edge_list(named_fixture("edgeless-4"), path)
    code, _, err = run_cli("run", str(path))
    assert code == 3
    assert "empty matching" in err


def test_zero_vertices_is_an_empty_matching(tmp_path):
    # the 0-vertex graph is edgeless, so it fails like any edgeless graph
    path = tmp_path / "zero.txt"
    path.write_text("0 0\n")
    assert run_cli("run", str(path)) == (3, "", "error: input graph has no edges; empty matching\n")
    code, out, err = run_cli(
        "experiment", "--family", "random-regular", "--q", "0,4", "--d", "0", "--trials", "1"
    )
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#") and l != CSV_HEADER]
    # n and d are the built graph's, though preparing it failed: the q=4
    # row reads 4,4,0 (it read 4,0,0 while a failed preparation zeroed them)
    assert [row[:4] for row in rows] == [["random-regular", q, q, "0"] for q in "04"]
    # blank stats columns, from match_size through ratio_ln
    assert [(row[4:11], row[-1]) for row in rows] == [([""] * 7, "empty-matching")] * 2


def test_run_then_verify_roundtrip(tmp_path):
    graph_file = tmp_path / "pg7.txt"
    write_edge_list(projective_incidence_graph(7), graph_file)
    cert_file = tmp_path / "cert.txt"
    code, _, _ = run_cli(
        "run", str(graph_file), "--seed", "1", "--out", str(cert_file)
    )
    assert code == 0
    code, out, _ = run_cli("verify", str(graph_file), str(cert_file))
    assert code == 0
    assert out.strip() == "valid"


def test_run_edgeless_quotient_above_epsilon_two(tmp_path):
    # K_{1,3}: the matching is one edge, so the quotient is a single vertex
    # with no edges, and its triangle budget is n * 0**(2 - epsilon)
    graph_file = tmp_path / "star.txt"
    graph_file.write_text("4 3\n0 1\n0 2\n0 3\n")
    cert_file = tmp_path / "s.txt"
    code, out, err = run_cli(
        "run", str(graph_file), "--epsilon", "2.5", "--out", str(cert_file)
    )
    assert code == 0, err
    assert out.splitlines()[0] == "0 1"
    code, out, _ = run_cli("verify", str(graph_file), str(cert_file))
    assert code == 0 and out.strip() == "valid"


def test_cli_defaults_are_the_config_defaults():
    assert _pipeline_config(build_parser().parse_args(["run", "g.txt"])) == PipelineConfig()


def test_verify_examples(c6_file, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("0 1\n3 4\n")
    assert run_cli("verify", c6_file, str(good))[0] == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n2 3\n")
    code, _, err = run_cli("verify", c6_file, str(bad))
    assert code == 1
    assert "not an induced matching" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run_cli("verify", c6_file, str(empty))[0] == 0

    # certificate lines end as edge-list lines do; blank lines are skipped
    for text in (b"0 1\r\n\r\n3 4\r\n", b"0 1\r\r3 4\r", b"\n0 1\n\n3 4"):
        endings = tmp_path / "endings.txt"
        endings.write_bytes(text)
        assert run_cli("verify", c6_file, str(endings)) == (0, "valid\n", ""), text

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0 1\nbogus line here\n")
    code, _, err = run_cli("verify", c6_file, str(malformed))
    assert code == 2
    assert "line 2" in err

    missing_edge = tmp_path / "missing.txt"
    missing_edge.write_text("0 2\n")
    code, _, err = run_cli("verify", c6_file, str(missing_edge))
    assert code == 1
    assert "not present" in err

    # -1 would alias vertex 5 under Python indexing; 99 would index past the end
    for text in ("-1 0\n", "99 100\n"):
        out_of_range = tmp_path / "out_of_range.txt"
        out_of_range.write_text(text)
        code, out, err = run_cli("verify", c6_file, str(out_of_range))
        assert code == 1, text
        assert out == ""
        assert err.startswith("invalid certificate:") and "out of range" in err
        assert "Traceback" not in err


def test_experiment_rows_and_summary(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        "experiment",
        "--family", "projective", "--q", "2,3", "--trials", "2",
        "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [l for l in lines if not l.startswith("#") and l != CSV_HEADER]
    assert len(rows) == 4
    summaries = [l for l in lines if l.startswith("# summary")]
    assert len(summaries) == 2
    assert all("min_ratio=" in s and "median_ratio=" in s for s in summaries)
    assert "# summary" in out  # echoed when writing to a file
    assert "# timing" in err  # wall time goes to stderr only


# sha256 of each sweep's --out file at seed 0: the bypass path (projective
# q=3,5), the polarity family, the sampled path (random-regular with
# --d0 2), and the densest contraction (projective q=31)
FROZEN_SWEEPS = {
    "projective-3-5": (
        ["--family", "projective", "--q", "3,5", "--trials", "2"],
        "ba3c0e73b9659b67bb282f904a4308b97dbb758f3e8081eb9d193ad0ea43e9f7",
    ),
    "polarity-3-5": (
        ["--family", "polarity", "--q", "3,5", "--trials", "2"],
        "c546cd5570358f904e3df27e5b7895e501e03b1438e79f3a3d5028838a4d69dc",
    ),
    "random-regular-sampled": (
        ["--family", "random-regular", "--q", "200,1000", "--d", "6", "--d0", "2", "--trials", "2"],
        "4d7c4821c7033ebe29c485c2413cda2e21067e184d3ee017e5a398850562b6bb",
    ),
    "projective-31": (
        ["--family", "projective", "--q", "31", "--trials", "3"],
        "8e9c4792d134bd1bb53f68eb89207891b4cbfb6d6870f90989d7e8b13618d5b6",
    ),
}


@pytest.mark.parametrize("sweep", sorted(FROZEN_SWEEPS))
def test_experiment_csv_is_frozen(sweep, tmp_path):
    flags, digest = FROZEN_SWEEPS[sweep]
    out_file = tmp_path / "sweep.csv"
    code, _, err = run_cli("experiment", *flags, "--out", str(out_file))
    assert code == 0, err
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_experiment_floor_verdict():
    code, out, _ = run_cli(
        "experiment",
        "--family", "projective", "--q", "3", "--trials", "2",
        "--floor", "0.0001",
    )
    assert code == 0
    assert "verdict=PASS" in out
    code, out, _ = run_cli(
        "experiment",
        "--family", "projective", "--q", "3", "--trials", "2",
        "--floor", "9.9",
    )
    assert "verdict=FAIL" in out


def test_experiment_counts_only_valid_certificates(monkeypatch):
    # an invalid certificate is neither counted as ok nor measured
    monkeypatch.setattr("indmatch.pipeline.is_induced_matching", lambda g, m: False)
    code, out, _ = run_cli(
        "experiment",
        "--family", "projective", "--q", "3", "--trials", "2",
        "--floor", "0.0001",
    )
    assert code == 0
    lines = out.splitlines()
    rows = [l for l in lines if l and not l.startswith("#") and l != CSV_HEADER]
    assert len(rows) == 2 and all(r.endswith(",invalid") for r in rows)
    assert "# summary family=projective q=3 trials=2 ok=0 min_ratio= median_ratio=" in lines
    assert lines[-1] == "# floor=0.000100 verdict=FAIL"


def test_failed_experiment_leaves_existing_out_file(tmp_path):
    out_file = tmp_path / "sweep.csv"
    out_file.write_bytes(b"an earlier sweep\r\nkept as it was\n")
    code, out, err = run_cli(
        "experiment", "--family", "projective", "--q", "3,4", "--trials", "1",
        "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err.endswith("error: field order must be prime, got 4\n")
    assert out_file.read_bytes() == b"an earlier sweep\r\nkept as it was\n"
    # a sweep that succeeds replaces the whole file
    assert run_cli("experiment", "--family", "projective", "--q", "3", "--trials", "1",
                   "--out", str(out_file))[0] == 0
    assert out_file.read_text().startswith(CSV_HEADER + "\n")


def test_triangle_budget_exit_path(tmp_path):
    # K8 contracts to K4, whose 4 triangles exceed 4 * 3**(2 - 2.9)
    graph_file = tmp_path / "k8.txt"
    write_edge_list(named_fixture("complete-8"), graph_file)
    cert_file = tmp_path / "cert.txt"
    code, out, err = run_cli(
        "run", str(graph_file), "--epsilon", "2.9", "--out", str(cert_file)
    )
    assert (code, out) == (3, "")
    assert err == "error: triangle count 4 exceeds budget 1.488 (n * d**(2 - epsilon))\n"
    assert not cert_file.exists()


def test_experiment_random_regular():
    code, out, _ = run_cli(
        "experiment",
        "--family", "random-regular", "--q", "8,12", "--d", "3",
        "--trials", "1", "--seed", "3",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and l != CSV_HEADER]
    assert len(rows) == 2


def test_experiment_edgeless_quotient_above_epsilon_two():
    # a perfect matching of a 1-regular graph contracts to an edgeless quotient
    code, out, err = run_cli(
        "experiment",
        "--family", "random-regular", "--q", "10", "--d", "1",
        "--trials", "1", "--epsilon", "2.5",
    )
    assert code == 0, err
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and l != CSV_HEADER]
    assert len(rows) == 1 and rows[0].endswith(",ok")


def test_oracle_commands(tmp_path, c6_file):
    k4 = tmp_path / "k4.txt"
    write_edge_list(named_fixture("complete-4"), k4)
    code, out, _ = run_cli("oracle", "--op", "count-triangles", str(k4))
    assert code == 0 and out.strip() == "triangles=4"

    code, out, _ = run_cli("oracle", "--op", "max-independent-set", str(c6_file))
    assert code == 0 and out.splitlines()[0] == "size=3"

    code, out, _ = run_cli("oracle", "--op", "max-induced-matching", str(c6_file))
    assert out.splitlines()[0] == "size=2"

    code, out, _ = run_cli("oracle", "--op", "c4-free", str(k4))
    assert out.strip() == "c4_free=false"

    code, out, _ = run_cli("oracle", "--op", "contains-kbb", "--B", "2", str(k4))
    assert out.strip() == "contains_k22=true"


def test_oracle_limit_flag(tmp_path):
    big = tmp_path / "c30.txt"
    write_edge_list(named_fixture("cycle-30"), big)
    code, _, err = run_cli("oracle", "--op", "max-independent-set", str(big))
    assert code == 2 and "limited" in err
    code, out, _ = run_cli(
        "oracle", "--op", "max-independent-set", "--limit", "30", str(big)
    )
    assert code == 0 and out.splitlines()[0] == "size=15"


def test_both_parsers_read_the_family_table(tmp_path, monkeypatch):
    # a family added to generators.FAMILIES reaches generate and experiment
    star = lambda n, seed: named_fixture(f"complete-bipartite-1-{n - 1}")
    monkeypatch.setitem(generators.FAMILIES, "star", (("n",), "n", star))
    out = tmp_path / "star.txt"
    code, stdout, _ = run_cli("generate", "--family", "star", "--n", "5", "--out", str(out))
    assert (code, stdout) == (0, "n=5 m=4 min_degree=1 max_degree=4 regular=false\n")
    code, stdout, _ = run_cli("experiment", "--family", "star", "--q", "5", "--trials", "1")
    assert code == 0 and stdout.splitlines()[1].startswith("star,5,5,4,")
    # a fixture is chosen by name, so experiment does not sweep it
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "--family", "fixture", "--q", "3", "--trials", "1"])


def test_greedy_fallback_flag_is_gone():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["run", "g.txt", "--greedy-fallback"])
    assert caught.value.code == 2


# Each algorithmic failure: an experiment, the statuses of its rows, and a
# command that exits 3 on the failure. {name} is the file of FAILURE_GRAPHS.
FAILURE_CASES = {
    "retries": (
        ["experiment", "--family", "projective", "--q", "3", "--trials", "4",
         "--epsilon", "0.1", "--d0", "0", "--max-retries", "1", "--seed", "3"],
        ["retries"] * 3 + ["ok"],
        ["run", "{cycle-25}", "--epsilon", "0.1", "--d0", "0", "--max-retries", "1",
         "--seed", "15", "--out", "{out}"],
    ),
    "triangle-budget": (
        ["experiment", "--family", "projective", "--q", "7", "--trials", "2",
         "--epsilon", "2.0"],
        ["triangle-budget"] * 2,
        ["run", "{complete-8}", "--epsilon", "2.9", "--out", "{out}"],
    ),
    "empty-matching": (
        ["experiment", "--family", "random-regular", "--q", "4", "--d", "0", "--trials", "2"],
        ["empty-matching"] * 2,
        ["run", "{edgeless-4}", "--out", "{out}"],
    ),
    # with the pairing model's restart budget at 0
    "generation": (
        ["experiment", "--family", "random-regular", "--q", "8", "--d", "3", "--trials", "2"],
        ["generation"] * 2,
        ["generate", "--family", "random-regular", "--n", "8", "--d", "3", "--out", "{out}"],
    ),
}
FAILURE_GRAPHS = ("cycle-25", "complete-8", "edgeless-4")


@pytest.mark.parametrize("status", sorted(FAILURES.values()))
def test_each_failure_is_a_status_and_exit_3(status, tmp_path, monkeypatch):
    assert sorted(FAILURE_CASES) == sorted(FAILURES.values())
    experiment, statuses, failing = FAILURE_CASES[status]
    if status == "generation":
        monkeypatch.setattr(generators, "PAIRING_RESTART_BUDGET", 0)
    code, out, err = run_cli(*experiment)
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#") and l != CSV_HEADER]
    assert [row[-1] for row in rows] == statuses
    for row in rows:
        if row[-1] != "ok":
            # blank stats columns, from match_size through ratio_ln
            assert row[4:11] == [""] * 7, row
    # n and d are the host's whenever it was built, though preparing failed
    host = {"retries": "26,4", "triangle-budget": "114,8", "empty-matching": "4,0"}
    assert {",".join(row[2:4]) for row in rows} == {host.get(status, "0,0")}
    assert f" ok={statuses.count('ok')} " in out

    paths = {"out": tmp_path / "out.txt"}
    for name in FAILURE_GRAPHS:
        paths[name] = tmp_path / f"{name}.txt"
        write_edge_list(named_fixture(name), paths[name])
    code, out, err = run_cli(*(arg.format(**paths) for arg in failing))
    assert (code, out) == (3, "")
    # one error line first; a failed run leaves no certificate
    assert [l for l in err.splitlines() if l.startswith("error:")] == err.splitlines()[:1]
    assert "Traceback" not in err
    assert not paths["out"].exists()


def test_out_of_memory_is_a_usage_error(tmp_path):
    # The 13-byte header asks the reader for 10**9 rows. Never run it
    # without the address-space limit.
    resource = pytest.importorskip("resource")
    limit = 256 * 2**20
    graph = tmp_path / "huge.txt"
    graph.write_text("1000000000 0\n")
    cert = tmp_path / "cert.txt"
    cert.write_text("0 1\n")
    for argv in (["run", str(graph)], ["verify", str(graph), str(cert)]):
        proc = subprocess.run(
            [sys.executable, "-m", "indmatch", *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_run_retries_exhausted_emits_attempt_stats(tmp_path):
    path = tmp_path / "c25.txt"
    write_edge_list(named_fixture("cycle-25"), path)
    code, _, err = run_cli(
        "run", str(path),
        "--epsilon", "0.1", "--d0", "0", "--max-retries", "1", "--seed", "15",
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == 3
    # a failed run leaves no certificate: an empty file would verify as valid
    assert not (tmp_path / "cert.txt").exists()
    lines = err.splitlines()
    assert "attempt,sampled,triangles,edges,outcome" in lines
    assert any(line.startswith("0,") for line in lines)


# Edge-list files that every graph-reading subcommand must reject as usage
# errors (exit 2), each with the substring its message must contain.
BAD_GRAPHS = {
    "non-utf8": (b"3 1\n0 \xff\n", "utf-8"),
    # past the first 8 KiB, so the byte is decoded while the edge lines
    # are parsed, not with the header
    "non-utf8-late": (b"3 3000\n" + b"0 1\n" * 2999 + b"0 \xff\n", "utf-8"),
    "bad-header": (b"3 x\n0 1\n", "line 1: expected header"),
    "too-many-edges": (b"3 1\n0 1\n1 2\n", "expected 1 edge lines, found 2"),
    "too-few-edges": (b"3 2\n0 1\n", "expected 2 edge lines, found 1"),
    "self-loop": (b"3 1\n1 1\n", "self-loop"),
    "out-of-range": (b"3 1\n0 7\n", "out of range"),
    # no tuple has more than sys.maxsize rows
    "past-maxsize": (b"100000000000000000000 0\n", "vertex count must be at most"),
    "missing-file": (None, "absent.txt"),
}

CERTIFICATES = {
    "cert": "0 1\n3 4\n",
    "three": "0 1\n3 4 5\n",
    "negative": "0 1\n-2 3\n",
    # a form feed ends a line for str.splitlines, but not for a file
    "formfeed": "0 1\x0c3 4\n",
}

GRAPH_READERS = {
    "run": lambda graph: ["run", graph],
    "verify": lambda graph: ["verify", graph, "{cert}"],
    "oracle": lambda graph: ["oracle", "--op", "count-triangles", graph],
}

# (argv, exit code, prefix of the last stderr line, substring of stderr).
# {c6} is a valid cycle-6 edge list, {nodir} a path whose directory does
# not exist, and {<name>} the file of BAD_GRAPHS[name] or CERTIFICATES[name].
MALFORMED = {
    **{
        f"{cmd}-{name}": (argv("{" + name + "}"), 2, "error:", needle)
        for cmd, argv in GRAPH_READERS.items()
        for name, (_, needle) in BAD_GRAPHS.items()
    },
    "verify-three-tokens": (["verify", "{c6}", "{three}"], 2, "line 2:", "two integers"),
    "verify-formfeed": (["verify", "{c6}", "{formfeed}"], 2, "line 1:", "two integers"),
    "verify-non-utf8-certificate": (["verify", "{c6}", "{non-utf8}"], 2, "error:", "utf-8"),
    "verify-negative-id": (
        ["verify", "{c6}", "{negative}"], 1, "invalid certificate:", "out of range"
    ),
    "run-B-1": (["run", "{c6}", "--B", "1"], 2, "error:", "B must be >= 2"),
    "run-epsilon-nan": (["run", "{c6}", "--epsilon", "nan"], 2, "error:", "epsilon"),
    "run-max-retries-negative": (
        ["run", "{c6}", "--max-retries", "-3", "--d0", "0"], 2, "error:", "max retries"
    ),
    "run-d0-negative": (["run", "{c6}", "--d0", "-5"], 2, "error:", "degree cutoff"),
    "run-unwritable-out": (["run", "{c6}", "--out", "{nodir}"], 2, "error:", "no-such-dir"),
    "experiment-bad-q": (
        ["experiment", "--family", "projective", "--q", "3,x", "--trials", "1"],
        2, "error:", "'x'",
    ),
    "experiment-unwritable-out": (
        ["experiment", "--family", "projective", "--q", "3", "--trials", "1",
         "--out", "{nodir}"],
        2, "error:", "no-such-dir",
    ),
    # a parameter the family rejects fails the sweep, as it fails generate
    "experiment-non-prime-q": (
        ["experiment", "--family", "projective", "--q", "4,3", "--trials", "1"],
        2, "error:", "prime",
    ),
    "experiment-odd-degree-sum": (
        ["experiment", "--family", "random-regular", "--q", "5", "--d", "3", "--trials", "1"],
        2, "error:", "even",
    ),
    "experiment-zero-trials": (
        ["experiment", "--family", "projective", "--q", "3", "--trials", "0"],
        2, "error:", "trials",
    ),
    "generate-missing-q": (
        ["generate", "--family", "projective", "--out", "{out}"], 2, "error:", "requires q"
    ),
    "generate-non-prime-q": (
        ["generate", "--family", "projective", "--q", "4", "--out", "{out}"],
        2, "error:", "prime",
    ),
    "generate-odd-degree-sum": (
        ["generate", "--family", "random-regular", "--n", "5", "--d", "3", "--out", "{out}"],
        2, "error:", "even",
    ),
    "generate-fixture-bare-complete": (
        ["generate", "--family", "fixture", "--name", "complete", "--out", "{out}"],
        2, "error:", "unknown fixture",
    ),
    "generate-unknown-fixture": (
        ["generate", "--family", "fixture", "--name", "bogus", "--out", "{out}"],
        2, "error:", "bogus",
    ),
    "generate-fixture-past-maxsize": (
        ["generate", "--family", "fixture", "--name", "edgeless-100000000000000000000",
         "--out", "{out}"],
        2, "error:", "vertex count must be at most",
    ),
    "generate-unwritable-out": (
        ["generate", "--family", "fixture", "--name", "petersen", "--out", "{nodir}"],
        2, "error:", "no-such-dir",
    ),
    "oracle-negative-limit": (
        ["oracle", "--op", "count-triangles", "--limit", "-1", "{c6}"],
        2, "error:", "limit",
    ),
    "oracle-B-0": (
        ["oracle", "--op", "contains-kbb", "--B", "0", "{c6}"], 2, "error:", "b must be >= 1"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_reported_not_raised(case, c6_file, tmp_path):
    argv, expected_code, prefix, needle = MALFORMED[case]
    paths = {
        "c6": c6_file,
        "out": tmp_path / "out.txt",
        "nodir": tmp_path / "no-such-dir" / "out.txt",
    }
    for name, text in CERTIFICATES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    for name, (data, _) in BAD_GRAPHS.items():
        paths[name] = tmp_path / ("absent.txt" if data is None else f"{name}.txt")
        if data is not None:
            paths[name].write_bytes(data)
    code, out, err = run_cli(*(arg.format(**paths) for arg in argv))
    assert code == expected_code, err
    # a rejected run prints no result (no certificate, CSV row or summary)
    # and does no pipeline work
    assert out == ""
    assert not any(line.startswith("# ") for line in err.splitlines()), err
    assert err.splitlines()[-1].startswith(prefix), err
    assert needle in err, err
    assert "Traceback" not in err
