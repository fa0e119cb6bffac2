"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from indmatch import named_fixture
from spans import TARGETS, Tracer
from workloads import WORKLOADS, check_certificate, run_workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small instances that keep each workload's path: sampled for sweep-proj,
# bypass for sparse-file.
TINY = {
    "sweep-proj": dict(q=13, digest_ops=5),
    "sparse-file": dict(n=2000),
}


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_declared_metrics(name, trace, tmp_path):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    report = run_workload(w, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    result = report.result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == w.digest_ops * (2 if trace else 1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        bypass = result["metrics"]["sparsify.bypass_share"]["value"]
        assert bypass == (1.0 if name == "sparse-file" else 0.0)
        # traced ops reproduce the untraced certificates
        digests = [line.split()[-1] for line in report.lines if "digest" in line]
        assert len(digests) == 2 and digests[0] == digests[1]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "matching, problem",
    [
        ([(-1, 0)], "outside"),  # -1 aliases vertex 5 under Python indexing
        ([(99, 100)], "outside"),
        ([(0, 2)], "not an edge"),
        ([(0, 1), (2, 3)], "joined by host edge"),
        ([(0, 1), (1, 2)], "shares an endpoint"),
    ],
)
def test_checker_rejects_tampered_certificate(matching, problem):
    assert problem in check_certificate(named_fixture("cycle-6"), matching)


def test_checker_accepts_induced_matching():
    assert check_certificate(named_fixture("cycle-6"), [(0, 1), (3, 4)]) is None


def test_wrapped_functions_restored(tmp_path):
    originals = [getattr(module, attr) for module, attr, _, _ in TARGETS]
    w = dataclasses.replace(WORKLOADS["sweep-proj"], **TINY["sweep-proj"])
    assert run_workload(w, seed=1, seconds=0, trace=True, workdir=tmp_path).spans
    assert [getattr(module, attr) for module, attr, _, _ in TARGETS] == originals

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active(0):
            assert all(getattr(m, a) is not o for (m, a, _, _), o in zip(TARGETS, originals))
            raise RuntimeError
    assert tracer.restored()


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
