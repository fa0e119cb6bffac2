from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from indmatch import from_edge_list, named_fixture
from indmatch.seeds import mix64

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def subprocess_env():
    """The caller's environment, with this checkout's ``src`` first on PYTHONPATH.

    Children may run in a temporary directory, so relative PYTHONPATH entries
    (such as the ``src`` of the Tier-1 command) are made absolute.
    """
    env = os.environ.copy()
    inherited = [
        os.path.abspath(entry)
        for entry in env.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), *inherited])
    return env


@pytest.fixture(scope="session")
def petersen():
    return named_fixture("petersen")


@pytest.fixture(scope="session")
def heawood():
    return named_fixture("heawood")


@pytest.fixture(scope="session")
def c6():
    return named_fixture("cycle-6")


def graphs(max_n: int = 10, min_n: int = 0):
    """Hypothesis strategy for small simple graphs."""

    def build(n):
        if n < 2:
            return st.just(from_edge_list(n, []))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        )
        return st.lists(pairs, max_size=3 * n).map(lambda edges: from_edge_list(n, edges))

    return st.integers(min_n, max_n).flatmap(build)


def regular_corpus(seeds_per_combo: int = 1, n_step: int = 4, n_max: int = 64):
    """Deterministic random-regular corpus spanning n in {8..n_max}, d in {3,4,5}."""
    from indmatch import random_regular

    out = []
    for n in range(8, n_max + 1, n_step):
        for d in (3, 4, 5):
            if d >= n or (n * d) % 2:
                continue
            for s in range(seeds_per_combo):
                out.append(
                    (f"rr-{n}-{d}-{s}", random_regular(n, d, mix64(1234, n, d, s)))
                )
    return out
