"""Generators for the graph families the guarantees are exercised on.

Two classical C4-free families over prime fields (point-line incidence
graphs of projective planes and their polarity quotients), random regular
graphs from the pairing model, and small named fixtures with frozen
labelings.

Finite-field arithmetic is plain ``mod p``; prime powers are out of scope.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .graph import Graph, _ids, from_edge_list

PAIRING_RESTART_BUDGET = 1000


class GenerationError(RuntimeError):
    """Raised when randomized generation exhausts its restart budget."""


def _require_prime(q: int) -> None:
    if q < 2:
        raise ValueError(f"field order must be a prime >= 2, got {q}")
    if q in (2, 3):
        return
    if q % 2 == 0:
        raise ValueError(f"field order must be prime, got {q}")
    f = 3
    while f * f <= q:
        if q % f == 0:
            raise ValueError(f"field order must be prime, got {q}")
        f += 2


def _projective_points(q: int) -> list[tuple[int, int, int]]:
    # Canonical representatives: first nonzero coordinate normalized to 1,
    # enumerated in a frozen order so vertex labels are stable.
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts.extend((0, 1, z) for z in range(q))
    pts.append((0, 0, 1))
    return pts


def _orthogonal_points(q: int) -> list[tuple[int, ...]]:
    """For each point of :func:`_projective_points`, the sorted indices of
    the points orthogonal to it mod ``q``.

    Point ``(a, b, c)`` is orthogonal to ``(x, y, z)`` when
    ``a*x + b*y + c*z = 0 (mod q)``. That equation is solved once for each
    normalized form, in enumeration order: ``(1, y, z)`` at index
    ``y*q + z``, then ``(0, 1, z)`` at ``q*q + z``, then ``(0, 0, 1)``.
    Every point has exactly ``q + 1`` orthogonal points, so the whole
    table costs O(q^3). Each solution is read from the id table
    (``graph._ids``), so the rows share one int object per point.
    """
    qq = q * q
    ids = _ids(qq + q + 1)
    perp: list[tuple[int, ...]] = []
    for a, b, c in _projective_points(q):
        if c:
            # z = s + t*y for (1, y, z), z = t for (0, 1, z), never (0, 0, 1)
            inv = pow(c, -1, q)
            s, t = -a * inv % q, -b * inv % q
            row, z = [], s
            for start in range(0, qq, q):  # (1, y, z) is at start + z
                row.append(ids[start + z])
                z = (z + t) % q
            row.append(ids[qq + t])
        elif b:
            # y = -a/b for (1, y, z) with any z; then only (0, 0, 1)
            y = -a * pow(b, -1, q) % q
            row = ids[y * q : y * q + q]
            row.append(ids[qq + q])
        else:
            # (1, 0, 0): every (0, 1, z) and (0, 0, 1)
            row = ids[qq : qq + q + 1]
        perp.append(tuple(row))
    return perp


def projective_incidence_graph(q: int) -> Graph:
    """Bipartite point-line incidence graph of the projective plane of
    prime order ``q``.

    Vertices ``0..N-1`` are points and ``N..2N-1`` are lines, where
    ``N = q*q + q + 1``; both sides use the same frozen coordinate
    enumeration, and point ``i`` joins line ``j`` when their coordinate
    vectors are orthogonal mod ``q``. The rows come straight from the
    ``q + 1`` solutions of each point's linear equation, so building the
    graph is O(q^3). A point's row maps its solutions through the id
    table's line ids, so the graph holds one int object per vertex. The result
    is (q+1)-regular with girth 6, hence triangle-free and C4-free.
    """
    _require_prime(q)
    perp = _orthogonal_points(q)
    n = len(perp)
    lines = _ids(2 * n)[n : 2 * n]
    # orthogonality is symmetric, so line j's points are perp[j]
    rows = [tuple(map(lines.__getitem__, row)) for row in perp] + perp
    return Graph(2 * n, tuple(rows))


def polarity_graph(q: int) -> Graph:
    """Polarity quotient of the incidence graph over the prime field of
    order ``q`` (the classical C4-free near-regular construction).

    Vertices are the ``q*q + q + 1`` projective points; two distinct points
    are adjacent when orthogonal. Row ``i`` is the ``q + 1`` solutions of
    point ``i``'s linear equation minus ``i`` itself, so building the graph
    is O(q^3), and the rows share one int object per point. Exactly ``q + 1`` self-orthogonal points have degree ``q``;
    all others have degree ``q + 1``.
    """
    _require_prime(q)
    rows = tuple(
        tuple(j for j in row if j != i) for i, row in enumerate(_orthogonal_points(q))
    )
    return Graph(len(rows), rows)


def _shuffle(x: list[int], rng: random.Random) -> None:
    """Fisher-Yates shuffle of ``x`` in place, drawing exactly as
    ``rng.shuffle(x)`` does: ``Random._randbelow_with_getrandbits`` is
    inlined, so the same ``getrandbits`` calls come in the same order and
    leave ``rng`` in the same state. The draws are pinned here rather than
    in the standard library."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        # pick an element in x[:i+1] with which to exchange x[i]
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _pairing_suitable(rows: list[list[int]], leftover: dict[int, int]) -> bool:
    # A stuck pairing round can still finish iff some pair of leftover stubs
    # joins non-adjacent distinct vertices.
    if not leftover:
        return True
    nodes = list(leftover)
    for i, s1 in enumerate(nodes):
        row = rows[s1]
        for s2 in nodes[i + 1 :]:
            if s2 not in row:
                return True
    return False


def _try_pairing(n: int, d: int, rng: random.Random) -> list[list[int]] | None:
    # Each accepted pair goes straight into both rows; a row holds at most d
    # entries, so the repeated-pair test is a short scan. The stubs are the
    # id table's objects, so the rows share one int object per vertex.
    rows: list[list[int]] = [[] for _ in range(n)]
    stubs = _ids(n)[:n] * d
    while stubs:
        leftover: dict[int, int] = defaultdict(int)
        _shuffle(stubs, rng)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            # the swap fixes leftover's insertion order, hence the next round
            if s1 > s2:
                s1, s2 = s2, s1
            row = rows[s1]
            if s1 != s2 and s2 not in row:
                row.append(s2)
                rows[s2].append(s1)
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if not leftover:
            return rows
        if not _pairing_suitable(rows, leftover):
            return None
        stubs = [v for v, cnt in leftover.items() for _ in range(cnt)]
    return rows


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random ``d``-regular graph on ``n`` vertices from the pairing model.

    Half-edge stubs are paired after a Fisher-Yates shuffle whose draws are
    pinned in this module (:func:`_shuffle`, the same ``getrandbits`` calls
    as ``random.Random.shuffle``). Each accepted pair goes straight into its
    two adjacency rows; colliding stubs (loops and repeated pairs) are
    re-shuffled among themselves until none remain, and the whole sample
    restarts when a round gets stuck. Deterministic in ``seed``. Raises
    :class:`GenerationError` after ``PAIRING_RESTART_BUDGET`` restarts.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError(f"degree {d} requires more than {n} vertices")
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = random.Random(seed)
    for _ in range(PAIRING_RESTART_BUDGET):
        rows = _try_pairing(n, d, rng)
        if rows is not None:
            # each list gives way to its tuple, so the two never coexist in full
            for v, row in enumerate(rows):
                row.sort()
                rows[v] = tuple(row)
            return Graph(n, tuple(rows))
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} vertices after "
        f"{PAIRING_RESTART_BUDGET} restarts"
    )


def _petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer cycle
        edges.append((i, i + 5))  # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return from_edge_list(10, edges)


def _heawood() -> Graph:
    # Hamiltonian labeling: 14-cycle plus the chord i -- i+5 at even i.
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges.extend((i, (i + 5) % 14) for i in range(0, 14, 2))
    return from_edge_list(14, edges)


# Each one-size fixture kind: the smallest k it takes, and the edges of
# ``<kind>-<k>`` on vertices 0..k-1.
SIZED_FIXTURES = {
    "cycle": (3, lambda k: [(i, (i + 1) % k) for i in range(k)]),
    "path": (1, lambda k: [(i, i + 1) for i in range(k - 1)]),
    "complete": (1, lambda k: [(i, j) for i in range(k) for j in range(i + 1, k)]),
    "edgeless": (0, lambda k: []),
}


def _is_numeral(size: str) -> bool:
    """True iff ``size`` is a nonempty run of the digits 0-9: ``isdecimal``
    alone also accepts the digits of other scripts, such as Arabic-Indic."""
    return size.isascii() and size.isdecimal()


def named_fixture(name: str) -> Graph:
    """Small canonical graphs with documented, frozen vertex labelings.

    Supported: ``petersen``, ``heawood``, ``cycle-k`` (k >= 3), ``path-k``
    (k >= 1 vertices), ``complete-k``, ``complete-bipartite-a-b`` (sides
    ``0..a-1`` and ``a..a+b-1``) and ``edgeless-k``. Sizes are numerals
    of ASCII digits.
    """
    if name == "petersen":
        return _petersen()
    if name == "heawood":
        return _heawood()
    kind, _, size = name.partition("-")
    if kind in SIZED_FIXTURES and _is_numeral(size):
        smallest, edges = SIZED_FIXTURES[kind]
        k = int(size)
        if k < smallest:
            raise ValueError(f"{kind} needs k >= {smallest}, got {k}")
        return from_edge_list(k, edges(k))
    if name.startswith("complete-bipartite-"):
        a, _, b = name.removeprefix("complete-bipartite-").partition("-")
        if _is_numeral(a) and _is_numeral(b):
            a, b = int(a), int(b)
            if a < 1 or b < 1:
                raise ValueError("complete bipartite needs both sides >= 1")
            return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    supported = [f"{kind}-<k>" for kind in SIZED_FIXTURES]
    supported.insert(-1, "complete-bipartite-<a>-<b>")  # before edgeless-<k>
    raise ValueError(
        f"unknown fixture {name!r}; supported: petersen, heawood, {', '.join(supported)}"
    )


# Each family: the keywords of build_graph that it requires, the words its
# error message names them by, and its graph from them and the seed.
FAMILIES = {
    "projective": (("q",), "q", lambda q, seed: projective_incidence_graph(q)),
    "polarity": (("q",), "q", lambda q, seed: polarity_graph(q)),
    "random-regular": (("n", "d"), "n and d", random_regular),
    "fixture": (("name",), "a name", lambda name, seed: named_fixture(name)),
}


def build_graph(
    family: str,
    *,
    q: int | None = None,
    n: int | None = None,
    d: int | None = None,
    seed: int = 0,
    name: str | None = None,
) -> Graph:
    """The graph of ``family`` (a key of ``FAMILIES``) from the parameters
    that family reads."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    needs, words, build = FAMILIES[family]
    given = {"q": q, "n": n, "d": d, "name": name}
    args = [given[key] for key in needs]
    if None in args:
        raise ValueError(f"{family} family requires {words}")
    return build(*args, seed)
