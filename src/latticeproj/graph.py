"""Cluster-state graphs: builders, validation, bipartition and slot assignment.

A cluster state is |+>^n with a CZ gate applied across every edge, so the
graph (vertex count + undirected edge set) is the whole topology.  Built
lattices of crosses use a canonical indexing: corner qubits row-major first,
then center qubits row-major.  A chain of k crosses is the k x 1 lattice,
so its leaf pairs are the corner rows and its centers follow them.

Trace slots are owned by qubits forming a vertex cover.  assign_slots
returns the plain owner -> slot map, slots dense in owner index order; the
owner of an edge (the endpoint that owns a slot, the lower one when both do)
follows from that map alone, and its slot tracks the edge's CZ phase.
"""

from __future__ import annotations

import heapq
import math
import operator
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidSize,
    OddCycle,
    SelfLoop,
    TooLarge,
)

Edge = tuple[int, int]

# Most qubits a graph file may declare, and a CLI --builder may ask for.
# Family detection, the slot assignment and the factorized polynomial hold
# a few Python objects per qubit and edge, so a size far past this would
# exhaust the memory of a typical machine before any check of an engine's
# own cap ran.
GRAPH_QUBIT_CAP = 1 << 16


def check_qubit_count(n: int) -> None:
    """Raise TooLarge when a graph of ``n`` qubits passes GRAPH_QUBIT_CAP."""
    if n > GRAPH_QUBIT_CAP:
        raise TooLarge(f"graph of {n} qubits, above the cap of {GRAPH_QUBIT_CAP} qubits")


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class ClusterGraph:
    """Qubit count plus the set of CZ edges (unordered, no self-loops).

    Direct construction checks nothing: an edge outside range(n) or a
    self-loop is stored as given, and the family detectors and engines
    then fail on it with errors other than LatticeProjError.
    build_from_edges is the checked entry.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        # each edge is stored low end first, so that graphs with the same
        # edges are equal and the family detectors see every edge one way;
        # the set is rebuilt only when some edge was given high end first
        if any(a > b for a, b in self.edges):
            object.__setattr__(self, "edges", frozenset(_norm_edge(a, b) for a, b in self.edges))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"ClusterGraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Bipartition:
    """Disjoint covering split with no edge inside either class."""

    controls: frozenset[int]
    targets: frozenset[int]


def adjacency(g: ClusterGraph) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = {q: [] for q in range(g.n)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return {q: tuple(sorted(nbrs)) for q, nbrs in adj.items()}


# ---------------------------------------------------------------------------
# builders


def build_from_edges(n: int, pairs: Iterable[Sequence[int]]) -> ClusterGraph:
    """Validate an explicit edge list into a graph; numpy integers and
    integral floats are endpoints too."""
    return _edges_graph(n, map(_int_pair, pairs))


def _int_pair(pair: Sequence[int]) -> Edge:
    try:
        a, b = ends = tuple(map(int, pair))
        if ends == tuple(pair):
            return a, b
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidSize(f"edge {pair!r} is not two integer qubit indices")


def _edges_graph(n: int, pairs: Iterable[Edge]) -> ClusterGraph:
    """The graph of ``n`` qubits and the int pairs ``pairs``, each checked in
    turn for a self-loop, then its range, then a repeat.  build_from_edges
    and parse_graph_text both build through here.  ``n`` must be an integer
    (a numpy integer is stored as int)."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidSize(f"qubit count {n!r} is not an integer") from None
    if n < 1:
        raise InvalidSize(f"graph needs at least one qubit, got n={n}")
    edges: set[Edge] = set()
    for a, b in pairs:
        if a == b:
            raise SelfLoop(f"edge ({a}, {b}) is a self-loop")
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"edge ({a}, {b}) outside qubit range [0, {n})")
        e = _norm_edge(a, b)
        if e in edges:
            raise DuplicateEdge(f"edge {e} listed twice")
        edges.add(e)
    return ClusterGraph(n, frozenset(edges))


def build_line(n: int) -> ClusterGraph:
    """Line-shape cluster graph: qubits 0..n-1 chained by n-1 edges."""
    if n < 1:
        raise InvalidSize(f"line needs n >= 1, got {n}")
    return ClusterGraph(n, frozenset((k, k + 1) for k in range(n - 1)))


def build_cross_chain(k: int) -> ClusterGraph:
    """Chain of k crosses (3k+2 qubits): the k x 1 lattice, build_lattice(k, 1).

    Leaf pair i is the corner row i, leaves 2i and 2i+1; center j is 2k+2+j
    and joins leaves 2j, 2j+1, 2j+2, 2j+3.
    """
    if k < 1:
        raise InvalidSize(f"cross chain needs k >= 1, got {k}")
    return build_lattice(k, 1)


def build_lattice(m: int, n: int) -> ClusterGraph:
    """m x n tiling of crosses: (m+1)(n+1) corner qubits + m*n center qubits.

    Corner (r, c) has index r*(n+1)+c; center (i, j) has index
    (m+1)*(n+1) + i*n + j and joins its four surrounding corners.
    """
    if m < 1 or n < 1:
        raise InvalidSize(f"lattice needs m, n >= 1, got {m}x{n}")
    corners = (m + 1) * (n + 1)
    edges = set()
    for i in range(m):
        for j in range(n):
            center = corners + i * n + j
            for r, c in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)):
                edges.add(_norm_edge(center, r * (n + 1) + c))
    return ClusterGraph(corners + m * n, frozenset(edges))


def lattice_corner(m: int, n: int, r: int, c: int) -> int:
    return r * (n + 1) + c


def lattice_center(m: int, n: int, i: int, j: int) -> int:
    return (m + 1) * (n + 1) + i * n + j


def lattice_row_major_order(m: int, n: int) -> list[int]:
    """The m x n lattice's qubits by rows, each center row right after the
    corner row above it, so slots retire one row behind the frontier."""
    order: list[int] = []
    for r in range(m + 1):
        order.extend(lattice_corner(m, n, r, c) for c in range(n + 1))
        if r < m:
            order.extend(lattice_center(m, n, r, j) for j in range(n))
    return order


# ---------------------------------------------------------------------------
# family detection (read through graph_family by the engines and assign_slots);
# each detection compares edge counts before it builds a canonical graph


def detect_line(g: ClusterGraph) -> bool:
    return len(g.edges) == g.n - 1 and g.edges == build_line(g.n).edges


def detect_lattice(g: ClusterGraph) -> Optional[tuple[int, int]]:
    """Return (m, n) if g is exactly the canonical m x n cross lattice.

    The m x n lattice has 4mn edges and 2mn + m + n + 1 qubits, so the
    counts fix mn and m + n: m and n are the two roots of
    x^2 - (m + n) x + mn.  A shape is built only when its first center,
    (m+1)(n+1), joins its corners (1, 0) and (1, 1), n+1 and n+2; a
    lattice's transposed shape fails that check, so a lattice builds one.
    """
    product, rest = divmod(len(g.edges), 4)
    total = g.n - 1 - 2 * product
    disc = total * total - 4 * product
    if rest or product < 1 or total < 2 or disc < 0:
        return None
    small = (total - math.isqrt(disc)) // 2
    for m in sorted({small, total - small}):
        # integer roots with product >= 1 and sum >= 2 are both at least 1
        n = total - m
        center = (m + 1) * (n + 1)
        joined = {(n + 1, center), (n + 2, center)} <= g.edges
        if m * n == product and joined and g.edges == build_lattice(m, n).edges:
            return (m, n)
    return None


# ---------------------------------------------------------------------------
# bipartition and slot assignment


def bipartition(g: ClusterGraph) -> Bipartition:
    """2-color the graph; controls = smaller class (tie: the class holding 0)."""
    color = [-1] * g.n
    adj = adjacency(g)
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            q = stack.pop()
            for nbr in adj[q]:
                if color[nbr] < 0:
                    color[nbr] = 1 - color[q]
                    stack.append(nbr)
                elif color[nbr] == color[q]:
                    raise OddCycle(
                        f"graph is not bipartite: odd cycle through edge ({q}, {nbr})"
                    )
    class0 = frozenset(q for q in range(g.n) if color[q] == 0)
    class1 = frozenset(q for q in range(g.n) if color[q] == 1)
    if len(class0) < len(class1):
        controls = class0
    elif len(class1) < len(class0):
        controls = class1
    else:
        controls = class0 if 0 in class0 else class1
    targets = frozenset(range(g.n)) - controls
    return Bipartition(controls=controls, targets=targets)


class Family(NamedTuple):
    """The families a graph belongs to, in canonical indexing, and its 2-coloring.

    A chain of k crosses is the k x 1 lattice, so it has no field of its own:
    ``lattice == (k, 1)`` says the graph is that chain.

    ``graph`` is the instance the detections ran on.  Every graph equal to
    it gets this Family and so that instance: a caller that goes on with
    it (as the CLI does) finds it by identity in every graph-keyed cache,
    with no comparison of edge sets.
    """

    line: bool
    lattice: Optional[tuple[int, int]]
    bipartition: Optional[Bipartition]  # None on a graph with an odd cycle
    graph: ClusterGraph


@lru_cache(maxsize=64)
def graph_family(g: ClusterGraph) -> Family:
    """The line and lattice detections and the bipartition, run once per
    distinct graph; a cross chain is found as a lattice of one column."""
    try:
        b = bipartition(g)
    except OddCycle:
        b = None
    return Family(detect_line(g), detect_lattice(g), b, g)


def _greedy_cover(g: ClusterGraph) -> frozenset[int]:
    # highest remaining degree first, ties to the lowest index; an entry
    # whose qubit has since lost edges goes back in at its degree now
    adj = adjacency(g)
    degree = [len(adj[q]) for q in range(g.n)]
    heap = sorted((-d, q) for q, d in enumerate(degree) if d)
    cover: set[int] = set()
    while heap:
        d, q = heapq.heappop(heap)
        if -d == degree[q]:
            cover.add(q)
            degree[q] = 0
            for v in adj[q]:
                if v not in cover:
                    degree[v] -= 1
        elif degree[q]:
            heapq.heappush(heap, (-degree[q], q))
    return frozenset(cover)


def assign_slots(g: ClusterGraph, owners: Optional[Iterable[int]] = None) -> dict[int, int]:
    """Owner qubit -> dense slot id, the owners in index order.

    ``owners`` must be qubits of g covering every edge, else ValueError.
    None takes the controls of the bipartition (graph_family's, computed
    once per graph), or a greedy vertex cover when the graph has an odd
    cycle.
    """
    if owners is None:
        b = graph_family(g).bipartition
        owners = b.controls if b is not None else _greedy_cover(g)
    owners = frozenset(owners)
    if foreign := owners.difference(range(g.n)):
        raise ValueError(f"owners {sorted(foreign)} are not qubits of the {g.n}-qubit graph")
    for a, b in g.edges:
        if a not in owners and b not in owners:
            raise ValueError(f"owner set is not a vertex cover: edge ({a}, {b}) uncovered")
    return {q: i for i, q in enumerate(sorted(owners))}


# ---------------------------------------------------------------------------
# text formats: '#' starts a comment anywhere on a line; blank lines are skipped.
# graph file: line 1 = qubit count, then one "a b" edge per line.


def data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number from 1, text, whitespace fields) of each line holding data."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line, line.split()


def parse_graph_text(text: str) -> ClusterGraph:
    """The graph of a graph file's text.  Every line is parsed, and the
    qubit count checked against GRAPH_QUBIT_CAP, before any edge is
    validated or built."""
    n: Optional[int] = None
    pairs: list[tuple[int, int]] = []
    for _, line, fields in data_lines(text):
        if n is None:
            if len(fields) != 1:
                raise InvalidSize(f"first data line must be the qubit count, got {line!r}")
            n = int(fields[0])
            check_qubit_count(n)
            continue
        if len(fields) != 2:
            raise InvalidSize(f"edge lines carry two indices, got {line!r}")
        pairs.append((int(fields[0]), int(fields[1])))
    if n is None:
        raise InvalidSize("graph file has no qubit count line")
    return _edges_graph(n, pairs)


def format_graph_text(g: ClusterGraph, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(str(g.n))
    lines.extend(f"{a} {b}" for a, b in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_text(path: Union[str, Path]) -> str:
    """The text of the file at ``path``, read as ``Path.read_text`` reads it.

    The file is closed, and its read buffer freed, before its reader parses
    the text."""
    with open(path) as f:
        return f.read()


def load_graph(path: Union[str, Path]) -> ClusterGraph:
    return parse_graph_text(read_text(path))


@contextmanager
def rewrite(path: Union[str, Path]) -> Iterator[TextIO]:
    """Open ``path`` for text output like ``open(path, "w", newline="")``,
    but overwrite the old bytes in place instead of truncating the file first.

    Every file the package writes goes through here.  The file is opened
    without ``O_TRUNC``, and on exit, however the body ends, it is cut at the
    current position, so it holds exactly what the body wrote (nothing when
    the body raises before writing, as with ``"w"``).  Truncating a non-empty
    file to zero (or renaming over it) makes ext4's ``auto_da_alloc`` start
    writeback at close: on 2 vCPUs and ext4, rewriting a 1.5 kB and a 0.13 kB
    file took a median 254-329 µs with ``"w"`` and 18 µs in place (README,
    "Conventions that matter").  Symlinks are followed; the inode, its hard
    links and its mode are kept; a new file is created ``0o666 & ~umask``.
    Only a regular file is cut: ``ftruncate`` on ``/dev/null`` or a pipe
    fails.  The one difference from ``"w"``: a process killed (SIGKILL)
    between the last write and the cut leaves the old file's tail after the
    new bytes.  Neither this nor ``"w"`` fsyncs.
    """
    with open(
        path, "w", newline="",
        opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666),
    ) as out:
        try:
            yield out
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()


def save_graph(g: ClusterGraph, path: Union[str, Path], header: str = "") -> None:
    """Write ``g`` in the graph file format, rewriting ``path`` in place."""
    with rewrite(path) as out:
        out.write(format_graph_text(g, header))


def fixture_path(name: str) -> Path:
    """Path of a packaged fixture graph, e.g. fixture_path('fivecross_17.graph')."""
    return Path(fixture_file(name))


def fixture_file(name: str) -> str:
    """fixture_path(name) as a string, built without pathlib."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
