"""Graph builders, bipartition, slot assignment, and the file format."""

import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticeproj
from latticeproj.factorize import ProjectionSpec, format_angles_text, save_angles
from latticeproj.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidSize,
    OddCycle,
    SelfLoop,
)
from latticeproj import graph
from latticeproj.graph import (
    ClusterGraph,
    _greedy_cover,
    adjacency,
    assign_slots,
    bipartition,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    detect_cross_chain,
    detect_lattice,
    detect_line,
    fixture_path,
    format_graph_text,
    load_graph,
    parse_graph_text,
    rewrite,
    save_graph,
)

from helpers import quadratic_greedy_cover


def test_build_line():
    assert build_line(2).edges == frozenset({(0, 1)})
    assert build_line(1).edges == frozenset()
    assert len(build_line(4).edges) == 3
    with pytest.raises(InvalidSize):
        build_line(0)


def test_build_cross_chain():
    g1 = build_cross_chain(1)
    assert g1.n == 5 and len(g1.edges) == 4
    assert adjacency(g1)[4] == (0, 1, 2, 3)

    g2 = build_cross_chain(2)
    assert g2.n == 8 and len(g2.edges) == 8
    # the two centers share the middle leaf pair
    shared = set(adjacency(g2)[6]) & set(adjacency(g2)[7])
    assert shared == {2, 3}

    assert build_cross_chain(3).n == 11
    with pytest.raises(InvalidSize):
        build_cross_chain(0)


def test_build_lattice():
    assert build_lattice(1, 1).edges == build_cross_chain(1).edges
    assert build_lattice(1, 2).n == 8
    assert build_lattice(2, 2).n == 13
    for m in range(1, 7):
        for n in range(1, 7):
            g = build_lattice(m, n)
            assert g.n == (m + 1) * (n + 1) + m * n
            assert len(g.edges) == 4 * m * n
    with pytest.raises(InvalidSize):
        build_lattice(0, 3)


def test_build_from_edges_validation():
    assert build_from_edges(2, [(0, 1)]).edges == frozenset({(0, 1)})
    with pytest.raises(SelfLoop):
        build_from_edges(3, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        build_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(IndexOutOfRange):
        build_from_edges(3, [(0, 3)])
    # numpy integers and integral floats are endpoints; anything else raises
    assert build_from_edges(3, [(np.int64(0), 1.0), np.array([1, 2])]) == build_line(3)
    for pair in [(0.5, 1), (0, float("nan")), (0, float("inf")), ("0", 1), (None, 1),
                 (0, 1, 2), (0,), (), 5]:
        with pytest.raises(InvalidSize, match="not two integer qubit indices"):
            build_from_edges(3, [pair])


# (edges of a 3-qubit graph, the error, its message): the first bad edge is
# reported, checked for a self-loop, then its range, then a repeat
EDGE_ERRORS = [
    ([(0, 0)], SelfLoop, "edge (0, 0) is a self-loop"),
    ([(0, 3)], IndexOutOfRange, "edge (0, 3) outside qubit range [0, 3)"),
    ([(2, -1)], IndexOutOfRange, "edge (2, -1) outside qubit range [0, 3)"),
    ([(3, 3)], SelfLoop, "edge (3, 3) is a self-loop"),
    ([(0, 1), (1, 0)], DuplicateEdge, "edge (0, 1) listed twice"),
    ([(0, 1), (0, 1), (1, 1)], DuplicateEdge, "edge (0, 1) listed twice"),
    ([(1, 2), (0, 4), (1, 2)], IndexOutOfRange, "edge (0, 4) outside qubit range [0, 3)"),
]


@pytest.mark.parametrize("pairs,error,message", EDGE_ERRORS)
def test_edge_errors_read_the_same_from_the_api_and_from_a_file(pairs, error, message):
    with pytest.raises(error) as api:
        build_from_edges(3, pairs)
    text = "3\n" + "".join(f"{a} {b}\n" for a, b in pairs)
    with pytest.raises(error) as parsed:
        parse_graph_text(text)
    assert str(api.value) == str(parsed.value) == message


def test_non_integer_edges_read_as_before():
    with pytest.raises(InvalidSize) as api:
        build_from_edges(3, [(0, 1.5)])
    assert str(api.value) == "edge (0, 1.5) is not two integer qubit indices"
    with pytest.raises(ValueError) as parsed:
        parse_graph_text("3\n0 1.5\n")
    assert str(parsed.value) == "invalid literal for int() with base 10: '1.5'"
    # the pairs are checked one by one, each in full before the next
    with pytest.raises(SelfLoop):
        build_from_edges(3, [(1, 1), (0, 1.5)])
    with pytest.raises(InvalidSize, match="not two integer"):
        build_from_edges(3, [(0, 1.5), (1, 1)])
    # and the qubit count before any pair
    with pytest.raises(InvalidSize, match="at least one qubit, got n=0"):
        build_from_edges(0, [(0, 1.5)])
    # a graph file's lines are all parsed before any edge is checked
    with pytest.raises(ValueError, match="invalid literal"):
        parse_graph_text("3\n0 0\nx y\n")


def test_numpy_and_integral_float_endpoints_become_ints():
    g = build_from_edges(3, [(np.int64(0), 2.0), (np.int32(2), np.float64(1.0))])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert all(type(q) is int for edge in g.edges for q in edge)


def test_fixture_path_is_the_packaged_file_as_a_path():
    path = fixture_path("fivecross_17.graph")
    assert isinstance(path, Path)
    assert path == Path(graph.__file__).with_name("fixtures") / "fivecross_17.graph"
    assert str(path) == graph.fixture_file("fivecross_17.graph")
    assert path.is_file()


def test_family_detection():
    assert detect_line(build_line(6))
    assert not detect_line(build_cross_chain(1))
    assert detect_cross_chain(build_cross_chain(3)) == 3
    assert detect_cross_chain(build_line(5)) is None
    assert detect_lattice(build_lattice(2, 3)) == (2, 3)
    assert detect_lattice(build_line(8)) is None
    # a canonical chain is exactly the k x 1 lattice
    assert detect_lattice(build_cross_chain(2)) == (2, 1)


@pytest.mark.parametrize("edges,g", [
    ({(1, 0), (1, 2)}, build_line(3)),  # one edge each way round
    ({(b, a) for a, b in build_cross_chain(2).edges}, build_cross_chain(2)),
    ({(b, a) for a, b in build_lattice(2, 3).edges}, build_lattice(2, 3)),
], ids=["line:3", "cross:2", "lattice:2x3"])
def test_edges_given_high_end_first_keep_the_family(edges, g):
    given = ClusterGraph(g.n, frozenset(edges))
    assert given == g and hash(given) == hash(g)
    assert latticeproj.applicable_engines(given) == latticeproj.applicable_engines(g)


@pytest.mark.parametrize("shape", [(3, 2), (2, 1), (5, 1), (7, 3), (2, 3), (4, 4), (1364, 1)])
def test_detect_lattice_builds_only_the_detected_shape(monkeypatch, shape):
    # the counts also fit the transposed shape, which must not be built
    g = build_lattice(*shape)
    built, build = [], graph.build_lattice
    monkeypatch.setattr(graph, "build_lattice", lambda m, n: built.append((m, n)) or build(m, n))
    assert detect_lattice(g) == shape
    assert built == [shape]


def test_detection_compares_edge_counts_before_building(monkeypatch):
    # a billion qubits and no edges: every detection's canonical graph of
    # that size would exhaust memory, so none may be built
    def unreachable(*args):
        raise AssertionError("a canonical graph was built")

    for name in ("build_line", "build_cross_chain", "build_lattice"):
        monkeypatch.setattr(graph, name, unreachable)
    g = ClusterGraph(10**9 + 1, frozenset())  # 3k + 2 qubits; the 1 x k lattice size
    assert not detect_line(g)
    assert detect_cross_chain(g) is None
    assert detect_lattice(g) is None


def test_cross_chain_is_the_k_by_1_lattice():
    for k in range(1, 65):
        assert build_cross_chain(k) == build_lattice(k, 1)


@st.composite
def near_canonical_graphs(draw):
    """A random graph, or a lattice or cross chain with one edge dropped,
    added or moved (or left as it is)."""
    kind = draw(st.sampled_from(["random", "lattice", "chain"]))
    if kind == "random":
        n = draw(st.integers(1, 20))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {tuple(sorted(e)) for e in draw(st.sets(pairs, max_size=3 * n)) if e[0] != e[1]}
        return ClusterGraph(n, frozenset(edges))
    if kind == "lattice":
        g = build_lattice(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    else:
        g = build_cross_chain(draw(st.integers(1, 8)))
    edges = set(g.edges)
    change = draw(st.sampled_from(["none", "drop", "add", "move"]))
    if change in ("drop", "move"):
        edges.discard(draw(st.sampled_from(sorted(edges))))
    if change in ("add", "move"):
        absent = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if (a, b) not in g.edges]
        edges.add(draw(st.sampled_from(absent)))
    return ClusterGraph(g.n, frozenset(edges))


@settings(max_examples=200, deadline=None)
@given(g=near_canonical_graphs())
def test_detect_cross_chain_is_the_one_column_lattice(g):
    shape = detect_lattice(g)
    expected = shape[0] if shape is not None and shape[1] == 1 else None
    assert detect_cross_chain(g) == expected


def test_graph_family_never_builds_a_cross_chain(monkeypatch):
    built, build = [], graph.build_cross_chain
    monkeypatch.setattr(graph, "build_cross_chain", lambda k: built.append(k) or build(k))
    graph.graph_family.cache_clear()
    for k in (1, 2, 7, 30):
        assert graph.graph_family(build_lattice(k, 1)).lattice == (k, 1)
    assert built == []


def test_bipartition_line3():
    b = bipartition(build_line(3))
    assert b.controls == frozenset({1})
    assert b.targets == frozenset({0, 2})


def test_bipartition_cross_and_tie():
    b = bipartition(build_cross_chain(1))
    assert b.controls == frozenset({4})
    bell = bipartition(build_line(2))
    assert bell.controls == frozenset({0})


def test_bipartition_rejects_odd_cycle():
    with pytest.raises(OddCycle):
        bipartition(build_from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_assign_slots_bipartite_bell():
    assert assign_slots(build_line(2)) == {0: 0}


def test_assign_slots_all_but_last():
    g = build_line(4)
    assert assign_slots(g, range(g.n - 1)) == {0: 0, 1: 1, 2: 2}


def test_assign_slots_every_qubit_owns():
    # each qubit's slot is its own index
    g = build_lattice(2, 2)
    assert assign_slots(g, range(g.n)) == {q: q for q in range(g.n)}


def test_assign_slots_rejects_a_non_cover():
    with pytest.raises(ValueError, match="not a vertex cover"):
        assign_slots(build_line(3), [0])


def test_assign_slots_rejects_owners_outside_the_graph():
    with pytest.raises(ValueError, match=r"owners \[-1, 100\] are not qubits"):
        assign_slots(build_lattice(2, 2), [100, -1, *range(13)])


def test_assign_slots_single_cross():
    assert assign_slots(build_cross_chain(1)) == {4: 0}


def test_assign_slots_greedy_cover_on_triangle():
    # with an odd cycle the worked-out owners are the greedy cover
    g = build_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    slot_of = assign_slots(g)
    assert set(slot_of) == _greedy_cover(g)
    assert all(a in slot_of or b in slot_of for a, b in g.edges)


@st.composite
def odd_cycle_graphs(draw):
    """Random edges over an odd cycle, then isolated qubits after them."""
    n = draw(st.integers(3, 30))
    length = draw(st.sampled_from([k for k in (3, 5, 7) if k <= n]))
    cycle = draw(st.permutations(range(n)))[:length]
    edges = {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(length)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {tuple(sorted(e)) for e in draw(st.sets(pairs, max_size=2 * n)) if e[0] != e[1]}
    return ClusterGraph(n + draw(st.integers(0, 3)), frozenset(edges))


@settings(max_examples=300, deadline=None)
@given(g=odd_cycle_graphs())
def test_greedy_cover_matches_the_all_qubit_scan(g):
    with pytest.raises(OddCycle):
        bipartition(g)
    assert _greedy_cover(g) == quadratic_greedy_cover(g)


@pytest.mark.parametrize("seed", range(5))
def test_cover_property_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(2 * n)}
    g = build_from_edges(n, sorted(pairs))
    # None: the bipartition's controls, or the greedy cover on an odd cycle
    for owners in (_greedy_cover(g), range(n - 1), None):
        slot_of = assign_slots(g, owners)
        # slots are dense, in owner index order, and the owners cover every edge
        assert list(slot_of) == sorted(slot_of)
        assert list(slot_of.values()) == list(range(len(slot_of)))
        assert all(a in slot_of or b in slot_of for a, b in g.edges)


def test_bipartite_slot_count_is_min_color_class():
    for g in (build_line(7), build_cross_chain(2), build_lattice(2, 2)):
        b = bipartition(g)
        assert len(assign_slots(g)) == min(len(b.controls), len(b.targets))


def test_graph_file_round_trip():
    g = build_cross_chain(2)
    text = format_graph_text(g, header="round trip")
    assert parse_graph_text(text) == g
    assert parse_graph_text("2\n0 1  # bell").edges == frozenset({(0, 1)})
    with pytest.raises(InvalidSize):
        parse_graph_text("# only a comment\n")


def test_shipped_fixtures_load(tmp_path):
    expected = {
        "line_4.graph": 4,
        "line_10.graph": 10,
        "cross_2.graph": 8,
        "cross_3.graph": 11,
        "lattice_2x2.graph": 4,
        "lattice_3x3.graph": 9,
        "lattice_3x4.graph": 12,
        "fivecross_17.graph": 17,
        "fig10_a4.graph": 4,
        "fig10_b7.graph": 7,
        "fig10_c12.graph": 12,
    }
    for name, qubits in expected.items():
        g = load_graph(fixture_path(name))
        assert g.n == qubits, name


def test_fivecross_fixture_shape():
    g = load_graph(fixture_path("fivecross_17.graph"))
    adj = adjacency(g)
    centers = [q for q in range(g.n) if len(adj[q]) == 4]
    assert centers == [12, 13, 14, 15, 16]
    assert len(g.edges) == 20
    # middle cross shares each of its leaves with exactly one arm
    assert adj[16] == (2, 3, 4, 5)
    for leaf in (2, 3, 4, 5):
        assert len(adj[leaf]) == 3


# ---------------------------------------------------------------------------
# rewrite: the one way the package writes a file


def test_save_graph_and_save_angles_over_longer_files_leave_only_the_new_bytes(tmp_path):
    graph_path, angles_path = tmp_path / "p.graph", tmp_path / "p.angles"
    save_graph(build_lattice(2, 2), graph_path, "a longer graph")
    save_angles(ProjectionSpec.constant(20, 0.3, 0.1), angles_path, "twenty qubits")
    small = build_line(2)
    spec = ProjectionSpec.constant(2, 0.5, 0.25)
    save_graph(small, graph_path, "bell")
    save_angles(spec, angles_path)
    assert graph_path.read_text() == format_graph_text(small, "bell")
    assert angles_path.read_text() == format_angles_text(spec)
    assert load_graph(graph_path) == small


def test_rewrite_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old contents, longer than the new ones\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with rewrite(link) as out:
        out.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_rewrite_keeps_the_inode_its_hard_links_and_its_mode(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("x" * 5000)
    path.chmod(0o600)
    twin = tmp_path / "twin.csv"
    os.link(path, twin)
    inode = path.stat().st_ino
    with rewrite(path) as out:
        out.write("a,b\n1,2\n")
    after = path.stat()
    assert after.st_ino == inode
    assert stat.S_IMODE(after.st_mode) == 0o600
    assert twin.read_text() == "a,b\n1,2\n"


def test_rewrite_creates_a_new_file_like_open_w(tmp_path):
    old = os.umask(0o027)
    try:
        with rewrite(tmp_path / "new.csv") as out:
            out.write("x\n")
        with open(tmp_path / "plain.csv", "w") as out:
            out.write("x\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == 0o666 & ~0o027
    assert mode == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)
    assert (tmp_path / "new.csv").read_text() == "x\n"


def test_rewrite_after_an_exception_holds_exactly_what_was_written(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("y" * 3000)
    with pytest.raises(RuntimeError):
        with rewrite(path) as out:
            out.write("prefix,")
            raise RuntimeError("stopped midway")
    assert path.read_text() == "prefix,"
    with pytest.raises(RuntimeError):
        with rewrite(path) as out:
            raise RuntimeError("stopped before writing")
    # what "w" leaves, too
    assert path.read_bytes() == b""


def test_rewrite_to_a_device_or_a_pipe_does_not_truncate(tmp_path):
    with rewrite(os.devnull) as out:
        out.write("discarded\n")
    read_fd, write_fd = os.pipe()
    try:
        with rewrite(f"/dev/fd/{write_fd}") as out:
            out.write("through the pipe\n")
        os.close(write_fd)
        write_fd = None
        assert os.read(read_fd, 100) == b"through the pipe\n"
    finally:
        os.close(read_fd)
        if write_fd is not None:
            os.close(write_fd)


def _calls_that_write(tree):
    """(line, source) of every call in tree that can open or write a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "fdopen"):
            found.append(node)
        elif name == "open":
            if isinstance(func, ast.Attribute) and ast.unparse(func.value) in ("os", "io"):
                found.append(node)
                continue
            # open(path, mode) or Path(path).open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                found.append(node)
            elif set(mode.value) & set("wax+"):
                found.append(node)
    return [(node.lineno, ast.unparse(node)) for node in found]


def test_only_rewrite_opens_files_for_writing():
    # one write path: a new writer goes through graph.rewrite, or it would
    # reopen its file with O_TRUNC again
    package = Path(latticeproj.__file__).parent
    outside = {}
    for module in sorted(package.rglob("*.py")):
        tree = ast.parse(module.read_text())
        if module.name == "graph.py":
            helper = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "rewrite"
            )
            assert len(_calls_that_write(helper)) == 2  # open and os.open
            tree.body.remove(helper)
        calls = _calls_that_write(tree)
        if calls:
            outside[module.name] = calls
    assert outside == {}


def test_the_package_reads_no_environment():
    # every setting is a module constant or a flag: no os.environ, no getenv
    package = Path(latticeproj.__file__).parent
    reads = []
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"environ", "getenv", "environb", "getenvb"} & set(names):
                reads.append(f"{module.name}:{node.lineno}")
    assert reads == []
