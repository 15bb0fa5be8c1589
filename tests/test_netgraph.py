"""Periodic nets: catalog, coordination, rings, quotients."""

import functools
import itertools
import math
import os
import random
import time
import tracemalloc
from fractions import Fraction
from operator import add, sub
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crystpres import bfs, netgraph
from crystpres.bfs import (BallBoundExceeded, FiniteGroup, _expand,
                           coordination_sequence, geodesics, shell_sizes)
from crystpres.netgraph import (
    HORTON_BIT_BUDGET,
    GraphError,
    LabeledQuotientGraph,
    NonVertexTransitive,
    QuotientNotSimple,
    RingSymbol,
    catalog_load,
    catalog_names,
    extend_lattice,
    from_cayley,
    net_coordination_sequence,
    net_geodesics,
    parse_catalog_text,
    quotient_by_sublattice,
    regular_action_check,
    ring_size_counts,
    schlafli_symbol,
    strong_rings,
    topological_density,
)
from crystpres.netgraph import (_automorphism, _ball, _base_cycles,
                                _horton_cycles, _placement, _start)
from crystpres.affine import (AffineIsometry, finite_closure, hnf_lattice,
                              inverse)
from crystpres.intmat import (hnf, hnf_with_transform, identity_matrix,
                              mat_inverse_frac, mat_vec, solve_hnf, vec_mat)
from crystpres.pipeline import build_extension_data, ndia_generators
from crystpres.symop import parse_symop

from conftest import CORPUS, RING_GOLDENS, cover_bfs, load_document

BUNDLED = ["dia", "gis", "hcb", "nbo", "pcu", "qtz", "sql", "srs", "ths"]


def test_catalog_names():
    assert sorted(catalog_names()) == BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_catalog_roundtrip(name):
    g = catalog_load(name)
    h = parse_catalog_text(g.to_text(), name=name)
    assert h.edges == g.edges
    assert h.cell == g.cell
    assert h.coords == g.coords


def test_catalog_unknown():
    with pytest.raises(GraphError):
        catalog_load("nosuchnet")


def test_graph_validation_errors():
    with pytest.raises(GraphError):  # zero-shift loop
        LabeledQuotientGraph(1, 1, [(0, 0, (0,))])
    with pytest.raises(GraphError):  # duplicate edge
        LabeledQuotientGraph(1, 2, [(0, 1, (0,)), (1, 0, (0,))])
    with pytest.raises(GraphError):  # vertex out of range
        LabeledQuotientGraph(1, 1, [(0, 2, (0,))])
    with pytest.raises(GraphError):  # disconnected cover: shifts span 2Z
        LabeledQuotientGraph(1, 1, [(0, 0, (2,))])


def test_coordinate_rows_must_have_the_rank():
    # the regular-action check reads every coordinate up to the rank
    g = "rank 2\nvertices 1\nedge 0 0 1 0\nedge 0 0 0 1\ncoord 0 0\n"
    with pytest.raises(GraphError, match="^coordinate row 0 has length 1, "
                       "but the net has rank 2$"):
        regular_action_check(parse_catalog_text(g), [
            parse_symop("1+x, y", 2), parse_symop("x, 1+y", 2)])


@pytest.mark.parametrize("text, line", [
    ("rank 1\nvertices 1\ncell 1/0\nedge 0 0 1\n", 3),
    ("rank 1\nvertices 1\nedge 0 0 1\ncoord 0 1/0\n", 4)],
    ids=["cell", "coord"])
def test_zero_denominator_names_its_line(text, line):
    with pytest.raises(GraphError, match=f"^line {line}: zero denominator$"):
        parse_catalog_text(text)


@pytest.mark.parametrize("coord", ["", "coord 0 0\n"],
                         ids=["bare", "with_coord"])
def test_vertex_count_past_the_edges_allocates_nothing(coord):
    # a connected quotient has at most one vertex more than it has edges,
    # so a larger count is refused before any per-vertex list is built
    text = f"rank 1\nvertices 1000000\nedge 0 0 1\n{coord}"
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="^(quotient graph is "
                           "disconnected|coordinates must cover all "
                           "vertices)$"):
            parse_catalog_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_DISCONNECTED = "quotient graph is disconnected"
_LOW_RANK = "cycle shifts do not span the lattice"
_SUBLATTICE = ("cycle shifts span a proper sublattice; periodic cover is"
               " disconnected")


def _validation_outcome(cls, rank, n, edges):
    try:
        cls(rank, n, edges)
    except GraphError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rank,n,edges,message", [
    (1, 2, [(0, 0, (1,))], _DISCONNECTED),
    (2, 2, [(0, 1, (0, 0)), (0, 1, (1, 0)), (0, 0, (2, 0))], _LOW_RANK),
    (1, 1, [(0, 0, (2,))], _SUBLATTICE),
    (1, 1, [], _LOW_RANK),
])
def test_validation_error_messages(rank, n, edges, message):
    assert _validation_outcome(LabeledQuotientGraph, rank, n,
                               edges) == message


class _ParentValidated(LabeledQuotientGraph):
    """The graph with the depth-first validator that bfs._tree replaced,
    copied verbatim apart from its class."""

    def _validate_connected(self):
        # quotient connectivity plus full-rank unimodular cycle shifts
        place = {0: (0,) * self.rank}
        stack = [0]
        cycle_vectors = []
        while stack:
            u = stack.pop()
            for v, s in self.adj[u]:
                pos = tuple(a + b for a, b in zip(place[u], s))
                if v in place:
                    vec = tuple(a - b for a, b in zip(pos, place[v]))
                    if any(vec):
                        cycle_vectors.append(vec)
                else:
                    place[v] = pos
                    stack.append(v)
        if len(place) != self.n:
            raise GraphError("quotient graph is disconnected")
        if not cycle_vectors:
            raise GraphError("cycle shifts do not span the lattice")
        lat = hnf_lattice(cycle_vectors, dimension=self.rank)
        if lat.rank != self.rank:
            raise GraphError("cycle shifts do not span the lattice")
        det = 1
        for i, row in enumerate(lat.basis):
            det *= row[i]
        if det != 1:
            raise GraphError(
                "cycle shifts span a proper sublattice; periodic cover"
                " is disconnected"
            )


@st.composite
def _edge_lists(draw):
    """Arbitrary small labelled quotients, valid or not: rank 1-3, 1-4
    vertices, up to 6 edges with shifts in [-2, 2]."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    shift = st.tuples(*[st.integers(-2, 2)] * rank)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), shift),
                          max_size=6))
    return rank, n, edges


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
@example((1, 2, [(0, 0, (1,))]))
@example((2, 1, [(0, 0, (1, 0))]))
@example((1, 1, [(0, 0, (2,))]))
@example((2, 2, [(0, 1, (0, 0)), (0, 1, (1, 2)), (1, 1, (0, 2))]))
@example((3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)), (0, 0, (0, 0, 1))]))
def test_validator_matches_the_depth_first_oracle(case):
    assert (_validation_outcome(LabeledQuotientGraph, *case)
            == _validation_outcome(_ParentValidated, *case))


def test_coordination_sequences():
    pcu = catalog_load("pcu")
    assert net_coordination_sequence(pcu, 0, 5) == [1, 6, 18, 38, 66, 102]
    sql = catalog_load("sql")
    assert net_coordination_sequence(sql, 0, 4) == [1, 4, 8, 12, 16]
    hcb = catalog_load("hcb")
    assert net_coordination_sequence(hcb, 0, 4) == [1, 3, 6, 9, 12]
    dia = catalog_load("dia")
    assert net_coordination_sequence(dia, 0, 4) == [1, 4, 12, 24, 42]
    gis = catalog_load("gis")
    assert net_coordination_sequence(gis, 0, 5) == [1, 4, 9, 18, 32, 48]


@st.composite
def _small_quotient_graphs(draw, max_n=4, max_shift=3, max_extra=4,
                           max_rank=3, min_n=1):
    """Connected labelled quotient graphs of rank 1-max_rank on min_n to
    max_n vertices with shifts in [-max_shift, max_shift], a base vertex
    and a lattice vector."""
    rank = draw(st.integers(1, max_rank))
    n = draw(st.integers(min_n, max_n))
    shift = st.tuples(*[st.integers(-max_shift, max_shift)] * rank)
    # a spanning tree plus a loop of shift +-e_i for each axis make the
    # cover connected; the extra edges vary it
    edges = [(v, draw(st.integers(0, v - 1)), draw(shift))
             for v in range(1, n)]
    for i in range(rank):
        u = draw(st.integers(0, n - 1))
        sign = draw(st.sampled_from((1, -1)))
        edges.append((u, u, tuple(sign * int(i == j) for j in range(rank))))
    edges += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), shift),
        max_size=max_extra,
    ))
    try:
        g = LabeledQuotientGraph(rank, n, edges)
    except GraphError:  # a loop or a duplicate edge
        assume(False)
    base = draw(st.integers(0, n - 1))
    vector = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    return g, base, vector


@settings(max_examples=60, deadline=None)
@given(_small_quotient_graphs())
def test_cover_walks_match_tuple_bfs(case):
    g, base, vector = case
    radius = 6
    dist, _ = cover_bfs(g, base, radius)
    expected = [0] * (radius + 1)
    for r in dist.values():
        expected[r] += 1
    assert net_coordination_sequence(g, base, radius) == expected
    length, count = net_geodesics(g, vector, base=base)
    dist, paths = cover_bfs(g, base, length)
    target = (base, vector)
    assert dist.get(target) == length
    assert paths[target] == count


@settings(max_examples=80, deadline=None)
@given(_small_quotient_graphs(), st.integers(1, 4), st.data())
def test_capped_net_geodesics_match_tuple_bfs(case, cap, data):
    """Targets anywhere within three times the reach of `cap` steps, and
    targets t + B e_i - e_(i+1) for a reached translate t of the base,
    B the radix of the cover code: a target past the reach must come
    out unreached, never as the node whose packed code it shares."""
    g, base, _ = case
    reach = cap * max(abs(x) for _, _, s in g.edges for x in s)
    dist, paths = cover_bfs(g, base, cap)
    if g.rank > 1 and data.draw(st.booleans()):
        reached = sorted(s for v, s in dist if v == base)
        vector = list(data.draw(st.sampled_from(reached)))
        i = data.draw(st.integers(0, g.rank - 2))
        vector[i] += 2 * reach + 1
        vector[i + 1] -= 1
        vector = tuple(vector)
    else:
        vector = data.draw(st.tuples(
            *[st.integers(-3 * reach, 3 * reach)] * g.rank))
    assume(any(vector))
    target = (base, vector)
    if target in dist:
        assert net_geodesics(g, vector, base=base, cap=cap) == (
            dist[target], paths[target])
    else:
        with pytest.raises(GraphError, match="not reached"):
            net_geodesics(g, vector, base=base, cap=cap)


# the neighbour (2, 0) of boundary node (1, 0) has the packed code of
# the ball node (-1, 1) when the code is sized for radius 1 only
_DIAGONAL_SQL = LabeledQuotientGraph(
    2, 1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, 1))])


@settings(max_examples=80, deadline=None)
@given(_small_quotient_graphs(), st.integers(1, 4))
@example((_DIAGONAL_SQL, 0, (0, 0)), 1)
def test_ring_ball_matches_tuple_bfs(case, radius):
    """_ball lists the cover nodes within radius in tuple-BFS order, and
    links each exactly to its cover neighbours inside the ball, also at
    the boundary, whose outside neighbours lie past the walk's radius;
    it is odd exactly when an edge joins two nodes of one sphere."""
    g, base, _ = case
    dist, _ = cover_bfs(g, base, radius)
    cover, nodes, ball_dist, adj, odd = _ball(g, base, radius)
    decoded = [cover.decode(p) for p in nodes]
    assert decoded == list(dist)
    assert ball_dist == list(dist.values())
    for node, nbrs in zip(decoded, adj):
        assert [decoded[j] for j, _ in nbrs] == [
            nb for nb in g.cover_neighbors(node) if nb in dist]
    assert odd == any(ball_dist[a] == ball_dist[b]
                      for a, nbrs in enumerate(adj) for b, _ in nbrs)


def _set_shell_sizes(adj, base, radius, max_elements=math.inf):
    """Oracle: the walk on sets of CoverCode nodes that the bitset walk
    replaced, copied verbatim apart from its name."""
    steps = CoverCode(adj, radius).steps
    prev, sphere, sizes = [set() for _ in adj], [set() for _ in adj], [1]
    sphere[base].add(base)
    for r in range(1, radius + 1):
        nxt = [set() for _ in adj]
        for v, nodes in enumerate(sphere):
            for w, d in steps[v]:
                nxt[w].update(map(d.__add__, nodes))
        for w, nodes in enumerate(nxt):
            nodes.difference_update(sphere[w], prev[w])
        prev, sphere = sphere, nxt
        sizes.append(sum(map(len, nxt)))
        if sum(sizes) > max_elements:
            raise BallBoundExceeded(
                f"ball exceeded {max_elements} elements at radius {r}")
    return sizes


@st.composite
def _labeled_quotients(draw, max_rank=6, max_radius=12, min_rank=0):
    """(adj, base, radius): rank min_rank to max_rank, 1-6 vertices,
    shifts in [-3, 3], every arc with its reverse.  Loops, parallel and
    zero-shift arcs, several cover components and sublattices of any
    index occur; vertex 0 has an arc, where the oracle's CoverCode reads
    the rank."""
    rank = draw(st.integers(min_rank, max_rank))
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(
        vertex, vertex, st.tuples(*[st.integers(-3, 3)] * rank)),
        min_size=1, max_size=8))
    adj = [[] for _ in range(n)]
    for u, v, s in [(0, *edges[0][1:])] + edges[1:]:
        adj[u].append((v, s))
        adj[v].append((u, tuple(-x for x in s)))
    return adj, draw(vertex), draw(st.integers(0, max_radius))


def _sizes_or_error(walk, *args):
    try:
        return walk(*args)
    except BallBoundExceeded as exc:
        return str(exc)


def _bounded_shell_sizes(adj, base, radius, max_elements):
    """shell_sizes under an element bound of max_elements."""
    with mock.patch.object(bfs, "DEFAULT_MAX_ELEMENTS", max_elements):
        return shell_sizes(adj, base, radius)


@settings(max_examples=300, deadline=None)
@given(_labeled_quotients(), st.integers(1, 3000))
def test_shell_sizes_match_the_set_walk(case, max_elements):
    """Equal sizes, or equal error lines, under a small bound."""
    adj, base, radius = case
    assert (_sizes_or_error(_bounded_shell_sizes, adj, base, radius,
                            max_elements)
            == _sizes_or_error(_set_shell_sizes, adj, base, radius,
                               max_elements))


@settings(max_examples=30, deadline=None)
@given(_labeled_quotients(max_rank=2, max_radius=150))
def test_shell_sizes_match_the_set_walk_past_the_first_box(case):
    """Radii past 64 grow the box and walk again from radius 0."""
    adj, base, radius = case
    assert (_sizes_or_error(_bounded_shell_sizes, adj, base, radius, 20000)
            == _sizes_or_error(_set_shell_sizes, adj, base, radius, 20000))


@settings(max_examples=100, deadline=None)
@given(_labeled_quotients(max_rank=3, max_radius=3),
       st.tuples(*[st.integers(-5, 5)] * 3))
def test_cover_code_within_is_the_box(case, origin):
    """within(a, b, k) against the box listed point by point (each
    |coordinate| within k S, the 1-norm within k S1), at every b one
    step around it, and every walk of k arcs from a ends in it."""
    adj, base, k = case
    rank = len(adj[0][0][1])
    a = origin[:rank]
    shifts = [s for out in adj for _, s in out]
    top = max([abs(x) for s in shifts for x in s], default=0)
    top1 = max(sum(abs(x) for x in s) for s in shifts)
    box = {c for c in itertools.product(range(-k * top, k * top + 1),
                                        repeat=rank)
           if sum(abs(x) for x in c) <= k * top1}
    cover = bfs.CoverCode(adj, k)
    for offset in itertools.product(range(-k * top - 1, k * top + 2),
                                    repeat=rank):
        assert (cover.within(a, tuple(map(add, a, offset)), k)
                == (offset in box))
    ends = {(base, a)}
    for _ in range(k):
        ends = {(w, tuple(map(add, s, t))) for v, s in ends
                for w, t in adj[v]}
    assert all(tuple(map(sub, s, a)) in box for _, s in ends)


REACH_BOXES = [*range(65), 128]


def _round_reaches(frame, base, k, box):
    """Oracle: the box reach as shell_sizes computed it before
    _box_reach, one round per arc; the reach after each of rounds
    0..box."""
    reach = [{} for _ in frame]  # w: the largest +-c_i, i < k, on v -> w
    for v, out in enumerate(frame):
        for w, c in out:
            c = c[:k] + tuple(-x for x in c[:k])
            reach[v][w] = tuple(map(max, reach[v].get(w, c), c))
    far = {base: (0,) * 2 * k}  # v: the same on walks base -> v
    tops = [[max(x) for x in zip(*far.values())]]
    for _ in range(box):  # of at most box arcs
        for v, ahead in list(far.items()):
            for w, c in reach[v].items():
                c = tuple(map(add, ahead, c))
                far[w] = tuple(map(max, far.get(w, c), c))
        tops.append([max(x) for x in zip(*far.values())])
    return tops


def _assert_box_reach_is_the_rounds(adj, base):
    frame = bfs._frame(adj, base)
    rank = len(next((c for out in frame for _, c in out), ()))
    k = min(rank, 3)  # shell_sizes' k wherever it builds a box (rank > 1)
    tops = _round_reaches(frame, base, k, REACH_BOXES[-1])
    for box in REACH_BOXES:
        assert bfs._box_reach(frame, base, k, box) == tops[box], box


@settings(max_examples=200, deadline=None)
@given(_labeled_quotients(min_rank=2))
def test_box_reach_matches_the_rounds(case):
    """On rank 2 (k = 2) and rank 3 to 6 (k = 3) quotients alike; about
    half the draws have a cover component of rank 2 or more."""
    adj, base, _ = case
    _assert_box_reach_is_the_rounds(adj, base)


REACH_LAYERS = [(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)), (2, 2, 1),
                (Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2))]
REACH_DOCUMENTS = sorted(f for f in os.listdir(CORPUS) if f.endswith(".json"))


@pytest.mark.parametrize("adj", [
    *[lambda name=name: catalog_load(name).adj for name in BUNDLED],
    *[lambda v=v: quotient_by_sublattice(catalog_load("ths"), [v]).adj
      for v in REACH_LAYERS],
    *[lambda f=f: bfs._cayley_quotient(load_document(f).generators)[1]
      for f in REACH_DOCUMENTS],
    *[lambda n=n: bfs._cayley_quotient(ndia_generators(n).generators)[1]
      for n in range(2, 6)],
], ids=[*BUNDLED, *[f"ths_layer_{i}" for i in range(len(REACH_LAYERS))],
        *[f[:-5] for f in REACH_DOCUMENTS],
        *[f"ndia_{n}" for n in range(2, 6)]])
def test_box_reach_of_bundled_nets_and_cayley_quotients(adj):
    _assert_box_reach_is_the_rounds(adj(), 0)


def test_box_reach_of_a_huge_box_takes_a_few_rounds():
    """pcu repeats after one round: its reach is the box, at once."""
    frame = bfs._frame(catalog_load("pcu").adj, 0)
    start = time.perf_counter()
    assert bfs._box_reach(frame, 0, 3, 10 ** 9) == [10 ** 9] * 6
    assert time.perf_counter() - start < 1


@settings(max_examples=50, deadline=None)
@given(_labeled_quotients(max_rank=1, max_radius=150))
def test_line_walks_build_no_box(case):
    """On a line (m = 0) shell_sizes asks _box_reach for no round."""
    adj, base, radius = case
    with mock.patch.object(bfs, "_box_reach",
                           wraps=bfs._box_reach) as box_reach:
        _sizes_or_error(_bounded_shell_sizes, adj, base, radius, 20000)
    assert all(call.args[3] == 0 for call in box_reach.call_args_list)


@functools.lru_cache(maxsize=None)
def _set_net_sizes(name):
    return _set_shell_sizes(catalog_load(name).adj, 0, 40)


@st.composite
def _unimodular(draw, d):
    """A signed permutation matrix times up to 2d shears I + c e_ij."""
    m = [[0] * d for _ in range(d)]
    for i, j in enumerate(draw(st.permutations(range(d)))):
        m[i][j] = draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 2 * d if d > 1 else 0))):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.sampled_from((1, -1)))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUNDLED), st.data())
def test_shell_sizes_of_relabeled_bundled_nets(name, data):
    """Radius 40 under a new lattice basis, a vertex permutation and
    shifted labels gives the set walk's sizes on the net as bundled."""
    g = catalog_load(name)
    perm = data.draw(st.permutations(range(g.n)))
    offsets = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * g.rank), min_size=g.n,
        max_size=g.n))
    h = _relabel(g, perm, offsets, data.draw(_unimodular(g.rank)))
    assert shell_sizes(h.adj, perm[0], 40) == _set_net_sizes(name)


def test_net_walks_stop_at_the_element_bound(monkeypatch):
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 100)
    pcu = catalog_load("pcu")
    with pytest.raises(BallBoundExceeded,
                       match="^ball exceeded 100 elements at radius 4$"):
        net_coordination_sequence(pcu, 0, 10)
    with pytest.raises(BallBoundExceeded,
                       match="^ball exceeded 100 elements at radius 6$"):
        net_geodesics(pcu, (10, 10, 0))


def test_geodesic_words_walk_stops_at_the_element_bound(monkeypatch):
    """hcb_p6 to (3, 3): the count holds fewer than 100 nodes, and the
    word walk stops past 100."""
    gens = load_document("hcb_p6.json").generators
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 100)
    assert geodesics(gens, (3, 3), 40)[1:3] == (12, 416)
    with pytest.raises(BallBoundExceeded,
                       match="^ball exceeded 100 elements at radius 9$"):
        geodesics(gens, (3, 3), 40, with_words=True)


def test_from_cayley_closure_stops_at_the_element_bound(monkeypatch):
    # hcb_p6's point group has order 6
    gens = load_document("hcb_p6.json").generators
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 6)
    assert from_cayley(gens).n == 6
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 5)
    with pytest.raises(BallBoundExceeded,
                       match="^point group exceeded 5 elements$"):
        from_cayley(gens)


# one limit for every walk below; the pcu walk peaks at about 12 MiB,
# a few bitsets of 257 x 257 x 257 bits (the box of 128 arcs)
SHELL_WALK_PEAK = 24 << 20


def test_pcu_walk_to_the_element_bound_stays_small():
    """Radius 1000 stops at radius 114 (|B_114| = 2,001,689), having
    walked boxes sized for 64 and 128 arcs only."""
    tracemalloc.start()
    try:
        with pytest.raises(BallBoundExceeded) as exc:
            shell_sizes(catalog_load("pcu").adj, 0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "ball exceeded 2000000 elements at radius 114"
    assert peak < SHELL_WALK_PEAK


def test_rank_six_walk_stays_small():
    """ndia_6 at radius 8: bitsets over three coordinates, the other
    three as keys."""
    tracemalloc.start()
    try:
        sizes = coordination_sequence(ndia_generators(6).generators, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [1, 7, 42, 147, 462, 1127, 2562, 5047, 9492]
    assert peak < SHELL_WALK_PEAK


# a rank-6 one-vertex quotient that test_shell_sizes_match_the_set_walk
# drew: _frame gives it coordinates up to 477, so a bitset box over three
# coordinates held about 10^8 bits where the radius-2 ball has 113 nodes
RANK_SIX_SHIFTS = [(-1, -3, -3, 0, 3, 0), (3, -1, 1, 2, -3, 1),
                   (-1, 2, 0, 1, 2, -3), (1, 3, -3, 2, -3, -3),
                   (2, 1, -2, 3, 0, 3), (1, -1, -2, 0, 0, -2),
                   (-1, -2, -1, -1, 1, 3), (0,) * 6]


@pytest.mark.parametrize("max_elements", [1, math.inf])
def test_rank_six_quotient_walk_holds_its_ball_only(max_elements,
                                                     monkeypatch):
    adj = [[(0, t) for s in RANK_SIX_SHIFTS
            for t in (s, tuple(-x for x in s))]]
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", max_elements)
    tracemalloc.start()
    try:
        got = _sizes_or_error(shell_sizes, adj, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _sizes_or_error(_set_shell_sizes, adj, 0, 2, max_elements)
    assert peak < 64 << 20


def test_elv_walk_never_holds_its_ball():
    """elv at radius 30: a ball of 916,917 elements in under 4 MiB."""
    gens = load_document("elv.json").generators
    tracemalloc.start()
    try:
        sizes = coordination_sequence(gens, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 916917
    assert peak < 4 << 20


@pytest.mark.parametrize("d, radius, last", [
    (4, 30, 72160), (5, 20, 216002), (6, 12, 142000)])
def test_hypercubic_shells_are_the_closed_form(d, radius, last):
    """Z^d with unit steps, |S_r| = sum_k 2^k C(d, k) C(r - 1, k - 1):
    one, two and three coordinates past the box's three are packed into
    the slots."""
    adj = [[(0, tuple(sign * (i == j) for j in range(d)))
            for i in range(d) for sign in (1, -1)]]
    sizes = shell_sizes(adj, 0, radius)
    assert sizes == [1] + [
        sum(2 ** k * math.comb(d, k) * math.comb(r - 1, k - 1)
            for k in range(1, d + 1)) for r in range(1, radius + 1)]
    assert sizes[-1] == last


def _hnf_frame(adj, base):
    """Oracle: bfs._frame as it chose its basis before the echelon, by
    the rank of one HNF per candidate shift."""
    arcs = bfs._tree(adj, base)[1]
    shifts = sorted({s for out in arcs for _, s in out},
                    key=lambda s: (sum(x * x for x in s), s))
    span, basis = hnf(shifts), ()
    for s in shifts:
        if len(basis) < len(span) and len(hnf(basis + (s,))) > len(basis):
            basis += (s,)
    for basis in basis, span:
        transform = hnf_with_transform(basis)
        coords = {s: solve_hnf(transform, s) for s in shifts}
        if None not in coords.values():
            return [[(w, coords[s]) for w, s in out] for out in arcs]


@settings(max_examples=300, deadline=None)
@given(_labeled_quotients())
def test_frame_basis_is_the_hnf_rank_rule(case):
    adj, base, _ = case
    assert bfs._frame(adj, base) == _hnf_frame(adj, base)


def test_topological_density():
    ths = catalog_load("ths")
    assert topological_density(ths, 0, 10) == sum(
        net_coordination_sequence(ths, 0, 10)
    )


@pytest.mark.parametrize("walk", [
    lambda: net_coordination_sequence(catalog_load("pcu"), 0, -1),
    lambda: topological_density(catalog_load("pcu"), 0, -1),
    lambda: coordination_sequence(
        [("a", parse_symop("1+x, y", 2)), ("b", parse_symop("x, 1+y", 2))],
        -1),
], ids=["net_coordination_sequence", "topological_density",
        "coordination_sequence"])
def test_negative_radius_is_rejected(walk):
    # one check in bfs.shell_sizes serves the net and the group walks
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        walk()


@pytest.mark.parametrize("name", BUNDLED)
def test_ring_goldens_and_widen_stability(name):
    """The golden counts, unchanged when the ball is widened by 2: counts
    of sizes <= cap can only fall as the cap rises, and these do not."""
    g = catalog_load(name)
    cap, expected = RING_GOLDENS[name]
    counts = ring_size_counts(g, max_size=cap)
    assert counts == expected
    wider = ring_size_counts(g, max_size=cap + 2)
    assert {k: v for k, v in wider.items() if k <= cap} == expected
    assert schlafli_symbol(g, max_size=cap).counts == tuple(
        sorted(expected.items())
    )


def test_ring_symbol_formatting():
    assert str(RingSymbol({10: 10, 12: 3})) == "10^10.12^3"
    assert str(RingSymbol({6: 1})) == "6"
    assert RingSymbol({4: 12}) == "4^12"
    with pytest.raises(GraphError):
        RingSymbol({4: 0})


def _relabel(g, perm, offsets, unimod):
    """Same net with permuted vertices, shifted labels, new lattice basis."""
    edges = []
    r = g.rank
    for u, v, s in g.edges:
        shifted = tuple(
            sum((s[k] + offsets[v][k] - offsets[u][k]) * unimod[k][j]
                for k in range(r))
            for j in range(r)
        )
        edges.append((perm[u], perm[v], shifted))
    return LabeledQuotientGraph(r, g.n, edges)


@pytest.mark.parametrize("name", ["hcb", "qtz", "gis"])
def test_strong_rings_invariant_under_relabeling(name):
    g = catalog_load(name)
    cap, expected = RING_GOLDENS[name]
    rng = random.Random(7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    offsets = [
        tuple(rng.randrange(-2, 3) for _ in range(g.rank)) for _ in range(g.n)
    ]
    unimods = {
        2: ((1, 1), (0, 1)),
        3: ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    }
    h = _relabel(g, perm, offsets, unimods[g.rank])
    assert ring_size_counts(h, base=perm[0], max_size=cap) == expected


def test_strong_ring_nodes_are_cycles():
    g = catalog_load("dia")
    for ring in strong_rings(g, max_size=8):
        nodes = ring.nodes
        assert len(set(nodes)) == len(nodes)
        closed = list(nodes) + [nodes[0]]
        for a, b in zip(closed, closed[1:]):
            assert b in g.cover_neighbors(a)


def test_rejected_cycles_have_decomposition_witness():
    """Any cycle through the base that is not a strong ring must be a
    GF(2) sum of strictly smaller cycles; rebuild that witness basis
    independently and check span membership for every rejected cycle."""
    g = catalog_load("gis")
    cap = 8
    cover, nodes, dist, adj, _ = _ball(g, 0, cap)
    strong = {r.nodes for r in strong_rings(g, max_size=cap)}
    # all simple cycles through the base, by brute DFS within the ball
    cycles = _base_cycles(adj, dist, cap)
    horton = _horton_cycles(adj, cap)
    for mask, path in cycles.items():
        if tuple(cover.decode(nodes[i]) for i in path) in strong:
            continue
        length = len(path)
        pivots = {}
        basis = [hm for hm in horton if hm.bit_count() < length]
        for bm in basis:
            while bm:
                p = bm.bit_length() - 1
                if p not in pivots:
                    pivots[p] = bm
                    break
                bm ^= pivots[p]
        rem = mask
        while rem:
            p = rem.bit_length() - 1
            if p not in pivots:
                break
            rem ^= pivots[p]
        assert rem == 0, f"no witness for rejected {length}-cycle"


def _edge_set(path):
    return frozenset(
        frozenset(pair) for pair in zip(path, path[1:] + path[:1]))


# the triangular lattice: its 4-rings are sums of triangles, which only
# Horton cycles of cap - 1 edges supply at cap 4
_TRIANGULAR = LabeledQuotientGraph(
    2, 1, [(0, 0, (1, 0)), (0, 0, (1, -1)), (0, 0, (0, 1))])


@settings(max_examples=40, deadline=None)
@given(_small_quotient_graphs(max_n=3, max_shift=1, max_extra=1),
       st.integers(3, 6))
@example((_TRIANGULAR, 0, (0, 0)), 4)
def test_strong_rings_match_networkx_span_oracle(case, cap):
    """A simple cycle through the base of length c <= cap is a strong
    ring exactly when it is not a GF(2) sum of the cycles shorter than c
    that networkx finds in the radius-cap ball (rank 3 stops at cap 4,
    where listing the ball's short cycles is still quick)."""
    nx = pytest.importorskip("networkx")
    g, base, _ = case
    assume(g.rank < 3 or cap <= 4)
    dist, _ = cover_bfs(g, base, cap)
    ball = nx.Graph(
        (a, b) for a in dist for b in g.cover_neighbors(a) if b in dist)
    number = {}
    for a, b in ball.edges:
        number[frozenset((a, b))] = number[frozenset((b, a))] = len(number)
    by_length = {}
    for cycle in nx.simple_cycles(ball, length_bound=cap):
        mask = sum(1 << number[e] for e in _edge_set(cycle))
        by_length.setdefault(len(cycle), []).append((mask, cycle))
    pivots = {}

    def reduce(mask):
        while mask and mask.bit_length() in pivots:
            mask ^= pivots[mask.bit_length()]
        return mask

    origin = (base, (0,) * g.rank)
    expected = set()
    for length in sorted(by_length):
        expected |= {_edge_set(cycle) for mask, cycle in by_length[length]
                     if origin in cycle and reduce(mask)}
        for mask, _ in by_length[length]:
            if rem := reduce(mask):
                pivots[rem.bit_length()] = rem
    rings = strong_rings(g, base, cap)
    assert len(rings) == len(expected)
    assert {_edge_set(list(r.nodes)) for r in rings} == expected


def _box_chain(k):
    """Rank-1 chain of 2 x 2 x k box surfaces (8k + 10 vertices each),
    the top-cap centre of each bridged to the bottom-cap centre of the
    next, and the base vertex (0, 1, k/2) midway up one side."""
    points = [(x, y, z) for z in range(k + 1) for y in range(3)
              for x in range(3) if x != 1 or y != 1 or z in (0, k)]
    index = {p: i for i, p in enumerate(points)}
    edges = [(i, index[q], (0,)) for (x, y, z), i in index.items()
             for q in ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1))
             if q in index]
    edges.append((index[1, 1, k], index[1, 1, 0], (1,)))
    return LabeledQuotientGraph(1, len(points), edges), index[0, 1, k // 2]


def test_box_waist_is_not_strong_inside_its_ball():
    """The box's waist (8 edges) is the sum of the squares of either half
    of the box.  With k = 12 those squares lie in the radius-10 ball, so
    the waist is no ring; with k = 26 each half leaves the radius-14
    ball, and the ball is the bound: the waist is reported at cap 14 and
    rejected once cap 16 takes in a half."""
    g, base = _box_chain(12)
    assert g.n == 8 * 12 + 10
    assert ring_size_counts(g, base, 10) == {4: 4}
    g, base = _box_chain(26)
    assert ring_size_counts(g, base, 14) == {4: 4, 8: 1}
    assert ring_size_counts(g, base, 16) == {4: 4}


def _full_horton_cycles(adj, max_len):
    """Oracle: the Horton set that the lowest-root trees replaced, a tree
    at every ball node with every closing edge kept, copied verbatim
    apart from its name."""
    n_edges = sum(map(len, adj)) // 2
    masks = set()
    for root in range(len(adj)):
        tree = {root: (0, 0)}
        sphere = [root]
        for depth in range(1, max_len // 2 + 1):
            nxt = []
            for a in sphere:
                mask = tree[a][1]
                for b, e in adj[a]:
                    if b not in tree:
                        tree[b] = (depth, mask | (1 << e))
                        nxt.append(b)
            sphere = nxt
        for a, (da, ma) in tree.items():
            for b, e in adj[a]:
                if a < b and b in tree and da + tree[b][0] < max_len:
                    masks.add(ma ^ tree[b][1] ^ (1 << e))
        if len(masks) * n_edges > HORTON_BIT_BUDGET:
            raise BallBoundExceeded(
                f"ring basis exceeded {HORTON_BIT_BUDGET} bits: "
                f"{len(masks)} cycles over {n_edges} ball edges")
    masks.discard(0)  # a tree edge closes no cycle
    return masks


class CoverCode(bfs.CoverCode):
    """The packed cover code with the neighbour list that
    _two_pass_ball walks with _expand."""

    def neighbours(self, p):
        return [(w, p + d) for w, d in self.steps[p % self.n]]


def _two_pass_ball(g, base, radius):
    """Oracle: the ball that the one-pass _ball replaced, an _expand walk
    and then a second scan for the edges, copied verbatim apart from its
    name."""
    cover = CoverCode(g.adj, radius + 1)
    entries = {cover.encode(*_start(g, base)): (0, 0)}
    for _ in _expand(cover.neighbours, entries, radius):
        pass
    index = {p: i for i, p in enumerate(entries)}
    adj = [[] for _ in index]
    edges = {}
    for p, i in index.items():
        for _, q in cover.neighbours(p):
            j = index.get(q)
            if j is not None:
                key = (i, j) if i < j else (j, i)
                adj[i].append((j, edges.setdefault(key, len(edges))))
    return cover, list(entries), [r for r, _ in entries.values()], adj


def _path_mask_horton_cycles(adj, max_len):
    """Oracle: the highest-root Horton set with a path mask per tree node
    and a second scan for the closing edges, which the parent lists
    replaced, copied verbatim apart from its name and its rooting rule
    (roots descending, trees over lower nodes)."""
    n_edges = sum(map(len, adj)) // 2
    masks = set()
    for root in range(len(adj) - 1, -1, -1):
        tree = {b: (1, 1 << e, b) for b, e in adj[root] if b < root}
        sphere = list(tree)
        for depth in range(2, max_len // 2 + 1):
            nxt = []
            for a in sphere:
                _, mask, branch = tree[a]
                for b, e in adj[a]:
                    if b < root and b not in tree:
                        tree[b] = (depth, mask | (1 << e), branch)
                        nxt.append(b)
            sphere = nxt
        for a, (da, ma, ba) in tree.items():
            for b, e in adj[a]:
                if a < b and b in tree:
                    db, mb, bb = tree[b]
                    if ba != bb and da + db < max_len:
                        masks.add(ma | mb | (1 << e))
        if len(masks) * n_edges > HORTON_BIT_BUDGET:
            raise BallBoundExceeded(
                f"ring basis exceeded {HORTON_BIT_BUDGET} bits: "
                f"{len(masks)} cycles over {n_edges} ball edges")
    return masks


def _outcome(horton_cycles, adj, max_len):
    try:
        return horton_cycles(adj, max_len)
    except BallBoundExceeded as exc:
        return str(exc)


def _assert_matches_the_oracles(g, base, cap):
    """The one-pass ball is the two-pass ball, and at every max_len from
    2 to cap - 1 (both parities of the last sphere) the Horton sets, or
    the budget errors, are identical."""
    _, nodes, dist, adj, _ = _ball(g, base, cap)
    assert (nodes, dist, adj) == _two_pass_ball(g, base, cap)[1:]
    for max_len in range(2, cap):
        assert _outcome(_horton_cycles, adj, max_len) == _outcome(
            _path_mask_horton_cycles, adj, max_len)


@settings(max_examples=60, deadline=None)
@given(_small_quotient_graphs(), st.integers(3, 9))
@example((_TRIANGULAR, 0, (0, 0)), 9)
@example((*_box_chain(12), ()), 9)
def test_ball_and_horton_sets_match_the_oracles(case, cap):
    g, base, _ = case
    # the oracle holds a mask over all ball edges per tree node
    assume(g.rank < 3 or cap <= 5)
    assume(sum(map(len, _ball(g, base, cap)[3])) // 2 <= 3000)
    _assert_matches_the_oracles(g, base, cap)


@pytest.mark.parametrize("name", BUNDLED)
def test_ball_and_horton_sets_match_the_oracles_on_bundled_nets(name):
    g = catalog_load(name)
    for base in range(g.n):
        _assert_matches_the_oracles(g, base, RING_GOLDENS[name][0])


def test_ball_and_horton_sets_match_the_oracles_on_a_ths_layer():
    # acceptance criterion 6: the ths layer quotient, ring cap 12
    vector = (Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
    q = quotient_by_sublattice(catalog_load("ths"), [vector])
    for base in range(q.n):
        _assert_matches_the_oracles(q, base, 12)


def _ranks_up_to(masks, max_len):
    """ranks[l]: the GF(2) rank of the masks with at most l edges."""
    pivots = {}
    ranks = [0] * (max_len + 1)
    for mask in sorted(masks, key=int.bit_count):
        length = mask.bit_count()
        while mask and mask.bit_length() in pivots:
            mask ^= pivots[mask.bit_length()]
        if mask:
            pivots[mask.bit_length()] = mask
            ranks[length] += 1
    return list(itertools.accumulate(ranks))


def _is_simple_cycle(mask, ends):
    """The edges of mask form one simple cycle: every node has degree 2
    and the edges are connected."""
    edges = [ends[e] for e in range(mask.bit_length()) if mask >> e & 1]
    degree = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if set(degree.values()) != {2}:
        return False
    seen = {edges[0][0]}
    grown = True
    while grown:
        grown = False
        for a, b in edges:
            if (a in seen) != (b in seen):
                seen |= {a, b}
                grown = True
    return len(seen) == len(degree)


@settings(max_examples=40, deadline=None)
@given(_small_quotient_graphs(), st.integers(3, 7))
@example((_TRIANGULAR, 0, (0, 0)), 4)
@example((*_box_chain(12), ()), 10)
def test_highest_root_horton_set_spans_like_the_full_set(case, cap):
    """At every length l, the Horton cycles of at most l edges rooted at
    their highest node span the same cycles as the full Horton set with
    at most l edges, and each is a simple cycle of the ball."""
    g, base, _ = case
    assume(g.rank < 3 or cap <= 5)
    _, _, _, adj, _ = _ball(g, base, cap)
    # either Horton set holds at most one mask per (root, edge), and the
    # ball has at most edges + 1 nodes, so a ball of at most 600 edges
    # stays under the bit budget: 601 * 600**2 < HORTON_BIT_BUDGET
    assume(sum(map(len, adj)) // 2 <= 600)
    ends = {e: (i, j) for i, nbrs in enumerate(adj) for j, e in nbrs}
    new = _horton_cycles(adj, cap - 1)
    old = _full_horton_cycles(adj, cap - 1)
    ranks = _ranks_up_to(new, cap - 1)
    assert ranks == _ranks_up_to(old, cap - 1)
    assert ranks == _ranks_up_to(new | old, cap - 1)
    assert all(_is_simple_cycle(mask, ends) for mask in new)


def _lowest_root_horton_cycles(adj, max_len):
    """Oracle: the Horton set rooted at each cycle's lowest node, which
    the highest-root trees replaced, copied verbatim apart from its
    name."""
    n_edges = sum(map(len, adj)) // 2
    held, grown, up, via, branch = ([-1] * len(adj) for _ in range(5))
    masks = set()

    def close(a, b, e):
        mask = 1 << e
        for x in (a, b):
            while x != root:
                mask |= 1 << via[x]
                x = up[x]
        return mask

    for root in range(len(adj)):
        sphere = [b for b, _ in adj[root] if b > root]
        if len(sphere) < 2:
            continue
        for b, e in adj[root]:
            if b > root:
                held[b], up[b], via[b], branch[b] = root, root, e, b
        for _ in range(1, max_len // 2):
            nxt = []
            for a in sphere:
                grown[a] = root
                ba = branch[a]
                for b, e in adj[a]:
                    if held[b] != root:
                        if b > root:
                            held[b], up[b], via[b], branch[b] = root, a, e, ba
                            nxt.append(b)
                    elif grown[b] != root and branch[b] != ba:
                        masks.add(close(a, b, e))
            sphere = nxt
        if max_len % 2:
            for a in sphere:
                for b, e in adj[a]:
                    if (a < b and held[b] == root and grown[b] != root
                            and branch[b] != branch[a]):
                        masks.add(close(a, b, e))
        if len(masks) * n_edges > HORTON_BIT_BUDGET:
            raise BallBoundExceeded(
                f"ring basis exceeded {HORTON_BIT_BUDGET} bits: "
                f"{len(masks)} cycles over {n_edges} ball edges")
    return masks


def _lowest_root_strong_rings(g, base, max_size):
    """Oracle: the ring search with the lowest-root Horton set of up to
    max_size - 1 edges on every ball, odd last sphere included, copied
    from strong_rings apart from its name and that set."""
    cover, nodes, dist, adj, _ = _ball(g, base, max_size)
    basis = sorted((mask.bit_count(), mask)
                   for mask in _lowest_root_horton_cycles(adj, max_size - 1))
    candidates = _base_cycles(adj, dist, max_size)
    pivots = {}

    def reduce(mask):
        while mask and mask.bit_length() - 1 in pivots:
            mask ^= pivots[mask.bit_length() - 1]
        return mask

    rings = []
    admitted = 0
    for mask, path in sorted(candidates.items(),
                             key=lambda item: (len(item[1]), item[0])):
        while admitted < len(basis) and basis[admitted][0] < len(path):
            rem = reduce(basis[admitted][1])
            if rem:
                pivots[rem.bit_length() - 1] = rem
            admitted += 1
        if reduce(mask):
            rings.append(tuple(cover.decode(nodes[i]) for i in path))
    return rings


@settings(max_examples=40, deadline=None)
@given(_small_quotient_graphs(), st.integers(3, 7))
@example((_TRIANGULAR, 0, (0, 0)), 4)
@example((*_box_chain(12), ()), 10)
def test_strong_rings_match_the_lowest_root_search(case, cap):
    """Rooting each Horton cycle at its highest node, and stopping at an
    even length on a bipartite ball, leave every ring verdict as the
    lowest-root search with its odd last sphere gives it.  The
    triangular lattice's 4-rings need its triangles, which only that
    odd pass supplies at cap 4."""
    g, base, _ = case
    assume(g.rank < 3 or cap <= 5)
    # at most 600 ball edges keep either Horton set under the bit budget
    assume(sum(map(len, _ball(g, base, cap)[3])) // 2 <= 600)
    assert [r.nodes for r in strong_rings(g, base, cap)] == (
        _lowest_root_strong_rings(g, base, cap))


@settings(max_examples=60, deadline=None)
@given(_small_quotient_graphs(), st.integers(3, 9))
@example((*_box_chain(12), ()), 9)
def test_bipartite_balls_have_no_odd_horton_cycles(case, cap):
    """On a ball with no edge inside a sphere, the odd last sphere of the
    Horton pass closes nothing: the sets at 2h + 1 and 2h are equal."""
    g, base, _ = case
    assume(g.rank < 3 or cap <= 5)
    _, _, _, adj, odd = _ball(g, base, cap)
    assume(not odd and sum(map(len, adj)) // 2 <= 3000)
    for max_len in range(3, cap, 2):
        assert _outcome(_horton_cycles, adj, max_len) == _outcome(
            _horton_cycles, adj, max_len - 1)


def test_budget_freed_ring_searches():
    """Searches whose full Horton set passed the bit budget now answer,
    as the full set does with the budget lifted."""
    g = LabeledQuotientGraph(3, 1, [
        (0, 0, (-1, 0, 0)), (0, 0, (0, -1, 0)), (0, 0, (0, 0, -1)),
        (0, 0, (0, 0, -2)), (0, 0, (0, 1, -2))])
    assert ring_size_counts(g, 0, 7) == {3: 9, 4: 28}
    assert ring_size_counts(catalog_load("qtz"), 0, 14) == {6: 6, 8: 40}


def test_ring_basis_bit_budget():
    """A dense net raises BallBoundExceeded before its Horton cycles
    outgrow the bit budget, instead of exhausting memory."""
    g = LabeledQuotientGraph(3, 2, [
        (0, 0, (-2, 1, -1)), (0, 0, (-1, 0, 0)), (0, 0, (0, -1, 0)),
        (0, 0, (0, 0, -1)), (0, 1, (-2, -2, -1)), (0, 1, (2, 2, -1))])
    tracemalloc.start()
    try:
        with pytest.raises(BallBoundExceeded, match="ring basis exceeded"):
            strong_rings(g, 1, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HORTON_BIT_BUDGET // 8 * 2


# the peak allocation of a ring ball stopped at its bound, whatever its
# shape: pcu's takes about 43 MiB, the rank-1 line's about 53 MiB
RING_BALL_PEAK = 64 << 20


def _ring_ball_peak(g, radius):
    """(error text, tracemalloc peak) of strong_rings stopped at its
    ball bound."""
    tracemalloc.start()
    try:
        with pytest.raises(BallBoundExceeded) as exc:
            strong_rings(g, 0, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


def test_ring_ball_bound():
    """The ball raises BallBoundExceeded past HORTON_BIT_BUDGET >> 10
    nodes and edges, before any cycle is sought: pcu's radius-200 ball
    would hold some 3 * 10**7 edges and take gigabytes."""
    err, peak = _ring_ball_peak(catalog_load("pcu"), 200)
    assert err == "ring ball exceeded 262144 nodes and edges at radius 37"
    assert peak < RING_BALL_PEAK


def test_ring_ball_bound_on_a_line():
    """The rank-1 line has one node per edge, twice pcu's share, so a
    bound on edges alone let its ball take some 105 MiB against pcu's
    60 MiB; counting nodes too holds both under one limit."""
    g = from_cayley(load_document("z1_trivial.json").generators)
    err, peak = _ring_ball_peak(g, 10 ** 9)
    assert err == "ring ball exceeded 262144 nodes and edges at radius 65536"
    assert peak < RING_BALL_PEAK


@pytest.mark.parametrize("name", BUNDLED)
def test_base_cycles_match_networkx(name):
    """_base_cycles finds exactly the simple cycles through the base that
    networkx enumerates in the same ball, with masks over its edges."""
    nx = pytest.importorskip("networkx")
    cap = RING_GOLDENS[name][0]
    _, _, dist, adj, _ = _ball(catalog_load(name), 0, cap // 2 + 1)
    number = {(i, j): e for i, nbrs in enumerate(adj) for j, e in nbrs}
    ball = nx.Graph(list(number))
    expected = {
        _edge_set(cycle)
        for cycle in nx.simple_cycles(ball, length_bound=cap) if 0 in cycle
    }
    found = _base_cycles(adj, dist, cap)
    for mask, path in found.items():
        assert path[0] == 0 and len(set(path)) == len(path)
        assert mask == sum(
            1 << number[pair] for pair in zip(path, path[1:] + path[:1]))
    assert {_edge_set(path) for path in found.values()} == expected
    assert len(found) == len(expected)


def test_base_vertex_out_of_range():
    sql = catalog_load("sql")
    for base in (-1, sql.n):
        with pytest.raises(GraphError, match="out of range"):
            net_coordination_sequence(sql, base, 3)
        with pytest.raises(GraphError, match="out of range"):
            strong_rings(sql, base, 6)
        with pytest.raises(GraphError, match="out of range"):
            net_geodesics(sql, (1, 0), base=base)


def test_ths_quotients():
    ths = catalog_load("ths")
    table = [
        ((Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)), 424, "10^10.12^3"),
        ((2, 2, 1), 445, "10^10.12^6"),
        ((Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2)), 460, "10^10.12^9"),
    ]
    for vector, td10, symbol in table:
        q = quotient_by_sublattice(ths, [vector])
        assert q.rank == 2
        assert topological_density(q, 0, 10) == td10
        assert schlafli_symbol(q, max_size=12) == symbol


def test_square_lattice_tube():
    sql = catalog_load("sql")
    tube = quotient_by_sublattice(sql, [(4, 12)])
    assert tube.rank == 1
    assert tube.n == 4
    assert ring_size_counts(tube, max_size=16) == {4: 4, 16: 1820}


def test_quotient_with_two_torsion_factors():
    # pcu / L, L = <(2,2,0), (0,2,2)>: Z^3 / L is Z + (Z/2)^2, a tube of
    # four vertex copies; its spheres are those of the walk on Z^3 mod L
    tube = quotient_by_sublattice(catalog_load("pcu"), [(2, 2, 0), (0, 2, 2)])
    assert (tube.rank, tube.n) == (1, 4)

    def reduce(x):
        # the point of x + L with x_0 and x_2 in {0, 1}
        a, b = x[0] // 2, x[2] // 2
        return x[0] - 2 * a, x[1] - 2 * a - 2 * b, x[2] - 2 * b

    steps = [e for e in itertools.product((-1, 0, 1), repeat=3)
             if sum(map(abs, e)) == 1]
    seen, sphere, sizes = {(0, 0, 0)}, {(0, 0, 0)}, [1]
    for _ in range(8):
        sphere = {reduce(tuple(a + b for a, b in zip(x, e)))
                  for x in sphere for e in steps} - seen
        seen |= sphere
        sizes.append(len(sphere))
    assert net_coordination_sequence(tube, 0, 8) == sizes


def test_net_geodesics():
    sql = catalog_load("sql")
    assert net_geodesics(sql, (4, 12)) == (16, 1820)
    assert net_geodesics(sql, (5, 12)) == (17, 6188)
    assert net_geodesics(sql, (0, 0)) == (0, 1)
    dia = catalog_load("dia")
    # one conventional fcc cell edge: conventional (0,1/2,1/2) is a
    # primitive vector, two bonds away
    length, count = net_geodesics(dia, (0, Fraction(1, 2), Fraction(1, 2)))
    assert length == 2


def test_quotient_errors():
    pcu = catalog_load("pcu")
    with pytest.raises(QuotientNotSimple):  # unit vector gives loops
        quotient_by_sublattice(pcu, [(1, 0, 0)])
    with pytest.raises(QuotientNotSimple):  # doubled axis gives parallels
        quotient_by_sublattice(pcu, [(2, 0, 0)])
    with pytest.raises(GraphError):  # full-rank quotient is not periodic
        quotient_by_sublattice(pcu, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    with pytest.raises(GraphError):  # dependent vectors
        quotient_by_sublattice(pcu, [(2, 0, 0), (4, 0, 0)])
    dia = catalog_load("dia")
    with pytest.raises(GraphError):  # not in the primitive lattice
        quotient_by_sublattice(dia, [(Fraction(1, 3), 0, 0)])


def test_non_vertex_transitive_symbol():
    g = LabeledQuotientGraph(
        1, 2, [(0, 0, (1,)), (0, 1, (0,)), (0, 1, (1,))]
    )
    with pytest.raises(NonVertexTransitive):
        schlafli_symbol(g, max_size=6)


def _per_vertex_symbol(g, max_size):
    """schlafli_symbol with a ring search at every vertex, the loop it
    ran before vertex orbits, kept as the oracle."""
    reference = None
    for v in range(g.n):
        counts = ring_size_counts(g, v, max_size)
        if reference is None:
            reference = counts
        elif counts != reference:
            raise NonVertexTransitive(
                f"vertex 0 sees {reference} but vertex {v} sees {counts}"
            )
    if not reference:
        raise GraphError(f"no strong rings of size <= {max_size}")
    return RingSymbol(reference)


def _symbol_outcome(symbol, g, max_size):
    try:
        return str(symbol(g, max_size))
    except (GraphError, BallBoundExceeded) as exc:
        return type(exc), str(exc)


@st.composite
def _orbit_cases(draw):
    """Rank 1-2 quotients on 2-4 vertices with unit shifts, which keep
    the cap-6 balls small: half drawn as they come (most have unequal
    degrees or no symmetry), half a supercell of a drawn quotient on 1-2
    vertices, relabelled, whose cover keeps the hidden translations and
    so has a vertex orbit of at least two vertices."""
    if draw(st.booleans()):
        return draw(_small_quotient_graphs(
            max_shift=1, max_rank=2, min_n=2))[0]
    g = draw(_small_quotient_graphs(max_n=2, max_shift=1, max_rank=2))[0]
    h = _supercell(g, draw(st.integers(0, g.rank - 1)),
                   draw(st.integers(2, 4 // g.n)))
    perm = draw(st.permutations(range(h.n)))
    offsets = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * h.rank),
                            min_size=h.n, max_size=h.n))
    return _relabel(h, perm, offsets, draw(_unimodular(h.rank)))


@settings(max_examples=150, deadline=None)
@given(_orbit_cases())
def test_orbit_symbol_matches_the_per_vertex_loop(g):
    assert (_symbol_outcome(schlafli_symbol, g, 6)
            == _symbol_outcome(_per_vertex_symbol, g, 6))


def _assert_automorphisms(g):
    """Every map _automorphism returns takes (0, 0) to (u, 0), permutes
    the vertices, has a unimodular linear part and maps the canonical
    edge set onto itself; returns the number of targets it found."""
    placement = _placement(g)
    found = 0
    for u in range(1, g.n if placement else 0):
        auto = _automorphism(g, placement, u)
        if auto is None:
            continue
        pi, shift, a = auto
        assert (pi[0], shift[0]) == (u, (0,) * g.rank)
        assert sorted(pi) == list(range(g.n))
        assert hnf(a) == identity_matrix(g.rank)
        image = set()
        for v, w, d in g.edges:
            d = tuple(x + y - z for x, y, z in
                      zip(mat_vec(a, d), shift[w], shift[v]))
            image.add(min((pi[v], pi[w], d),
                          (pi[w], pi[v], tuple(-x for x in d))))
        assert image == set(g.edges)
        found += 1
    return found


@settings(max_examples=100, deadline=None)
@given(_orbit_cases())
def test_automorphisms_map_the_edge_set_onto_itself(g):
    _assert_automorphisms(g)


@settings(max_examples=27, deadline=None)
@given(st.sampled_from(BUNDLED), st.data())
def test_relabeled_bundled_nets_search_rings_once(name, data):
    """Each bundled net is vertex-transitive with a stable placement, so
    under any vertex permutation and lattice basis one ring search gives
    its symbol."""
    g = catalog_load(name)
    cap, expected = RING_GOLDENS[name]
    perm = data.draw(st.permutations(range(g.n)))
    offsets = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * g.rank), min_size=g.n,
        max_size=g.n))
    h = _relabel(g, perm, offsets, data.draw(_unimodular(g.rank)))
    assert _assert_automorphisms(h) == h.n - 1
    with mock.patch.object(netgraph, "ring_size_counts",
                           wraps=ring_size_counts) as spy:
        assert schlafli_symbol(h, cap).counts == tuple(
            sorted(expected.items()))
    assert spy.call_count == 1


def test_unstable_chain_searches_every_vertex():
    """Vertices 2 and 3 have the same neighbours, so they share a
    barycentric position: no automorphism is sought, though the chain
    is vertex-transitive."""
    chain = LabeledQuotientGraph(1, 4, [
        (0, 2, (0,)), (0, 3, (0,)), (1, 2, (0,)), (1, 3, (0,)),
        (2, 0, (1,)), (2, 1, (1,)), (3, 0, (1,)), (3, 1, (1,))])
    assert _placement(chain) is None
    with mock.patch.object(netgraph, "ring_size_counts",
                           wraps=ring_size_counts) as spy:
        assert schlafli_symbol(chain, 6) == "4^10"
    assert spy.call_count == 4


def test_extend_lattice_centered_square():
    g = LabeledQuotientGraph(
        2,
        2,
        [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1)), (0, 1, (-1, -1))],
        coords=[(0, 0), (Fraction(1, 2), Fraction(1, 2))],
    )
    h = extend_lattice(g, [(Fraction(1, 2), Fraction(1, 2))])
    assert h.n == 1
    sql = catalog_load("sql")
    assert net_coordination_sequence(h, 0, 4) == net_coordination_sequence(
        sql, 0, 4
    )
    assert ring_size_counts(h, max_size=6) == {4: 4}


def test_extend_lattice_rejects_non_translation():
    g = catalog_load("hcb")
    # (1/2, 0) moves vertex 0 to (1/2, 0), where no vertex lies
    with pytest.raises(GraphError):
        extend_lattice(g, [(Fraction(1, 2), 0)])


def test_extend_lattice_rejects_a_vector_that_keeps_vertices_on_vertices():
    """x -> x + 1/2 swaps the two vertices of this chain, but vertex 0
    has degree 4 and vertex 1 degree 2, so it is no translation of the
    net; merging the vertices would give a 4-regular chain."""
    g = LabeledQuotientGraph(1, 2, [(0, 1, (0,)), (1, 0, (1,)), (0, 0, (1,))],
                             coords=[[0], [Fraction(1, 2)]])
    with pytest.raises(GraphError,
                       match="^1/2 is not a translation of the net$"):
        extend_lattice(g, [(Fraction(1, 2),)])


def _supercell(g, axis, k):
    """g over the sublattice with k e_axis in place of e_axis: vertex
    v * k + m is vertex v moved by m e_axis, and a cell of g.cell with
    row axis times k (diag(.., k, ..) when g has none)."""
    def split(x, m):  # cell offset m + x along the axis -> (m', shift)
        return (m + x) % k, (m + x) // k

    edges = []
    for u, v, s in g.edges:
        for m in range(k):
            mv, q = split(s[axis], m)
            edges.append((u * k + m, v * k + mv,
                          s[:axis] + (q,) + s[axis + 1:]))
    coords = g.coords and [c[:axis] + ((c[axis] + m) / k,) + c[axis + 1:]
                           for c in g.coords for m in range(k)]
    cell = g.cell if g.cell is not None else identity_matrix(g.rank)
    cell = [tuple(k * x for x in row) if i == axis else row
            for i, row in enumerate(cell)]
    return LabeledQuotientGraph(g.rank, g.n * k, edges, cell=cell,
                                coords=coords)


@pytest.mark.parametrize("name", ["dia", "gis", "hcb", "pcu", "sql"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("with_cell", [True, False])
def test_extend_lattice_undoes_a_supercell(name, k, with_cell):
    g = catalog_load(name)
    if not with_cell:
        g = LabeledQuotientGraph(g.rank, g.n, g.edges, coords=g.coords)
    cell = g.cell if with_cell else identity_matrix(g.rank)
    for axis in range(g.rank):
        vector = [Fraction(int(i == axis), k) for i in range(g.rank)]
        h = extend_lattice(_supercell(g, axis, k), [vector])
        assert (h.edges, h.coords, h.cell) == (g.edges, g.coords, cell)


def test_from_cayley_matches_catalog_invariants():
    doc = load_document("gis_i41a.json")
    g = from_cayley(doc.generators)
    cat = catalog_load("gis")
    assert g.n == cat.n == 8
    assert net_coordination_sequence(g, 0, 5) == net_coordination_sequence(
        cat, 0, 5
    )
    assert schlafli_symbol(g, max_size=8) == "4^3.8^4"


def test_from_cayley_rejects_a_generator_with_its_inverse():
    gens = [(name, parse_symop(t, 2))
            for name, t in zip("abc", ["1+x, y", "-1+x, y", "x, 1+y"])]
    with pytest.raises(GraphError, match="parallel Cayley edges"):
        from_cayley(gens)


def test_from_cayley_of_a_finite_group():
    gens = [("a", parse_symop("-y, x, z", 3)),
            ("b", parse_symop("-x, -y, -z", 3))]
    with pytest.raises(FiniteGroup, match="finite group of order 8"):
        from_cayley(gens)


@pytest.mark.parametrize("d", [7, 8])
def test_from_cayley_base_point_is_generic_in_every_dimension(d):
    """A mirror in the last coordinate with the unit translations: the
    base point has no zero coordinate, so its two images differ and the
    group acts regularly on its own Cayley net."""
    xs = [f"x{i}" for i in range(1, d + 1)]
    mirror = parse_symop(", ".join(xs[:-1] + ["-" + xs[-1]]), d)
    units = [parse_symop(", ".join(f"1+{x}" if j == i else x
                                   for j, x in enumerate(xs)), d)
             for i in range(d)]
    group = [mirror, *units]
    g = from_cayley(list(zip("abcdefghi", group)))
    assert g.n == 2 and len(set(map(tuple, g.coords))) == 2
    assert regular_action_check(g, group) == "pass"


def test_regular_action_check():
    gis = catalog_load("gis")
    doc = load_document("gis_i41a.json")
    assert regular_action_check(gis, [op for _, op in doc.generators]) == "pass"
    pcu = catalog_load("pcu")
    shifts = [
        parse_symop("1+x, y, z", 3),
        parse_symop("x, 1+y, z", 3),
        parse_symop("x, y, 1+z", 3),
    ]
    assert regular_action_check(pcu, shifts) == "pass"
    # the inversion alone preserves edges but fixes the base vertex
    assert regular_action_check(pcu, [parse_symop("-x, -y, -z", 3)]) == "fail"
    # a quarter shift maps every vertex off the net
    assert regular_action_check(pcu, [parse_symop("1/4+x, y, z", 3)]) == "fail"
    # a doubled x shift acts freely but leaves two vertex orbits
    doubled = [parse_symop("2+x, y, z", 3)] + shifts[1:]
    assert regular_action_check(pcu, doubled) == "fail"
    # adding the inversion gives as many cosets mod L as vertex orbits,
    # but the inversion fixes the base vertex
    inversion = parse_symop("-x, -y, -z", 3)
    assert regular_action_check(pcu, [inversion] + doubled) == "fail"


def test_regular_action_shear_breaks_the_edge_set():
    # x + y, y, z keeps pcu's vertices on vertices but takes the y edge
    # to a face diagonal
    with pytest.raises(GraphError) as info:
        regular_action_check(catalog_load("pcu"),
                             [parse_symop("x+y, y, z", 3)])
    assert str(info.value) == "group generator does not preserve the edge set"


@pytest.mark.parametrize("net, op", [("pcu", "-y, x"), ("sql", "-y, x, z")])
def test_regular_action_rejects_a_generator_of_another_dimension(net, op):
    g = catalog_load(net)
    d = op.count(",") + 1
    with pytest.raises(GraphError) as info:
        regular_action_check(g, [parse_symop(op, d)])
    assert str(info.value) == (f"group generator has dimension {d}, "
                               f"but the net has rank {g.rank}")


@pytest.mark.parametrize("vector, text", [((1, 0, 5), "1,0,5"),
                                          ((Fraction(1, 2),), "1/2")])
def test_extend_lattice_rejects_a_vector_of_another_length(vector, text):
    with pytest.raises(GraphError) as info:
        extend_lattice(catalog_load("sql"), [vector])
    assert str(info.value) == (f"vector {text} has length {len(vector)}, "
                               "but the net has rank 2")


def test_regular_action_inconclusive():
    # pcu on a cell doubled along x: a quarter turn about z moves that
    # cell's lattice, so the quotient cannot certify it
    pcu2 = LabeledQuotientGraph(
        3, 2,
        [(0, 1, (0, 0, 0)), (1, 0, (1, 0, 0)), (0, 0, (0, 1, 0)),
         (0, 0, (0, 0, 1)), (1, 1, (0, 1, 0)), (1, 1, (0, 0, 1))],
        cell=[[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        coords=[[0, 0, 0], [Fraction(1, 2), 0, 0]],
    )
    turn = parse_symop("-y, x, z", 3)
    assert regular_action_check(pcu2, [turn]) == "inconclusive"
    # one translation spans a rank-1 lattice, below the net's rank 3: its
    # orbits lie on lines, so it cannot act transitively on the net
    pcu = catalog_load("pcu")
    assert regular_action_check(pcu, [parse_symop("1+x, y, z", 3)]) == "fail"


def test_regular_action_of_the_trivial_group_fails():
    # no generators: the trivial H is finite, so it fails like any other
    assert regular_action_check(catalog_load("pcu"), []) == "fail"


CORPUS_DOCS = sorted(f for f in os.listdir(CORPUS) if f.endswith(".json"))


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_regular_action_on_cayley_nets(name):
    """A group acts regularly on its own Cayley net; its translation
    subgroup does too exactly when the point group is trivial."""
    doc = load_document(name)
    g = from_cayley(doc.generators)
    assert regular_action_check(g, [op for _, op in doc.generators]) == "pass"
    E = build_extension_data(doc.generators)
    translations = [AffineIsometry.from_translation(row)
                    for row in E.lattice.basis]
    expected = "pass" if E.point_order == 1 else "fail"
    assert regular_action_check(g, translations) == expected


def test_regular_action_of_a_smaller_generating_set():
    # H = <a, b> is all of G because c = a^2 b^2; words for far
    # translates such as 4c stray far from the base vertex
    doc = load_document("z2_diagonal_2.json")
    ops = dict(doc.generators)
    g = from_cayley(doc.generators)
    assert regular_action_check(g, [ops["a"], ops["b"]]) == "pass"


def _fraction_regular_action_check(g, group_generators, base=0):
    """regular_action_check as it was before _cover_map, verbatim but for
    math.prod: Fraction positions and an edge loop over cover_neighbors."""
    if g.coords is None:
        raise GraphError("regular action check needs vertex coordinates")
    cell = g.cell if g.cell is not None else identity_matrix(g.rank)
    lattice = hnf_lattice(cell)
    to_prim = mat_inverse_frac(cell)
    vertex_at = {tuple(x % 1 for x in c): v for v, c in enumerate(g.coords)}

    def position(node):
        v, s = node
        return vec_mat(tuple(a + b for a, b in zip(g.coords[v], s)), cell)

    def locate(point):
        # the cover node at a conventional-coordinate point, or None
        q = vec_mat(point, to_prim)
        v = vertex_at.get(tuple(x % 1 for x in q))
        return None if v is None else (
            v, tuple(int(a - b) for a, b in zip(q, g.coords[v])))

    for h in group_generators:
        if not all(lattice.coordinates(mat_vec(h.linear, row)) is not None
                   for row in cell):
            return "inconclusive"
        image = [locate(h.apply(position(_start(g, v)))) for v in range(g.n)]
        if None in image:
            return "fail"
        for u, v, s in g.edges:
            if (locate(h.apply(position((v, s))))
                    not in g.cover_neighbors(image[u])):
                raise GraphError(
                    "group generator does not preserve the edge set"
                )

    # h p0 - p0 is the translation of h conjugated by the shift to p0,
    # so the images of p0 are distinct mod L iff the conjugates' residual
    # translations are; conjugating by a translation keeps L
    to_p0 = AffineIsometry.from_translation(position(_start(g, base)))
    _, _, reps, sub = finite_closure(
        [inverse(to_p0) * h * to_p0 for h in group_generators])
    if sub.rank < g.rank:
        return "fail"
    # full-rank HNF bases are triangular
    covolume = [math.prod(row[i] for i, row in enumerate(x.basis))
                for x in (sub, lattice)]
    orbits = g.n * covolume[0] / covolume[1]
    images = {code[1:] for code in reps}
    return "pass" if len(reps) == orbits == len(images) else "fail"


ACTION_NETS = ["dia", "gis", "hcb", "pcu", "sql"] + CORPUS_DOCS
ACTION_SHIFTS = (0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4),
                 Fraction(3, 4), 1, Fraction(1, 3))


@functools.lru_cache(maxsize=None)
def _action_net(name):
    """A net with coordinates and its own group's generators: the Cayley
    net of a corpus document, gis with the document it was frozen from,
    or another catalog net with its cell's unit translations."""
    if name in CORPUS_DOCS or name == "gis":
        doc = load_document("gis_i41a.json" if name == "gis" else name)
        g = catalog_load(name) if name == "gis" else from_cayley(
            doc.generators)
        return g, tuple(op for _, op in doc.generators)
    g = catalog_load(name)
    return g, tuple(map(AffineIsometry.from_translation, g.cell))


def _action_case(rng):
    """(net, generators, base): 1-3 generators, each a product of 1-3 of
    the net's own generators and their inverses, a signed permutation
    with translation parts in ACTION_SHIFTS, or the shear x + y, y, z;
    a third of the time after the net's own generators."""
    g, own = _action_net(rng.choice(ACTION_NETS))
    d = g.rank
    gens = list(own) if rng.random() < 1 / 3 else []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3 if d > 1 else 2)
        if kind == 0:
            h = AffineIsometry.identity(d)
            for _ in range(rng.randint(1, 3)):
                x = rng.choice(own)
                h = h * (x if rng.random() < 0.5 else inverse(x))
        elif kind == 1:
            perm = rng.sample(range(d), d)
            h = AffineIsometry(
                [[rng.choice((1, -1)) * (perm[i] == j) for j in range(d)]
                 for i in range(d)],
                [rng.choice(ACTION_SHIFTS) for _ in range(d)])
        else:
            h = AffineIsometry([[int(i == j or (i, j) == (0, 1))
                                 for j in range(d)] for i in range(d)],
                               (0,) * d)
        gens.append(h)
    return g, gens, rng.randrange(g.n)


def _action_outcome(check, g, gens, *base):
    try:
        return check(g, gens, *base)
    except GraphError as exc:  # the exact message is part of the verdict
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_regular_action_matches_the_fraction_check(rng):
    # the check reads vertex 0; the Fraction check at the drawn base must
    # agree, since a pass makes H transitive and stabilisers conjugate
    g, gens, base = _action_case(rng)
    assert (_action_outcome(regular_action_check, g, gens)
            == _action_outcome(_fraction_regular_action_check, g, gens, base))


def test_action_cases_reach_every_verdict():
    """Seeded draws of _action_case agree with the Fraction check and
    reach all four outcomes: pass, fail, inconclusive and the edge-set
    GraphError.  The check reads vertex 0, the Fraction check the drawn
    base."""
    seen = set()
    for seed in range(150):
        g, gens, base = _action_case(random.Random(seed))
        outcome = _action_outcome(regular_action_check, g, gens)
        assert outcome == _action_outcome(_fraction_regular_action_check,
                                          g, gens, base)
        seen.add(outcome if isinstance(outcome, str) else outcome[0])
    assert seen == {"pass", "fail", "inconclusive", GraphError}
