"""Periodic graphs as labeled quotient graphs.

A labeled quotient graph stores one vertex per translation orbit and
one edge per edge orbit, each edge carrying the lattice shift between
its endpoints' cells.  Covers are explored lazily, so coordination
sequences, ring searches and sublattice quotients all work directly on
the finite description.

Coordination sequences (bfs.shell_sizes, three spheres of int bitsets
per CoverCode slot) and geodesic counts (bfs.shell_geodesics, two
spheres from both ends) stop at the element bound of their group twins.
Geodesic counts and the ring-search ball (_ball, numbered in one
breadth-first pass) run on packed int nodes (bfs.CoverCode), decoded to
(v, s) only where a result reports them.  from_cayley reads the net of
a group off bfs._cayley_quotient, the quotient `cseq --input` walks.

A net is validated on the spanning tree of bfs._tree, which also frames
shell_sizes and orders _placement's arcs: the quotient must be connected
and the tree's cycle shifts must span Z^rank (their HNF is the identity),
or the cover falls apart.  One integer routine, _cover_map, tests whether
an affine map sends the net onto itself, finding each image's vertex by
its class mod the lattice: the automorphisms behind schlafli_symbol's one
ring search per vertex orbit, each generator in regular_action_check
(read in the net's primitive frame, where T = Z^rank, through the cell's
inverse that the net keeps) and each new vector in extend_lattice.
"""

import os
from collections import Counter
from fractions import Fraction
from itertools import count, islice, product
from math import prod
from operator import add, sub

from . import bfs
from .affine import AffineIsometry, finite_closure, hnf_lattice
from .bfs import (BallBoundExceeded, CoverCode, FiniteGroup, _cayley_quotient,
                  _tree, shell_geodesics, shell_sizes)
from .intmat import (
    frac_rows,
    gf2_reduce,
    hnf,
    identity_matrix,
    independent,
    mat_inverse_frac,
    mat_vec,
    scale_to_int,
    smith_left_transform,
    vec_mat,
)

DEFAULT_RING_CAP = 14
# Cycle masks one ring search may hold, in bits: (cycles) x (ball edges),
# checked on the Horton set and on the candidates apart.  pnna_acd at cap
# 14, the largest bundled search, needs 4.4e6 and 1.6e5.
HORTON_BIT_BUDGET = 1 << 28
CATALOG_ENV = "CRYSTPRES_CATALOG"


class GraphError(ValueError):
    pass


class QuotientNotSimple(GraphError):
    """The requested quotient would produce loops or parallel edges."""


class NonVertexTransitive(GraphError):
    """Per-vertex ring counts disagree; no single symbol exists."""


def _vector_text(vector):
    """A vector as written on the command line, e.g. 5/2,-1."""
    return ",".join(map(str, vector))


def _canonical_edge(u, v, shift):
    shift = tuple(int(s) for s in shift)
    neg = tuple(-s for s in shift)
    return min((u, v, shift), (v, u, neg))


class LabeledQuotientGraph:
    """Finite quotient of a periodic graph by its translation lattice.

    edges are stored canonically; `cell` optionally gives the primitive
    basis rows C in conventional-cell coordinates, and `to_prim` is C^-1
    (the identity without a cell), which takes user-facing conventional
    vectors to the primitive frame; `coords` optionally gives vertex
    positions in primitive-basis coordinates.
    """

    def __init__(self, rank, n_vertices, edges, cell=None, coords=None,
                 name=None):
        if rank < 1:
            raise GraphError("rank must be >= 1")
        if n_vertices < 1:
            raise GraphError("vertex count must be >= 1")
        self.rank = rank
        self.n = n_vertices
        canon = []
        seen = set()
        for u, v, shift in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise GraphError(f"edge endpoint out of range: {(u, v)}")
            if len(shift) != rank:
                raise GraphError(f"edge shift has wrong rank: {shift}")
            key = _canonical_edge(u, v, shift)
            if key[0] == key[1] and all(s == 0 for s in key[2]):
                raise GraphError(f"loop edge at vertex {u}")
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        canon.sort()
        self.edges = tuple(canon)
        self.to_prim = identity_matrix(rank)
        if cell is not None:
            cell = frac_rows(cell)
            if len(cell) != rank or any(len(r) != rank for r in cell):
                raise GraphError("cell matrix must be rank x rank")
            try:
                self.to_prim = mat_inverse_frac(cell)
            except ValueError:
                raise GraphError("cell matrix is singular") from None
        self.cell = cell
        if coords is not None:
            coords = frac_rows(coords)
            if len(coords) != n_vertices:
                raise GraphError("coordinate count differs from vertex count")
            for v, row in enumerate(coords):
                if len(row) != rank:
                    raise GraphError(f"coordinate row {v} has length {len(row)}"
                                     f", but the net has rank {rank}")
        self.coords = coords
        self.name = name
        if n_vertices > len(canon) + 1:  # refused before any per-vertex list
            raise GraphError("quotient graph is disconnected")
        adj = [[] for _ in range(n_vertices)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, tuple(-x for x in s)))
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._validate_connected()

    def _validate_connected(self):
        # the cover is connected iff the quotient is and the cycle
        # shifts of bfs._tree span Z^rank: the HNF of the distinct ones
        t, arcs, _ = _tree(self.adj, 0)
        if None in t:
            raise GraphError("quotient graph is disconnected")
        span = hnf({s for out in arcs for _, s in out if any(s)})
        if len(span) != self.rank:
            raise GraphError("cycle shifts do not span the lattice")
        if span != identity_matrix(self.rank):
            raise GraphError(
                "cycle shifts span a proper sublattice; periodic cover"
                " is disconnected"
            )

    def degree(self, v):
        return len(self.adj[v])

    def cover_neighbors(self, node):
        v, shift = node
        return [
            (w, tuple(a + b for a, b in zip(shift, s)))
            for w, s in self.adj[v]
        ]

    def to_text(self):
        lines = []
        if self.name:
            lines.append(f"# {self.name}")
        lines.append(f"rank {self.rank}")
        lines.append(f"vertices {self.n}")
        if self.cell is not None:
            flat = " ".join(str(x) for row in self.cell for x in row)
            lines.append(f"cell {flat}")
        for u, v, s in self.edges:
            lines.append("edge %d %d %s" % (u, v, " ".join(map(str, s))))
        if self.coords is not None:
            for i, c in enumerate(self.coords):
                lines.append("coord %d %s" % (i, " ".join(map(str, c))))
        return "\n".join(lines) + "\n"

    def conventional_to_primitive(self, vector):
        """Integer primitive-basis coordinates of a conventional-cell
        translation; raises if the vector is not a lattice translation."""
        vector = tuple(Fraction(x) for x in vector)
        if len(vector) != self.rank:
            raise GraphError("translation vector has wrong rank")
        coords = vec_mat(vector, self.to_prim)
        if any(x.denominator != 1 for x in coords):
            raise GraphError(f"{_vector_text(vector)} is not a lattice"
                             " translation of this net")
        return tuple(map(int, coords))


def parse_catalog_text(text, name=None):
    rank = None
    n = None
    cell = None
    edges = []
    coords = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "rank":
                rank = int(parts[1])
            elif key == "vertices":
                n = int(parts[1])
            elif key == "cell":
                vals = [Fraction(x) for x in parts[1:]]
                if rank is None or len(vals) != rank * rank:
                    raise GraphError("cell must follow rank and be square")
                cell = [vals[i * rank:(i + 1) * rank] for i in range(rank)]
            elif key == "edge":
                u, v = int(parts[1]), int(parts[2])
                shift = tuple(int(x) for x in parts[3:])
                edges.append((u, v, shift))
            elif key == "coord":
                coords[int(parts[1])] = [Fraction(x) for x in parts[2:]]
            else:
                raise GraphError(f"unknown directive {key!r}")
        except (IndexError, ValueError) as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise GraphError(f"line {lineno}: zero denominator") from exc
    if rank is None or n is None:
        raise GraphError("missing rank or vertices header")
    coord_list = None
    if coords:
        if len(coords) != n or not all(0 <= i < n for i in coords):
            raise GraphError("coordinates must cover all vertices")
        coord_list = [coords[i] for i in range(n)]
    return LabeledQuotientGraph(rank, n, edges, cell=cell, coords=coord_list,
                                name=name)


def catalog_directory():
    override = os.environ.get(CATALOG_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "catalog")


def catalog_names():
    d = catalog_directory()
    try:
        files = os.listdir(d)
    except OSError as exc:
        raise GraphError(f"cannot read catalog {d}: {exc.strerror}") from exc
    return sorted(f[:-4] for f in files if f.endswith(".lqg"))


def catalog_load(name):
    path = os.path.join(catalog_directory(), name + ".lqg")
    if not os.path.exists(path):
        raise GraphError(
            f"unknown net {name!r}; available: {', '.join(catalog_names())}"
        )
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # str(OSError) has path
        reason = getattr(exc, "strerror", exc)
        raise GraphError(f"cannot read {path}: {reason}") from exc
    return parse_catalog_text(text, name=name)


def _start(g, base):
    if not 0 <= base < g.n:
        raise GraphError(f"base vertex {base} out of range 0..{g.n - 1}")
    return (base, (0,) * g.rank)


def net_coordination_sequence(g, base, radius):
    """Sphere sizes around a base vertex in the periodic cover; past
    bfs.DEFAULT_MAX_ELEMENTS ball nodes, BallBoundExceeded."""
    return shell_sizes(g.adj, _start(g, base)[0], radius)


def topological_density(g, base=0, radius=10):
    return sum(net_coordination_sequence(g, base, radius))


def net_geodesics(g, vector, base=0, cap=200):
    """(length, count) of shortest cover paths from a vertex to its
    translate by a lattice vector (conventional coordinates when the
    graph has a cell matrix), by bfs.shell_geodesics on g.adj, which
    holds at most bfs.DEFAULT_MAX_ELEMENTS nodes (BallBoundExceeded)."""
    found = shell_geodesics(
        g.adj, _start(g, base),
        (base, g.conventional_to_primitive(vector)), cap)
    if found is None:
        raise GraphError(
            f"target {_vector_text(vector)} not reached within {cap} spheres")
    return found


# ---------------------------------------------------------------------------
# Cayley graph of a crystallographic group as a labeled quotient graph


def from_cayley(generators):
    """Quotient graph of the Cayley graph by the translation lattice T.

    Its edges are the arcs u -> u x^-1 of the generators x in
    bfs._cayley_quotient, unoriented, shifts in the basis of T: only the
    point-group closure is needed.  Parallel edges mean the Cayley graph
    is not simple and raise GraphError (no generator is the identity, so
    there are no loops); a finite group raises FiniteGroup.  When T has full
    rank, vertex coordinates (the orbit of a generic base point, in
    T-basis coordinates) are attached for embedding-aware checks.
    """
    (kernel, _, elements, lat), adj = _cayley_quotient(generators)
    if not lat.rank:
        raise FiniteGroup(len(elements))
    edges = {}  # canonical edge -> index of the generator giving it
    for i, arcs in enumerate(adj):
        for k, (j, shift) in enumerate(arcs[::2]):
            if edges.setdefault(_canonical_edge(i, j, shift), k) != k:
                raise GraphError("parallel Cayley edges from distinct "
                                 "generators; graph is not simple")
    coords = cell = None
    d = kernel.dimension
    if lat.rank == d:
        primes = (p for p in count(7) if all(p % q for q in range(2, p)))
        base_point = tuple(Fraction(1, p) for p in islice(primes, d))
        inv = mat_inverse_frac(lat.basis)
        coords = [vec_mat(kernel.decode(rep).apply(base_point), inv)
                  for rep in elements]
        cell = lat.basis
    return LabeledQuotientGraph(lat.rank, len(elements), edges, coords=coords,
                                cell=cell)


def extend_lattice(g, new_vectors):
    """Re-express the net over the lattice enlarged by `new_vectors`.

    The vectors are rational combinations (in current primitive-basis
    coordinates) that must be translations of the underlying net, e.g. a
    centering vector the constructing group did not contain: each is
    checked as the cover map x -> x + tau (_cover_map), and one that
    takes a vertex to no vertex or an edge to no edge raises GraphError.
    Vertex coordinates are required to identify merged vertices: two
    vertices merge iff their new-basis coordinates have the same
    fractional part, and the first of each class stands for it.  The
    resulting cell matrix maps the new basis back to the old
    (conventional) coordinates.
    """
    if g.coords is None:
        raise GraphError("lattice extension needs vertex coordinates")
    rank = g.rank
    new_vectors = frac_rows(new_vectors)
    pos, den = scale_to_int(g.coords)
    cover_map = _cover_map(g, pos, den)
    for tau in new_vectors:
        if len(tau) != rank:
            raise GraphError(f"vector {_vector_text(tau)} has length "
                             f"{len(tau)}, but the net has rank {rank}")
        found = cover_map(identity_matrix(rank), [den * x for x in tau])
        if not (found and found[2]):
            raise GraphError(
                f"{_vector_text(tau)} is not a translation of the net")
    new_lat = hnf_lattice(identity_matrix(rank) + new_vectors)
    binv = mat_inverse_frac(new_lat.basis)

    reps, coords = [], []  # old vertex and new coordinates of each class
    cls = []     # old vertex -> (new index, integer offset in new basis)
    index = {}   # fractional part of new coordinates -> new index
    for i, c in enumerate(g.coords):
        x = vec_mat(c, binv)
        k = index.setdefault(tuple(a % 1 for a in x), len(reps))
        if k == len(reps):
            reps.append(i)
            coords.append(x)
        cls.append((k, tuple(map(sub, x, coords[k]))))

    # distinct old edge orbits may fall into one orbit of the larger
    # translation group; the canonical triple already identifies them.
    # Z^rank lies in the new lattice, so every shift is integral
    edges = {_canonical_edge(cls[u][0], cls[v][0], (
        a + b - c for a, b, c in zip(cls[v][1], vec_mat(s, binv), cls[u][1])))
        for u, v, s in g.edges}
    old_cell = g.cell if g.cell is not None else identity_matrix(rank)
    cell = tuple(vec_mat(row, old_cell) for row in new_lat.basis)
    return LabeledQuotientGraph(rank, len(reps), sorted(edges), cell=cell,
                                coords=coords, name=g.name)


# ---------------------------------------------------------------------------
# Sublattice quotients (projection construction)


def quotient_by_sublattice(g, vectors):
    """Quotient of the net by independent lattice translations.

    Vectors are given in conventional-cell coordinates when the graph
    carries a cell matrix, otherwise directly in the primitive basis.
    The result has periodicity rank reduced by the number of vectors;
    torsion in the quotient lattice multiplies the vertex count.  Loops
    or parallel edges in the result raise QuotientNotSimple; more than
    bfs.DEFAULT_MAX_ELEMENTS vertices raise BallBoundExceeded before any
    is built.
    """
    prim = [g.conventional_to_primitive(v) for v in vectors]
    if not prim:
        raise GraphError("no quotient vectors given")
    k = len(prim)
    try:
        u_mat, diag = smith_left_transform(prim)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    if g.rank - k < 1:
        raise GraphError("quotient would not be periodic")
    written = ";".join(map(_vector_text, vectors))
    n, bound = g.n * prod(diag), bfs.DEFAULT_MAX_ELEMENTS
    if n > bound:
        raise BallBoundExceeded(
            f"quotient by {written} has {n} vertices, more than {bound}")
    combos = list(product(*map(range, diag)))
    combo_index = {c: i for i, c in enumerate(combos)}

    def vertex_id(v, tors):
        return v * len(combos) + combo_index[tors]

    edges = set()
    for u, v, s in g.edges:
        y = mat_vec(u_mat, s)  # k torsion coordinates, then the free ones
        for c in combos:
            shifted = tuple((a + b) % d for a, b, d in zip(c, y, diag))
            key = _canonical_edge(vertex_id(u, c), vertex_id(v, shifted), y[k:])
            if key[0] == key[1] and all(x == 0 for x in key[2]):
                raise QuotientNotSimple(
                    f"quotient by {written} creates a loop"
                )
            if key in edges:
                raise QuotientNotSimple(
                    f"quotient by {written} creates parallel edges"
                )
            edges.add(key)
    name = None
    if g.name:
        name = f"{g.name}/{','.join(str(v) for v in vectors)}"
    return LabeledQuotientGraph(g.rank - k, n, sorted(edges), name=name)


# ---------------------------------------------------------------------------
# Rings


class Ring:
    """A simple cycle through the base vertex of the periodic cover."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"Ring({len(self)}: {self.nodes})"


class RingSymbol:
    """Multiset of strong-ring sizes at a vertex, e.g. 4^12 or 10^10.12^3."""

    def __init__(self, counts):
        self.counts = tuple(sorted(counts.items()))
        if any(c <= 0 for _, c in self.counts):
            raise GraphError("ring counts must be positive")

    def __str__(self):
        return ".".join(
            f"{size}^{count}" if count > 1 else str(size)
            for size, count in self.counts
        )

    def __eq__(self, other):
        if isinstance(other, str):
            return str(self) == other
        if isinstance(other, RingSymbol):
            return self.counts == other.counts
        return NotImplemented

    def __repr__(self):
        return f"RingSymbol({self})"


def _ball(g, base, radius):
    """The cover ball about the base vertex as a small integer graph:
    (cover, nodes, dist, adj, odd) with the CoverCode of the walk, the
    node codes in discovery order (the base is node 0), their distances
    from the base, per node its neighbours in the ball as (node, edge)
    pairs in g.adj order, and whether an edge joins two nodes of one
    sphere (else the ball is bipartite).  One pass numbers the nodes as
    it scans them; a boundary node links only to numbered ones (by then
    the whole ball) and an edge is numbered at its lower end.  The code
    is sized for radius + 1 for the boundary's outside neighbours.  Past
    HORTON_BIT_BUDGET >> 10 nodes and edges together, some 1,000-2,000
    bits each to hold whatever the ball's shape, it raises
    BallBoundExceeded."""
    cover = CoverCode(g.adj, radius + 1)
    nodes = [cover.encode(*_start(g, base))]
    index, dist, adj, n_edges, odd = {nodes[0]: 0}, [0], [], 0, False
    for i, p in enumerate(nodes):
        nbrs, di = [], dist[i]
        for _, d in cover.steps[p % cover.n]:
            j = index.get(p + d)
            if j is None:
                if di == radius:
                    continue
                j = index[p + d] = len(nodes)
                nodes.append(p + d)
                dist.append(di + 1)
            if j > i:
                nbrs.append((j, n_edges))
                n_edges += 1
            else:
                odd = odd or dist[j] == di
                for k, e in adj[j]:
                    if k == i:
                        nbrs.append((j, e))
                        break
        adj.append(nbrs)
        if len(nodes) + n_edges > HORTON_BIT_BUDGET >> 10:
            raise BallBoundExceeded(
                f"ring ball exceeded {HORTON_BIT_BUDGET >> 10} nodes and"
                f" edges at radius {dist[-1]}")
    return cover, nodes, dist, adj, odd


def _base_cycles(adj, dist, max_size):
    """Simple cycles through node 0 of length <= max_size, as
    {edge mask: node path}, keeping the first path found per edge set.
    Raises BallBoundExceeded once (cycles held) x (ball edges) passes
    HORTON_BIT_BUDGET."""
    n_edges = sum(map(len, adj)) // 2
    out = {}
    path = [0]

    def dfs(cur, mask):
        for nb, e in adj[cur]:
            if nb == 0:
                if len(path) >= 3 and mask | (1 << e) not in out:
                    out[mask | (1 << e)] = list(path)
                    if len(out) * n_edges > HORTON_BIT_BUDGET:
                        raise BallBoundExceeded(
                            f"ring candidates exceeded {HORTON_BIT_BUDGET}"
                            f" bits: {len(out)} cycles over {n_edges}"
                            " ball edges")
                continue
            # path has len(path) - 1 edges; one more reaches nb and at
            # least dist[nb] more are needed to close the cycle
            if len(path) + dist[nb] > max_size or nb in path:
                continue
            path.append(nb)
            dfs(nb, mask | (1 << e))
            path.pop()

    dfs(0, 0)
    return out


def _horton_cycles(adj, max_len):
    """Horton cycles of at most max_len >= 2 edges, as a set of edge masks.

    Each root r, highest first, grows a BFS tree of depth max_len // 2
    over the ball nodes numbered below r only, in per-node lists reused
    across roots: the last root to hold or to grow from the node, its
    parent, the edge from it and its branch (the first node after r on
    its path).  A non-tree edge a-b between tree nodes on different
    branches closes the simple cycle P_r(a) + ab + P_r(b) of da + db + 1
    edges, kept if at most max_len; only then is its mask built, up the
    parent chains.  Each is met once: as its endpoint found first grows
    (it then fits), or after the tree if both ends lie in the last
    sphere, which fits only when max_len is odd and closes an odd cycle,
    so none on a bipartite ball; a root with under two branches closes
    none and is skipped.  In _ball's numbering a node's lower neighbours
    lie one sphere nearer the base (or in its own sphere), so a node
    with one edge from there grows no tree.  Raises BallBoundExceeded
    once (masks held) x (ball edges) passes HORTON_BIT_BUDGET.

    At each length l <= max_len the masks of at most l edges span every
    ball cycle of at most l edges, as Horton's full set (every root,
    every closing edge; SIAM J. Comput. 16, 1987) does; rooting each
    cycle at one extreme node of a total order is Vismara's rule
    (Electron. J. Combin. 4, 1997).  By induction on l: take a ball cycle
    D of length l and let x be its highest-numbered node.  D lies in the
    subgraph on nodes <= x, so x's tree reaches every u on D at depth
    <= d_D(x, u) <= l // 2, and D is the sum over its edges uv of the
    terms P_x(u) + uv + P_x(v), each of at most l edges.  A term whose
    two paths lie on different branches is a kept mask (a tree edge
    gives the empty term).  A term whose paths share a first edge is an
    Eulerian set of at most l - 2 edges, so a sum of strictly shorter
    ball cycles, spanned by kept masks by induction.  Every kept mask is
    a simple ball cycle with bit_count() edges.  Roots never close an
    edge themselves: each ball edge from r to a lower node is the tree
    edge that reaches it, so no mask is empty.
    """
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

    for root in range(len(adj) - 1, -1, -1):
        sphere = [b for b, _ in adj[root] if b < root]
        if len(sphere) < 2:
            continue
        for b, e in adj[root]:
            if b < root:
                held[b], up[b], via[b], branch[b] = root, root, e, b
        for _ in range(1, max_len // 2):
            nxt = []
            for a in sphere:
                grown[a] = root
                ba = branch[a]
                for b, e in adj[a]:
                    if held[b] != root:
                        if b < root:
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


def strong_rings(g, base=0, max_size=DEFAULT_RING_CAP):
    """All strong rings through the base vertex of size <= max_size.

    A cycle is strong when it is not a GF(2) sum of strictly smaller
    cycles.  The test is exact on the cover ball of radius max_size about
    the base, numbered once as an integer graph with cycles as edge
    masks: a simple cycle through the base with c edges is a ring unless
    it is a sum of ball cycles shorter than c.  Candidates go shortest
    first; before each, every Horton cycle (_horton_cycles) with fewer
    than c edges joins the basis.  Those of at most l edges span every
    ball cycle of at most l edges, so the basis spans exactly the ball's
    cycles shorter than c, admitted in any order within a length, and
    Horton cycles of up to max_size - 1 edges suffice.  A bipartite
    ball has even cycles only, so there max_size - 1 rounded down to
    even does, which spares the Horton pass its odd last sphere.  The
    ball is the bound: a cycle whose decompositions all leave it is
    reported, and raising max_size (`--max`) can only lower the counts
    of sizes <= the old cap.

    The ball, the Horton set and the candidates are each held to
    HORTON_BIT_BUDGET (BallBoundExceeded), in that order: on a dense
    ball the Horton set passes it long before the candidate walk would.
    """
    if max_size < 3:
        raise GraphError("max_size must be >= 3")
    cover, nodes, dist, adj, odd = _ball(g, base, max_size)
    max_len = max_size - 1 if odd else (max_size - 1) // 2 * 2
    basis = sorted(_horton_cycles(adj, max_len), key=int.bit_count)
    candidates = _base_cycles(adj, dist, max_size)
    pivots = {}
    rings = []
    admitted = 0
    for mask, path in sorted(candidates.items(),
                             key=lambda item: (len(item[1]), item[0])):
        while (admitted < len(basis)
               and basis[admitted].bit_count() < len(path)):
            if rem := gf2_reduce(pivots, basis[admitted]):
                pivots[rem.bit_length()] = rem
            admitted += 1
        if gf2_reduce(pivots, mask):
            rings.append(Ring(cover.decode(nodes[i]) for i in path))
    return rings


def ring_size_counts(g, base=0, max_size=DEFAULT_RING_CAP):
    return dict(Counter(map(len, strong_rings(g, base, max_size))))


def _cover_map(g, pos, den):
    """The one test that an affine map sends the net onto itself, with
    the class table of the placement pos[v] = den x_v (integers) built
    once.  cover_map(at, origin), `at` an integer matrix, applies
    x -> (origin + x at) / den to the points x = pos[v] and returns
    (pi, shift, onto): v goes to the node (pi[v], shift[v]) of its
    image's class mod den (the last vertex of a class stands for it),
    and onto says whether each quotient edge (a, b, d) goes to an edge
    (pi[a], pi[b], d at + shift[b] - shift[a]) of g; or None when a
    vertex lands on no vertex, as all do for a non-integral origin.  For
    unimodular `at` and distinct classes pi is a permutation and
    distinct edges have distinct images, so into g.edges is onto."""
    where = {tuple(x % den for x in p): v for v, p in enumerate(pos)}
    edges = set(g.edges)

    def cover_map(at, origin):
        points = [tuple(map(add, origin, vec_mat(p, at))) for p in pos]
        pi = [where.get(tuple(x % den for x in p)) for p in points]
        if None in pi:
            return None
        shift = [tuple((a - b) // den for a, b in zip(p, pos[w]))
                 for p, w in zip(points, pi)]
        return pi, shift, all(_canonical_edge(pi[a], pi[b], map(
            add, vec_mat(d, at), map(sub, shift[b], shift[a]))) in edges
            for a, b, d in g.edges)

    return cover_map


def _placement(g):
    """The barycentric placement x (Delgado-Friedrichs and O'Keeffe, Acta
    Cryst. A59, 2003, 351) with x_0 = 0, or None if unstable (two x_v
    share a fractional part), as (pos, vec, steps, inv, cover_map) in
    integers: pos[v] = den x_v and cover_map its _cover_map; vec[v][i] =
    den (x_w + s - x_v) for the arc (w, s) = g.adj[v][i]; steps a cover
    tree from vertex 0 as ((v, i), in_basis), each arc from a vertex
    reached before: bfs._tree's order, each vertex's tree arc and then
    the arcs whose vectors intmat.independent keeps, up to `rank`;
    E^-1 = R / D for (R, D) = inv and E those basis arcs' vectors."""
    n, r = g.n, g.rank
    # the reduced Laplacian: deg(v) x_v - sum x_w = sum s over the arcs
    # (w, s) of v, for v >= 1 (a loop's two arcs cancel)
    lap = [[len(g.adj[v]) * (v == x) - sum(w == x for w, _ in g.adj[v])
            for x in range(1, n)] for v in range(1, n)]
    rhs = [[sum(s[k] for _, s in g.adj[v]) for k in range(r)]
           for v in range(1, n)]
    inv, den = scale_to_int(mat_inverse_frac(lap))  # L^-1 = inv / den
    pos = [(0,) * r] + [vec_mat(row, rhs) for row in inv]
    if len({tuple(x % den for x in p) for p in pos}) < n:
        return None
    vec = [[tuple(a + den * b - c for a, b, c in zip(pos[w], s, pos[v]))
            for w, s in arcs] for v, arcs in enumerate(g.adj)]
    # breadth first: each vertex's tree arc, then its independent arcs
    steps, basis, rows = {}, [], []
    for v, via in _tree(g.adj, 0)[2]:
        if via:
            steps.setdefault(via, False)
        for i, x in enumerate(vec[v]):
            if independent(rows, x):
                basis.append(x)
                steps[v, i] = True
        if len(basis) == r:
            break
    return (pos, vec, list(steps.items()),
            scale_to_int(mat_inverse_frac(basis)), _cover_map(g, pos, den))


def _automorphism(g, placement, u):
    """A verified automorphism of the cover taking vertex 0 to u, as
    (pi, shift, A) for (w, t) -> (pi(w), shift[w] + A t), or None.  The
    tree arcs' images are tried arc by arc, injective on the arcs at a
    vertex and on vertices; the basis arcs' images F give A^T = E^-1 F,
    kept if integral and unimodular and if the placement's cover_map
    sends vertex w to x_u + A x_w and every quotient edge to an edge."""
    pos, vec, steps, (inv, inv_den), cover_map = placement

    def verify(f):
        at = [vec_mat(row, f) for row in inv]  # inv_den A^T
        if any(x % inv_den for row in at for x in row):
            return None
        at = [tuple(x // inv_den for x in row) for row in at]
        if hnf(at) != identity_matrix(g.rank):
            return None
        found = cover_map(at, pos[u])
        if found and found[2]:
            return found[0], found[1], tuple(zip(*at))
        return None

    def images(k, img, used, f):  # the basis arcs' images F, lazily
        if k == len(steps):
            yield f
            return
        (v, i), in_basis = steps[k]
        w, x = g.adj[v][i][0], img[v]
        for j, (y, _) in enumerate(g.adj[x]):
            if (x, j) not in used and img.get(w, y) == y and (
                    w in img or y not in img.values()):
                yield from images(k + 1, {**img, w: y}, used | {(x, j)},
                                  f + [vec[x][j]] * in_basis)

    return next(filter(None, map(verify, images(0, {0: u}, set(), []))), None)


def schlafli_symbol(g, max_size=DEFAULT_RING_CAP):
    """Strong-ring size symbol, checked for vertex transitivity.

    An automorphism that _automorphism verifies maps each vertex's ball
    and rings onto its image's, so rings are searched only at the least
    vertex of each orbit found, and at every vertex when there is one
    vertex, unequal degrees or an unstable placement.  The first vertex
    whose counts differ from vertex 0's raises NonVertexTransitive."""
    orbit = list(range(g.n))  # the least vertex of each vertex's orbit
    placement = (g.n > 1 and len(set(map(len, g.adj))) == 1
                 and _placement(g))
    for u in range(1, g.n if placement else 0):
        found = orbit[u] and _automorphism(g, placement, u)
        for v, w in enumerate(found[0] if found else ()):
            a, b = sorted((orbit[v], orbit[w]))
            orbit = [a if x == b else x for x in orbit]
    reference = None
    for v in sorted(set(orbit)):
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


# ---------------------------------------------------------------------------
# Regular action check


def regular_action_check(g, group_generators):
    """Exact test that a group H acts freely and transitively on the net.

    Needs vertex coordinates.  The generators act on conventional
    coordinates; each is read once in the net's primitive frame, where
    T = Z^rank, as x -> x A' + t', A' = C A^T C^-1 and t' = t C^-1 (C the
    cell, C^-1 its to_prim).  It must preserve T, A' integral
    ("inconclusive" otherwise: the quotient cannot certify it), and as a
    _cover_map map every quotient vertex to a cover vertex ("fail"
    otherwise) and every quotient edge to a cover edge (GraphError
    otherwise), which makes it an automorphism of the whole cover.  One
    affine.finite_closure of the generators conjugated to vertex 0 gives
    H's translation lattice L exactly and the residual codes of H/L.  An
    L of rank below the net's fails (a finite H too): as H's point group
    is finite, an H-orbit stays near an affine subspace of rank L, too
    thin for the net's vertices.  Otherwise the verdict is "pass" iff
    |H/L| equals the number n covol(L) of L-orbits of vertices and
    vertex 0 has pairwise distinct images mod L under H/L.  Any vertex
    would do: a pass makes H transitive, so stabilisers are conjugate.
    """
    if g.coords is None:
        raise GraphError("regular action check needs vertex coordinates")
    for h in group_generators:
        if h.dimension != g.rank:
            raise GraphError(f"group generator has dimension {h.dimension}, "
                             f"but the net has rank {g.rank}")
    cell = g.cell or identity_matrix(g.rank)
    pos, den = scale_to_int(g.coords)
    cover_map = _cover_map(g, pos, den)
    x0, conjugates = g.coords[0], []
    for h in group_generators:
        at, at_den = scale_to_int(
            vec_mat(mat_vec(h.linear, row), g.to_prim) for row in cell)
        if at_den != 1:
            return "inconclusive"
        t = vec_mat(h.translation, g.to_prim)
        found = cover_map(at, [den * x for x in t])
        if found is None:
            return "fail"
        if not found[2]:
            raise GraphError("group generator does not preserve the edge set")
        # h p0 - p0 is the translation of this conjugate, so the images
        # of p0 are distinct mod L iff the conjugates' residual
        # translations are; conjugating by a translation keeps L
        conjugates.append(AffineIsometry(
            zip(*at), map(add, vec_mat(x0, at), map(sub, t, x0))))
    if not group_generators:  # the trivial H, finite
        return "fail"
    _, _, reps, lattice = finite_closure(conjugates)
    if lattice.rank < g.rank:
        return "fail"
    # a full-rank HNF basis is triangular
    orbits = g.n * prod(row[i] for i, row in enumerate(lattice.basis))
    images = {code[1:] for code in reps}
    return "pass" if len(reps) == orbits == len(images) else "fail"
