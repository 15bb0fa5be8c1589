import math
import os
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

# per-net search caps chosen just past the largest strong ring expected
RING_GOLDENS = {
    "pcu": (6, {4: 12}),
    "sql": (6, {4: 4}),
    "hcb": (8, {6: 3}),
    "dia": (8, {6: 12}),
    "nbo": (8, {6: 8}),
    "qtz": (8, {6: 6, 8: 40}),
    "gis": (8, {4: 3, 8: 4}),
    "ths": (12, {10: 10}),
    "srs": (12, {10: 15}),
}


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# the 18 generator documents, as paths from the repository root
DOCUMENTS = sorted(
    f"{d}/{f}" for d in ("corpus", "tests/data")
    for f in os.listdir(os.path.join(ROOT, d)) if f.endswith(".json"))


def corpus_path(name):
    return os.path.abspath(os.path.join(CORPUS, name))


def load_path(path):
    """The generating set of a document, by its path from the root."""
    from crystpres.symop import parse_generating_set

    with open(os.path.join(ROOT, path)) as fh:
        return parse_generating_set(fh.read())


def load_document(name):
    return load_path(os.path.join("corpus", name))


def assignment(generators):
    """The map words.evaluate reads: generator index (from 1) ->
    AffineIsometry."""
    return {i + 1: op for i, (_, op) in enumerate(generators)}


def raw_and_simplified(generators):
    """(E, raw, simplified) of a generating set: its extension data, the
    Presentation of its lifted point, lattice and conjugation relators,
    and tietze_simplify of that, the presentation `present` prunes."""
    from crystpres.pipeline import (build_extension_data,
                                    conjugation_relators, lattice_relators,
                                    lift_point_relators)
    from crystpres.words import Presentation, tietze_simplify

    E = build_extension_data(generators)
    raw = Presentation(E.names, [r for r, _, _ in lift_point_relators(E)]
                       + lattice_relators(E) + conjugation_relators(E))
    return E, raw, tietze_simplify(raw).presentation


def coset_table(tables):
    """The complete CosetTable on which letter x moves element e to
    tables[x][e], for letter tables 1, -1, 2, -2, ... on elements
    0 .. n-1; coset e is element e.  It is the cover_table of a rank-0
    quotient graph whose arc j is letter j's move."""
    from crystpres.cosets import cover_table

    moves = [tables[x] for k in range(1, len(tables) // 2 + 1)
             for x in (k, -k)]
    return cover_table([[(images[e], ()) for images in moves]
                        for e in range(len(moves[0]))], 1)


@st.composite
def generating_sets(draw):
    """1-3 isometries of Z or Z^2: signed permutation linear parts and
    translations in (1/4)Z^d."""
    from crystpres.affine import AffineIsometry

    d = draw(st.integers(1, 2))
    gens = []
    for k in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d,
                              max_size=d))
        t = draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d))
        g = AffineIsometry([[signs[i] * (j == perm[i]) for j in range(d)]
                            for i in range(d)], [Fraction(x, 4) for x in t])
        if not g.is_identity():
            gens.append(("abc"[k], g))
    assume(gens)
    return gens


@pytest.fixture
def i42d():
    return load_document("i42d.json")


@pytest.fixture
def elv():
    return load_document("elv.json")


def sympy_order(names, relators, max_cosets=None):
    """Order of <names | relators> by sympy's coset enumeration over the
    trivial subgroup, or None if it defines more than max_cosets cosets
    (sympy's own limit when None)."""
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    free, *gens = free_group(" ".join(names))
    elements = []
    for word in relators:
        element = free.identity
        for x in word:
            element *= gens[abs(x) - 1] ** (1 if x > 0 else -1)
        elements.append(element)
    # FpGroup(free, elements) would first build a rewriting system, which
    # can take seconds and which the enumeration does not read
    group = fp_groups.FpGroup(free, [])
    group.relators = elements
    try:
        table = group.coset_enumeration([], max_cosets=max_cosets)
    except ValueError:
        return None
    # its coset count is the group order (FpGroup.order() can recurse
    # without end on these presentations)
    table.compress()
    return len(table.table)


# -- Fraction reference for the point-group reduction ------------------------
#
# The reduction modulo a lattice as it was computed before the point group
# moved onto integer walk-kernel codes: elements of G/L are pairs
# (linear part, residual translation) with exact Fraction arithmetic.  Tests
# compare affine.finite_closure and the Cayley quotient against it.


def lattice_frame(lattice):
    """Rows whose dot products with a vector give its lattice coordinates.

    The lattice basis is extended greedily by unit vectors to a basis of
    Q^d; the rows are those of the inverse basis matrix that belong to
    the lattice vectors.
    """
    from crystpres.intmat import hnf, mat_inverse_frac, scale_to_int

    d = lattice.dimension
    ext = [list(map(Fraction, row)) for row in lattice.basis]
    for j in range(d):
        if len(ext) == d:
            break
        trial = ext + [[Fraction(int(i == j)) for i in range(d)]]
        if len(hnf(scale_to_int(trial)[0])) == len(trial):
            ext = trial
    return mat_inverse_frac(tuple(zip(*ext)))[:lattice.rank]


def reduce_mod_lattice(vector, lattice, frame):
    """Canonical residual of `vector`: lattice coordinates in [0, 1),
    the part transverse to the lattice kept."""
    out = [Fraction(x) for x in vector]
    for row, b in zip(frame, lattice.basis):
        k = math.floor(sum(a * x for a, x in zip(row, vector)))
        if k:
            out = [x - k * y for x, y in zip(out, b)]
    return tuple(out)


def point_group_image(g, lattice, frame):
    """(linear, residual) of the coset g L; None when the linear part
    does not preserve the lattice."""
    from crystpres.intmat import mat_vec

    if not all(lattice.coordinates(mat_vec(g.linear, row)) is not None
               for row in lattice.basis):
        return None
    return g.linear, reduce_mod_lattice(g.translation, lattice, frame)


def point_group_compose(a, b, lattice, frame):
    from crystpres.intmat import mat_mul_int, mat_vec

    tr = tuple(x + y for x, y in zip(mat_vec(a[0], b[1]), a[1]))
    return (mat_mul_int(a[0], b[0]),
            reduce_mod_lattice(tr, lattice, frame))


def fraction_closure(generators, lattice, bound):
    """Breadth-first closure in G/L, right-multiplying by the generators
    in order; None past `bound` elements, "not invariant" when a linear
    part does not preserve the lattice."""
    from crystpres.intmat import identity_matrix

    frame = lattice_frame(lattice)
    gens = [point_group_image(g, lattice, frame) for g in generators]
    if None in gens:
        return "not invariant"
    d = lattice.dimension
    ident = (identity_matrix(d), (Fraction(0),) * d)
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = point_group_compose(x, s, lattice, frame)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    new.append(y)
                    if len(elements) > bound:
                        return None
        frontier = new
    return elements


def quotient_coordination_sequence(doc, m, radius):
    """Sphere sizes in the coset graph of G/mT on the same generators."""
    from crystpres.affine import TranslationLattice, inverse
    from crystpres.intmat import identity_matrix
    from crystpres.pipeline import build_extension_data

    E = build_extension_data(doc.generators)
    sub = TranslationLattice(
        doc.dimension, [[m * x for x in row] for row in E.lattice.basis]
    )
    frame = lattice_frame(sub)
    steps = []
    for _, op in doc.generators:
        steps.append(point_group_image(op, sub, frame))
        steps.append(point_group_image(inverse(op), sub, frame))
    ident = (identity_matrix(doc.dimension), (Fraction(0),) * doc.dimension)
    seen = {ident}
    sphere = [ident]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for g in sphere:
            for s in steps:
                h = point_group_compose(s, g, sub, frame)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        sizes.append(len(nxt))
        sphere = nxt
    return sizes


# -- Tuple-node reference for the cover walks ---------------------------------
#
# The periodic cover walked as it was before cover nodes were packed into
# ints: nodes are (vertex, shift tuple) pairs, one fresh tuple per edge.


def cover_bfs(g, base, radius):
    """Distance and shortest-path count of every cover node within
    radius, by a plain queue BFS over (vertex, shift) tuples."""
    start = (base, (0,) * g.rank)
    dist, count = {start: 0}, {start: 1}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if dist[node] == radius:
            continue
        v, shift = node
        for w, s in g.adj[v]:
            nb = (w, tuple(a + b for a, b in zip(shift, s)))
            if nb not in dist:
                dist[nb], count[nb] = dist[node] + 1, 0
                queue.append(nb)
            if dist[nb] == dist[node] + 1:
                count[nb] += count[node]
    return dist, count
