"""Breadth-first exploration of Cayley graphs of affine isometry groups.

Vertices are group elements, edges are right multiplication by a
generator in the word sense: appending letter x to a word moves from g
to image(x) * g (letters act in reading order, see words.evaluate).
Provides distance balls, coordination sequences, geodesic counting and
the harvest of shortest translation words that feeds the presentation
pipeline.

Every walk runs on the integer element codes of affine.WalkKernel (an
interned linear part plus N times the translation, N also covering any
target the walk must recognise); elements are converted to and from
AffineIsometry only at the API boundary.

Coordination sequences need sphere sizes only: shell_sizes walks the
periodic cover of a labelled quotient graph on packed int nodes
(CoverCode), two spheres at a time; for a group it is _cayley_quotient,
which netgraph.from_cayley reads as a net.  Every walk that needs words,
letters, path counts or discovery order (balls, the harvest, geodesics
and girths here, net geodesics and the ring ball in netgraph, the
finite Cayley graphs of cosets) grows its spheres with the one routine
_expand, given a neighbours function.
"""

import math
from fractions import Fraction

from .affine import AffineIsometry, WalkKernel, _closure, check_finite_order
from .intmat import hnf
from .symop import format_symop
from .words import free_reduce

DEFAULT_MAX_ELEMENTS = 2_000_000
DEFAULT_RADIUS_CAP = 30
DEFAULT_STABLE_SPHERES = 3


class BallBoundExceeded(RuntimeError):
    pass


class LatticeNotFound(RuntimeError):
    pass


class FiniteGroup(LatticeNotFound):
    """The group is finite, of the given order: it has no translations."""

    def __init__(self, order):
        super().__init__(f"finite group of order {order}: no translation lattice")


class BadGenerators(ValueError):
    """An empty generating list, a non-isometry or the identity."""


def _kernel(generators, points=()):
    """Kernel of named generators: a list of (name, AffineIsometry).

    Rejects an empty list, a non-isometry or the identity (BadGenerators),
    linear parts with no integer inverse (affine.NotUnimodular), then
    those of infinite order (affine.InfiniteOrder).
    """
    if not generators:
        raise BadGenerators("empty generating set")
    for name, g in generators:
        if not isinstance(g, AffineIsometry):
            raise BadGenerators(f"generator {name!r} is not an affine isometry")
        if g.is_identity():
            raise BadGenerators(f"generator {name!r} is the identity")
    kernel = WalkKernel([g for _, g in generators], points)
    for _, g in generators:
        check_finite_order(g.linear)
    return kernel


def _group(generators, max_elements, points=()):
    """affine.finite_closure on _kernel(generators, points), raising
    BallBoundExceeded past max_elements linear parts (M(6) = 2,903,040)."""
    closure = _closure(_kernel(generators, points), max_elements)
    if closure is None:
        raise BallBoundExceeded(f"point group exceeded {max_elements} elements")
    return closure


def _cayley_quotient(generators, max_elements=DEFAULT_MAX_ELEMENTS):
    """(closure, adj): the closure of _group and the Cayley graph modulo
    T.  adj[i] lists per letter x, in walk order, the arc (j, s) with
    u_i * image(x) = t_s * u_j, t_s in T, u_i the coset representatives.
    T acts on the left, so this covers g -> g * image(x), which g -> g^-1
    maps onto g -> image(x) * g (the walks here) fixing 1: sphere sizes
    agree.  Each arc has its reverse (the inverse letter)."""
    kernel, reduce, elements, _ = closure = _group(generators, max_elements)
    index = {u: i for i, u in enumerate(elements)}
    letters = [move(kernel.identity) for _, move in kernel.steps]
    adj = [[(index[j], s) for j, s in
            (reduce(kernel.product(u, x)) for x in letters)]
           for u in elements]
    return closure, adj


def _expand(neighbours, entries, radius, max_elements=math.inf,
            counts=None, goal=None):
    """The one sphere routine: yields spheres 1..radius of a walk.

    `neighbours(g)` lists (letter, h) for the edges leaving state g.
    `entries` starts as {start: (0, 0)}, maps every state seen so far to
    (distance, last letter) and grows in place.  Discovery order is
    frontier order, then the order of `neighbours`.  `counts`, when
    given, starts as {start: 1} and accumulates the number of shortest
    paths to each state.  The walk ends right after `goal` is
    discovered, with its sphere cut short there.
    """
    sphere = list(entries)
    for r in range(1, radius + 1):
        frontier, sphere = sphere, []
        for g in frontier:
            for x, h in neighbours(g):
                seen = entries.get(h)
                if seen is not None:
                    if counts is not None and seen[0] == r:
                        counts[h] += counts[g]
                    continue
                if len(entries) >= max_elements:
                    raise BallBoundExceeded(
                        f"ball exceeded {max_elements} elements at radius {r}"
                    )
                entries[h] = (r, x)
                sphere.append(h)
                if counts is not None:
                    counts[h] = counts[g]
                if h == goal:
                    yield sphere
                    return
        yield sphere


def _word(move, entries, h):
    """The first-discovered shortest word reaching state h."""
    letters = []
    while True:
        dist, x = entries[h]
        if dist == 0:
            return tuple(reversed(letters))
        letters.append(x)
        h = move[-x](h)


class CoverCode:
    """Cover nodes within `radius` edges of cell 0, packed into ints.

    adj[v] lists the arcs (w, shift) leaving quotient vertex v, n =
    len(adj).  Node (v, s) is the int v + n * sum_i s_i * B**i.  A node
    r edges from cell 0 has every |s_i| <= r * S, S the largest |shift
    component|, so with B = 2 * radius * S + 1 no two such nodes share
    a code.  Arc k of vertex p % n leads to node p + steps[p % n][k][1].
    """

    def __init__(self, adj, radius):
        self.n = len(adj)
        shifts = [x for arcs in adj for _, s in arcs for x in s]
        self.reach = max(radius, 1) * max(map(abs, shifts), default=0)
        self.radix = 2 * self.reach + 1
        self.weights = [self.n * self.radix ** i
                        for i in range(len(adj[0][0][1]))]
        self.steps = [[(w, self.encode(w, t) - v) for w, t in arcs]
                      for v, arcs in enumerate(adj)]

    def encode(self, v, shift):
        return v + sum(w * x for w, x in zip(self.weights, shift))

    def decode(self, p):
        v, e = p % self.n, p // self.n
        shift = []
        for _ in self.weights:
            digit = (e + self.reach) % self.radix - self.reach
            shift.append(digit)
            e = (e - digit) // self.radix
        return v, tuple(shift)

    def neighbours(self, p):
        """(arc target vertex, neighbour code) pairs, for _expand."""
        return [(w, p + d) for w, d in self.steps[p % self.n]]


def shell_sizes(adj, base, radius, max_elements=math.inf):
    """Sphere sizes |S_0|, ..., |S_radius| about node (base, 0) of the
    cover of adj (see CoverCode), whose arcs must all have their reverse
    in adj: then S_(r+1) is the neighbourhood of S_r minus S_r and
    S_(r-1), so two spheres are kept, as node sets per quotient vertex.
    Raises BallBoundExceeded once the ball passes max_elements nodes.
    """
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


class BallIndex:
    """All elements within a word-length radius of the identity.

    entries: element code -> (distance, letter) where letter is the
    signed generator index appended last on a shortest word (0 for the
    identity).  Discovery order is deterministic: spheres in order,
    within a sphere the elements of the previous sphere in discovery
    order, letters in order 1, -1, 2, -2, ...
    """

    def __init__(self, generators, radius, max_elements=DEFAULT_MAX_ELEMENTS):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.kernel = kernel = _kernel(generators)
        self.entries = {kernel.identity: (0, 0)}
        self.sphere_sizes = [1] + [
            len(sphere) for sphere in
            _expand(kernel.neighbours, self.entries, radius, max_elements)
        ]

    def distance(self, g):
        entry = self.entries.get(self.kernel.lookup(g))
        return None if entry is None else entry[0]

    def word_for(self, g):
        """A shortest word for g (first-discovered), or None."""
        code = self.kernel.lookup(g)
        if code not in self.entries:
            return None
        return _word(self.kernel.move, self.entries, code)


def ball(generators, radius, max_elements=DEFAULT_MAX_ELEMENTS):
    return BallIndex(generators, radius, max_elements=max_elements)


def coordination_sequence(generators, radius, max_elements=DEFAULT_MAX_ELEMENTS):
    """Sphere sizes of the Cayley graph ball: |S_0|, |S_1|, ..., |S_r|.

    shell_sizes on the cover of _cayley_quotient, whose coset
    representatives count against max_elements too.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    _, adj = _cayley_quotient(generators, max_elements)
    return shell_sizes(adj, 0, radius, max_elements)


class TranslationHarvest:
    """Result of shortest_translation_words.

    words: list of (word, vector) for every pure translation found, one
    shortest word per vector, ordered by (length, word).  lattice_words
    is a greedy shortest-first subset whose vectors generate the
    lattice (it may need more than rank(L) words), none longer than
    2|P| - 1 letters, P the point group.  closure is the point-group
    closure of the generators (see _group) and lattice its T.
    """

    def __init__(self, words, lattice_words, closure, radius_used):
        self.words = words
        self.lattice_words = lattice_words
        self.closure = closure
        self.lattice = closure[3]
        self.radius_used = radius_used


def shortest_translation_words(generators):
    """Harvest shortest words with identity linear part from the Cayley ball.

    T comes exactly from the closure of _group.  Sphere by sphere, the
    walk appends each translation's first-discovered shortest word to
    `words`, sorted by word within the sphere.  One span, the integer
    HNF of N L (N the kernel's scale, L spanned so far), takes in each
    vector until it equals T; a word that grows it is a lattice word.
    The walk stops DEFAULT_STABLE_SPHERES spheres later, so those only
    add to `words`.  T is spanned by radius 2|P| - 1, P the point group:
    a coset representative u_p of the closure has a word shorter than
    |P|, so each Schreier generator u_p s u_ps^-1 of T is at most that
    long, and the radius limit 2|P| - 1 + DEFAULT_STABLE_SPHERES never
    cuts the walk short.  Raises FiniteGroup when T = 0.
    """
    kernel, _, elements, lattice = closure = _group(generators, math.inf)
    if not lattice.rank:
        raise FiniteGroup(len(elements))
    target = tuple(tuple(int(x * kernel.scale) for x in row)
                   for row in lattice.basis)
    ident_linear = kernel.identity[0]
    entries = {kernel.identity: (0, 0)}
    words, lattice_words, span = [], [], ()
    # the last sphere: DEFAULT_STABLE_SPHERES after the first to span T
    stop = 1 + DEFAULT_STABLE_SPHERES
    spheres = _expand(kernel.neighbours, entries,
                      2 * len(elements) - 1 + DEFAULT_STABLE_SPHERES,
                      DEFAULT_MAX_ELEMENTS)
    # distinct elements with the identity linear part are distinct
    # translations, so each found here is new
    for radius_used, sphere in enumerate(spheres, 1):
        for w, h in sorted((_word(kernel.move, entries, h), h)
                           for h in sphere if h[0] == ident_linear):
            words.append((w, kernel.vector(h)))
            if span != target:
                grown = hnf(span + (h[1:],))
                if grown != span:
                    lattice_words.append(words[-1])
                    span = grown
        if span != target:
            stop = radius_used + 1 + DEFAULT_STABLE_SPHERES
        elif radius_used == stop:
            break

    if span != target:
        raise LatticeNotFound(
            "the harvested words do not span the translation lattice")
    return TranslationHarvest(words, lattice_words, closure, radius_used)


class GeodesicSet:
    def __init__(self, target, length, count, words=None):
        self.target = target
        self.length = length
        self.count = count
        self.words = words


class TargetUnreachable(RuntimeError):
    pass


def geodesics(generators, target, cap, with_words=False, max_words=10000,
              max_elements=DEFAULT_MAX_ELEMENTS):
    """Count (and optionally list) the shortest words evaluating to target.

    Layered counting: the number of geodesics to h at distance r is the
    sum over predecessors g at distance r-1 with h = image(x) * g.  A
    target outside G raises TargetUnreachable before any walk.
    """
    if not isinstance(target, AffineIsometry):
        target = AffineIsometry.from_translation([Fraction(t) for t in target])
    kernel, reduce, elements, _ = _group(generators, max_elements,
                                         [target.translation])
    goal = kernel.encode(target)
    if goal == kernel.identity:
        return GeodesicSet(target, 0, 1, [()] if with_words else None)
    if reduce(goal)[0] not in elements:
        raise TargetUnreachable(
            f"target {format_symop(target)} is not an element of the group")
    dist = {kernel.identity: (0, 0)}
    count = {kernel.identity: 1}
    spheres = _expand(kernel.neighbours, dist, cap, max_elements, counts=count)
    for r, _ in enumerate(spheres, 1):
        if goal in dist:
            words = None
            if with_words:
                words = _enumerate_geodesics(goal, dist, kernel, max_words)
            return GeodesicSet(target, r, count[goal], words)
    raise TargetUnreachable(f"target not reached within length cap {cap}")


def _enumerate_geodesics(goal, dist, kernel, max_words):
    out = []

    def back(h, suffix):
        if len(out) >= max_words:
            return
        r = dist[h][0]
        if r == 0:
            out.append(free_reduce(tuple(suffix)))
            return
        for x, _ in kernel.steps:
            g = kernel.move[-x](h)
            if dist.get(g, (None,))[0] == r - 1:
                back(g, [x] + suffix)

    back(goal, [])
    return out


def lattice_geodesic_count(vector):
    """Monotone lattice paths from 0 to `vector` with unit steps.

    Independent oracle for geodesic counts on Z^d with the standard
    generators: the multinomial (sum_i |v_i|)! / prod_i |v_i|!, one
    binomial per coordinate.
    """
    count, total = 1, 0
    for c in (abs(int(v)) for v in vector):
        total += c
        count *= math.comb(total, c)
    return count


def odd_cycle_girth(generators, marked_name, cap=DEFAULT_RADIUS_CAP,
                    max_elements=DEFAULT_MAX_ELEMENTS):
    """Length of the shortest identity word using the marked generator
    an odd number of times, or None if none exists within the cap.

    BFS on (element, parity of marked-letter count).
    """
    kernel = _kernel(generators)
    try:
        marked = [name for name, _ in generators].index(marked_name) + 1
    except ValueError:
        raise ValueError(f"unknown generator {marked_name!r}") from None

    steps = [(x, move, int(abs(x) == marked)) for x, move in kernel.steps]

    def neighbours(state):
        g, parity = state
        return [(x, (move(g), parity ^ flip)) for x, move, flip in steps]

    start = (kernel.identity, 0)
    goal = (kernel.identity, 1)
    seen = {start: (0, 0)}
    spheres = _expand(neighbours, seen, cap, max_elements, goal=goal)
    for r, sphere in enumerate(spheres, 1):
        if goal in seen:
            return r
        if not sphere:
            break
    return None
