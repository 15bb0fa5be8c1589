"""Breadth-first exploration of Cayley graphs of affine isometry groups.

Vertices are group elements, edges are right multiplication by a
generator in the word sense: appending letter x to a word moves from g
to image(x) * g (letters act in reading order, see words.evaluate).
Provides distance balls, coordination sequences, geodesic counting and
the harvest of shortest translation words that feeds the presentation
pipeline.

Every walk runs on one exact integer encoding (WalkKernel).  With N the
lcm of the translation denominators of the generators (and of any
target or point the walk must recognise), every element of the
generated group has its translation in (1/N)Z^d, so x -> A x + t is
stored as the int tuple (id(A), N t_1, ..., N t_d), where id(A) indexes
a per-walk table of interned integer linear parts.  Composition is a
memoised product lookup plus small integer dot products: still exact
and free of floating point, and elements are converted to and from
AffineIsometry only at the API boundary.

Every walk, here, on the periodic covers of netgraph and over the
finite Cayley graphs of cosets, grows its spheres with the one routine
_expand, given a neighbours function.
"""

import math
from fractions import Fraction

from .affine import AffineIsometry, check_finite_order, hnf_lattice, inverse
from .intmat import common_denominator, mat_mul_int
from .words import free_reduce

DEFAULT_MAX_ELEMENTS = 2_000_000
DEFAULT_RADIUS_CAP = 30
DEFAULT_STABLE_SPHERES = 3


class BallBoundExceeded(RuntimeError):
    pass


class LatticeNotFound(RuntimeError):
    pass


class FiniteGroup(LatticeNotFound):
    """The harvest saw the whole group: it is finite, with no translations."""


class WalkKernel:
    """Integer-coded elements of the group generated by `isometries`.

    Signed letter k (-k) stands for isometries[k-1] (its inverse).
    `steps` lists (letter, move) in the walk order 1, -1, 2, -2, ...,
    where move(g) is the code of image(letter) * g; `move` maps each
    letter to its move.  Denominators of the vectors in `points` are
    folded into the scale so those vectors encode exactly as well.
    Raises affine.NotUnimodular when a generator has no integer inverse.
    """

    def __init__(self, isometries, points=()):
        self.dimension = d = isometries[0].dimension
        images = {}
        for k, g in enumerate(isometries, start=1):
            images[k], images[-k] = g, inverse(g)
        self.scale = common_denominator(
            [g.translation for g in images.values()] + list(points)
        )
        self._linears = []
        self._ids = {}
        self.identity = self.encode(AffineIsometry.identity(d))
        self.steps = [(x, self._mover(self.encode(images[x]))) for x in images]
        self.move = dict(self.steps)

    def neighbours(self, g):
        """(letter, image(letter) * g) for every letter, in walk order."""
        return [(x, move(g)) for x, move in self.steps]

    def _intern(self, linear):
        lid = self._ids.get(linear)
        if lid is None:
            lid = self._ids[linear] = len(self._linears)
            self._linears.append(linear)
        return lid

    def _mover(self, code):
        """The map g -> code * g on codes."""
        lin = self._linears[code[0]]
        linears, intern = self._linears, self._intern
        products = {}  # linear id of g -> linear id of lin * g
        # sparse rows indexed into the code (offset 1 skips the linear id)
        rows = tuple(
            (tuple((j + 1, c) for j, c in enumerate(row) if c), s)
            for row, s in zip(lin, code[1:])
        )

        def move(g):
            p = products.get(g[0])
            if p is None:
                p = products[g[0]] = intern(mat_mul_int(lin, linears[g[0]]))
            return (p, *[sum([c * g[j] for j, c in terms]) + s
                         for terms, s in rows])

        return move

    def encode(self, g):
        t = [x * self.scale for x in g.translation]
        if any(x.denominator != 1 for x in t):
            raise ValueError("translation outside the kernel's scale")
        return (self._intern(g.linear), *map(int, t))

    def lookup(self, g):
        """Code of g without interning, or None when g cannot be a
        group element (unknown linear part or off-scale translation)."""
        if g.dimension != self.dimension or g.linear not in self._ids:
            return None
        try:
            return self.encode(g)
        except ValueError:
            return None

    def linear(self, code):
        return self._linears[code[0]]

    def vector(self, code):
        return tuple(Fraction(v, self.scale) for v in code[1:])

    def decode(self, code):
        return AffineIsometry(self.linear(code), self.vector(code))


def _kernel(generators, points=()):
    """Kernel of named generators: a list of (name, AffineIsometry).

    Rejects linear parts with no integer inverse (affine.NotUnimodular),
    then those of infinite order (affine.InfiniteOrder): no
    crystallographic group contains either.
    """
    for name, g in generators:
        if not isinstance(g, AffineIsometry):
            raise TypeError(f"generator {name!r} is not an affine isometry")
        if g.is_identity():
            raise ValueError(f"generator {name!r} is the identity")
    kernel = WalkKernel([g for _, g in generators], points)
    for _, g in generators:
        check_finite_order(g.linear)
    return kernel


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
        self.generator_names = [name for name, _ in generators]
        self.radius = radius
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
    """Sphere sizes of the Cayley graph ball: |S_0|, |S_1|, ..., |S_r|."""
    return ball(generators, radius, max_elements=max_elements).sphere_sizes


class TranslationHarvest:
    """Result of shortest_translation_words.

    words: list of (word, vector) for every pure translation found, one
    shortest word per vector, ordered by (length, word).  lattice_words
    is a greedy shortest-first subset whose vectors generate the full
    harvested lattice (it may need more than rank(L) words).
    """

    def __init__(self, words, lattice_words, lattice, radius_used):
        self.words = words
        self.lattice_words = lattice_words
        self.lattice = lattice
        self.radius_used = radius_used


def shortest_translation_words(generators, rank=None):
    """Harvest shortest words with identity linear part from the Cayley ball.

    Expands sphere by sphere, recording, for each translation vector,
    the first (shortest, discovery-ordered) word evaluating to it.  The
    scan stops once the lattice spanned by the harvested vectors has
    reached `rank` (the ambient dimension when rank is None and full
    rank is achieved) and has not grown, nor dropped in index, for
    DEFAULT_STABLE_SPHERES consecutive spheres, within radius
    DEFAULT_RADIUS_CAP.  This is a completeness heuristic only;
    soundness of anything built on the harvest is checked downstream by
    coset enumeration.
    """
    kernel = _kernel(generators)
    d = kernel.dimension
    ident_linear = kernel.identity[0]
    entries = {kernel.identity: (0, 0)}

    # vector -> word in harvest order; distinct elements with the identity
    # linear part are distinct translations, so each is new when found
    harvested = {}
    current = None  # TranslationLattice spanned so far
    stable = 0
    radius_used = 0

    spheres = _expand(kernel.neighbours, entries, DEFAULT_RADIUS_CAP,
                      DEFAULT_MAX_ELEMENTS)
    for r, sphere in enumerate(spheres, 1):
        for h in sphere:
            if h[0] == ident_linear:
                harvested[kernel.vector(h)] = _word(kernel.move, entries, h)
        radius_used = r
        if harvested:
            new = hnf_lattice(list(harvested), dimension=d)
            if current is not None and new.basis == current.basis:
                stable += 1
            else:
                stable = 0
            current = new
            target_rank = d if rank is None else rank
            if (current.rank >= target_rank
                    and stable >= DEFAULT_STABLE_SPHERES):
                break
        if not sphere:  # everything seen
            raise FiniteGroup(
                f"finite group of order {len(entries)}: no translation lattice"
            )

    if current is None or (rank is not None and current.rank < rank):
        raise LatticeNotFound(
            "no translation lattice of required rank within radius "
            f"{DEFAULT_RADIUS_CAP}"
        )

    pairs = [(w, v) for v, w in harvested.items()]
    pairs.sort(key=lambda p: (len(p[0]), p[0]))

    # greedy shortest-first subset generating the whole lattice
    chosen = []
    span = None
    for w, v in pairs:
        cand = hnf_lattice([q for _, q in chosen] + [v], dimension=d)
        if span is None or cand.basis != span.basis:
            chosen.append((w, v))
            span = cand
        if span.basis == current.basis:
            break
    if span is None or span.basis != current.basis:
        raise LatticeNotFound("harvested words fail to generate their own lattice")

    return TranslationHarvest(pairs, chosen, current, radius_used)


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
    sum over predecessors g at distance r-1 with h = image(x) * g.
    """
    if not isinstance(target, AffineIsometry):
        target = AffineIsometry.from_translation([Fraction(t) for t in target])
    kernel = _kernel(generators, [target.translation])
    goal = kernel.encode(target)
    if goal == kernel.identity:
        return GeodesicSet(target, 0, 1, [()] if with_words else None)
    dist = {kernel.identity: (0, 0)}
    count = {kernel.identity: 1}
    spheres = _expand(kernel.neighbours, dist, cap, max_elements, counts=count)
    for r, sphere in enumerate(spheres, 1):
        if goal in dist:
            words = None
            if with_words:
                words = _enumerate_geodesics(goal, dist, kernel, max_words)
            return GeodesicSet(target, r, count[goal], words)
        if not sphere:
            break
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
    generators: dynamic programming, count(v) = sum_i count(v - sign(v_i) e_i).
    """
    vector = tuple(int(v) for v in vector)
    memo = {}

    def rec(v):
        if all(c == 0 for c in v):
            return 1
        if v in memo:
            return memo[v]
        total = 0
        for i, c in enumerate(v):
            if c:
                step = list(v)
                step[i] -= 1 if c > 0 else -1
                total += rec(tuple(step))
        memo[v] = total
        return total

    return rec(vector)


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
