"""Todd-Coxeter coset enumeration and short presentations of finite groups.

Enumeration is used as a verification oracle: a completed table gives
the exact index of a finitely generated subgroup, an overflow means
"inconclusive", never "wrong".
"""

from .bfs import _expand, _word
from .words import (
    Presentation,
    cyclic_reduce,
    invert_word,
    relator_class_key,
    word_sort_key,
)

DEFAULT_MAX_COSETS = 10**6


class ModelNotClosed(ValueError):
    pass


def _col(x):
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def _inv_col(col):
    return col ^ 1


class CosetTable:
    """Mutable Todd-Coxeter state over a symmetrized alphabet.

    `status` is "complete" or "overflow" after run(); a complete table
    acts on live cosets by permutations (one per generator).
    """

    def __init__(self, ngens, relators, subgroup_words, max_cosets=DEFAULT_MAX_COSETS):
        self.ngens = ngens
        self.relators = [cyclic_reduce(r) for r in relators if cyclic_reduce(r)]
        self.subgroup_words = list(subgroup_words)
        self.max_cosets = max_cosets
        self.table = []  # per coset: list of 2*ngens entries (None or coset)
        self.parent = []  # union-find
        self.status = None
        self._new_coset()

    # -- union-find ---------------------------------------------------------

    def _find(self, c):
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def _new_coset(self):
        if len(self.table) >= self.max_cosets:
            raise _Overflow()
        self.table.append([None] * (2 * self.ngens))
        self.parent.append(len(self.table) - 1)
        return len(self.table) - 1

    # -- edges and coincidences ---------------------------------------------

    def _set_edge(self, a, col, b):
        queue = [(a, col, b)]
        while queue:
            a, col, b = queue.pop()
            a, b = self._find(a), self._find(b)
            cur = self.table[a][col]
            if cur is not None and self._find(cur) != b:
                self._merge(self._find(cur), b)
                continue
            self.table[a][col] = b
            back = self.table[b][_inv_col(col)]
            if back is None:
                self.table[b][_inv_col(col)] = a
            elif self._find(back) != a:
                self._merge(self._find(back), a)

    def _merge(self, a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = self._find(a), self._find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            for col in range(2 * self.ngens):
                t = self.table[b][col]
                if t is None:
                    continue
                t = self._find(t)
                cur = self.table[a][col]
                if cur is None:
                    self.table[a][col] = t
                    back = self.table[t][_inv_col(col)]
                    if back is None:
                        self.table[t][_inv_col(col)] = a
                    elif self._find(back) != a:
                        stack.append((self._find(back), a))
                elif self._find(cur) != t:
                    stack.append((self._find(cur), t))

    # -- scanning ------------------------------------------------------------

    def _scan_and_fill(self, coset, word):
        f = self._find(coset)
        b = self._find(coset)
        i, j = 0, len(word) - 1
        while True:
            # scan forward as far as possible
            while i <= j:
                nxt = self.table[f][_col(word[i])]
                if nxt is None:
                    break
                f = self._find(nxt)
                i += 1
            if i > j:
                # full forward scan; close the cycle
                if f != b:
                    self._merge(f, b)
                return
            # scan backward
            while j >= i:
                prv = self.table[b][_col(-word[j])]
                if prv is None:
                    break
                b = self._find(prv)
                j -= 1
            if j < i:
                # both scans consumed the whole word
                if f != b:
                    self._merge(f, b)
                return
            if i == j:
                self._set_edge(f, _col(word[i]), b)
                return
            # define a new coset to extend the forward scan
            c = self._new_coset()
            self._set_edge(f, _col(word[i]), c)
            f = self._find(self.table[f][_col(word[i])])
            i += 1

    def live_cosets(self):
        return [c for c in range(len(self.table)) if self._find(c) == c]

    def trace(self, coset, word):
        """Follow `word` from a live coset; None if the path is undefined."""
        c = self._find(coset)
        for x in word:
            nxt = self.table[c][_col(x)]
            if nxt is None:
                return None
            c = self._find(nxt)
        return c

    # -- HLT enumeration -----------------------------------------------------

    def run_hlt(self):
        try:
            for w in self.subgroup_words:
                self._scan_and_fill(self._find(0), w)
            c = 0
            while c < len(self.table):
                if self._find(c) != c:
                    c += 1
                    continue
                for r in self.relators:
                    if self._find(c) != c:
                        break
                    self._scan_and_fill(c, r)
                if self._find(c) == c:
                    for col in range(2 * self.ngens):
                        if self._find(c) != c:
                            break
                        if self.table[c][col] is None:
                            d = self._new_coset()
                            self._set_edge(c, col, d)
                c += 1
            self.status = "complete"
        except _Overflow:
            self.status = "overflow"
        return self

    def index(self):
        if self.status != "complete":
            return None
        return len(self.live_cosets())


class _Overflow(Exception):
    pass


def coset_enumerate(p, subgroup=(), max_cosets=DEFAULT_MAX_COSETS):
    """Index of <subgroup> in the presented group, or None on overflow."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    table = CosetTable(len(p.generator_names), p.relators, list(subgroup), max_cosets)
    return table.run_hlt().index()


def order_check(p, extra=(), expected=None, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate p plus extra relators; verdict against `expected`."""
    q = Presentation(p.generator_names, list(p.relators) + list(extra))
    n = coset_enumerate(q, (), max_cosets)
    if n is None:
        return "inconclusive"
    return "pass" if n == expected else "fail"


def is_consequence(p, word, max_cosets=DEFAULT_MAX_COSETS):
    """Bounded check that `word` is trivial in the group presented by p.

    Returns True (witnessed), False (witnessed nontrivial in a finite
    quotient that the enumeration happened to complete), or None
    (inconclusive).
    """
    word = cyclic_reduce(word)
    if not word:
        return True
    table = CosetTable(len(p.generator_names), p.relators, [], max_cosets)
    table.run_hlt()
    if table.status != "complete":
        # enumerate over the cyclic subgroup generated by the word instead:
        # index finite and word trivial there would still be inconclusive,
        # so just report inconclusive.
        return None
    end = table.trace(0, word)
    return end == table._find(0)


class FiniteGroupModel:
    """A finite group given by a closed element list and generator images."""

    def __init__(self, elements, generator_images, multiply):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ModelNotClosed("duplicate elements in model")
        self.generator_images = list(generator_images)
        self._multiply = multiply
        self._mul_cache = {}
        self._inv = {}
        self._identity = None
        # verify closure under the generators and the identity axiom
        for i in range(len(self.elements)):
            if self.mult(i, i) == i:
                self._identity = i
                break
        if self._identity is None:
            raise ModelNotClosed("no identity element")
        for i in range(len(self.elements)):
            for g in self.generator_images:
                self.mult(i, g)
            for j in range(len(self.elements)):
                if self.mult(i, j) == self._identity:
                    self._inv[i] = j
                    break
            if i not in self._inv:
                raise ModelNotClosed("element without inverse")

    @property
    def order(self):
        return len(self.elements)

    def mult(self, i, j):
        key = (i, j)
        if key not in self._mul_cache:
            prod = self._multiply(self.elements[i], self.elements[j])
            k = self.index.get(prod)
            if k is None:
                raise ModelNotClosed(f"product of elements {i}, {j} not in model")
            self._mul_cache[key] = k
        return self._mul_cache[key]

    def identity_index(self):
        return self._identity

    def inverse(self, i):
        return self._inv[i]

    def act(self, i, letter):
        """Element reached by appending `letter` to a word for element i.

        Letters act in reading order (words.evaluate), so appending a
        letter left-multiplies by its image.
        """
        g = self.generator_images[abs(letter) - 1]
        if letter < 0:
            g = self.inverse(g)
        return self.mult(g, i)


def short_presentation_finite(model, names=None):
    """Cannon-style short presentation of a finite group on its generators.

    Candidate relators are spanning-tree cycle words of the Cayley graph
    (one per non-tree edge), adopted in (length, lex) order; a candidate
    is skipped only once bounded enumeration certifies the adopted set
    already presents the group.
    """
    k = len(model.generator_images)
    if names is None:
        names = [chr(ord("a") + i) for i in range(k)]
    order = model.order
    max_cosets = max(4 * order, 16)

    # BFS over the Cayley graph; deterministic generator order a, a^-1, b, ...
    move = {x: (lambda e, x=x: model.act(e, x))
            for i in range(1, k + 1) for x in (i, -i)}
    entries = {model.identity_index(): (0, 0)}
    spheres = _expand(lambda e: [(x, m(e)) for x, m in move.items()],
                      entries, order)
    for sphere in spheres:
        if not sphere:
            break
    if len(entries) != order:
        raise ModelNotClosed("generators do not generate the model")
    tree_word = {e: _word(move, entries, e) for e in entries}

    seen = set()
    candidates = []
    for e in entries:
        for x, m in move.items():
            f = m(e)
            w = cyclic_reduce(tree_word[e] + (x,) + invert_word(tree_word[f]))
            if not w:
                continue
            key = relator_class_key(w)
            if key not in seen:
                seen.add(key)
                candidates.append(w)
    candidates.sort(key=word_sort_key)

    adopted = []
    for cand in candidates:
        n = coset_enumerate(Presentation(names, adopted), (), max_cosets)
        if n == order:
            break
        adopted.append(cand)
    result = Presentation(names, adopted)
    final = coset_enumerate(result, (), max(max_cosets, 16 * order))
    if final != order:
        raise ModelNotClosed(
            f"short presentation failed verification: got {final}, expected {order}"
        )
    return result
