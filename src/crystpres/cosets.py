"""Todd-Coxeter coset enumeration and short presentations of finite groups.

Enumeration is used as a verification oracle: a completed table gives
the exact index of a finitely generated subgroup, an overflow means
"inconclusive", never "wrong".  The table is one flat list of ints with
a row per coset (see CosetTable).

Cosets are defined in plain HLT order, which is frozen: the prune stage
keeps a relator whenever its order check overflows the cap, so the point
of overflow decides the emitted presentation, and a Felsch or lookahead
order would change the `present` reports.  The trials may check the m
in any order, since a relator goes only if every m passes; they take the
largest first, which overflows most often.  run_hlt reads the cap only to
stop, so a run that completed under one cap is the same run under any
larger cap: `present` keeps the verdicts of its trials, not their tables.

SchreierRank refutes a relator set with no enumeration: a GF(2) rank test
on its Reidemeister-Schreier rewrite (Holt, Eick, O'Brien, ch. 5) over
any complete table of the group it should present.  The prune trials ask
it first, on tables of G/mT read off the Cayley quotient graph (no
enumeration, pipeline._quotient_cosets); that changes no verdict, as the
check of a refuted set at the table's m could only overflow or fail.
"""

from .bfs import _expand, _word
from .words import Presentation, cyclic_reduce, invert_word

DEFAULT_MAX_COSETS = 10**6


class ModelNotClosed(ValueError):
    pass


def _cols(word):
    """Forward and inverse table columns of a word's letters."""
    return ([2 * abs(x) - (x > 0) for x in word],
            [2 * abs(x) - (x < 0) for x in word])


class CosetTable:
    """Mutable Todd-Coxeter state on one flat list of ints.

    With k generators a row holds 2k + 1 ints, and a coset is named by
    the offset r of its row: `cells[r]` is its union-find parent (r
    itself while the coset is live) and `cells[r + col]`, col = 1 .. 2k,
    the coset reached by the letter a, A, b, B, ... (-1 while undefined).
    An entry may name a coset merged away since; its root is found
    through the parents.  Merges keep the smaller offset, so coset 0,
    the subgroup, stays live.  `live_cosets` and `trace` speak in coset
    numbers r // (2k + 1).  `status` is "complete" or "overflow" after
    run_hlt(); a complete table acts on the live cosets by permutations.
    """

    def __init__(self, ngens, relators, subgroup_words, max_cosets=DEFAULT_MAX_COSETS):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.width = 2 * ngens + 1
        # inverse[col]: the column of the inverse letter
        self.inverse = [0] + [c + 1 if c % 2 else c - 1 for c in range(1, self.width)]
        relators = [_cols(cyclic_reduce(r)) for r in relators if cyclic_reduce(r)]
        # column lists scanned at coset 0 (subgroup words first) and elsewhere
        self.scans = ([_cols(w) for w in subgroup_words] + relators, relators)
        self.max_cosets = max_cosets
        self.cells = [0] + [-1] * (2 * ngens)
        self.status = None

    @property
    def table(self):
        """Row offsets of the cosets defined, live or merged away."""
        return range(0, len(self.cells), self.width)

    def _find(self, r):
        cells = self.cells
        while cells[r] != r:
            cells[r] = cells[cells[r]]
            r = cells[r]
        return r

    def _merge(self, a, b):
        # the root walks are _find's, inline: this is the hot loop
        cells, inverse = self.cells, self.inverse
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            while cells[a] != a:
                cells[a] = a = cells[cells[a]]
            while cells[b] != b:
                cells[b] = b = cells[cells[b]]
            if a == b:
                continue
            if b < a:
                a, b = b, a
            cells[b] = a
            for col in range(1, self.width):
                t = cells[b + col]
                if t < 0:
                    continue
                while cells[t] != t:
                    cells[t] = t = cells[cells[t]]
                cur = cells[a + col]
                if cur < 0:
                    cells[a + col] = t
                    cur = cells[t + inverse[col]]
                    if cur < 0:
                        cells[t + inverse[col]] = a
                        continue
                    t = a
                while cells[cur] != cur:
                    cells[cur] = cur = cells[cells[cur]]
                if cur != t:
                    stack.append((cur, t))

    def live_cosets(self):
        return [r // self.width for r in self.table if self.cells[r] == r]

    def trace(self, coset, word):
        """Follow `word` from a live coset; None if the path is undefined."""
        cells = self.cells
        r = coset * self.width
        for col in _cols(word)[0]:
            r = cells[r + col]
            if r < 0:
                return None
            r = self._find(r)
        return r // self.width

    def run_hlt(self):
        """HLT enumeration: at each live coset in turn, scan every relator
        (at coset 0 the subgroup words first), defining cosets until the
        scan closes, then give the coset's undefined entries new cosets."""
        cells, w, inverse = self.cells, self.width, self.inverse
        merge = self._merge
        first, rest = self.scans
        blank = [-1] * (w - 1)
        limit = w * self.max_cosets
        c = 0
        try:
            while c < len(cells):
                for fw, bw in rest if c else first:
                    if cells[c] != c:
                        break
                    f = b = c
                    i, j = 0, len(fw) - 1
                    while True:
                        # scan forward as far as possible, then backward;
                        # an entry naming a merged coset is set to its root
                        while i <= j:
                            x = cells[f + fw[i]]
                            if x < 0:
                                break
                            while cells[x] != x:
                                cells[x] = x = cells[f + fw[i]] = cells[cells[x]]
                            f = x
                            i += 1
                        while j >= i:
                            x = cells[b + bw[j]]
                            if x < 0:
                                break
                            while cells[x] != x:
                                cells[x] = x = cells[b + bw[j]] = cells[cells[x]]
                            b = x
                            j -= 1
                        if j < i:
                            if f != b:
                                merge(f, b)
                            break
                        # both scans stopped at undefined entries: a gap of
                        # one letter is a deduction, a longer one a new coset
                        if i == j:
                            cells[f + fw[i]] = b
                            cells[b + bw[i]] = f
                            break
                        d = len(cells)
                        if d >= limit:
                            raise _Overflow()
                        cells.append(d)
                        cells += blank
                        cells[f + fw[i]] = d
                        cells[d + bw[i]] = f
                        f = d
                        i += 1
                if cells[c] == c:
                    for col in range(1, w):
                        if cells[c + col] < 0:
                            d = len(cells)
                            if d >= limit:
                                raise _Overflow()
                            cells.append(d)
                            cells += blank
                            cells[c + col] = d
                            cells[d + inverse[col]] = c
                c += w
            self.status = "complete"
        except _Overflow:
            self.status = "overflow"
        return self

    def compact(self):
        """Renumber the live cosets of a complete table 0, 1, ... in order."""
        w, cells, find = self.width, self.cells, self._find
        live = [r for r in self.table if cells[r] == r]
        if len(live) == len(cells) // w:  # nothing merged: already compact
            return self
        new = {r: i * w for i, r in enumerate(live)}
        self.cells = [new[find(cells[r + c])] if c else new[r]
                      for r in live for c in range(w)]
        return self

    def index(self):
        if self.status != "complete":
            return None
        return len(self.live_cosets())


class _Overflow(Exception):
    pass


class SchreierRank:
    """Reidemeister-Schreier over GF(2) on a complete table of N cosets.

    With k generators a BFS Schreier transversal leaves N(k - 1) + 1
    non-tree (coset, positive letter) edges, one bit each: the free
    generators of the stabiliser U of coset 0.  A relator traced from
    each coset rewrites to N rows (cached), the mod-2 exponent sums of
    its conjugates.  If the rows span less than GF(2)^(N(k - 1) + 1), U
    over their normal closure is nontrivial: the group exceeds N.  The
    rows of the `fixed` relators are reduced once, into the basis every
    refutes() call starts from.
    """

    def __init__(self, table, fixed=()):
        self.table = table.compact()
        cells, w = table.cells, table.width
        self.ngens = n = len(cells) // w * (w // 2 - 1) + 1
        # bits[r + col]: the bit crossed from offset r along column col
        self.bits = bits = [None] * len(cells)
        seen, queue = {0}, [0]
        for r in queue:
            for col in range(1, w):
                d = cells[r + col]
                if d not in seen:  # a tree edge, bit 0 both ways
                    seen.add(d)
                    queue.append(d)
                    bits[r + col] = bits[d + table.inverse[col]] = 0
        for r in table.table:
            for col in range(1, w, 2):
                if bits[r + col] is None:
                    n -= 1
                    bits[r + col] = bits[cells[r + col] + col + 1] = 1 << n
        self.rows = {}
        self.fixed = self._reduce({}, fixed)

    def _rewrite(self, start, cols):
        cells, bits, row, r = self.table.cells, self.bits, 0, start
        for col in cols:
            row ^= bits[r + col]
            r = cells[r + col]
        return row if r == start else None  # None: the relator fails here

    def _reduce(self, basis, relators):
        """`basis` ({top bit: row}) grown by the relators' rows; None once
        they span GF(2)^ngens or a relator fails at some coset."""
        for w in relators:
            if w not in self.rows:
                cols = _cols(w)[0]
                self.rows[w] = [self._rewrite(r, cols) for r in self.table.table]
            for row in self.rows[w]:
                if row is None:
                    return None
                while row:
                    top = row.bit_length()
                    if top not in basis:
                        basis[top] = row
                        if len(basis) == self.ngens:
                            return None
                        break
                    row ^= basis[top]
        return basis

    def refutes(self, relators):
        """True if the rows of the relators and the fixed relators span
        less than GF(2)^ngens, which proves the group they present larger
        than N; False is no verdict."""
        return (self.fixed is not None
                and self._reduce(dict(self.fixed), relators) is not None)


def coset_enumerate(p, subgroup=(), max_cosets=DEFAULT_MAX_COSETS):
    """Index of <subgroup> in the presented group, or None on overflow."""
    table = CosetTable(len(p.generator_names), p.relators, list(subgroup), max_cosets)
    return table.run_hlt().index()


def quotient_table(p, extra=(), max_cosets=DEFAULT_MAX_COSETS):
    """The run table of the trivial subgroup in p plus `extra` relators."""
    q = p.with_relators(list(p.relators) + list(extra))
    return CosetTable(len(q.generator_names), q.relators, [], max_cosets).run_hlt()


def order_check(p, extra=(), expected=None, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate p plus extra relators; verdict against `expected`."""
    n = quotient_table(p, extra, max_cosets).index()
    return "inconclusive" if n is None else "pass" if n == expected else "fail"


def is_consequence(p, word, max_cosets=DEFAULT_MAX_COSETS):
    """Bounded check that `word` is trivial in the group presented by p.

    Returns True (witnessed), False (witnessed nontrivial in a finite
    quotient that the enumeration happened to complete), or None
    (inconclusive).
    """
    word = cyclic_reduce(word)
    if not word:
        return True
    table = quotient_table(p, (), max_cosets)
    return table.trace(0, word) == 0 if table.status == "complete" else None


def short_presentation_finite(tables, names):
    """Cannon-style short presentation of a finite group on its generators.

    `tables` gives the action of each letter 1, -1, 2, -2, ... (in that
    order) on the elements 0 .. n-1, element 0 the identity:
    tables[x][e] is the element a word for e reaches with x appended
    (the pipeline reads them off the arcs of bfs._quotient_arcs).
    Candidate relators are the spanning-tree cycle words of the Cayley
    graph (one per non-tree edge), cyclically reduced into one
    Presentation, which keeps the first word of each class in
    word_sort_key order.  They are adopted in that order until bounded
    enumeration certifies the adopted set already presents the group;
    each trial and the result are with_relators of that Presentation,
    so no cycle word is keyed twice.  Only the set of every cycle word,
    which the loop never enumerates, is checked at 16|P| cosets.
    """
    order = len(tables[1])
    max_cosets = max(4 * order, 16)

    # BFS over the Cayley graph in the letter order of `tables`
    move = {x: table.__getitem__ for x, table in tables.items()}
    entries = {0: (0, 0)}
    spheres = _expand(lambda e: [(x, table[e]) for x, table in tables.items()],
                      entries, order)
    for sphere in spheres:
        if not sphere:
            break
    if len(entries) != order:
        raise ModelNotClosed("the generators do not generate the group")
    tree_word = {e: _word(move, entries, e) for e in entries}

    cycles = Presentation(names, [
        cyclic_reduce(tree_word[e] + (x,) + invert_word(tree_word[table[e]]))
        for e in entries for x, table in tables.items()])

    for i in range(len(cycles.relators)):
        prefix = cycles.with_relators(cycles.relators[:i])
        if coset_enumerate(prefix, (), max_cosets) == order:
            return prefix
    final = coset_enumerate(cycles, (), max(max_cosets, 16 * order))
    if final != order:
        raise ModelNotClosed(
            f"short presentation failed verification: got {final}, expected {order}"
        )
    return cycles
