"""Todd-Coxeter coset enumeration and short presentations of finite groups.

Enumeration is used as a verification oracle: a completed table gives
the exact index of a finitely generated subgroup, an overflow means
"inconclusive", never "wrong".  The table is one flat list of ints with
a row per coset (see CosetTable), the format of every finite action.

Cosets are defined in plain HLT order, which is frozen: the prune stage
keeps a relator whenever its order check overflows the cap, so the point
of overflow decides the emitted presentation, and a Felsch or lookahead
order would change the `present` reports.  The trials may check the m
in any order, since a relator goes only if every m passes; they take the
largest first, which overflows most often.  run_hlt reads the cap only to
stop, so a run that completed under one cap is the same run under any
larger cap: `present` keeps the verdicts of its trials, not their tables.
Coincidences are closed as they arise (Holt, Eick, O'Brien, 5.1), so the
scans read entries with no root walk, and a gap in a scanned word (all
are freely reduced) fills in one run: neither changes which cosets are
defined, or when.

Every table read off a group rather than enumerated is cover_table's:
the cover modulo m of a labelled quotient graph, G/mT on the Cayley
quotient (bfs._quotient_arcs), arc j the column j + 1.  SchreierRank
refutes a relator set with no enumeration: a GF(2) rank test on its
Reidemeister-Schreier rewrite (Holt, Eick, O'Brien, ch. 5) over any
complete table of the group it should present.  The prune trials ask it
first, on the cover tables of G/mT; that changes no verdict, as the
check of a refuted set at the table's m could only overflow or fail.
"""

from .words import Presentation, cyclic_reduce, free_reduce, invert_word

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
    Between merges a live row names live cosets only, and r.x = t exactly
    when t.x^-1 = r.  Merges keep the smaller offset, so coset 0, the
    subgroup, stays live.  `live_cosets` and `trace` speak in coset
    numbers r // (2k + 1).  `status` is "complete" or "overflow" after
    run_hlt(); a complete table acts on the live cosets by permutations.
    Subgroup words are freely reduced once, the freely trivial dropped.
    """

    def __init__(self, ngens, relators, subgroup_words, max_cosets=DEFAULT_MAX_COSETS):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.width = 2 * ngens + 1
        # inverse[col]: the column of the inverse letter
        self.inverse = [0] + [c + 1 if c % 2 else c - 1 for c in range(1, self.width)]
        relators = [_cols(r) for r in map(cyclic_reduce, relators) if r]
        # the words scanned at coset 0 (subgroup words first) and elsewhere
        self.scans = ([_cols(w) for w in map(free_reduce, subgroup_words)
                       if w] + relators, relators)
        self.max_cosets = max_cosets
        self.cells = [0] + [-1] * (2 * ngens)
        self.status = None

    @property
    def table(self):
        """Row offsets of the cosets defined, live or merged away."""
        return range(0, len(self.cells), self.width)

    def _merge(self, a, b):
        # close the coincidence of two live cosets at once (HEO 5.1): for
        # each coset e that dies and each entry e.x = f, clear f.x^-1 (it
        # names e), then move the entry to the representatives, where it
        # merges with the entry there or fills the gap.  Afterwards no
        # live row names a dead coset.  Root walks halve their paths; e's
        # root r is walked once, and again only after r dies
        cells, inverse = self.cells, self.inverse
        if b < a:
            a, b = b, a
        cells[b] = a
        dead = [b]
        for e in dead:
            r = e
            for col in range(1, self.width):
                f = cells[e + col]
                if f < 0:
                    continue
                inv = inverse[col]
                cells[f + inv] = -1
                while cells[r] != r:
                    cells[r] = r = cells[cells[r]]
                while cells[f] != f:
                    cells[f] = f = cells[cells[f]]
                if (a := cells[r + col]) >= 0:
                    b = f
                elif (a := cells[f + inv]) >= 0:
                    b = r
                else:
                    cells[r + col], cells[f + inv] = f, r
                    continue
                while cells[a] != a:
                    cells[a] = a = cells[cells[a]]
                if b < a:
                    a, b = b, a
                if a != b:
                    cells[b] = a
                    dead.append(b)

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
                        # scan forward as far as possible, then backward
                        while i <= j:
                            x = cells[f + fw[i]]
                            if x < 0:
                                break
                            f = x
                            i += 1
                        while j >= i:
                            x = cells[b + bw[j]]
                            if x < 0:
                                break
                            b = x
                            j -= 1
                        if j < i:
                            if f != b:
                                merge(f, b)
                            break
                        # both scans stopped at undefined entries: a gap of
                        # one letter is a deduction, a longer one new cosets.
                        # The word is freely reduced, so neither scan passes
                        # a new coset and the gap fills up to its last letter
                        # at once, unless the first new coset is also b's
                        # next (f = b, x_j = x_i^-1): then define one, rescan
                        if i == j:
                            cells[f + fw[i]] = b
                            cells[b + bw[i]] = f
                            break
                        end = j if f != b or fw[i] != bw[j] else i + 1
                        while i < end:
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
        w, cells = self.width, self.cells
        live = [r for r in self.table if cells[r] == r]
        if len(live) == len(cells) // w:  # nothing merged: already compact
            return self
        new = {r: i * w for i, r in enumerate(live)}
        self.cells = [new[cells[r + c]] for r in live for c in range(w)]
        return self

    def index(self):
        if self.status != "complete":
            return None
        return len(self.live_cosets())

    def transversal(self):
        """Breadth-first tree of a complete, compact table from coset 0,
        columns in order: {row offset: (parent offset, column)}, 0: None."""
        cells, tree, queue = self.cells, {0: None}, [0]
        for r in queue:
            for col in range(1, self.width):
                if (d := cells[r + col]) not in tree:
                    tree[d] = r, col
                    queue.append(d)
        return tree


class _Overflow(Exception):
    pass


def cover_table(adj, m):
    """The complete table of a labelled quotient graph's cover modulo m.

    adj[p] lists the arcs (q, s), s in Z^r, arc j ^ 1 the reverse of arc
    j; arc j is column j + 1.  Coset p m^r + i is the node (p, t), t the
    i-th vector of (Z/m)^r, the first the most significant digit of i,
    and column j + 1 moves it along arc j to (q, t + s).  On the Cayley
    quotient, node (p, t) is t u_p and arc j the words' own action of
    letter j, t u_p x^-1 = (t + s) u_q: the table is G/mT, with no
    linear action, and at m = 1 the point group acting on itself.
    """
    w, size = len(adj[0]) + 1, m ** len(adj[0][0][1])
    table = CosetTable(w // 2, (), ())
    cells = table.cells = [0] * (len(adj) * size * w)
    for p, arcs in enumerate(adj):
        for col, (q, s) in enumerate(arcs, start=1):
            digits = [q]
            for a in s:
                digits = [d * m + (c + a) % m for d in digits for c in range(m)]
            cells[p * size * w + col:(p + 1) * size * w:w] = [
                d * w for d in digits]
    cells[::w] = range(0, len(cells), w)
    table.status = "complete"
    return table


class SchreierRank:
    """Reidemeister-Schreier over GF(2) on a complete table of N cosets.

    With k generators a BFS Schreier transversal leaves N(k - 1) + 1
    non-tree (coset, positive letter) edges, one bit each: the free
    generators of the stabiliser U of coset 0.  A relator traced from
    each coset rewrites to N rows (cached), the mod-2 exponent sums of
    its conjugates.  If the rows span less than GF(2)^(N(k - 1) + 1), U
    over their normal closure is nontrivial: the group exceeds N.
    Consecutive refutes() calls share the eliminations of their common
    leading relators, so relators that lead every call (the prune
    trials' lattice powers) are reduced once.
    """

    def __init__(self, table):
        self.table = table.compact()
        cells, w = table.cells, table.width
        self.ngens = n = len(cells) // w * (w // 2 - 1) + 1
        # bits[r + col]: the bit crossed from offset r along column col
        self.bits = bits = [None] * len(cells)
        for d, (r, col) in list(table.transversal().items())[1:]:
            bits[r + col] = bits[d + table.inverse[col]] = 0  # a tree edge
        for r in table.table:
            for col in range(1, w, 2):
                if bits[r + col] is None:
                    n -= 1
                    bits[r + col] = bits[cells[r + col] + col + 1] = 1 << n
        self.rows = {}
        # the basis ({top bit: row}) after the relators `done` of the last
        # refutes() call; sizes[k]: its size after the first k
        self.basis, self.done, self.sizes = {}, [], [0]

    def _rewrite(self, start, cols):
        cells, bits, row, r = self.table.cells, self.bits, 0, start
        for col in cols:
            row ^= bits[r + col]
            r = cells[r + col]
        return row if r == start else None  # None: the relator fails here

    def refutes(self, relators):
        """True if the relators' rows span less than GF(2)^ngens, which
        proves the group they present larger than N; False is no verdict
        (the rows span, or a relator fails at some coset).  Reduction
        only adds rows to the basis, so a call cuts it back to the
        longest prefix it shares with the last call's relators and
        reduces only the rest."""
        basis, done, sizes = self.basis, self.done, self.sizes
        k = 0
        while k < min(len(done), len(relators)) and done[k] == relators[k]:
            k += 1
        del done[k:], sizes[k + 1:]
        while len(basis) > sizes[k]:
            basis.popitem()
        for w in relators[k:]:
            if w not in self.rows:
                cols = _cols(w)[0]
                self.rows[w] = [self._rewrite(r, cols) for r in self.table.table]
            for row in self.rows[w]:
                if row is None:
                    return False
                while row:
                    top = row.bit_length()
                    if top not in basis:
                        basis[top] = row
                        if len(basis) == self.ngens:
                            return False
                        break
                    row ^= basis[top]
            done.append(w)
            sizes.append(len(basis))
        return True


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


def short_presentation_finite(table, names):
    """Cannon-style short presentation of a finite group on its generators.

    `table` is a complete, compact CosetTable of the trivial subgroup,
    coset 0 the identity (the pipeline's is G/1T).  Candidate relators
    are the cycle words of its spanning tree transversal() (one per
    non-tree edge), cyclically reduced into one Presentation, which
    keeps the first word of each class in word_sort_key order.  They
    are adopted in that order until bounded enumeration certifies the
    adopted set already presents the group; each trial and the result
    are with_relators of that Presentation, so no cycle word is keyed
    twice.  Only the set of every cycle word, which the loop never
    enumerates, is checked at 16|P| cosets.
    """
    cells, w = table.cells, table.width
    order = len(cells) // w
    max_cosets = max(4 * order, 16)
    letters = [0] + [x for k in range(1, w // 2 + 1) for x in (k, -k)]

    tree = table.transversal()
    if len(tree) != order:
        raise ModelNotClosed("the generators do not generate the group")
    tree_word = {0: ()}
    for r, (p, col) in list(tree.items())[1:]:
        tree_word[r] = tree_word[p] + (letters[col],)

    cycles = Presentation(names, [
        cyclic_reduce(tree_word[r] + (letters[col],)
                      + invert_word(tree_word[cells[r + col]]))
        for r in tree for col in range(1, w)])

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
