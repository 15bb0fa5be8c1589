"""Coset enumeration and finite group models."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crystpres import cosets, pipeline, words
from crystpres.bfs import LatticeNotFound
from crystpres.cosets import (
    CosetTable,
    ModelNotClosed,
    SchreierRank,
    _cols,
    coset_enumerate,
    is_consequence,
    order_check,
    quotient_table,
    short_presentation_finite,
)
from crystpres.words import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_word,
    relator_class_key,
    word_sort_key,
)

from conftest import (DOCUMENTS, coset_table, generating_sets, load_document,
                      load_path, sympy_order)
from walk_oracles import _expand, _word


def _pres(names, relator_texts):
    return Presentation(names, [parse_word(t, names) for t in relator_texts])


# small groups with known orders: (names, relators, order)
STANDARD = [
    (["a"], ["a^5"], 5),
    (["a", "b"], ["a^2", "b^2", "(ab)^3"], 6),  # S3
    (["a", "b"], ["a^4", "b^2", "(ab)^2"], 8),  # D4
    (["a", "b"], ["a^4", "a^2b^-2", "b^-1aba"], 8),  # quaternion
    (["a", "b"], ["a^3", "b^3", "(ab)^2"], 12),  # A4
    (["a", "b"], ["a^2", "b^3", "(ab)^5"], 60),  # A5
]


@pytest.mark.parametrize("names,rels,order", STANDARD)
def test_hlt_and_felsch_agree(names, rels, order):
    p = _pres(names, rels)
    assert coset_enumerate(p) == order


@st.composite
def _standard_with_extras(draw):
    """A STANDARD group plus up to two random short relators; a quotient
    of a finite group stays finite."""
    names, rels, _ = draw(st.sampled_from(STANDARD))
    letters = [x for k in range(1, len(names) + 1) for x in (k, -k)]
    extras = draw(st.lists(
        st.lists(st.sampled_from(letters), min_size=1, max_size=5)
        .map(lambda w: cyclic_reduce(tuple(w)))
        .filter(bool),
        max_size=2,
    ))
    return names, _pres(names, rels).relators + extras


@settings(max_examples=40, deadline=None)
@given(_standard_with_extras())
def test_coset_enumerate_matches_sympy(case):
    names, relators = case
    assert (coset_enumerate(Presentation(names, relators))
            == sympy_order(names, relators))


class _Overflow(Exception):
    pass


def _col(x):
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def _inv_col(col):
    return col ^ 1


class ListCosetTable:
    """Oracle: the list-of-rows HLT table that the flat table replaced,
    copied verbatim apart from its name, `trace` and the default cap."""

    def __init__(self, ngens, relators, subgroup_words, max_cosets):
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

    def live_cosets(self):
        return [c for c in range(len(self.table)) if self._find(c) == c]

    def index(self):
        if self.status != "complete":
            return None
        return len(self.live_cosets())


@st.composite
def _enumeration(draw):
    """Random presentation on <= 3 generators, up to two subgroup words
    (neither kind reduced) and a coset cap."""
    ngens = draw(st.integers(1, 3))
    letters = [x for k in range(1, ngens + 1) for x in (k, -k)]
    word = st.lists(st.sampled_from(letters), max_size=8).map(tuple)
    return (ngens, draw(st.lists(word, max_size=4)),
            draw(st.lists(word, max_size=2)), draw(st.integers(1, 500)))


@settings(max_examples=300, deadline=None)
@given(_enumeration())
# gaps that do not fill in one run: at coset 0 the scan of ab^-1a^-1b
# leaves the gap ab^-1a^-1 with f = b = 0 and a^-1 last, so the first new
# coset 0.a closes the backward scan; and subgroup words that are not
# freely reduced, which the table reduces once (the oracle is given them
# reduced)
@example((2, [(-2,), (1, -2, -1, 2), (-1,)], [], 100))
@example((1, [], [(-1, 1, -1)], 100))
@example((2, [(1, 1), (2, 2), (1, 2) * 3], [(1, -1, 2)], 100))
@example((2, [(1, 1), (2, 2), (1, 2) * 3], [(2, 1, -1, 2, 1)], 100))
def test_flat_table_matches_list_table(case):
    ngens, relators, subgroup, cap = case
    old = ListCosetTable(ngens, relators, map(free_reduce, subgroup),
                         cap).run_hlt()
    new = CosetTable(ngens, relators, subgroup, cap).run_hlt()
    assert new.index() == old.index()
    assert len(new.table) == len(old.table)  # cosets defined
    # the same live cosets with the same rows, also where an overflow
    # stopped both enumerations; the flat rows name live cosets only
    w = new.width
    assert new.live_cosets() == old.live_cosets()
    for c in old.live_cosets():
        row = [-1 if x < 0 else x // w
               for x in new.cells[c * w + 1:c * w + w]]
        assert row == [-1 if x is None else old._find(x) for x in old.table[c]]


@settings(max_examples=300, deadline=None)
@given(_enumeration())
def test_coincidences_are_closed(case):
    # complete or overflowed, a live row names live cosets only, and
    # r.x = t exactly when t.x^-1 = r (the converse is the same check
    # made from t's row)
    table = CosetTable(*case).run_hlt()
    cells = table.cells
    for r in table.table:
        if cells[r] == r:
            for col in range(1, table.width):
                if (t := cells[r + col]) >= 0:
                    assert cells[t] == t
                    assert cells[t + table.inverse[col]] == r


@settings(max_examples=200, deadline=None)
@given(_enumeration())
def test_complete_table_stands_for_every_cap_it_fits(case):
    # run_hlt reads the cap only to stop: a complete run repeats step for
    # step under any cap of at least its defined cosets, and overflows
    # under any smaller one
    ngens, relators, subgroup, cap = case
    table = CosetTable(ngens, relators, subgroup, cap).run_hlt()
    assume(table.status == "complete")
    defined = len(table.table)
    for c in (defined, defined + 7):
        again = CosetTable(ngens, relators, subgroup, c).run_hlt()
        assert again.cells == table.cells
    if defined > 1:
        smaller = CosetTable(ngens, relators, subgroup, defined - 1)
        assert smaller.run_hlt().status == "overflow"


@settings(max_examples=200, deadline=None)
@given(_enumeration(), st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                                         max_size=8), max_size=6))
def test_compact_table_acts_like_the_full_one(case, words):
    ngens, relators, subgroup, cap = case
    full = CosetTable(ngens, relators, subgroup, cap).run_hlt()
    assume(full.status == "complete")
    small = CosetTable(ngens, relators, subgroup, cap).run_hlt().compact()
    assert small.index() == full.index()
    assert small.live_cosets() == list(range(full.index()))
    # the live cosets in order, each reached by the same words
    order = full.live_cosets()
    for w in words:
        w = tuple(x for x in w if abs(x) <= ngens)
        for c in range(full.index()):
            assert small.trace(c, w) == order.index(full.trace(order[c], w))


def test_schreier_rank_on_the_regular_s3_table():
    names = ["a", "b"]
    a2, b2, ab3 = [parse_word(t, names) for t in ["a^2", "b^2", "(ab)^3"]]
    rank = SchreierRank(CosetTable(2, [a2, b2, ab3], []).run_hlt())
    assert rank.ngens == 6 * (2 - 1) + 1
    # <a, b | a^2, b^2> is the infinite dihedral group, larger than S3
    assert rank.refutes([a2, b2])
    assert rank.refutes([b2, ab3]) and rank.refutes([a2, ab3])
    assert not rank.refutes([a2, b2, ab3])
    assert not rank.refutes([ab3, a2, b2, parse_word("(ba)^3", names)])
    # a relator that fails in the table proves nothing
    assert not rank.refutes([(1,)])


def test_subgroup_index():
    p = _pres(["a", "b"], ["a^2", "b^2", "(ab)^3"])  # S3
    sub = [parse_word("a", ["a", "b"])]
    assert coset_enumerate(p, subgroup=sub) == 3


def test_coincidence_handling():
    # a^2 = a^3 = 1 forces a = 1 through coset coincidences
    p = _pres(["a"], ["a^2", "a^3"])
    assert coset_enumerate(p) == 1


def test_infinite_group_overflow():
    p = Presentation(["a"], [])  # infinite cyclic
    assert coset_enumerate(p, max_cosets=500) is None


def test_order_check_verdicts():
    p = _pres(["a", "b"], ["a^2", "b^2", "(ab)^3"])
    assert order_check(p, expected=6) == "pass"
    assert order_check(p, expected=7) == "fail"
    free = Presentation(["a", "b"], [])
    assert order_check(free, expected=6, max_cosets=200) == "inconclusive"
    # extra relators cut the group down before checking
    assert order_check(free, extra=[(1, 1), (2,)], expected=2) == "pass"


def test_is_consequence():
    p = _pres(["a", "b"], ["a^2", "b^2", "(ab)^3"])
    assert is_consequence(p, parse_word("(ba)^3", ["a", "b"])) is True
    assert is_consequence(p, parse_word("(ab)^3", ["a", "b"])) is True
    # an extra relator (ab)^2 leaves a = b of order 2
    assert quotient_table(p, [(1, 2, 1, 2)]).index() == 2
    assert is_consequence(p, parse_word("ab", ["a", "b"])) is False
    free = Presentation(["a", "b"], [])
    assert is_consequence(free, (1, 2), max_cosets=200) is None
    assert is_consequence(free, ()) is True


def _zn_tables(n):
    """Left action of the letters a, a^-1 on Z/n, element 0 the identity."""
    return {1: [(e + 1) % n for e in range(n)],
            -1: [(e - 1) % n for e in range(n)]}


def test_short_presentation_tables_must_generate():
    # the letter fixes both elements, so element 1 is never reached
    with pytest.raises(ModelNotClosed):
        short_presentation_finite(coset_table({1: [0, 1], -1: [0, 1]}), ["a"])


def test_short_presentation_cyclic():
    p = short_presentation_finite(coset_table(_zn_tables(5)), ["a"])
    assert coset_enumerate(p) == 5
    assert p.relators == [(1, 1, 1, 1, 1)]


def _s4_tables():
    """Left action of a = (0 1) and b = (0 1 2 3) and their inverses on
    S4, element 0 the identity."""
    import itertools

    elems = list(itertools.permutations(range(4)))  # the identity first

    def mul(p, q):  # appending acts in reading order
        return tuple(p[q[i]] for i in range(4))

    def inv(p):
        return tuple(sorted(range(4), key=p.__getitem__))

    tables = {}
    for k, g in enumerate([(1, 0, 2, 3), (1, 2, 3, 0)], start=1):
        for x, h in ((k, g), (-k, inv(g))):
            tables[x] = [elems.index(mul(h, e)) for e in elems]
    return tables


def test_short_presentation_symmetric_group():
    p = short_presentation_finite(coset_table(_s4_tables()), ["a", "b"])
    assert coset_enumerate(p) == 24
    # relators stay short: a Cannon-style set from tree cycles
    assert max(len(r) for r in p.relators) <= 12


@pytest.mark.parametrize("tables, names", [
    (_zn_tables(5), ["a"]), (_s4_tables(), ["a", "b"])], ids=["z5", "s4"])
def test_short_presentation_enumerates_each_prefix_once(
        tables, names, monkeypatch):
    # the adopted prefixes of the cycle words in order, the last the
    # result, each enumerated once: Z/5 adopts its one cycle word, S4
    # stops at a prefix that already presents it
    seen, enumerate_ = [], cosets.coset_enumerate

    def spy(p, *args):
        seen.append(p.relators)
        return enumerate_(p, *args)

    monkeypatch.setattr(cosets, "coset_enumerate", spy)
    p = short_presentation_finite(coset_table(tables), names)
    assert seen == [p.relators[:i] for i in range(len(p.relators) + 1)]


def test_transversal_is_the_breadth_first_tree():
    # Z/5 on a, in discovery order: coset 1 from 0 by a (column 1), 4 by
    # a^-1 (column 2), then 2 from 1 and 3 from 4; keys are row offsets
    assert list(coset_table(_zn_tables(5)).transversal().items()) == [
        (0, None), (3, (0, 1)), (12, (0, 2)), (6, (3, 1)), (9, (12, 2))]


def _letter_tables(table):
    """The dict of letter tables {x: [element reached with x appended]}
    that the oracle below reads, off a complete, compact CosetTable."""
    w = table.width
    return {x: [d // w for d in table.cells[_cols((x,))[0][0]::w]]
            for k in range(1, w // 2 + 1) for x in (k, -k)}


def _parent_short_presentation_finite(tables, names):
    """Oracle: short_presentation_finite with the hand-keyed candidate
    list that one Presentation of the cycle words replaced, copied
    verbatim apart from its name."""
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

    seen = set()
    candidates = []
    for e in entries:
        for x, table in tables.items():
            f = table[e]
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


def _point_group_calls(generators):
    """The (table, names) build_extension_data passes to
    short_presentation_finite, the table read back by _letter_tables,
    each with its result."""
    calls = []

    def spy(table, names):
        calls.append((_letter_tables(table), names,
                      short_presentation_finite(table, names)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "short_presentation_finite", spy)
        pipeline.build_extension_data(generators)
    return calls


@pytest.mark.parametrize("path", DOCUMENTS)
def test_short_presentation_matches_the_parent_on_documents(path):
    (tables, names, p), = _point_group_calls(load_path(path).generators)
    assert p == _parent_short_presentation_finite(tables, names)


@settings(max_examples=40, deadline=None)
@given(gens=generating_sets())
def test_short_presentation_matches_the_parent_on_generating_sets(gens):
    try:
        (tables, names, p), = _point_group_calls(gens)
    except LatticeNotFound:  # finite groups among them
        return
    assert p == _parent_short_presentation_finite(tables, names)


@pytest.mark.parametrize("name", ["elv.json", "pnna_acd.json", "i42d.json"])
def test_point_presentation_keys_each_cycle_word_once(name, monkeypatch):
    keyed = []
    key = words.relator_class_key

    def spy(w):
        keyed.append(w)
        return key(w)

    monkeypatch.setattr(words, "relator_class_key", spy)
    pipeline.build_extension_data(load_document(name).generators)
    assert keyed and all(w == cyclic_reduce(w) for w in keyed)
    assert len(keyed) == len(set(keyed))
