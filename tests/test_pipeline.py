"""Presentation pipeline: relator construction, verification, census."""

import functools
import itertools
import os
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crystpres.cosets import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    SchreierRank,
    _cols,
    coset_enumerate,
    cover_table,
    order_check,
    quotient_table,
    short_presentation_finite,
)
from crystpres.netgraph import (
    from_cayley,
    net_coordination_sequence,
    ring_size_counts,
)
from crystpres import bfs, pipeline
from crystpres.bfs import coordination_sequence
from crystpres.pipeline import (
    PipelineError,
    bounded_consequence_check,
    build_extension_data,
    conjugation_relators,
    lattice_relators,
    lift_point_relators,
    ndia_generators,
    present,
    quotient_relators,
    relator_ring_census,
)
from crystpres.affine import AffineIsometry
from crystpres.intmat import hnf_with_transform, mat_vec, scale_to_int, solve_hnf
from crystpres.symop import parse_generating_set
from crystpres.words import (Presentation, cyclic_reduce, evaluate,
                             invert_word, parse_word)

from conftest import (
    DOCUMENTS,
    assignment,
    coset_table,
    load_document,
    load_path,
    quotient_coordination_sequence,
    raw_and_simplified,
    sympy_order,
)

CORPUS_DOCS = [
    "i42d.json",
    "elv.json",
    "pnna_acd.json",
    "pnna_bcd.json",
    "hcb_p6.json",
    "dia_p212121.json",
    "dia_p1bar.json",
    "gis_i41a.json",
    "z2_diagonal_2.json",
    "z1_trivial.json",
]


def _check_words(report, texts):
    names = report.presentation.generator_names
    return {
        t: bounded_consequence_check(report, parse_word(t, names)) for t in texts
    }


def test_i42d_pipeline(i42d):
    rep = present(i42d.generators)
    assert rep.extension.point_order == 8
    assert rep.extension.rank == 3
    assert rep.verification["verdict"] == "pass"
    # the classical relator set for this group follows from the output
    verdicts = _check_words(
        rep, ["a^2", "b^2", "c^4", "bc^-1ac", "abcabac^-1b"]
    )
    assert set(verdicts.values()) == {"pass"}
    # and a non-identity word is refuted
    assert bounded_consequence_check(
        rep, parse_word("a", rep.presentation.generator_names)
    ) == "fail"


def test_i42d_provenance_tags(i42d):
    rep = present(i42d.generators)
    steps = {tag[0] for tag in rep.provenance}
    assert steps <= {
        "lifted point relator",
        "lattice relator",
        "conjugation relator",
    }
    assert len(rep.provenance) == len(rep.presentation.relators)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank2_diagonal_family(n):
    doc = load_document(f"z2_diagonal_{n}.json")
    rep = present(doc.generators)
    assert rep.extension.point_order == 1
    assert rep.extension.rank == 2
    assert rep.verification["verdict"] == "pass"
    # c together with the axis translations satisfies c = a^n b^n
    word = parse_word(f"ca^-{n}b^-{n}", rep.presentation.generator_names)
    assert bounded_consequence_check(rep, word) == "pass"


@pytest.mark.parametrize("name", ["pnna_acd.json", "pnna_bcd.json"])
def test_pnna_generating_sets(name):
    doc = load_document(name)
    rep = present(doc.generators)
    assert rep.extension.point_order == 8
    assert rep.extension.rank == 3
    assert rep.verification["verdict"] == "pass"


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_relators_evaluate_to_identity(name):
    doc = load_document(name)
    rep = present(doc.generators)
    ident = AffineIsometry.identity(doc.dimension)
    for r in rep.presentation.relators:
        assert evaluate(r, assignment(rep.extension.generators)) == ident


@pytest.mark.parametrize("name", ["i42d.json", "dia_p212121.json", "hcb_p6.json"])
def test_tietze_preserves_quotient_orders(name):
    doc = load_document(name)
    E, raw, _ = raw_and_simplified(doc.generators)
    slim = present(doc.generators)
    for m in (2, 3):
        expected = E.point_order * m ** E.rank
        for pres in (raw, slim.presentation):
            extra = quotient_relators(E, m)
            assert order_check(pres, extra, expected) == "pass"
    assert sum(len(r) for r in slim.presentation.relators) <= sum(
        len(r) for r in raw.relators
    )


def _permutations(path):
    """A document's generators in every order, or as given past 4."""
    gens = load_path(path).generators
    return itertools.permutations(gens) if len(gens) <= 4 else [gens]


@pytest.mark.parametrize("path", DOCUMENTS)
def test_reported_verdicts_are_fresh_order_checks(path):
    # a final check that repeats the last passing prune trial is read
    # off that trial; each verdict is still what an enumeration gives
    for gens in _permutations(path):
        rep = present(list(gens))
        E = rep.extension
        for m, check in rep.verification["order_checks"].items():
            m = int(m)
            assert check["verdict"] == order_check(
                rep.presentation, quotient_relators(E, m),
                E.point_order * m ** E.rank)


@pytest.mark.parametrize("name", ["elv", "i42d", "pnna_bcd", "ndia_3"])
def test_quotient_order_does_not_change_report(name):
    # a prune trial drops a relator only when every m passes, so the order
    # of the checks cannot change a verdict
    gens = (ndia_generators(3) if name == "ndia_3"
            else load_document(name + ".json"))
    assert (present(gens, verify_orders=(3, 2)).to_dict()
            == present(gens, verify_orders=(2, 3)).to_dict())


def test_consequence_checks_trace_the_final_tables(i42d):
    rep = present(i42d.generators)
    names = rep.presentation.generator_names
    with mock.patch.object(CosetTable, "run_hlt",
                           side_effect=AssertionError("enumerated again")):
        for text in ("c^4", "abcabac^-1b"):
            word = parse_word(text, names)
            assert bounded_consequence_check(rep, word) == "pass"


def test_present_deterministic(i42d):
    a = present(i42d.generators)
    b = present(i42d.generators)
    assert a.presentation.relators == b.presentation.relators
    assert a.to_dict() == b.to_dict()


def test_extension_data_pieces(i42d):
    E = build_extension_data(i42d.generators)
    assert E.point_order == 8
    assert E.rank == 3
    lifted = lift_point_relators(E)
    assert lifted  # one per point-group relator
    lat = lattice_relators(E)
    conj = conjugation_relators(E)
    ident = AffineIsometry.identity(3)
    for r in lat + conj:
        assert evaluate(r, assignment(E.generators)) == ident


@pytest.mark.parametrize("n,six,rings", [(2, 1, 3), (3, 3, 12), (4, 6, 30)])
def test_ndia_presentations_and_rings(n, six, rings):
    doc = ndia_generators(n)
    rep = present(doc.generators)
    assert rep.verification["verdict"] == "pass"
    involutions = [r for r in rep.presentation.relators if len(r) == 2]
    hexes = [r for r in rep.presentation.relators if len(r) == 6]
    assert len(involutions) == n + 1
    assert len(hexes) == six
    g = from_cayley(doc.generators)
    assert ring_size_counts(g, max_size=6) == {6: rings}


@pytest.mark.parametrize("n, size", [(5, (16, 72)), (6, (22, 104))],
                         ids=["5", "6"])
def test_ndia_presents_in_closed_form(n, size):
    # a_i^2 for the n + 1 generators, then (a a_i a_j)^2 for each pair
    # 2 <= i < j <= n + 1, a the first: `size` relators and letters
    relators = present(ndia_generators(n).generators).presentation.relators
    assert relators == [(k, k) for k in range(1, n + 2)] + [
        (1, i, j) * 2 for i, j in itertools.combinations(range(2, n + 2), 2)]
    assert (len(relators), sum(map(len, relators))) == size


def test_present_builds_the_cayley_quotient_once(i42d, monkeypatch):
    # the harvest walks the quotient's cover, and the tables of G/mT read
    # the same arcs off the harvest
    arcs, calls = bfs._quotient_arcs, []
    monkeypatch.setattr(bfs, "_quotient_arcs",
                        lambda closure: calls.append(closure) or arcs(closure))
    present(i42d.generators)
    assert len(calls) == 1


def test_gis_ring_census(i42d):
    # the Cayley graph of this body-centred group is a zeolite framework;
    # its ring census follows from the cycle relators of the presentation
    names = i42d.names
    texts = ["c^4", "bc^-1ac", "abcabac^-1b"]
    p = Presentation(names, [parse_word(t, names) for t in texts])
    # 16 group elements per conventional cell: point order 8, centering 2
    census = relator_ring_census(p, i42d.generators, 16)
    rings = {
        tuple(e.relator): e.rings_per_vertex for e in census
    }
    assert rings[parse_word("c^4", names)] == 1
    assert rings[parse_word("bc^-1ac", names)] == 2
    assert rings[parse_word("abcabac^-1b", names)] == 4


def test_ring_census_rejects_degenerate():
    doc = ndia_generators(2)
    p = Presentation(doc.names, [(1, 1)])
    with pytest.raises(PipelineError):
        relator_ring_census(p, doc.generators, 2)


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_quotient_cayley_coordination_consistency(name):
    doc = load_document(name)
    m = 7
    r_ok = (m - 2) // 2  # spheres agree while 2r + 1 < m
    finite = quotient_coordination_sequence(doc, m, r_ok)
    cs = coordination_sequence(doc.generators, r_ok)
    assert finite == cs


def test_cayley_net_cover_matches_group_ball():
    doc = load_document("dia_p212121.json")
    g = from_cayley(doc.generators)
    full = net_coordination_sequence(g, 0, 6)
    assert full == coordination_sequence(doc.generators, 6)


def test_bounded_consequence_inconclusive(i42d):
    # at 300 cosets the order checks overflow: a consequence of G is then
    # reported inconclusive, never silently passed, a freely trivial word
    # still passes and a word that is not the identity still fails
    rep = present(i42d.generators, max_cosets=300)
    assert rep.verification["verdict"] == "inconclusive"
    names = rep.presentation.generator_names
    verdicts = [bounded_consequence_check(rep, parse_word(t, names))
                for t in ("c^4", "aa^-1", "a")]
    assert verdicts == ["inconclusive", "pass", "fail"]
    word = parse_word("c^4", names)
    assert bounded_consequence_check(present(i42d.generators), word) == "pass"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# every corpus document and every document under tests/data
ALL_DOCS = sorted(
    f"{folder}/{name}" for folder in ("corpus", "tests/data")
    for name in os.listdir(os.path.join(ROOT, folder))
    if name.endswith(".json")
)


def _generators(path):
    with open(os.path.join(ROOT, path)) as fh:
        return parse_generating_set(fh.read()).generators


@functools.lru_cache(maxsize=None)
def _unpruned_report(path):
    """A document's extension data and its Tietze output, unpruned."""
    E, _, simplified = raw_and_simplified(_generators(path))
    return SimpleNamespace(extension=E, presentation=simplified)


@functools.lru_cache(maxsize=None)
def _enumerated(path, m):
    """The table of the final G/mT order check of the Tietze output."""
    rep = _unpruned_report(path)
    return quotient_table(rep.presentation,
                          quotient_relators(rep.extension, m)).compact()


@functools.lru_cache(maxsize=None)
def _unpruned(path):
    """A document's Tietze output, the rank test on its G/2T table, the
    order of G/2T and the squares of the lattice words."""
    rep = _unpruned_report(path)
    E = rep.extension
    return (rep.presentation, SchreierRank(_enumerated(path, 2)),
            E.point_order * 2 ** E.rank, quotient_relators(E, 2))


@pytest.mark.parametrize("path", ALL_DOCS)
def test_unpruned_relators_are_never_refuted(path):
    pres, rank, _, squares = _unpruned(path)
    assert not rank.refutes(pres.relators + squares)
    # without the squares they present G, infinite: 2T is the kernel
    assert rank.refutes(pres.relators)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_DOCS), st.data())
def test_refuted_relator_sets_do_not_present_g_mod_2t(path, data):
    # a refuted subset of the Tietze output (with the squares) presents
    # a group larger than G/2T, so no enumeration finishes at |G/2T|:
    # neither sympy's (bounded to keep it fast) nor the prune trials' own
    pres, rank, order, squares = _unpruned(path)
    n = len(pres.relators)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    relators = [r for r, k in zip(pres.relators, keep) if k] + squares
    assume(rank.refutes(relators))
    assert sympy_order(pres.generator_names, relators, 8 * order) != order
    table = CosetTable(len(pres.generator_names), relators, [], 64 * order)
    assert table.run_hlt().index() != order


def _gf2_rank(rows):
    basis = []  # distinct top bits, highest first
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def _fresh_refutes(rank, relators):
    """The rank test by a fresh elimination of every row."""
    rows = [rank._rewrite(start, _cols(w)[0])
            for w in relators for start in rank.table.table]
    return None not in rows and _gf2_rank(rows) < rank.ngens


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_DOCS), st.data())
def test_leading_powers_answer_as_a_fresh_elimination(path, data):
    # the prune trials pass the squares as each call's leading relators;
    # each verdict must be that of a fresh elimination over the candidate
    # and the squares
    pres, rank, _, squares = _unpruned(path)
    leading = SchreierRank(rank.table)
    n = len(pres.relators)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    relators = [r for r, k in zip(pres.relators, keep) if k]
    fresh = _fresh_refutes(rank, relators + squares)
    assert leading.refutes(squares + relators) == fresh
    assert rank.refutes(relators + squares) == fresh


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_DOCS), st.data())
def test_consecutive_calls_answer_as_fresh_eliminations(path, data):
    # a refuter keeps the basis of its last call's leading relators; in a
    # run of calls on one refuter, each subset the last with one relator
    # dropped or taken back (prune trials drop one), each verdict must
    # be that of a fresh elimination
    pres, rank, _, squares = _unpruned(path)
    leading = SchreierRank(rank.table)
    n = len(pres.relators)
    assume(n)  # z1_trivial keeps no relator
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=8)):
        keep[i] = not keep[i]
        relators = [r for r, k in zip(pres.relators, keep) if k]
        assert leading.refutes(squares + relators) == _fresh_refutes(
            rank, relators + squares)


# the documents whose G/3T rows are narrow enough for a refuter at m = 3
NARROW_AT_3 = {"corpus/hcb_p6.json", "corpus/z1_trivial.json",
               "corpus/z2_diagonal_1.json", "corpus/z2_diagonal_2.json",
               "corpus/z2_diagonal_3.json", "corpus/z2_diagonal_4.json",
               "tests/data/layer_p1bar.json", "tests/data/ndia_2.json",
               "tests/data/rod_p2cc.json"}


def _order(report, m):
    E = report.extension
    return E.point_order * m ** E.rank


@pytest.mark.parametrize("path", ALL_DOCS)
def test_refuted_trials_change_no_report(path, monkeypatch):
    gens = _generators(path)
    refutes, verdicts, built = SchreierRank.refutes, [], []

    def spy(self, relators):
        verdicts.append(refutes(self, relators))
        return verdicts[-1]

    monkeypatch.setattr(SchreierRank, "refutes", spy)
    monkeypatch.setattr(pipeline, "cover_table",
                        lambda adj, m: built.append(m) or cover_table(adj, m))
    report = present(gens).to_dict()
    assert any(verdicts) or path.endswith("z1_trivial.json")
    # G/1T first, for the point presentation; then refuters at G/2T, and
    # at G/3T only where its rows are narrow, each built once, when a
    # trial first needs it
    assert built in ([1], [1, 2], [1, 2, 3] if path in NARROW_AT_3 else [1, 2])
    # with every refuter silenced, all trials enumerate
    monkeypatch.setattr(SchreierRank, "refutes", lambda self, relators: False)
    assert present(gens).to_dict() == report


@pytest.mark.parametrize("name", ["hcb_p6.json", "z2_diagonal_3.json"])
def test_trials_refuted_at_3_fail_their_enumeration(name, monkeypatch):
    refutes, refuted = SchreierRank.refutes, []

    def spy(self, relators):
        verdict = refutes(self, relators)
        if verdict and len(self.table.cells) // self.table.width == order:
            refuted.append(list(relators))
        return verdict

    monkeypatch.setattr(SchreierRank, "refutes", spy)
    order = _order(_unpruned_report(f"corpus/{name}"), 3)
    report = present(load_document(name).generators)
    E = report.extension
    powers = quotient_relators(E, 3)
    assert refuted
    for relators in refuted:
        # the trial's own check at m = 3, at the prune cap: the refuter
        # was asked the powers first, the enumeration takes them last
        assert relators[:len(powers)] == powers
        table = CosetTable(len(E.names), relators[len(powers):] + powers,
                           [], max(64 * order, 2000))
        assert table.run_hlt().index() != order


TABLE_CASES = [(path, m) for path in ALL_DOCS for m in (2, 3)]


@functools.lru_cache(maxsize=None)
def _g_mod_mt(path, m):
    """G/mT read off the group, and as enumerated from the Tietze output
    with the m-th lattice powers."""
    return (cover_table(_unpruned_report(path).extension.adj, m),
            _enumerated(path, m))


@pytest.mark.parametrize("path, m", TABLE_CASES)
def test_group_table_is_the_enumerated_one(path, m):
    table, enumerated = _g_mod_mt(path, m)
    order = _order(_unpruned_report(path), m)
    w, cells = table.width, table.cells
    assert table.index() == enumerated.index() == order == len(cells) // w
    for col in range(1, w):
        column = [cells[r + col] for r in table.table]
        assert sorted(column) == list(table.table)
        assert all(cells[d + table.inverse[col]] == r
                   for r, d in zip(table.table, column))
    _assert_paired(table, enumerated, order)


def _assert_paired(table, other, order):
    """Walking both complete tables from coset 0 pairs their `order`
    cosets one to one."""
    pair, queue = {0: 0}, [0]
    for r in queue:
        for col in range(1, table.width):
            d, e = table.cells[r + col], other.cells[pair[r] + col]
            if d not in pair:
                pair[d] = e
                queue.append(d)
            assert pair[d] == e
    assert len(pair) == len(set(pair.values())) == order


def _left_arcs(E):
    """The point group acting on itself by left multiplication, as the
    pipeline once built it: arcs[x][p] = (q, s) with x u_p = t_s u_q."""
    reduce, product = E.kernel.modulo(E.lattice), E.kernel.product
    index = {e: i for i, e in enumerate(E.elements)}
    return {x: [(index[u], s) for u, s in
                (reduce(product(code, e)) for e in E.elements)]
            for x, code in E.kernel.images.items()}


def _left_quotient_cosets(E, m):
    """Oracle: G/mT with the generators acting on the left, x t u_p =
    (A t + s) u_q for the linear part A of x on lattice coordinates and
    the arc (q, s) of _left_arcs, the column of x^-1 the inverse
    permutation; the construction the Cayley quotient arcs replaced."""
    units = scale_to_int(E.lattice.basis)[0]
    pivots = [next(j for j, x in enumerate(u) if x) for u in units]
    w, size = 2 * len(E.names) + 1, m ** E.rank
    table = CosetTable(len(E.names), (), ())
    cells = table.cells = [0] * (len(E.elements) * size * w)
    rows = range(0, len(cells), w)
    for x, arcs in _left_arcs(E).items():
        if x < 0:
            continue
        lin = assignment(E.generators)[x].linear
        columns = []  # A on lattice coordinates, by back-substitution
        for u in units:
            v = mat_vec(lin, u)
            column = []
            for b, j in zip(units, pivots):
                column.append(v[j] // b[j])
                v = [a - column[-1] * c for a, c in zip(v, b)]
            columns.append(column)
        images = []  # each coordinate of A t, over every t in coset order
        for row in zip(*columns):
            image = [0]
            for a in row:
                image = [v + a * c for v in image for c in range(m)]
            images.append(image)
        for p, (q, s) in enumerate(arcs):
            digits = [q] * size
            for image, a in zip(images, s):
                digits = [d * m + (v + a) % m for d, v in zip(digits, image)]
            cells[p * size * w + 2 * x - 1:(p + 1) * size * w:w] = [
                d * w for d in digits]
        for r, d in zip(rows, cells[2 * x - 1::w]):
            cells[d + 2 * x] = r
    cells[::w] = rows
    table.status = "complete"
    return table


@pytest.mark.parametrize("path", DOCUMENTS)
def test_point_presentation_is_the_left_multiplication_one(path):
    for gens in _permutations(path):
        E = build_extension_data(list(gens))
        tables = {x: [q for q, _ in arcs] for x, arcs in _left_arcs(E).items()}
        assert E.point_presentation == short_presentation_finite(
            coset_table(tables), E.names)


def _fraction_conjugation_relators(E):
    """Oracle: conjugation_relators as it was before lattice words were
    solved on kernel codes, copied apart from its name and the lattice
    words' own transform, which it builds from their Fraction vectors
    scaled by their common denominator.  x^-1 y x is the translation
    A v, A the linear part of x and v the vector of y."""
    rows, scale = scale_to_int([v for _, v in E.lattice_words])
    transform = hnf_with_transform(rows)
    lattice = SimpleNamespace(lattice_words=E.lattice_words,
                              dependences=transform[1][len(transform[0]):])
    out = []
    for k in range(1, len(E.names) + 1):
        lin = assignment(E.generators)[k].linear
        for (w, _), row in zip(E.lattice_words, rows):
            # A v on the integer scale of the lattice-word vectors
            conj = mat_vec(lin, row)
            coeffs = solve_hnf(transform, conj)
            if coeffs is None:
                raise PipelineError(
                    f"translation {tuple(Fraction(x, scale) for x in conj)}"
                    " is not in the harvested lattice"
                )
            expr = pipeline._short_combination(lattice, coeffs)
            rel = cyclic_reduce((-k,) + w + (k,) + invert_word(expr))
            if rel:
                out.append(rel)
    return out, lattice.dependences


@pytest.mark.parametrize("path", DOCUMENTS)
def test_conjugation_relators_are_the_fraction_ones(path):
    for gens in _permutations(path):
        E = build_extension_data(list(gens))
        assert (conjugation_relators(E), E.dependences) == (
            _fraction_conjugation_relators(E))


@pytest.mark.parametrize("path", DOCUMENTS)
def test_group_table_pairs_with_the_left_multiplication_one(path):
    E = _unpruned_report(path).extension
    for m in (2, 3, 4):
        _assert_paired(cover_table(E.adj, m), _left_quotient_cosets(E, m),
                       E.point_order * m ** E.rank)


def _words(k, max_size):
    letters = st.integers(1, k).flatmap(lambda x: st.sampled_from((x, -x)))
    return st.lists(letters, max_size=max_size).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_CASES), st.data())
def test_group_table_closes_the_words_enumeration_closes(case, data):
    table, enumerated = _g_mod_mt(*case)
    rep = _unpruned_report(case[0])
    relators = (rep.presentation.relators
                + quotient_relators(rep.extension, case[1]))
    u = data.draw(_words(len(rep.extension.names), 10))
    # u against itself with a relator spliced in, or against another word
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(u)))
        v = u[:i] + data.draw(st.sampled_from(relators)) + u[i:]
    else:
        v = data.draw(_words(len(rep.extension.names), 10))
    word = u + invert_word(v)
    assert (table.trace(0, word) == 0) == (enumerated.trace(0, word) == 0)


@functools.lru_cache(maxsize=None)
def _rank_tests(path, m):
    return tuple(SchreierRank(t) for t in _g_mod_mt(path, m))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TABLE_CASES), st.data())
def test_rank_test_reads_the_same_on_both_tables(case, data):
    # the rank does not depend on how the cosets are numbered
    rep = _unpruned_report(case[0])
    pres = rep.presentation
    n = len(pres.relators)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    relators = quotient_relators(rep.extension, case[1]) + [
        r for r, k in zip(pres.relators, keep) if k]
    group, enumerated = _rank_tests(*case)
    assert group.refutes(relators) == enumerated.refutes(relators)


def _enumerating_check(report, word, tables):
    """The consequence check as it was before it read the order checks:
    the word traced through `tables[m]`, the enumeration of each G/mT
    from the emitted relators."""
    E = report.extension
    if E.kernel.evaluate(word) != E.kernel.identity:
        return "fail"
    word = cyclic_reduce(word)
    if not word:
        return "pass"
    verdict = "pass"
    for m in map(int, report.verification["order_checks"]):
        if tables[m].status != "complete":
            verdict = "inconclusive"
        elif tables[m].trace(0, word) != 0:
            return "fail"
    return verdict


# the default cap, and caps at which some or all order checks overflow
CONSEQUENCE_CASES = [(path, cap) for path in ALL_DOCS
                     for cap in (DEFAULT_MAX_COSETS, 300, 40, 8)]


@functools.lru_cache(maxsize=None)
def _capped(path, cap):
    rep = present(_generators(path), max_cosets=cap)
    tables = {m: quotient_table(rep.presentation,
                                quotient_relators(rep.extension, m), cap)
              for m in (2, 3)}
    return rep, tables


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONSEQUENCE_CASES), st.data())
def test_consequence_rule_is_the_enumeration(case, data):
    rep, tables = _capped(*case)
    k = len(rep.extension.names)
    u = data.draw(_words(k, 6))
    relators = (rep.presentation.relators
                + quotient_relators(rep.extension, 2))
    # a conjugate of a relator (the identity in G unless it is a lattice
    # power) or any word, a freely trivial word and a generator, which is
    # never the identity
    word = data.draw(st.one_of(
        st.sampled_from(relators).map(lambda r: u + r + invert_word(u)),
        _words(k, 8)))
    for w in (word, u + invert_word(u), (1,)):
        expected = _enumerating_check(rep, w, tables)
        with mock.patch.object(CosetTable, "run_hlt",
                               side_effect=AssertionError("enumerated")):
            assert bounded_consequence_check(rep, w) == expected
