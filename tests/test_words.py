"""Words, relators, and Tietze simplification."""

import json
import os
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres import words
from crystpres.affine import AffineIsometry
from crystpres.symop import parse_symop
from crystpres.words import (
    MAX_WORD_LETTERS,
    MAX_WORD_NESTING,
    Presentation,
    WordSyntaxError,
    cyclic_reduce,
    evaluate,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    relator_class_key,
    tietze_simplify,
    word_sort_key,
)

NAMES = ["a", "b", "c"]


def _presentations(max_gens=3, max_relators=6, max_len=10):
    """Random presentations on 1..max_gens generators."""
    def build(k):
        letters = st.sampled_from([s * g for g in range(1, k + 1)
                                   for s in (1, -1)])
        words = st.lists(letters, min_size=1, max_size=max_len).map(tuple)
        return st.lists(words, min_size=1, max_size=max_relators).map(
            lambda rels: Presentation(NAMES[:k], rels))
    return st.integers(1, max_gens).flatmap(build)


def test_parse_word_forms():
    assert parse_word("ab", NAMES) == (1, 2)
    assert parse_word("a^-1 b^2", NAMES) == (-1, 2, 2)
    assert parse_word("(ab)^2", NAMES) == (1, 2, 1, 2)
    assert parse_word("(ab)^-1", NAMES) == (-2, -1)
    with pytest.raises(WordSyntaxError):
        parse_word("ad", NAMES)
    with pytest.raises(WordSyntaxError):
        parse_word("a^", NAMES)


def test_parse_word_bounds_its_expansion():
    assert parse_word("a^1000000", NAMES) == (1,) * MAX_WORD_LETTERS
    assert parse_word("[a^250000,b^250000]", NAMES)[-1] == 2
    assert parse_word("(a^999999)^0b", NAMES) == (2,)
    assert parse_word("a^00000000000002", NAMES) == (1, 1)
    assert parse_word("()^" + "9" * 5000, NAMES) == ()
    # each is refused before its letters are built
    for text in ["a^1000001", "a^99999999999999", "((a^1000)^1000)^1000",
                 "b^400000" * 3, "(a^999999)^-2", "[a^500000,b]",
                 "a^" + "9" * 5000]:
        with pytest.raises(WordSyntaxError, match="past 1000000 letters"):
            parse_word(text, NAMES)


def test_parse_word_bounds_its_nesting():
    deepest = "(" * MAX_WORD_NESTING + "a" + ")" * MAX_WORD_NESTING
    assert parse_word(deepest, NAMES) == (1,)
    assert parse_word("[a," * 8 + "b" + "]" * 8, NAMES)[-1] == 2
    # refused before the parser recurses that deep, on either bracket
    for text in ["(" + deepest + ")", "(" * 1000 + "a" + ")" * 1000,
                 "[a,(" * 51 + "b" + ")]" * 51, "(" * 10000]:
        with pytest.raises(WordSyntaxError, match="nest past 100 deep"):
            parse_word(text, NAMES)


def test_format_word_runs():
    assert format_word((1, 1, 2, -3, -3, -3), NAMES) == "a^2bc^-3"
    assert format_word((-3, -3, -3), NAMES) == "c^-3"
    assert format_word((1, 2, 1, 2), NAMES) == "(ab)^2"
    assert format_word((), NAMES) == "1"


def test_free_and_cyclic_reduce():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)
    assert cyclic_reduce((1, -1)) == ()


def test_invert_word():
    assert invert_word((1, 2, -3)) == (3, -2, -1)


def test_evaluate_reading_order():
    # letters act in reading order: the word ab maps a point p to b(a(p))
    a = parse_symop("-x, y", 2)
    b = parse_symop("1+x, y", 2)
    w = parse_word("ab", ["a", "b"])
    g = evaluate(w, {1: a, 2: b})
    assert g.apply((0, 0)) == (1, 0)
    assert g == b * a


_letters = st.sampled_from([1, -1, 2, -2, 3, -3])
_words = st.lists(_letters, min_size=0, max_size=12).map(tuple)

_A = parse_symop("-y, x, z", 3)
_B = parse_symop("1/2+x, -y, -z", 3)
_C = parse_symop("-x, 1/3+y, 1-z", 3)
_ASSIGN = {1: _A, 2: _B, 3: _C}


@settings(max_examples=200)
@given(w=_words)
def test_free_reduce_preserves_evaluation(w):
    assert evaluate(free_reduce(w), _ASSIGN) == evaluate(w, _ASSIGN)


@settings(max_examples=200)
@given(w=_words)
def test_inverse_word_evaluates_to_inverse(w):
    g = evaluate(w, _ASSIGN)
    h = evaluate(invert_word(w), _ASSIGN)
    assert (g * h).is_identity()


def test_parse_format_roundtrip_words():
    for text in ["a^2bc^-3", "(ab)^2", "b^-1ab", "1"]:
        w = parse_word(text, NAMES)
        assert parse_word(format_word(w, NAMES), NAMES) == w


def _total_length(p):
    return sum(len(r) for r in p.relators)


def test_tietze_involution_normalization():
    p = Presentation(NAMES, [(1, 1), (-1, -1, 2)])
    out = tietze_simplify(p).presentation
    # a^-2 is rewritten through the involution a^2 and disappears into b
    assert (1, 1) in out.relators
    assert (2,) in out.relators


def test_tietze_canonical_class_representative():
    # rotations and inversions of the same relator collapse to one copy,
    # reported in its lexicographically least form
    p = Presentation(NAMES, [(2, 1, -3), (-1, -2, 3), (1, -3, 2)])
    out = tietze_simplify(p).presentation
    assert len(out.relators) == 1


def test_tietze_monotone_and_deterministic():
    p = Presentation(
        NAMES,
        [(1, 1), (2, 2), (1, 2, 1, 2, 3), (3, 3, 3), (1, 2, 1, 2, 3, 3, 3, 3)],
    )
    one = tietze_simplify(p)
    two = tietze_simplify(p)
    assert one.presentation.relators == two.presentation.relators
    assert _total_length(one.presentation) <= _total_length(p)


def test_tietze_budget_flag(monkeypatch):
    p = Presentation(NAMES, [(1, 2, 1, 2), (2, 1, 2, 1, 3)])
    monkeypatch.setattr(words, "TIETZE_BUDGET", 1)
    out = tietze_simplify(p)
    assert out.budget_exhausted or _total_length(out.presentation) <= 9


def test_tietze_carries_tags():
    p = Presentation(NAMES, [(1, 1), (1, 1, 2)])
    out = tietze_simplify(p, tags=["first", "second"])
    assert len(out.tags) == len(out.presentation.relators)
    assert set(out.tags) <= {"first", "second"}


def _long_relators(seed=36, lengths=(300, 600, 900)):
    """Random cyclically reduced words in a, b of the given lengths, with
    a^2, b^3 and (ab)^3."""
    rng = random.Random(seed)
    out = []
    for n in lengths:
        w = [rng.choice((1, -1, 2, -2))]
        while len(w) < n:
            x = rng.choice((1, -1, 2, -2))
            if x != -w[-1] and (len(w) < n - 1 or x != -w[0]):
                w.append(x)
        out.append(tuple(w))
    return out + [(1, 1), (2, 2, 2), (1, 2) * 3]


def test_long_relators_simplify_in_linear_memory(monkeypatch):
    # listing every rotation of each relator took 662 MiB on this case;
    # the golden holds the relators that listing search gave
    p = Presentation(NAMES[:2], _long_relators())
    monkeypatch.setattr(words, "TIETZE_BUDGET", 50)
    tracemalloc.start()
    try:
        result = tietze_simplify(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = os.path.join(os.path.dirname(__file__), "goldens",
                        "tietze_long_relators.json")
    with open(path) as fh:
        want = json.load(fh)
    assert [list(r) for r in result.presentation.relators] == want["relators"]
    assert result.steps == want["steps"] == 50
    assert peak < 16 * 2**20


def test_relator_class_key_symmetry():
    w = (1, 2, -3)
    for variant in [(2, -3, 1), (3, -2, -1), (-1, 3, -2)]:
        assert relator_class_key(variant) == relator_class_key(w)


def test_presentation_deduplicates():
    p = Presentation(NAMES, [(1, 2), (2, 1), (1, 2)])
    assert len(p.relators) == 1


@settings(max_examples=300, deadline=None)
@given(p=_presentations())
def test_tietze_output_is_canonical_and_no_longer(p):
    tags = list(range(len(p.relators)))
    once = tietze_simplify(p, tags=tags)
    assert not once.budget_exhausted
    assert len(once.tags) == len(once.presentation.relators)
    for r in once.presentation.relators:
        assert relator_class_key(r) == r
    assert _total_length(once.presentation) <= _total_length(p)
    again = tietze_simplify(once.presentation, tags=once.tags)
    assert _total_length(again.presentation) <= _total_length(once.presentation)


@pytest.mark.xfail(strict=True, reason=(
    "the canonical word of a relator can bring back the inverse of an "
    "involution generator, which the next run rewrites"))
def test_tietze_output_is_a_fixed_point():
    # <a, b | a^-1 b, b^2> simplifies to <a, b | a b^-1, b^2>; a second
    # run reads b^-1 as b and returns <a, b | ab, b^2>
    p = Presentation(NAMES[:2], [(-1, 2), (2, 2)])
    once = tietze_simplify(p, tags=[0, 1])
    again = tietze_simplify(once.presentation, tags=once.tags)
    assert again.steps == 0
    assert again.presentation.relators == once.presentation.relators
    assert again.tags == once.tags


# -- position-scan reference for the Tietze rewrite search -------------------


def _reference_rewrite_once(relators, forms):
    """The rewrite search as a scan over every start position of r + r.

    Same contract as words._rewrite_once, except that forms(u) lists the
    distinct rotations of u and u^-1 in word_sort_key order.  The first
    form f with a prefix longer than |f| // 2 at some start i < |r|
    applies, with its longest such prefix at its first start.
    """
    for ti in range(len(relators) - 1, -1, -1):
        r = relators[ti]
        n = len(r)
        doubled = r + r
        for u in relators:
            if len(u) > n:
                break
            if u == r:
                continue
            for f in forms(u):
                best, at = len(f) // 2, None
                for i in range(n):
                    k = 0
                    while k < len(f) and doubled[i + k] == f[k]:
                        k += 1
                    if k > best:
                        best, at = k, i
                if at is not None:
                    rest = doubled[at + best:at + n]
                    return ti, cyclic_reduce(invert_word(f[best:]) + rest)
    return None


@settings(max_examples=300, deadline=None)
@given(p=_presentations())
def test_rewrite_search_matches_position_scan(p):
    # the input tietze_simplify passes: distinct canonical words, sorted
    relators = sorted({relator_class_key(r) for r in p.relators},
                      key=word_sort_key)
    texts = [words._text(r) for r in relators]
    assert (words._rewrite_once(relators, texts)
            == _reference_rewrite_once(relators, _tuple_forms))


@settings(max_examples=300, deadline=None)
@given(p=_presentations())
def test_tietze_matches_position_scan(p):
    tags = list(range(len(p.relators)))
    got = tietze_simplify(p, tags=tags)

    def scan(relators, texts):
        assert texts == [words._text(r) for r in relators]
        return _reference_rewrite_once(relators, _tuple_forms)

    with mock.patch.object(words, "_rewrite_once", scan):
        want = tietze_simplify(p, tags=tags)
    assert got.presentation.relators == want.presentation.relators
    assert (got.steps, got.tags) == (want.steps, want.tags)


# -- the tuple-key definitions that the text keys replaced -------------------


def _tuple_sort_key(w):
    return (len(w), tuple([2 * abs(x) - (x > 0) for x in w]))


def _tuple_forms(w):
    forms = {v[i:] + v[:i] for v in (w, invert_word(w)) for i in range(len(w))}
    return sorted(forms, key=_tuple_sort_key) or [w]


def _tuple_class_key(w):
    return _tuple_forms(cyclic_reduce(w))[0]


def _word_lists(max_gens=4, max_len=30, max_words=8):
    """Lists of random words, reduced or not, on 1..max_gens generators."""
    def build(k):
        letters = st.sampled_from([s * g for g in range(1, k + 1)
                                   for s in (1, -1)])
        return st.lists(st.lists(letters, max_size=max_len).map(tuple),
                        min_size=1, max_size=max_words)
    return st.integers(1, max_gens).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(ws=_word_lists())
def test_text_keys_order_words_as_tuple_keys(ws):
    assert relator_class_key(()) == _tuple_class_key(()) == ()
    for w in ws:
        assert relator_class_key(w) == _tuple_class_key(w)
    for u in ws:
        for v in ws:
            assert ((word_sort_key(u) < word_sort_key(v))
                    == (_tuple_sort_key(u) < _tuple_sort_key(v)))
