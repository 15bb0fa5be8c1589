"""Coset enumeration and finite group models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres.cosets import (
    FiniteGroupModel,
    ModelNotClosed,
    coset_enumerate,
    is_consequence,
    order_check,
    short_presentation_finite,
)
from crystpres.words import Presentation, cyclic_reduce, parse_word


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
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    names, relators = case
    free, *gens = free_group(" ".join(names))
    sympy_relators = []
    for word in relators:
        element = free.identity
        for x in word:
            element *= gens[abs(x) - 1] ** (1 if x > 0 else -1)
        sympy_relators.append(element)
    # sympy's own enumeration over the trivial subgroup: its coset count
    # is the group order (FpGroup.order() can recurse without end here)
    table = fp_groups.FpGroup(free, sympy_relators).coset_enumeration([])
    table.compress()
    assert coset_enumerate(Presentation(names, relators)) == len(table.table)


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
    assert is_consequence(p, parse_word("ab", ["a", "b"])) is False
    free = Presentation(["a", "b"], [])
    assert is_consequence(free, (1, 2), max_cosets=200) is None
    assert is_consequence(free, ()) is True


def _zn_model(n):
    return FiniteGroupModel(range(n), [1 % n], lambda x, y: (x + y) % n)


def test_finite_group_model_basics():
    m = _zn_model(6)
    assert m.order == 6
    e = m.identity_index()
    assert m.mult(2, 4) == e
    assert m.inverse(2) == 4
    # appending a letter left-multiplies by its image
    assert m.act(3, 1) == 4
    assert m.act(3, -1) == 2


def test_finite_group_model_not_closed():
    with pytest.raises(ModelNotClosed):
        FiniteGroupModel([0, 1], [1], lambda x, y: x + y)


def test_short_presentation_cyclic():
    p = short_presentation_finite(_zn_model(5))
    assert coset_enumerate(p) == 5
    assert p.relators == [(1, 1, 1, 1, 1)]


def test_short_presentation_symmetric_group():
    import itertools

    elems = list(itertools.permutations(range(4)))

    def mul(p, q):  # appending acts in reading order
        return tuple(p[q[i]] for i in range(4))

    gens = [elems.index((1, 0, 2, 3)), elems.index((1, 2, 3, 0))]
    model = FiniteGroupModel(elems, gens, mul)
    p = short_presentation_finite(model)
    assert coset_enumerate(p) == 24
    # relators stay short: a Cannon-style set from tree cycles
    assert max(len(r) for r in p.relators) <= 12
