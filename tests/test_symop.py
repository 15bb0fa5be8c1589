"""Symmetry-operation string parsing and document handling."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres.affine import AffineIsometry
from crystpres.symop import (
    DocumentError,
    GeneratingSetDocument,
    SymopSyntaxError,
    format_symop,
    parse_generating_set,
    parse_symop,
)


def test_identity_roundtrip():
    g = parse_symop("x, y, z", 3)
    assert g.is_identity()
    assert format_symop(g) == "x, y, z"


def test_translation_and_signs():
    g = parse_symop("1/2+x, -y, 1-z", 3)
    assert g.translation == (Fraction(1, 2), 0, 1)
    assert g.linear == ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_constant_leads_in_output():
    g = parse_symop("x+1, y, z", 3)
    assert format_symop(g) == "1+x, y, z"


def test_rational_coefficients():
    g = parse_symop("3/2+z, 1/2-x, -y", 3)
    assert g.translation == (Fraction(3, 2), Fraction(1, 2), 0)
    assert g.linear == ((0, 0, 1), (-1, 0, 0), (0, -1, 0))


def test_two_dimensional():
    g = parse_symop("x-y, x", 2)
    assert g.linear == ((1, -1), (1, 0))


def test_syntax_errors_carry_position():
    with pytest.raises(SymopSyntaxError):
        parse_symop("x, y", 3)
    with pytest.raises(SymopSyntaxError):
        parse_symop("x + + y, y, z", 3)
    with pytest.raises(SymopSyntaxError):
        parse_symop("x, y, w", 3)


@pytest.mark.parametrize("text, message", [
    ("²+x, y", "unexpected character '²' (at position 0)"),
    ("x²+1, y", "unknown variable 'x²' (at position 0)"),
    ("x١, y", "unknown variable 'x١' (at position 0)"),
    ("1/²+x, y", "expected denominator (at position 2)"),
    ("٣/2+x, y", "unexpected character '٣' (at position 0)"),
])
def test_numbers_and_variable_indices_are_ascii_digits(text, message):
    with pytest.raises(SymopSyntaxError) as raised:
        parse_symop(text, 2)
    assert str(raised.value) == message


def test_matrix_document_agrees_with_xyz():
    doc = parse_generating_set(
        {
            "dimension": 3,
            "generators": [
                {"name": "a", "xyz": "y, -x, 1/2+z"},
                {"name": "b", "matrix": ["0 1 0 0", "-1 0 0 0", "0 0 1 1/2"]},
            ],
        }
    )
    ops = dict(doc.generators)
    assert ops["a"] == ops["b"]


def test_augmented_matrix_row_accepted():
    doc = parse_generating_set(
        {
            "dimension": 2,
            "generators": [
                {"name": "a", "matrix": ["1 0 1/2", "0 1 0", "0 0 1"]}
            ],
        }
    )
    assert doc.generators[0][1].translation == (Fraction(1, 2), 0)


def test_document_errors():
    with pytest.raises(DocumentError):
        parse_generating_set("not json at all")
    with pytest.raises(DocumentError):
        parse_generating_set({"generators": []})
    with pytest.raises(DocumentError):
        parse_generating_set({"dimension": 2, "generators": [{"xyz": "x, y"}]})
    with pytest.raises(DocumentError):
        parse_generating_set(
            {
                "dimension": 2,
                "generators": [
                    {"name": "a", "xyz": "x, y"},
                    {"name": "a", "xyz": "-x, -y"},
                ],
            }
        )


@pytest.mark.parametrize("name", ["s1", "aa", "1", " ", 7])
def test_generator_names_are_single_letters(name):
    op = parse_symop("1+x, y", 2)
    with pytest.raises(DocumentError, match="is not a single letter"):
        GeneratingSetDocument(2, [("a", op), (name, op)])
    assert GeneratingSetDocument(2, [("a", op), ("é", op)]).names == [
        "a", "é"]


def test_document_json_roundtrip(i42d):
    text = json.dumps({
        "dimension": i42d.dimension,
        "label": i42d.label,
        "generators": [{"name": name, "xyz": format_symop(op)}
                       for name, op in i42d.generators],
    })
    again = parse_generating_set(text)
    assert again.generators == i42d.generators
    assert again.label == i42d.label


_signed_units = st.sampled_from([-1, 0, 1])
_fracs = st.builds(
    Fraction, st.integers(-8, 8), st.integers(1, 6)
)


def _permutation_matrices(d):
    return st.permutations(range(d)).flatmap(
        lambda perm: st.tuples(
            *[st.sampled_from([-1, 1]) for _ in range(d)]
        ).map(
            lambda signs: tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(d))
                for i in range(d)
            )
        )
    )


@settings(max_examples=150)
@given(
    d=st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            _permutation_matrices(d),
            st.lists(_fracs, min_size=d, max_size=d),
        )
    )
)
def test_format_parse_roundtrip(d):
    dim, linear, translation = d
    g = AffineIsometry(linear, translation)
    assert parse_symop(format_symop(g), dim) == g
