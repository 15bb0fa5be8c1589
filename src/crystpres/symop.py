"""Coordinate-triplet ("xyz") notation for symmetry operations.

Parses strings like "x, 1/2-y, 1/4-z" into exact AffineIsometry values,
prints them back canonically, and reads generating-set documents (JSON)
into named generator lists.
"""

import json
from fractions import Fraction

from .affine import AffineIsometry

AXIS_NAMES = "xyzw"


class SymopSyntaxError(ValueError):
    """Malformed coordinate-triplet text; `position` is a 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DocumentError(ValueError):
    pass


def _variable_index(name, dimension):
    if name.startswith("x") and name[1:].isdigit():
        idx = int(name[1:]) - 1
        if 0 <= idx < dimension:
            return idx
        return None
    if dimension <= 4 and len(name) == 1 and name in AXIS_NAMES[:dimension]:
        return AXIS_NAMES.index(name)
    return None


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-,*":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise SymopSyntaxError("expected denominator", j + 1)
                if not int(text[j + 1:k]):
                    raise SymopSyntaxError("zero denominator", j + 1)
                tokens.append(("num", Fraction(num, int(text[j + 1:k])), i))
                i = k
            else:
                tokens.append(("num", Fraction(num), i))
                i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("var", text[i:j], i))
            i = j
        else:
            raise SymopSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_component(tokens, dimension, offset):
    """Parse one coordinate expression from a token list."""
    coeffs = [Fraction(0)] * dimension
    const = Fraction(0)
    i = 0
    if not tokens:
        raise SymopSyntaxError("empty component", offset)
    while i < len(tokens):
        sign = Fraction(1)
        kind, value, pos = tokens[i]
        if kind in "+-":
            if kind == "-":
                sign = Fraction(-1)
            i += 1
            if i >= len(tokens):
                raise SymopSyntaxError("dangling sign", pos)
            kind, value, pos = tokens[i]
        if kind == "num":
            coeff = sign * value
            i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "var":
                    raise SymopSyntaxError("expected variable after '*'", pos)
            if i < len(tokens) and tokens[i][0] == "var":
                vkind, vname, vpos = tokens[i]
                idx = _variable_index(vname, dimension)
                if idx is None:
                    raise SymopSyntaxError(f"unknown variable {vname!r}", vpos)
                coeffs[idx] += coeff
                i += 1
            else:
                const += coeff
        elif kind == "var":
            idx = _variable_index(value, dimension)
            if idx is None:
                raise SymopSyntaxError(f"unknown variable {value!r}", pos)
            coeffs[idx] += sign
            i += 1
        else:
            raise SymopSyntaxError(f"unexpected token {value!r}", pos)
    return coeffs, const


def parse_symop(text, dimension):
    """Parse coordinate-triplet text into an AffineIsometry."""
    if dimension < 1:
        raise DocumentError("dimension must be >= 1")
    # split at top level on commas, tracking offsets for error reporting
    tokens = _tokenize(text)
    components = []
    current = []
    start = 0
    for tok in tokens:
        if tok[0] == ",":
            components.append((current, start))
            current = []
            start = tok[2] + 1
        else:
            current.append(tok)
    components.append((current, start))
    if len(components) != dimension:
        raise SymopSyntaxError(
            f"expected {dimension} components, found {len(components)}", 0
        )
    linear = []
    translation = []
    for comp, off in components:
        coeffs, const = _parse_component(comp, dimension, off)
        for c in coeffs:
            if c.denominator != 1:
                raise SymopSyntaxError(
                    "linear coefficients must be integers", off
                )
        linear.append([int(c) for c in coeffs])
        translation.append(const)
    return AffineIsometry(linear, translation)


def _format_fraction(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_term(coeff, var, first):
    coeff = Fraction(coeff)
    mag = abs(coeff)
    body = var if mag == 1 and var else (
        _format_fraction(mag) + var if var else _format_fraction(mag)
    )
    if first:
        return body if coeff > 0 else "-" + body
    return ("+" if coeff > 0 else "-") + body


def format_symop(g):
    """Canonical text for an isometry; parse_symop(format_symop(g)) == g.

    Variables appear in ascending index order.  A nonzero constant leads
    the component (the crystallographic habit of writing "1/2-y" and
    "1+x" rather than "-y+1/2" or "x+1").
    """
    d = g.dimension
    names = (
        list(AXIS_NAMES[:d]) if d <= 4 else [f"x{i + 1}" for i in range(d)]
    )
    parts = []
    for i in range(d):
        terms = [(g.linear[i][j], names[j]) for j in range(d) if g.linear[i][j]]
        const = g.translation[i]
        if const != 0:
            terms = [(const, "")] + terms
        if not terms:
            parts.append("0")
            continue
        out = _format_term(terms[0][0], terms[0][1], True)
        for coeff, var in terms[1:]:
            out += _format_term(coeff, var, False)
        parts.append(out)
    return ", ".join(parts)


def _parse_matrix_rows(rows, dimension):
    entries = []
    for row in rows:
        if isinstance(row, str):
            vals = [Fraction(tok) for tok in row.split()]
        else:
            vals = [Fraction(x) for x in row]
        entries.append(vals)
    if len(entries) == dimension + 1:
        last = entries[-1]
        if any(x != 0 for x in last[:-1]) or last[-1] != 1:
            raise DocumentError("augmented matrix must end with row (0,...,0,1)")
        entries = entries[:-1]
    if len(entries) != dimension or any(len(r) != dimension + 1 for r in entries):
        raise DocumentError(
            f"matrix must have {dimension} rows of {dimension + 1} rationals"
        )
    linear = [r[:-1] for r in entries]
    if any(x.denominator != 1 for r in linear for x in r):
        raise DocumentError("linear coefficients must be integers")
    translation = [r[-1] for r in entries]
    return AffineIsometry(linear, translation)


class GeneratingSetDocument:
    """Named, ordered generating set with optional free-form label."""

    def __init__(self, dimension, generators, label=None):
        if dimension < 1:
            raise DocumentError("dimension must be >= 1")
        if not generators:
            raise DocumentError("generator list is empty")
        names = [name for name, _ in generators]
        for name in names:  # a word spells each generator with one letter
            if not (isinstance(name, str) and len(name) == 1 and name.isalpha()):
                raise DocumentError(f"generator name {name!r} is not a single letter")
        if len(set(names)) != len(names):
            raise DocumentError(f"duplicate generator names in {names}")
        for name, op in generators:
            if op.dimension != dimension:
                raise DocumentError(
                    f"generator {name!r} has dimension {op.dimension}, expected {dimension}"
                )
        self.dimension = dimension
        self.generators = list(generators)
        self.label = label

    def __iter__(self):
        return iter(self.generators)

    @property
    def names(self):
        return [name for name, _ in self.generators]


def parse_generating_set(document):
    """Parse a JSON generating-set document (text or parsed dict)."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise DocumentError("the document is not a JSON object")
    if "dimension" not in data:
        raise DocumentError("missing 'dimension'")
    dimension = data["dimension"]
    if type(dimension) is not int:  # not a bool, float or text either
        raise DocumentError("dimension must be an integer")
    entries = data.get("generators", [])
    if not isinstance(entries, list):
        raise DocumentError("'generators' is not a list")
    gens = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DocumentError(f"generator entry {entry!r} is not an object")
        name = entry.get("name")
        if not name:
            raise DocumentError("generator without a name")
        if not isinstance(name, str):
            raise DocumentError(f"generator name {name!r} is not a string")
        try:
            if "xyz" in entry:
                if not isinstance(entry["xyz"], str):
                    raise DocumentError(f"'xyz' {entry['xyz']!r} is not a string")
                op = parse_symop(entry["xyz"], dimension)
            elif "matrix" in entry:
                op = _parse_matrix_rows(entry["matrix"], dimension)
            else:
                raise DocumentError("neither 'xyz' nor 'matrix' given")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"generator {name!r}: {exc}") from exc
        gens.append((name, op))
    return GeneratingSetDocument(dimension, gens, label=data.get("label"))
