"""Words over a symmetrized alphabet, relators, and Tietze simplification.

A Word is a tuple of nonzero ints: +k is generator k-1, -k its inverse.
Relators are cyclic words; two relators are considered the same when one
is a rotation of the other or of its inverse.  Class keys and Tietze
rewrites scan a relator's doubled _text and list no rotations, so memory
grows linearly with relator length.
"""

import collections
import functools
import itertools

from .affine import AffineIsometry, inverse as affine_inverse


class UnassignedSymbol(KeyError):
    pass


def invert_word(w):
    return tuple(-x for x in reversed(w))


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w):
    w = list(free_reduce(w))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def word_sort_key(w):
    # letters a < a^-1 < b < b^-1 < ..., as the codes of _text compare
    return (len(w), _text(w))


def _text(w):
    """One character per letter, so str.find matches whole letters."""
    return "".join([chr(2 * abs(x) - (x > 0)) for x in w])


def _word(s):
    """The word whose _text is s."""
    return tuple([(c + 1) // 2 if c % 2 else -(c // 2) for c in map(ord, s)])


class _Swap(dict):
    """str.translate table: code 2j - 1 <-> 2j, a letter <-> its inverse."""

    def __missing__(self, c):
        self[c] = c + 1 if c % 2 else c - 1
        return self[c]


def _inverse_text(s, swap=_Swap()):
    """_text(invert_word(w)) for s = _text(w)."""
    return s[::-1].translate(swap)


def relator_class_key(w):
    """Canonical word of a relator up to rotation and inversion: the
    rotation of w or w^-1 whose _text is least."""
    s = _text(cyclic_reduce(w))
    n = len(s)
    return _word(min((v[i:i + n] for v in (s * 2, _inverse_text(s) * 2)
                      for i in range(n)), default=s))


def evaluate(w, assignment):
    """Image of a word, letters acting in reading order.

    `assignment` maps 1-based generator indices to AffineIsometry.  The
    first letter acts first, so as column-vector matrices the product is
    taken right to left; appending a letter x to a word left-multiplies
    the value by the image of x.
    """
    result = None
    for x in w:
        g = assignment.get(abs(x))
        if g is None:
            raise UnassignedSymbol(f"no assignment for symbol {x}")
        g = g if x > 0 else affine_inverse(g)
        result = g if result is None else g * result
    if result is None:
        # empty word: need a dimension; take it from any assigned value
        any_g = next(iter(assignment.values()))
        return AffineIsometry.identity(any_g.dimension)
    return result


class Presentation:
    """Ordered generator names plus cyclically reduced relators.

    Relators are deduplicated up to rotation and inversion and kept
    sorted by (length, lexicographic) for reproducible output.
    """

    def __init__(self, generator_names, relators):
        self.generator_names = list(generator_names)
        self._canonicalise(relators, {})

    def _canonicalise(self, relators, keys):
        """Keep the first relator of each class, sorted.  `keys` maps
        cyclically reduced words to their class keys; it takes in each
        key computed here and is shared with every with_relators
        presentation, so no class is keyed twice."""
        first = {}
        for r in relators:
            key = keys.get(r)
            if key is None:
                r = cyclic_reduce(r)
                if not r:
                    continue
                key = keys[r] = relator_class_key(r)
            first.setdefault(key, r)
        self._keys = keys
        self.relators = sorted(first.values(), key=word_sort_key)

    def __repr__(self):
        rels = ", ".join(format_word(r, self.generator_names) for r in self.relators)
        return f"<{', '.join(self.generator_names)} | {rels}>"

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return ((self.generator_names, self.relators)
                == (other.generator_names, other.relators))

    def with_relators(self, relators):
        """Presentation(generator_names, relators); relators keyed by
        this presentation or one it shares keys with are not
        canonicalised again."""
        p = Presentation(self.generator_names, ())
        p._canonicalise(relators, self._keys)
        return p


# ---------------------------------------------------------------------------
# Tietze simplification


def _rewrite_once(relators, texts):
    """Apply the first shortening rewrite; None if none applies.

    `relators` are distinct and sorted by word_sort_key, `texts` their
    _texts.  Targets r go longest first, sources u != r with |u| <= |r|
    shortest first.  A rotation f of u or u^-1 applies when its first
    |f| // 2 + 1 letters occur in the cyclic word r; every start of the
    doubled texts of u and u^-1 is tried, and of the f that apply, the
    one with the least _text is taken.  Take the longest prefix s of f
    occurring in r, at its first start in r + r; reading r = s v from
    there and f = s t, r becomes the cyclic reduction of t^-1 v, which is
    shorter than r.  Returns (target index, new word).
    """
    # rotations repeat with the period: the text's next start in itself
    doubled = [(s * 2, _inverse_text(s) * 2, (s * 2).find(s, 1))
               for s in texts]
    for ti in range(len(relators) - 1, -1, -1):
        r, text = relators[ti], texts[ti] * 2
        n = len(r)
        for u, (fwd, inv, period) in zip(relators, doubled):
            m = len(u)
            if m > n:
                break
            if u == r:
                continue
            # a prefix of length k starts at some i < n iff it occurs in
            # text[:n - 1 + k]; its first start grows with k
            k = m // 2 + 1
            f = min((v[i:i + m] for v in (fwd, inv) for i in range(period)
                     if text.find(v[i:i + k], 0, n - 1 + k) >= 0),
                    default=None)
            if f is None:
                continue
            at = text.find(f[:k], 0, n - 1 + k)
            while k < m:
                i = text.find(f[:k + 1], at, n + k)
                if i < 0:
                    break
                at, k = i, k + 1
            rest = (r + r)[at + k:at + n]
            return ti, cyclic_reduce(invert_word(_word(f[k:])) + rest)
    return None


TietzeResult = collections.namedtuple(
    "TietzeResult", "presentation steps budget_exhausted tags")


def tietze_simplify(p, tags=None):
    """Deterministic relator-level simplification.

    Each pass reads a generator x with a relator x^2 as an involution
    (x^-1 -> x), replaces every relator by its canonical word
    (relator_class_key), sorts by word_sort_key and drops duplicates.
    It then applies the first rewrite that _rewrite_once finds.  Every
    rewrite shortens a relator, so the presented group is unchanged and
    the total relator length never increases.  The loop stops when no
    rewrite applies or after TIETZE_BUDGET rewrites.

    `tags` is an optional list parallel to p.relators of opaque
    provenance markers; each surviving relator keeps the tag of the
    relator it was rewritten from (duplicates keep the first in sorted
    order).  The result carries the surviving tags in the same order as
    the final relators.
    """
    if tags is not None and len(tags) != len(p.relators):
        raise ValueError("tags and relators differ in length")
    given = [None] * len(p.relators) if tags is None else tags
    pairs = [(cyclic_reduce(r), t) for r, t in zip(p.relators, given)]
    keys = p._keys  # shared with p, so no class is keyed twice

    @functools.lru_cache(maxsize=None)
    def canonical(r, invs):
        """(len, text, word) of r's class key, x^-1 read as x in invs."""
        w = cyclic_reduce(tuple(abs(x) if abs(x) in invs else x for x in r))
        if not w:
            return ()
        key = keys.get(w) or keys.setdefault(w, relator_class_key(w))
        return len(key), _text(key), key

    budget, steps = TIETZE_BUDGET, 0
    while True:
        invs = frozenset(abs(r[0]) for r, _ in pairs
                         if len(r) == 2 and r[0] == r[1])
        first = {}
        for r, t in pairs:
            key = canonical(r, invs)
            if key:
                first.setdefault(key, t)
        ordered = sorted(first.items())
        pairs = [(f, t) for (_, _, f), t in ordered]
        if steps >= budget:
            break
        hit = _rewrite_once([r for r, _ in pairs],
                            [s for (_, s, _), _ in ordered])
        if hit is None:
            break
        ti, new_r = hit
        pairs[ti] = (new_r, pairs[ti][1])
        steps += 1
    relators = [r for r, _ in pairs]
    p._keys.update(zip(relators, relators))  # each is its own class key
    result = p.with_relators(relators)
    out_tags = None if tags is None else [t for _, t in pairs]
    return TietzeResult(result, steps, steps >= budget, out_tags)


# ---------------------------------------------------------------------------
# Word text syntax: juxtaposition, ^ powers, parentheses, [u, v] commutators


class WordSyntaxError(ValueError):
    pass


MAX_WORD_LETTERS = 10**6
MAX_WORD_NESTING = 100
TIETZE_BUDGET = 10000  # rewrites per tietze_simplify call


def parse_word(text, names):
    """Parse relator text like "(ac^-1)^2" or "[a,b]" into a Word; a
    WordSyntaxError once it would hold over MAX_WORD_LETTERS letters or
    nest brackets over MAX_WORD_NESTING deep."""
    pos = held = 0  # held: the letters of every list built so far
    text = text.replace(" ", "")
    if text == "1":
        return ()

    def grow(n):  # before each power or term is built
        nonlocal held
        held += n
        if held > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word expands past {MAX_WORD_LETTERS} letters in {text!r}")

    def parse_seq(stop_chars, depth=0):  # depth: the brackets open here
        nonlocal pos
        if depth > MAX_WORD_NESTING:
            raise WordSyntaxError(
                f"brackets nest past {MAX_WORD_NESTING} deep in {text!r}")
        out = []
        while pos < len(text) and text[pos] not in stop_chars:
            ch = text[pos]
            if ch == "(":
                pos += 1
                inner = parse_seq(")", depth + 1)
                if pos >= len(text) or text[pos] != ")":
                    raise WordSyntaxError(f"unbalanced '(' in {text!r}")
                pos += 1
                out.extend(apply_power(inner))
            elif ch == "[":
                pos += 1
                left = parse_seq(",", depth + 1)
                if pos >= len(text) or text[pos] != ",":
                    raise WordSyntaxError(f"expected ',' in commutator in {text!r}")
                pos += 1
                right = parse_seq("]", depth + 1)
                if pos >= len(text) or text[pos] != "]":
                    raise WordSyntaxError(f"unbalanced '[' in {text!r}")
                pos += 1
                grow(len(left) + len(right))
                comm = invert_word(left) + invert_word(right) + (*left, *right)
                out.extend(apply_power(list(comm)))
            elif ch.isalpha():
                if ch not in names:
                    raise WordSyntaxError(f"unknown generator {ch!r} in {text!r}")
                pos += 1
                grow(1)
                out.extend(apply_power([names.index(ch) + 1]))
            else:
                raise WordSyntaxError(f"unexpected character {ch!r} in {text!r}")
        return out

    def apply_power(base):
        nonlocal pos
        if pos < len(text) and text[pos] == "^":
            inverse = text.startswith("-", pos + 1)
            pos += 1 + inverse
            j = pos
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j == pos:
                raise WordSyntaxError(f"expected exponent in {text!r}")
            # 10 digits pass the bound; int() refuses over 4300 digits
            digits = text[pos:j].lstrip("0")
            n = int(digits or 0) if len(digits) < 10 else MAX_WORD_LETTERS + 1
            pos = j
            grow(len(base) * (n - 1))
            return list(invert_word(base) if inverse else base) * n
        return base

    return free_reduce(tuple(parse_seq("")))


def _format_run(letter, count, names):
    name = names[abs(letter) - 1]
    if letter < 0:
        return f"{name}^-{count}"
    return f"{name}^{count}" if count > 1 else name


def format_word(w, names):
    """Render a word in the report syntax, e.g. (ac^-1)^2."""
    if not w:
        return "1"
    # whole-word power detection
    n = len(w)
    for period in range(1, n // 2 + 1):
        if n % period == 0 and w == w[:period] * (n // period):
            if period == 1:
                return _format_run(w[0], n, names)
            return f"({format_word(w[:period], names)})^{n // period}"
    return "".join(_format_run(x, len(list(run)), names)
                   for x, run in itertools.groupby(w))
