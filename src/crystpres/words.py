"""Words over a symmetrized alphabet, relators, and Tietze simplification.

A Word is a tuple of nonzero ints: +k is generator k-1, -k its inverse.
Relators are cyclic words; two relators are considered the same when one
is a rotation of the other or of its inverse.
"""

import functools

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


def _forms(w):
    """The distinct rotations f of w and of w^-1 as (f, _text(f)) pairs,
    in word_sort_key order."""
    n = len(w)
    forms = {s[i:i + n]: v[i:i + n] for v in (w * 2, invert_word(w) * 2)
             for s in [_text(v)] for i in range(n)}
    return [(f, s) for s, f in sorted(forms.items())] or [(w, "")]


def relator_class_key(w):
    """Canonical word of a relator up to rotation and inversion."""
    return _forms(cyclic_reduce(w))[0][0]


def evaluate(w, assignment):
    """Image of a word, letters acting in reading order.

    `assignment` maps 1-based generator indices to AffineIsometry.  The
    first letter acts first, so as column-vector matrices the product is
    taken right to left; appending a letter x to a word left-multiplies
    the value by the image of x.
    """
    result = None
    inverses = {}
    for x in w:
        g = assignment.get(abs(x))
        if g is None:
            raise UnassignedSymbol(f"no assignment for symbol {x}")
        if x < 0:
            if abs(x) not in inverses:
                inverses[abs(x)] = affine_inverse(g)
            g = inverses[abs(x)]
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
        return (
            self.generator_names == other.generator_names
            and self.relators == other.relators
        )

    def with_relators(self, relators):
        """Presentation(generator_names, relators); relators keyed by
        this presentation or one it shares keys with are not
        canonicalised again."""
        p = Presentation(self.generator_names, ())
        p._canonicalise(relators, self._keys)
        return p


# ---------------------------------------------------------------------------
# Tietze simplification


def _rewrite_once(relators, forms):
    """Apply the first shortening rewrite; None if none applies.

    `relators` are distinct and sorted by word_sort_key, `forms(u)` is
    _forms(u), (f, _text(f)) pairs.  Targets r go longest first, sources u !=
    r with |u| <= |r| shortest first, then the forms f of u in order.
    The first f with a prefix longer than |f| // 2 occurring in the
    cyclic word r applies: take the longest such prefix s, at its first
    start in r + r; reading r = s v from there and f = s t, r becomes
    the cyclic reduction of t^-1 v, which is shorter than r.  Returns
    (target index, new word).
    """
    for ti in range(len(relators) - 1, -1, -1):
        r = relators[ti]
        n = len(r)
        text = _text(r) * 2
        for u in relators:
            if len(u) > n:
                break
            if u == r:
                continue
            for f, s in forms(u):
                # a prefix of length k starts at some i < n iff it occurs
                # in text[:n - 1 + k]; its first start grows with k
                k = len(f) // 2 + 1
                at = text.find(s[:k], 0, n - 1 + k)
                if at < 0:
                    continue
                while k < len(f):
                    i = text.find(s[:k + 1], at, n + k)
                    if i < 0:
                        break
                    at, k = i, k + 1
                rest = (r + r)[at + k:at + n]
                return ti, cyclic_reduce(invert_word(f[k:]) + rest)
    return None


class TietzeResult:
    def __init__(self, presentation, steps, budget_exhausted, tags=None):
        self.presentation = presentation
        self.steps = steps
        self.budget_exhausted = budget_exhausted
        self.tags = tags


def tietze_simplify(p, budget=10000, tags=None):
    """Deterministic relator-level simplification.

    Each pass reads a generator x with a relator x^2 as an involution
    (x^-1 -> x), replaces every relator by its canonical word
    (relator_class_key), sorts by word_sort_key and drops duplicates.
    It then applies one rewrite (_rewrite_once): for the first (target,
    source, form) that admits one, the longest prefix of the form that
    is longer than half of it, at its first cyclic occurrence in the
    target, is replaced by the inverse of the rest of the form.  Every
    rewrite shortens a relator, so the presented group is unchanged and
    the total relator length never increases.  The loop stops when no
    rewrite applies or after `budget` rewrites.

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

    forms = functools.lru_cache(maxsize=None)(_forms)

    @functools.lru_cache(maxsize=None)
    def canonical(r, invs):
        """(len, text, word) of r's canonical word, x^-1 read as x in invs."""
        w = cyclic_reduce(tuple(abs(x) if abs(x) in invs else x for x in r))
        return w and (len(w),) + forms(w)[0][::-1]

    steps = 0
    while True:
        invs = frozenset(abs(r[0]) for r, _ in pairs
                         if len(r) == 2 and r[0] == r[1])
        first = {}
        for r, t in pairs:
            key = canonical(r, invs)
            if key:
                first.setdefault(key, t)
        pairs = [(f, t) for (_, _, f), t in sorted(first.items())]
        if steps >= budget:
            break
        hit = _rewrite_once([r for r, _ in pairs], forms)
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
            pos += 1
            sign = 1
            if pos < len(text) and text[pos] == "-":
                sign = -1
                pos += 1
            j = pos
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == pos:
                raise WordSyntaxError(f"expected exponent in {text!r}")
            # 10 digits pass the bound; int() refuses over 4300 digits
            digits = text[pos:j].lstrip("0")
            n = int(digits or 0) if len(digits) < 10 else MAX_WORD_LETTERS + 1
            pos = j
            grow(len(base) * (n - 1))
            word = tuple(base)
            if sign < 0:
                word = invert_word(word)
            return list(word) * n
        return base

    result = parse_seq("")
    return free_reduce(tuple(result))


def _format_run(letter, count, names):
    name = names[abs(letter) - 1]
    if letter < 0:
        return f"{name}^-{count}" if count > 1 else f"{name}^-1"
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
    parts = []
    i = 0
    while i < n:
        j = i
        while j < n and w[j] == w[i]:
            j += 1
        parts.append(_format_run(w[i], j - i, names))
        i = j
    return "".join(parts)
