"""Words over a symmetrized alphabet, relators, and Tietze simplification.

A Word is a tuple of nonzero ints: +k is generator k-1, -k its inverse.
Relators are cyclic words; two relators are considered the same when one
is a rotation of the other or of its inverse.
"""

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


def _letter_key(x):
    # a < a^-1 < b < b^-1 < ...
    return (abs(x) - 1) * 2 + (0 if x > 0 else 1)


def word_sort_key(w):
    return (len(w), tuple(_letter_key(x) for x in w))


def relator_class_key(w):
    """Canonical key of a relator up to rotation and inversion."""
    w = cyclic_reduce(w)
    if not w:
        return ()
    best = None
    for v in (w, invert_word(w)):
        for i in range(len(v)):
            rot = v[i:] + v[:i]
            key = tuple(_letter_key(x) for x in rot)
            if best is None or key < best:
                best = key
    return best


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
        seen = set()
        cleaned = []
        for r in relators:
            r = cyclic_reduce(r)
            if not r:
                continue
            key = relator_class_key(r)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        cleaned.sort(key=word_sort_key)
        self.relators = cleaned

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
        return Presentation(self.generator_names, relators)


# ---------------------------------------------------------------------------
# Tietze simplification


def _involution_generators(relators):
    invs = set()
    for r in relators:
        if len(r) == 2 and r[0] == r[1] and r[0] > 0:
            invs.add(r[0])
    return invs


def _rotations_and_inverse_rotations(w):
    forms = []
    for v in (w, invert_word(w)):
        for i in range(len(v)):
            forms.append(v[i:] + v[:i])
    # deterministic, deduplicated order
    seen = set()
    out = []
    for f in sorted(forms, key=word_sort_key):
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _find_cyclic_substring(r, s):
    """Start index of s in the cyclic word r, or None."""
    if len(s) > len(r):
        return None
    doubled = r + r
    for i in range(len(r)):
        if doubled[i : i + len(s)] == s:
            return i
    return None


def _rewrite_once(relators):
    """Apply the first strictly shortening rewrite; None if none applies.

    Targets are scanned longest-first; sources shortest-first; splits of
    a source u = s * t with |s| > |t| are tried with longest s first.
    """
    order = sorted(range(len(relators)), key=lambda i: word_sort_key(relators[i]))
    for ti in reversed(order):
        r = relators[ti]
        for si in order:
            if si == ti:
                continue
            u = relators[si]
            if len(u) > len(r):
                break  # sources are sorted; all further are longer
            for form in _rotations_and_inverse_rotations(u):
                max_s = min(len(form), len(r))
                min_s = len(form) // 2 + 1
                for ls in range(max_s, min_s - 1, -1):
                    s, t = form[:ls], form[ls:]
                    pos = _find_cyclic_substring(r, s)
                    if pos is None:
                        continue
                    rotated = r[pos:] + r[:pos]
                    new_r = invert_word(t) + rotated[ls:]
                    new_r = cyclic_reduce(new_r)
                    if len(new_r) < len(r):
                        return ti, new_r
    return None


class TietzeResult:
    def __init__(self, presentation, steps, budget_exhausted, tags=None):
        self.presentation = presentation
        self.steps = steps
        self.budget_exhausted = budget_exhausted
        self.tags = tags


def tietze_simplify(p, budget=10000, tags=None):
    """Deterministic relator-level simplification.

    Only free/cyclic reduction, inversion/rotation identification,
    strictly shortening substring replacement, and duplicate removal are
    used, so the presented group is unchanged and the total relator
    length never increases.

    `tags` is an optional list parallel to p.relators of opaque
    provenance markers; each surviving relator keeps the tag of the
    relator it was rewritten from (duplicates keep the first in sorted
    order).  The result carries the surviving tags in the same order as
    the final relators.
    """
    if tags is None:
        pairs = [(cyclic_reduce(r), None) for r in p.relators]
    else:
        if len(tags) != len(p.relators):
            raise ValueError("tags and relators differ in length")
        pairs = [(cyclic_reduce(r), t) for r, t in zip(p.relators, tags)]
    steps = 0
    exhausted = False
    while True:
        invs = _involution_generators(
            [_rotations_and_inverse_rotations(r)[0] for r, _ in pairs if r]
        )
        normed = []
        for r, t in pairs:
            if invs:
                r = cyclic_reduce(tuple(abs(x) if abs(x) in invs else x for x in r))
            if r:
                # canonical representative of the rotation/inversion class
                normed.append((_rotations_and_inverse_rotations(r)[0], t))
        # dedup up to rotation/inversion
        seen = set()
        pairs = []
        for r, t in sorted(normed, key=lambda p_: word_sort_key(p_[0])):
            key = relator_class_key(r)
            if key not in seen:
                seen.add(key)
                pairs.append((r, t))
        if steps >= budget:
            exhausted = True
            break
        hit = _rewrite_once([r for r, _ in pairs])
        if hit is None:
            break
        ti, new_r = hit
        pairs[ti] = (new_r, pairs[ti][1])
        steps += 1
    result = Presentation(p.generator_names, [r for r, _ in pairs])
    out_tags = None if tags is None else [t for _, t in pairs]
    return TietzeResult(result, steps, exhausted, out_tags)


# ---------------------------------------------------------------------------
# Word text syntax: juxtaposition, ^ powers, parentheses, [u, v] commutators


class WordSyntaxError(ValueError):
    pass


def parse_word(text, names):
    """Parse relator text like "(ac^-1)^2" or "[a,b]" into a Word."""
    pos = 0
    text = text.replace(" ", "")
    if text == "1":
        return ()

    def parse_seq(stop_chars):
        nonlocal pos
        out = []
        while pos < len(text) and text[pos] not in stop_chars:
            ch = text[pos]
            if ch == "(":
                pos += 1
                inner = parse_seq(")")
                if pos >= len(text) or text[pos] != ")":
                    raise WordSyntaxError(f"unbalanced '(' in {text!r}")
                pos += 1
                out.extend(apply_power(inner))
            elif ch == "[":
                pos += 1
                left = parse_seq(",")
                if pos >= len(text) or text[pos] != ",":
                    raise WordSyntaxError(f"expected ',' in commutator in {text!r}")
                pos += 1
                right = parse_seq("]")
                if pos >= len(text) or text[pos] != "]":
                    raise WordSyntaxError(f"unbalanced '[' in {text!r}")
                pos += 1
                comm = (
                    invert_word(tuple(left))
                    + invert_word(tuple(right))
                    + tuple(left)
                    + tuple(right)
                )
                out.extend(apply_power(list(comm)))
            elif ch.isalpha():
                if ch not in names:
                    raise WordSyntaxError(f"unknown generator {ch!r} in {text!r}")
                pos += 1
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
            n = int(text[pos:j])
            pos = j
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
