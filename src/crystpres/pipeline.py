"""Assembly of short presentations for crystallographic groups.

Given a generating set of affine isometries the pipeline finds the
translation lattice and the point group, presents the point group on
the given generators, lifts its relators back to the full group,
adds lattice and conjugation relators, simplifies, and verifies the
result against finite quotients.
"""

import functools
from fractions import Fraction
from operator import mul

from .affine import AffineIsometry
from .bfs import _harvest, _kernel
from .cosets import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    SchreierRank,
    is_consequence,
    order_verdict,
    quotient_table,
    short_presentation_finite,
)
from .intmat import hnf_with_transform, mat_vec, scale_to_int, solve_hnf
from .symop import GeneratingSetDocument, format_symop
from .words import (
    Presentation,
    cyclic_reduce,
    format_word,
    invert_word,
    tietze_simplify,
)


class PipelineError(RuntimeError):
    pass


class VerificationFailure(PipelineError):
    """A relator fails exact evaluation or a quotient order check.

    This signals an internal inconsistency or an incomplete lattice, not
    a property of the input, so it is an error rather than a warning.
    """


class ExtensionData:
    """The lattice/point-group split of a crystallographic group.

    generators: list of (name, AffineIsometry), the X of the output
    presentation.  lattice_words: list of (word-in-X, vector) whose
    vectors generate the translation lattice (shortest first; may exceed
    the rank when no rank-sized subset of shortest words suffices).
    kernel, reduce, elements: the affine.finite_closure of X, the point
    group as residual codes of lattice cosets.  point_presentation:
    short presentation of the point group on the images of X.
    """

    def __init__(self, generators, harvest, point_presentation, arcs):
        self.generators = generators
        # arcs[x][p] = (q, s): x u_p = t_s u_q, u_p = elements[p] and t_s
        # the translation with lattice coordinates s
        self._arcs = arcs
        self.kernel, self.reduce, self.elements, self.lattice = harvest.closure
        self.names = [name for name, _ in generators]
        self.assignment = {i + 1: op for i, (_, op) in enumerate(generators)}
        self.lattice_words = harvest.lattice_words
        self.point_presentation = point_presentation
        # one HNF transform of the lattice-word vectors serves every
        # lattice word and the dependences among them
        self._rows, self._scale = scale_to_int(
            [v for _, v in self.lattice_words])
        self._transform = hnf_with_transform(self._rows)
        self.dependences = self._transform[1][len(self._transform[0]):]

    def lattice_coefficients(self, vector):
        """Integer c with sum_i c_i v_i = vector over the lattice-word
        vectors v_i (zero along the dependences), or None."""
        target = [x * self._scale for x in vector]
        if any(x.denominator != 1 for x in target):
            return None
        return solve_hnf(self._transform, [int(x) for x in target])

    @functools.cached_property
    def _lattice_action(self):
        """Generator k -> its linear part on lattice coordinates, as rows.

        Each A b_i is solved by back-substitution on the basis b scaled
        to integers, an echelon form (intmat.solve_hnf's loop, inline:
        the refuters of small documents feel its cost)."""
        units = scale_to_int(self.lattice.basis)[0]
        pivots = [next(j for j, x in enumerate(u) if x) for u in units]
        action = {}
        for k, op in self.assignment.items():
            columns = []
            for u in units:
                v = [sum(map(mul, row, u)) for row in op.linear]
                column = []
                for b, j in zip(units, pivots):
                    column.append(v[j] // b[j])
                    v = [x - column[-1] * y for x, y in zip(v, b)]
                columns.append(column)
            action[k] = tuple(zip(*columns))
        return action

    @property
    def point_order(self):
        return len(self.elements)

    @property
    def rank(self):
        return self.lattice.rank


def build_extension_data(generators):
    """Find the translation lattice and present the point group.

    The point group acts on its elements by left multiplication with
    the letters in the kernel's walk order 1, -1, 2, -2, ...  The
    harvest stops at the first sphere whose words span T, where the
    lattice words and the closure are final.
    """
    generators = list(generators)
    harvest = _harvest(generators, 0)
    kernel, reduce, elements, _ = harvest.closure
    index = {e: i for i, e in enumerate(elements)}
    arcs = {x: [(index[u], s) for u, s in map(reduce, map(move, elements))]
            for x, move in kernel.steps}
    point_pres = short_presentation_finite(
        {x: [q for q, _ in arc] for x, arc in arcs.items()},
        [name for name, _ in generators])
    return ExtensionData(generators, harvest, point_pres, arcs)


def _quotient_cosets(E, m):
    """The complete coset table of G/mT, read off the group.

    Coset p m^r + i is t u_p, u_p = E.elements[p] and t the i-th vector
    of (Z/m)^r in lattice coordinates, the first the most significant
    digit of i.  A generator x acts on the left, as on the point tables:
    x t u_p = (A t) (x u_p) = (A t + s) u_q, A the linear part of x on
    lattice coordinates and (q, s) its arc from p.  The column of x^-1
    is the inverse permutation.
    """
    w, size = 2 * len(E.names) + 1, m ** E.rank
    table = CosetTable(len(E.names), (), ())
    cells = table.cells = [0] * (len(E.elements) * size * w)
    rows = range(0, len(cells), w)
    for x, action in E._lattice_action.items():
        # each coordinate of A t, over every t in coset order
        images = []
        for row in action:
            image = [0]
            for a in row:
                image = [v + a * c for v in image for c in range(m)]
            images.append(image)
        for p, (q, s) in enumerate(E._arcs[x]):
            digits = [q] * size
            for image, a in zip(images, s):
                digits = [d * m + (v + a) % m for d, v in zip(digits, image)]
            cells[p * size * w + 2 * x - 1:(p + 1) * size * w:w] = [
                d * w for d in digits]
        for r, d in zip(rows, cells[2 * x - 1::w]):
            cells[d + 2 * x] = r
    cells[::w] = rows
    table.status, table.defined = "complete", len(rows)
    return table


def _combine(coeffs, words):
    """The word w_1^c_1 w_2^c_2 ... for integer coefficients c_i."""
    out = ()
    for c, w in zip(coeffs, words):
        out += w * c if c >= 0 else invert_word(w) * -c
    return out


def _lattice_word_for(E, vector):
    """A word in X evaluating to the translation `vector`, via lattice words.

    Solves for integer coefficients over the harvested generating
    vectors; any block order works because the blocks are translations.
    """
    coeffs = E.lattice_coefficients(vector)
    if coeffs is None:
        raise PipelineError(
            f"translation {vector} is not in the harvested lattice"
        )
    return _short_combination(E, coeffs)


def _short_combination(E, coeffs):
    """The lattice words combined by integer coefficients, descended
    along the dependences to a short word."""
    # when the harvested words outnumber the rank the solution is only
    # unique modulo the dependences; descend along them to keep the
    # emitted word short
    if E.dependences:
        lengths = [len(w) for w, _ in E.lattice_words]

        def cost(cs):
            return sum(abs(c) * n for c, n in zip(cs, lengths))

        coeffs, best = list(coeffs), cost(coeffs)
        improved = True
        while improved:
            improved = False
            for k in E.dependences:
                for sign in (1, -1):
                    while True:
                        trial = [c - sign * x for c, x in zip(coeffs, k)]
                        if cost(trial) < best:
                            coeffs, best = trial, cost(trial)
                            improved = True
                        else:
                            break
        coeffs = tuple(coeffs)
    return _combine(coeffs, [w for w, _ in E.lattice_words])


def lift_point_relators(E):
    """Step (c): cancel the residual translation of each point relator.

    Each point-group relator evaluates in the full group to a pure
    translation; the lifted relator divides it out by a lattice word.
    Returns (lifted word, point relator word, vector) triples.
    """
    out = []
    for r in E.point_presentation.relators:
        code = E.kernel.evaluate(r)
        if code[0] != E.kernel.identity[0]:
            raise PipelineError(
                "point relator has non-identity linear part; closure mismatch"
            )
        t = E.kernel.vector(code)
        w = _lattice_word_for(E, t) if any(t) else ()
        out.append((cyclic_reduce(r + invert_word(w)), r, t))
    return out


def lattice_relators(E):
    """Step (b) relators: a presentation of the lattice on its words.

    Commutators of all pairs of lattice words plus one relator per
    integer dependence among their vectors (needed when more words than
    the rank were harvested).
    """
    words = [w for w, _ in E.lattice_words]
    out = []
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            u, w = words[i], words[j]
            rel = cyclic_reduce(
                invert_word(u) + invert_word(w) + u + w
            )
            if rel:
                out.append(rel)
    for row in E.dependences:
        rel = cyclic_reduce(_combine(row, words))
        if rel:
            out.append(rel)
    return out


def conjugation_relators(E):
    """Step (d): how each generator conjugates each lattice word.

    x^-1 y x evaluates to the translation by (linear part of x) applied
    to the vector of y; the relator divides that out.  Freely trivial
    relators are dropped.
    """
    out = []
    for k in range(1, len(E.names) + 1):
        lin = E.assignment[k].linear
        for (w, _), row in zip(E.lattice_words, E._rows):
            # A v on the integer scale of the lattice-word vectors
            conj = mat_vec(lin, row)
            coeffs = solve_hnf(E._transform, conj)
            if coeffs is None:
                raise PipelineError(
                    f"translation {tuple(Fraction(x, E._scale) for x in conj)}"
                    " is not in the harvested lattice"
                )
            expr = _short_combination(E, coeffs)
            rel = cyclic_reduce((-k,) + w + (k,) + invert_word(expr))
            if rel:
                out.append(rel)
    return out


def quotient_relators(E, m):
    """Extra relators presenting G/mT: m-th powers of the lattice words."""
    return [w * m for w, _ in E.lattice_words]


class PresentationReport:
    def __init__(self, presentation, provenance, verification, extension,
                 simplification_steps, tables=None):
        self.presentation = presentation
        self.provenance = provenance
        self.verification = verification
        self.extension = extension
        self.simplification_steps = simplification_steps
        # m -> the complete table of the final G/mT order check
        self.tables = tables or {}

    def to_dict(self):
        names = self.presentation.generator_names
        return {
            "generators": [
                {"name": n, "xyz": format_symop(op)}
                for n, op in self.extension.generators
            ],
            "point_group_order": self.extension.point_order,
            "lattice_rank": self.extension.rank,
            "lattice_basis": [
                [str(x) for x in row] for row in self.extension.lattice.basis
            ],
            "lattice_words": [
                {"word": format_word(w, names), "vector": [str(x) for x in v]}
                for w, v in self.extension.lattice_words
            ],
            "relators": [
                format_word(r, names) for r in self.presentation.relators
            ],
            "provenance": [
                {
                    "relator": format_word(r, names),
                    "step": tag[0],
                    "source": format_word(tag[1], names),
                }
                for r, tag in zip(self.presentation.relators, self.provenance)
            ],
            "verification": self.verification,
            "simplification_steps": self.simplification_steps,
        }


def present(generators, simplify=True, prune=True,
            verify_orders=(2, 3), max_cosets=DEFAULT_MAX_COSETS):
    """Full pipeline: extension data, relators, simplification, checks.

    Every relator is checked to evaluate to the identity (always on).
    Quotient order checks enumerate G/mT for m in verify_orders and
    compare with |P| * m^rank.  `prune` drops a relator when those order
    checks still pass without it; the commutator and dependence relators
    of the lattice words are the usual casualties.  A trial checks the
    largest m first, which overflows most often: the relator goes only if
    every m passes, so the order is free.  The final check of m reuses
    the table of the latest trial that passed at m if the relators match.

    Before any enumeration a trial asks a cosets.SchreierRank on the
    table of G/mT, read off the group (_quotient_cosets), whether the
    candidate plus the m-th lattice powers presents a larger group; if
    so its check at m could only overflow or fail, and it fails at once.
    The width rule: an m gets such a refuter when its rows are narrow,
    N(k - 1) + 1 bits (N = |G/mT|, k generators) at most the prune cap
    over N; at the largest m that is 64 bits wherever the cap is 64 N.
    Wider rows cost more to eliminate than the enumeration they would
    spare.  The refuters are asked in increasing m, each built when a
    trial first needs it.
    """
    E = build_extension_data(generators)
    identity = E.kernel.identity

    tagged = []
    for lifted, source, _ in lift_point_relators(E):
        tagged.append((lifted, ("lifted point relator", source)))
    for rel in lattice_relators(E):
        tagged.append((rel, ("lattice relator", rel)))
    for rel in conjugation_relators(E):
        tagged.append((rel, ("conjugation relator", rel)))

    for rel, tag in tagged:
        if E.kernel.evaluate(rel) != identity:
            raise VerificationFailure(
                f"relator from {tag[0]} does not evaluate to the identity"
            )

    pres = Presentation(E.names, [r for r, _ in tagged])
    # Presentation keeps the reduced form of the first relator of each
    # class, which is the first relator with that reduced form
    tag_of = {}
    for r, t in tagged:
        tag_of.setdefault(cyclic_reduce(r), t)
    tags = [tag_of[r] for r in pres.relators]

    steps = 0
    if simplify:
        result = tietze_simplify(pres, tags=tags)
        pres, tags, steps = result.presentation, result.tags, result.steps

    expected = {m: E.point_order * m ** E.rank for m in verify_orders}
    # removal trials only need to distinguish pass from anything else, so
    # a tight coset bound keeps them cheap; overflow means "keep it"
    prune_cap = min(max(64 * max(expected.values(), default=1), 2000),
                    max_cosets)
    passed = {}  # m -> the table of the latest trial that passed at m

    # the m whose G/mT rows are narrow, each refuter built at first need
    k = len(E.names)
    narrow = [m for m, n in sorted(expected.items())
              if n * (k - 1) + 1 <= prune_cap // n]
    refuters = {}

    def refuted(relators):
        for m in narrow:
            if m not in refuters:
                refuters[m] = SchreierRank(_quotient_cosets(E, m),
                                           quotient_relators(E, m))
            if refuters[m].refutes(relators):
                return True
        return False

    def trial_passes(candidate):
        if refuted(candidate.relators):
            return False
        for m in sorted(verify_orders, reverse=True):
            table = quotient_table(candidate, quotient_relators(E, m),
                                   prune_cap)
            if order_verdict(table, expected[m]) != "pass":
                return False
            passed[m] = table.compact()
        return True

    if prune and verify_orders:
        # longest first (the relators are in word_sort_key order); keep a
        # relator unless the quotient checks still pass without it
        keep = list(range(len(pres.relators)))
        for i in reversed(keep):
            if len(keep) <= 1:
                break
            trial = [j for j in keep if j != i]
            candidate = pres.with_relators([pres.relators[j] for j in trial])
            if trial_passes(candidate):
                keep = trial
        pres = pres.with_relators([pres.relators[j] for j in keep])
        tags = [tags[j] for j in keep]
        if simplify:
            result = tietze_simplify(pres, tags=tags)
            pres, tags = result.presentation, result.tags
            steps += result.steps

    verification = {"identity_checks": len(tagged), "order_checks": {}}
    for rel in pres.relators:
        if E.kernel.evaluate(rel) != identity:
            raise VerificationFailure(
                "simplified relator does not evaluate to the identity"
            )
    tables, verdicts = {}, set()
    for m in verify_orders:
        table = quotient_table(pres, quotient_relators(E, m), max_cosets,
                               passed.get(m))
        verdict = order_verdict(table, expected[m])
        if verdict == "pass":
            tables[m] = table.compact()
        verification["order_checks"][str(m)] = {
            "expected": expected[m],
            "verdict": verdict,
        }
        verdicts.add(verdict)
    final_verdict = ("fail" if "fail" in verdicts else "inconclusive"
                     if "inconclusive" in verdicts else "pass")
    verification["verdict"] = final_verdict
    if final_verdict == "fail":
        raise VerificationFailure(
            "quotient order check failed for the final presentation"
        )

    return PresentationReport(pres, tags, verification, E, steps, tables)


class RingCensusEntry:
    def __init__(self, relator, cycle_length, stabilizer_order,
                 rings_per_vertex, cycles_per_cell):
        self.relator = relator
        self.cycle_length = cycle_length
        self.stabilizer_order = stabilizer_order
        self.rings_per_vertex = rings_per_vertex
        self.cycles_per_cell = cycles_per_cell


def bounded_consequence_check(report, word, ms=(2, 3),
                              max_cosets=DEFAULT_MAX_COSETS):
    """Bounded test that a word is a consequence of a pipeline output.

    A consequence must evaluate to the identity isometry exactly and
    must be trivial in every finite quotient G/mT enumerated from the
    emitted relators.  Returns "pass" (all bounded witnesses found),
    "fail" (a witness refutes it), or "inconclusive" (some enumeration
    overflowed).  Words are traced through the report's own tables when
    they could stand for the enumeration (cosets.quotient_table).
    """
    E = report.extension
    p = report.presentation
    if E.kernel.evaluate(word) != E.kernel.identity:
        return "fail"
    verdict = "pass"
    for m in ms:
        q = p.with_relators(list(p.relators) + quotient_relators(E, m))
        res = is_consequence(q, word, max_cosets, report.tables.get(m))
        if res is False:
            return "fail"
        if res is None:
            verdict = "inconclusive"
    return verdict


def relator_ring_census(p, generators, cell_order):
    """Rings per vertex contributed by each relator cycle.

    Walking a relator from the identity traces a closed cycle in the
    Cayley graph; its setwise stabilizer under the right regular action
    has order s dividing the cycle length c, the cycle orbit contributes
    cell_order / s cycles per conventional cell, and with one vertex per
    group element that is c / s rings per vertex.  `cell_order` is the
    number of group elements per conventional cell (point order times
    the centering index).
    """
    kernel = _kernel(list(generators))
    out = []
    for r in p.relators:
        c = len(r)
        if c < 3:
            raise PipelineError("ring census needs relators of length >= 3")
        verts = []
        cur = kernel.identity
        for x in r:
            verts.append(cur)
            cur = kernel.move[x](cur)
        if cur != kernel.identity:
            raise PipelineError("relator does not close a cycle")
        vset = set(verts)
        if len(vset) != c:
            raise PipelineError(
                f"relator cycle revisits a vertex (length {c}, "
                f"{len(vset)} distinct)"
            )
        stab = sum({kernel.product(v, f) for v in verts} == vset
                   for f in verts)
        if c % stab != 0 or cell_order % stab != 0:
            raise PipelineError("stabilizer order does not divide cycle data")
        out.append(RingCensusEntry(r, c, stab, c // stab, cell_order // stab))
    return out


def ndia_generators(n):
    """Inversion generating set of the n-dimensional diamond net group.

    n+1 point inversions: through the origin, through the midpoints of
    the first n-1 basis vectors raised to half, and through half the
    all-ones vector.  Generator names run a, b, c, d, f, ... (no e).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    letters = [ch for ch in "abcdfghijklmnopqrstuvwxyz"]
    if n + 1 > len(letters):
        raise ValueError("n too large for the naming scheme")
    neg = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    points = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n - 1):
        points.append(tuple(
            Fraction(1, 2) if j == i else Fraction(0) for j in range(n)
        ))
    points.append(tuple(Fraction(1, 2) for _ in range(n)))
    gens = []
    for name, p in zip(letters, points):
        translation = tuple(2 * x for x in p)
        gens.append((name, AffineIsometry(neg, translation)))
    return GeneratingSetDocument(n, gens, label=f"{n}-dia inversions")
