"""Assembly of short presentations for crystallographic groups.

Given a generating set of affine isometries the pipeline finds the
translation lattice and the point group, presents the point group on
the given generators, lifts its relators back to the full group,
adds lattice and conjugation relators, simplifies, and verifies the
result against finite quotients G/mT.  The point group (G/1T) and the
tables of G/mT are cosets.cover_table of one graph, the Cayley quotient
(bfs._quotient_arcs); lattice words are solved on integer kernel codes.
"""

from fractions import Fraction

from .affine import AffineIsometry
from .bfs import _harvest, _kernel
from .cosets import (
    DEFAULT_MAX_COSETS,
    SchreierRank,
    cover_table,
    order_check,
    short_presentation_finite,
)
from .intmat import hnf_with_transform, solve_hnf
from .symop import GeneratingSetDocument, format_symop
from .words import (
    Presentation,
    cyclic_reduce,
    format_word,
    free_reduce,
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
    kernel, elements: the affine.finite_closure of X, the point group as
    residual codes of lattice cosets; adj its bfs._quotient_arcs.
    point_presentation: short presentation of the point group on X, read
    off its table G/1T, cover_table(adj, 1).
    """

    def __init__(self, generators, harvest):
        self.generators = generators
        self.adj = harvest.adj
        self.kernel, _, self.elements, self.lattice = harvest.closure
        self.names = [name for name, _ in generators]
        self.lattice_words = harvest.lattice_words
        # one HNF transform of the lattice-word vectors, on the kernel's
        # integer scale, serves every lattice word and the dependences
        self._transform = hnf_with_transform(
            [[int(x * self.kernel.scale) for x in v]
             for _, v in self.lattice_words])
        self.dependences = self._transform[1][len(self._transform[0]):]
        self.point_presentation = short_presentation_finite(
            cover_table(self.adj, 1), self.names)

    @property
    def point_order(self):
        return len(self.elements)

    @property
    def rank(self):
        return self.lattice.rank


def build_extension_data(generators):
    """Find the translation lattice and present the point group.

    The harvest stops at the first sphere whose words span T, where the
    lattice words and the closure are final.
    """
    generators = list(generators)
    return ExtensionData(generators, _harvest(generators, 0))


def _combine(coeffs, words):
    """The word w_1^c_1 w_2^c_2 ... for integer coefficients c_i."""
    out = ()
    for c, w in zip(coeffs, words):
        out += w * c if c >= 0 else invert_word(w) * -c
    return out


def _lattice_word_for(E, code):
    """A word in X evaluating to the translation of a kernel code.

    Solves for integer coefficients over the harvested generating
    vectors; any block order works because the blocks are translations.
    """
    coeffs = solve_hnf(E._transform, code[1:])
    if coeffs is None:
        raise PipelineError(
            f"translation {E.kernel.vector(code)} is not in the harvested lattice")
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
        w = _lattice_word_for(E, code)
        out.append((cyclic_reduce(r + invert_word(w)), r, E.kernel.vector(code)))
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

    x^-1 y x evaluates to a translation, by (linear part of x) applied
    to the vector of y; the relator divides it out by a lattice word, as
    lift_point_relators does.  Freely trivial relators are dropped.
    """
    out = []
    for k in range(1, len(E.names) + 1):
        for w, _ in E.lattice_words:
            conj = (-k,) + w + (k,)
            rel = cyclic_reduce(
                conj + invert_word(_lattice_word_for(E, E.kernel.evaluate(conj))))
            if rel:
                out.append(rel)
    return out


def quotient_relators(E, m):
    """Extra relators presenting G/mT: m-th powers of the lattice words."""
    return [w * m for w, _ in E.lattice_words]


class PresentationReport:
    def __init__(self, presentation, provenance, verification, extension,
                 simplification_steps):
        self.presentation = presentation
        self.provenance = provenance
        self.verification = verification
        self.extension = extension
        self.simplification_steps = simplification_steps

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


def present(generators, verify_orders=(2, 3), max_cosets=DEFAULT_MAX_COSETS):
    """Full pipeline: extension data, relators, simplification, checks.

    Every relator is checked to evaluate to the identity.  Quotient
    order checks enumerate G/mT for m in verify_orders and compare with
    |P| * m^rank.  Between two Tietze passes, pruning drops a relator
    when those checks still pass without it (commutator and dependence
    relators of the lattice words, mostly).  A trial checks the
    largest m first, which overflows most often: the relator goes only if
    every m passes, so the order is free.  The final checks pass with no
    enumeration on the relators of the latest trial that passed every m,
    under a cap of at most max_cosets: run_hlt reads its cap only to stop.

    Before any enumeration a trial asks a cosets.SchreierRank on the
    table of G/mT, read off the group (cover_table(E.adj, m)), whether
    the m-th lattice powers plus the candidate present a larger group;
    if so its check at m could only overflow or fail, and it fails at
    once.  The powers lead every call, so a refuter reduces them once.
    A table of N = |G/mT| cosets is built only if N is at most the prune
    cap.  Then the least m always gets such a refuter, which spares the
    trials that overflow; a larger m only when its rows are narrow,
    N(k - 1) + 1 bits (k generators) at most the prune cap over N, wider
    rows costing more to eliminate than the enumeration they would spare.
    The refuters are asked in increasing m, each built when a trial
    first needs it.
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

    result = tietze_simplify(pres, tags=tags)
    pres, tags, steps = result.presentation, result.tags, result.steps

    expected = {m: E.point_order * m ** E.rank for m in verify_orders}
    # removal trials only need to distinguish pass from anything else, so
    # a tight coset bound keeps them cheap; overflow means "keep it"
    prune_cap = min(max(64 * max(expected.values(), default=1), 2000),
                    max_cosets)
    proven = None  # the relators of the latest trial that passed every m

    # the least m and those whose G/mT rows are narrow, if G/mT fits
    k = len(E.names)
    refuting = [m for m, n in sorted(expected.items()) if n <= prune_cap and (
        m == min(expected) or n * (k - 1) + 1 <= prune_cap // n)]
    refuters = {}

    def refuted(relators):
        for m in refuting:
            if m not in refuters:
                refuters[m] = SchreierRank(cover_table(E.adj, m))
            if refuters[m].refutes(quotient_relators(E, m) + relators):
                return True
        return False

    def trial_passes(candidate):
        if refuted(candidate.relators):
            return False
        return all(order_check(candidate, quotient_relators(E, m),
                               expected[m], prune_cap) == "pass"
                   for m in sorted(verify_orders, reverse=True))

    if verify_orders:
        # longest first (the relators are in word_sort_key order); keep a
        # relator unless the quotient checks still pass without it
        keep = list(range(len(pres.relators)))
        for i in reversed(keep):
            if len(keep) <= 1:
                break
            trial = [j for j in keep if j != i]
            candidate = pres.with_relators([pres.relators[j] for j in trial])
            if trial_passes(candidate):
                keep, proven = trial, candidate.relators
        pres = pres.with_relators([pres.relators[j] for j in keep])
        tags = [tags[j] for j in keep]
        result = tietze_simplify(pres, tags=tags)
        pres, tags = result.presentation, result.tags
        steps += result.steps

    verification = {"identity_checks": len(tagged), "order_checks": {}}
    for rel in pres.relators:
        if E.kernel.evaluate(rel) != identity:
            raise VerificationFailure(
                "simplified relator does not evaluate to the identity"
            )
    verdicts = set()
    for m in verify_orders:
        verdict = ("pass" if pres.relators == proven else order_check(
            pres, quotient_relators(E, m), expected[m], max_cosets))
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

    return PresentationReport(pres, tags, verification, E, steps)


class RingCensusEntry:
    def __init__(self, relator, cycle_length, stabilizer_order,
                 rings_per_vertex, cycles_per_cell):
        self.relator = relator
        self.cycle_length = cycle_length
        self.stabilizer_order = stabilizer_order
        self.rings_per_vertex = rings_per_vertex
        self.cycles_per_cell = cycles_per_cell


def bounded_consequence_check(report, word):
    """Whether a word is a consequence of a pipeline output, read off the
    report's own checks.

    A consequence must evaluate to the identity isometry exactly ("fail"
    otherwise).  A freely trivial word passes.  Otherwise it must be
    trivial in every G/mT of the order checks: one that passed completed
    G/mT itself, where every word trivial in G closes; one that
    overflowed would overflow again on the same relators and cap.  So
    the verdict is "pass" when there is an order check and every one
    passed, else "inconclusive"; nothing is enumerated.
    """
    E = report.extension
    if E.kernel.evaluate(word) != E.kernel.identity:
        return "fail"
    verdicts = {c["verdict"]
                for c in report.verification["order_checks"].values()}
    if not free_reduce(word) or verdicts == {"pass"}:
        return "pass"
    return "inconclusive"


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
        verts = [kernel.evaluate(r[:i]) for i in range(c)]
        if kernel.evaluate(r) != kernel.identity:
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
