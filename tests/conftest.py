import os

import pytest

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

# per-net search caps chosen just past the largest strong ring expected
RING_GOLDENS = {
    "pcu": (6, {4: 12}),
    "sql": (6, {4: 4}),
    "hcb": (8, {6: 3}),
    "dia": (8, {6: 12}),
    "nbo": (8, {6: 8}),
    "qtz": (8, {6: 6, 8: 40}),
    "gis": (8, {4: 3, 8: 4}),
    "ths": (12, {10: 10}),
    "srs": (12, {10: 15}),
}


def corpus_path(name):
    return os.path.abspath(os.path.join(CORPUS, name))


def load_document(name):
    from crystpres.symop import parse_generating_set

    with open(corpus_path(name)) as fh:
        return parse_generating_set(fh.read())


@pytest.fixture
def i42d():
    return load_document("i42d.json")


@pytest.fixture
def elv():
    return load_document("elv.json")


def quotient_coordination_sequence(doc, m, radius):
    """Sphere sizes in the coset graph of G/mT on the same generators."""
    from crystpres.affine import (
        TranslationLattice,
        inverse,
        point_group_compose,
        point_group_image,
    )
    from crystpres.pipeline import build_extension_data

    E = build_extension_data(doc.generators)
    sub = TranslationLattice(
        doc.dimension, [[m * x for x in row] for row in E.lattice.basis]
    )
    steps = []
    for _, op in doc.generators:
        steps.append(point_group_image(op, sub))
        steps.append(point_group_image(inverse(op), sub))
    from crystpres.intmat import identity_matrix
    from crystpres.affine import PointGroupElement

    ident = PointGroupElement(identity_matrix(doc.dimension), (0,) * doc.dimension)
    seen = {ident}
    sphere = [ident]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for g in sphere:
            for s in steps:
                h = point_group_compose(s, g, sub)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        sizes.append(len(nxt))
        sphere = nxt
    return sizes
