"""Byte-for-byte guards on discovery order.

The harvest and cseq goldens under tests/goldens/ were captured from
the Fraction-valued breadth-first search that the integer walk kernel
replaced.  Shortest words depend on the order in which a walk discovers
elements (spheres in order, letters 1, -1, 2, -2, ...), so any change
to that order shows up here as a byte difference.  The strong-ring
golden was captured from the ring search over (vertex, shift) tuples;
it pins every ring's nodes and the order the rings come out in.  The
present goldens were captured before Tietze simplification moved onto
one canonical relator form and a longest-match rewrite scan; they pin
every relator, provenance tag and simplification step count.  The net
goldens (radius-40 `cseq` on every bundled net, net `geodesics` and the
ths layer `quotient` reports) were captured while cover nodes were
(vertex, shift) tuples, before they were packed into single ints.  The
torsion quotient goldens were captured while a quotient's Smith data
came from its own pivot-and-clear loop, before alternating HNFs.  The
subperiodic present goldens (documents under tests/data, outside the
corpus) and the harvest golden were captured while the translation
lattice was the span of the harvest, which stopped after 3 stable
spheres or at its radius cap; the lattice is now exact (Schreier
translations of the point-group closure).  The radius-16 `cseq`
goldens of the corpus and of ndia 2-4 (documents under tests/data)
were captured while group coordination sequences walked the whole
Cayley ball, before they became the shell walk on the cover of G/T.
The Cayley net golden (`from_cayley(...).to_text()` of the corpus, ndia
2-4 and the subperiodic documents) was captured while from_cayley built
the whole presentation pipeline's extension data (harvest and point
presentation), before it read the Cayley quotient that cseq walks.
The HLT-run golden lists (max_cosets, status, defined cosets) of every
coset enumeration that `present` makes on the corpus and the documents
under tests/data, in call order; it was captured before the union-find
root walks moved inline into the enumeration loop, and pins the frozen
HLT order on real inputs.  It was regenerated when the point-group
presentation stopped enumerating its certified relators a second time
at 16|P| cosets: twelve documents lost exactly that run.
"""

import json
import os
from fractions import Fraction
from unittest import mock

import pytest

from crystpres import bfs, cosets
from crystpres.affine import finite_closure, hnf_lattice
from crystpres.bfs import shortest_translation_words
from crystpres.cli import main
from crystpres.netgraph import catalog_load, from_cayley, strong_rings
from crystpres.pipeline import ndia_generators, present
from crystpres.symop import parse_generating_set

from conftest import RING_GOLDENS, load_document

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
GOLDENS = os.path.join(ROOT, "tests", "goldens")

CORPUS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "corpus"))
    if name.endswith(".json")
)
NDIA = ["ndia_2", "ndia_3", "ndia_4"]
SUBPERIODIC = ["layer_p1bar", "rod_p2cc"]
# cseq --input (document, radius): radius 8 on three corpus documents,
# 16 on the whole corpus and ndia 2-4
CSEQ_CASES = [
    pytest.param(f"corpus/{name}", 8, id=name)
    for name in ["pnna_acd.json", "elv.json", "gis_i41a.json"]
] + [
    pytest.param(path, 16, id=f"{os.path.basename(path)}-r16")
    for path in [f"corpus/{name}" for name in CORPUS]
    + [f"tests/data/{name}.json" for name in NDIA]
]
PNNA_RING_CAP = 14
NET_CSEQ_RADIUS = 40
# net -> translation target (conventional coordinates)
GEODESIC_TARGETS = {"dia": "3/2,-2,1/2", "pcu": "6,6,6", "sql": "4,12"}
# the layer vectors of acceptance criterion 6
THS_LAYERS = ["5/2,5/2,1/2", "2,2,1", "1/2,1/2,-3/2"]
# quotients whose lattice has torsion, so each vertex has several
# copies: golden name -> (net, target, ring cap, base)
TORSION_QUOTIENTS = {
    "sql_4_12": ("sql", "4,12", "16", "2"),
    "pcu_2_2_0": ("pcu", "2,2,0", "8", "1"),
    "dia_2_2_0": ("dia", "2,2,0", "10", "3"),
    "srs_4_2_0": ("srs", "4,2,0", "10", "5"),
    "hcb_6_3": ("hcb", "6,3", "12", "4"),
    "hcb_3_0": ("hcb", "3,0", "12", "1"),
}


def harvest_words(generators):
    """The full harvest as JSON-ready [word, [vector components]] pairs."""
    h = shortest_translation_words(generators)
    return [[list(w), [str(x) for x in v]] for w, v in h.words]


def render_harvests():
    out = {}
    for name in CORPUS:
        out[name] = harvest_words(load_document(name).generators)
    for n in (2, 3, 4):
        out[f"ndia_{n}"] = harvest_words(ndia_generators(n).generators)
    return json.dumps(out, sort_keys=True) + "\n"


def render_hlt_runs():
    """One JSON line per document: its `present` run's HLT enumerations
    as [max_cosets, status, defined cosets], in call order."""
    docs = [f"corpus/{name}" for name in CORPUS] + sorted(
        f"tests/data/{name}" for name in os.listdir(
            os.path.join(ROOT, "tests", "data")) if name.endswith(".json"))
    run_hlt, runs = cosets.CosetTable.run_hlt, []

    def spy(table):
        run_hlt(table)
        runs.append([table.max_cosets, table.status, len(table.table)])
        return table

    lines = []
    with mock.patch.object(cosets.CosetTable, "run_hlt", spy):
        for path in docs:
            with open(os.path.join(ROOT, path)) as fh:
                present(parse_generating_set(fh.read()).generators)
            lines.append(f"{json.dumps(path)}: {json.dumps(runs)}")
            runs.clear()
    return "{\n" + ",\n".join(lines) + "\n}\n"


def render_rings():
    """One line per strong ring at base 0: the net, then the ring's
    (vertex, shift) nodes as JSON, in the order strong_rings returns."""
    cases = [(name, catalog_load(name), cap)
             for name, (cap, _) in sorted(RING_GOLDENS.items())]
    pnna = from_cayley(load_document("pnna_acd.json"))
    cases.append(("pnna_acd", pnna, PNNA_RING_CAP))
    lines = []
    for name, g, cap in cases:
        for ring in strong_rings(g, 0, cap):
            nodes = [[v, list(shift)] for v, shift in ring.nodes]
            lines.append(f"{name} {json.dumps(nodes)}")
    return "\n".join(lines) + "\n"


def render_cayley_nets():
    """from_cayley(...).to_text() per document, as JSON keyed by name."""
    docs = {name[:-len(".json")]: load_document(name) for name in CORPUS}
    docs.update({name: ndia_generators(int(name[-1])) for name in NDIA})
    for name in SUBPERIODIC:
        with open(os.path.join(ROOT, "tests", "data", f"{name}.json")) as fh:
            docs[name] = parse_generating_set(fh.read())
    out = {name: from_cayley(doc).to_text() for name, doc in docs.items()}
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def present_stdout(capsys, name):
    """stdout of `present --input corpus/<name>` run from the repository root."""
    code = main(["present", "--input", f"corpus/{name}"])
    assert code == 0
    return capsys.readouterr().out


def cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _golden(name):
    with open(os.path.join(GOLDENS, name)) as fh:
        return fh.read()


def test_harvest_words_golden():
    assert render_harvests() == _golden("harvest_words.json")


def test_closure_lattice_is_the_golden_harvest_span():
    golden = json.loads(_golden("harvest_words.json"))
    docs = {name: load_document(name).generators for name in CORPUS}
    docs.update({name: ndia_generators(int(name[-1])).generators
                 for name in NDIA})
    for name, gens in docs.items():
        spanned = hnf_lattice([[Fraction(x) for x in v]
                               for _, v in golden[name]])
        assert finite_closure([g for _, g in gens])[3] == spanned, name


@pytest.mark.parametrize("path, radius", CSEQ_CASES)
def test_cseq_input_golden(path, radius, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    stem = os.path.basename(path)[:-len(".json")]
    out = cli_stdout(capsys, "cseq", "--input", path, "--radius", str(radius))
    assert out == _golden(f"cseq_{stem}_r{radius}.json")


def test_cayley_nets_golden():
    assert render_cayley_nets() == _golden("from_cayley.json")


def test_hlt_runs_golden():
    assert render_hlt_runs() == _golden("hlt_runs.json")


def test_strong_rings_golden():
    assert render_rings() == _golden("strong_rings.txt")


@pytest.mark.parametrize("name", CORPUS)
def test_present_input_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    stem = name[:-len(".json")]
    assert present_stdout(capsys, name) == _golden(f"present_{stem}.json")


def present_ndia_text(n):
    report = present(ndia_generators(n)).to_dict()
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_present_ndia_golden(n):
    assert present_ndia_text(n) == _golden(f"present_ndia_{n}.json")


@pytest.mark.parametrize("name", SUBPERIODIC)
def test_present_subperiodic_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = cli_stdout(capsys, "present", "--input", f"tests/data/{name}.json")
    assert out == _golden(f"present_{name}.json")


@pytest.mark.parametrize("name", CORPUS + NDIA)
def test_present_goldens_without_stable_spheres(name, capsys, monkeypatch):
    # the harvest stops at the first sphere that spans T; the extra
    # stable spheres only add harvested words that no report shows
    monkeypatch.setattr(bfs, "DEFAULT_STABLE_SPHERES", 0)
    if name in NDIA:
        assert present_ndia_text(int(name[-1])) == _golden(
            f"present_{name}.json")
    else:
        monkeypatch.chdir(ROOT)
        assert present_stdout(capsys, name) == _golden(
            f"present_{name[:-len('.json')]}.json")


@pytest.mark.parametrize("name", sorted(RING_GOLDENS))
def test_cseq_net_golden(name, capsys):
    last = catalog_load(name).n - 1
    out = cli_stdout(capsys, "cseq", "--net", name, "--radius",
                     str(NET_CSEQ_RADIUS), "--base", str(last))
    assert out == _golden(f"cseq_net_{name}_r{NET_CSEQ_RADIUS}.json")


@pytest.mark.parametrize("name", sorted(GEODESIC_TARGETS))
def test_geodesics_net_golden(name, capsys):
    out = cli_stdout(capsys, "geodesics", "--net", name,
                     "--target", GEODESIC_TARGETS[name])
    assert out == _golden(f"geodesics_net_{name}.json")


@pytest.mark.parametrize("layer", range(len(THS_LAYERS)))
def test_quotient_ths_golden(layer, capsys):
    out = cli_stdout(capsys, "quotient", "--net", "ths", "--target",
                     THS_LAYERS[layer], "--radius", "10", "--max", "12")
    assert out == _golden(f"quotient_ths_{layer}.json")


@pytest.mark.parametrize("name", sorted(TORSION_QUOTIENTS))
def test_quotient_torsion_golden(name, capsys):
    net, target, cap, base = TORSION_QUOTIENTS[name]
    out = cli_stdout(capsys, "quotient", "--net", net, "--target", target,
                     "--max", cap, "--base", base)
    assert out == _golden(f"quotient_{name}.json")
