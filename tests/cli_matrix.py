"""The CLI equivalence matrix: argv cases, each with the exit code and
the sha256 of the stdout and stderr it gives.

    python tests/cli_matrix.py          # run every case, list mismatches
    python tests/cli_matrix.py --write  # regenerate the golden

The golden is tests/goldens/cli_matrix.json.

Every case runs in-process through `crystpres.cli.main`, from the
repository root, on paths relative to it.  A case id is its command
line, prefixed with `CRYSTPRES_CATALOG=<directory>` for the cases that
read another catalog: tests/data/catalog, of malformed and special
nets, or a directory that does not exist.  A change that
moves an entry says so, as for the other goldens; `test_cli_matrix.py`
runs a fixed, seeded sample of the cases in tier-1.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "goldens", "cli_matrix.json")
CATALOG = "tests/data/catalog"
MISSING_CATALOG = "tests/data/no_such_catalog"

DOCUMENTS = sorted(
    f"{d}/{f}" for d in ("corpus", "tests/data")
    for f in os.listdir(os.path.join(ROOT, d)) if f.endswith(".json"))
MALFORMED = sorted(
    f"tests/data/malformed/{f}"
    for f in os.listdir(os.path.join(ROOT, "tests", "data", "malformed")))

# the consequence lists of the acceptance criteria and of CI
EXPECT = {
    "corpus/i42d.json": "a^2;b^2;c^4;bc^-1ac;abcabac^-1b",
    "corpus/z2_diagonal_1.json": "abc^-1;bac^-1",
    "corpus/z2_diagonal_2.json": "[a,b];(ab)^2c^-1",
    "corpus/z2_diagonal_3.json": "[a,b];(ab)^3c^-1",
    "corpus/z2_diagonal_4.json": "[a,b];(ab)^4c^-1",
    "corpus/hcb_p6.json": "a^2;b^6;(ab)^3",
}

# net: (ring cap, a geodesic target, a quotient target)
NETS = {
    "pcu": (6, "2,1,0", "2,2,0"),
    "sql": (6, "4,12", "4,12"),
    "hcb": (8, "3,1", "3,0"),
    "dia": (8, "2,1,0", "2,2,0"),
    "nbo": (8, "2,1,0", "2,2,0"),
    "qtz": (8, "2,1,0", "0,0,2"),
    "gis": (8, "2,1,0", "0,0,2"),
    "ths": (12, "2,1,0", "5/2,5/2,1/2"),
    "srs": (12, "2,1,0", "4,2,0"),
}

HCB = "corpus/hcb_p6.json"
I42D = "corpus/i42d.json"


def _documents():
    for doc in DOCUMENTS:
        for command in ("present", "verify"):
            for flags in ([], ["--m", "2,3,4"], ["--max", "300"],
                          ["--max", "40"]):
                yield [command, "--input", doc, *flags]
    for doc, words in EXPECT.items():
        for flags in ([], ["--max", "300"]):
            yield ["verify", "--input", doc, "--expect", words, *flags]
    for doc in (HCB, I42D, "corpus/z2_diagonal_2.json"):
        yield ["present", "--input", doc, "--permute"]
    for doc in DOCUMENTS:
        yield ["cseq", "--input", doc, "--radius", "8"]
    for target in ("1,0", "2,1", "3,3"):
        yield ["geodesics", "--input", HCB, "--target", target]
    yield ["geodesics", "--input", "corpus/gis_i41a.json", "--target", "3,3,3"]
    yield ["rings", "--input", I42D, "--max", "10"]
    # ring searches past the golden caps: a rings-benchmark job and a
    # non-bipartite ball (its 7-rings)
    yield ["rings", "--input", "corpus/pnna_acd.json", "--max", "14"]
    yield ["rings", "--input", "corpus/z2_diagonal_3.json", "--max", "9"]
    yield ["quotient", "--input", HCB, "--target", "3,0", "--max", "8"]


def _nets():
    yield ["catalog"]
    for net, (cap, target, sub) in NETS.items():
        yield ["catalog", "--net", net]
        yield ["cseq", "--net", net, "--radius", "12"]
        yield ["geodesics", "--net", net, "--target", target]
        yield ["rings", "--net", net, "--max", str(cap)]
        yield ["rings", "--net", net, "--max", str(cap), "--all-vertices"]
        yield ["quotient", "--net", net, "--target", sub]
    yield ["quotient", "--net", "hcb", "--target", "6,3", "--max", "12",
           "--base", "4"]
    yield ["quotient", "--net", "ths", "--target", "5/2,5/2,1/2",
           "--max", "12"]
    yield ["geodesics", "--net", "pcu", "--target", "30,30,30"]
    yield ["rings", "--net", "qtz", "--max", "14"]
    # deeper walks: the box reach past a few rounds, and a doubled box
    for net, radius in (("gis", 64), ("nbo", 64), ("srs", 100)):
        yield ["cseq", "--net", net, "--radius", str(radius)]
    yield ["cseq", "--input", "corpus/elv.json", "--radius", "24"]
    yield ["quotient", "--net", "ths", "--target", "5/2,5/2,1/2",
           "--radius", "64"]


def _errors():
    """The exit-2, 3 and 4 lines that the README and CI name."""
    for path in MALFORMED:
        yield ["present", "--input", path]
    yield ["present", "--input", "corpus/missing.json"]
    bad = "tests/data/malformed/"
    for command in (["cseq"], ["geodesics", "--target", "1,0"]):
        yield [*command, "--input", bad + "infinite_point_group.json"]
        yield [*command, "--input", bad + "singular_xyz.json"]
        yield [*command, "--input", HCB, "--base", "3"]
    yield ["rings", "--input", bad + "singular_xyz.json"]
    for command in ("present", "verify"):
        yield [command, "--input", HCB, "--m", "2,2"]
        yield [command, "--input", HCB, "--m", "1,2"]
        yield [command, "--input", HCB, "--max", "0"]
    for word in ("a^99999999999999", "((a^1000)^1000)^1000",
                 "(" * 101 + "a" + ")" * 101, "ad", "a^", "(a"):
        yield ["verify", "--input", HCB, "--expect", word]
    yield ["verify", "--input", I42D, "--expect", "ab"]
    yield ["verify", "--input", I42D, "--max", "300",
           "--expect", "a^2;aa^-1;a"]
    yield ["verify", "--input", I42D, "--max", "40", "--expect", "c^4"]
    yield ["geodesics", "--input", "corpus/elv.json", "--target", "1/3,0,0"]
    yield ["geodesics", "--input", I42D, "--target", "100,100,100",
           "--max", "5"]
    yield ["geodesics", "--input", I42D, "--target", "1,2"]
    yield ["geodesics", "--net", "pcu", "--target", "1,2"]
    yield ["geodesics", "--net", "sql", "--target", "1,0,0"]
    yield ["geodesics", "--net", "sql", "--target", "4,oops"]
    yield ["geodesics", "--net", "sql", "--target", "6,-1", "--max", "5"]
    yield ["geodesics", "--net", "pcu", "--target", "30,30,30", "--max", "60"]
    yield ["quotient", "--net", "ths", "--target", "1,2"]
    yield ["quotient", "--net", "ths", "--target", "5/2,5/2,1/2;1,2"]
    for target in ("2,0,0", "2,0,0;4,0,0", "1,0,0;0,1,0;0,0,1"):
        yield ["quotient", "--net", "pcu", "--target", target]
    for argv in (["cseq", "--base", "-1"], ["cseq", "--base", "5"],
                 ["cseq", "--radius", "-1"], ["rings", "--max", "2"],
                 ["rings", "--base", "5"],
                 ["geodesics", "--target", "1,0", "--max", "0"],
                 ["quotient", "--target", "4,12", "--base", "4"],
                 ["quotient", "--target", "4,12", "--max", "2"]):
        yield [argv[0], "--net", "sql", *argv[1:]]
    for command in (["cseq"], ["rings"], ["quotient", "--target", "4,12"]):
        yield command
        yield [*command, "--net", "sql", "--input", I42D]
    yield ["cseq", "--net", "nosuchnet"]
    yield ["catalog", "--net", "nosuchnet"]
    yield ["cseq", "--net", "pcu", "--radius", "1000"]
    # a report that cannot be written: exit 2, and no JSON on stdout
    yield ["cseq", "--net", "pcu", "--radius", "2",
           "--report", "tests/data/no_such_dir/report.json"]
    yield ["quotient", "--net", "pcu", "--target", "4,0,0", "--radius", "1000"]
    yield ["rings", "--input", "corpus/z1_trivial.json", "--max", "1000000000"]
    yield ["rings", "--net", "pcu"]
    yield ["rings", "--net", "pcu", "--max", "200"]


def _catalog():
    """Cases read with CRYSTPRES_CATALOG set to the malformed nets."""
    yield ["catalog"]
    for net in ("disconnected", "sublattice", "one_edge", "no_edges",
                "singular_cell"):
        yield ["catalog", "--net", net]
        yield ["cseq", "--net", net]
    yield ["geodesics", "--net", "singular_cell", "--target", "1,1"]
    yield ["quotient", "--net", "singular_cell", "--target", "1,0"]
    yield ["rings", "--net", "chain", "--all-vertices", "--max", "6"]
    yield ["rings", "--net", "fork", "--all-vertices", "--max", "6"]
    yield ["rings", "--net", "dense", "--max", "8"]


def _missing_catalog():
    """Cases read with CRYSTPRES_CATALOG set to no directory."""
    yield ["catalog"]
    yield ["cseq", "--net", "pcu"]


def cases():
    """(case id, argv, catalog directory or None), in a fixed order."""
    out = [(shlex.join(a), a, None)
           for gen in (_documents, _nets, _errors) for a in gen()]
    out += [(f"CRYSTPRES_CATALOG={catalog} {shlex.join(a)}", a, catalog)
            for catalog, gen in ((CATALOG, _catalog),
                                 (MISSING_CATALOG, _missing_catalog))
            for a in gen()]
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def _at_root(catalog):
    from crystpres.netgraph import CATALOG_ENV

    cwd, saved = os.getcwd(), os.environ.pop(CATALOG_ENV, None)
    os.chdir(ROOT)
    if catalog:
        os.environ[CATALOG_ENV] = catalog
    try:
        yield
    finally:
        os.chdir(cwd)
        os.environ.pop(CATALOG_ENV, None)
        if saved is not None:
            os.environ[CATALOG_ENV] = saved


def run(argv, catalog=None):
    """{"exit", "stdout", "stderr"} of one case, the streams as sha256."""
    from crystpres.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _at_root(catalog), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return {"exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def main(argv):
    results = {}
    for case_id, args, catalog in cases():
        results[case_id] = run(args, catalog)
    if argv == ["--write"]:
        with open(GOLDEN, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(results)} cases to {GOLDEN}")
        return 0
    golden = load()
    bad = [c for c in results if results[c] != golden.get(c)]
    bad += [c for c in golden if c not in results]
    for c in bad:
        print(f"mismatch: {c[:200]}: got {results.get(c)}, "
              f"golden {golden.get(c)}")
    print(f"{len(results) - len(bad)} of {len(results)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main(sys.argv[1:]))
