"""Command line interface: subcommands, reports, exit codes."""

import gc
import json

import pytest

from crystpres.bfs import CoverCode
from crystpres.cli import main

from conftest import corpus_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_catalog_list(capsys):
    code, report, err = run(capsys, "catalog")
    assert code == 0
    names = [e["name"] for e in report["nets"]]
    assert "pcu" in names and "ths" in names
    assert len(names) == 9


def test_catalog_detail(capsys):
    code, report, _ = run(capsys, "catalog", "--net", "hcb")
    assert code == 0
    assert report["vertices"] == 2
    assert report["degrees"] == [3, 3]
    assert len(report["edges"]) == 3


def test_cseq_net(capsys):
    code, report, _ = run(capsys, "cseq", "--net", "sql", "--radius", "4")
    assert code == 0
    assert report["coordination_sequence"] == [1, 4, 8, 12, 16]


def test_cseq_document(capsys):
    code, report, _ = run(
        capsys, "cseq", "--input", corpus_path("hcb_p6.json"), "--radius", "4"
    )
    assert code == 0
    assert report["coordination_sequence"] == [1, 3, 6, 9, 12]


def test_geodesics_net(capsys):
    code, report, _ = run(
        capsys, "geodesics", "--net", "sql", "--target", "4,12"
    )
    assert code == 0
    assert report["length"] == 16
    assert report["count"] == 1820


def test_rings(capsys):
    code, report, _ = run(
        capsys, "rings", "--net", "gis", "--max", "8", "--all-vertices"
    )
    assert code == 0
    assert report["symbol"] == "4^3.8^4"
    assert report["ring_counts"] == {"4": 3, "8": 4}


def test_quotient(capsys):
    code, report, _ = run(
        capsys, "quotient", "--net", "ths", "--target", "5/2,5/2,1/2",
        "--radius", "10", "--max", "12",
    )
    assert code == 0
    assert report["topological_density"] == 424
    assert report["symbol"] == "10^10.12^3"
    assert report["rank"] == 2


def test_present(capsys):
    code, report, err = run(
        capsys, "present", "--input", corpus_path("i42d.json")
    )
    assert code == 0
    assert report["point_group_order"] == 8
    assert report["lattice_rank"] == 3
    assert report["verification"]["verdict"] == "pass"
    assert report["config"]["m"] == [2, 3]
    assert "verification: pass" in err


def test_present_permute(capsys):
    code, report, _ = run(
        capsys, "present", "--input", corpus_path("z2_diagonal_2.json"),
        "--permute",
    )
    assert code == 0
    assert report["config"]["permute"] is True
    assert report["verification"]["verdict"] == "pass"


def test_present_byte_stable(capsys):
    args = ("present", "--input", corpus_path("dia_p212121.json"))
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["cseq", "--net", "pcu", "--radius", "3",
                 "--report", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == stdout


def test_verify_pass(capsys):
    code, report, _ = run(
        capsys, "verify", "--input", corpus_path("i42d.json"),
        "--expect", "a^2; b^2; c^4; bc^-1ac; abcabac^-1b",
    )
    assert code == 0
    verdicts = {e["relator"]: e["verdict"] for e in report["consequence_checks"]}
    assert set(verdicts.values()) == {"pass"}
    assert len(verdicts) == 5


def test_verify_failure(capsys):
    code, report, _ = run(
        capsys, "verify", "--input", corpus_path("i42d.json"),
        "--expect", "ab",
    )
    assert code == 4
    assert report["consequence_checks"][0]["verdict"] == "fail"


def test_verify_inconclusive(capsys):
    code, report, _ = run(
        capsys, "verify", "--input", corpus_path("i42d.json"),
        "--expect", "c^4", "--max", "40",
    )
    assert code == 3
    verdicts = [e["verdict"] for e in report["consequence_checks"]]
    assert "inconclusive" in verdicts or (
        report["verification"]["verdict"] == "inconclusive"
    )


def test_bad_input_path(capsys):
    code = main(["present", "--input", "/nonexistent/doc.json"])
    capsys.readouterr()
    assert code == 2


def test_bad_vector(capsys):
    code = main(["geodesics", "--net", "sql", "--target", "4,oops"])
    capsys.readouterr()
    assert code == 2


def test_unknown_net(capsys):
    code = main(["cseq", "--net", "nosuchnet"])
    capsys.readouterr()
    assert code == 2


def test_bad_m_list(capsys):
    code = main(["present", "--input", corpus_path("i42d.json"),
                 "--m", "1,2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["present", "verify"])
def test_repeated_m_is_input_error(capsys, command):
    # one order check per m: a repeat would run it twice for one key
    err = _input_error(capsys, [command, "--input", corpus_path("hcb_p6.json"),
                                "--m", "3,2,3"])
    assert err == "error: repeated m in '3,2,3'\n"


@pytest.mark.parametrize("word", [
    "a^99999999999999", "((a^1000)^1000)^1000", "a^" + "9" * 5000])
def test_huge_expected_word_is_input_error(capsys, word):
    err = _input_error(capsys, ["verify", "--input",
                                corpus_path("hcb_p6.json"), "--expect", word])
    assert "word expands past 1000000 letters" in err


@pytest.mark.parametrize("argv", [
    ["cseq", "--net", "sql", "--base", "-1", "--radius", "3"],
    ["cseq", "--net", "sql", "--base", "5"],
    ["geodesics", "--net", "sql", "--target", "1,0", "--base", "5"],
    ["rings", "--net", "sql", "--base", "-1"],
    ["rings", "--net", "sql", "--base", "5"],
    ["quotient", "--net", "sql", "--target", "4,12", "--base", "4"],
    ["cseq", "--net", "sql", "--radius", "-1"],
    ["cseq", "--input", corpus_path("hcb_p6.json"), "--radius", "-1"],
    ["quotient", "--net", "sql", "--target", "4,12", "--radius", "-1"],
    ["present", "--input", corpus_path("hcb_p6.json"), "--max", "-5"],
    ["present", "--input", corpus_path("hcb_p6.json"), "--max", "0"],
    ["verify", "--input", corpus_path("hcb_p6.json"), "--max", "0"],
    ["geodesics", "--net", "sql", "--target", "1,0", "--max", "-1"],
    ["geodesics", "--net", "sql", "--target", "1,0", "--max", "0"],
    ["rings", "--net", "sql", "--max", "0"],
    ["rings", "--net", "sql", "--max", "2"],
    ["quotient", "--net", "sql", "--target", "4,12", "--max", "2"],
])
def test_bad_base_or_radius_is_input_error(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_geodesics_net_target_out_of_reach(capsys):
    # (6, -1) is 7 steps away; a cover code sized for 5 steps must not
    # mistake it for a node it reaches
    code, report, err = run(capsys, "geodesics", "--net", "sql",
                            "--target", "6,-1", "--max", "5")
    assert code == 4
    assert report is None
    assert err == "error: target 6,-1 not reached within 5 spheres\n"


def _no_walk(monkeypatch):
    # the two-ended walk reads a node's arcs only to grow a sphere
    class NoArcs:
        def __getitem__(self, v):
            raise AssertionError("walked")

    class NoWalk(CoverCode):
        def __init__(self, adj, radius):
            super().__init__(adj, radius)
            self.steps = NoArcs()

    monkeypatch.setattr("crystpres.bfs.CoverCode", NoWalk)


def test_geodesics_net_far_target_exits_without_a_walk(capsys, monkeypatch):
    # every step moves the cell by one unit shift, so (30, 30, 30) is at
    # least 90 steps away: within the max-norm box of 60 steps, not
    # within their 1-norm reach
    _no_walk(monkeypatch)
    code, report, err = run(capsys, "geodesics", "--net", "pcu",
                            "--target", "30,30,30", "--max", "60")
    assert code == 4
    assert report is None
    assert err == "error: target 30,30,30 not reached within 60 spheres\n"


def test_geodesics_group_far_target_exits_without_a_walk(capsys, monkeypatch):
    _no_walk(monkeypatch)
    code, report, err = run(capsys, "geodesics", "--input",
                            corpus_path("i42d.json"), "--target",
                            "100,100,100", "--max", "5")
    assert (code, report) == (4, None)
    assert err == "error: target not reached within length cap 5\n"


@pytest.mark.parametrize("argv", [
    ["rings", "--net", "sql", "--max", "6", "--widen"],
    ["quotient", "--net", "ths", "--target", "0,0,2", "--max", "12",
     "--widen"],
])
def test_widen_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --widen" in capsys.readouterr().err


def test_ring_basis_bound_exits_4(tmp_path, capsys, monkeypatch):
    # two vertices, rank 3: the radius-8 ball has about 16,000 edges and
    # far more short cycles than the ring basis budget holds
    (tmp_path / "dense.lqg").write_text(
        "rank 3\nvertices 2\nedge 0 0 -2 1 -1\nedge 0 0 -1 0 0\n"
        "edge 0 0 0 -1 0\nedge 0 0 0 0 -1\nedge 0 1 -2 -2 -1\n"
        "edge 0 1 2 2 -1\n")
    monkeypatch.setenv("CRYSTPRES_CATALOG", str(tmp_path))
    # the cycle count pins the root at which the budget trips
    for base, cycles, edges in (("0", 16821, 15976), ("1", 18594, 14482)):
        code, report, err = run(capsys, "rings", "--net", "dense",
                                "--base", base, "--max", "8")
        assert code == 4
        assert report is None
        assert err == ("error: ring basis exceeded 268435456 bits: "
                       f"{cycles} cycles over {edges} ball edges\n")


def test_ring_basis_bound_exits_before_the_candidate_walk(capsys,
                                                         monkeypatch):
    # the Horton set is built first, so a ball whose basis passes the
    # budget stops before the slower walk over candidate cycles
    def no_walk(*args):
        raise AssertionError("candidate walk ran")

    monkeypatch.setattr("crystpres.netgraph._base_cycles", no_walk)
    for cap, cycles, edges in ((12, 38718, 6936), (None, 24435, 11004),
                               (36, 2282, 186696)):
        argv = ["--max", str(cap)] if cap else []
        code, report, err = run(capsys, "rings", "--net", "pcu", *argv)
        assert code == 4
        assert report is None
        assert err == ("error: ring basis exceeded 268435456 bits: "
                       f"{cycles} cycles over {edges} ball edges\n")


def test_ring_ball_bound_exits_4(capsys):
    # the rank-1 line's ball grows by two edges a step, and without a
    # bound a radius of 10**9 would exhaust memory before any cycle test
    code, report, err = run(capsys, "rings", "--input",
                            corpus_path("z1_trivial.json"),
                            "--max", "1000000000")
    assert code == 4
    assert report is None
    assert err == ("error: ring ball exceeded 262144 nodes and edges at"
                   " radius 65536\n")


def test_ring_candidate_bound_exits_4(capsys, monkeypatch):
    # pcu's radius-12 ball holds 406,968 cycles through the base of at
    # most 12 edges; the candidate walk stops at the same bit budget
    monkeypatch.setattr("crystpres.netgraph._horton_cycles",
                        lambda adj, max_len: set())
    code, report, err = run(capsys, "rings", "--net", "pcu", "--max", "12")
    assert code == 4
    assert report is None
    assert err.startswith("error: ring candidates exceeded ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, radius", [
    (["cseq", "--net", "pcu"], 114),
    # the rank-2 tube pcu / <(4,0,0)>: four vertices, a quarter of pcu's
    # nodes per layer
    (["quotient", "--net", "pcu", "--target", "4,0,0"], 501),
], ids=["cseq", "quotient"])
def test_net_walk_bound_exits_4(capsys, argv, radius):
    # net walks stop at the element bound of their --input twins
    code, report, err = run(capsys, *argv, "--radius", "1000")
    assert (code, report) == (4, None)
    assert err == f"error: ball exceeded 2000000 elements at radius {radius}\n"


def test_quotient_base_checked_on_quotient(capsys):
    # sql has one vertex; its (4,12) tube has four
    code, report, _ = run(capsys, "quotient", "--net", "sql",
                          "--target", "4,12", "--base", "3", "--radius", "2")
    assert code == 0
    assert report["coordination_sequence"] == [1, 4, 8]


@pytest.mark.parametrize("argv", [
    ["cseq", "--input", corpus_path("hcb_p6.json"), "--base", "99"],
    ["geodesics", "--input", corpus_path("hcb_p6.json"), "--target", "1,0",
     "--base", "3"],
], ids=["cseq", "geodesics"])
def test_base_with_input_is_input_error(capsys, argv):
    # a group's walks start at the identity; --base names a net vertex
    assert _input_error(capsys, argv) == "error: --base applies to --net only\n"


@pytest.mark.parametrize("target, want", [
    ("2,0,0", "quotient by 2,0,0 creates parallel edges"),
    ("2,0,0;4,0,0", "vectors are linearly dependent"),
    ("1,0,0;0,1,0;0,0,1", "quotient would not be periodic"),
])
def test_quotient_failure_exits_4(capsys, target, want):
    code, report, err = run(capsys, "quotient", "--net", "pcu",
                            "--target", target)
    assert (code, report) == (4, None)
    assert err == f"error: {want}\n"


def test_catalog_env_override(tmp_path, capsys, monkeypatch):
    (tmp_path / "path2.lqg").write_text(
        "rank 1\nvertices 2\nedge 0 1 0\nedge 0 1 -1\n"
    )
    monkeypatch.setenv("CRYSTPRES_CATALOG", str(tmp_path))
    code, report, _ = run(capsys, "catalog")
    assert code == 0
    assert [e["name"] for e in report["nets"]] == ["path2"]
    code, report, _ = run(capsys, "cseq", "--net", "path2", "--radius", "3")
    assert report["coordination_sequence"] == [1, 2, 2, 2]


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["cseq", "--net", "bad"],
    ["geodesics", "--net", "bad", "--target", "1,1"],
    ["quotient", "--net", "bad", "--target", "1,0"],
], ids=["catalog", "cseq", "geodesics", "quotient"])
def test_catalog_singular_cell_is_input_error(tmp_path, capsys, monkeypatch,
                                               argv):
    (tmp_path / "bad.lqg").write_text(
        "rank 2\nvertices 1\ncell 1 1 2 2\nedge 0 0 1 0\nedge 0 0 0 1\n"
    )
    monkeypatch.setenv("CRYSTPRES_CATALOG", str(tmp_path))
    assert _input_error(capsys, argv) == "error: cell matrix is singular\n"


def _document(tmp_path, *xyz):
    names = "abcd"
    gens = ", ".join(
        f'{{"name": "{names[i]}", "xyz": "{s}"}}' for i, s in enumerate(xyz)
    )
    path = tmp_path / "doc.json"
    path.write_text(f'{{"dimension": 2, "generators": [{gens}]}}')
    return str(path)


def _input_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


# a linear part of rank 1: no inverse at all, integer or rational
_SINGULAR_XYZ = {"dimension": 2, "generators": [
    {"name": "a", "xyz": "x, 0"}, {"name": "b", "xyz": "1+x, y"}]}


@pytest.mark.parametrize("doc", [
    {"dimension": 2, "generators": [{"name": "a", "xyz": "x, q"}]},
    {"dimension": 2, "generators": [{"name": "a", "xyz": "x+1/0, y"}]},
    {"dimension": "two", "generators": [{"name": "a", "xyz": "1+x, y"}]},
    {"dimension": 1, "generators": [{"name": "a", "matrix": [["x", "1"]]}]},
    {"dimension": 1, "generators": [{"name": "a", "matrix": [["1/2", "1"]]}]},
    {"dimension": 2, "generators": [{"name": "a", "xyz": "x, y"}]},
    3,
    {"dimension": 2, "generators": {"a": "x"}},
    {"dimension": 2, "generators": ["1+x, y"]},
    {"dimension": 2, "generators": [{"name": ["a"], "xyz": "1+x, y"}]},
    {"dimension": True, "generators": [{"name": "a", "xyz": "1+x"}]},
    _SINGULAR_XYZ,
    {"dimension": 2, "generators": [
        {"name": "a", "matrix": [["1", "0", "0"], ["0", "0", "0"]]},
        {"name": "b", "xyz": "1+x, y"}]},
], ids=["unknown-variable", "zero-denominator", "dimension-text",
        "matrix-text", "matrix-fraction", "identity", "not-an-object",
        "generators-not-a-list", "entry-not-an-object", "name-not-a-string",
        "dimension-bool", "singular-xyz", "singular-matrix"])
def test_malformed_document_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    _input_error(capsys, ["present", "--input", str(path)])


@pytest.mark.parametrize("argv", [
    ["present"], ["cseq"], ["geodesics", "--target", "1,0"], ["rings"],
], ids=["present", "cseq", "geodesics", "rings"])
def test_singular_linear_part_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_SINGULAR_XYZ))
    err = _input_error(capsys, argv + ["--input", str(path)])
    assert err == ("error: linear part ((1, 0), (0, 0)) is not invertible"
                   " over the integers\n")


@pytest.mark.parametrize("xyz", [3, ["1+x", "y"]], ids=["int", "list"])
def test_non_string_xyz_is_input_error_naming_the_field(tmp_path, capsys, xyz):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        {"dimension": 2, "generators": [{"name": "a", "xyz": xyz}]}))
    err = _input_error(capsys, ["present", "--input", str(path)])
    assert err.endswith(f"generator 'a': 'xyz' {xyz!r} is not a string\n")


def test_catalog_unknown_net_is_input_error(capsys):
    err = _input_error(capsys, ["catalog", "--net", "nosuchnet"])
    assert "unknown net 'nosuchnet'" in err


def test_geodesics_infinite_point_group_is_input_error(tmp_path, capsys):
    err = _input_error(capsys, ["geodesics", "--target", "1,0", "--input",
                                _document(tmp_path, "y, x", "-x, 2*x+y")])
    assert "infinite point group" in err


def test_geodesics_target_outside_the_group_exits_4(capsys):
    code, report, err = run(capsys, "geodesics", "--input",
                            corpus_path("elv.json"), "--target", "1/3,0,0")
    assert (code, report) == (4, None)
    assert err == ("error: target 1/3+x, y, z is not an element of the "
                   "group\n")


@pytest.mark.parametrize("argv, want", [
    (["geodesics", "--input", corpus_path("i42d.json"), "--target", "1,2"],
     "--target 1,2 has 2 coordinates, expected 3"),
    (["geodesics", "--net", "pcu", "--target", "1,2"],
     "--target 1,2 has 2 coordinates, expected 3"),
    (["geodesics", "--net", "sql", "--target", "1,0,0"],
     "--target 1,0,0 has 3 coordinates, expected 2"),
    (["quotient", "--net", "ths", "--target", "1,2"],
     "--target 1,2 has 2 coordinates, expected 3"),
    (["quotient", "--net", "ths", "--target", "5/2,5/2,1/2;1,2"],
     "--target 1,2 has 2 coordinates, expected 3"),
])
def test_wrong_length_target_exits_2(capsys, argv, want):
    # a malformed vector is an input error, like `--target 4,oops`
    code, report, err = run(capsys, *argv)
    assert (code, report) == (2, None)
    assert err == f"error: {want}\n"


@pytest.mark.parametrize("command", [
    ["cseq"],
    ["geodesics", "--target", "1,0"],
    ["rings"],
    ["quotient", "--target", "4,12"],
])
@pytest.mark.parametrize("sources", [
    [],
    ["--net", "sql", "--input", corpus_path("i42d.json")],
])
def test_exactly_one_source_is_required(capsys, command, sources):
    err = _input_error(capsys, command + sources)
    assert "exactly one of --net or --input is required" in err


def test_repeated_main_leaves_no_argparse_garbage(capsys):
    argv = ["cseq", "--net", "sql", "--radius", "3"]
    assert main(argv) == 0
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            assert main(argv) == 0
        gc.collect()
        leaked = sum(type(o).__module__ == "argparse" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == 0


def test_finite_group_is_input_error(tmp_path, capsys):
    # LatticeNotFound: the group has no translations at all
    err = _input_error(capsys, ["present", "--input",
                                _document(tmp_path, "-x, -y")])
    assert "translation lattice" in err


def test_infinite_point_group_is_input_error(tmp_path, capsys):
    # InfiniteOrder: the shear is rejected when the walk kernel is built
    err = _input_error(capsys, ["present", "--input", _document(
        tmp_path, "x+y, y", "1+x, y", "x, 1+y")])
    assert "infinite order" in err


def test_point_group_closure_bound_is_input_error(tmp_path, capsys):
    # each linear part has order 2, but their product -x-y, -y has
    # infinite order: the closure passes Minkowski's bound M(2) = 24
    err = _input_error(capsys, ["present", "--input", _document(
        tmp_path, "-x, y", "x+y, -y", "1+x, y", "x, 1+y")])
    assert "infinite point group" in err


def test_cseq_infinite_point_group_is_input_error(tmp_path, capsys):
    # two involutions whose product has infinite order: the Cayley graph
    # is a line, but the group is not crystallographic
    err = _input_error(capsys, ["cseq", "--input", _document(
        tmp_path, "y, x", "-x, 2*x+y")])
    assert "infinite point group" in err


def test_cseq_finite_group(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension": 3, "generators": [
        {"name": "a", "xyz": "-y, x, z"}, {"name": "b", "xyz": "-x, -y, -z"}]}))
    code, report, _ = run(capsys, "cseq", "--input", str(path),
                          "--radius", "4")
    assert code == 0
    assert report["coordination_sequence"] == [1, 3, 3, 1, 0]


def test_non_unimodular_is_input_error(tmp_path, capsys):
    # NotUnimodular, raised while the walk kernel inverts the generators
    err = _input_error(capsys, ["cseq", "--input",
                                _document(tmp_path, "2x, y")])
    assert "not invertible over the integers" in err
    _input_error(capsys, ["present", "--input", _document(tmp_path, "2x, y")])


def test_model_not_closed_is_input_error(capsys, monkeypatch):
    # no corpus-style input is known to reach it; fake the pipeline failure
    import crystpres.cli as cli
    from crystpres.cosets import ModelNotClosed

    def broken(*args, **kwargs):
        raise ModelNotClosed("generators do not generate the model")

    monkeypatch.setattr(cli, "present", broken)
    err = _input_error(capsys, ["present", "--input",
                                corpus_path("i42d.json")])
    assert "do not generate the model" in err
