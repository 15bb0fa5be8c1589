"""Command-line front end.

One subcommand per analysis: `present`, `verify`, `cseq`, `geodesics`,
`rings`, `quotient`, `catalog`.  Every command accepts `--report PATH`
to write a JSON report; the same JSON always goes to stdout, and a
short human-readable summary goes to stderr.  Reports echo all
effective option values so runs are reproducible, and their bytes are
stable for fixed inputs.

Exit codes: 0 success, 2 input error (including malformed documents
and generating sets that do not describe a crystallographic group: no
translations, an infinite point group, a non-unimodular linear part or
an identity generator), 3 inconclusive verification, 4 verification
failure or analysis error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .affine import InfiniteOrder, NotUnimodular
from .bfs import (
    BadGenerators,
    BallBoundExceeded,
    LatticeNotFound,
    TargetUnreachable,
    coordination_sequence,
    geodesics,
)
from .cosets import DEFAULT_MAX_COSETS, ModelNotClosed
from .netgraph import (
    CATALOG_ENV,
    DEFAULT_RING_CAP,
    GraphError,
    RingSymbol,
    catalog_load,
    catalog_names,
    from_cayley,
    net_coordination_sequence,
    net_geodesics,
    quotient_by_sublattice,
    ring_size_counts,
    schlafli_symbol,
)
from .pipeline import (
    PipelineError,
    VerificationFailure,
    bounded_consequence_check,
    present,
)
from .symop import DocumentError, parse_generating_set
from .words import WordSyntaxError, parse_word

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_FAILURE = 4


class InputError(ValueError):
    pass


def _load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # str(OSError) has path
        reason = getattr(exc, "strerror", exc)
        raise InputError(f"cannot read {path}: {reason}") from exc
    try:
        return parse_generating_set(text)
    except DocumentError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _check_source(args):
    if (args.net is None) == (args.input is None):
        raise InputError("exactly one of --net or --input is required")


def _load_graph(args):
    _check_source(args)
    if args.input is not None:
        return from_cayley(_load_document(args.input))
    return _catalog_graph(args.net)


def _catalog_graph(name):
    # a catalog file that does not describe a net is malformed input
    try:
        return catalog_load(name)
    except GraphError as exc:
        raise InputError(str(exc)) from exc


def _check_base(g, base):
    if not 0 <= base < g.n:
        raise InputError(
            f"--base {base} out of range: vertices are 0..{g.n - 1}"
        )


def _check_radius(radius):
    if radius < 0:
        raise InputError(f"--radius must be >= 0, got {radius}")


def _check_max(value, default, least):
    """--max as given, or `default` when the flag is absent."""
    if value is None:
        return default
    if value < least:
        raise InputError(f"--max must be >= {least}, got {value}")
    return value


def _parse_vector(text):
    try:
        return tuple(Fraction(x) for x in text.replace(" ", "").split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from exc


def _check_targets(vectors, length):
    for v in vectors:
        if len(v) != length:
            raise InputError(f"--target {','.join(map(str, v))} has "
                             f"{len(v)} coordinates, expected {length}")


def _parse_m_list(text):
    try:
        ms = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad m list {text!r}") from exc
    if any(m < 2 for m in ms):
        raise InputError("m values must be >= 2")
    if len(set(ms)) < len(ms):
        raise InputError(f"repeated m in {text!r}")
    return ms


def _emit(report, args):
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.report:  # first, so a report that cannot be written prints none
        try:
            with open(args.report, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(
                f"cannot write {args.report}: {exc.strerror}") from exc
    sys.stdout.write(payload)


def _summary(*lines):
    for line in lines:
        print(line, file=sys.stderr)


def cmd_present(args):
    doc = _load_document(args.input)
    ms = _parse_m_list(args.m)
    max_cosets = _check_max(args.max, DEFAULT_MAX_COSETS, 1)
    orderings = [list(doc.generators)]
    if args.permute:
        from itertools import permutations
        orderings = [list(p) for p in permutations(doc.generators)]
    best = None
    for gens in orderings:
        report = present(gens, verify_orders=ms, max_cosets=max_cosets)
        total = sum(len(r) for r in report.presentation.relators)
        key = (total, report.to_dict()["relators"])
        if best is None or key < best[0]:
            best = (key, report)
    report = best[1]
    d = report.to_dict()
    d["config"] = dict(
        command="present", input=args.input, m=list(ms),
        max_cosets=max_cosets, permute=bool(args.permute),
    )
    _emit(d, args)
    _summary(
        f"group on {len(d['generators'])} generators, point group order "
        f"{d['point_group_order']}, lattice rank {d['lattice_rank']}",
        "relators: " + "; ".join(d["relators"]),
        f"verification: {d['verification']['verdict']}",
    )
    if d["verification"]["verdict"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_verify(args):
    doc = _load_document(args.input)
    ms = _parse_m_list(args.m)
    max_cosets = _check_max(args.max, DEFAULT_MAX_COSETS, 1)
    report = present(doc, verify_orders=ms, max_cosets=max_cosets)
    d = report.to_dict()
    expectations = []
    exit_code = EXIT_OK
    if args.expect:
        names = report.presentation.generator_names
        for text in args.expect.split(";"):
            text = text.strip()
            if not text:
                continue
            try:
                word = parse_word(text, names=names)
            except WordSyntaxError as exc:
                raise InputError(f"bad relator {text!r}: {exc}") from exc
            verdict = bounded_consequence_check(report, word)
            expectations.append({"relator": text, "verdict": verdict})
    verdicts = [e["verdict"] for e in expectations]
    verdicts.append(d["verification"]["verdict"])
    if "fail" in verdicts:
        exit_code = EXIT_FAILURE
    elif "inconclusive" in verdicts:
        exit_code = EXIT_INCONCLUSIVE
    out = {
        "config": dict(
            command="verify", input=args.input, m=list(ms),
            max_cosets=max_cosets, expect=args.expect,
        ),
        "verification": d["verification"],
        "relators": d["relators"],
        "consequence_checks": expectations,
    }
    _emit(out, args)
    _summary(
        f"verification: {d['verification']['verdict']}",
        *(f"consequence {e['relator']}: {e['verdict']}" for e in expectations),
    )
    return exit_code


def cmd_cseq(args):
    radius = args.radius
    _check_radius(radius)
    _check_source(args)
    if args.net is not None:
        g = _load_graph(args)
        _check_base(g, args.base)
        seq = net_coordination_sequence(g, args.base, radius)
        source = {"net": args.net, "base": args.base}
    else:
        if args.base:
            raise InputError("--base applies to --net only")
        doc = _load_document(args.input)
        seq = coordination_sequence(doc.generators, radius)
        source = {"input": args.input}
    out = {
        "config": dict(command="cseq", radius=radius, **source),
        "coordination_sequence": seq,
        "cumulative": sum(seq),
    }
    _emit(out, args)
    _summary("coordination sequence: " + " ".join(map(str, seq)))
    return EXIT_OK


def cmd_geodesics(args):
    target = _parse_vector(args.target)
    cap = _check_max(args.max, 200, 1)
    _check_source(args)
    if args.net is not None:
        g = _load_graph(args)
        _check_base(g, args.base)
        _check_targets([target], g.rank)
        length, count = net_geodesics(g, target, base=args.base, cap=cap)
    else:
        if args.base:
            raise InputError("--base applies to --net only")
        doc = _load_document(args.input)
        _check_targets([target], doc.dimension)
        gs = geodesics(doc.generators, target, cap)
        length, count = gs.length, gs.count
    out = {
        "config": dict(
            command="geodesics", net=args.net, input=args.input,
            target=[str(x) for x in target], cap=cap, base=args.base,
        ),
        "length": length,
        "count": count,
    }
    _emit(out, args)
    _summary(f"{count} geodesics of length {length} to {args.target}")
    return EXIT_OK


def cmd_rings(args):
    g = _load_graph(args)
    _check_base(g, args.base)
    max_size = _check_max(args.max, DEFAULT_RING_CAP, 3)
    if args.all_vertices:
        symbol = schlafli_symbol(g, max_size=max_size)
    else:
        symbol = RingSymbol(ring_size_counts(g, args.base, max_size))
    out = {
        "config": dict(
            command="rings", net=args.net, input=args.input,
            max_size=max_size, base=args.base,
            all_vertices=bool(args.all_vertices),
        ),
        "ring_counts": {str(k): v for k, v in symbol.counts},
        "symbol": str(symbol),
    }
    _emit(out, args)
    _summary(f"strong rings up to size {max_size}: {symbol}")
    return EXIT_OK


def cmd_quotient(args):
    _check_radius(args.radius)
    max_size = _check_max(args.max, None, 3)
    g = _load_graph(args)
    vectors = [_parse_vector(v) for v in args.target.split(";")]
    _check_targets(vectors, g.rank)
    q = quotient_by_sublattice(g, vectors)
    _check_base(q, args.base)
    seq = net_coordination_sequence(q, args.base, args.radius)
    out = {
        "config": dict(
            command="quotient", net=args.net, input=args.input,
            target=[[str(x) for x in v] for v in vectors],
            radius=args.radius, base=args.base, max_size=max_size,
        ),
        "rank": q.rank,
        "vertices": q.n,
        "coordination_sequence": seq,
        "topological_density": sum(seq),
    }
    lines = [
        f"quotient: rank {q.rank}, {q.n} vertices, "
        f"TD{args.radius} = {sum(seq)}",
    ]
    if max_size is not None:
        symbol = schlafli_symbol(q, max_size=max_size)
        out["symbol"] = str(symbol)
        out["ring_counts"] = {str(k): v for k, v in symbol.counts}
        lines.append(f"ring symbol (cap {max_size}): {symbol}")
    _emit(out, args)
    _summary(*lines)
    return EXIT_OK


def cmd_catalog(args):
    if args.net:
        g = _load_graph(args)
        out = {
            "config": dict(command="catalog", net=args.net),
            "name": args.net,
            "rank": g.rank,
            "vertices": g.n,
            "degrees": sorted(g.degree(v) for v in range(g.n)),
            "edges": [[u, v, list(s)] for u, v, s in g.edges],
            "cell": [[str(x) for x in row] for row in g.cell]
            if g.cell is not None else None,
        }
        _emit(out, args)
        _summary(g.to_text().rstrip())
    else:
        try:
            names = catalog_names()
        except GraphError as exc:  # no catalog directory is input error
            raise InputError(str(exc)) from exc
        entries = []
        for n in names:
            g = _catalog_graph(n)
            entries.append({
                "name": n, "rank": g.rank, "vertices": g.n,
                "degrees": sorted(set(g.degree(v) for v in range(g.n))),
            })
        out = {
            "config": dict(command="catalog", net=None),
            "nets": entries,
        }
        _emit(out, args)
        _summary(", ".join(names))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crystpres",
        description="Short presentations and periodic-graph analysis for "
                    "crystallographic groups.",
        epilog=f"Set {CATALOG_ENV} to override the bundled net catalog "
               "directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("--report", help="write the JSON report to this path")
        return p

    p = add("present", cmd_present,
            help="compute a short presentation from a generator document")
    p.add_argument("--input", required=True)
    p.add_argument("--m", default="2,3",
                   help="comma-separated quotient orders for verification")
    p.add_argument("--max", type=int, help="coset enumeration bound")
    p.add_argument("--permute", action="store_true",
                   help="retry all generator orderings, keep the shortest")

    p = add("verify", cmd_verify,
            help="verify pipeline output and optional expected relators")
    p.add_argument("--input", required=True)
    p.add_argument("--m", default="2,3")
    p.add_argument("--max", type=int, help="coset enumeration bound")
    p.add_argument("--expect",
                   help="semicolon-separated relators to consequence-check")

    p = add("cseq", cmd_cseq, help="coordination sequence")
    p.add_argument("--input")
    p.add_argument("--net", help="bundled net name")
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--base", type=int, default=0)

    p = add("geodesics", cmd_geodesics,
            help="count shortest words/paths to a lattice translation")
    p.add_argument("--input")
    p.add_argument("--net")
    p.add_argument("--target", required=True,
                   help="translation vector, e.g. 4,12")
    p.add_argument("--max", type=int, help="search length cap")
    p.add_argument("--base", type=int, default=0)

    p = add("rings", cmd_rings, help="strong rings through a vertex")
    p.add_argument("--input")
    p.add_argument("--net")
    p.add_argument("--max", type=int, help="ring size cap")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--all-vertices", action="store_true",
                   help="aggregate over all vertices (Schlafli symbol)")

    p = add("quotient", cmd_quotient,
            help="quotient a net by translation vectors")
    p.add_argument("--input")
    p.add_argument("--net")
    p.add_argument("--target", required=True,
                   help="semicolon-separated translation vectors in "
                        "conventional coordinates, e.g. '5/2,5/2,1/2'")
    p.add_argument("--radius", type=int, default=10,
                   help="coordination sequence radius for the quotient")
    p.add_argument("--max", type=int,
                   help="also compute the ring symbol up to this size")
    p.add_argument("--base", type=int, default=0)

    p = add("catalog", cmd_catalog, help="list or show bundled nets")
    p.add_argument("--net", help="show one net in full")
    p.set_defaults(input=None)  # _load_graph reads it; catalog has no --input

    return parser


@functools.cache
def _parser():
    # built once per process: a parser is a web of reference cycles that
    # only a full garbage collection would free
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, LatticeNotFound, ModelNotClosed, NotUnimodular,
            InfiniteOrder, BadGenerators) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (PipelineError, GraphError, BallBoundExceeded,
            TargetUnreachable, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
