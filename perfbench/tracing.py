"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each crystpres layer
with wrappers that record spans (name, start, end, parent, job id) in
memory, and every crystpres module attribute that refers to one of them
is rebound, so calls made through names imported elsewhere (pipeline
imports tietze_simplify by name, for instance) are seen too.  The hot
methods (AffineIsometry.__mul__, LabeledQuotientGraph.cover_neighbors,
words.evaluate, CosetTable.run_hlt) only bump counters: a span per call
would cost more than the call.  `uninstall()` restores the originals.

A layer's `.s` metric is self time: its spans' durations minus the time
their child spans cover.
"""

import functools
import sys
from time import perf_counter

INTMAT = ("intmat.hnf", "intmat.hnf_with_transform", "intmat.left_kernel",
          "intmat.solve_in_rowspan", "intmat.smith_left_transform",
          "affine.hnf_lattice")


def _total(field):
    def post(tracer, name, result):
        tracer.counts[name] += sum(result) if field is None else getattr(
            result, field)
    return post


def _inconclusive(tracer, name, result):
    tracer.counts[name] += result == "inconclusive"


# (module, function, metric name of a value derived from the result)
SPANS = (
    ("cli", "main", None, None),
    ("symop", "parse_generating_set", None, None),
    ("netgraph", "catalog_load", None, None),
    ("affine", "finite_closure", None, None),
    ("intmat", "hnf", None, None),
    ("intmat", "hnf_with_transform", None, None),
    ("intmat", "left_kernel", None, None),
    ("intmat", "solve_in_rowspan", None, None),
    ("intmat", "smith_left_transform", None, None),
    ("affine", "hnf_lattice", None, None),
    ("bfs", "shortest_translation_words",
     "bfs.shortest_translation_words.radius_used", _total("radius_used")),
    ("bfs", "coordination_sequence",
     "bfs.coordination_sequence.elements", _total(None)),
    ("bfs", "geodesics", None, None),
    ("words", "tietze_simplify", "words.tietze_simplify.steps", _total("steps")),
    ("cosets", "coset_enumerate", None, None),
    ("cosets", "order_check", "cosets.order_check.inconclusive", _inconclusive),
    ("cosets", "is_consequence", None, None),
    ("cosets", "short_presentation_finite", None, None),
    ("pipeline", "present", None, None),
    ("pipeline", "build_extension_data", None, None),
    ("pipeline", "bounded_consequence_check", None, None),
    ("netgraph", "from_cayley", None, None),
    ("netgraph", "net_coordination_sequence",
     "netgraph.net_coordination_sequence.nodes", _total(None)),
    ("netgraph", "net_geodesics", None, None),
    ("netgraph", "strong_rings", None, None),
    ("netgraph", "quotient_by_sublattice", None, None),
    ("netgraph", "regular_action_check", None, None),
)

# per-layer metric -> the spans whose self time it sums
SELF_TIMES = {
    "cli.main.self_s": ("cli.main",),
    "symop.parse_generating_set.s": ("symop.parse_generating_set",),
    "netgraph.catalog_load.s": ("netgraph.catalog_load",),
    "affine.finite_closure.s": ("affine.finite_closure",),
    "intmat.s": INTMAT,
    "bfs.shortest_translation_words.s": ("bfs.shortest_translation_words",),
    "bfs.coordination_sequence.s": ("bfs.coordination_sequence",),
    "bfs.geodesics.s": ("bfs.geodesics",),
    "netgraph.net_geodesics.s": ("netgraph.net_geodesics",),
    "words.tietze_simplify.s": ("words.tietze_simplify",),
    "cosets.coset_enumerate.s": ("cosets.coset_enumerate",),
    "cosets.is_consequence.s": ("cosets.is_consequence",),
    "cosets.short_presentation_finite.s": ("cosets.short_presentation_finite",),
    "pipeline.present.self_s": ("pipeline.present",),
    "pipeline.build_extension_data.self_s": ("pipeline.build_extension_data",),
    "pipeline.bounded_consequence_check.s": (
        "pipeline.bounded_consequence_check",),
    "netgraph.from_cayley.s": ("netgraph.from_cayley",),
    "netgraph.net_coordination_sequence.s": (
        "netgraph.net_coordination_sequence",),
    "netgraph.strong_rings.s": ("netgraph.strong_rings",),
    "netgraph.quotient_by_sublattice.s": ("netgraph.quotient_by_sublattice",),
    "netgraph.regular_action_check.s": ("netgraph.regular_action_check",),
}

# per-layer metric -> the spans it counts
CALLS = {
    "intmat.calls": INTMAT,
    "cosets.coset_enumerate.calls": ("cosets.coset_enumerate",),
    "netgraph.strong_rings.calls": ("netgraph.strong_rings",),
}

COUNTERS = (
    "affine.mul.calls",
    "words.evaluate.calls",
    "netgraph.cover_neighbors.calls",
    "cosets.coset_enumerate.peak_cosets",
) + tuple(metric for _, _, metric, _ in SPANS if metric)

UNITS = dict(
    {m: "s" for m in SELF_TIMES},
    **{m: "count" for m in tuple(CALLS) + COUNTERS},
    **{"trace.overhead_s": "s"},
)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, job]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, metric, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, metric, result)
            return result
        return wrapper

    def _counter(self, metric, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _peak(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_hlt(table):
            try:
                return fn(table)
            finally:
                key = "cosets.coset_enumerate.peak_cosets"
                tracer.counts[key] = max(tracer.counts[key], len(table.table))
        return run_hlt

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import crystpres.affine
        import crystpres.cli  # noqa: F401  (loads every layer)
        import crystpres.cosets
        import crystpres.netgraph

        modules = [m for n, m in sys.modules.items()
                   if n == "crystpres" or n.startswith("crystpres.")]
        replace = {}
        for mod, func, metric, post in SPANS:
            fn = getattr(sys.modules["crystpres." + mod], func)
            replace[id(fn)] = self._span(f"{mod}.{func}", fn, metric, post)
        evaluate = sys.modules["crystpres.words"].evaluate
        replace[id(evaluate)] = self._counter("words.evaluate.calls", evaluate)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in replace:
                    self._set(m, attr, replace[id(value)])
        iso = crystpres.affine.AffineIsometry
        self._set(iso, "__mul__", self._counter("affine.mul.calls",
                                                iso.__mul__))
        graph = crystpres.netgraph.LabeledQuotientGraph
        self._set(graph, "cover_neighbors", self._counter(
            "netgraph.cover_neighbors.calls", graph.cover_neighbors))
        table = crystpres.cosets.CosetTable
        self._set(table, "run_hlt", self._peak(table.run_hlt))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def layer_metrics(counts, spans, scale):
    """Per-layer metrics of one traced pass: self times (each span's
    multiplied by scale[its job id]), span counts and the counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time, calls = {}, {}
    for (name, start, end, _, job), c in zip(spans, child):
        self_time[name] = (self_time.get(name, 0.0)
                           + (end - start - c) * scale[job])
        calls[name] = calls.get(name, 0) + 1
    out = {m: sum(self_time.get(n, 0.0) for n in names)
           for m, names in SELF_TIMES.items()}
    out.update({m: sum(calls.get(n, 0) for n in names)
                for m, names in CALLS.items()})
    out.update(counts)
    return out
