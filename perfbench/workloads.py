"""Seeded inputs, job lists and hand-written references for the benchmark.

Every input the program sees is generated here from the repository's
corpus documents and bundled nets by a seeded relabelling:

* group documents are conjugated by a small unimodular integer matrix U
  and an origin shift s (denominators in {1, 2, 4, 8}); translation
  vectors given on the command line are mapped by U to match;
* nets get a vertex permutation and a unimodular change of primitive
  basis V; shifts and coordinates are mapped by V^-1 and the cell by V,
  so conventional-coordinate targets keep their meaning.

Seed 0 is the identity relabelling.  Every reference below is invariant
under relabelling, so the checks hold on every seed.  The references
never come from the code under test: they are closed forms, published
values copied from the paper's acceptance criteria, or (for the
coordination sequences of nets without a closed form) a breadth-first
search written here, run on the unrelabelled net.
"""

import json
import os
import random
import re
from fractions import Fraction
from math import comb, factorial

WORKLOADS = ("present", "walks", "rings")

CORPUS = (
    "dia_p1bar", "dia_p212121", "elv", "gis_i41a", "hcb_p6", "i42d",
    "pnna_acd", "pnna_bcd", "z1_trivial", "z2_diagonal_1", "z2_diagonal_2",
    "z2_diagonal_3", "z2_diagonal_4",
)
NETS = ("dia", "gis", "hcb", "nbo", "pcu", "qtz", "sql", "srs", "ths")

# relator lists of acceptance criteria 1, 2 and 10
EXPECTED_RELATORS = {
    "i42d": ["a^2", "b^2", "c^4", "bc^-1ac", "abcabac^-1b"],
    "z2_diagonal_1": ["abc^-1", "bac^-1"],
    "z2_diagonal_2": ["[a,b]", "(ab)^2c^-1"],
    "z2_diagonal_3": ["[a,b]", "(ab)^3c^-1"],
    "z2_diagonal_4": ["[a,b]", "(ab)^4c^-1"],
    "hcb_p6": ["a^2", "b^6", "(ab)^3"],
    "dia_p1bar": ["a^2", "b^2", "c^2", "d^2", "(bac)^2", "(dab)^2", "(cad)^2"],
    "dia_p212121": ["b^-1a^2ba^2", "a^-1b^2ab^2"],
    "gis_i41a": ["(ab)^2", "b^4", "(b^-1a^3)^2"],
}

# strong-ring symbols of the bundled nets at their search caps
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

# acceptance criterion 6: ths layers, (vector, TD10, ring symbol at cap
# 12); its other two vectors, (2,2,1) and (1/2,1/2,-3/2), run the same
# code on graphs of the same size and are left out for run length
THS_QUOTIENTS = (
    ("5/2,5/2,1/2", 424, {10: 10, 12: 3}),
)

NET_CSEQ_RADIUS = 40
CLOSED_FORM_CSEQ = {
    "pcu": lambda r: 4 * r * r + 2,
    "sql": lambda r: 4 * r,
    "hcb": lambda r: 3 * r,
    "dia": lambda r: (5 * r * r + (4 if r % 2 == 0 else 3)) // 2,
}

# (case, net, generators in conventional coordinates or the corpus
# document holding them, expected verdict); the pcu case with the three
# unit shifts (12 s alone) is left out for run length, and the gis case
# keeps the orbit walk's heavy job
REGULAR_ACTION_CASES = (
    ("gis_i41a", "gis", "gis_i41a", "pass"),
    ("pcu_inversion", "pcu", ("-x, -y, -z",), "fail"),
    ("pcu_quarter_shift", "pcu", ("1/4+x, y, z",), "fail"),
)

VARIABLES = "xyzw"


# ---------------------------------------------------------------------------
# exact linear algebra on small integer matrices (lists of lists)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def vec_mat(v, a):
    return [sum(v[k] * a[k][j] for k in range(len(v))) for j in range(len(a[0]))]


def unimodular(rng, d):
    """Small unimodular integer matrix and its inverse: a signed
    permutation followed by up to d elementary shears, each kept only if
    it leaves every entry of both matrices within [-2, 2].  The identity
    when `rng` is None."""
    if rng is None:
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        return ident, [row[:] for row in ident]
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    m = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    minv = [[m[j][i] for j in range(d)] for i in range(d)]
    for _ in range(d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1))
        # m <- (I + c e_ij) m ; minv <- minv (I - c e_ij)
        row_i = [x + c * y for x, y in zip(m[i], m[j])]
        col_j = [row[j] - c * row[i] for row in minv]
        if max(map(abs, row_i + col_j)) <= 2:
            m[i] = row_i
            for row, x in zip(minv, col_j):
                row[j] = x
    return m, minv


def fmt_frac(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# coordinate-triplet notation


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?([a-z])?")


def parse_xyz(text, d):
    """(integer matrix, rational translation) of 'x-y, 1/2+z, ...'."""
    linear, translation = [], []
    for comp in text.replace(" ", "").split(","):
        row, const = [0] * d, Fraction(0)
        pos = 0
        while pos < len(comp):
            m = _TERM.match(comp, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse {text!r}")
            sign, num, var = m.groups()
            coeff = Fraction(num) if num else Fraction(1)
            if sign == "-":
                coeff = -coeff
            if var:
                row[VARIABLES.index(var)] += int(coeff)
            else:
                const += coeff
            pos = m.end()
        linear.append(row)
        translation.append(const)
    if len(linear) != d:
        raise ValueError(f"{text!r} is not {d}-dimensional")
    return linear, translation


def format_xyz(linear, translation):
    comps = []
    for row, t in zip(linear, translation):
        out = ""
        for c, var in zip(row, VARIABLES):
            if c:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                out += ("-" if c < 0 else "+" if out else "") + mag + var
        if t:
            out += ("-" if t < 0 else "+") + fmt_frac(abs(t))
        comps.append(out or "0")
    return ", ".join(comps)


def conjugate(linear, translation, u, uinv, shift):
    """h g h^-1 for h(x) = U x + s."""
    a = mat_mul(mat_mul(u, linear), uinv)
    t = [p + q - r for p, q, r in
         zip(mat_vec(u, translation), shift, mat_vec(a, shift))]
    return a, t


def point_group_order(ops):
    """Order of the matrix group generated by the linear parts."""
    gens = [tuple(map(tuple, a)) for a, _ in ops]
    d = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(map(tuple, mat_mul(g, x)))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


def ndia_document(n):
    """The n-dimensional diamond group on n+1 point inversions (the
    generating set of acceptance criterion 8), names a, b, c, d, f."""
    points = [[0] * n]
    for i in range(n - 1):
        points.append([Fraction(1, 2) if j == i else 0 for j in range(n)])
    points.append([Fraction(1, 2)] * n)
    neg = [[-int(i == j) for j in range(n)] for i in range(n)]
    return {
        "dimension": n,
        "generators": [
            {"name": name, "xyz": format_xyz(neg, [2 * x for x in p])}
            for name, p in zip("abcdf", points)
        ],
    }


# ---------------------------------------------------------------------------
# nets in the .lqg text format


def parse_lqg(text):
    net = {"cell": None, "edges": [], "coords": {}}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        key, vals = parts[0], parts[1:]
        if key == "rank":
            net["rank"] = int(vals[0])
        elif key == "vertices":
            net["n"] = int(vals[0])
        elif key == "cell":
            r = net["rank"]
            f = [Fraction(x) for x in vals]
            net["cell"] = [f[i * r:(i + 1) * r] for i in range(r)]
        elif key == "edge":
            net["edges"].append((int(vals[0]), int(vals[1]),
                                 [int(x) for x in vals[2:]]))
        elif key == "coord":
            net["coords"][int(vals[0])] = [Fraction(x) for x in vals[1:]]
    return net


def relabel_net(net, perm, v, vinv):
    """Same net with vertex i renamed perm[i] and primitive basis rows
    V * cell; shifts and coordinates are row vectors mapped by V^-1."""
    r = net["rank"]
    cell = net["cell"] or [[int(i == j) for j in range(r)] for i in range(r)]
    lines = [f"rank {r}", f"vertices {net['n']}",
             "cell " + " ".join(fmt_frac(x) for row in mat_mul(v, cell)
                                for x in row)]
    for a, b, s in net["edges"]:
        lines.append("edge %d %d %s" % (
            perm[a], perm[b], " ".join(map(str, vec_mat(s, vinv)))))
    for i, c in sorted(net["coords"].items()):
        lines.append("coord %d %s" % (
            perm[i], " ".join(fmt_frac(x) for x in vec_mat(c, vinv))))
    return "\n".join(lines) + "\n"


def cover_sphere_sizes(net, base, radius):
    """Coordination sequence by breadth-first search of the periodic
    cover; an oracle independent of crystpres.netgraph."""
    adj = [[] for _ in range(net["n"])]
    for a, b, s in net["edges"]:
        adj[a].append((b, tuple(s)))
        adj[b].append((a, tuple(-x for x in s)))
    start = (base,) + (0,) * net["rank"]
    seen, sphere, sizes = {start}, [start], [1]
    for _ in range(radius):
        nxt = []
        for node in sphere:
            for w, s in adj[node[0]]:
                nb = (w,) + tuple(p + q for p, q in zip(node[1:], s))
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        sizes.append(len(nxt))
        sphere = nxt
    return sizes


# ---------------------------------------------------------------------------
# checks: each returns None when the job's output is right, else a reason


def _expect(cond, reason):
    return None if cond else reason


def check_present(order, rank):
    def check(rc, out, _):
        if rc != 0:
            return f"exit code {rc}"
        ver = out["verification"]
        want = {str(m): {"expected": order * m ** rank, "verdict": "pass"}
                for m in (2, 3)}
        return _expect(
            out["point_group_order"] == order and out["lattice_rank"] == rank
            and ver["order_checks"] == want and ver["verdict"] == "pass",
            f"expected |P|={order}, rank {rank}, all order checks pass; "
            f"got |P|={out['point_group_order']}, {ver}")
    return check


def check_verify(relators):
    def check(rc, out, _):
        got = [(c["relator"], c["verdict"]) for c in out["consequence_checks"]]
        return _expect(
            rc == 0 and out["verification"]["verdict"] == "pass"
            and got == [(r, "pass") for r in relators],
            f"exit code {rc}, consequence checks {got}")
    return check


def check_sequence(reference):
    """`reference()` gives the expected sequence; it is computed at the
    first check, after the timed loop."""
    memo = []

    def check(rc, out, _):
        if not memo:
            memo.append(reference())
        seq = out["coordination_sequence"]
        return _expect(rc == 0 and seq == memo[0],
                       f"exit code {rc}, sequence {seq}")
    return check


def check_crit7(rc, out, results):
    # pnna_acd and pnna_bcd are locally isomorphic: their coordination
    # sequences agree through radius 19 and differ at radius 20
    a = results.get("cseq:pnna_acd", {}).get("coordination_sequence")
    b = out["coordination_sequence"]
    return _expect(
        rc == 0 and a is not None and len(a) == len(b) == 21
        and a[:20] == b[:20] and a[20] != b[20],
        f"acd {a} vs bcd {b}")


def check_geodesics(length, count):
    def check(rc, out, _):
        return _expect(
            rc == 0 and (out["length"], out["count"]) == (length, count),
            f"expected ({length}, {count}), got "
            f"({out.get('length')}, {out.get('count')})")
    return check


def check_verdict(expected):
    def check(rc, out, _):
        return _expect(out == expected, f"expected {expected}, got {out}")
    return check


def check_rings(counts):
    want = {str(k): v for k, v in sorted(counts.items())}
    symbol = ".".join(f"{s}^{c}" if c > 1 else str(s)
                      for s, c in sorted(counts.items()))

    def check(rc, out, _):
        return _expect(
            rc == 0 and out["ring_counts"] == want and out["symbol"] == symbol,
            f"expected {symbol}, got {out.get('symbol')}")
    return check


def check_quotient(td10, counts):
    ring_check = check_rings(counts)

    def check(rc, out, results):
        if rc != 0 or out["rank"] != 2 or out["topological_density"] != td10:
            return (f"expected rank 2 and TD10 {td10}, got rank "
                    f"{out['rank']}, TD10 {out['topological_density']}")
        return ring_check(rc, out, results)
    return check


# ---------------------------------------------------------------------------
# the generated inputs and job lists


class Job:
    """One timed call: `argv` for crystpres.cli.main, or a callable."""

    def __init__(self, name, argv, check, call=None):
        self.name = name
        self.argv = argv
        self.check = check
        self.call = call


class Inputs:
    """Writes one workload's seeded inputs under `workdir` and builds its
    job list.  `load()` turns the inputs that bypass the command line
    into program objects."""

    def __init__(self, root, workload, seed, workdir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.root = root
        self.workload = workload
        self.rng = random.Random(seed) if seed else None
        self.workdir = workdir
        self.catalog = os.path.join(workdir, "catalog")
        self.docs = {}       # name -> (path, original ops, U)
        self.nets = {}       # name -> (original parsed net, perm)
        self.loaded = {}

    def _randrange(self, n):
        return self.rng.randrange(n) if self.rng else 0

    def write(self):
        os.makedirs(self.catalog, exist_ok=True)
        names = CORPUS if self.workload == "present" else (
            ("pnna_acd", "pnna_bcd", "z2_diagonal_1")
            if self.workload == "walks" else ("pnna_acd",))
        docs = {name: self._read_json(name) for name in names}
        if self.workload == "present":
            for n in (2, 3, 4):
                docs[f"ndia_{n}"] = ndia_document(n)
        if self.workload == "walks":
            # acceptance criterion 5 walks on the two unit translations only
            z2 = docs.pop("z2_diagonal_1")
            docs["z2_ab"] = dict(z2, generators=z2["generators"][:2])
        for name, doc in docs.items():
            self._write_document(name, doc)
        if self.workload == "present":
            return
        for name in NETS:
            path = os.path.join(self.root, "src", "crystpres", "catalog",
                                name + ".lqg")
            with open(path) as fh:
                self._write_net(name, parse_lqg(fh.read()))

    def _read_json(self, name):
        with open(os.path.join(self.root, "corpus", name + ".json")) as fh:
            return json.load(fh)

    def _write_document(self, name, doc):
        d = doc["dimension"]
        u, uinv = unimodular(self.rng, d)
        shift = [0] * d
        if self.rng:
            shift = [Fraction(self.rng.randrange(-8, 9),
                              self.rng.choice((1, 2, 4, 8))) for _ in range(d)]
        ops, gens = [], []
        for g in doc["generators"]:
            op = parse_xyz(g["xyz"], d)
            ops.append(op)
            gens.append({"name": g["name"],
                         "xyz": format_xyz(*conjugate(*op, u, uinv, shift))})
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump({"dimension": d, "generators": gens}, fh)
        self.docs[name] = (path, ops, u)

    def _write_net(self, name, net):
        perm = list(range(net["n"]))
        if self.rng:
            self.rng.shuffle(perm)
        v, vinv = unimodular(self.rng, net["rank"])
        with open(os.path.join(self.catalog, name + ".lqg"), "w") as fh:
            fh.write(relabel_net(net, perm, v, vinv))
        self.nets[name] = (net, perm)

    def load(self):
        """Program objects for the jobs that call the library directly."""
        if self.workload != "walks":
            return
        from crystpres.netgraph import catalog_load
        from crystpres.symop import parse_generating_set, parse_symop

        for case, net, gens, _ in REGULAR_ACTION_CASES:
            if isinstance(gens, str):
                doc = parse_generating_set(self._read_json(gens))
                ops = [op for _, op in doc.generators]
            else:
                ops = [parse_symop(t, 3) for t in gens]
            self.loaded[case] = (catalog_load(net), ops)

    def _vector(self, doc, vec):
        u = self.docs[doc][2]
        return ",".join(fmt_frac(x) for x in mat_vec(u, vec))

    def jobs(self):
        return getattr(self, "_jobs_" + self.workload)()

    def _jobs_present(self):
        jobs = []
        for name in CORPUS + ("ndia_2", "ndia_3", "ndia_4"):
            path, ops, _ = self.docs[name]
            jobs.append(Job(f"present:{name}", ["present", "--input", path],
                            check_present(point_group_order(ops), len(ops[0][0]))))
        for name, rels in EXPECTED_RELATORS.items():
            jobs.append(Job(f"verify:{name}",
                            ["verify", "--input", self.docs[name][0],
                             "--expect", ";".join(rels)],
                            check_verify(rels)))
        return jobs

    def _jobs_walks(self):
        from crystpres.netgraph import regular_action_check

        jobs = [
            Job("cseq:pnna_acd", ["cseq", "--input", self.docs["pnna_acd"][0],
                                  "--radius", "20"],
                lambda rc, out, _: _expect(
                    rc == 0 and len(out["coordination_sequence"]) == 21,
                    f"exit code {rc}")),
            Job("cseq:pnna_bcd", ["cseq", "--input", self.docs["pnna_bcd"][0],
                                  "--radius", "20"], check_crit7),
        ]
        for name in NETS:
            net, perm = self.nets[name]
            base = self._randrange(net["n"])
            orig = perm.index(base)
            if name in CLOSED_FORM_CSEQ:
                f = CLOSED_FORM_CSEQ[name]
                ref = lambda f=f: [1] + [f(r) for r in
                                         range(1, NET_CSEQ_RADIUS + 1)]
            else:
                ref = lambda net=net, orig=orig: cover_sphere_sizes(
                    net, orig, NET_CSEQ_RADIUS)
            jobs.append(Job(f"cseq:net:{name}",
                            ["cseq", "--net", name, "--radius",
                             str(NET_CSEQ_RADIUS), "--base", str(base)],
                            check_sequence(ref)))
        for target, length in (((4, 12), 16), ((5, 12), 17)):
            jobs.append(Job(
                f"geodesics:z2_ab:{target[0]},{target[1]}",
                # `--target=` keeps a leading minus sign from reading as a flag
                ["geodesics", "--input", self.docs["z2_ab"][0],
                 "--target=" + self._vector("z2_ab", target)],
                check_geodesics(length, comb(length, target[0]))))
        jobs.append(Job("geodesics:sql:4,12",
                        ["geodesics", "--net", "sql", "--target", "4,12"],
                        check_geodesics(16, comb(16, 4))))
        jobs.append(Job("geodesics:pcu:6,6,6",
                        ["geodesics", "--net", "pcu", "--target", "6,6,6"],
                        check_geodesics(18, factorial(18) // factorial(6) ** 3)))
        for case, _, _, verdict in REGULAR_ACTION_CASES:
            jobs.append(Job(f"regular_action:{case}", None,
                            check_verdict(verdict),
                            call=lambda case=case: regular_action_check(
                                *self.loaded[case])))
        return jobs

    def _jobs_rings(self):
        jobs = []
        for name, (cap, counts) in RING_GOLDENS.items():
            jobs.append(Job(f"rings:{name}",
                            ["rings", "--net", name, "--all-vertices",
                             "--max", str(cap)],
                            check_rings(counts)))
        base = str(self.nets["ths"][1][0])
        for vector, td10, counts in THS_QUOTIENTS:
            jobs.append(Job(f"quotient:ths:{vector}",
                            ["quotient", "--net", "ths", "--target", vector,
                             "--radius", "10", "--max", "12", "--base", base],
                            check_quotient(td10, counts)))
        path, ops, _ = self.docs["pnna_acd"]
        base = self._randrange(point_group_order(ops))
        jobs.append(Job("rings:pnna_acd",
                        ["rings", "--input", path, "--max", "14",
                         "--base", str(base)],
                        check_rings({10: 5, 14: 14})))
        return jobs
