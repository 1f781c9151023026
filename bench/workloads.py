"""Seeded inputs and jobs for each workload.

``WORKLOADS[name](pkg, seed, work, small)`` writes the workload's input
files under ``work`` and returns its round: the list of jobs one pass
runs, in order.  A job's ``run`` is the timed call into the package;
``check`` runs afterwards, untimed, against the oracles and may return
counts for the traced run.

Every seeded choice below keeps a job's cost close to that of its
template (rotations, the flip i -> n-i and reversal of braid words, rigid
motions and sampling phase of curves), so runs on different seeds do the
same amount of work while their inputs differ.
"""

from __future__ import annotations

import json
import math
import os
import random

import oracles


class JobFailed(RuntimeError):
    """The program exited non-zero or raised."""


class Job:
    __slots__ = ("label", "run", "check", "outputs")

    def __init__(self, label, run, check, outputs=()):
        self.label = label
        self.run = run
        self.check = check
        self.outputs = tuple(outputs)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- diagrams from braid words -----------------------------------------------


def _braid(word, strands):
    """Crossings and connections of a braid; generator i is +-(i+1).

    Returns (crossings, connections, bottom, front): the port where each
    strand enters at the bottom and leaves at the top (None when the
    strand meets no crossing).
    """
    crossings, conns = [], []
    front = [None] * strands
    bottom = [None] * strands
    for cid, g in enumerate(word):
        i = abs(g) - 1
        ports = [["x", cid, k] for k in range(4)]
        crossings.append({"id": cid, "ports": ports,
                          "sign": 1 if g > 0 else -1})
        # under-strand enters at port 0 and leaves at port 2
        ins = (ports[1], ports[0]) if g > 0 else (ports[0], ports[3])
        outs = (ports[2], ports[3]) if g > 0 else (ports[1], ports[2])
        for slot, pin in zip((i, i + 1), ins):
            if front[slot] is None:
                bottom[slot] = pin
            else:
                conns.append([front[slot], pin])
        front[i], front[i + 1] = outs
    return crossings, conns, bottom, front


def braid_closure(word, strands, free=0):
    crossings, conns, bottom, front = _braid(word, strands)
    for slot in range(strands):
        if front[slot] is None:
            free += 1
        else:
            conns.append([bottom[slot], front[slot]])
    return {"boundary": [], "crossings": crossings, "connections": conns,
            "free_circles": free}


def braid_tangle(word, strands, extra_arcs=0, free=0):
    """The open braid, boundary counterclockwise (bottom, then top), plus
    ``extra_arcs`` portless arcs whose endpoints follow on the boundary."""
    crossings, conns, bottom, front = _braid(word, strands)
    boundary = []
    for s in range(strands):
        boundary.append(["b", s])
        if bottom[s] is not None:
            conns.append([["b", s], bottom[s]])
    for s in reversed(range(strands)):
        boundary.append(["t", s])
        conns.append([["t", s], front[s] if front[s] is not None
                      else ["b", s]])
    for k in range(extra_arcs):
        boundary += [["e", 2 * k], ["e", 2 * k + 1]]
        conns.append([["e", 2 * k], ["e", 2 * k + 1]])
    return {"boundary": boundary, "crossings": crossings,
            "connections": conns, "free_circles": free}


def variant(word, strands, rng, closed=True, relation=False):
    """A seeded word for the same link: a rotation (conjugation), maybe
    the flip i -> n-i (conjugation by the half twist) and maybe reversal
    (orientation reversal, which Khovanov homology ignores).  An open
    braid gets no rotation: the flip and the reversal alone redraw the
    same tangle turned in space, whose cube of resolutions is isomorphic.
    With ``relation``, one braid relation s_i s_j s_i = s_j s_i s_j is
    first applied at the word's first site, so every seed gives a diagram
    of the same shape."""
    w = list(word)
    if relation:
        n = len(w)
        k = next(k for k in range(n)
                 if w[k] == w[(k + 2) % n] and w[k] > 0
                 and w[(k + 1) % n] > 0 and abs(w[k] - w[(k + 1) % n]) == 1)
        w = w[k:] + w[:k]   # conjugate the site to the front
        w = [w[1], w[0], w[1]] + w[3:]
    r = rng.randrange(len(w)) if closed else 0
    w = w[r:] + w[:r]
    if rng.random() < 0.5:
        w = [(strands - abs(g)) * (1 if g > 0 else -1) for g in w]
    if rng.random() < 0.5:
        w = w[::-1]
    return w


# -- compute jobs ------------------------------------------------------------


def _compute_job(pkg, work, label, diagram, field, gens, checks):
    path = os.path.join(work, f"{label}.json")
    out = os.path.join(work, f"{label}.out.json")
    _write_json(path, diagram)
    argv = ["compute", path, "--field", field, "--out", out]
    if gens:
        argv.append("--generators")

    def run():
        code = pkg.cli.main(argv)
        if code != 0:
            raise JobFailed(f"compute {label} exited {code}")

    def check(_, done):
        report = _read_json(out)
        done[label] = report
        oracles.check_euler(report, diagram)
        if gens:
            oracles.check_generator_counts(report)
        for fn in checks:
            fn(report, done)

    return Job(label, run, check, [out])


def _f2_divisible(report, done):
    oracles.check_f2_divisible(report)


def _torus(p, q):
    return lambda report, done: oracles.check_torus_jones(report, p, q)


# Checks against another job of the round; skipped when that job failed,
# which the run already counts.
def _at_least(q_label):
    def check(report, done):
        if q_label in done:
            oracles.check_field_ranks(report, done[q_label])
    return check


def _same_as(other):
    def check(report, done):
        if other in done:
            oracles.check_equal_ranks(report, done[other])
    return check


# The word of the 12-crossing budget test, and an 11-crossing 3-braid with
# braid-relation sites.  Together they split time between assemble and the
# F2 reduce at 20k-100k generators.
CRITERION_WORD = [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]
ELEVEN_WORD = [1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 2]


def kh_large_f2(pkg, seed, work, small):
    rng = random.Random(seed)
    big = CRITERION_WORD[:8] if small else CRITERION_WORD
    base = ELEVEN_WORD[:7] if small else ELEVEN_WORD
    a = variant(base, 3, rng)
    b = variant(base, 3, rng, relation=True)
    div = [_f2_divisible]
    return [
        _compute_job(pkg, work, "criterion", braid_closure(big, 3),
                     "f2", False, div),
        _compute_job(pkg, work, "eleven-a", braid_closure(a, 3),
                     "f2", False, div),
        _compute_job(pkg, work, "eleven-b", braid_closure(b, 3),
                     "f2", False, div + [_same_as("eleven-a")]),
    ]


# (name, word, strands, torus (p, q) or None, fields with --generators
# marked by a trailing "+").  Exact elimination over Q dominates; F3 and
# F2 runs of the same diagram give the rank comparison.
FIELD_CLOSED = [
    ("t25", [1] * 5, 2, (2, 5), ["q+", "fp:3", "f2+"]),
    ("t34", [1, 2] * 4, 3, (3, 4), ["q", "fp:3+", "f2"]),
    ("four", [1, 1, -2, 1, 3, -2, 3], 4, None, ["q+", "f2"]),
    ("fig8", [1, -2] * 2, 3, None, ["q", "fp:3+", "f2+"]),
]
# (name, word, strands, extra portless arcs, free circles, fields)
FIELD_TANGLES = [
    ("tangle3", [1, 2, -1, 2, 1, -2, 1, 2, -1], 3, 2, 1, ["q+", "fp:3"]),
    ("tangle4", [1, -2, 3, 1, -2, 3, 2, -1, 2], 4, 1, 0, ["q", "f2+"]),
]


def kh_fields(pkg, seed, work, small):
    rng = random.Random(seed)
    jobs = []
    for name, word, strands, torus, fields in FIELD_CLOSED:
        if small:
            word = word[:4]
            torus = None
        d = braid_closure(variant(word, strands, rng), strands)
        for field in fields:
            gens = field.endswith("+")
            field = field.rstrip("+")
            checks = []
            if torus:
                checks.append(_torus(*torus))
            if field == "f2":
                checks.append(_f2_divisible)
            if field != "q":
                checks.append(_at_least(f"{name}-q"))
            jobs.append(_compute_job(pkg, work, f"{name}-{field}", d,
                                     field, gens, checks))
    for name, word, strands, arcs, free, fields in FIELD_TANGLES:
        if small:
            word = word[:4]
        d = braid_tangle(variant(word, strands, rng, closed=False),
                         strands, arcs, free)
        for field in fields:
            gens = field.endswith("+")
            field = field.rstrip("+")
            checks = [] if field == "q" else [_at_least(f"{name}-q")]
            jobs.append(_compute_job(pkg, work, f"{name}-{field}", d,
                                     field, gens, checks))
    return jobs


# -- filtrations through the library -----------------------------------------


def _filtration_job(pkg, work, label, diagrams, field, make_steps, laws):
    """Load ``diagrams`` from their files, let ``make_steps`` turn the
    loaded diagrams into (diagrams, steps), and compute the barcode
    report.  ``laws(p, r, bars)`` adds workload-specific checks."""
    paths = []
    for k, d in enumerate(diagrams):
        paths.append(os.path.join(work, f"{label}.{k}.json"))
        _write_json(paths[-1], d)

    def run():
        loaded = [pkg.diagram.TangleDiagram.load(path) for path in paths]
        ds, steps = make_steps(pkg, loaded)
        filt = pkg.persistence.Filtration(
            grades=list(range(len(ds))), diagrams=ds, steps=steps,
            field=pkg.algebra.field_from_name(field))
        return filt, filt.barcode_report()

    def check(result, done):
        filt, rows = result
        for run_ in filt.runs():
            for k, h in enumerate(run_.homologies):
                expect = oracles.state_sum(run_.complexes[k].diagram.to_json())
                got = oracles.euler_of_ranks(h.ranks)
                if got != expect:
                    raise oracles.CheckError(
                        f"{label}: Euler characteristic {got} != state sum "
                        f"{expect} at index {k}")
        for p, r, dims, bars in rank_tables(filt, rows):
            oracles.check_rank_table(r, dims)
            oracles.check_bars(bars, dims)
            laws(p, r, bars)
        return {"persist.bars": len(rows)}

    return Job(label, run, check)


def rank_tables(filt, rows):
    """(p, rank table, dims, bars) per run and degree of a filtration,
    with the bars read back from the report rows and re-indexed from 0
    within their run."""
    for ri, run_ in enumerate(filt.runs()):
        offset = run_.grades[0]
        for p in run_.degrees():
            dims = [sum(r for (pp, _), r in h.ranks.items() if pp == p)
                    for h in run_.homologies]
            bars = [(row["birth"] - offset,
                     None if row["death"] is None else row["death"] - offset,
                     row["multiplicity"])
                    for row in rows if row["run"] == ri and row["p"] == p]
            yield p, run_.rank_table(p).r, dims, bars


def _identity_steps(pkg, ds):
    return ds, [{"kind": "identity"}] * (len(ds) - 1)


def _identity_laws(p, r, bars):
    oracles.check_infinite_bars(bars)


def _no_laws(p, r, bars):
    pass


def _cap_cup_steps(pkg, ds):
    (d,) = ds
    j = d.to_json()
    j["free_circles"] += 1
    up = pkg.diagram.TangleDiagram.from_json(j)
    return [d, up, d], [{"kind": "cap"}, {"kind": "cup"}]


def _cap_cup_laws(p, r, bars):
    oracles.check_cap_cup_zero(r, p)


def _closure_steps(ops):
    """Steps that close extra arcs one operator at a time; each operator
    is the identity on the core boundary and closes or routes out the
    trailing arc pairs as ``ops`` says."""
    def make(pkg, ds):
        (d,) = ds
        out, steps = [d], []
        for tag, (closes, circles) in enumerate(ops):
            b = out[-1].boundary
            inner = tuple(("i", k) for k in range(len(b)))
            arcs, outer = [], []
            k = 0
            while k < len(b):
                if k in closes:
                    arcs.append((inner[k], inner[k + 1]))
                    k += 2
                    continue
                outer.append(("o", tag, k))
                arcs.append((inner[k], outer[-1]))
                k += 1
            op = pkg.diagram.PlanarTangleSpec(
                inner_boundary=inner, outer_boundary=tuple(outer),
                arcs=arcs, circles=circles)
            nxt, spec = pkg.diagram.apply_planar(op, out[-1])
            out.append(nxt)
            steps.append({"kind": "closure", "spec": spec})
        return out, steps
    return make


def _saddle_site(link):
    """The first two connections whose re-pairing merges or splits
    circles in every state, so that the saddle is a cobordism of the five
    local kinds."""
    conns = link["connections"]
    base = [r for _, r in oracles.circles_per_state(link)]
    for i in range(len(conns)):
        for j in range(i + 1, len(conns)):
            (a, b), (c, d) = conns[i], conns[j]
            other = [x for k, x in enumerate(conns) if k not in (i, j)]
            moved = dict(link, connections=other + [[a, c], [b, d]])
            if all(abs(x - r) == 1 for (_, x), r in
                   zip(oracles.circles_per_state(moved), base)):
                return conns[i], conns[j]
    raise ValueError("no saddle site")


def _saddle_steps(pair):
    site = oracles.hashable(list(pair))

    def make(pkg, ds):
        (d,) = ds
        target = pkg.persistence.saddle_target_diagram(d, site)
        return [d, target], [{"kind": "saddle",
                              "site": {"from": [site[0], site[1]]}}]
    return make


# (label, word, strands, field); identity runs of three equal diagrams.
PERSIST_IDENTITY = [
    ("ident-f2", [1, 2, -1, 2, 1, 2, -1, 2], 3, "f2"),
    ("ident-f3", [1, 1, -2, 1, 3, -2, 3, 2], 4, "fp:3"),
    ("ident-q", [1, -2, 1, -2, 1, -2, 1], 3, "q"),
]


def persist_filtrations(pkg, seed, work, small):
    rng = random.Random(seed)
    cut = (lambda w: w[:4]) if small else (lambda w: w)
    jobs = []
    for label, word, strands, field in PERSIST_IDENTITY:
        d = braid_closure(variant(cut(word), strands, rng), strands)
        jobs.append(_filtration_job(pkg, work, label, [d] * 3, field,
                                    _identity_steps, _identity_laws))
    # closure run: a 3-braid tangle with two extra arcs and a circle; the
    # seed picks which arc the first operator closes off, the second
    # closes the other and adds a circle
    tangle = braid_tangle(variant(cut([1, 2, -1, 2, 1, -2, 1]), 3, rng,
                                  closed=False), 3, extra_arcs=2, free=1)
    ops = [({rng.choice([6, 8])}, 0), ({6}, 1)]
    jobs.append(_filtration_job(pkg, work, "closure-q", [tangle], "q",
                                _closure_steps(ops), _no_laws))
    link = braid_closure(variant(cut([1, 1, -2, 1, -2, -2, 1, 2]), 3, rng), 3)
    jobs.append(_filtration_job(pkg, work, "capcup-f3", [link], "fp:3",
                                _cap_cup_steps, _cap_cup_laws))
    # saddle: the site is found on the template word; the seed rotates the
    # word, which only renumbers the crossings, and the site with them
    word = cut([1, 2, 1, 2, -1, 2, 1, 2, 1])
    site = _saddle_site(braid_closure(word, 3))
    r = rng.randrange(len(word))
    site = [[["x", (x[1] - r) % len(word), x[2]] for x in pair]
            for pair in site]
    link = braid_closure(word[r:] + word[:r], 3)
    jobs.append(_filtration_job(pkg, work, "saddle-f2", [link], "f2",
                                _saddle_steps(site), _no_laws))
    return jobs


# -- curves through ingest and persist ---------------------------------------

# (p, q, points): T(p, q) winds p times about the z axis and has q(p-1)
# crossings in this projection.  Crossing detection is O(points^2).
TORUS_CURVES = [(2, 3, 800), (2, 5, 850), (2, 7, 900), (3, 4, 1000)]


def torus_curve(p, q, n, rng):
    """Seeded samples of T(p, q) on a torus of radii 2 and 1: a random
    rotation about z, a random sampling phase (so no crossing falls on a
    sample vertex) and a disk centre off the symmetry axis."""
    turn = rng.uniform(0, 2 * math.pi)
    phase = rng.uniform(0.2, 0.8) * 2 * math.pi / n
    pts = []
    for k in range(n):
        t = 2 * math.pi * k / n + phase
        rad = 2.0 + math.cos(q * t)
        pts.append([rad * math.cos(p * t + turn),
                    rad * math.sin(p * t + turn), math.sin(q * t)])
    centre = [0.21 + rng.uniform(-0.03, 0.03), 0.13 + rng.uniform(-0.03, 0.03)]
    return {"curves": [{"points": pts, "closed": True}], "axis": "z",
            "center": centre}


def ingest_curves(pkg, seed, work, small):
    rng = random.Random(seed)
    jobs = []
    for p, q, n in TORUS_CURVES:
        if small:
            n //= 4
        label = f"T{p}{q}"
        curves = os.path.join(work, f"{label}.curves.json")
        filt = os.path.join(work, f"{label}.filt.json")
        bars = os.path.join(work, f"{label}.bars.json")
        _write_json(curves, torus_curve(p, q, n, rng))
        jobs.append(_ingest_job(pkg, label, p, q, curves, filt))
        jobs.append(_persist_job(pkg, label, filt, bars))
    return jobs


def _ingest_job(pkg, label, p, q, curves, filt):
    def run():
        code = pkg.cli.main(["ingest", curves, "--out", filt])
        if code != 0:
            raise JobFailed(f"ingest {label} exited {code}")

    def check(_, done):
        data = done[label] = _read_json(filt)
        events = _read_json(filt + ".events.json")
        oracles.check_crossing_events(events, p, q)
        if len(data["diagrams"]) != len(data["grades"]):
            raise oracles.CheckError("one diagram per grade expected")
        oracles.check_torus_clip(data["diagrams"][-1], p, q)

    return Job(f"ingest-{label}", run, check,
               [filt, filt + ".events.json"])


def _persist_job(pkg, label, filt, bars):
    def run():
        code = pkg.cli.main(["persist", filt, "--out", bars])
        if code != 0:
            raise JobFailed(f"persist {label} exited {code}")

    def check(_, done):
        data = done[label]
        rows = _read_json(bars)
        chi = [oracles.euler_at_one(d) for d in data["diagrams"]]
        run_of = [0]
        for step in data["steps"]:
            run_of.append(run_of[-1] + (step["kind"] == "break"))
        oracles.check_rows_euler(rows, data["grades"], run_of, chi)
        return {"persist.bars": len(rows)}

    return Job(f"persist-{label}", run, check, [bars])


WORKLOADS = {
    "kh-large-f2": kh_large_f2,
    "kh-fields": kh_fields,
    "persist-filtrations": persist_filtrations,
    "ingest-curves": ingest_curves,
}
