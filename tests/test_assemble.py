"""The bitmask builder and chain maps against a label-by-label reference.

The reference below is the earlier label-by-label implementation, moved
here from the package: components are traced with a sorted-neighbour
walk, generators are ``(state, labels)`` tuples in an explicit list, and
saddles are classified by port-set matching and applied one labeling at a
time through an index dict.  It writes out its own merge and split and
its own quantum grading, so a wrong entry in ``algebra.SADDLE`` shows
here.  The production code must agree with it bit for bit: the same
basis order, the same differential columns (entries and insertion
order), the same quantum blocks and the same chain-map columns, over F2,
F3 and Q.  A chain map applied to a random combination of generators
must give the reference columns applied to it, and the saddle map must
equal the projection out of the mapping cone of the added crossing.
"""

import itertools
import random

import pytest

from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import ComplexError, build_complex
from tanglekh.diagram import (ComponentRecord, Crossing, Resolution,
                              TangleDiagram, apply_planar, resolve, validate)
from tanglekh.persistence import (ClosureMorphismSpec, MorphismError,
                                  build_psi, cap_map, cup_map, saddle_map,
                                  saddle_target_diagram)

from conftest import (braid_closure, chain_columns, closing_operator,
                      random_braid_diagram, tangle_with_extra_arcs)

F3 = PrimeField(3)
FIELDS = [GF2, F3, QQ]


# -- reference: resolve, classify, transfer ------------------------------


SMOOTH = {0: ((0, 3), (1, 2)), 1: ((0, 1), (2, 3))}

# the multiplication and comultiplication of V = <v+, v->
MERGE = {("+", "+"): ("+",), ("+", "-"): ("-",), ("-", "+"): ("-",),
         ("-", "-"): ()}
SPLIT = {"+": (("+", "-"), ("-", "+")), "-": (("-", "-"),)}
THETA = {"+": 1, "-": -1, "w": -1}


def phi(labels, p, n_plus, n_minus):
    """The quantum grading p + n_plus - n_minus + theta of a labeling."""
    return p + n_plus - n_minus + sum(THETA[x] for x in labels)


def ref_resolve(d, state):
    adj = {x: [] for x in d.boundary}
    for c in d.crossings:
        for p in c.ports:
            adj[p] = []
    edges = list(d.connections)
    for c, bit in zip(d.crossings, state):
        edges.extend((c.ports[i], c.ports[j]) for i, j in SMOOTH[bit])
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    visited = set()
    raw = []

    def walk(start):
        path = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = None
            for nb in sorted(adj[cur], key=d.sort_key):
                if nb not in visited:
                    nxt = nb
                    break
            if nxt is None:
                return path
            path.append(nxt)
            visited.add(nxt)
            cur = nxt

    for b in d.boundary:
        if b not in visited:
            raw.append(walk(b))
    for c in d.crossings:
        for p in c.ports:
            if p not in visited:
                raw.append(walk(p))
    raw.sort(key=lambda path: d.sort_key(path[0]))
    comps = []
    for path in raw:
        eps = tuple(x for x in path if x in d.boundary)
        comps.append(ComponentRecord(id=len(comps),
                                     kind="arc" if eps else "circle",
                                     ports=tuple(path), endpoints=eps))
    for _ in range(d.free_circles):
        comps.append(ComponentRecord(id=len(comps), kind="circle",
                                     ports=(), endpoints=()))
    r = sum(1 for c in comps if c.kind == "circle")
    return Resolution(state=tuple(state), components=tuple(comps), r=r,
                      t=len(comps) - r)


KIND_TABLE = {
    (("circle", "circle"), ("circle",)): "circle-merge",
    (("circle",), ("circle", "circle")): "circle-split",
    (("arc", "arc"), ("arc", "arc")): "arc-arc-reconnect",
    (("arc",), ("arc", "arc")): "arc-arc-reconnect",
    (("arc", "arc"), ("arc",)): "arc-arc-reconnect",
    (("arc",), ("arc", "circle")): "arc-split-circle",
    (("arc", "circle"), ("arc",)): "arc-circle-merge",
}


def _signature(comp):
    if comp.ports:
        return ("p", tuple(sorted(map(str, comp.ports))))
    return ("f",)


def ref_classify(res_s, res_t, nodes):
    ports = set(nodes)
    sa = tuple(i for i, c in enumerate(res_s.components)
               if ports & set(c.ports))
    ta = tuple(i for i, c in enumerate(res_t.components)
               if ports & set(c.ports))
    key = (tuple(sorted(res_s.components[i].kind for i in sa)),
           tuple(sorted(res_t.components[i].kind for i in ta)))
    if key not in KIND_TABLE:
        raise ValueError(f"active pattern {key} is outside the five cases")
    kind = KIND_TABLE[key]

    def keyed(res, active):
        out = {}
        free = 0
        for i, c in enumerate(res.components):
            if i in active:
                continue
            sig = _signature(c)
            if sig == ("f",):
                sig = ("f", free)
                free += 1
            out[sig] = i
        return out

    tgt = keyed(res_t, ta)
    bystanders = tuple((i, tgt[sig])
                       for sig, i in keyed(res_s, sa).items())
    return kind, sa, ta, bystanders


def ref_transfer(cls, res_s, res_t, labels):
    kind, sa, ta, bystanders = cls
    out = [None] * len(res_t.components)
    for si, ti in bystanders:
        out[ti] = labels[si]
    terms = []
    if kind == "circle-merge":
        for sym in MERGE[(labels[sa[0]], labels[sa[1]])]:
            o = list(out)
            o[ta[0]] = sym
            terms.append(tuple(o))
    elif kind == "circle-split":
        for s1, s2 in SPLIT[labels[sa[0]]]:
            o = list(out)
            o[ta[0]], o[ta[1]] = s1, s2
            terms.append(tuple(o))
    elif kind == "arc-split-circle":
        o = list(out)
        for j in ta:
            o[j] = "w" if res_t.components[j].kind == "arc" else "-"
        terms.append(tuple(o))
    elif kind == "arc-circle-merge":
        ic = next(i for i in sa if res_s.components[i].kind == "circle")
        if labels[ic] == "+":
            o = list(out)
            o[ta[0]] = "w"
            terms.append(tuple(o))
    return terms


# -- reference: the label-by-label builder -------------------------------


class RefComplex:
    def __init__(self, d, field):
        self.diagram, self.field = d, field
        self.resolutions, self.basis, self.index = {}, {}, {}
        for state in itertools.product((0, 1), repeat=d.n):
            res = ref_resolve(d, state)
            self.resolutions[state] = res
            p = sum(state) - d.n_minus
            bucket = self.basis.setdefault(p, [])
            choices = [("w",) if c.kind == "arc" else ("+", "-")
                       for c in res.components]
            for labels in itertools.product(*choices):
                self.index[(state, labels)] = (p, len(bucket))
                bucket.append((state, labels))
        one, neg_one = field.one, field.neg(field.one)
        self.differentials = {p: [{} for _ in g]
                              for p, g in self.basis.items()}
        for (state, labels), (p, i) in self.index.items():
            col = self.differentials[p][i]
            for star in range(d.n):
                if state[star]:
                    continue
                tgt = state[:star] + (1,) + state[star + 1:]
                res_s, res_t = self.resolutions[state], self.resolutions[tgt]
                cls = ref_classify(res_s, res_t, d.crossings[star].ports)
                coeff = neg_one if sum(state[:star]) % 2 else one
                for out in ref_transfer(cls, res_s, res_t, labels):
                    _, ti = self.index[(tgt, out)]
                    val = field.add(col.get(ti, field.zero), coeff)
                    if val == field.zero:
                        col.pop(ti, None)
                    else:
                        col[ti] = val

    def q_blocks(self, p):
        out = {}
        for i, (_, labels) in enumerate(self.basis[p]):
            q = phi(labels, p, self.diagram.n_plus, self.diagram.n_minus)
            out.setdefault(q, []).append(i)
        return out


# -- reference: chain maps -----------------------------------------------


def empty_columns(ref):
    return {p: [{} for _ in g] for p, g in ref.basis.items()}


def portless_arc_lookup(d, res):
    """Component index of each portless arc, by canonical arc order."""
    eps = {frozenset(pair): i for i, pair in enumerate(d.portless_arcs())}
    out = {}
    for ci, comp in enumerate(res.components):
        if comp.kind == "arc" and not any(
                d.is_port(x) for x in comp.ports):
            out[eps[frozenset(comp.endpoints)]] = ci
    return out


def ref_psi(src, dst, spec):
    columns = empty_columns(src)
    for (state, labels), (p, i) in src.index.items():
        res_s, res_t = src.resolutions[state], dst.resolutions[state]
        node_to = {x: j for j, c in enumerate(res_t.components)
                   for x in c.ports}
        src_free, tgt_free = (res_s.free_circle_indices,
                              res_t.free_circle_indices)
        src_arcs = portless_arc_lookup(spec.source, res_s)
        tgt_arcs = portless_arc_lookup(spec.target, res_t)
        mapping = {}
        for k, comp in enumerate(res_s.components):
            ports = [x for x in comp.ports if spec.source.is_port(x)]
            if ports:
                mapping[k] = node_to[ports[0]]
            elif comp.kind == "arc":
                ai = next(a for a, ci in src_arcs.items() if ci == k)
                img = spec.arc_images[ai]
                mapping[k] = (tgt_arcs[img[1]] if img[0] == "arc"
                              else tgt_free[img[1]])
            else:
                mapping[k] = tgt_free[spec.circle_images[src_free.index(k)]]
        out = ["+" if c.kind == "circle" else "w" for c in res_t.components]
        for k, j in mapping.items():
            sym = labels[k]
            if (res_s.components[k].kind == "arc"
                    and res_t.components[j].kind == "circle"):
                sym = "-"
            out[j] = sym
        _, ti = dst.index[(state, tuple(out))]
        columns[p][i][ti] = src.field.one
    return columns


def ref_cap(src, dst):
    columns = empty_columns(src)
    for (state, labels), (p, i) in src.index.items():
        _, ti = dst.index[(state, labels + ("+",))]
        columns[p][i][ti] = src.field.one
    return columns


def ref_cup(src, dst, circle_index):
    columns = empty_columns(src)
    for (state, labels), (p, i) in src.index.items():
        pos = src.resolutions[state].free_circle_indices[circle_index]
        if labels[pos] == "-":
            _, ti = dst.index[(state, labels[:pos] + labels[pos + 1:])]
            columns[p][i][ti] = src.field.one
    return columns


def ref_saddle(src, dst, site):
    nodes = site[0] + site[1]
    columns = empty_columns(src)
    for (state, labels), (p, i) in src.index.items():
        res_s, res_t = src.resolutions[state], dst.resolutions[state]
        cls = ref_classify(res_s, res_t, nodes)
        for out in ref_transfer(cls, res_s, res_t, labels):
            _, ti = dst.index[(state, out)]
            columns[p][i][ti] = src.field.one
    return columns


def ref_saddle_cone(src, dst, site):
    (a, b), (cc, dd) = site
    d = src.diagram
    new_id = (min(c.id for c in d.crossings) - 1) if d.crossings else 0
    xp = tuple(("cone", new_id, k) for k in range(4))
    pairs = [p for p in d.connections
             if frozenset(p) not in (frozenset((a, b)), frozenset((cc, dd)))]
    pairs += [(a, xp[0]), (cc, xp[1]), (dd, xp[2]), (b, xp[3])]
    tilde = TangleDiagram(
        boundary=d.boundary,
        crossings=d.crossings + (Crossing(id=new_id, ports=xp, sign=-1),),
        connections=pairs, free_circles=d.free_circles)
    ct = RefComplex(tilde, src.field)

    def correspondence(res_from, res_to, labels_from):
        out = [None] * len(res_to.components)
        node_to = {x: j for j, c in enumerate(res_to.components)
                   for x in c.ports}
        for k, comp in enumerate(res_from.components):
            shared = [x for x in comp.ports if x in node_to]
            j = (node_to[shared[0]] if shared else
                 res_to.free_circle_indices[
                     res_from.free_circle_indices.index(k)])
            out[j] = labels_from[k]
        return tuple(out)

    f = src.field
    columns = empty_columns(src)
    for (state, labels), (p, i) in src.index.items():
        tstate = (0,) + state
        tlabels = correspondence(src.resolutions[state],
                                 ct.resolutions[tstate], labels)
        tp, ti = ct.index[(tstate, tlabels)]
        for j, coeff in ct.differentials[tp][ti].items():
            tgt_state, tgt_labels = ct.basis[tp + 1][j]
            if tgt_state[0] != 1:
                continue
            dlabels = correspondence(ct.resolutions[tgt_state],
                                     dst.resolutions[tgt_state[1:]],
                                     tgt_labels)
            _, di = dst.index[(tgt_state[1:], dlabels)]
            val = f.add(columns[p][i].get(di, f.zero), coeff)
            if val == f.zero:
                columns[p][i].pop(di, None)
            else:
                columns[p][i][di] = val
    return columns


# -- comparisons ---------------------------------------------------------


def same_columns(new_cols, ref_cols):
    """Equal column by column, insertion order included."""
    assert sorted(new_cols) == sorted(ref_cols)
    for p in ref_cols:
        assert len(new_cols[p]) == len(ref_cols[p])
        for i, (a, b) in enumerate(zip(new_cols[p], ref_cols[p])):
            assert list(a.items()) == list(b.items()), (p, i)


def applies_like(f, ref_cols, rng):
    """``f.apply`` on a random combination of the generators of each
    degree equals the reference columns applied to it.  Returns how many
    degrees saw terms cancel in the field."""
    field = f.src.field
    cancelled = 0
    for p, cols in ref_cols.items():
        vec = {}
        for i in range(len(cols)):
            x = field.coerce(rng.choice((1, 1, -1, 2)))
            if rng.random() < 0.6 and x != field.zero:
                vec[i] = x
        expect = linalg.matvec(cols, vec, field)
        assert f.apply(p, vec) == expect, p
        cancelled += len(expect) < len({j for i in vec for j in cols[i]})
    return cancelled


def assert_same_complex(c, ref):
    d = ref.diagram
    for state, res in ref.resolutions.items():
        assert resolve(d, state) == res
    assert c.degrees == sorted(ref.basis)
    for p, gens in ref.basis.items():
        assert [(g.state, g.labels) for g in c.basis[p]] == gens
        for i in (0, len(gens) - 1):
            assert (c.basis[p][i].state, c.basis[p][i].labels) == gens[i]
        assert c.q_blocks(p) == ref.q_blocks(p)
        assert list(c.q_blocks(p)) == list(ref.q_blocks(p))
    for key, pi in ref.index.items():
        assert c.index[key] == pi
    assert len(c.index) == len(ref.index)
    same_columns(c.differentials, ref.differentials)


def random_diagrams(seed, count, max_crossings=6):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 3 == 2:
            out.append(tangle_with_extra_arcs(rng, max_crossings=4,
                                              n_arcs=rng.randint(1, 2)))
        else:
            out.append(random_braid_diagram(rng, max_crossings,
                                            closed=k % 3 == 0))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_builder_matches_reference(field):
    for d in random_diagrams(31, 24):
        assert_same_complex(build_complex(d, field=field),
                            RefComplex(d, field))


def test_builder_matches_reference_larger():
    d = braid_closure([1, -2, 1, 2, -1, 2, 2, -1], 3)
    assert_same_complex(build_complex(d, field=QQ), RefComplex(d, QQ))


def test_index_rejects_labelings_that_do_not_fit():
    c = build_complex(braid_closure([1, 1], 2), field=GF2)
    state = (0, 0)
    r = resolve(c.diagram, state).r
    for bad in (("+",) * (r + 1), ("w",) * r, ("x",) * r):
        with pytest.raises(KeyError):
            c.index[(state, bad)]
    # a state is a word of n bits 0 or 1
    for bad in ((0,), (0, 0, 0), (0, 2), (2, 0), (-1, 1), ()):
        with pytest.raises(KeyError):
            c.index[(bad, ("+",) * r)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_psi_matches_reference(field):
    rng, pick = random.Random(47), random.Random(48)
    for k in range(10):
        n_arcs = rng.randint(1, 2)
        d = tangle_with_extra_arcs(rng, max_crossings=3, n_arcs=n_arcs)
        if k % 2:
            target, spec = d, ClosureMorphismSpec.identity(d)
        else:
            # the extra arcs are the last 2 * n_arcs boundary points
            target, spec = apply_planar(closing_operator(
                d.boundary, len(d.boundary) - 2 * n_arcs, rng), d)
        c0, c1 = build_complex(d, field=field), build_complex(target,
                                                              field=field)
        r0, r1 = RefComplex(d, field), RefComplex(target, field)
        psi, expect = build_psi(c0, c1, spec), ref_psi(r0, r1, spec)
        same_columns(chain_columns(psi), expect)
        applies_like(psi, expect, pick)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_cap_and_cup_match_reference(field):
    rng, pick = random.Random(53), random.Random(54)
    for _ in range(6):
        d = random_braid_diagram(rng, 5, closed=True)
        up = TangleDiagram(crossings=d.crossings, connections=d.connections,
                           free_circles=d.free_circles + 1)
        c, cu = build_complex(d, field=field), build_complex(up, field=field)
        r, ru = RefComplex(d, field), RefComplex(up, field)
        cap, expect = cap_map(c, dst=cu), ref_cap(r, ru)
        same_columns(chain_columns(cap), expect)
        applies_like(cap, expect, pick)
        # deleting any one free circle of ``up`` leaves the complex of d
        for k in range(up.free_circles):
            cup, expect = cup_map(cu, k, dst=c), ref_cup(ru, r, k)
            same_columns(chain_columns(cup), expect)
            applies_like(cup, expect, pick)


def saddle_sites(rng, count):
    """Random diagrams with a site: two of their connections."""
    out = []
    while len(out) < count:
        d = random_braid_diagram(rng, 4)
        if len(d.connections) >= 2:
            i, j = rng.sample(range(len(d.connections)), 2)
            out.append((d, (d.connections[i], d.connections[j])))
    return out


def repaired(d, site):
    """``d`` with the connections of ``site`` re-paired, planar or not."""
    (a, b), (c, e) = site
    cut = {frozenset((a, b)), frozenset((c, e))}
    return TangleDiagram(boundary=d.boundary, crossings=d.crossings,
                         connections=[p for p in d.connections
                                      if frozenset(p) not in cut]
                         + [(a, c), (b, e)], free_circles=d.free_circles)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_saddle_maps_match_reference(field):
    """Random sites include re-pairings whose target is not planar:
    ``saddle_target_diagram`` refuses every site where no crossing fits,
    ``build_complex`` refuses those targets up front, and they hold every
    target the reference refuses (outside the five local cases, one
    circle to one circle).  A refused site with a planar target must be
    refused by the reference too.  The map must also equal the projection
    out of the cone as a matrix (the cone inserts entries in its own
    order).  Merges send (+, -) and (-, +) to one target, so applying the
    map to random combinations must see terms cancel."""
    pick = random.Random(61)
    matched = cancelled = refused = 0
    for d, site in saddle_sites(random.Random(59), 24):
        try:
            d2 = saddle_target_diagram(d, site)
        except MorphismError:
            d2 = repaired(d, site)
            if validate(d2):
                with pytest.raises(ValueError):
                    ref_saddle(RefComplex(d, field), RefComplex(d2, field),
                               site)
            else:
                with pytest.raises(ComplexError, match="not planar"):
                    build_complex(d2, field=field)
                refused += 1
            continue
        assert validate(d2)
        rd = RefComplex(d2, field)
        cs, cd = build_complex(d, field=field), build_complex(d2, field=field)
        rs = RefComplex(d, field)
        try:
            expected = ref_saddle(rs, rd, site)
            cone = ref_saddle_cone(rs, rd, site)
        except ValueError:
            with pytest.raises(ValueError):
                saddle_map(cs, cd, site)
            continue
        f = saddle_map(cs, cd, site)
        columns = chain_columns(f)
        same_columns(columns, expected)
        assert columns == cone
        cancelled += applies_like(f, expected, pick)
        matched += 1
    assert matched >= 8 and cancelled and refused
