"""The rank-space pass of ``build_complex`` against the Resolution-based
reference: per state number, the component array of ``diagram.walk``
(also as kept in ``comps``), (r, t), the saddle records of ``edges``,
which carry free circles as bystanders, the lowest bits, and the target
and sign that ``_columns`` derives for each edge must equal what
``diagram.resolve`` plus the old classifier in ``stored_complex`` give
for the state's bits, on braid closures and tangles with portless arcs,
free circles and kinks, on the targets of random saddle sites, and with a
flipped edge sign.  Non-planar targets must be refused by
``build_complex``."""

import itertools
import random

import pytest

from tanglekh import complex as cx, diagram as dg
from tanglekh.algebra import GF2, QQ
from tanglekh.complex import build_complex, homology
from tanglekh.cube import bit_table, saddle, state_bits, state_number
from tanglekh.diagram import resolve, walk

from conftest import (bare_arc, braid_closure, kink_arc, random_braid_diagram,
                      tangle_with_extra_arcs)
from cube_helpers import negate_edge
from stored_complex import StateTable, classify, saddle_parts
from test_assemble import ref_resolve, repaired, saddle_sites


def diagrams():
    rng = random.Random(83)
    out = [kink_arc(1), kink_arc(-1), bare_arc(), braid_closure([1], 2),
           braid_closure([1, -1, 1, 1], 2),
           dg.TangleDiagram(free_circles=2)]
    for k in range(18):
        if k % 3 == 2:
            out.append(tangle_with_extra_arcs(rng, max_crossings=4,
                                              n_arcs=rng.randint(1, 2)))
        else:
            out.append(random_braid_diagram(rng, 6, closed=k % 3 == 0))
    # targets of random sites, re-paired whether or not a crossing fits
    # them: some leave the five local cases
    out += [repaired(d, site)
            for d, site in saddle_sites(random.Random(59), 12)]
    return out


def reference(d, sign_flip):
    """state bits -> ``StateTable`` of its resolution, and state bits ->
    edges (target bits, negative, images, active, terms) by crossing; or
    ValueError when an edge is outside the five local cases."""
    _, rank, _, ports = d.wiring()
    tables = {}
    for state in itertools.product((0, 1), repeat=d.n):
        res = resolve(d, state)
        assert res == ref_resolve(d, state)
        tables[state] = StateTable(res, rank)
    edges = {}
    for state, src in tables.items():
        out = []
        for star, bit in enumerate(state):
            if bit:
                continue
            target = state[:star] + (1,) + state[star + 1:]
            dst = tables[target]
            images, active, terms = saddle_parts(
                classify(src, dst, ports[star]), src.bits, dst.bits)
            negative = (sum(state[:star]) % 2 == 1) != \
                (sign_flip == (state, star))
            out.append((target, negative, images, active, terms))
        edges[state] = tuple(out)
    return tables, edges


def columns(c, state, edges):
    """The columns of ``c`` at the masks of state number ``state``, built
    from reference edges: each writes its signed local map into the rows
    of its target state."""
    out = []
    for m in range(1 << c.rt[state][0]):
        col = {}
        for target, negative, images, active, terms in edges:
            off = c.layout[state_number(target)][1]
            by = bit_table(images)[m]
            for t in terms[m & active]:
                col[off + (by | t)] = -1 if negative else 1
        out.append(col)
    return out


def test_components_and_edges_match_reference():
    rng = random.Random(89)
    refused = matched = 0
    for d in diagrams():
        flips = [None]
        if d.crossings:
            state = [rng.randint(0, 1) for _ in d.crossings]
            star = rng.randrange(d.n)
            state[star] = 0
            flips.append((tuple(state), star))
        for flip in flips:
            if not dg.validate(d):
                with pytest.raises(cx.ComplexError, match="not planar"):
                    build_complex(d)
                refused += 1
                continue
            # a planar wiring stays within the five local cases
            tables, edges = reference(d, flip)
            c = negate_edge(build_complex(d, field=QQ), flip)
            assert len(c.comps) == len(c.rt) == len(c.edges) == 1 << d.n
            for state in range(1 << d.n):
                bits = state_bits(state, d.n)
                table = tables[bits]
                comp, order, r = walk(d, state)
                assert comp == table.comp == list(c.comps[state])
                assert sorted(order) == list(range(len(comp)))
                assert c.rt[state] == (table.res.r, table.res.t) == \
                    (r, len(d.boundary) // 2)
                assert [e[1:] for e in c.edges[state]] == \
                    [e[2:] for e in edges[bits]]
                assert list(c._columns(state, range(1 << r))) == \
                    columns(c, state, edges[bits])
            matched += 1
    assert refused >= 2 and matched >= 40


def test_site_saddles_match_reference():
    """The re-pairing of a saddle site, classified per state as
    ``saddle_map`` does, against the old classifier; non-planar sites may
    leave the five local cases, and then both refuse."""
    outcomes = set()
    for d, ((a, b), (cc, dd)) in saddle_sites(random.Random(59), 24):
        d2 = repaired(d, ((a, b), (cc, dd)))
        rank = d.wiring()[1]
        ports = tuple(rank[x] for x in (a, cc, dd, b))
        t = len(d.boundary) // 2
        for state in range(1 << d.n):
            bits = state_bits(state, d.n)
            src, dst = (StateTable(resolve(d, bits), rank),
                        StateTable(resolve(d2, bits), rank))
            (cs, _, rs), (ct, _, rt) = walk(d, state), walk(d2, state)
            new = ((cs, rs), (ct, rt))
            try:
                ref = saddle_parts(classify(src, dst, ports), src.bits,
                                   dst.bits)
            except ValueError:
                with pytest.raises(ValueError):
                    saddle(*new, t, ports)
                outcomes.add("refused")
                continue
            assert saddle(*new, t, ports)[1:] == ref
            outcomes.add("matched")
    assert outcomes == {"refused", "matched"}


def test_pattern_outside_the_five_cases_raises():
    # one circle through all four ports, on both sides of the move
    one_circle = ([0, 0, 0, 0], 1)
    with pytest.raises(ValueError, match="five local cases"):
        saddle(one_circle, one_circle, 0, (0, 1, 2, 3))
    # an arc on both sides, without a second component
    one_arc = ([0, 0, 0, 0, 0, 0], 0)
    with pytest.raises(ValueError, match="five local cases"):
        saddle(one_arc, one_arc, 1, (2, 3, 4, 5))


def basis(c):
    return {p: list(gens) for p, gens in c.basis.items()}


def test_build_complex_never_resolves(monkeypatch):
    """Nor do homology, basis decoding and ``c.index``: arcs come first in
    component order, so (r, t) names every labeling."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_complex made a Resolution")

    expect = {}
    picked = diagrams()[:12]
    for d in picked:
        c = build_complex(d)
        expect[d] = (homology(c).representatives, basis(c), dict(c.index))
    for owner, attr in ((dg, "resolve"), (cx, "resolve"),
                        (dg, "Resolution"), (dg, "ComponentRecord")):
        monkeypatch.setattr(owner, attr, refuse)
    for d in picked:
        c = build_complex(d, field=GF2)
        assert (homology(c).representatives, basis(c),
                dict(c.index)) == expect[d]
