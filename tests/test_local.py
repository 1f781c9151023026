"""``local.ranks`` against the whole cube, on closed diagrams and
tangles, and beyond its reach against invariance and Shumakovitch's F2
splitting."""

import random

import pytest

from tanglekh import local
from tanglekh.algebra import GF2, QQ, PrimeField, field_from_name
from tanglekh.complex import ComplexError, build_complex, homology
from tanglekh.diagram import (Crossing, PlanarTangleSpec, TangleDiagram,
                              apply_planar)
from tanglekh.ingest import (CurveSet, Polyline, clip, critical_radii,
                             project_and_detect, sample_grades)

from conftest import braid_closure, braid_tangle, kink_arc
from test_ingest import torus_points

FIELDS = ["f2", "fp:3", "q"]


def cube_ranks(d, field):
    h = homology(build_complex(d, field=field), representatives=False)
    return {k: r for k, r in h.ranks.items() if r}


def with_free(d, k):
    return TangleDiagram(crossings=d.crossings, connections=d.connections,
                         free_circles=d.free_circles + k)


def relabel(d, tag):
    """``d`` with every port label x renamed (tag, x)."""
    name = {x: (tag, x) for c in d.crossings for x in c.ports}
    return TangleDiagram(
        crossings=[Crossing(c.id, [name[x] for x in c.ports], c.sign)
                   for c in d.crossings],
        connections=[(name[a], name[b]) for a, b in d.connections],
        free_circles=d.free_circles)


def split(a, b):
    """The split union of the closed diagrams ``a`` and ``b``."""
    a, b = relabel(a, "a"), relabel(b, "b")
    shift = len(a.crossings)
    return TangleDiagram(
        crossings=list(a.crossings) + [
            Crossing(c.id + shift, c.ports, c.sign) for c in b.crossings],
        connections=a.connections + b.connections,
        free_circles=a.free_circles + b.free_circles)


def test_closed_ranks_match_the_cube_on_seeded_closures():
    """360 seeded closures, 120 over each field: the cube is the cost."""
    rng = random.Random(1901)
    seen = {"free": 0, "mixed": 0, "strands": set()}
    for i in range(360):
        field = field_from_name(FIELDS[i % 3])
        strands = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))]
        d = with_free(braid_closure(word, strands), rng.randint(0, 2))
        seen["free"] += d.free_circles > 0
        seen["mixed"] += len({g > 0 for g in word}) == 2
        seen["strands"].add(strands)
        assert local.ranks(d, field) == cube_ranks(d, field), (word, d)
    assert seen["free"] > 120 and seen["mixed"] > 120
    assert seen["strands"] == {2, 3, 4, 5}


def noncrossing(points, rng):
    """A random crossingless perfect matching of ``points`` in order."""
    if not points:
        return []
    k = rng.randrange(len(points) // 2) * 2 + 1
    return [(points[0], points[k])] + noncrossing(points[1:k], rng) + \
        noncrossing(points[k + 1:], rng)


def rotated(d, rng):
    """``d`` with about half its crossings listing their ports from 2."""
    return TangleDiagram(
        boundary=d.boundary,
        crossings=[Crossing(c.id, c.ports[2:] + c.ports[:2]
                            if rng.random() < 0.5 else c.ports, c.sign)
                   for c in d.crossings],
        connections=d.connections, free_circles=d.free_circles)


def test_closed_ranks_match_the_cube_on_plat_like_closures():
    """Braid tangles closed by a random crossingless matching of their
    ends, each crossing's ports listed from port 0 or from port 2."""
    rng = random.Random(1907)
    for i in range(90):
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))]
        t = braid_tangle(word, strands)
        inner = tuple(("i", k) for k in range(len(t.boundary)))
        d, _ = apply_planar(PlanarTangleSpec(
            inner_boundary=inner, outer_boundary=(),
            arcs=noncrossing(list(inner), rng), circles=rng.randint(0, 1)), t)
        d = rotated(d, rng)
        field = field_from_name(FIELDS[i % 3])
        assert local.ranks(d, field) == cube_ranks(d, field), (word, d)


@pytest.mark.parametrize("name", FIELDS)
def test_closed_ranks_named_cases(name):
    field = field_from_name(name)
    assert local.ranks(TangleDiagram(), field) == {(0, 0): 1}
    for k in (1, 2, 3):
        d = TangleDiagram(free_circles=k)
        assert local.ranks(d, field) == cube_ranks(d, field)
    assert local.ranks(TangleDiagram(free_circles=2), field) == \
        {(0, 2): 1, (0, 0): 2, (0, -2): 1}
    for sign in (1, -1):   # one crossing, each port wired to another of it
        kink = braid_closure([sign], 2)
        assert local.ranks(kink, field) == {(0, 1): 1, (0, -1): 1}
        assert local.ranks(kink, field) == cube_ranks(kink, field)
    trefoil = braid_closure([1, 1, 1], 2)
    for d in (split(trefoil, trefoil), braid_closure([1, 1, 1, 3, 3, 3], 4),
              with_free(split(trefoil, braid_closure([-1, -1, -1], 2)), 1)):
        assert local.ranks(d, field) == cube_ranks(d, field)


def test_closed_ranks_do_not_depend_on_the_crossing_order():
    rng = random.Random(7)
    for _ in range(20):
        word = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(8)]
        d = braid_closure(word, 4)
        ids = list(range(d.n))
        rng.shuffle(ids)
        shuffled = TangleDiagram(
            crossings=[Crossing(ids[c.id], c.ports, c.sign)
                       for c in d.crossings],
            connections=d.connections, free_circles=d.free_circles)
        for field in (GF2, QQ):
            want = cube_ranks(d, field)
            assert local.ranks(shuffled, field) == want
            assert local.ranks(d, field) == want


def test_closed_ranks_over_a_large_prime_field():
    field = PrimeField(1000003)
    for word, strands in (([1, 1, 1, 2, 2, 2, 1], 3), ([1, -2, 1, -2], 3),
                          ([1, 1, -2, 1, 3, -2, 3], 4)):
        d = braid_closure(word, strands)
        assert local.ranks(d, field) == cube_ranks(d, field)
        assert local.ranks(d, field) == local.ranks(d, QQ)


def test_closed_ranks_thirteen_crossings_over_f2():
    d = braid_closure([1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 1], 3)
    assert local.ranks(d, GF2) == cube_ranks(d, GF2)


def random_braid_tangle(rng):
    """A braid tangle of 2-4 strands and 0-8 crossings, with 0-2 portless
    arcs after its boundary and 0-2 free circles."""
    strands = rng.randint(2, 4)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 8))]
    t = braid_tangle(word, strands)
    extra = [("e", k) for k in range(2 * rng.randint(0, 2))]
    return TangleDiagram(
        boundary=tuple(t.boundary) + tuple(extra), crossings=t.crossings,
        connections=list(t.connections) + list(zip(extra[::2], extra[1::2])),
        free_circles=rng.randint(0, 2))


def annular_closure(t, rng):
    """``t`` in a random crossingless annular operator: the annulus cut
    open along a radius is a disk whose boundary reads the outer points
    counterclockwise, then the inner ones clockwise from a random start."""
    n = len(t.boundary)
    start = rng.randrange(n)
    inner = tuple(("i", k) for k in range(n))
    outer = tuple(("o", k) for k in range(rng.randrange(0, n + 1, 2)))
    cut = list(outer) + [inner[(start - k) % n] for k in range(n)]
    d, _ = apply_planar(PlanarTangleSpec(
        inner_boundary=inner, outer_boundary=outer,
        arcs=noncrossing(cut, rng), circles=rng.randint(0, 1)), t)
    return d


def ingest_clips():
    """Tangles clipped from torus curves at their grades, off centre."""
    out = []
    for p, q, turn in ((2, 3, 0.3), (2, 5, 0.1), (3, 4, 0.2)):
        pa = project_and_detect(CurveSet(curves=[Polyline(
            points=torus_points(p, q, 240, turn=turn), closed=True)]))
        center = (0.61, 0.23)
        for r in sample_grades(critical_radii(pa, center)):
            d = clip(pa, center, r).diagram
            if d.boundary and d.n <= 8:
                out.append(d)
    return out


def test_ranks_match_the_cube_on_seeded_tangles():
    """Braid tangles, their annular partial closures (portless arcs, free
    circles, rotated port lists), ingest clips and the kink arcs, over
    F2, F3 and Q in turn."""
    rng = random.Random(2301)
    tangles = [random_braid_tangle(rng) for _ in range(90)]
    closures = [rotated(annular_closure(random_braid_tangle(rng), rng), rng)
                for _ in range(90)]
    clips = ingest_clips()
    cases = tangles + closures + clips + [kink_arc(1), kink_arc(-1)]
    assert sum(bool(d.portless_arcs()) for d in closures) > 20
    assert sum(d.free_circles > 0 for d in closures) > 20
    assert sum(bool(d.boundary) for d in closures) > 40
    assert len(clips) >= 6
    for i, d in enumerate(cases):
        field = field_from_name(FIELDS[i % 3])
        assert local.ranks(d, field) == cube_ranks(d, field), d.to_json()


def test_ranks_refuse_a_nonplanar_wiring():
    """Two crossings wired so that no disk holds them: the local path
    refuses them as ``build_complex`` does."""
    x = [Crossing(i, [("x", i, k) for k in range(4)], 1) for i in (0, 1)]
    d = TangleDiagram(crossings=x, connections=[
        (("x", 0, 0), ("x", 1, 2)), (("x", 0, 1), ("x", 1, 3)),
        (("x", 0, 2), ("x", 1, 0)), (("x", 0, 3), ("x", 1, 1))])
    for field in (GF2, QQ):
        with pytest.raises(ComplexError, match="invalid diagram: .*planar"):
            local.ranks(d, field)
        with pytest.raises(ComplexError, match="not planar"):
            build_complex(d, field=field)


def divisible_by_q_plus_inverse(poly):
    """Whether the Laurent polynomial {q: c} is (q + 1/q) times another:
    divide from the top term down."""
    poly = dict(poly)
    low = min(poly, default=0)
    while any(poly.values()):
        top = max(q for q, c in poly.items() if c)
        if top - 2 < low:
            return False
        c = poly.pop(top)
        poly[top - 2] = poly.get(top - 2, 0) - c
    return True


def test_divisibility_check_itself():
    assert divisible_by_q_plus_inverse({3: 1, 1: 2, -1: 1})
    assert not divisible_by_q_plus_inverse({3: 1, 1: 1, -1: 1})
    assert not divisible_by_q_plus_inverse({1: 1})


def test_closed_ranks_beyond_the_cube_sixteen_crossings():
    word = [1, 1, -2, 1, 3, -2, 3, 2, 2, 1, -3, 2, 1, 1, 3, 2]
    strands = 4
    rotated = word[5:] + word[:5]
    flipped = [(strands - abs(g)) * (1 if g > 0 else -1) for g in word]
    for field in (GF2, QQ):
        ranks = local.ranks(braid_closure(word, strands), field)
        assert sum(ranks.values()) > 8
        for other in (rotated, flipped):
            assert local.ranks(braid_closure(other, strands), field) == ranks
        if field is GF2:
            for p in {p for p, _ in ranks}:
                assert divisible_by_q_plus_inverse(
                    {q: r for (pp, q), r in ranks.items() if pp == p})
