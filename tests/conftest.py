import math
import random

import pytest

from tanglekh import linalg
from tanglekh.diagram import Crossing, TangleDiagram
from tanglekh.persistence import Filtration


def braid_closure(word, strands):
    """Closure of a braid word; generator i is written as +-(i+1)."""
    crossings, conns = [], []
    front = [None] * strands
    bottom = [None] * strands
    for cid, g in enumerate(word):
        i = abs(g) - 1
        ports = tuple(("x", cid, k) for k in range(4))
        crossings.append(Crossing(id=cid, ports=ports,
                                  sign=1 if g > 0 else -1))
        ins = (ports[1], ports[0]) if g > 0 else (ports[0], ports[3])
        outs = (ports[2], ports[3]) if g > 0 else (ports[1], ports[2])
        for slot, pin in zip((i, i + 1), ins):
            if front[slot] is None:
                bottom[slot] = pin
            else:
                conns.append((front[slot], pin))
        front[i], front[i + 1] = outs
    free = 0
    for slot in range(strands):
        if front[slot] is None:
            free += 1
        else:
            conns.append((bottom[slot], front[slot]))
    return TangleDiagram(crossings=crossings, connections=conns,
                         free_circles=free)


def braid_tangle(word, strands):
    """The open braid as a tangle: bottom endpoints then top, CCW."""
    crossings, conns = [], []
    front = [None] * strands
    bottom = [None] * strands
    for cid, g in enumerate(word):
        i = abs(g) - 1
        ports = tuple(("x", cid, k) for k in range(4))
        crossings.append(Crossing(id=cid, ports=ports,
                                  sign=1 if g > 0 else -1))
        ins = (ports[1], ports[0]) if g > 0 else (ports[0], ports[3])
        outs = (ports[2], ports[3]) if g > 0 else (ports[1], ports[2])
        for slot, pin in zip((i, i + 1), ins):
            if front[slot] is None:
                bottom[slot] = pin
            else:
                conns.append((front[slot], pin))
        front[i], front[i + 1] = outs
    boundary = []
    for s in range(strands):
        lbl = ("b", s)
        boundary.append(lbl)
        if bottom[s] is not None:
            conns.append((lbl, bottom[s]))
    for s in reversed(range(strands)):
        lbl = ("t", s)
        boundary.append(lbl)
        if front[s] is not None:
            conns.append((lbl, front[s]))
        else:
            conns.append((lbl, ("b", s)))
    return TangleDiagram(boundary=boundary, crossings=crossings,
                         connections=conns)


def kink_arc(sign):
    """One-crossing kink on an arc with two boundary endpoints."""
    ports = tuple(("p", i) for i in range(4))
    x = Crossing(id=0, ports=ports, sign=sign)
    if sign < 0:
        conns = [("b0", ports[0]), ("b1", ports[1]), (ports[2], ports[3])]
    else:
        conns = [("b0", ports[0]), ("b1", ports[3]), (ports[1], ports[2])]
    return TangleDiagram(boundary=("b0", "b1"), crossings=[x],
                         connections=conns)


def bare_arc():
    return TangleDiagram(boundary=("b0", "b1"), connections=[("b0", "b1")])


def random_braid_diagram(rng: random.Random, max_crossings=8, closed=None):
    """A random valid tangle diagram built from a braid word."""
    n = rng.randint(1, max_crossings)
    strands = rng.randint(2, 4)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(n)]
    if closed is None:
        closed = rng.random() < 0.5
    d = braid_closure(word, strands) if closed else braid_tangle(word, strands)
    extra = rng.randint(0, 2)
    if extra:
        d = TangleDiagram(boundary=d.boundary, crossings=d.crossings,
                          connections=d.connections,
                          free_circles=d.free_circles + extra)
    return d


def tangle_with_extra_arcs(rng, max_crossings=4, n_arcs=2):
    """A braid tangle with extra portless boundary arcs appended."""
    strands = rng.randint(2, 3)
    n = rng.randint(1, max_crossings)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(n)]
    core = braid_tangle(word, strands)
    extra = [("e", k) for k in range(2 * n_arcs)]
    conns = list(core.connections)
    for k in range(n_arcs):
        conns.append((("e", 2 * k), ("e", 2 * k + 1)))
    return TangleDiagram(boundary=tuple(core.boundary) + tuple(extra),
                         crossings=core.crossings, connections=conns,
                         free_circles=rng.randint(0, 1))


def closing_operator(boundary, n_core, rng, tag=0):
    """Identity on the core boundary; each trailing arc pair is either
    closed off or routed straight out, at random.  ``tag`` keeps outer
    labels distinct across repeated applications."""
    from tanglekh.diagram import PlanarTangleSpec
    inner = tuple(("i", k) for k in range(len(boundary)))
    arcs = []
    outer = []
    for k in range(n_core):
        o = ("o", tag, k)
        outer.append(o)
        arcs.append((inner[k], o))
    k = n_core
    while k < len(boundary):
        if rng.random() < 0.5:
            arcs.append((inner[k], inner[k + 1]))
        else:
            o1, o2 = ("o", tag, k), ("o", tag, k + 1)
            outer.extend([o1, o2])
            arcs.append((inner[k], o1))
            arcs.append((inner[k + 1], o2))
        k += 2
    return PlanarTangleSpec(inner_boundary=inner,
                            outer_boundary=tuple(outer),
                            arcs=arcs, circles=rng.randint(0, 1))


def chain_columns(f):
    """p -> the column of each generator of degree p under the chain map
    f, as dicts into the indices of ``f.dst``, read through ``f.apply``."""
    one = f.src.field.one
    return {p: [f.apply(p, {i: one}) for i in range(f.src.dim(p))]
            for p in f.src.degrees}


def compose(g, f):
    """``(q_shift, columns)`` of the chain map g after f, multiplied out
    from their columns."""
    assert g.src is f.dst or g.src.diagram == f.dst.diagram
    columns = {}
    gcolumns = chain_columns(g)
    for p, cols in chain_columns(f).items():
        gcols = gcolumns.get(p)
        columns[p] = ([{} for _ in cols] if gcols is None
                      else linalg.matmul(gcols, cols, f.src.field))
    return f.q_shift + g.q_shift, columns


def circle_polyline(radius, cx=0.0, cy=0.0, z=0.0, n=64):
    return [(cx + radius * math.cos(2 * math.pi * k / n),
             cy + radius * math.sin(2 * math.pi * k / n), z)
            for k in range(n)]


def flat_trefoil_points(n=400):
    pts = []
    for k in range(n):
        t = 2 * math.pi * k / n
        pts.append((math.sin(t) + 2 * math.sin(2 * t),
                    math.cos(t) - 2 * math.cos(2 * t),
                    -math.sin(3 * t)))
    return pts


class CubeFiltration(Filtration):
    """A filtration with every run on the cube: the reference for the
    runs ``Filtration`` answers from local ranks, and the route whose
    runs keep their chain maps."""

    def _local(self, a, b):
        return None


def on_cube(filt):
    """``filt`` with every run on the cube."""
    return CubeFiltration(filt.grades, filt.diagrams, filt.steps, filt.field)


@pytest.fixture
def rng():
    return random.Random(20240817)
