"""Combinatorial tangle diagrams and their smoothing resolutions.

A diagram is a list of crossings (4 ports each, listed counterclockwise
with ports[0] and ports[2] on the under-strand), a set of connection
pairs wiring ports and boundary endpoints together, and a count of
crossing-free circles.  Boundary endpoints are listed around the disk,
counterclockwise or clockwise (the homology does not depend on which),
and ``validate`` rejects a wiring that no such disk can hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cube import state_number


# Smoothing convention (``walk``), calibrated so that the one-crossing
# negative kink has a single arc in its 0-state and an arc plus a circle
# in its 1-state:
#   0-smoothing joins (ports[0], ports[3]) and (ports[1], ports[2]),
#   1-smoothing joins (ports[0], ports[1]) and (ports[2], ports[3]).


def _label(x):
    """JSON arrays become tuples so labels stay hashable."""
    return tuple(_label(y) for y in x) if isinstance(x, list) else x


def _integer(x, what):
    """``x`` if it is an int and not a bool, else TypeError naming
    ``what``: no value is coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} {x!r} is not an integer")
    return x


@dataclass(frozen=True)
class Crossing:
    id: int
    ports: tuple
    sign: int

    def __post_init__(self):
        _integer(self.id, "crossing id")
        object.__setattr__(self, "ports", tuple(self.ports))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ComponentRecord:
    """One connected component of a resolution.

    ``ports`` is an ordered walk through the member labels (boundary
    endpoints included); empty for crossing-free circles.
    """

    id: int
    kind: str  # "circle" | "arc"
    ports: tuple
    endpoints: tuple


@dataclass(frozen=True)
class Resolution:
    state: tuple
    components: tuple
    r: int  # circles
    t: int  # arcs

    @property
    def free_circle_indices(self):
        """Component indices of crossing-free circles, in canonical order."""
        return tuple(i for i, c in enumerate(self.components)
                     if c.kind == "circle" and not c.ports)


class TangleDiagram:
    """Immutable crossing/edge encoding of a tangle diagram."""

    def __init__(self, boundary=(), crossings=(), connections=(), free_circles=0):
        self.boundary = tuple(boundary)
        self.crossings = tuple(sorted(
            (c if isinstance(c, Crossing) else Crossing(**c) for c in crossings),
            key=lambda c: c.id))
        self.free_circles = _integer(free_circles, "free_circles")
        self._key = {}
        for i, b in enumerate(self.boundary):
            self._key[b] = (0, i)
        for ci, c in enumerate(self.crossings):
            for pi, p in enumerate(c.ports):
                self._key[p] = (1, ci, pi)
        self.connections = self._normalize_connections(connections)
        self._port_set = {p for c in self.crossings for p in c.ports}
        self._wiring = self._report = None

    def _normalize_connections(self, connections):
        pairs = []
        for pair in connections:
            a, b = pair
            ka = self._key.get(a, (9, str(a)))
            kb = self._key.get(b, (9, str(b)))
            pairs.append((a, b) if ka <= kb else (b, a))
        pairs.sort(key=lambda p: (self._key.get(p[0], (9, str(p[0]))),
                                  self._key.get(p[1], (9, str(p[1])))))
        return tuple(pairs)

    # -- basic accessors -------------------------------------------------

    @property
    def n(self):
        return len(self.crossings)

    @property
    def n_plus(self):
        return sum(1 for c in self.crossings if c.sign > 0)

    @property
    def n_minus(self):
        return sum(1 for c in self.crossings if c.sign < 0)

    def is_port(self, label):
        return label in self._port_set

    def sort_key(self, label):
        """Canonical order on labels: boundary endpoints first (by boundary
        position), then crossing ports (by crossing id, then port slot)."""
        return self._key[label]

    def wiring(self):
        """``(nodes, rank, partner, ports)``, computed once per diagram.

        ``nodes`` lists the labels in canonical order and ``rank`` maps a
        label to its position there.  ``partner[k]`` is the rank of the
        connection partner of node k (-1 if it has none), and ``ports[i]``
        holds the ranks of crossing i's four ports.
        """
        if self._wiring is None:
            nodes = sorted(self._key, key=self._key.__getitem__)
            rank = {x: k for k, x in enumerate(nodes)}
            partner = [-1] * len(nodes)
            for a, b in self.connections:
                partner[rank[a]] = rank[b]
                partner[rank[b]] = rank[a]
            ports = [tuple(rank[x] for x in c.ports) for c in self.crossings]
            self._wiring = (nodes, rank, partner, ports)
        return self._wiring

    def with_circles(self, k):
        """This diagram with k crossing-free circles instead of its own."""
        if k == self.free_circles:
            return self
        return TangleDiagram(self.boundary, self.crossings, self.connections, k)

    def portless_arcs(self):
        """Connection pairs joining two boundary endpoints directly, in
        canonical order.  These are state-independent arc components."""
        out = [p for p in self.connections
               if not self.is_port(p[0]) and not self.is_port(p[1])]
        return tuple(out)

    # -- equality / serialization ----------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TangleDiagram)
                and self.boundary == other.boundary
                and self.crossings == other.crossings
                and self.connections == other.connections
                and self.free_circles == other.free_circles)

    def __hash__(self):
        return hash((self.boundary, self.crossings, self.connections,
                     self.free_circles))

    def __repr__(self):
        return (f"TangleDiagram(boundary={len(self.boundary)}, "
                f"crossings={self.n}, free_circles={self.free_circles})")

    def to_json(self):
        return {
            "boundary": list(self.boundary),
            "crossings": [{"id": c.id, "ports": list(c.ports), "sign": c.sign}
                          for c in self.crossings],
            "connections": [list(p) for p in self.connections],
            "free_circles": self.free_circles,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            boundary=[_label(x) for x in data.get("boundary", ())],
            crossings=[Crossing(id=c["id"],
                                ports=tuple(_label(x) for x in c["ports"]),
                                sign=c["sign"])
                       for c in data.get("crossings", ())],
            connections=[(_label(a), _label(b))
                         for a, b in data.get("connections", ())],
            free_circles=data.get("free_circles", 0))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- validation ----------------------------------------------------------


def validate(d: TangleDiagram) -> ValidationReport:
    """Check the structural invariants; returns a report, never raises.
    The report is computed once per diagram, as ``wiring`` is."""
    if d._report is None:
        d._report = _validate(d)
    return d._report


def _validate(d):
    problems = []
    if len(d.boundary) % 2 != 0:
        problems.append("boundary has odd length")
    if len(set(d.boundary)) != len(d.boundary):
        problems.append("duplicate boundary endpoint labels")
    if d.free_circles < 0:
        problems.append("free_circles < 0")

    seen_ids = set()
    all_ports = []
    for c in d.crossings:
        if c.id in seen_ids:
            problems.append(f"duplicate crossing id {c.id}")
        seen_ids.add(c.id)
        if len(c.ports) != 4 or len(set(c.ports)) != 4:
            problems.append(f"crossing {c.id}: needs 4 distinct ports")
        if c.sign not in (1, -1):
            problems.append(f"crossing {c.id}: sign must be +1 or -1")
        all_ports.extend(c.ports)
    if len(set(all_ports)) != len(all_ports):
        problems.append("port labels not globally unique")
    if set(all_ports) & set(d.boundary):
        problems.append("port label collides with boundary endpoint")

    nodes = set(all_ports) | set(d.boundary)
    seen = {}
    for a, b in d.connections:
        if a == b:
            problems.append(f"connection ({a},{b}) is a fixed point")
        for x in (a, b):
            if x not in nodes:
                problems.append(f"connection endpoint {x} is not a known label")
            if x in seen:
                problems.append(
                    f"connection not an involution: {x} appears twice")
            seen[x] = True
    missing = nodes - set(seen)
    if missing:
        problems.append(
            "labels without a connection: "
            + ", ".join(sorted(map(str, missing))))

    if not problems and not _planar(d):
        problems.append("wiring is not planar (no disk holds it)")
    return ValidationReport(ok=not problems, problems=tuple(problems))


def _planar(d: TangleDiagram):
    """Whether the wiring embeds in the disk: the crossings are vertices
    with their ports counterclockwise, and the boundary shrunk to a point
    is one more, with the endpoints in list order or reversed."""
    _, _, partner, ports = d.wiring()
    m = len(d.boundary)   # the boundary endpoints are node ranks 0..m-1
    turn = list(range(len(partner)))
    for ps in ports:
        for j, x in enumerate(ps):
            turn[x] = ps[(j + 1) % 4]
    for step in (-1, 1):
        turn[:m] = [(k + step) % m for k in range(m)]
        if _genus_zero(partner, turn, len(ports) + (m > 0)):
            return True
    return False


def _genus_zero(partner, turn, vertices):
    """Whether V - E + F = 2 on each connected component of a rotation
    system: darts are paired into edges by ``partner`` and follow each
    other around their vertex by ``turn``, and the faces are the orbits
    of "cross an edge, then turn"."""
    faces = _orbits([turn[y] for y in partner])
    edges = len(partner) // 2
    return vertices - edges + faces == 2 * _orbits(partner, turn)


def _orbits(*perms):
    """The number of orbits of the group that ``perms`` generate."""
    seen, count = set(), 0
    for x in range(len(perms[0])):
        if x not in seen:
            count += 1
            stack = [x]
            while stack:
                y = stack.pop()
                if y not in seen:
                    seen.add(y)
                    stack.extend(perm[y] for perm in perms)
    return count


# -- resolving states ----------------------------------------------------


def walk(d: TangleDiagram, state):
    """Trace the components of state number ``state`` (crossing 0 its
    highest bit) over the node ranks of ``d.wiring()``.

    Returns ``(comp, order, r)``: ``comp[k]`` is the component of node
    rank k, ``order`` lists the ranks component by component in walk
    order, and r counts the circles, free ones included.  A component is
    walked from its smallest rank, first to the smaller of its two
    neighbours, then alternately across a connection and a smoothing, so
    components are numbered by their smallest rank.  Ranks below
    ``len(d.boundary)`` start the arcs, which therefore come first:
    component i < t = len(d.boundary) // 2 is an arc and the others are
    circles, crossing-free circles last after the node components.
    """
    _, _, partner, ports = d.wiring()
    smoothed = [-1] * len(partner)   # rank -> rank across its smoothing
    for i, (a, b, c, e) in enumerate(ports):
        if state >> (d.n - 1 - i) & 1:
            smoothed[a], smoothed[b], smoothed[c], smoothed[e] = b, a, e, c
        else:
            smoothed[a], smoothed[e], smoothed[b], smoothed[c] = e, a, c, b
    hops = (partner, smoothed)
    comp = [-1] * len(partner)
    order = []
    count = 0
    for start, done in enumerate(comp):
        if done >= 0:
            continue
        comp[start] = count
        order.append(start)
        x, y = partner[start], smoothed[start]
        h = 1 if y >= 0 and (x < 0 or y < x) else 0
        cur = start
        while True:
            cur = hops[h][cur]
            if cur < 0 or comp[cur] >= 0:   # closed up or hit the far end
                break
            comp[cur] = count
            order.append(cur)
            h ^= 1
        count += 1
    return comp, order, count - len(d.boundary) // 2 + d.free_circles


def resolve(d: TangleDiagram, state) -> Resolution:
    """Replace every crossing by its smoothing and trace components.

    ``state`` gives one bit per crossing in ascending crossing-id order.
    Components come out in canonical order, sorted by their smallest
    member label, free circles last; each lists its labels in the order
    ``walk`` visits them.
    """
    state = tuple(int(b) for b in state)
    if len(state) != d.n:
        raise ValueError(f"state length {len(state)} != {d.n} crossings")

    comp, order, r = walk(d, state_number(state))
    nodes = d.wiring()[0]
    paths = []
    for k in order:
        if comp[k] == len(paths):
            paths.append([])
        paths[-1].append(nodes[k])
    boundary = set(d.boundary)
    components = []
    for path in paths:
        eps = tuple(x for x in path if x in boundary)
        components.append(ComponentRecord(
            id=len(components), kind="arc" if eps else "circle",
            ports=tuple(path), endpoints=eps))
    for _ in range(d.free_circles):
        components.append(ComponentRecord(
            id=len(components), kind="circle", ports=(), endpoints=()))

    return Resolution(state=state, components=tuple(components), r=r,
                      t=len(components) - r)


# -- 1-input planar tangle operations ------------------------------------


@dataclass(frozen=True)
class PlanarTangleSpec:
    """A crossing-free annular operator: one input hole, one output disk.

    ``arcs`` is a perfect matching on inner hole endpoints plus outer
    boundary endpoints; ``circles``, an int >= 0, counts its closed curves.
    Inner and outer boundaries are listed counterclockwise.
    """

    inner_boundary: tuple
    outer_boundary: tuple
    arcs: tuple
    circles: int = 0

    def __post_init__(self):
        object.__setattr__(self, "inner_boundary", tuple(self.inner_boundary))
        object.__setattr__(self, "outer_boundary", tuple(self.outer_boundary))
        object.__setattr__(self, "arcs",
                           tuple(tuple(a) for a in self.arcs))
        if _integer(self.circles, "operator circles") < 0:
            raise ValueError(f"operator circles {self.circles} < 0")

    @classmethod
    def identity(cls, boundary):
        """Each inner point wired straight to the matching outer point."""
        inner = tuple(boundary)
        outer = tuple(("out", b) for b in inner)
        return cls(inner_boundary=inner, outer_boundary=outer,
                   arcs=tuple(zip(inner, outer)), circles=0)


def check_planar(op: PlanarTangleSpec) -> ValidationReport:
    """Verify the operator's matching is realizable in the annulus: with
    the hole and the outer circle each shrunk to a point, the arcs must
    make a rotation system of genus 0."""
    problems = []
    pts = set(op.inner_boundary) | set(op.outer_boundary)
    seen = set()
    for a, b in op.arcs:
        if a == b:
            problems.append(f"arc ({a},{b}) is degenerate")
        for x in (a, b):
            if x not in pts:
                problems.append(f"arc endpoint {x} not on either boundary")
            if x in seen:
                problems.append(f"endpoint {x} used by two arcs")
            seen.add(x)
    if seen != pts or len(pts) < len(op.inner_boundary + op.outer_boundary):
        problems.append("arcs are not a perfect matching of distinct points")
    if problems:
        return ValidationReport(False, tuple(problems))

    ins, outs = op.inner_boundary, op.outer_boundary
    rank = {x: k for k, x in enumerate(ins + outs)}
    partner = [0] * len(rank)
    for a, b in op.arcs:
        partner[rank[a]], partner[rank[b]] = rank[b], rank[a]
    n, m = len(ins), len(outs)
    # seen from the annulus the outer circle runs the other way round
    turn = ([(k + 1) % n for k in range(n)]
            + [n + (k - 1) % m for k in range(m)])
    planar = _genus_zero(partner, turn, (n > 0) + (m > 0))
    return ValidationReport(planar, () if planar
                            else ("arcs cross (not planar)",))


def apply_planar(op: PlanarTangleSpec, inner: TangleDiagram):
    """Embed ``inner`` into the annular operator ``op``.

    Returns ``(target, spec)``, ``spec`` the ``ClosureMorphismSpec`` of
    the closure.  Glued to the inner connections, the operator's arcs
    leave each label at most two edges, so the paths and cycles they make
    are traced once.  Paths, from ports in connection order and then from
    outer points, are the target's connections; cycles are its new free
    circles.  A portless arc on a path from a port goes to ("port", that
    port), on another path to ("arc", i), on a cycle to ("circle", i).
    """
    from .persistence import ClosureMorphismSpec

    if len(op.inner_boundary) != len(inner.boundary):
        raise ValueError(
            f"operator hole size {len(op.inner_boundary)} != "
            f"inner boundary size {len(inner.boundary)}")
    rep = check_planar(op)
    if not rep.ok:
        raise ValueError("operator not planar: " + "; ".join(rep.problems))

    # identify the operator's inner labels with the diagram's boundary
    clash = set(op.outer_boundary) & (set(inner.boundary)
                                      | {x for p in inner.connections
                                         for x in p})
    if clash:
        raise ValueError(f"outer labels collide with inner diagram: {clash}")
    rename = dict(zip(op.inner_boundary, inner.boundary))
    hole = set(inner.boundary)
    edges = ({}, {})   # label -> partner across a connection, an operator arc
    op_arcs = [(rename.get(a, a), rename.get(b, b)) for a, b in op.arcs]
    for h, pairs in enumerate((inner.connections, op_arcs)):
        for a, b in pairs:
            edges[h][a], edges[h][b] = b, a
    portless = inner.portless_arcs()
    arc_of = {x: j for j, pair in enumerate(portless) for x in pair}
    images, ends = [None] * len(portless), set()

    def trace(x, h, image):
        """Walk from x, first across an edge of kind h, to the far end of
        its path (added to ``ends``) or back to x, sending every portless
        arc on the way to ``image``; returns where the walk stopped."""
        y = x
        while True:
            if not h and y in arc_of:
                images[arc_of[y]] = image
            y, h = edges[h][y], 1 - h
            if y == x or y not in hole:
                ends.add(y)
                return y

    # once every port end is traced, a path from an outer point ends at one;
    # started in boundary order, the k-th is the target's k-th portless arc
    connections = [(x, trace(x, 0, ("port", x)))
                   for pair in inner.connections for x in pair
                   if inner.is_port(x) and x not in ends]
    arcs = []
    for x in op.outer_boundary:
        if x not in ends:
            arcs.append((x, trace(x, 1, ("arc", len(arcs)))))
    free = inner.free_circles
    for j, (a, _) in enumerate(portless):
        if images[j] is None:
            trace(a, 0, ("circle", free))
            free += 1

    target = TangleDiagram(boundary=op.outer_boundary,
                           crossings=inner.crossings,
                           connections=connections + arcs,
                           free_circles=free + op.circles)
    return target, ClosureMorphismSpec(
        source=inner, target=target, arc_images=tuple(images),
        circle_images=tuple(range(inner.free_circles)))
