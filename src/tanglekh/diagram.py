"""Combinatorial tangle diagrams and their smoothing resolutions.

A diagram is a list of crossings (4 ports each, listed counterclockwise
with ports[0] and ports[2] on the under-strand), a set of connection
pairs wiring ports and boundary endpoints together, and a count of
crossing-free circles.  Boundary endpoints are listed counterclockwise
around the disk.  Planarity of the wiring is not verified; non-planar
inputs are processed formally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


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
        self._wiring = None

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
    """Check the structural invariants; returns a report, never raises."""
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

    return ValidationReport(ok=not problems, problems=tuple(problems))


# -- resolving states ----------------------------------------------------


def walk(d: TangleDiagram, state):
    """Trace the components of one state over the node ranks of
    ``d.wiring()``.

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
    for (a, b, c, e), bit in zip(ports, state):
        if bit:
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

    comp, order, _ = walk(d, state)
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

    r = sum(1 for c in components if c.kind == "circle")
    t = len(components) - r
    return Resolution(state=state, components=tuple(components), r=r, t=t)


# -- 1-input planar tangle operations ------------------------------------


@dataclass(frozen=True)
class PlanarTangleSpec:
    """A crossing-free annular operator: one input hole, one output disk.

    ``arcs`` is a perfect matching on inner hole endpoints plus outer
    boundary endpoints; ``circles`` counts closed curves of the operator.
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

    @classmethod
    def identity(cls, boundary):
        """Each inner point wired straight to the matching outer point."""
        inner = tuple(boundary)
        outer = tuple(("out", b) for b in inner)
        return cls(inner_boundary=inner, outer_boundary=outer,
                   arcs=tuple(zip(inner, outer)), circles=0)


def _noncrossing(seq_positions, pairs):
    """Stack check: chords over a linearly ordered point set."""
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    stack = []
    for p in seq_positions:
        if p not in partner:
            continue
        if stack and stack[-1] == partner[p]:
            stack.pop()
        else:
            stack.append(p)
    return not stack


def check_planar(op: PlanarTangleSpec) -> ValidationReport:
    """Verify the operator's matching is realizable in the annulus."""
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
    if seen != pts:
        problems.append("arcs are not a perfect matching")
    if problems:
        return ValidationReport(False, tuple(problems))

    inner = set(op.inner_boundary)
    through = [(a, b) if a in inner else (b, a)
               for a, b in op.arcs
               if (a in inner) != (b in inner)]
    inner_pos = {p: i for i, p in enumerate(op.inner_boundary)}
    outer_pos = {p: i for i, p in enumerate(op.outer_boundary)}

    if through:
        through.sort(key=lambda ab: inner_pos[ab[0]])
        outs = [outer_pos[b] for _, b in through]
        # outer endpoints must appear in the same cyclic order
        k = len(outs)
        start = outs.index(min(outs))
        rot = outs[start:] + outs[:start]
        if rot != sorted(rot):
            problems.append("through-arcs change cyclic order (not planar)")
        # chords with both ends on one boundary must sit inside a single
        # gap between consecutive through-strands and nest there
        def gap_check(boundary, pos, anchors):
            anchors = sorted(anchors)
            chords = [(a, b) for a, b in op.arcs
                      if a in pos and b in pos and (a, b) not in through
                      and (b, a) not in through]
            def gap_of(i):
                import bisect
                return bisect.bisect_right(anchors, i) % len(anchors)
            by_gap = {}
            for a, b in chords:
                ga, gb = gap_of(pos[a]), gap_of(pos[b])
                if ga != gb:
                    return False
                by_gap.setdefault(ga, []).append((a, b))
            n = len(boundary)
            for g, cs in by_gap.items():
                lo = anchors[g - 1] if g > 0 else anchors[-1]
                seq = [boundary[(lo + 1 + i) % n] for i in range(n)]
                pts_in = [p for p in seq
                          if any(p in ab for ab in cs)]
                if not _noncrossing(pts_in, cs):
                    return False
            return True

        if not gap_check(op.inner_boundary, inner_pos,
                         [inner_pos[a] for a, _ in through]):
            problems.append("inner chords cross a through-arc (not planar)")
        if not gap_check(op.outer_boundary, outer_pos,
                         [outer_pos[b] for _, b in through]):
            problems.append("outer chords cross a through-arc (not planar)")
    else:
        inner_chords = [(a, b) for a, b in op.arcs if a in inner]
        outer_chords = [(a, b) for a, b in op.arcs if a not in inner]
        if not _noncrossing(list(op.inner_boundary), inner_chords):
            problems.append("inner chords cross (not planar)")
        if not _noncrossing(list(op.outer_boundary), outer_chords):
            problems.append("outer chords cross (not planar)")

    return ValidationReport(ok=not problems, problems=tuple(problems))


def apply_planar(op: PlanarTangleSpec, inner: TangleDiagram):
    """Embed ``inner`` into the annular operator ``op``.

    Returns ``(diagram, morphism_registry)`` where the registry records,
    for each portless arc and free circle of the source, its image in the
    target.  The registry is consumed by the persistence module to build
    the induced chain map.
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
    op_edges = [tuple(rename.get(x, x) for x in a) for a in op.arcs]
    inner_eps = set(inner.boundary)

    conn_of = {}
    for pair in inner.connections:
        a, b = pair
        conn_of[a] = (b, pair)
        conn_of[b] = (a, pair)
    oparc_of = {}
    for pair in op_edges:
        a, b = pair
        if a in inner_eps:
            oparc_of[a] = (b, pair)
        if b in inner_eps:
            oparc_of[b] = (a, pair)

    portless = list(inner.portless_arcs())
    portless_index = {pair: i for i, pair in enumerate(portless)}

    new_connections = []
    loops = 0
    arc_images = [None] * len(portless)
    used = set()

    def chase(start, first_hop, stop=None):
        """Follow the alternating chain starting on a diagram connection or
        operator arc; returns (terminal, source portless arcs met).  When
        `stop` is given the chain is a closed loop and the walk ends on
        returning to that endpoint."""
        met = []
        cur, via_conn = start, first_hop
        while True:
            if via_conn:
                other, pair = conn_of[cur]
                used.add(("c", pair))
                if pair in portless_index:
                    met.append(portless_index[pair])
            else:
                other, pair = oparc_of.get(cur, (None, None))
                if pair is None:
                    return cur, met  # cur is not an inner endpoint: terminal
                used.add(("o", pair))
            if other == stop or other not in inner_eps:
                return other, met
            cur, via_conn = other, not via_conn

    # chains starting at non-eliminated nodes: crossing ports
    for pair in inner.connections:
        a, b = pair
        if ("c", pair) in used:
            continue
        if a in inner_eps and b in inner_eps:
            continue  # handled below or via chase from a port chain
        # at least one end is a crossing port
        start = a if a not in inner_eps else b
        other = b if start == a else a
        used.add(("c", pair))
        if other not in inner_eps:
            new_connections.append(pair)
            continue
        term, met = chase(other, False)
        new_connections.append((start, term))
        for j in met:
            arc_images[j] = ("port", start)
    # chains starting at outer endpoints via operator arcs
    for pair in op_edges:
        if ("o", pair) in used:
            continue
        a, b = pair
        if a not in inner_eps and b not in inner_eps:
            used.add(("o", pair))
            new_connections.append(pair)  # brand new portless arc
            continue
        start = a if a not in inner_eps else b
        other = b if start == a else a
        if start in inner_eps:
            continue  # inner-inner operator arc: reached from some chain
        used.add(("o", pair))
        term, met = chase(other, True)
        new_connections.append((start, term))
        # terminal may be a port or an outer endpoint
        for j in met:
            if term in inner_eps:
                raise AssertionError("chain terminated at an inner endpoint")
            arc_images[j] = (("port", term) if inner.is_port(term)
                            else ("chain", start))
    # remaining inner-inner structure: closed loops
    for pair in inner.connections:
        if ("c", pair) not in used and pair[0] in inner_eps:
            used.add(("c", pair))
            j0 = portless_index.get(pair)
            term, met = chase(pair[1], False, stop=pair[0])
            if term != pair[0]:
                # open chain fully inside eliminated nodes cannot happen
                raise AssertionError("unclosed boundary chain")
            circle_idx = inner.free_circles + loops
            loops += 1
            if j0 is not None:
                met.append(j0)
            for j in met:
                arc_images[j] = ("circle", circle_idx)

    target = TangleDiagram(
        boundary=op.outer_boundary,
        crossings=inner.crossings,
        connections=new_connections,
        free_circles=inner.free_circles + loops + op.circles)

    # patch up chain images and indices now that the target exists
    tgt_portless = list(target.portless_arcs())
    def arc_index(label):
        for i, (x, y) in enumerate(tgt_portless):
            if label in (x, y):
                return i
        raise AssertionError(f"no portless arc through {label}")
    final_images = []
    for img in arc_images:
        if img is None:
            raise AssertionError("untracked portless arc")
        if img[0] == "chain":
            final_images.append(("arc", arc_index(img[1])))
        else:
            final_images.append(img)

    spec = ClosureMorphismSpec(
        source=inner, target=target,
        arc_images=tuple(final_images),
        circle_images=tuple(range(inner.free_circles)))
    return target, spec
