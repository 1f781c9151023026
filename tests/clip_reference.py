"""Clipping as the package wrote it before it became one sweep per strand.

``clip`` handled closed and open strands in two copies, tested only
vertex 0 against the clip circle, and built each crossing's ports
through a slot array.  It is kept verbatim as the exact reference for
``tanglekh.ingest.clip``: wherever no vertex lies on the clip circle,
the new code must give the same pieces, diagram, arc pieces and free
circles, or raise ``GenericityError`` where this does.
"""

import math

from tanglekh.diagram import Crossing, TangleDiagram
from tanglekh.ingest import (ClipResult, GenericityError, Piece,
                             PlanarArrangement, _circle_hits)


def clip(pa: PlanarArrangement, center, radius):
    """The tangle diagram inside the disk of the given radius.

    Returns a ClipResult carrying the component registry used to build
    closure morphisms between nested clips.
    """
    cx, cy = center
    tol = pa.tol
    for c in pa.crossings:
        d = math.hypot(c.pos[0] - cx, c.pos[1] - cy)
        if abs(d - radius) <= tol * max(1.0, radius):
            raise GenericityError(
                f"clip radius {radius} passes through a crossing",
                location=c.pos)

    included = [k for k, c in enumerate(pa.crossings)
                if math.hypot(c.pos[0] - cx, c.pos[1] - cy) < radius]
    passages = {}  # strand -> list of (param, crossing index, role)
    for k in included:
        c = pa.crossings[k]
        passages.setdefault(c.under[0], []).append((c.under[1], k, "under"))
        passages.setdefault(c.over[0], []).append((c.over[1], k, "over"))

    pieces = []
    ranges = pa.distance_ranges(center)
    for si, strand in enumerate(pa.strands):
        cuts = []
        for i, (lo, hi) in enumerate(ranges[si]):
            if lo <= radius <= hi:
                cuts.extend(i + t
                            for t in _circle_hits(strand, i, center, radius))
        dist0 = math.hypot(strand.points[0][0] - cx,
                           strand.points[0][1] - cy)
        if abs(dist0 - radius) <= tol * max(1.0, radius):
            raise GenericityError("clip circle passes through a vertex",
                                  location=strand.points[0])
        if not cuts:
            if dist0 < radius:
                if not strand.closed:
                    raise GenericityError(
                        "open curve endpoint inside the clip disk",
                        location=strand.points[0])
                ps = tuple(sorted(passages.get(si, ())))
                pieces.append(Piece(strand=si, lo=0.0,
                                    hi=float(strand.nseg),
                                    whole=True, passages=ps))
            continue
        inside0 = dist0 < radius
        nseg = strand.nseg
        if strand.closed:
            ivals = []
            flag = inside0
            prev = 0.0
            for t in cuts:
                if flag:
                    ivals.append((prev, t))
                prev = t
                flag = not flag
            if flag:
                if ivals and ivals[0][0] == 0.0:
                    first = ivals.pop(0)
                    ivals.append((prev, first[1] + nseg))
                else:
                    ivals.append((prev, float(nseg)))
            for lo, hi in ivals:
                ps = tuple(sorted(
                    (t if t >= lo else t + nseg, k, role)
                    for t, k, role in passages.get(si, ())
                    if lo <= t <= hi or lo <= t + nseg <= hi))
                pieces.append(Piece(strand=si, lo=lo, hi=hi, whole=False,
                                    passages=ps))
        else:
            if inside0:
                raise GenericityError(
                    "open curve endpoint inside the clip disk",
                    location=strand.points[0])
            endd = math.hypot(strand.points[-1][0] - cx,
                              strand.points[-1][1] - cy)
            if endd < radius:
                raise GenericityError(
                    "open curve endpoint inside the clip disk",
                    location=strand.points[-1])
            for j in range(0, len(cuts) - 1, 2):
                lo, hi = cuts[j], cuts[j + 1]
                ps = tuple(sorted(
                    (t, k, role) for t, k, role in passages.get(si, ())
                    if lo <= t <= hi))
                pieces.append(Piece(strand=si, lo=lo, hi=hi, whole=False,
                                    passages=ps))
    pieces.sort(key=lambda p: (p.strand, p.lo))

    # assemble the diagram
    crossings = []
    for k in included:
        c = pa.crossings[k]
        slots = [None] * 4
        slots[0] = ("x", k, 0)
        slots[2] = ("x", k, 2)
        slots[c.over_in_slot] = ("x", k, c.over_in_slot)
        out_slot = 4 - c.over_in_slot  # 1 <-> 3
        slots[out_slot] = ("x", k, out_slot)
        crossings.append(Crossing(id=k, ports=tuple(slots), sign=c.sign))

    def port_pair(k, role):
        c = pa.crossings[k]
        if role == "under":
            return ("x", k, 0), ("x", k, 2)
        return ("x", k, c.over_in_slot), ("x", k, 4 - c.over_in_slot)

    boundary_pts = []   # (angle, label)
    connections = []
    free_strands = []
    for pi, piece in enumerate(pieces):
        strand = pa.strands[piece.strand]
        if piece.whole and not piece.passages:
            free_strands.append(piece.strand)
            continue
        walk = []
        if not piece.whole:
            for which, t in (("in", piece.lo), ("out", piece.hi)):
                x, y = strand.at(t % strand.nseg if t >= strand.nseg else t)
                ang = math.atan2(y - cy, x - cx)
                label = ("bd", pi, which)
                boundary_pts.append((ang, label))
            walk.append(("bd", pi, "in"))
        for t, k, role in piece.passages:
            pin, pout = port_pair(k, role)
            walk.append(pin)
            walk.append(pout)
        if not piece.whole:
            walk.append(("bd", pi, "out"))
        # pair consecutive out/in nodes
        if piece.whole:
            seq = walk
            m = len(seq)
            for j in range(1, m, 2):
                connections.append((seq[j], seq[(j + 1) % m]))
        else:
            for j in range(0, len(walk), 2):
                connections.append((walk[j], walk[j + 1]))

    boundary_pts.sort()
    if any(abs(a1 - a2) <= tol
           for (a1, _), (a2, _) in zip(boundary_pts, boundary_pts[1:])):
        raise GenericityError("two boundary endpoints at the same angle")
    diagram = TangleDiagram(
        boundary=tuple(lbl for _, lbl in boundary_pts),
        crossings=crossings,
        connections=connections,
        free_circles=len(free_strands))

    arc_pieces = {}
    eps = {frozenset(pair): i for i, pair in enumerate(diagram.portless_arcs())}
    for pi, piece in enumerate(pieces):
        if piece.whole or piece.passages:
            continue
        key = frozenset((("bd", pi, "in"), ("bd", pi, "out")))
        arc_pieces[eps[key]] = piece
    return ClipResult(diagram=diagram, pieces=pieces,
                      arc_pieces=arc_pieces, circle_strands=free_strands)
