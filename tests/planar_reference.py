"""The closure operator as the package wrote it before it became one trace.

``check_planar`` decided planarity from the cyclic order of the
through-arcs and a gap check per boundary; ``apply_planar`` chased the
glued chains in three loops, marking pieces used and patching up the
images of arcs that stay arcs once the target existed.  They are kept
verbatim as the exact reference for ``tanglekh.diagram``: the new code
must give the same verdicts and the same ``(target, spec)``.
"""

from tanglekh.diagram import (PlanarTangleSpec, TangleDiagram,
                              ValidationReport)
from tanglekh.persistence import ClosureMorphismSpec


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
