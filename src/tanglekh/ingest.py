"""3-D curves to disk-radius filtrations of tangle diagrams.

Curves are projected along an axis; crossings are detected as transverse
double points with over/under read off the depth coordinate.  Growing
disks about a center clip the arrangement into tangle diagrams, and the
tracked strand pieces give closure morphisms between consecutive clips.
Crossing births (and piece merges) break the filtration into runs, since
no induced chain map is defined across a changing crossing set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from .diagram import Crossing, TangleDiagram
from .persistence import ClosureMorphismSpec, Filtration


class GenericityError(ValueError):
    """Non-generic geometry within tolerance; carries a location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class Polyline:
    points: tuple  # 3-D points
    closed: bool

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple(tuple(map(float, p)) for p in self.points))
        if not isinstance(self.closed, bool):
            raise ValueError(f"polyline 'closed' must be true or false, "
                             f"not {self.closed!r}")
        if len(self.points) < 2 + self.closed:   # 3 if closed
            raise ValueError(f"polyline needs {2 + self.closed}+ points")
        if any(len(p) != 3 for p in self.points):
            raise ValueError("polyline points need 3 coordinates")
        # beyond this, squared coordinate differences overflow a float;
        # NaN and inf fail the comparison too
        if not all(abs(x) <= 1e150 for p in self.points for x in p):
            raise ValueError("polyline coordinates must be finite and at "
                             "most 1e150 in magnitude")


@dataclass(frozen=True)
class CurveSet:
    curves: tuple
    axis: str = "z"
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"unknown projection axis {self.axis!r}")

    @classmethod
    def from_json(cls, data):
        return cls(curves=tuple(
            Polyline(points=c["points"], closed=c.get("closed", False))
            for c in data["curves"]),
            axis=data.get("axis", "z"),
            center=tuple(data.get("center", (0.0, 0.0))))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


_PLANE = {"z": (0, 1, 2), "x": (1, 2, 0), "y": (2, 0, 1)}


@dataclass
class Strand:
    """A projected polyline: plane points plus a depth per vertex."""

    points: list   # 2-D
    depths: list
    closed: bool

    @property
    def nseg(self):
        return len(self.points) if self.closed else len(self.points) - 1

    def seg(self, i):
        a = self.points[i]
        b = self.points[(i + 1) % len(self.points)]
        return a, b

    def _locate(self, t):
        """(i, f): parameter t lies at fraction f along segment i."""
        i = min(int(t), self.nseg - 1)
        return i, t - i

    def at(self, t):
        i, f = self._locate(t)
        a, b = self.seg(i)
        return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))

    def depth_at(self, t):
        i, f = self._locate(t)
        d0, d1 = self.depths[i], self.depths[(i + 1) % len(self.depths)]
        return d0 + f * (d1 - d0)

    def dir_at(self, t):
        a, b = self.seg(self._locate(t)[0])
        return (b[0] - a[0], b[1] - a[1])


@dataclass(frozen=True)
class CrossingRecord:
    pos: tuple
    under: tuple    # (strand index, parameter)
    over: tuple
    sign: int

    @property
    def over_in_slot(self):
        """1 or 3: the port slot the over-strand enters at, counterclockwise
        from the under-strand's entry at 0 (its exit is 2); 1 iff sign +1."""
        return 1 if self.sign > 0 else 3


# Rounding margin, relative to a segment's size and position, added to
# the tolerance bands that decide which segment pairs are tested and
# which segments a clip circle can cross; about the square root of the
# double precision unit roundoff.
_MARGIN = 2.0 ** -26


@dataclass
class PlanarArrangement:
    strands: list
    crossings: list
    tol: float
    _ranges: dict = dc_field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def distance_ranges(self, center):
        """Per strand, per segment: (lo, hi) bounding the segment's
        distance from ``center``, widened by tol and the rounding margin.

        A clip circle of radius outside [lo, hi] cannot cross the segment.
        Computed once per centre.
        """
        key = tuple(center)
        if key not in self._ranges:
            cx, cy = key
            self._ranges[key] = [
                [_distance_range(*s.seg(i), cx, cy, self.tol)
                 for i in range(s.nseg)]
                for s in self.strands]
        return self._ranges[key]


def _distance_range(a, b, cx, cy, tol):
    hi = max(math.hypot(a[0] - cx, a[1] - cy), math.hypot(b[0] - cx,
                                                         b[1] - cy))
    pad = (tol + _MARGIN) * max(1.0, hi, abs(cx), abs(cy))
    return _segment_distance((cx, cy), a, b) - pad, hi + pad


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _seg_intersection(p1, p2, p3, p4, tol):
    """Parameters (t, u) of the transverse intersection, or None.

    Raises GenericityError when the segments meet at an endpoint, or are
    parallel within tol and overlap or touch along a common line.
    """
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = _cross2(d1, d2)
    diag = max(abs(x) for x in d1 + d2) or 1.0
    if abs(den) <= tol * diag * diag:
        # parallel: collinear overlap puts an endpoint of one segment
        # within tol times the other's extent of the other
        for q, a, b in ((p3, p1, p2), (p4, p1, p2),
                        (p1, p3, p4), (p2, p3, p4)):
            reach = tol * max(abs(b[0] - a[0]), abs(b[1] - a[1]))
            if _segment_distance(q, a, b) <= reach:
                raise GenericityError("collinear segments overlap",
                                      location=q)
        return None
    w = (p3[0] - p1[0], p3[1] - p1[1])
    t = _cross2(w, d2) / den
    u = _cross2(w, d1) / den
    if -tol < t < 1 + tol and -tol < u < 1 + tol:
        if not (tol < t < 1 - tol and tol < u < 1 - tol):
            raise GenericityError(
                "segment intersection at an endpoint (tangential or "
                "shared-vertex crossing)",
                location=(p1[0] + t * d1[0], p1[1] + t * d1[1]))
        return t, u
    return None


def _segment_distance(q, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    f = 0.0 if L2 == 0 else min(1.0, max(0.0, ((q[0] - a[0]) * dx
                                               + (q[1] - a[1]) * dy) / L2))
    return math.hypot(a[0] + f * dx - q[0], a[1] + f * dy - q[1])


def _candidate_pairs(ends, tol):
    """Segment index pairs (a, b), a < b, in ascending order, whose
    padded bounding boxes overlap.

    A box is padded by tol times its segment's extent, which holds every
    point _seg_intersection can accept on that segment, plus the rounding
    margin; so every pair on which it returns or raises is listed.  Boxes
    are clipped to the hull of all points, which keeps each overlap, and
    hashed into a uniform grid.  The cell starts at the mean segment
    extent and doubles until the boxes cover at most 4 cells per segment
    in total, so no input costs more than testing every pair.
    """
    n = len(ends)
    x0 = min(min(a[0], b[0]) for a, b in ends)
    x1 = max(max(a[0], b[0]) for a, b in ends)
    y0 = min(min(a[1], b[1]) for a, b in ends)
    y1 = max(max(a[1], b[1]) for a, b in ends)
    boxes = []
    total = 0.0
    for (ax, ay), (bx, by) in ends:
        ext = max(abs(bx - ax), abs(by - ay))
        pad = tol * ext + _MARGIN * (ext + max(abs(ax), abs(ay),
                                               abs(bx), abs(by)))
        boxes.append((max(x0, min(ax, bx) - pad), min(x1, max(ax, bx) + pad),
                      max(y0, min(ay, by) - pad), min(y1, max(ay, by) + pad)))
        total += ext
    # at least 1/n of the hull, so cell indices stay below n + 1
    cell = max(total / n, (x1 - x0) / n, (y1 - y0) / n) or 1.0
    while True:
        spans = [(int((bx0 - x0) / cell), int((bx1 - x0) / cell),
                  int((by0 - y0) / cell), int((by1 - y0) / cell))
                 for bx0, bx1, by0, by1 in boxes]
        if sum((i1 - i0 + 1) * (j1 - j0 + 1)
               for i0, i1, j0, j1 in spans) <= 4 * n:
            break
        cell *= 2
    grid = {}
    for a, (i0, i1, j0, j1) in enumerate(spans):
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                grid.setdefault((i, j), []).append(a)
    for a, (i0, i1, j0, j1) in enumerate(spans):
        near = set()
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                near.update(grid[i, j])
        ax0, ax1, ay0, ay1 = boxes[a]
        for b in sorted(b for b in near if b > a):
            bx0, bx1, by0, by1 = boxes[b]
            if bx0 <= ax1 and ax0 <= bx1 and by0 <= ay1 and ay0 <= by1:
                yield a, b


def _reject_triple_points(raw, tol):
    """Raise at the first crossing, in detection order, that lies within
    10 tol of another; crossings are scanned in x order, in a window."""
    reach = tol * 10
    order = sorted(range(len(raw)), key=lambda i: raw[i][2][0])
    first = len(raw)
    for k, i in enumerate(order):
        xi, yi = raw[i][2]
        for m in range(k + 1, len(order)):
            j = order[m]
            xj, yj = raw[j][2]
            if xj - xi > reach:   # hypot(dx, dy) >= |dx|
                break
            if math.hypot(xi - xj, yi - yj) <= reach:
                first = min(first, i, j)
    if first < len(raw):
        raise GenericityError("two crossings coincide (triple point)",
                              location=raw[first][2])


def project_and_detect(c: CurveSet, tol=1e-9) -> PlanarArrangement:
    """Project the curves and find all transverse crossings.

    Over-strand is the one with the greater depth coordinate; the sign is
    +1 when the frame (under direction, over direction) is positively
    oriented in the projection plane.  Only segment pairs whose padded
    boxes overlap are tested, in ascending order, so crossings and the
    first genericity error are those of testing every pair.
    """
    if not c.curves:
        raise ValueError("curve set is empty")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, "
                         f"got {tol}")
    ix, iy, iz = _PLANE[c.axis]
    strands = []
    for poly in c.curves:
        strands.append(Strand(points=[(p[ix], p[iy]) for p in poly.points],
                              depths=[p[iz] for p in poly.points],
                              closed=poly.closed))

    segs = [(si, k) for si, s in enumerate(strands) for k in range(s.nseg)]
    ends = [strands[si].seg(k) for si, k in segs]
    raw = []
    for a, b in _candidate_pairs(ends, tol):
        s1, k1 = segs[a]
        s2, k2 = segs[b]
        if s1 == s2:
            st1 = strands[s1]
            adj = abs(k1 - k2) == 1 or (
                st1.closed and {k1, k2} == {0, st1.nseg - 1})
            if adj:
                continue
        p1, p2 = ends[a]
        p3, p4 = ends[b]
        hit = _seg_intersection(p1, p2, p3, p4, tol)
        if hit is None:
            continue
        t, u = hit
        raw.append(((s1, k1 + t), (s2, k2 + u),
                    (p1[0] + t * (p2[0] - p1[0]),
                     p1[1] + t * (p2[1] - p1[1]))))
    _reject_triple_points(raw, tol)

    crossings = []
    for (sa, ta), (sb, tb), pos in raw:
        da = strands[sa].depth_at(ta)
        db = strands[sb].depth_at(tb)
        scale = max(abs(da), abs(db), 1.0)
        if abs(da - db) <= tol * scale:
            raise GenericityError(
                f"equal depths at crossing {pos}", location=pos)
        if da > db:
            over, under = (sa, ta), (sb, tb)
        else:
            over, under = (sb, tb), (sa, ta)
        du = strands[under[0]].dir_at(under[1])
        do = strands[over[0]].dir_at(over[1])
        sign = 1 if _cross2(du, do) > 0 else -1
        crossings.append(CrossingRecord(pos=pos, under=under, over=over,
                                        sign=sign))
    crossings.sort(key=lambda c: (c.under, c.over))
    return PlanarArrangement(strands=strands, crossings=crossings, tol=tol)


# -- critical radii ------------------------------------------------------


@dataclass(frozen=True)
class FiltrationEvent:
    radius: float
    cause: str
    where: tuple


def _strand_distance_profile(strand: Strand, center):
    """(parameter, distance) at every vertex and interior foot point.

    Between consecutive entries the distance is monotone, so the local
    extrema of this list are exactly those of the strand.
    """
    cx, cy = center
    out = []
    for i in range(strand.nseg):
        a, b = strand.seg(i)
        out.append((float(i), math.hypot(a[0] - cx, a[1] - cy)))
        dx, dy = b[0] - a[0], b[1] - a[1]
        L2 = dx * dx + dy * dy
        if L2 > 0:
            tf = ((cx - a[0]) * dx + (cy - a[1]) * dy) / L2
            if 0 < tf < 1:
                fx, fy = a[0] + tf * dx, a[1] + tf * dy
                out.append((i + tf, math.hypot(fx - cx, fy - cy)))
    if not strand.closed:
        p = strand.points[-1]
        out.append((float(strand.nseg), math.hypot(p[0] - cx, p[1] - cy)))
    return out


def _local_extrema(profile, closed, tol):
    """(parameter, distance, 'min'|'max') entries of a distance profile."""
    n = len(profile)
    vals = [d for _, d in profile]
    spread = max(vals) - min(vals)
    if spread <= tol * max(1.0, max(vals)):
        # constant distance (circle about the center)
        return [(profile[0][0], vals[0], "const")]
    out = []
    idxs = range(n) if closed else range(1, n - 1)
    for i in idxs:
        prev = vals[(i - 1) % n]
        nxt = vals[(i + 1) % n]
        # skip plateaus by walking to the nearest differing neighbor
        k = (i - 1) % n
        while abs(prev - vals[i]) <= tol and k != i:
            k = (k - 1) % n if closed else max(k - 1, 0)
            prev = vals[k]
            if not closed and k == 0 and abs(prev - vals[i]) <= tol:
                break
        if vals[i] > prev and vals[i] > nxt:
            out.append((profile[i][0], vals[i], "max"))
        elif vals[i] < prev and vals[i] < nxt:
            out.append((profile[i][0], vals[i], "min"))
    if not closed:
        for i in (0, n - 1):
            j = 1 if i == 0 else n - 2
            kind = "max" if vals[i] > vals[j] else "min"
            out.append((profile[i][0], vals[i], kind))
    return out


_FLAT_TOL = 1e-3


def critical_radii(pa: PlanarArrangement, center):
    """Events at crossing distances and strand distance extrema, sorted.

    Extrema of one strand whose radii agree within ``_FLAT_TOL``
    (relative) are merged into a single event; this collapses the
    sampling wiggle of polylines approximating curves at locally constant
    distance.
    """
    cx, cy = center
    events = []
    for c in pa.crossings:
        events.append(FiltrationEvent(
            radius=math.hypot(c.pos[0] - cx, c.pos[1] - cy),
            cause="crossing enters disk", where=c.pos))
    for si, strand in enumerate(pa.strands):
        prof = _strand_distance_profile(strand, center)
        ext = _local_extrema(prof, strand.closed, pa.tol)
        if not ext:
            continue
        ext.sort(key=lambda e: e[1])
        clusters = [[ext[0]]]
        for e in ext[1:]:
            if e[1] - clusters[-1][-1][1] <= _FLAT_TOL * max(1.0, e[1]):
                clusters[-1].append(e)
            else:
                clusters.append([e])
        gmin = ext[0][1]
        gmax = ext[-1][1]
        for cl in clusters:
            lo, hi = cl[0][1], cl[-1][1]
            is_min = lo <= gmin
            is_max = hi >= gmax
            if is_max and strand.closed:
                cause = "component fully enclosed"
                radius = hi
            elif is_min:
                cause = "component first enters"
                radius = lo
            else:
                cause = "boundary-endpoint count changes"
                radius = (lo + hi) / 2.0
            events.append(FiltrationEvent(radius=radius, cause=cause,
                                          where=strand.at(cl[0][0])))
    events.sort(key=lambda e: e.radius)
    return events


def sample_grades(events):
    """Midpoints between consecutive event radii, plus one below the
    first and one above the last."""
    if not events:
        return [1.0]
    radii = []
    for e in events:
        if not radii or e.radius - radii[-1] > 1e-12:
            radii.append(e.radius)
    grades = [radii[0] / 2.0]
    for a, b in zip(radii, radii[1:]):
        grades.append((a + b) / 2.0)
    grades.append(radii[-1] + max(radii[-1], 1.0) / 2.0)
    return grades


# -- clipping ------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """A maximal parameter interval of one strand inside the disk."""

    strand: int
    lo: float
    hi: float          # hi may exceed nseg on wrapped closed pieces
    whole: bool        # entire closed strand inside
    passages: tuple    # (parameter, crossing index, "under"|"over")

    def contains(self, t, nseg):
        if self.whole:
            return True
        if self.lo <= t <= self.hi:
            return True
        return self.hi > nseg and self.lo <= t + nseg <= self.hi


@dataclass
class ClipResult:
    diagram: TangleDiagram
    pieces: list            # all pieces, in (strand, lo) order
    arc_pieces: dict        # portless-arc canonical index -> piece
    circle_strands: list    # free-circle canonical index -> strand index


def _circle_hits(strand: Strand, i, center, radius):
    """Parameters in (0, 1) where segment i crosses the clip circle."""
    a, b = strand.seg(i)
    cx, cy = center
    dx, dy = b[0] - a[0], b[1] - a[1]
    fx, fy = a[0] - cx, a[1] - cy
    A = dx * dx + dy * dy
    B = 2 * (fx * dx + fy * dy)
    C = fx * fx + fy * fy - radius * radius
    if A == 0:
        return []
    disc = B * B - 4 * A * C
    if disc <= 0:
        return []
    sq = math.sqrt(disc)
    return sorted(t for t in ((-B - sq) / (2 * A), (-B + sq) / (2 * A))
                  if 0 < t < 1)


def clip(pa: PlanarArrangement, center, radius):
    """The tangle diagram inside the disk of the given radius.

    Each strand is swept once.  Every crossing, every vertex that starts
    a segment the circle can meet, and the last point of an open strand
    must lie off the circle by more than tol·max(1, radius); so the cuts
    alternate between entering and leaving the disk, starting from the
    side vertex 0 is on.  A closed strand inside at vertex 0 wraps its
    last interval into its first, and one without cuts is a whole piece;
    an open strand must start and end outside.  Returns a ClipResult
    carrying the component registry used to build closure morphisms
    between nested clips.
    """
    cx, cy = center
    slack = pa.tol * max(1.0, radius)

    def dist(p):
        return math.hypot(p[0] - cx, p[1] - cy)

    for c in pa.crossings:
        if abs(dist(c.pos) - radius) <= slack:
            raise GenericityError(
                f"clip radius {radius} passes through a crossing",
                location=c.pos)

    included = [k for k, c in enumerate(pa.crossings)
                if dist(c.pos) < radius]
    passages = {}  # strand -> list of (param, crossing index, role)
    for k in included:
        c = pa.crossings[k]
        passages.setdefault(c.under[0], []).append((c.under[1], k, "under"))
        passages.setdefault(c.over[0], []).append((c.over[1], k, "over"))

    pieces = []
    for si, (strand, ranges) in enumerate(zip(pa.strands,
                                              pa.distance_ranges(center))):
        pts, nseg = strand.points, strand.nseg
        near = [i for i, (lo, hi) in enumerate(ranges) if lo <= radius <= hi]
        for i in near if strand.closed else near + [nseg]:
            if abs(dist(pts[i]) - radius) <= slack:
                raise GenericityError("clip circle passes through a vertex",
                                      location=pts[i])
        cuts = [i + t for i in near
                for t in _circle_hits(strand, i, center, radius)]
        inside = dist(pts[0]) < radius
        if not strand.closed and (inside or len(cuts) % 2):
            raise GenericityError("open curve endpoint inside the clip disk",
                                  location=pts[0] if inside else pts[-1])
        whole = not cuts
        if inside:
            cuts = cuts[1:] + [cuts[0] + nseg] if cuts else [0.0, float(nseg)]
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            ps = tuple(sorted(
                (t if t >= lo else t + nseg, k, role)
                for t, k, role in passages.get(si, ())
                if lo <= t <= hi or lo <= t + nseg <= hi))
            pieces.append(Piece(strand=si, lo=lo, hi=hi, whole=whole,
                                passages=ps))
    pieces.sort(key=lambda p: (p.strand, p.lo))

    # assemble the diagram
    crossings = [Crossing(id=k, ports=tuple(("x", k, s) for s in range(4)),
                          sign=pa.crossings[k].sign) for k in included]
    boundary_pts = []   # (angle, label)
    connections = []
    free_strands = []
    for pi, piece in enumerate(pieces):
        walk = []   # a passage enters at its slot s and leaves at s + 2
        for _, k, role in piece.passages:
            s = 0 if role == "under" else pa.crossings[k].over_in_slot
            walk += [("x", k, s), ("x", k, (s + 2) % 4)]
        if piece.whole:
            if not walk:
                free_strands.append(piece.strand)
                continue
            walk = walk[1:] + walk[:1]   # each exit meets the next entry
        else:
            strand = pa.strands[piece.strand]
            ends = [("bd", pi, "in"), ("bd", pi, "out")]
            for label, t in zip(ends, (piece.lo, piece.hi)):
                x, y = strand.at(t % strand.nseg)
                boundary_pts.append((math.atan2(y - cy, x - cx), label))
            walk = ends[:1] + walk + ends[1:]
        connections += zip(walk[::2], walk[1::2])

    boundary_pts.sort()
    if any(abs(a1 - a2) <= pa.tol
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


# -- filtration assembly -------------------------------------------------


def _match_piece(piece: Piece, target: ClipResult, nseg):
    """The target piece containing the source piece, if unique."""
    hits = [q for q in target.pieces
            if q.strand == piece.strand
            and q.contains(piece.lo % nseg if piece.lo >= nseg else piece.lo,
                           nseg)]
    return hits[0] if len(hits) == 1 else None


def build_filtration(pa: PlanarArrangement, center, grades) -> Filtration:
    """Clip at every grade and join consecutive clips by closure steps.

    Steps where the crossing set changes, a piece merge occurs, or an
    open piece closes around ambiguously are emitted as run boundaries.
    """
    if list(grades) != sorted(set(grades)):
        raise ValueError("grades must be strictly increasing")
    clips = [clip(pa, center, g) for g in grades]
    steps = []
    for a, b in zip(clips, clips[1:]):
        step = _closure_step(pa, a, b)
        steps.append(step)
    return Filtration(grades=list(grades),
                      diagrams=[c.diagram for c in clips],
                      steps=steps)


def _closure_step(pa, a: ClipResult, b: ClipResult):
    if tuple(c.id for c in a.diagram.crossings) != \
            tuple(c.id for c in b.diagram.crossings):
        return {"kind": "break", "cause": "crossing set changes"}
    # map every source piece into the unique target piece containing it
    mapping = {}
    for piece in a.pieces:
        nseg = pa.strands[piece.strand].nseg
        tgt = _match_piece(piece, b, nseg)
        if tgt is None:
            return {"kind": "break", "cause": "piece correspondence lost"}
        mapping[piece] = tgt
    if len(set(mapping.values())) != len(mapping):
        return {"kind": "break", "cause": "pieces merge"}

    # canonical index lookups on the target
    tgt_arc_index = {piece: k for k, piece in b.arc_pieces.items()}
    tgt_circle_index = {s: i for i, s in enumerate(b.circle_strands)}

    arc_images = []
    for k in sorted(a.arc_pieces):
        q = mapping[a.arc_pieces[k]]
        if q in tgt_arc_index:
            arc_images.append(("arc", tgt_arc_index[q]))
        elif q.whole and not q.passages:
            arc_images.append(("circle", tgt_circle_index[q.strand]))
        else:
            return {"kind": "break", "cause": "arc absorbed into a strand"}
    circle_images = []
    for s in a.circle_strands:
        if s not in tgt_circle_index:
            return {"kind": "break", "cause": "free circle gained crossings"}
        circle_images.append(tgt_circle_index[s])

    spec = ClosureMorphismSpec(source=a.diagram, target=b.diagram,
                               arc_images=tuple(arc_images),
                               circle_images=tuple(circle_images))
    return {"kind": "closure", "spec": spec}


def events_json(events):
    return [{"radius": e.radius, "cause": e.cause,
             "where": list(e.where)} for e in events]
