import math
import random
import time

import pytest

import tanglekh.ingest as ingest
from tanglekh.algebra import QQ
from tanglekh.complex import build_complex, homology
from tanglekh.ingest import (CurveSet, GenericityError, Polyline,
                             build_filtration, clip, critical_radii,
                             events_json, project_and_detect, sample_grades)
from tanglekh.persistence import Filtration

from clip_reference import clip as ref_clip
from conftest import braid_closure, circle_polyline, flat_trefoil_points


def curves(*polys, axis="z"):
    return CurveSet(curves=[Polyline(points=p, closed=c)
                            for p, c in polys], axis=axis)


def cross_fixture(over_dir=1):
    """Two open segments crossing at the origin; the y-strand is on top
    and runs in +-y depending on over_dir."""
    under = ([(-1, 0, 0), (1, 0, 0)], False)
    over = ([(0, -over_dir, 1), (0, over_dir, 1)], False)
    return curves(under, over)


def test_single_crossing_positive():
    pa = project_and_detect(cross_fixture(+1))
    (c,) = pa.crossings
    assert c.over[0] == 1 and c.under[0] == 0
    # under runs +x, over runs +y: positively oriented frame by hand
    assert c.sign == 1
    assert c.over_in_slot == 1
    assert abs(c.pos[0]) < 1e-9 and abs(c.pos[1]) < 1e-9


def test_single_crossing_negative():
    pa = project_and_detect(cross_fixture(-1))
    (c,) = pa.crossings
    assert c.sign == -1
    assert c.over_in_slot == 3


def test_axis_projection():
    # same picture living in the yz-plane, projected along x
    cs = curves(([(0, -1, 0), (0, 1, 0)], False),
                ([(1, 0, -1), (1, 0, 1)], False), axis="x")
    pa = project_and_detect(cs)
    (c,) = pa.crossings
    assert c.over[0] == 1


def test_equal_depth_rejected():
    cs = curves(([(-1, 0, 0.5), (1, 0, 0.5)], False),
                ([(0, -1, 0.5), (0, 1, 0.5)], False))
    with pytest.raises(GenericityError) as ei:
        project_and_detect(cs)
    assert ei.value.location is not None


def test_shared_endpoint_rejected():
    cs = curves(([(-1, 0, 0), (1, 0, 0)], False),
                ([(1, 0, 1), (2, 1, 1)], False))
    with pytest.raises(GenericityError):
        project_and_detect(cs)


def test_parallel_segments_no_crossing():
    cs = curves(([(-1, 0, 0), (1, 0, 0)], False),
                ([(-1, 1, 1), (1, 1, 1)], False))
    pa = project_and_detect(cs)
    assert pa.crossings == []


def test_triple_point_rejected():
    cs = curves(([(-1, 0, 0), (1, 0, 0)], False),
                ([(0, -1, 1), (0, 1, 1)], False),
                ([(-1, -1, 2), (1, 1, 2)], False))
    with pytest.raises(GenericityError):
        project_and_detect(cs)


@pytest.mark.parametrize("second", [[(0, 0, 1), (2, 0, 1)],
                                    [(1, 0, 1), (3, 0, 1)],
                                    [(2, 0, 1), (-2, 0, 1)]])
def test_collinear_overlap_rejected(second):
    cs = curves(([(-1, 0, 0), (1, 0, 0)], False), (second, False))
    with pytest.raises(GenericityError, match="collinear") as ei:
        project_and_detect(cs)
    x, y = ei.value.location
    assert -1 <= x <= 1 and y == 0


def test_closed_polyline_needs_three_points():
    with pytest.raises(ValueError, match=r"needs 3\+ points"):
        Polyline(points=[(-3, 1, 0), (3, 1, 0)], closed=True)
    Polyline(points=[(-3, 1, 0), (3, 1, 0)], closed=False)
    Polyline(points=[(0, 0, 0), (1, 0, 0), (0, 1, 0)], closed=True)


def test_bad_coordinates_and_tolerance_rejected():
    for bad in (math.nan, math.inf, -math.inf, 1e200):
        with pytest.raises(ValueError):
            Polyline(points=[(0, 0, 0), (1, bad, 0)], closed=False)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            project_and_detect(cross_fixture(), tol=tol)


# -- the grid against testing every segment pair --------------------------


def every_pair(ends, tol):
    """The reference candidate set: all segment pairs in (a, b) order."""
    for a in range(len(ends)):
        for b in range(a + 1, len(ends)):
            yield a, b


def every_crossing_pair(raw, tol):
    """The reference triple-point check: all pairs of crossings."""
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            pi, pj = raw[i][2], raw[j][2]
            if math.hypot(pi[0] - pj[0], pi[1] - pj[1]) <= tol * 10:
                raise GenericityError("two crossings coincide (triple point)",
                                      location=pi)


def outcome(cs, tol):
    try:
        return "ok", project_and_detect(cs, tol=tol).crossings
    except GenericityError as e:
        return "error", str(e), e.location


def assert_same_as_all_pairs(cs, tol=1e-9):
    got = outcome(cs, tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_candidate_pairs", every_pair)
        mp.setattr(ingest, "_reject_triple_points", every_crossing_pair)
        want = outcome(cs, tol)
    assert got == want
    return got


def random_polyline(rng, n, scale=3.0):
    return [(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
             rng.uniform(-1, 1)) for _ in range(n)]


def lattice_walk(rng, n):
    """Unit and diagonal lattice steps: shared vertices, collinear runs
    and crossings at half-integer points."""
    x = y = 0
    pts = [(0, 0, rng.random())]
    for _ in range(n - 1):
        dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1),
                             (1, 1), (1, -1), (-1, 1), (-1, -1)])
        x, y = x + dx, y + dy
        pts.append((x, y, rng.random()))
    return pts


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.05])
def test_grid_matches_all_pairs_on_random_polylines(tol):
    rng = random.Random(5)
    kinds = []
    for _ in range(40):
        polys = [(random_polyline(rng, rng.randrange(2, 30)),
                  rng.random() < 0.5) for _ in range(rng.randrange(1, 4))]
        kinds.append(assert_same_as_all_pairs(curves(*polys), tol)[0])
    assert "ok" in kinds


def test_grid_matches_all_pairs_on_lattice_walks():
    rng = random.Random(11)
    results = []
    for _ in range(150):
        polys = [(lattice_walk(rng, rng.randrange(3, 12)), rng.random() < 0.3)
                 for _ in range(rng.randrange(1, 3))]
        results.append(assert_same_as_all_pairs(curves(*polys)))
    messages = {r[1] for r in results if r[0] == "error"}
    assert any(r[0] == "ok" and r[1] for r in results)
    assert any("endpoint" in m for m in messages)
    assert any("collinear" in m for m in messages)


def torus_points(p, q, n, turn=0.0, shift=(0.0, 0.0, 0.0)):
    """T(p, q) on a torus of radii 2 and 1, rotated about z by ``turn``
    and translated by ``shift``; q(p - 1) crossings along z."""
    pts = []
    for k in range(n):
        t = 2 * math.pi * (k + 0.37) / n
        rad = 2.0 + math.cos(q * t)
        x, y = rad * math.cos(p * t), rad * math.sin(p * t)
        c, s = math.cos(turn), math.sin(turn)
        pts.append((c * x - s * y + shift[0], s * x + c * y + shift[1],
                    math.sin(q * t) + shift[2]))
    return pts


def test_grid_matches_all_pairs_on_moved_torus_and_mixed_strands():
    moved = torus_points(2, 5, 300, turn=0.7, shift=(13.5, -4.25, 2.0))
    ok, crossings = assert_same_as_all_pairs(curves((moved, True)))
    assert ok == "ok" and len(crossings) == 5
    # an open chord through the knot and a far ring, with the knot
    cut = [(6.0, -9.0, 5.0), (21.0, 0.5, 5.0), (20.5, 1.5, -5.0)]
    ring = [(x + 40.0, y, z) for x, y, z in circle_polyline(1.0, n=50)]
    ok, crossings = assert_same_as_all_pairs(
        curves((moved, True), (cut, False), (ring, True)))
    assert ok == "ok" and len(crossings) > 5


def atan2_slot(pa, c):
    """The over-strand's entry slot measured by angle: counterclockwise
    from the under-strand's entry, slot 1 within half a turn, else 3."""
    du = pa.strands[c.under[0]].dir_at(c.under[1])
    do = pa.strands[c.over[0]].dir_at(c.over[1])
    base = math.atan2(-du[1], -du[0])
    rel = (math.atan2(-do[1], -do[0]) - base) % (2 * math.pi)
    return 1 if rel < math.pi else 3


def test_over_slot_follows_sign():
    rng = random.Random(29)
    seen = 0
    for k in range(60):
        if k % 2:
            p, q = rng.choice([(2, 3), (2, 5), (3, 4)])
            polys = [(torus_points(p, q, rng.randrange(60, 200),
                                   turn=rng.uniform(0, 2 * math.pi)), True)]
        else:
            polys = [(random_polyline(rng, rng.randrange(2, 20)), False)
                     for _ in range(rng.randrange(1, 4))]
        try:
            pa = project_and_detect(curves(*polys))
        except GenericityError:
            continue
        for c in pa.crossings:
            assert c.over_in_slot == atan2_slot(pa, c)
            seen += 1
    assert seen > 200


def test_clip_distance_ranges_keep_pieces():
    """Skipping segments whose distance range misses the radius leaves
    every clip as solving on every segment does."""
    pa = project_and_detect(curves((torus_points(3, 4, 400, turn=0.2), True),
                                   (circle_polyline(0.5, cx=0.3, n=40), True)))
    center = (0.21, 0.13)
    events = critical_radii(pa, center)
    radii = sample_grades(events) + [e.radius * (1 + s) for e in events
                                     for s in (-1e-6, 1e-6)]
    unbounded = [[(-math.inf, math.inf)] * s.nseg for s in pa.strands]
    for radius in radii:
        try:
            got = clip(pa, center, radius)
        except GenericityError as e:
            got = str(e)
        pa._ranges[center] = unbounded
        try:
            want = clip(pa, center, radius)
        except GenericityError as e:
            want = str(e)
        pa._ranges.clear()
        if isinstance(want, str):
            assert got == want
        else:
            assert got.pieces == want.pieces
            assert got.diagram == want.diagram


def clip_outcome(clip_fn, pa, center, radius):
    try:
        r = clip_fn(pa, center, radius)
    except GenericityError as e:
        return str(e), e.location
    return r.pieces, r.diagram, r.arc_pieces, r.circle_strands


def random_clip_curves(rng):
    """One to three strands: polygons about random centres (whole pieces,
    portless arcs) and random open or closed polylines (crossings)."""
    polys = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.4:
            polys.append((circle_polyline(
                rng.uniform(0.3, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2),
                z=rng.uniform(-1, 1), n=rng.randrange(5, 16)), True))
        else:   # a two-point polyline stays open: closed, it is refused
            n = rng.randrange(2, 9)
            points = random_polyline(rng, n)
            polys.append((points, rng.random() < 0.6 and n > 2))
    return curves(*polys)


def test_clip_matches_reference_on_random_curves():
    """The one-sweep clip gives the pieces, diagram, arc pieces and free
    circles of the two-branch clip it replaced, or the same error."""
    rng = random.Random(1212)
    cases, seen = 0, set()
    while cases < 3000:
        try:
            pa = project_and_detect(random_clip_curves(rng))
        except GenericityError:
            continue
        center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        grades = sample_grades(critical_radii(pa, center))
        for radius in rng.sample(grades, min(3, len(grades))) + \
                [rng.uniform(0.0, 5.0)]:
            got = clip_outcome(clip, pa, center, radius)
            assert got == clip_outcome(ref_clip, pa, center, radius)
            cases += 1
            if isinstance(got[0], str):
                seen.add("error")
                continue
            pieces, _, arc_pieces, _ = got
            seen.update(
                ["whole"] * any(p.whole for p in pieces)
                + ["wrapped"] * any(p.hi > pa.strands[p.strand].nseg
                                    for p in pieces)
                + ["arc"] * bool(arc_pieces))
    assert seen == {"whole", "wrapped", "arc", "error"}


@pytest.mark.parametrize("points, closed", [
    # vertex 1 lies on the circle; the reference gives a piece through
    # vertex 2, which lies outside the disk
    ([(1, 0, 0), (0, 2, 0), (-1, 4, 0), (-4, 0, 0), (0, -1, 0)], True),
    # the last point lies on the circle; the reference gives no piece
    ([(-3, 0, 0), (0, 0, 0), (2, 0, 0)], False),
])
def test_clip_circle_through_any_vertex_rejected(points, closed):
    pa = project_and_detect(curves((points, closed)))
    with pytest.raises(GenericityError, match="passes through a vertex"):
        clip(pa, (0, 0), 2.0)
    for radius in (1.99, 2.01):   # off the vertex the two clips agree
        assert clip_outcome(clip, pa, (0, 0), radius) == \
            clip_outcome(ref_clip, pa, (0, 0), radius)


def test_ten_thousand_point_torus_knot_is_fast():
    cs = curves((torus_points(3, 4, 10_000, turn=0.3), True))
    start = time.perf_counter()
    pa = project_and_detect(cs)
    assert time.perf_counter() - start < 10.0
    assert len(pa.crossings) == 4 * (3 - 1)


# -- events and clipping -------------------------------------------------


def test_circle_events_single_enclosure():
    cs = curves((circle_polyline(2.0, n=128), True))
    pa = project_and_detect(cs)
    events = critical_radii(pa, (0, 0))
    assert len(events) == 1
    assert events[0].cause == "component fully enclosed"
    assert abs(events[0].radius - 2.0) < 0.01


def test_offset_circle_enter_and_enclose():
    cs = curves((circle_polyline(1.0, cx=3.0), True))
    pa = project_and_detect(cs)
    events = critical_radii(pa, (0, 0))
    causes = [e.cause for e in events]
    assert causes == ["component first enters", "component fully enclosed"]
    assert abs(events[0].radius - 2.0) < 0.01
    assert abs(events[1].radius - 4.0) < 0.01


def test_sample_grades_bracket_events():
    cs = curves((circle_polyline(1.0, cx=3.0), True))
    pa = project_and_detect(cs)
    events = critical_radii(pa, (0, 0))
    grades = sample_grades(events)
    assert grades == sorted(grades)
    assert grades[0] < events[0].radius
    assert grades[-1] > events[-1].radius
    radii = sorted({e.radius for e in events})
    for lo, hi in zip(radii, radii[1:]):
        assert any(lo < g < hi for g in grades)


def test_clip_circle_stages():
    cs = curves((circle_polyline(1.0, cx=3.0), True))
    pa = project_and_detect(cs)
    empty = clip(pa, (0, 0), 1.0)
    assert empty.diagram.free_circles == 0 and not empty.diagram.boundary
    arc = clip(pa, (0, 0), 3.0)
    assert len(arc.diagram.boundary) == 2
    assert len(arc.arc_pieces) == 1
    whole = clip(pa, (0, 0), 5.0)
    assert whole.diagram.free_circles == 1
    assert whole.circle_strands == [0]


def test_clip_radius_through_crossing_rejected():
    pa = project_and_detect(cross_fixture())
    with pytest.raises(GenericityError):
        clip(pa, (5, 0), 5.0)


def test_open_endpoint_inside_disk_rejected():
    cs = curves(([(0, 0, 0), (3, 0, 0)], False))
    pa = project_and_detect(cs)
    with pytest.raises(GenericityError):
        clip(pa, (0, 0), 1.0)


def test_events_json_shape():
    cs = curves((circle_polyline(2.0), True))
    pa = project_and_detect(cs)
    rows = events_json(critical_radii(pa, (0, 0)))
    assert rows and set(rows[0]) == {"radius", "cause", "where"}


# -- filtration assembly -------------------------------------------------


def test_far_circles_filtration_single_run():
    cs = curves((circle_polyline(1.0, n=128), True),
                (circle_polyline(1.0, cx=10.0, n=128), True))
    pa = project_and_detect(cs)
    grades = sample_grades(critical_radii(pa, (0, 0)))
    f = build_filtration(pa, (0, 0), grades)
    filt = Filtration(f.grades, f.diagrams, f.steps, field=QQ)
    assert all(s["kind"] == "closure" for s in filt.steps)
    for s in filt.steps:
        s["spec"].validate()
    (run,) = filt.runs()
    rows = filt.barcode_report()
    inf = [r for r in rows if r["death"] is None]
    births = sorted({r["birth"] for r in inf})
    # the empty clip already carries a class; each circle adds bars when
    # it becomes fully enclosed
    assert len(births) == 3
    assert births[0] == grades[0]
    assert births[1] < 10.0 < births[2]
    h = homology(build_complex(filt.diagrams[-1], field=QQ),
                 representatives=False)
    assert h.ranks == {(0, 2): 1, (0, 0): 2, (0, -2): 1}


def test_filtration_rejects_bad_grades():
    cs = curves((circle_polyline(1.0), True))
    pa = project_and_detect(cs)
    with pytest.raises(ValueError):
        build_filtration(pa, (0, 0), [2.0, 2.0])


def test_detection_is_deterministic_under_reordering():
    a = curves((circle_polyline(1.0, cx=1.0), True),
               (circle_polyline(1.0, cx=2.0, z=1.0), True))
    b = curves((circle_polyline(1.0, cx=2.0, z=1.0), True),
               (circle_polyline(1.0, cx=1.0), True))
    pa, pb = project_and_detect(a), project_and_detect(b)
    assert len(pa.crossings) == len(pb.crossings) == 2
    assert sorted(c.sign for c in pa.crossings) == \
        sorted(c.sign for c in pb.crossings)
    ra = sorted(round(e.radius, 6) for e in critical_radii(pa, (0, 0)))
    rb = sorted(round(e.radius, 6) for e in critical_radii(pb, (0, 0)))
    assert ra == rb


def test_flat_trefoil_pipeline():
    cs = curves((flat_trefoil_points(), True))
    pa = project_and_detect(cs)
    assert len(pa.crossings) == 3
    assert len({c.sign for c in pa.crossings}) == 1
    # off-center disk so the three symmetric crossing radii are distinct
    center = (0.21, 0.13)
    events = critical_radii(pa, center)
    xr = sorted(e.radius for e in events if e.cause == "crossing enters disk")
    assert len(xr) == 3
    grades = sample_grades(events)
    f = build_filtration(pa, center, grades)
    filt = Filtration(f.grades, f.diagrams, f.steps, field=QQ)
    # crossing births always break the runs, one per crossing radius
    xbreaks = [i for i, s in enumerate(filt.steps)
               if s["kind"] == "break" and s["cause"] == "crossing set changes"]
    assert len(xbreaks) == 3
    for i, r in zip(xbreaks, xr):
        assert filt.grades[i] < r < filt.grades[i + 1]
    h = homology(build_complex(filt.diagrams[-1], field=QQ),
                 representatives=False)
    href = homology(build_complex(braid_closure([1, 1, 1], 2), field=QQ),
                    representatives=False)
    assert h.ranks == href.ranks
    # within every run the closure registries are valid morphisms
    for s in filt.steps:
        if s["kind"] == "closure":
            s["spec"].validate()
