"""End-to-end acceptance checks: example exactness, property suites over
randomized diagrams, induced-map laws, barcode laws, geometric ingestion,
and a performance budget."""

import random
import time

import pytest

from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, LaurentPolynomial
from tanglekh.complex import (build_complex, homology, verify_d_squared,
                              verify_phi_homogeneous)
from tanglekh.diagram import TangleDiagram, apply_planar
from tanglekh.ingest import (CurveSet, Polyline, build_filtration,
                             critical_radii, project_and_detect,
                             sample_grades)
from tanglekh.invariants import jones_from_homology, state_sum
from tanglekh.local import ranks
from tanglekh.persistence import (ClosureMorphismSpec, Filtration, build_psi,
                                  cap_map, compose_specs, cup_map,
                                  induced_on_homology, rep_order, saddle_map,
                                  saddle_target_diagram, verify_chain_map)

from conftest import (bare_arc, braid_closure, braid_tangle, chain_columns,
                      circle_polyline, closing_operator, compose,
                      flat_trefoil_points, kink_arc, random_braid_diagram,
                      tangle_with_extra_arcs)
from test_assemble import RefComplex, ref_saddle_cone


def ranks_of(d, field=QQ):
    return homology(build_complex(d, field=field), representatives=False).ranks


def test_criterion_1_fixture_regression():
    start = time.perf_counter()
    fixtures = [(kink_arc(-1), ("w", "+")),
                (kink_arc(1), ("w", "-")),
                (bare_arc(), ("w",))]
    for d, labels in fixtures:
        c = build_complex(d, field=QQ)
        h = homology(c)
        assert h.ranks == {(0, -1): 1}
        (rep,) = h.representatives[(0, -1)]
        (idx,) = rep
        p = 0
        assert c.basis[p][idx].labels == labels
    assert time.perf_counter() - start < 1.0


def test_criterion_2_negative_kink_complex_shape():
    c = build_complex(kink_arc(-1), field=QQ)
    assert c.degrees == [-1, 0]
    assert [g.labels for g in c.basis[-1]] == [("w",)]
    assert [g.labels for g in c.basis[0]] == [("w", "+"), ("w", "-")]
    # d(w) = w (x) v-  : the single column hits only the v- generator
    assert c.differentials[-1] == [{1: QQ.one}]


def test_criterion_3_d_squared_and_grading():
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(100):
        d = random_braid_diagram(rng, max_crossings=8)
        for field in (QQ, GF2):
            c = build_complex(d, field=field)
            ok, witness = verify_d_squared(c)
            assert ok, witness
            ok, witness = verify_phi_homogeneous(c)
            assert ok, witness
    assert time.perf_counter() - start < 60.0


def test_criterion_4_oracle_equivalence():
    rng = random.Random(12)
    fixed = [kink_arc(-1), kink_arc(1), bare_arc(),
             braid_closure([1], 2),          # 1-crossing unknot
             braid_closure([1, 1], 2),       # Hopf link
             braid_closure([1, 1, 1], 2)]    # trefoil
    unknot = fixed[3]
    h = homology(build_complex(unknot, field=QQ), representatives=False)
    both = LaurentPolynomial({1: 1, -1: 1})
    assert jones_from_homology(h) == both == state_sum(unknot)
    samples = fixed + [random_braid_diagram(rng, max_crossings=8)
                       for _ in range(50)]
    for d in samples:
        h = homology(build_complex(d, field=QQ), representatives=False)
        assert jones_from_homology(h) == state_sum(d), d.to_json()
        # any ranks have the chain-level Euler characteristic: the ranks
        # themselves are checked against the local algorithm
        assert h.ranks == ranks(d, QQ), d.to_json()


def identity_tangle():
    return TangleDiagram(boundary=(("b", 0), ("b", 1), ("t", 1), ("t", 0)),
                         connections=[(("b", 0), ("t", 0)),
                                      (("b", 1), ("t", 1))])


def test_criterion_5_reidemeister_invariance():
    pairs = [
        # R1, tangle and link
        (bare_arc(), kink_arc(1)),
        (bare_arc(), kink_arc(-1)),
        (TangleDiagram(free_circles=1), braid_closure([1], 2)),
        (TangleDiagram(free_circles=1), braid_closure([-1], 2)),
        # R2
        (identity_tangle(), braid_tangle([1, -1], 2)),
        (TangleDiagram(free_circles=2), braid_closure([1, -1], 2)),
        # R3
        (braid_tangle([1, 2, 1], 3), braid_tangle([2, 1, 2], 3)),
        (braid_closure([1, 2, 1], 3), braid_closure([2, 1, 2], 3)),
    ]
    for a, b in pairs:
        assert ranks_of(a) == ranks_of(b), (a.to_json(), b.to_json())


def test_criterion_6_closure_chain_maps():
    rng = random.Random(13)
    for _ in range(50):
        d = tangle_with_extra_arcs(rng, max_crossings=6)
        n_core = len(d.boundary) - 4
        op1 = closing_operator(d.boundary, n_core, rng, tag=0)
        mid, spec1 = apply_planar(op1, d)
        op2 = closing_operator(mid.boundary, n_core, rng, tag=1)
        end, spec2 = apply_planar(op2, mid)
        c0, c1, c2 = (build_complex(t, field=QQ) for t in (d, mid, end))
        psi1 = build_psi(c0, c1, spec1)
        psi2 = build_psi(c1, c2, spec2)
        for psi in (psi1, psi2):
            ok, witness = verify_chain_map(psi)
            assert ok, witness
        psi12 = build_psi(c0, c2, compose_specs(spec2, spec1))
        q_shift, columns = compose(psi2, psi1)
        assert psi12.q_shift == q_shift
        assert chain_columns(psi12) == columns

    # the element chase, closing arc (x) circle (x) arc one arc at a time:
    # w (x) v+ (x) w  ->  v- (x) v+ (x) w  ->  v- (x) v+ (x) v-
    T = TangleDiagram(boundary=("a0", "a1", "b0", "b1"),
                      connections=[("a0", "a1"), ("b0", "b1")],
                      free_circles=1)
    T1 = TangleDiagram(boundary=("b0", "b1"), connections=[("b0", "b1")],
                       free_circles=2)
    T2 = TangleDiagram(free_circles=3)
    spec1 = ClosureMorphismSpec(source=T, target=T1,
                                arc_images=(("circle", 1), ("arc", 0)),
                                circle_images=(0,))
    spec2 = ClosureMorphismSpec(source=T1, target=T2,
                                arc_images=(("circle", 2),),
                                circle_images=(0, 1))
    c0, c1, c2 = (build_complex(t, field=QQ) for t in (T, T1, T2))
    psi1 = build_psi(c0, c1, spec1)
    psi2 = build_psi(c1, c2, spec2)
    p, i = c0.index[((), ("w", "w", "+"))]
    mid = psi1.apply(p, {i: QQ.one})
    assert {c1.basis[p][j].labels for j in mid} == {("w", "+", "-")}
    out = psi2.apply(p, mid)
    assert {c2.basis[p][j].labels for j in out} == {("+", "-", "-")}


def graded_image_ranks(f, h_src, h_dst):
    mats = induced_on_homology(f, h_src, h_dst)
    out = {}
    for p, cols in mats.items():
        by_q = {}
        for k, (q, _) in enumerate(rep_order(h_src, p)):
            by_q.setdefault(q, []).append(k)
        for q, ks in by_q.items():
            r = linalg.rank([cols[k] for k in ks], f.src.field)
            if r:
                out[(p, q + f.q_shift)] = r
    return out


def test_criterion_7_cobordism_generator_formulas():
    links = [braid_closure([1], 2), braid_closure([1, 1], 2),
             braid_closure([1, 1, 1], 2)]
    for d in links:
        c = build_complex(d, field=QQ)
        h = homology(c)
        # cap: graded rank of the image is q times the graded rank of H(T)
        f = cap_map(c)
        img = graded_image_ranks(f, h, homology(f.dst))
        assert img == {(p, q + 1): r for (p, q), r in h.ranks.items()}
        # cup: surjective on homology
        g = cup_map(f.dst)
        hc, h2 = homology(f.dst), homology(g.dst)
        mats = induced_on_homology(g, hc, h2)
        for p in h2.degrees:
            assert linalg.rank(mats.get(p, []), QQ) == len(rep_order(h2, p))
    # saddle: the direct map equals the cone projection exactly
    for d in links[1:]:
        site = (d.connections[0], d.connections[1])
        d2 = saddle_target_diagram(d, site)
        cs, cd = build_complex(d, field=QQ), build_complex(d2, field=QQ)
        direct = saddle_map(cs, cd, site)
        cone = ref_saddle_cone(RefComplex(d, QQ), RefComplex(d2, QQ), site)
        assert direct.q_shift == -1
        assert chain_columns(direct) == cone


def check_barcode_laws(filt):
    for run in filt.runs():
        for p in run.degrees():
            rt = run.rank_table(p)
            n = rt.size
            for a in range(n):
                for b in range(a, n):
                    for c in range(b, n):
                        assert rt.rank(a, c) <= min(rt.rank(a, b),
                                                    rt.rank(b, c))
            bars = run.barcodes()[p]   # raises if any multiplicity < 0
            for i in range(n):
                alive = sum(bar.multiplicity for bar in bars
                            if bar.birth <= i
                            and (bar.death is None or bar.death > i))
                assert alive == rt.dims[i]


def test_criterion_8_barcode_laws():
    # constant filtration: identity steps, full bars only
    d = braid_closure([1, 1, 1], 2)
    const = Filtration(grades=[0.0, 1.0, 2.0], diagrams=[d, d, d],
                       steps=[{"kind": "identity"}] * 2, field=QQ)
    check_barcode_laws(const)
    for run in const.runs():
        for bars in run.barcodes().values():
            assert all(b.birth == 0 and b.death is None for b in bars)

    # closure filtration: arc swallowed into a circle
    arc = bare_arc()
    circ = TangleDiagram(free_circles=1)
    spec = ClosureMorphismSpec(source=arc, target=circ,
                               arc_images=(("circle", 0),),
                               circle_images=())
    closure = Filtration(grades=[0.0, 1.0], diagrams=[arc, circ],
                         steps=[{"kind": "closure", "spec": spec}], field=QQ)
    check_barcode_laws(closure)

    # geometric filtration from two disjoint circles
    cs = CurveSet(curves=[
        Polyline(points=circle_polyline(1.0, n=128), closed=True),
        Polyline(points=circle_polyline(1.0, cx=10.0, n=128), closed=True)])
    pa = project_and_detect(cs)
    grades = sample_grades(critical_radii(pa, (0, 0)))
    f = build_filtration(pa, (0, 0), grades)
    check_barcode_laws(Filtration(f.grades, f.diagrams, f.steps, field=QQ))


def test_criterion_9_flat_trefoil_ingestion():
    cs = CurveSet(curves=[Polyline(points=flat_trefoil_points(),
                                   closed=True)])
    pa = project_and_detect(cs)
    assert len(pa.crossings) == 3
    # off-center disk so the three symmetric crossing radii are distinct
    center = (0.21, 0.13)
    events = critical_radii(pa, center)
    xr = sorted(e.radius for e in events if e.cause == "crossing enters disk")
    assert len(xr) == 3
    grades = sample_grades(events)
    f = build_filtration(pa, center, grades)
    filt = Filtration(f.grades, f.diagrams, f.steps, field=QQ)
    # every crossing birth is a run boundary, one per crossing radius
    xbreaks = [i for i, s in enumerate(filt.steps)
               if s["kind"] == "break"
               and s["cause"] == "crossing set changes"]
    assert len(xbreaks) == 3
    for i, r in zip(xbreaks, xr):
        assert filt.grades[i] < r < filt.grades[i + 1]
    # the fully-grown clip carries trefoil homology, compared against the
    # independently built braid-closure fixture
    assert ranks_of(filt.diagrams[-1]) == ranks_of(braid_closure([1, 1, 1], 2))
    check_barcode_laws(filt)


def test_criterion_10_twelve_crossing_performance():
    word = [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]
    d = braid_closure(word, 3)
    assert len(d.crossings) == 12
    start = time.perf_counter()
    h = homology(build_complex(d, field=GF2), representatives=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert sum(h.ranks.values()) > 0
