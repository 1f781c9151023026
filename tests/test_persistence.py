import random

import pytest

from tanglekh.algebra import GF2, QQ, LaurentPolynomial
from tanglekh.complex import build_complex, homology
from tanglekh.diagram import PlanarTangleSpec, TangleDiagram, apply_planar
from tanglekh.persistence import (Bar, ChainMap, ClosureMorphismSpec,
                                  Filtration, MorphismError, RankTable,
                                  barcode_from_ranks, build_psi, cap_map,
                                  compose_specs, cup_map,
                                  induced_on_homology, rep_order, saddle_map,
                                  saddle_target_diagram, verify_chain_map)

from conftest import (bare_arc, braid_closure, braid_tangle, chain_columns,
                      closing_operator, compose, kink_arc, on_cube,
                      tangle_with_extra_arcs)
from test_assemble import RefComplex, ref_saddle_cone


def close_op(boundary, pairs):
    """Operator closing the given index pairs of the boundary, no outer."""
    inner = tuple(("i", k) for k in range(len(boundary)))
    return PlanarTangleSpec(inner_boundary=inner, outer_boundary=(),
                            arcs=[(inner[a], inner[b]) for a, b in pairs])


def test_identity_spec_is_identity_map():
    d = braid_tangle([1], 2)
    c = build_complex(d, field=QQ)
    psi = build_psi(c, c, ClosureMorphismSpec.identity(d))
    assert chain_columns(psi) == {p: [{i: QQ.one} for i in range(c.dim(p))]
                                  for p in c.degrees}
    assert psi.q_shift == 0


def test_spec_validation_errors():
    d = bare_arc()
    with pytest.raises(MorphismError):
        ClosureMorphismSpec(source=d, target=TangleDiagram(free_circles=1),
                            arc_images=(("port", "x"),),
                            circle_images=()).validate()
    with pytest.raises(MorphismError):
        ClosureMorphismSpec(source=d, target=TangleDiagram(free_circles=1),
                            arc_images=(("circle", 3),),
                            circle_images=()).validate()
    with pytest.raises(MorphismError):
        ClosureMorphismSpec(source=d, target=kink_arc(1),
                            arc_images=(("arc", 0),),
                            circle_images=()).validate()


@pytest.mark.parametrize("arc_images, circle_images", [
    ((("foo", 0),), (0,)),          # unknown kind, once read as a circle
    ((("arc", 0.0),), (0,)),
    ((("circle", True),), (0,)),
    ((("arc",),), (0,)),
    (("circle",), (0,)),
    ((("arc", 0),), ("0",)),
    ((("arc", 0),), (1.0,)),
])
def test_spec_rejects_malformed_images(arc_images, circle_images):
    target = TangleDiagram(boundary=("a", "b"), connections=[("a", "b")],
                           free_circles=2)
    spec = ClosureMorphismSpec(source=TangleDiagram(
        boundary=("a", "b"), connections=[("a", "b")], free_circles=1),
        target=target, arc_images=arc_images, circle_images=circle_images)
    with pytest.raises(MorphismError):
        spec.validate()


def test_circle_to_arc_rejected():
    src = TangleDiagram(free_circles=1)
    dst = bare_arc()
    spec = ClosureMorphismSpec.__new__(ClosureMorphismSpec)
    object.__setattr__(spec, "source", src)
    object.__setattr__(spec, "target", dst)
    object.__setattr__(spec, "arc_images", ())
    object.__setattr__(spec, "circle_images", (0,))
    with pytest.raises(MorphismError):
        spec.validate()


def test_closure_chain_map_on_kinks():
    for sign in (1, -1):
        d = kink_arc(sign)
        op = close_op(d.boundary, [(0, 1)])
        closed, spec = apply_planar(op, d)
        c1 = build_complex(d, field=QQ)
        c2 = build_complex(closed, field=QQ)
        psi = build_psi(c1, c2, spec)
        ok, w = verify_chain_map(psi)
        assert ok, (sign, w)


def test_element_chase_example():
    """Closing the two arcs of arc (x) circle (x) arc, one at a time:
    w (x) v+ (x) w -> v- (x) v+ (x) w -> v- (x) v+ (x) v-."""
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
    # and the zero row: w (x) v- (x) w composes through labels unchanged
    p, i = c0.index[((), ("w", "w", "-"))]
    out = psi2.apply(p, psi1.apply(p, {i: QQ.one}))
    assert {c2.basis[p][j].labels for j in out} == {("-", "-", "-")}


def test_functoriality_sequential_closures(rng):
    """Psi of a composite closure equals the composite of the Psis,
    and every Psi satisfies the chain-map law."""
    for _ in range(20):
        d = tangle_with_extra_arcs(rng)
        n_core = len(d.boundary) - 4
        op1 = closing_operator(d.boundary, n_core, rng, tag=0)
        mid, spec1 = apply_planar(op1, d)
        op2 = closing_operator(mid.boundary, n_core, rng, tag=1)
        end, spec2 = apply_planar(op2, mid)

        c0 = build_complex(d, field=QQ)
        c1 = build_complex(mid, field=QQ)
        c2 = build_complex(end, field=QQ)
        psi1 = build_psi(c0, c1, spec1)
        psi2 = build_psi(c1, c2, spec2)
        ok, w = verify_chain_map(psi1)
        assert ok, w
        ok, w = verify_chain_map(psi2)
        assert ok, w
        spec12 = compose_specs(spec2, spec1)
        psi12 = build_psi(c0, c2, spec12)
        q_shift, columns = compose(psi2, psi1)
        assert psi12.q_shift == q_shift
        assert chain_columns(psi12) == columns


def test_psi_merge_is_structured_error():
    """Closing both endpoints of two nested arcs onto each other merges
    components; no chain map exists."""
    d = TangleDiagram(boundary=("a", "b", "c", "d"),
                      connections=[("a", "d"), ("b", "c")])
    op = close_op(d.boundary, [(0, 1), (2, 3)])
    closed, spec = apply_planar(op, d)
    with pytest.raises(MorphismError):
        spec.validate()


# -- cobordism generator maps --------------------------------------------


def graded_image_ranks(f, h_src, h_dst):
    """(p, q_target) -> rank of the induced map, per quantum block."""
    from tanglekh import linalg
    mats = induced_on_homology(f, h_src, h_dst)
    out = {}
    for p, cols in mats.items():
        order_src = rep_order(h_src, p)
        by_q = {}
        for k, (q, _) in enumerate(order_src):
            by_q.setdefault(q, []).append(k)
        for q, ks in by_q.items():
            r = linalg.rank([cols[k] for k in ks], f.src.field)
            if r:
                out[(p, q + f.q_shift)] = r
    return out


def test_cap_image_is_q_times_qdim():
    for d in (braid_closure([1], 2), braid_closure([1, 1], 2),
              TangleDiagram(free_circles=1)):
        c = build_complex(d, field=QQ)
        h = homology(c)
        f = cap_map(c)
        ok, w = verify_chain_map(f)
        assert ok, w
        hc = homology(f.dst)
        img = graded_image_ranks(f, h, hc)
        expected = {(p, q + 1): r for (p, q), r in h.ranks.items()}
        assert img == expected


def test_cup_is_surjective_on_homology():
    for free in (1, 2):
        d = TangleDiagram(crossings=braid_closure([1], 2).crossings,
                          connections=braid_closure([1], 2).connections,
                          free_circles=free)
        c = build_complex(d, field=QQ)
        f = cup_map(c)
        ok, w = verify_chain_map(f)
        assert ok, w
        h_src, h_dst = homology(c), homology(f.dst)
        from tanglekh import linalg
        mats = induced_on_homology(f, h_src, h_dst)
        for p in h_dst.degrees:
            need = len(rep_order(h_dst, p))
            assert linalg.rank(mats.get(p, []), QQ) == need


def test_cap_cup_composite_is_zero():
    """The new circle is born carrying v+, which the cup kills; the
    composite x -> x (x) v+ -> 0 vanishes (counit of the unit)."""
    c = build_complex(braid_closure([1], 2), field=QQ)
    f = cap_map(c)
    g = cup_map(f.dst)
    q_shift, columns = compose(g, f)
    assert q_shift == 2
    for p in c.degrees:
        assert columns[p] == [{} for _ in range(c.dim(p))]


def test_cup_requires_free_circle():
    with pytest.raises(MorphismError):
        cup_map(build_complex(braid_closure([1], 2), field=QQ))


def test_cap_requires_link():
    with pytest.raises(MorphismError):
        cap_map(build_complex(bare_arc(), field=QQ))


def saddle_cases():
    yield (TangleDiagram(boundary=("a", "b", "c", "d"),
                         connections=[("a", "b"), ("c", "d")]),
           (("a", "b"), ("d", "c")))
    d = braid_closure([1, 1], 2)
    yield d, (d.connections[0], d.connections[1])
    d = braid_closure([1, -1, 1], 2)
    yield d, (d.connections[0], d.connections[1])


@pytest.mark.parametrize("field", [QQ, GF2])
def test_saddle_direct_equals_cone(field):
    """The direct map equals the projection out of the mapping cone of
    the added crossing, built label by label in ``test_assemble``."""
    for d, site in saddle_cases():
        d2 = saddle_target_diagram(d, site)
        cs = build_complex(d, field=field)
        cd = build_complex(d2, field=field)
        f = saddle_map(cs, cd, site)
        ok, w = verify_chain_map(f)
        assert ok, w
        cone = ref_saddle_cone(RefComplex(d, field), RefComplex(d2, field),
                               site)
        assert chain_columns(f) == cone, site
        assert f.q_shift == -1


def test_saddle_site_must_match_target():
    d, site = next(iter(saddle_cases()))
    cs = build_complex(d, field=QQ)
    with pytest.raises(MorphismError):
        saddle_map(cs, cs, site)


# -- barcodes ------------------------------------------------------------


def test_barcode_multiplicity_formula():
    # ranks of k -> k -> 0 -> k with maps id, 0, (fresh class)
    rt = RankTable(p=0, size=3, dims=[1, 1, 1],
                   r={(0, 0): 1, (1, 1): 1, (2, 2): 1,
                      (0, 1): 1, (1, 2): 0, (0, 2): 0})
    bars = barcode_from_ranks(rt)
    assert sorted((b.birth, b.death, b.multiplicity) for b in bars) == \
        [(0, 2, 1), (2, None, 1)]


def test_barcode_negative_multiplicity_rejected():
    rt = RankTable(p=0, size=2, dims=[1, 2],
                   r={(0, 0): 1, (1, 1): 2, (0, 1): 2})
    with pytest.raises(ArithmeticError):
        barcode_from_ranks(rt)


def constant_filtration(d, n=3, field=QQ):
    return Filtration(grades=list(range(n)), diagrams=[d] * n,
                      steps=[{"kind": "identity"}] * (n - 1), field=field)


def test_constant_filtration_full_bars():
    d = braid_closure([1], 2)
    filt = constant_filtration(d)
    (run,) = filt.runs()
    for p, bars in run.barcodes().items():
        for bar in bars:
            assert bar.birth == 0 and bar.death is None
    assert sum(b.multiplicity for b in run.barcodes()[0]) == 2


def test_rank_table_laws_and_bar_sums():
    T = bare_arc()
    T1 = TangleDiagram(free_circles=1)
    op = PlanarTangleSpec(inner_boundary=("i0", "i1"), outer_boundary=(),
                          arcs=[("i0", "i1")])
    _, spec = apply_planar(op, T)
    filt = Filtration(grades=[0, 1, 2],
                      diagrams=[T, T, T1],
                      steps=[{"kind": "identity"},
                             {"kind": "closure", "spec": spec}],
                      field=QQ)
    (run,) = filt.runs()
    for p in run.degrees():
        rt = run.rank_table(p)
        n = rt.size
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    assert rt.rank(i, k) <= min(rt.rank(i, j), rt.rank(j, k))
        bars = barcode_from_ranks(rt)
        for g in range(n):
            alive = sum(b.multiplicity for b in bars
                        if b.birth <= g and (b.death is None or g < b.death))
            assert alive == rt.dims[g]


def test_persistent_betti_polynomials():
    T = bare_arc()
    T1 = TangleDiagram(free_circles=1)
    op = PlanarTangleSpec(inner_boundary=("i0", "i1"), outer_boundary=(),
                          arcs=[("i0", "i1")])
    _, spec = apply_planar(op, T)
    filt = Filtration(grades=[0, 1], diagrams=[T, T1],
                      steps=[{"kind": "closure", "spec": spec}], field=QQ)
    (run,) = filt.runs()
    # H(arc) = q^-1, the image in H(circle) is the v- class at q^-1
    assert run.persistent_betti(0, 0, 0) == LaurentPolynomial({-1: 1})
    assert run.persistent_betti(0, 1, 0) == LaurentPolynomial({-1: 1})
    assert run.persistent_betti(1, 1, 0) == LaurentPolynomial({1: 1, -1: 1})


def test_break_step_splits_runs():
    d1 = braid_closure([1], 2)
    d2 = braid_closure([1, 1], 2)
    filt = Filtration(grades=[0, 1, 2],
                      diagrams=[d1, d1, d2],
                      steps=[{"kind": "identity"}, {"kind": "break"}],
                      field=QQ)
    runs = filt.runs()
    assert [r.size for r in runs] == [2, 1]
    rows = filt.barcode_report()
    assert {r["run"] for r in rows} == {0, 1}


def test_filtration_rejects_bad_grades():
    d = braid_closure([1], 2)
    with pytest.raises(MorphismError):
        Filtration(grades=[0, 0], diagrams=[d, d],
                   steps=[{"kind": "identity"}])


def test_saddle_step_in_filtration():
    d, site = next(iter(saddle_cases()))
    d2 = saddle_target_diagram(d, site)
    filt = Filtration(grades=[0, 1], diagrams=[d, d2],
                      steps=[{"kind": "saddle",
                              "site": {"from": [list(site[0]),
                                                list(site[1])]}}],
                      field=QQ)
    (run,) = on_cube(filt).runs()
    assert len(run.chain_maps) == 1 and run.chain_maps[0].q_shift == -1
    (local,) = filt.runs()
    assert local.q_shifts == [-1] and not local.chain_maps
    assert filt.barcode_report() == on_cube(filt).barcode_report()


def test_cap_cup_filtration_builds_each_complex_once(monkeypatch):
    import tanglekh.persistence as ps
    built = []

    def counting(d, **kwargs):
        built.append(d)
        return build_complex(d, **kwargs)

    monkeypatch.setattr(ps, "build_complex", counting)
    d = braid_closure([1, 1], 2)
    up = TangleDiagram(crossings=d.crossings, connections=d.connections,
                       free_circles=d.free_circles + 1)
    filt = Filtration(grades=[0, 1, 2], diagrams=[d, up, d],
                      steps=[{"kind": "cap"}, {"kind": "cup"}], field=QQ)
    rows = filt.barcode_report()
    # the maps act on the free circle alone: only W's crossingless cubes,
    # one per distinct W
    assert built == [TangleDiagram(), TangleDiagram(free_circles=1)]
    assert on_cube(filt).barcode_report() == rows
    assert built[2:] == [d, up]   # one plain cube per distinct diagram
    c = build_complex(d, field=QQ)
    with pytest.raises(MorphismError, match="cap target mismatch"):
        cap_map(c, dst=c)
    with pytest.raises(MorphismError, match="cup target mismatch"):
        cup_map(build_complex(up, field=QQ), dst=build_complex(up, field=QQ))


def test_equal_grades_build_once(monkeypatch):
    import tanglekh.persistence as ps
    built = []

    def counting(d, **kwargs):
        built.append(d)
        return build_complex(d, **kwargs)

    monkeypatch.setattr(ps, "build_complex", counting)
    d = braid_closure([1, 1, 1], 2)
    filt = Filtration(grades=[0, 1, 2], diagrams=[d, d, d],
                      steps=[{"kind": "identity"}] * 2, field=QQ)
    (run,) = filt.runs()
    assert built == [TangleDiagram()]   # no cube of d, only of W = nothing
    on_cube(filt).runs()
    assert built[1:] == [d]
    h = homology(build_complex(d, field=QQ))
    assert {p: [(b.birth, b.death, b.multiplicity) for b in bars]
            for p, bars in run.barcodes().items()} == \
        {p: [(0, None, h.total_rank(p))] for p in h.degrees}
