"""Induced maps on homology: ``BigradedHomology.classes`` and the
``induced_on_homology`` built on it, against the solver kept in
``persistence_reference.py``, which rebuilds each target block's image
from ``block_columns``.  Both solve in the complex's generator indices,
the rows of ``block_columns`` and the keys of representatives."""

import json
import random
from fractions import Fraction

import pytest

import tanglekh.persistence as ps
from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import build_complex, homology
from tanglekh.diagram import TangleDiagram, apply_planar
from tanglekh.persistence import (ClosureMorphismSpec, Filtration,
                                  MorphismError, build_psi, identity_map,
                                  induced_on_homology, saddle_map,
                                  saddle_target_diagram, verify_chain_map)

import persistence_reference as ref
from conftest import (braid_closure, chain_columns, closing_operator,
                      on_cube, random_braid_diagram, tangle_with_extra_arcs)

FIELDS = {"F2": GF2, "F3": PrimeField(3), "Q": QQ}


def scalar(field, rng):
    """A random nonzero field element."""
    if field.char:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def with_circles(d, extra):
    return TangleDiagram(boundary=d.boundary, crossings=d.crossings,
                         connections=d.connections,
                         free_circles=d.free_circles + extra)


def classes_cases(rng):
    """Closures, tangles with portless arcs, and free circles."""
    yield braid_closure([1, 1, 1], 2)
    yield braid_closure([1, 1, 1, 1, 1], 2)
    yield with_circles(braid_closure([1, -2, 1], 3), 1)
    yield TangleDiagram(free_circles=2)
    for _ in range(3):
        yield tangle_with_extra_arcs(rng, max_crossings=3, n_arcs=1)
    for _ in range(4):
        yield random_braid_diagram(rng, max_crossings=4)


def random_chain(c, p, q, rng):
    """A random chain vector of block (p, q), {} if the block is empty."""
    field = c.field
    gens = c.block_generators(p, q) if p in c.dims else []
    return {i: scalar(field, rng) for i in gens if rng.random() < 0.5}


def differential(c, p, vec):
    return linalg.matvec(c.differentials[p], vec, c.field) if vec else {}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_classes_on_representatives_and_coboundaries(name):
    field = FIELDS[name]
    rng = random.Random(1409)
    for d in classes_cases(rng):
        c = build_complex(d, field=field)
        h = homology(c)
        for (p, q), reps in h.representatives.items():
            for k, z in enumerate(reps):
                assert h.classes(p, q, z) == {k: field.one}, d.to_json()
            assert h.classes(p, q, {}) == {}
            for _ in range(3):
                b = differential(c, p - 1, random_chain(c, p - 1, q, rng))
                assert h.classes(p, q, b) == {}
                k = rng.randrange(len(reps))
                z = linalg.add_into(dict(reps[k]), b, field.one, field)
                assert h.classes(p, q, z) == {k: field.one}
                s = scalar(field, rng)
                z = linalg.add_into({}, reps[k], s, field)
                assert h.classes(p, q, z) == {k: s}
            # a generator of the block whose d is nonzero is no cocycle
            for i in c.block_generators(p, q):
                if differential(c, p, {i: field.one}):
                    with pytest.raises(ValueError):
                        h.classes(p, q, linalg.add_into(
                            {i: field.one}, reps[0], field.one, field))
                    break


def test_induced_map_of_a_non_chain_map_raises():
    c = build_complex(braid_closure([1, 1, 1, 1, 1], 2), field=QQ)
    h = homology(c)
    f = identity_map(c, c)
    for (p, q), reps in h.representatives.items():
        bad = [i for i in c.block_generators(p, q)
               if differential(c, p, {i: QQ.one})]
        if bad:
            break
    f.apply = lambda pp, vec: {bad[0]: QQ.one} if vec is reps[0] else vec
    with pytest.raises(MorphismError, match="the image of a cocycle is "
                       rf"not a cocycle at \(p, q\) = \({p}, {q}\)"):
        induced_on_homology(f, h, h)


def test_induced_map_into_a_zero_block_checks_the_image():
    """An image that lands in a target block with H = 0 must still be a
    cocycle there."""
    c = build_complex(braid_closure([1, 1, 1, 1, 1], 2), field=QQ)
    h = homology(c)
    f = identity_map(c, c)
    (p, q), reps = next(iter(h.representatives.items()))
    t = next(t for t in c.block_sizes(p) if not h.rank(p, t)
             and any(differential(c, p, {i: QQ.one})
                     for i in c.block_generators(p, t)))
    bad = next(i for i in c.block_generators(p, t)
               if differential(c, p, {i: QQ.one}))
    f.q_shift = t - q
    f.apply = lambda pp, vec: {bad: QQ.one} if vec is reps[0] else {}
    with pytest.raises(MorphismError, match="the image of a cocycle is "
                       rf"not a cocycle at \(p, q\) = \({p}, {t}\)"):
        induced_on_homology(f, h, h)


def test_classes_builds_each_solver_once():
    c = build_complex(braid_closure([1, 1, 1, 1, 1], 2), field=QQ)
    h = homology(c)
    (p, q), reps = next(iter(h.representatives.items()))
    red = h.echelons[(p, q)]
    image = red.rank
    h.classes(p, q, reps[0])
    assert red.rank == image + len(reps)
    h.classes(p, q, reps[-1])
    assert red.rank == image + len(reps) and h.echelons[(p, q)] is red


def test_classes_skips_zero_blocks():
    """A block with H = 0 keeps no echelon to solve against: ``classes``
    gives {} for a coboundary there and raises for a chain that is no
    cocycle."""
    c = build_complex(braid_closure([1, 1, 1], 2), field=QQ)
    h = homology(c)
    p, q = 1, 3   # H^{1,3} = 0 for the trefoil
    assert h.rank(p, q) == 0 and (p, q) not in h.echelons
    rng = random.Random(3)
    b = differential(c, p - 1, random_chain(c, p - 1, q, rng))
    assert b and h.classes(p, q, b) == {}
    z = random_chain(c, p, q, rng)
    assert differential(c, p, z)
    with pytest.raises(ValueError, match=r"not a cocycle at \(p, q\) = "
                       rf"\({p}, {q}\)"):
        h.classes(p, q, z)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_only_homology_keeps_no_echelon(name):
    c = build_complex(braid_closure([1, 1, 1], 2), field=FIELDS[name])
    h = homology(c, representatives=False)
    assert h.echelons == {} and h.representatives == {}
    (p, q), _ = next(iter(h.ranks.items()))
    with pytest.raises(ValueError, match="without representatives"):
        h.classes(p, q, {c.block_generators(p, q)[0]: c.field.one})
    # with representatives, only blocks with H != 0 keep one
    assert set(homology(c).echelons) == set(h.ranks)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_identity_map(name):
    rng = random.Random(77)
    for d in classes_cases(rng):
        c = build_complex(d, field=FIELDS[name])
        f = identity_map(c, c)
        ok, w = verify_chain_map(f)
        assert ok, w
        assert f.q_shift == 0
        assert chain_columns(f) == chain_columns(
            build_psi(c, c, ClosureMorphismSpec.identity(d)))
        other = build_complex(d, field=FIELDS[name])
        assert identity_map(c, other).dst is other
        assert identity_map(c).dst is c


def test_identity_map_needs_equal_diagrams():
    a, b = braid_closure([1, 1, 1], 2), braid_closure([1, 1], 2)
    with pytest.raises(MorphismError, match="identity target mismatch"):
        identity_map(build_complex(a), build_complex(b))
    filt = Filtration(grades=[0, 1], diagrams=[a, b],
                      steps=[{"kind": "identity"}])
    with pytest.raises(MorphismError, match="step 0: identity"):
        filt.runs()


def test_persistent_betti_range():
    d = braid_closure([1, 1, 1], 2)
    filt = Filtration(grades=[0, 1, 2], diagrams=[d] * 3,
                      steps=[{"kind": "identity"}] * 2, field=QQ)
    (run,) = filt.runs()
    for a, b in ((0, 5), (2, 1), (0, 3), (-1, 0), (3, 3)):
        with pytest.raises(ValueError, match=r"0 <= a <= b < 3"):
            run.persistent_betti(a, b, 0)
    assert run.persistent_betti(0, 2, 0) == run.persistent_betti(2, 2, 0)


# -- against the reference solver on random filtrations -------------------


def saddle_site(d, rng):
    """Two connections of ``d`` whose re-pairing has a chain map, or
    None."""
    conns = list(d.connections)
    rng.shuffle(conns)
    for i in range(len(conns)):
        for j in range(i + 1, len(conns)):
            site = (conns[i], conns[j])
            try:
                d2 = saddle_target_diagram(d, site)
                saddle_map(build_complex(d), build_complex(d2), site)
            except (MorphismError, ValueError):
                continue
            return site, d2
    return None


def random_filtration(rng, field):
    """A filtration of 2-4 diagrams whose steps are drawn among the
    identity, closure (by spec or by operator), cap, cup, saddle and break
    steps that apply to the current diagram.  Returns it with the set of
    step kinds used."""
    if rng.random() < 0.4:
        n_arcs = rng.randint(1, 2)
        d = tangle_with_extra_arcs(rng, max_crossings=3, n_arcs=n_arcs)
        n_core = len(d.boundary) - 2 * n_arcs
    else:
        d = random_braid_diagram(rng, max_crossings=4, closed=True)
        n_core = 0
    diagrams, steps, kinds = [d], [], set()
    for _ in range(rng.randint(1, 3)):
        d = diagrams[-1]
        options = ["identity", "break"]
        if len(d.boundary) > n_core:
            options += ["closure-spec", "closure-op"]
        if not d.boundary:
            options += ["cap", "saddle"]
        if d.free_circles:
            options.append("cup")
        kind = rng.choice(options)
        if kind in ("identity", "break"):
            nxt, step = d, {"kind": kind}
        elif kind.startswith("closure"):
            op = closing_operator(d.boundary, n_core, rng, tag=len(steps))
            nxt, spec = apply_planar(op, d)
            step = ({"kind": "closure", "spec": spec}
                    if kind == "closure-spec"
                    else {"kind": "closure", "op": op})
        elif kind == "cap":
            nxt, step = with_circles(d, 1), {"kind": "cap"}
        elif kind == "cup":
            k = rng.randrange(d.free_circles)
            nxt = with_circles(d, -1)
            step = {"kind": "cup", "site": k}
        else:
            found = saddle_site(d, rng)
            if found is None:
                nxt, step, kind = d, {"kind": "identity"}, "identity"
            else:
                site, nxt = found
                step = {"kind": "saddle", "site": {"from": site}}
        kinds.add(kind)
        diagrams.append(nxt)
        steps.append(step)
    filt = Filtration(grades=list(range(len(diagrams))), diagrams=diagrams,
                      steps=steps, field=field)
    return filt, kinds


def test_induced_maps_match_reference(monkeypatch):
    """On 306 seeded random filtrations over F2, F3 and Q, all on the
    cube, the induced matrices equal the reference's and so does the
    barcode report, to the byte; so does the report of the default route,
    which answers some runs without their cube."""
    rng = random.Random(2026)
    kinds = set()
    count = maps = 0
    for name in sorted(FIELDS):
        for _ in range(102):
            filt, used = random_filtration(rng, FIELDS[name])
            kinds |= used
            cube = on_cube(filt)
            rows = json.dumps(cube.barcode_report())
            for run in cube.runs():
                for i, f in enumerate(run.chain_maps):
                    h_src, h_dst = run.homologies[i], run.homologies[i + 1]
                    assert induced_on_homology(f, h_src, h_dst) == \
                        ref.induced_on_homology(f, h_src, h_dst)
                    maps += 1
            with monkeypatch.context() as m:
                m.setattr(ps, "induced_on_homology",
                          ref.induced_on_homology)
                for run in cube.runs():
                    run._induced.clear()
                assert json.dumps(cube.barcode_report()) == rows
            assert json.dumps(filt.barcode_report()) == rows
            count += 1
    assert count >= 300 and maps >= 300
    assert kinds == {"identity", "break", "closure-spec", "closure-op",
                     "cap", "cup", "saddle"}
