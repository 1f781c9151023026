"""Runs answered from local ranks against the same runs on the cube.

``Filtration.runs()`` ranks a run of identity, cap, cup and closure steps
that leave D° in place by ``local.ranks`` of D° and the crossingless cubes
of W, the portless arcs and free circles, and a run of two grades joined
by one saddle by the long exact sequence of its cone.  ``on_cube`` puts
every run on the cube.  On seeded filtrations over F2, F3 and Q the
two must give the same ranks, rank tables, persistent Betti polynomials,
bars and barcode report, to the byte."""

import json
import random

import pytest

from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import MAX_STATES, ComplexError, GradedChainComplex
from tanglekh.diagram import PlanarTangleSpec, apply_planar
from tanglekh.persistence import (Filtration, MorphismError, saddle_cone,
                                  saddle_target_diagram)

from conftest import (braid_closure, closing_operator, kink_arc, on_cube,
                      random_braid_diagram, tangle_with_extra_arcs)

FIELDS = {"F2": GF2, "F3": PrimeField(3), "Q": QQ}


def same_as_cube(filt):
    """Assert that both routes agree; returns the number of nonzero ranks
    of maps between distinct grades, and whether every run of two or
    more grades was answered without its cube."""
    local, cube = filt.runs(), on_cube(filt).runs()
    assert json.dumps(filt.barcode_report()) == \
        json.dumps(on_cube(filt).barcode_report())
    nonzero, skipped = 0, True
    for a, b in zip(local, cube):
        assert a.grades == b.grades and a.q_shifts == b.q_shifts
        assert [h.ranks for h in a.homologies] == \
            [h.ranks for h in b.homologies]
        assert [c.diagram for c in a.complexes] == \
            [c.diagram for c in b.complexes]
        skipped &= b.size == 1 or not a.chain_maps
        assert a.degrees() == b.degrees() and a.barcodes() == b.barcodes()
        for p in b.degrees():
            assert a.rank_table(p) == b.rank_table(p)
            for i in range(b.size):
                for j in range(i, b.size):
                    assert a.persistent_betti(i, j, p) == \
                        b.persistent_betti(i, j, p)
                    nonzero += i < j and bool(a.persistent_betti(i, j, p))
    return nonzero, skipped


def tensor_filtrations(rng, field):
    """Identity, cap/cup and closure runs that leave D° in place, with
    free circles and portless arcs."""
    for _ in range(4):
        d = random_braid_diagram(rng, 5, closed=True)
        d = d.with_circles(rng.randint(0, 2))
        up = d.with_circles(d.free_circles + 1)
        yield Filtration(grades=[0, 1, 2, 3], diagrams=[d, d, up, d],
                         steps=[{"kind": "identity"}, {"kind": "cap"},
                                {"kind": "cup", "site": rng.randrange(
                                    up.free_circles)}], field=field)
    for k in range(4):
        n_arcs = rng.randint(1, 2)
        d = tangle_with_extra_arcs(rng, max_crossings=4, n_arcs=n_arcs)
        d = d.with_circles(rng.randint(0, 1))
        n_core = len(d.boundary) - 2 * n_arcs
        ds, steps = [d], []
        for tag in range(2):
            op = closing_operator(ds[-1].boundary, n_core, rng, tag=tag)
            nxt, spec = apply_planar(op, ds[-1])
            ds.append(nxt)
            steps.append({"kind": "closure", "spec": spec} if k % 2
                         else {"kind": "closure", "op": op})
        yield Filtration(grades=list(range(3)), diagrams=ds, steps=steps,
                         field=field)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tensor_runs_match_the_cube(name):
    rng = random.Random(71)
    nonzero = 0
    for filt in tensor_filtrations(rng, FIELDS[name]):
        n, skipped = same_as_cube(filt)
        assert skipped
        nonzero += n
    assert nonzero > 20


def saddle_filtrations(rng, field, count):
    """Two grades joined by one saddle at a random site where a crossing
    fits, on closures and tangles, some with free circles and portless
    arcs; with whether the site needed the mirrored port order."""
    out = []
    while len(out) < count:
        if rng.random() < 0.3:
            d = tangle_with_extra_arcs(rng, max_crossings=4, n_arcs=1)
        else:
            d = random_braid_diagram(rng, 6, closed=rng.random() < 0.7)
        d = d.with_circles(rng.choice([0, 0, 1]))
        i, j = rng.sample(range(len(d.connections)), 2)
        site = (d.connections[i], d.connections[j])
        try:
            tilde, d2 = saddle_cone(d, site)
        except MorphismError:
            continue
        x = tilde.crossings[-1].ports[0]
        mirrored = not {frozenset((site[0][0], x))} & set(
            map(frozenset, tilde.connections))
        out.append((Filtration(grades=[0, 1], diagrams=[d, d2], steps=[
            {"kind": "saddle", "site": {"from": site}}], field=field),
            mirrored))
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_saddle_runs_match_the_cube(name):
    rng = random.Random(73)
    nonzero, orders = 0, set()
    for filt, mirrored in saddle_filtrations(rng, FIELDS[name], 30):
        try:
            on_cube(filt).runs()
        except ValueError:   # the cube refuses it: so must the local route
            with pytest.raises(ValueError):
                filt.runs()
            continue
        n, skipped = same_as_cube(filt)
        assert skipped
        nonzero += n
        orders.add(mirrored)
    assert nonzero > 10 and orders == {False, True}


def test_other_runs_stay_on_the_cube():
    """Closing a strand through a crossing changes D°, two saddles need
    composite ranks, and one-grade runs keep the cube."""
    d = kink_arc(-1)
    op = PlanarTangleSpec(("i0", "i1"), (), [("i0", "i1")])
    closed, _ = apply_planar(op, d)
    link = braid_closure([1, 1, 1], 2)
    (a, b), (c, e) = site = (link.connections[0], link.connections[1])
    split = saddle_target_diagram(link, site)
    for filt in (
            Filtration(grades=[0, 1], diagrams=[d, closed],
                       steps=[{"kind": "closure", "op": op}], field=QQ),
            Filtration(grades=[0, 1, 2], diagrams=[link, split, link],
                       steps=[{"kind": "saddle", "site": {"from": site}},
                              {"kind": "saddle", "site": {
                                  "from": ((a, c), (b, e))}}], field=QQ),
            Filtration(grades=[0, 1], diagrams=[link, link],
                       steps=[{"kind": "break"}], field=QQ)):
        for run in filt.runs():
            assert len(run.chain_maps) == run.size - 1
            assert all(isinstance(c, GradedChainComplex)
                       for c in run.complexes)
        same_as_cube(filt)


def test_local_runs_beyond_the_cube():
    """A cap/cup run of a 17-crossing closure, above MAX_STATES, is
    answered; the same diagram alone in a one-grade run is refused."""
    word = ([1, 1, 1, 2, 2, 2] * 3)[:17]
    d = braid_closure(word, 3)
    assert 1 << d.n > MAX_STATES
    up = d.with_circles(1)
    filt = Filtration(grades=[0, 1, 2], diagrams=[d, up, d],
                      steps=[{"kind": "cap"}, {"kind": "cup"}], field=GF2)
    (run,) = filt.runs()
    for p in run.degrees():
        table = run.rank_table(p)
        assert table.r[(0, 2)] == 0 and table.r[(0, 1)] == table.dims[0]
        assert table.dims[1] == 2 * table.dims[0] == 2 * table.r[(1, 2)]
    with pytest.raises(ComplexError, match=r"2\^17"):
        Filtration(grades=[0], diagrams=[d], steps=[], field=GF2).runs()


def test_invalid_steps_fail_as_on_the_cube():
    """A step whose diagrams do not match it is refused with the cube's
    message, before any local rank."""
    d = braid_closure([1, 1, 1], 2)
    up = d.with_circles(1)
    cases = [([d, up], {"kind": "identity"}, "identity target mismatch"),
             ([d, d], {"kind": "cap"}, "cap target mismatch"),
             ([up, up], {"kind": "cup"}, "cup target mismatch"),
             ([up, d], {"kind": "cup", "site": 3},
              "free circle index 3 out of range")]
    for ds, step, message in cases:
        filt = Filtration(grades=[0, 1], diagrams=ds, steps=[step])
        with pytest.raises(MorphismError, match="step 0: " + message):
            filt.runs()
