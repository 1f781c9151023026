"""Free circles as a tensor factor, against the whole cube.

``build_complex`` walks only the core of D ⊔ k circles, the diagram
without its free circles, and ``homology`` reduces only the core and
expands the result over the circles (``BigradedHomology.tensor``).  The
references here reduce the whole cube of D ⊔ k instead:

- ``stored_complex.stored_homology`` gives its ranks;
- ``complex._reduce`` run on the whole complex, every block eliminated in
  index order as every cube was before, gives ranks and representatives,
  which must equal the core's representatives z ⊗ e_f in index order;
- ``persistence_reference.induced_on_homology`` solves the induced maps
  of cap, cup and closure steps that add or close circles against those
  whole-cube homologies, and the rank tables and bars built from it must
  equal the library's.

Inputs are seeded closures and tangles with 1-3 free circles and 0-2
portless arcs, over F2, F3 and Q."""

import random

import pytest

import tanglekh.persistence as ps
from tanglekh import complex as cx
from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import build_complex, homology
from tanglekh.diagram import apply_planar
from tanglekh.persistence import Filtration, FiltrationRun

import persistence_reference as ref
from conftest import (braid_closure, closing_operator, on_cube,
                      tangle_with_extra_arcs)
from stored_complex import StoredComplex, stored_homology

FIELDS = {"F2": GF2, "F3": PrimeField(3), "Q": QQ}


def closure(rng):
    strands = rng.randint(2, 3)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(2, 5))]
    return braid_closure(word, strands)


def cases(rng, count):
    """Closures and tangles with 0-2 portless arcs, each with 1-3 free
    circles."""
    for k in range(count):
        d = (closure(rng) if k % 2 else
             tangle_with_extra_arcs(rng, max_crossings=3, n_arcs=k // 2 % 3))
        yield d.with_circles(rng.randint(1, 3))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_homology_equals_the_whole_cube(name):
    field = FIELDS[name]
    rng = random.Random(41)
    reps = 0
    for d in cases(rng, 45):
        c = build_complex(d, field=field)
        assert c.free == d.free_circles and not c.core.free
        whole = cx._reduce(c, True)
        h = homology(c)
        order = [(p, q) for p in c.degrees for q in c.block_sizes(p)]
        assert list(h.ranks) == [b for b in order if b in whole.ranks]
        assert h.ranks == whole.ranks == stored_homology(
            StoredComplex(d, field))
        assert h.representatives == whole.representatives
        assert homology(c, representatives=False).ranks == h.ranks
        reps += sum(len(zs) > 1 for zs in h.representatives.values())
    assert reps > 50   # blocks where the order of representatives matters


def filtrations(rng, field):
    """Cap/cup runs on closures and closure runs on tangles with arcs,
    each grade with free circles."""
    for _ in range(8):
        d = closure(rng).with_circles(rng.randint(1, 2))
        up = d.with_circles(d.free_circles + 1)
        yield Filtration(grades=[0, 1, 2, 3], diagrams=[d, up, d, up],
                         steps=[{"kind": "cap"},
                                {"kind": "cup", "site": rng.randrange(
                                    up.free_circles)},
                                {"kind": "cap"}], field=field)
    for _ in range(8):
        n_arcs = 2
        d = tangle_with_extra_arcs(rng, max_crossings=4, n_arcs=n_arcs)
        d = d.with_circles(rng.randint(1, 2))
        n_core = len(d.boundary) - 2 * n_arcs
        ds, steps = [d], []
        for k in range(2):
            op = closing_operator(ds[-1].boundary, n_core, rng, tag=k)
            nxt, spec = apply_planar(op, ds[-1])
            ds.append(nxt)
            steps.append({"kind": "closure", "spec": spec})
        yield Filtration(grades=[0, 1, 2], diagrams=ds, steps=steps,
                         field=field)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_persistence_equals_the_whole_cube(name, monkeypatch):
    field = FIELDS[name]
    rng = random.Random(43)
    nonzero = 0
    for filt in filtrations(rng, field):
        assert filt.barcode_report() == on_cube(filt).barcode_report()
        for run in on_cube(filt).runs():
            assert run.chain_maps
            whole = [cx._reduce(c, True) for c in run.complexes]
            for h, w in zip(run.homologies, whole):
                assert h.representatives == w.representatives
            for i, f in enumerate(run.chain_maps):
                mats = ps.induced_on_homology(f, run.homologies[i],
                                              run.homologies[i + 1])
                assert mats == ref.induced_on_homology(f, whole[i],
                                                       whole[i + 1])
                nonzero += sum(map(bool, sum(mats.values(), [])))
            expect = FiltrationRun(run.grades, run.complexes,
                                   run.chain_maps, whole)
            with monkeypatch.context() as m:
                m.setattr(ps, "induced_on_homology", ref.induced_on_homology)
                tables = {p: expect.rank_table(p) for p in run.degrees()}
                bars = expect.barcodes()
            assert {p: run.rank_table(p) for p in run.degrees()} == tables
            assert run.barcodes() == bars
    assert nonzero > 100
