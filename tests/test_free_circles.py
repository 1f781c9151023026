"""Free circles on the plain cube, against the Künneth factor.

``build_complex`` walks D ⊔ k circles itself: ``diagram.walk`` numbers the
free circles last, so they are the lowest k bits of each mask, and every
saddle carries them as bystanders.  No saddle touches a free circle, so
C(D ⊔ k·O) = C(D) ⊗ V^{⊗k} (Khovanov, arXiv math/9908171).  The
references here build the homology of D ⊔ k from that of D alone:

- ``kunneth`` expands the homology of the core D, the diagram without its
  free circles, over V^{⊗k}: core block (p, q) and free labels f give
  block (p, q + k - 2|f|), and its representatives z ⊗ e_f, listed by
  highest index, must equal the plain cube's, which a whole block's
  elimination finds in that order, in every grade of a run too;
- ``stored_complex.stored_homology`` and ``local.ranks`` give its ranks;
- ``persistence_reference.induced_on_homology`` solves the induced maps
  of cap, cup and closure steps that add or close circles against fresh
  homologies, and the rank tables and bars built from it must equal the
  library's.

Inputs are seeded closures and tangles with 1-3 free circles and 0-2
portless arcs, over F2, F3 and Q."""

import random

import pytest

import tanglekh.persistence as ps
from tanglekh import local
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


def kunneth(core, c):
    """(ranks, representatives) of ``c``, the complex of the core plus k
    free circles, from ``core``, the core's homology: blocks in the
    order of ``c.block_sizes``, representatives by highest index."""
    k = c.diagram.free_circles
    ranks, reps = {}, {}
    for (p, qc), r in core.ranks.items():
        for f in range(1 << k):
            b = (p, qc + k - 2 * f.bit_count())
            ranks[b] = ranks.get(b, 0) + r
            reps.setdefault(b, []).extend(
                {i << k | f: x for i, x in z.items()}
                for z in core.representatives[(p, qc)])
    order = [(p, q) for p in c.degrees for q in c.block_sizes(p)
             if (p, q) in ranks]
    return ({b: ranks[b] for b in order},
            {b: sorted(reps[b], key=max) for b in order})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_homology_equals_the_whole_cube(name):
    field = FIELDS[name]
    rng = random.Random(41)
    reps = 0
    for d in cases(rng, 45):
        c = build_complex(d, field=field)
        assert c.diagram == d and len(c.layout) == 1 << d.n
        ranks, expect = kunneth(
            homology(build_complex(d.with_circles(0), field=field)), c)
        h = homology(c)
        assert list(h.ranks.items()) == list(ranks.items())
        assert h.ranks == stored_homology(StoredComplex(d, field)) == \
            local.ranks(d, field)
        assert list(h.representatives.items()) == list(expect.items())
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
            whole = [homology(c) for c in run.complexes]
            for h, c in zip(run.homologies, run.complexes):
                core = homology(build_complex(c.diagram.with_circles(0),
                                              field=field))
                assert h.representatives == kunneth(core, c)[1]
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
