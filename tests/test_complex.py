import random

import pytest

from tanglekh.algebra import GF2, QQ
from tanglekh.complex import (ComplexError, build_complex, homology,
                              verify_d_squared, verify_phi_homogeneous)
from tanglekh.diagram import TangleDiagram

from conftest import (bare_arc, braid_closure, braid_tangle, kink_arc,
                      random_braid_diagram)
from cube_helpers import negate_edge


def test_empty_diagram():
    c = build_complex(TangleDiagram(), field=QQ)
    h = homology(c)
    assert h.ranks == {(0, 0): 1}


def test_single_circle():
    c = build_complex(TangleDiagram(free_circles=1), field=QQ)
    h = homology(c)
    assert h.ranks == {(0, 1): 1, (0, -1): 1}


def test_bare_arc_homology():
    h = homology(build_complex(bare_arc(), field=QQ))
    assert h.ranks == {(0, -1): 1}


def test_neg_kink_complex_shape():
    """Arc at degree -1, arc plus circle at degree 0, d(w) = w (x) v-."""
    c = build_complex(kink_arc(-1), field=QQ)
    assert c.degrees == [-1, 0]
    assert [g.labels for g in c.basis[-1]] == [("w",)]
    assert [g.labels for g in c.basis[0]] == [("w", "+"), ("w", "-")]
    assert c.differentials[-1] == [{1: QQ.one}]


def test_pos_kink_complex_shape():
    c = build_complex(kink_arc(1), field=QQ)
    assert c.degrees == [0, 1]
    assert [g.labels for g in c.basis[0]] == [("w", "+"), ("w", "-")]
    assert [g.labels for g in c.basis[1]] == [("w",)]
    assert c.differentials[0] == [{0: QQ.one}, {}]


def test_kink_homology_with_representatives():
    cases = {-1: ("w", "+"), 1: ("w", "-")}
    for sign, labels in cases.items():
        c = build_complex(kink_arc(sign), field=QQ)
        h = homology(c)
        assert h.ranks == {(0, -1): 1}
        (rep,) = h.representatives[(0, -1)]
        (idx,) = rep
        assert c.basis[0][idx].labels == labels


def test_invalid_diagram_raises():
    bad = TangleDiagram(boundary=("a",), connections=[])
    with pytest.raises(ComplexError):
        build_complex(bad)


def test_d_squared_and_phi_random(rng):
    for _ in range(25):
        d = random_braid_diagram(rng, max_crossings=6)
        for field in (QQ, GF2):
            c = build_complex(d, field=field)
            ok, w = verify_d_squared(c)
            assert ok, (d, w)
            ok, w = verify_phi_homogeneous(c)
            assert ok, (d, w)


def test_sign_flip_mutation_breaks_d_squared():
    d = braid_closure([1, 1], 2)
    c = negate_edge(build_complex(d, field=QQ), ((0, 0), 1))
    ok, _ = verify_d_squared(c)
    assert not ok


def test_gf2_and_rational_ranks_agree(rng):
    """No 2-torsion on these small fixtures, so ranks must coincide."""
    for d in (braid_closure([1, 1], 2), braid_closure([-1], 2),
              braid_tangle([1, -1], 2), kink_arc(-1)):
        hq = homology(build_complex(d, field=QQ), representatives=False)
        h2 = homology(build_complex(d, field=GF2), representatives=False)
        assert hq.ranks == h2.ranks


def test_representatives_are_cocycles(rng):
    for _ in range(5):
        d = random_braid_diagram(rng, max_crossings=4)
        for field in (QQ, GF2):
            c = build_complex(d, field=field)
            h = homology(c)
            for (p, q), reps in h.representatives.items():
                for z in reps:
                    out = {}
                    for i, coeff in z.items():
                        for j, v in c.differentials[p][i].items():
                            nv = field.add(out.get(j, field.zero),
                                           field.mul(coeff, v))
                            if nv == field.zero:
                                out.pop(j, None)
                            else:
                                out[j] = nv
                    assert out == {}
                    assert all(c.q_of(p, i) == q for i in z)


def test_total_rank_and_degrees():
    h = homology(build_complex(braid_closure([1, 1, 1], 2), field=QQ),
                 representatives=False)
    assert h.degrees == [0, 2, 3]
    assert h.total_rank(0) == 2


def test_homology_json():
    h = homology(build_complex(bare_arc(), field=QQ), representatives=False)
    data = h.to_json()
    assert data["ranks"] == [{"p": 0, "q": -1, "rank": 1}]
    assert data["field"] == "Q"
