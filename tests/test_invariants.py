from tanglekh.algebra import QQ, LaurentPolynomial
from tanglekh.complex import build_complex, homology
from tanglekh.diagram import TangleDiagram
from tanglekh.invariants import (betti_polynomial, jones_from_homology,
                                 state_sum)

from conftest import (bare_arc, braid_closure, kink_arc,
                      random_braid_diagram)


def L(coeffs):
    return LaurentPolynomial(coeffs)


def test_state_sum_fixtures():
    assert state_sum(bare_arc()) == L({-1: 1})
    assert state_sum(kink_arc(-1)) == L({-1: 1})
    assert state_sum(kink_arc(1)) == L({-1: 1})
    assert state_sum(TangleDiagram(free_circles=1)) == L({1: 1, -1: 1})


def test_unknot_jones():
    d = braid_closure([1], 2)
    h = homology(build_complex(d, field=QQ), representatives=False)
    assert jones_from_homology(h) == L({1: 1, -1: 1})
    assert state_sum(d) == L({1: 1, -1: 1})


def test_hopf_jones():
    hplus = braid_closure([1, 1], 2)
    h = homology(build_complex(hplus, field=QQ), representatives=False)
    assert jones_from_homology(h) == L({0: 1, 2: 1, 4: 1, 6: 1})
    hminus = braid_closure([-1, -1], 2)
    h = homology(build_complex(hminus, field=QQ), representatives=False)
    assert jones_from_homology(h) == L({0: 1, -2: 1, -4: 1, -6: 1})


def test_trefoil_jones_both_chiralities():
    right = braid_closure([1, 1, 1], 2)
    h = homology(build_complex(right, field=QQ), representatives=False)
    assert jones_from_homology(h) == L({1: 1, 3: 1, 5: 1, 9: -1})
    left = braid_closure([-1, -1, -1], 2)
    h = homology(build_complex(left, field=QQ), representatives=False)
    assert jones_from_homology(h) == L({-1: 1, -3: 1, -5: 1, -9: -1})


def test_state_sum_equals_homology_random(rng):
    for _ in range(20):
        d = random_braid_diagram(rng, max_crossings=6)
        h = homology(build_complex(d, field=QQ), representatives=False)
        assert jones_from_homology(h) == state_sum(d), d.to_json()


def euler_characteristic_chain_level(c):
    """Alternating sum of the graded dimensions of the chain groups."""
    out = {}
    for p in c.degrees:
        for q, size in c.block_sizes(p).items():
            out[q] = out.get(q, 0) + (-size if p % 2 else size)
    return L(out)


def test_chain_level_euler_characteristic(rng):
    for _ in range(10):
        d = random_braid_diagram(rng, max_crossings=5)
        c = build_complex(d, field=QQ)
        assert euler_characteristic_chain_level(c) == state_sum(d)


def test_betti_polynomial():
    h = homology(build_complex(braid_closure([1, 1, 1], 2), field=QQ),
                 representatives=False)
    assert betti_polynomial(h, 0) == L({1: 1, 3: 1})
    assert betti_polynomial(h, 3) == L({9: 1})
    assert betti_polynomial(h, 5) == L({})
