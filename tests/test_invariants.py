import itertools

from tanglekh.algebra import QQ, Q_PLUS_QINV, LaurentPolynomial
from tanglekh.complex import build_complex, homology
from tanglekh.diagram import TangleDiagram, resolve
from tanglekh.invariants import (betti_polynomial, jones_from_homology,
                                 state_sum)

from conftest import (bare_arc, braid_closure, kink_arc,
                      random_braid_diagram, tangle_with_extra_arcs)


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


def resolve_state_sum(d):
    """The state sum over the circle and arc counts of ``resolve``."""
    total = LaurentPolynomial.zero()
    for state in itertools.product((0, 1), repeat=d.n):
        res = resolve(d, state)
        ell = sum(state)
        term = LaurentPolynomial.q(ell + d.n_plus - 2 * d.n_minus - res.t,
                                   -1 if (ell - d.n_minus) % 2 else 1)
        total = total + term * (Q_PLUS_QINV ** res.r)
    return total


def test_state_sum_counts_components_on_its_own(rng):
    """The union-find count of the state sum agrees with ``resolve`` on
    closed diagrams, tangles, portless arcs and free circles."""
    cases = [bare_arc(), TangleDiagram(free_circles=2),
             TangleDiagram(boundary=("a", "b", "c", "d"),
                           connections=[("a", "b"), ("c", "d")],
                           free_circles=1)]
    cases += [random_braid_diagram(rng, max_crossings=6, closed=closed)
              for closed in (True, False) for _ in range(30)]
    cases += [tangle_with_extra_arcs(rng, n_arcs=k)
              for k in (1, 2, 3) for _ in range(10)]
    for d in cases:
        assert state_sum(d) == resolve_state_sum(d), d.to_json()
