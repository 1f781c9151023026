"""Graded Euler characteristic, Betti polynomials, and the state-sum
oracle.

The state sum deliberately shares nothing with the cube/complex pipeline:
it counts each state's circles and arcs with its own union-find, so
agreement with the homology side is genuine evidence of correctness.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, Q_PLUS_QINV
from .complex import BigradedHomology
from .diagram import TangleDiagram


def jones_from_homology(h: BigradedHomology) -> LaurentPolynomial:
    """Sum over (p, q) of (-1)^p rank q^q."""
    out = {}
    for (p, q), r in h.ranks.items():
        out[q] = out.get(q, 0) + (r if p % 2 == 0 else -r)
    return LaurentPolynomial(out)


def betti_polynomial(h: BigradedHomology, p: int) -> LaurentPolynomial:
    return LaurentPolynomial(
        {q: r for (pp, q), r in h.ranks.items() if pp == p})


def state_sum(d: TangleDiagram) -> LaurentPolynomial:
    """Graded Euler characteristic computed directly on the chain level.

    Each state contributes (-1)^(l-n-) q^(l+n+-2n-) (q+1/q)^r (1/q)^t.
    Its r circles and t arcs (the components with boundary points) are
    found by union-find over the labels joined by connections and by the
    smoothing of each crossing: bit 0 joins ports 0-3, 1-2, bit 1 0-1, 2-3.
    """
    root = {}   # label -> a label of the same component, one state at a time

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    n_plus, n_minus = d.n_plus, d.n_minus
    total = LaurentPolynomial.zero()
    for state in range(1 << d.n):   # crossing k takes bit k
        root.clear()
        joins = list(d.connections)
        for k, c in enumerate(d.crossings):
            a, b, e, f = c.ports
            joins += [(a, b), (e, f)] if state >> k & 1 else [(a, f), (b, e)]
        for x, y in joins:
            root[find(x)] = find(y)
        t = len({find(x) for x in d.boundary})
        r = len({find(x) for j in joins for x in j}) - t + d.free_circles
        ell = state.bit_count()
        sign = -1 if (ell - n_minus) % 2 else 1
        term = LaurentPolynomial.q(ell + n_plus - 2 * n_minus - t, sign)
        total = total + term * (Q_PLUS_QINV ** r)
    return total
