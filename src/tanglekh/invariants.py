"""Graded Euler characteristic, Betti polynomials, and the state-sum
oracle.

The state sum deliberately shares nothing with the cube/complex pipeline:
it only needs circle/arc counts per state, so agreement with the homology
side is genuine evidence of correctness.
"""

from __future__ import annotations

import itertools

from .algebra import LaurentPolynomial, Q_PLUS_QINV
from .complex import BigradedHomology
from .diagram import TangleDiagram, resolve


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
    """
    n_plus, n_minus = d.n_plus, d.n_minus
    total = LaurentPolynomial.zero()
    for state in itertools.product((0, 1), repeat=d.n):
        res = resolve(d, state)
        ell = sum(state)
        sign = -1 if (ell - n_minus) % 2 else 1
        term = LaurentPolynomial.q(ell + n_plus - 2 * n_minus - res.t, sign)
        term = term * (Q_PLUS_QINV ** res.r)
        total = total + term
    return total

