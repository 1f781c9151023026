"""The stored-column differential, kept as the reference for the kernel.

``StoredComplex`` is the builder the package used before the differential
became a view: it resolves and classifies like ``build_complex`` and then
lets each cube edge's saddle fill the columns of all 2^r source masks as
dicts, so the whole differential is held at once.  ``stored_homology`` is
the rank-only reduce that ran on those columns, remapping every column of
a block into block-local rows, and ``stored_d_squared`` the d^2 check
that multiplied dict columns.  ``GradedChainComplex.block_columns`` and
its views must agree with these exactly.
"""

import itertools

from tanglekh import linalg
from tanglekh.cube import StateTable, classify, saddle_mask_map
from tanglekh.diagram import resolve


class StoredComplex:
    def __init__(self, d, field, sign_flip=None):
        self.field = field
        _, rank, _, ports = d.wiring()
        self.resolutions, self.layout, self.q0 = {}, {}, {}
        tables, dims = {}, {}
        for state in itertools.product((0, 1), repeat=d.n):
            res = resolve(d, state)
            self.resolutions[state] = res
            p = sum(state) - d.n_minus
            off = dims.get(p, 0)
            self.layout[state] = (p, off)
            self.q0[state] = p + d.n_plus - d.n_minus + res.r - res.t
            dims[p] = off + (1 << res.r)
            tables[state] = StateTable(res, rank)

        one = field.one
        neg_one = field.neg(one)
        self.differentials = {p: [{} for _ in range(k)]
                              for p, k in dims.items()}
        for state, src in tables.items():
            p, off = self.layout[state]
            cols = self.differentials[p]
            ones = 0
            for star, bit in enumerate(state):
                if bit:
                    ones += 1
                    continue
                tgt_state = state[:star] + (1,) + state[star + 1:]
                dst = tables[tgt_state]
                cls = classify(src, dst, ports[star])
                negative = (ones % 2 == 1) != (sign_flip == (state, star))
                saddle_mask_map(cls, src.bits, dst.bits).fill(
                    cols, off, self.layout[tgt_state][1],
                    neg_one if negative else one)

    @property
    def degrees(self):
        return sorted(self.differentials)

    def q_blocks(self, p):
        out = {}
        for state, (pp, off) in self.layout.items():
            if pp != p:
                continue
            r = self.resolutions[state].r
            for m in sorted(range(1 << r), key=lambda m: bin(m).count("1")):
                q = self.q0[state] - 2 * bin(m).count("1")
                out.setdefault(q, []).append(off + m)
        return out


def stored_homology(c):
    """Rank-only homology of a ``StoredComplex``: every block remapped into
    block-local rows, with clearing."""
    f = c.field
    ranks = {}
    blocks = {p: c.q_blocks(p) for p in c.degrees}
    cleared = {}
    for p in c.degrees:
        cols = c.differentials[p]
        nxt = blocks.get(p + 1, {})
        pivots = {}
        for q, gens in blocks[p].items():
            skip = cleared.get(q, ())
            rows = {g: k for k, g in enumerate(nxt.get(q, ()))}
            red = linalg.reducer(f)
            live = 0
            for k, i in enumerate(gens):
                if k not in skip:
                    red.add(red.load({rows[j]: x
                                      for j, x in cols[i].items()}))
                    live += 1
            pivots[q] = red.pivot_rows()
            if live - red.rank:
                ranks[(p, q)] = live - red.rank
        cleared = pivots
    return ranks


def stored_d_squared(c):
    """(ok, first violating (p, column)) by multiplying dict columns."""
    f = c.field
    for p in c.degrees:
        nxt = c.differentials.get(p + 1)
        if nxt is None:
            continue
        for i, col in enumerate(c.differentials[p]):
            acc = {}
            for j, coeff in col.items():
                linalg.add_into(acc, nxt[j], coeff, f)
            if acc:
                return False, (p, i)
    return True, None
