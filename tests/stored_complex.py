"""The stored-column differential, kept as the reference for the kernel.

``StoredComplex`` is the builder the package used before the differential
became a view: it resolves and classifies like ``build_complex`` and then
lets each cube edge's saddle fill the columns of all 2^r source masks as
dicts, so the whole differential is held at once, in field values.
``stored_homology`` is the rank-only reduce that ran on those columns,
remapping every column of a block into block-local rows, and
``stored_d_squared`` the d^2 check that multiplied dict columns.  The
package now names a generator by its global index alone: the columns of
``GradedChainComplex.block_columns`` are the stored ones restricted to a
block, in the same rows with int entries, and its views, ranks and d^2
verdicts must agree with these exactly.

``StateTable``, ``classify`` and ``saddle_parts`` are the classifier the
package used before it moved to rank space: it reads the component
records of two ``Resolution``s, so it is kept here as the independent
reference for ``cube.saddle``.  ``MaskMap`` is the column filler the
package used for the differential and the chain maps before both were
applied on demand.
"""

import itertools

from tanglekh import linalg
from tanglekh.cube import _local_terms, bit_table
from tanglekh.diagram import resolve


class MaskMap:
    """A map sending source mask m to the masks by[m] | t, t in
    terms[m & active].  ``by`` carries the bystander bits, ``terms`` the
    local map on the active bits; the two never share a bit."""

    __slots__ = ("by", "active", "terms")

    def __init__(self, by, active, terms):
        self.by = by
        self.active = active
        self.terms = terms

    def fill(self, cols, off, row_off, value):
        """Set ``cols[off + m][row_off + t] = value`` for every source mask
        m and target mask t.  Each (column, row) is written once."""
        active, terms = self.active, self.terms
        for m, b in enumerate(self.by):
            ts = terms[m & active]
            if ts:
                col = cols[off + m]
                b += row_off   # b | t == b + t: the bits are disjoint
                for t in ts:
                    col[b + t] = value


def circle_bits(res):
    """The bit of each component: 1 << (r - 1 - k) for the k-th circle,
    0 for an arc."""
    out = []
    k = res.r
    for c in res.components:
        if c.kind == "circle":
            k -= 1
            out.append(1 << k)
        else:
            out.append(0)
    return out


class StateTable:
    """Index tables of one resolution: ``comp`` maps a node rank to its
    component, ``first`` a component to the rank of its first node (-1
    for a crossing-free circle), ``bits`` a component to its circle bit."""

    __slots__ = ("res", "comp", "first", "bits")

    def __init__(self, res, rank):
        self.res = res
        self.comp = comp = [0] * len(rank)
        self.first = first = []
        for ci, c in enumerate(res.components):
            for x in c.ports:
                comp[rank[x]] = ci
            first.append(rank[c.ports[0]] if c.ports else -1)
        self.bits = circle_bits(res)


KINDS = {
    (("circle", "circle"), ("circle",)): "circle-merge",
    (("circle",), ("circle", "circle")): "circle-split",
    (("arc", "arc"), ("arc", "arc")): "arc-arc-reconnect",
    (("arc",), ("arc", "arc")): "arc-arc-reconnect",
    (("arc", "arc"), ("arc",)): "arc-arc-reconnect",
    (("arc",), ("arc", "circle")): "arc-split-circle",
    (("arc", "circle"), ("arc",)): "arc-circle-merge",
}


def classify(src, dst, nodes):
    """(kind, source active, target active, bystanders) of the move
    re-pairing the four nodes (by rank) between two ``StateTable``s.  A
    bystander goes to the target component of its first node;
    crossing-free circles keep their order and sit last in both."""
    cs, ct = src.comp, dst.comp
    sa = tuple(sorted({cs[x] for x in nodes}))
    ta = tuple(sorted({ct[x] for x in nodes}))
    key = (tuple(sorted(src.res.components[i].kind for i in sa)),
           tuple(sorted(dst.res.components[j].kind for j in ta)))
    kind = KINDS.get(key)
    if kind is None:
        raise ValueError(f"active pattern {key} is outside the five cases")
    shift = len(dst.first) - len(src.first)
    bystanders = tuple((i, ct[f] if f >= 0 else i + shift)
                       for i, f in enumerate(src.first) if i not in sa)
    return kind, sa, ta, bystanders


def saddle_parts(cls, src_bits, dst_bits):
    """``(images, active, terms)`` of a classified saddle."""
    kind, sa, ta, bystanders = cls
    images = [0] * max(src_bits, default=0).bit_length()
    for i, j in bystanders:
        b = src_bits[i]
        if b:
            images[b.bit_length() - 1] = dst_bits[j]
    active, terms = _local_terms(kind, tuple([src_bits[i] for i in sa]),
                                 tuple([dst_bits[j] for j in ta]))
    return tuple(images), active, terms


def saddle_mask_map(cls, src_bits, dst_bits):
    images, active, terms = saddle_parts(cls, src_bits, dst_bits)
    return MaskMap(bit_table(images), active, terms)


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
