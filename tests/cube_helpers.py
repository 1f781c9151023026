"""Cube helpers only the tests use: edges as words over {0, 1, *}, their
signs, one saddle classified and applied label by label through
``cube.saddle``, and a complex with one edge sign negated."""

import dataclasses
import itertools
from dataclasses import dataclass

from tanglekh.complex import GradedChainComplex
from tanglekh.cube import bit_table, labels_of, mask_of, saddle, state_number


@dataclass(frozen=True)
class EdgeDescriptor:
    source: tuple
    star: int

    def __post_init__(self):
        if self.source[self.star] != 0:
            raise ValueError("star position must be a 0-bit of the source")

    @property
    def target(self):
        return tuple(1 if i == self.star else b
                     for i, b in enumerate(self.source))

    @property
    def word(self):
        return tuple("*" if i == self.star else b
                     for i, b in enumerate(self.source))


def edges(d):
    """All n * 2^(n-1) cube edges, grouped by source height h(s)."""
    n = d.n
    out = {}
    for s in itertools.product((0, 1), repeat=n):
        h = sum(s) - d.n_minus
        for i in range(n):
            if s[i] == 0:
                out.setdefault(h, []).append(EdgeDescriptor(source=s, star=i))
    return out


def edge_sign(e):
    return -1 if sum(e.source[:e.star]) % 2 else 1


@dataclass(frozen=True)
class Classified:
    kind: str
    images: tuple
    active: int
    terms: dict
    bystanders: tuple   # (source, target) component pairs of circles


def component_array(res, rank):
    """(comp, r) of a resolution: node rank -> component index."""
    comp = [-1] * len(rank)
    for ci, c in enumerate(res.components):
        for x in c.ports:
            comp[rank[x]] = ci
    return comp, res.r


def classify_saddle(res_s, res_t, e, d):
    """The local cobordism of one cube edge, from ``cube.saddle``."""
    if res_s.state != e.source or res_t.state != e.target:
        raise ValueError("resolutions are not adjacent along this edge")
    _, rank, _, ports = d.wiring()
    t = res_s.t
    kind, images, active, terms = saddle(component_array(res_s, rank),
                                         component_array(res_t, rank), t,
                                         ports[e.star])
    top_s, top_t = t + res_s.r - 1, t + res_t.r - 1
    bystanders = tuple((top_s - k, top_t - (b.bit_length() - 1))
                       for k, b in reversed(list(enumerate(images))) if b)
    return Classified(kind, images, active, terms, bystanders)


def transfer_labels(cls, res_s, res_t, src_labels):
    """Image labelings of one generator under the local saddle map, each
    with coefficient +1 (all five local maps have 0/1 entries)."""
    m = mask_of(res_s.r, res_s.t, src_labels)
    by = bit_table(cls.images)[m]
    return [labels_of(res_t.r, res_t.t, by | t)
            for t in cls.terms[m & cls.active]]


@dataclass
class _Negated(GradedChainComplex):
    """A complex whose ``_columns`` negate the entries that one cube edge
    writes: those out of state number ``flip[0]`` into the rows of its
    target state ``flip[0] | flip[1]``."""

    flip: tuple = None

    def _columns(self, state, masks):
        cols = super()._columns(state, masks)
        source, bit = self.flip
        if state != source:
            return cols
        lo = self.layout[source | bit][1]
        rows = range(lo, lo + (1 << self.rt[source | bit][0]))
        char = self.field.char
        return ({i: (-x % char if char else -x) if i in rows else x
                 for i, x in col.items()} for col in cols)


def negate_edge(c, edge):
    """A copy of the built complex ``c`` with the sign of one cube edge
    ``(state, star)`` negated (``c`` itself when ``edge`` is None), the
    state given by its bits and ``state[star]`` a 0 bit."""
    if edge is None:
        return c
    state, star = edge
    assert state[star] == 0
    return _Negated(**{f.name: getattr(c, f.name)
                       for f in dataclasses.fields(c)},
                    flip=(state_number(state), 1 << (len(state) - 1 - star)))
