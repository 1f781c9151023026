"""State cube edges, differential signs, and the saddle kernel.

An edge flips one crossing bit from 0 to 1; its word over {0,1,*} puts a
star at the flipped position.  The sign is (-1)^(number of 1s before the
star), crossings ordered by ascending id.

A generator over a state is a bitmask over the state's circles: bit 1
means the label '-', and the first circle (in component order) is the most
significant bit.  Arcs carry no bit.  A saddle between two resolutions is
classified once and then acts on all 2^r source masks at once as a
``MaskMap``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import SADDLE
from .diagram import Resolution, TangleDiagram


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


@dataclass(frozen=True)
class SaddleClassification:
    kind: str
    source_active: tuple  # component indices in the source resolution
    target_active: tuple
    bystanders: tuple     # (source index, target index) pairs


def edges(d: TangleDiagram):
    """All n * 2^(n-1) cube edges, grouped by source height h(s)."""
    n = d.n
    out = {}
    for s in itertools.product((0, 1), repeat=n):
        h = sum(s) - d.n_minus
        for i in range(n):
            if s[i] == 0:
                out.setdefault(h, []).append(EdgeDescriptor(source=s, star=i))
    return out


def edge_sign(e: EdgeDescriptor) -> int:
    return -1 if sum(e.source[:e.star]) % 2 else 1


# -- circle bitmasks -----------------------------------------------------


def circle_bits(res: Resolution):
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


def labels_of(res: Resolution, mask):
    """The labeling a mask stands for."""
    return tuple("w" if b == 0 else ("-" if mask & b else "+")
                 for b in circle_bits(res))


def mask_of(res: Resolution, labels):
    """The mask of a labeling; KeyError if it does not fit ``res``."""
    bits = circle_bits(res)
    if len(labels) != len(bits):
        raise KeyError(labels)
    mask = 0
    for b, sym in zip(bits, labels):
        if (sym == "w") != (b == 0) or sym not in ("w", "+", "-"):
            raise KeyError(labels)
        if sym == "-":
            mask |= b
    return mask


def bit_table(images):
    """``out[m]`` = OR of ``images[k]`` over the set bits 1 << k of m,
    for all 2^len(images) masks m (each new bit doubles the table)."""
    out = [0]
    for v in images:
        out += [x | v for x in out]
    return out


class MaskMap:
    """A map sending source mask m to the masks by[m] | t, t in
    terms[m & active].  ``by`` carries the bystander bits, ``terms`` the
    local map on the active bits; the two never share a bit."""

    __slots__ = ("by", "active", "terms")

    def __init__(self, by, active, terms):
        self.by = by
        self.active = active
        self.terms = terms

    def targets(self, m):
        return [self.by[m] | t for t in self.terms[m & self.active]]

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


# -- classifying a saddle ------------------------------------------------


class StateTable:
    """Index tables of one resolution: ``comp`` maps a node rank to its
    component, ``first`` a component to the rank of its first node (-1
    for a crossing-free circle), ``bits`` a component to its circle bit."""

    __slots__ = ("res", "comp", "first", "bits")

    def __init__(self, res: Resolution, rank):
        self.res = res
        self.comp = comp = [0] * len(rank)
        self.first = first = []
        for ci, c in enumerate(res.components):
            for x in c.ports:
                comp[rank[x]] = ci
            first.append(rank[c.ports[0]] if c.ports else -1)
        self.bits = circle_bits(res)


_KINDS = {
    (("circle", "circle"), ("circle",)): "circle-merge",
    (("circle",), ("circle", "circle")): "circle-split",
    (("arc", "arc"), ("arc", "arc")): "arc-arc-reconnect",
    (("arc",), ("arc", "arc")): "arc-arc-reconnect",
    (("arc", "arc"), ("arc",)): "arc-arc-reconnect",
    (("arc",), ("arc", "circle")): "arc-split-circle",
    (("arc", "circle"), ("arc",)): "arc-circle-merge",
}


def classify(src: StateTable, dst: StateTable, nodes):
    """Classify the local move re-pairing the four strand nodes (given
    by rank) between two resolutions.

    Active components are those holding one of the nodes.  A bystander
    keeps its nodes, so its image is the target component of its first
    node; crossing-free circles keep their order and sit last in both.
    """
    cs, ct = src.comp, dst.comp
    sa = tuple(sorted({cs[x] for x in nodes}))
    ta = tuple(sorted({ct[x] for x in nodes}))
    key = (tuple(sorted(src.res.components[i].kind for i in sa)),
           tuple(sorted(dst.res.components[j].kind for j in ta)))
    kind = _KINDS.get(key)
    if kind is None:
        raise ValueError(
            f"active pattern {key} is outside the five local cases "
            "(diagram encoding bug)")
    shift = len(dst.first) - len(src.first)
    bystanders = tuple((i, ct[f] if f >= 0 else i + shift)
                       for i, f in enumerate(src.first) if i not in sa)
    return SaddleClassification(kind=kind, source_active=sa,
                                target_active=ta, bystanders=bystanders)


def saddle_parts(cls: SaddleClassification, src_bits, dst_bits):
    """``(images, active, terms)`` of the local saddle map of ``cls``, from
    the one table ``algebra.SADDLE``: ``images[k]`` is the target bit of the
    bystander bit 1 << k (0 for an active bit), and source mask m goes to
    the masks OR(images of m's bits) | t for t in terms[m & active]."""
    images = [0] * max(src_bits, default=0).bit_length()
    for i, j in cls.bystanders:
        b = src_bits[i]
        if b:
            images[b.bit_length() - 1] = dst_bits[j]
    active, terms = _local_terms(
        cls.kind, tuple([src_bits[i] for i in cls.source_active]),
        tuple([dst_bits[j] for j in cls.target_active]))
    return tuple(images), active, terms


def saddle_mask_map(cls: SaddleClassification, src_bits, dst_bits):
    """The local saddle map of ``cls`` on all source masks."""
    images, active, terms = saddle_parts(cls, src_bits, dst_bits)
    return MaskMap(bit_table(images), active, terms)


@lru_cache(maxsize=None)
def _local_terms(kind, src_bits, dst_bits):
    """``(active, terms)`` of one local map, given the bits of its active
    components in component order.  ``algebra.SADDLE`` lists arcs (bit 0)
    first, then circles in component order."""
    src_bits = sorted(src_bits, key=lambda b: b != 0)
    dst_bits = sorted(dst_bits, key=lambda b: b != 0)
    active = 0
    terms = {}
    for src_labels, outs in SADDLE[kind].items():
        key = sum(b for b, s in zip(src_bits, src_labels) if s == "-")
        terms[key] = tuple(
            sum(b for b, s in zip(dst_bits, labels) if s == "-")
            for labels in outs)
        active |= key
    return active, terms


def classify_saddle(res_s: Resolution, res_t: Resolution, e: EdgeDescriptor,
                    d: TangleDiagram) -> SaddleClassification:
    """Identify the local cobordism type of one cube edge."""
    if res_s.state != e.source or res_t.state != e.target:
        raise ValueError("resolutions are not adjacent along this edge")
    _, rank, _, ports = d.wiring()
    return classify(StateTable(res_s, rank), StateTable(res_t, rank),
                    ports[e.star])


def transfer_labels(cls: SaddleClassification, res_s, res_t, src_labels):
    """Image labelings of one generator under the local saddle map.

    Returns a list of target labeling tuples, each with coefficient +1
    (all five local maps have 0/1 entries).
    """
    mm = saddle_mask_map(cls, circle_bits(res_s), circle_bits(res_t))
    return [labels_of(res_t, t)
            for t in mm.targets(mask_of(res_s, src_labels))]
