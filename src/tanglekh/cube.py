"""State numbers, circle bitmasks and the saddle kernel, in rank space.

A state is its number, crossing 0 (lowest id) the highest bit.  An edge
flips one 0 bit to 1, to ``state | bit``; its sign is (-1)^(number of 1s
above it).

A generator over a state with t arcs and r circles is a bitmask over the
circles: bit 1 means the label '-', and the first circle (in component
order) is the most significant bit.  Arcs come first in component order
(see ``diagram.walk``) and carry no bit, so component i >= t holds the
bit 1 << (t + r - 1 - i).  A saddle is classified once per edge, from the
component arrays of its two states, and then acts on all 2^r source masks
at once.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import SADDLE


def state_bits(state, n):
    """The bits of state number ``state`` by crossing, for n crossings."""
    return tuple(state >> k & 1 for k in reversed(range(n)))


def state_number(bits):
    """The number of the state whose bits by crossing are ``bits``."""
    return sum(b << k for k, b in enumerate(reversed(bits)))


def zero_bits(state, n):
    """The bit of each crossing at 0 in ``state``, in crossing order."""
    return [1 << k for k in reversed(range(n)) if not state >> k & 1]


def circle_bit(r, t, i):
    """The bit of component i among t arcs and r circles (0 for an arc)."""
    return 1 << (t + r - 1 - i) if i >= t else 0


def labels_of(r, t, mask):
    """The labeling a mask over t arcs and r circles stands for."""
    return ("w",) * t + tuple("-" if mask >> k & 1 else "+"
                              for k in reversed(range(r)))


def mask_of(r, t, labels):
    """The mask of a labeling; KeyError if it does not fit t arcs and r
    circles."""
    if (len(labels) != t + r or any(x != "w" for x in labels[:t])
            or any(x not in ("+", "-") for x in labels[t:])):
        raise KeyError(labels)
    mask = 0
    for sym in labels[t:]:
        mask = 2 * mask + (sym == "-")
    return mask


def bit_table(images):
    """``out[m]`` = OR of ``images[k]`` over the set bits 1 << k of m,
    for all 2^len(images) masks m (each new bit doubles the table)."""
    out = [0]
    for v in images:
        out += [x | v for x in out]
    return out


@lru_cache(maxsize=4096)
def bystanders(images):
    """``bit_table(images)``, the bystander table of a saddle or chain-map
    record, built once: few distinct ``images`` occur."""
    return bit_table(images)


# -- classifying a saddle ------------------------------------------------


_KINDS = {
    (("circle", "circle"), ("circle",)): "circle-merge",
    (("circle",), ("circle", "circle")): "circle-split",
    (("arc", "arc"), ("arc", "arc")): "arc-arc-reconnect",
    (("arc",), ("arc", "arc")): "arc-arc-reconnect",
    (("arc", "arc"), ("arc",)): "arc-arc-reconnect",
    (("arc",), ("arc", "circle")): "arc-split-circle",
    (("arc", "circle"), ("arc",)): "arc-circle-merge",
}


def saddle(src, dst, t, ports):
    """``(kind, images, active, terms)`` of the saddle re-pairing the port
    ranks ``(a, b, c, e)``: ``src`` joins a-e and b-c (a 0-smoothing),
    ``dst`` joins a-b and c-e (a 1-smoothing).  ``src`` and ``dst`` are
    ``(comp, r)`` of the two states over the same node ranks, t arcs each.

    The active components are those of a and b in ``src`` and of a and c
    in ``dst``.  A bystander keeps its nodes and so its relative order, so
    the saddle depends only on r and the active bits on both sides; it is
    computed once per such key (see ``_saddle``)."""
    a, b, c, _ = ports
    (cs, r_s), (ct, r_t) = src, dst
    return _saddle(*_active(t, r_s, cs[a], cs[b]),
                   *_active(t, r_t, ct[a], ct[c]))


def _active(t, r, i, j):
    """(r, active arc count, active circle bits) of components i and j."""
    arcs = bits = 0
    for k in ((i,) if i == j else (i, j)):
        if k < t:
            arcs += 1
        else:
            bits |= 1 << (t + r - 1 - k)
    return r, arcs, bits


@lru_cache(maxsize=None)
def _saddle(r_s, arcs_s, bits_s, r_t, arcs_t, bits_t):
    """The saddle of ``saddle`` from its key.  ``images[k]`` is the target
    bit of the bystander bit 1 << k (0 for an active bit): bystander
    circles pair up in component order.  Source mask m goes to the masks
    OR(images of m's bits) | t for t in terms[m & active]."""
    src, dst = _circle_bits(r_s, bits_s), _circle_bits(r_t, bits_t)
    key = (("arc",) * arcs_s + ("circle",) * len(src[0]),
           ("arc",) * arcs_t + ("circle",) * len(dst[0]))
    kind = _KINDS.get(key)
    if kind is None:
        raise ValueError(
            f"active pattern {key} is outside the five local cases "
            "(diagram encoding bug)")
    images = [0] * r_s
    for b, image in zip(src[1], dst[1]):
        images[b.bit_length() - 1] = image
    active, terms = _local_terms(kind, (0,) * arcs_s + src[0],
                                 (0,) * arcs_t + dst[0])
    return kind, tuple(images), active, terms


def _circle_bits(r, active):
    """(active bits, bystander bits) of r circles, in component order."""
    bits = [1 << k for k in reversed(range(r))]
    return (tuple(b for b in bits if b & active),
            [b for b in bits if not b & active])


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
