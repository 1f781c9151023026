import itertools

import pytest
from hypothesis import given, strategies as st

from tanglekh.diagram import resolve

from conftest import braid_closure, kink_arc
from cube_helpers import (EdgeDescriptor, classify_saddle, edge_sign, edges,
                          transfer_labels)


def test_edge_target_and_word():
    e = EdgeDescriptor(source=(0, 1, 0), star=2)
    assert e.target == (0, 1, 1)
    assert e.word == (0, 1, "*")


def test_edge_star_must_be_zero():
    with pytest.raises(ValueError):
        EdgeDescriptor(source=(1, 0), star=0)


def test_edges_count():
    d = braid_closure([1, 1, 1], 2)
    es = edges(d)
    total = sum(len(v) for v in es.values())
    assert total == 3 * 2 ** 2  # n * 2^(n-1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple),
       st.data())
def test_edge_sign_parity(state, data):
    zeros = [i for i, b in enumerate(state) if b == 0]
    if not zeros:
        return
    star = data.draw(st.sampled_from(zeros))
    e = EdgeDescriptor(source=state, star=star)
    assert edge_sign(e) == (-1) ** sum(state[:star])


@given(st.integers(2, 5), st.data())
def test_square_signs_anticommute(n, data):
    """Every 2-face of the cube has an odd number of negative edges."""
    state = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    zeros = [i for i, b in enumerate(state) if b == 0]
    if len(zeros) < 2:
        return
    i, j = sorted(data.draw(st.permutations(zeros)))[:2]
    if i == j:
        return
    e1 = EdgeDescriptor(source=state, star=i)
    e2 = EdgeDescriptor(source=e1.target, star=j)
    e3 = EdgeDescriptor(source=state, star=j)
    e4 = EdgeDescriptor(source=e3.target, star=i)
    prod = edge_sign(e1) * edge_sign(e2) * edge_sign(e3) * edge_sign(e4)
    assert prod == -1


def test_classify_neg_kink_split():
    d = kink_arc(-1)
    e = EdgeDescriptor(source=(0,), star=0)
    cls = classify_saddle(resolve(d, (0,)), resolve(d, (1,)), e, d)
    assert cls.kind == "arc-split-circle"
    out = transfer_labels(cls, resolve(d, (0,)), resolve(d, (1,)), ("w",))
    assert out == [("w", "-")]


def test_classify_pos_kink_merge():
    d = kink_arc(1)
    e = EdgeDescriptor(source=(0,), star=0)
    r0, r1 = resolve(d, (0,)), resolve(d, (1,))
    cls = classify_saddle(r0, r1, e, d)
    assert cls.kind == "arc-circle-merge"
    assert transfer_labels(cls, r0, r1, ("w", "+")) == [("w",)]
    assert transfer_labels(cls, r0, r1, ("w", "-")) == []


def test_classify_circle_merge_and_split():
    d = braid_closure([1, 1], 2)
    kinds = set()
    for state in itertools.product((0, 1), repeat=2):
        for star in range(2):
            if state[star]:
                continue
            e = EdgeDescriptor(source=state, star=star)
            cls = classify_saddle(resolve(d, state), resolve(d, e.target),
                                  e, d)
            kinds.add(cls.kind)
    assert kinds == {"circle-merge", "circle-split"}


def test_bystanders_preserve_kind():
    d = braid_closure([1, 1, 1], 2)
    for state in itertools.product((0, 1), repeat=3):
        res_s = resolve(d, state)
        for star in range(3):
            if state[star]:
                continue
            e = EdgeDescriptor(source=state, star=star)
            res_t = resolve(d, e.target)
            cls = classify_saddle(res_s, res_t, e, d)
            for i, j in cls.bystanders:
                assert res_s.components[i].kind == res_t.components[j].kind


def test_transfer_preserves_bystander_labels():
    d = braid_closure([1, 1, 1], 2)
    state = (0, 0, 0)
    res_s = resolve(d, state)
    e = EdgeDescriptor(source=state, star=1)
    res_t = resolve(d, e.target)
    cls = classify_saddle(res_s, res_t, e, d)
    labels = tuple("+" if c.kind == "circle" else "w"
                   for c in res_s.components)
    for out in transfer_labels(cls, res_s, res_t, labels):
        for i, j in cls.bystanders:
            assert out[j] == labels[i]
