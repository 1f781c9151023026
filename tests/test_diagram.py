import json
import random

import pytest

from tanglekh.diagram import (Crossing, PlanarTangleSpec, TangleDiagram,
                              apply_planar, check_planar, resolve, validate)

from conftest import bare_arc, braid_closure, braid_tangle, kink_arc
from planar_reference import apply_planar as ref_apply_planar
from planar_reference import check_planar as ref_check_planar


def test_validate_ok_fixtures():
    for d in (bare_arc(), kink_arc(1), kink_arc(-1),
              braid_closure([1, 1], 2), braid_tangle([1, -1], 3)):
        rep = validate(d)
        assert rep.ok, rep.problems


def test_validate_odd_boundary():
    d = TangleDiagram(boundary=("a",), connections=[])
    rep = validate(d)
    assert not rep.ok
    assert any("odd" in p for p in rep.problems)


def test_validate_involution_violations():
    d = TangleDiagram(boundary=("a", "b", "c", "d"),
                      connections=[("a", "b"), ("a", "c")])
    rep = validate(d)
    assert not rep.ok
    assert any("twice" in p for p in rep.problems)
    assert any("without a connection" in p for p in rep.problems)


def test_validate_bad_crossing():
    x = Crossing(id=0, ports=("p", "p", "q", "r"), sign=2)
    d = TangleDiagram(crossings=[x], connections=[("p", "q"), ("r", "r")])
    rep = validate(d)
    assert not rep.ok


def test_crossing_counts():
    d = braid_closure([1, -1, 1], 2)
    assert d.n == 3 and d.n_plus == 2 and d.n_minus == 1


def test_resolve_kink_states():
    d = kink_arc(-1)
    r0 = resolve(d, (0,))
    r1 = resolve(d, (1,))
    assert (r0.r, r0.t) == (0, 1)
    assert (r1.r, r1.t) == (1, 1)
    assert [c.kind for c in r1.components] == ["arc", "circle"]


def test_resolve_free_circles_last():
    d = TangleDiagram(boundary=("b0", "b1"), connections=[("b0", "b1")],
                      free_circles=2)
    r = resolve(d, ())
    assert [c.kind for c in r.components] == ["arc", "circle", "circle"]
    assert r.free_circle_indices == (1, 2)


def test_resolve_deterministic_canonical_order():
    d = braid_closure([1, 1], 2)
    for state in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        r1 = resolve(d, state)
        r2 = resolve(d, state)
        assert r1 == r2
        firsts = [c.ports[0] for c in r1.components if c.ports]
        assert firsts == sorted(firsts, key=d.sort_key)


def test_resolve_state_length_check():
    with pytest.raises(ValueError):
        resolve(kink_arc(1), (0, 1))


def test_json_round_trip():
    for d in (kink_arc(-1), braid_closure([1, 1, 1], 2),
              braid_tangle([2, -1], 3)):
        data = json.loads(json.dumps(d.to_json()))
        assert TangleDiagram.from_json(data) == d


def test_equality_ignores_connection_order():
    a = TangleDiagram(boundary=("x", "y"), connections=[("x", "y")])
    b = TangleDiagram(boundary=("x", "y"), connections=[("y", "x")])
    assert a == b and hash(a) == hash(b)


def test_portless_arcs_order():
    d = TangleDiagram(boundary=("a", "b", "c", "d"),
                      connections=[("c", "b"), ("a", "d")])
    assert d.portless_arcs() == (("a", "d"), ("b", "c"))


# -- planar operators ----------------------------------------------------


def test_check_planar_identity():
    op = PlanarTangleSpec.identity(("a", "b"))
    assert check_planar(op).ok


def test_check_planar_crossing_chords_rejected():
    op = PlanarTangleSpec(inner_boundary=("a", "b", "c", "d"),
                          outer_boundary=(),
                          arcs=[("a", "c"), ("b", "d")])
    assert not check_planar(op).ok


def test_check_planar_nested_chords_ok():
    op = PlanarTangleSpec(inner_boundary=("a", "b", "c", "d"),
                          outer_boundary=(),
                          arcs=[("a", "d"), ("b", "c")])
    assert check_planar(op).ok


@pytest.mark.parametrize("inner, outer, arcs, ok", [
    # three through-arcs whose outer ends run in reversed cyclic order
    ("abc", "xyz", ["ax", "bz", "cy"], False),
    # an inner chord with a through-arc on each side of it
    ("abcd", "xy", ["ax", "cy", "bd"], False),
    # an outer chord with a through-arc on each side of it
    ("ab", "wxyz", ["aw", "by", "xz"], False),
    # nested inner and outer chords, each set inside one gap
    ("abcdef", "xpqrsy", ["ax", "fy", "be", "cd", "ps", "qr"], True),
    # the same gaps, entered from the far through-arc
    ("abcdef", "xpqrsy", ["fy", "ax", "eb", "dc", "sp", "rq"], True),
    # one through-arc: a chord can pass the other way round the hole
    ("abc", "x", ["bx", "ac"], True),
])
def test_check_planar_through_arcs(inner, outer, arcs, ok):
    op = PlanarTangleSpec(inner_boundary=tuple(inner),
                          outer_boundary=tuple(outer),
                          arcs=[tuple(a) for a in arcs])
    assert check_planar(op).ok is ok
    assert ref_check_planar(op).ok is ok


@pytest.mark.parametrize("inner, outer", [("ab", "ba"), ("aa", "bb")])
def test_check_planar_rejects_shared_labels(inner, outer):
    op = PlanarTangleSpec(inner_boundary=tuple(inner),
                          outer_boundary=tuple(outer), arcs=[("a", "b")])
    assert not check_planar(op).ok
    with pytest.raises(ValueError):
        apply_planar(op, bare_arc())


@pytest.mark.parametrize("circles", [1.5, -1, True, "1", None])
def test_operator_circles_must_be_a_count(circles):
    with pytest.raises((TypeError, ValueError)):
        PlanarTangleSpec(inner_boundary=("a", "b"), outer_boundary=(),
                         arcs=[("a", "b")], circles=circles)


def test_apply_planar_identity_keeps_diagram():
    d = braid_tangle([1], 2)
    op = PlanarTangleSpec.identity(d.boundary)
    out, spec = apply_planar(op, d)
    assert out.crossings == d.crossings
    assert len(out.boundary) == len(d.boundary)
    assert spec.circle_images == tuple(range(d.free_circles))


def test_apply_planar_close_arc_makes_circle():
    d = bare_arc()
    op = PlanarTangleSpec(inner_boundary=("i0", "i1"), outer_boundary=(),
                          arcs=[("i0", "i1")])
    out, spec = apply_planar(op, d)
    assert out == TangleDiagram(free_circles=1)
    assert spec.arc_images == (("circle", 0),)


def test_apply_planar_kink_closure():
    d = kink_arc(1)
    op = PlanarTangleSpec(inner_boundary=("i0", "i1"), outer_boundary=(),
                          arcs=[("i0", "i1")])
    out, spec = apply_planar(op, d)
    assert out.boundary == () and out.n == 1 and out.free_circles == 0
    assert validate(out).ok


def test_apply_planar_operator_circles_added():
    d = bare_arc()
    op = PlanarTangleSpec(inner_boundary=("i0", "i1"),
                          outer_boundary=("o0", "o1"),
                          arcs=[("i0", "o0"), ("i1", "o1")], circles=2)
    out, spec = apply_planar(op, d)
    assert out.free_circles == 2
    assert spec.arc_images == (("arc", 0),)


def test_apply_planar_size_mismatch():
    d = bare_arc()
    op = PlanarTangleSpec.identity(("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        apply_planar(op, d)


def test_apply_planar_rejects_nonplanar_operator():
    d = TangleDiagram(boundary=("b0", "b1", "b2", "b3"),
                      connections=[("b0", "b1"), ("b2", "b3")])
    op = PlanarTangleSpec(inner_boundary=("i0", "i1", "i2", "i3"),
                          outer_boundary=(),
                          arcs=[("i0", "i2"), ("i1", "i3")])
    with pytest.raises(ValueError):
        apply_planar(op, d)


# -- the closure operator against its reference --------------------------


def _noncrossing_matching(rng, seq):
    """A random non-crossing perfect matching on the points of ``seq``."""
    if not seq:
        return []
    k = 2 * rng.randrange(len(seq) // 2) + 1
    return ([(seq[0], seq[k])] + _noncrossing_matching(rng, seq[1:k])
            + _noncrossing_matching(rng, seq[k + 1:]))


def random_operator(rng, n_in, max_out=6, ins=None):
    """A random annular operator with ``n_in`` inner points, labelled
    ``ins`` if given.  Half are planar: cut open along a random
    through-arc, or with none; the rest are uniform matchings or planar
    ones with two partners swapped."""
    n_out = rng.randrange(n_in % 2, max_out + 1, 2)
    ins = tuple(("i", k) for k in range(n_in)) if ins is None else ins
    outs = tuple(("o", k) for k in range(n_out))
    kind = rng.random()
    if kind < 0.2:
        pts = list(ins + outs)
        rng.shuffle(pts)
        arcs = list(zip(pts[::2], pts[1::2]))
    elif not ins or not outs or (n_in % 2 == 0 and rng.random() < 0.3):
        arcs = _noncrossing_matching(rng, ins) + \
            _noncrossing_matching(rng, outs)
    else:
        i, o = rng.randrange(n_in), rng.randrange(n_out)
        arcs = [(ins[i], outs[o])] + _noncrossing_matching(
            rng, outs[o + 1:] + outs[:o] + (ins[i + 1:] + ins[:i])[::-1])
    if kind > 0.6 and len(arcs) > 1:
        j, k = rng.sample(range(len(arcs)), 2)
        (a, b), (c, d) = arcs[j], arcs[k]
        arcs[j], arcs[k] = (a, d), (c, b)
    arcs = [ab[::rng.choice((1, -1))] for ab in arcs]
    rng.shuffle(arcs)
    return PlanarTangleSpec(inner_boundary=ins, outer_boundary=outs,
                            arcs=arcs, circles=rng.randint(0, 2))


def random_tangle(rng):
    """A braid tangle with portless arcs nested in at random boundary
    positions, free circles, and its boundary rotated."""
    strands = rng.randint(2, 3)
    word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 3))]
    core = braid_tangle(word, strands)
    boundary, conns = list(core.boundary), list(core.connections)
    for k in range(rng.randint(0, 3)):
        at = rng.randint(0, len(boundary))
        boundary[at:at] = [("e", k, 0), ("e", k, 1)]
        conns.append((("e", k, 0), ("e", k, 1)))
    turn = rng.randrange(len(boundary))
    return TangleDiagram(boundary=boundary[turn:] + boundary[:turn],
                         crossings=core.crossings, connections=conns,
                         free_circles=rng.randint(0, 2))


def test_check_planar_matches_reference():
    rng = random.Random(1010)
    verdicts = []
    for _ in range(24000):
        op = random_operator(rng, rng.randint(0, 8))
        ok = check_planar(op).ok
        assert ok == ref_check_planar(op).ok, op
        verdicts.append(ok)
    assert verdicts.count(False) >= 5000 and verdicts.count(True) >= 5000


def _outcome(apply, op, d):
    try:
        return apply(op, d)
    except Exception as e:     # the reference's error type is the contract
        return type(e)


def test_apply_planar_matches_reference():
    rng = random.Random(1011)
    kinds, loops, applied = set(), 0, 0
    for _ in range(4000):
        d = random_tangle(rng)
        n_in = len(d.boundary) + (rng.random() < 0.02)   # some misfit
        # some operators reuse the diagram's own labels on the hole
        labels = list(d.boundary) + [x for c in d.crossings for x in c.ports]
        reuse = rng.random() < 0.2 and n_in <= len(labels)
        op = random_operator(rng, n_in, ins=tuple(rng.sample(labels, n_in))
                             if reuse else None)
        got = _outcome(apply_planar, op, d)
        assert got == _outcome(ref_apply_planar, op, d), (op, d)
        if isinstance(got, tuple):
            target, spec = got
            applied += 1
            kinds.update(kind for kind, _ in spec.arc_images)
            loops += target.free_circles > d.free_circles + op.circles
    assert kinds == {"arc", "circle", "port"}
    assert applied >= 2000 and loops >= 100
