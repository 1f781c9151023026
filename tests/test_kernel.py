"""The streamed block kernel and its views against the stored-column
reference in ``stored_complex``: the same columns (insertion order
included), the same block columns and clearing in the one global
numbering, the same d^2 verdict and witness and the same ranks, over F2,
F3 and Q, with and without a flipped edge sign.  The peak memory of build plus reduce must
stay at most half that of the stored reference."""

import random
import tracemalloc

import pytest

from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import build_complex, homology, verify_d_squared

from conftest import (braid_closure, random_braid_diagram,
                      tangle_with_extra_arcs)
from cube_helpers import negate_edge
from stored_complex import StoredComplex, stored_d_squared, stored_homology

FIELDS = [GF2, PrimeField(3), QQ]


def diagrams(seed, count):
    """Random braid closures and tangles (some with free circles), and
    tangles with portless arcs and free circles."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 3 == 2:
            out.append(tangle_with_extra_arcs(rng, max_crossings=4,
                                              n_arcs=rng.randint(1, 2)))
        else:
            out.append(random_braid_diagram(rng, 6, closed=k % 3 == 0))
    return out


def random_flip(d, rng):
    """One cube edge (state, star), or None for a crossingless diagram."""
    if not d.crossings:
        return None
    state = [rng.randint(0, 1) for _ in d.crossings]
    star = rng.randrange(d.n)
    state[star] = 0
    return tuple(state), star


def backend(col, field):
    """A field-valued column in the format ``block_columns`` yields."""
    return {r: int(x) for r, x in col.items()}


def assert_matches_stored(c, ref, rng):
    f = c.field
    assert c.degrees == ref.degrees
    for p in ref.degrees:
        cols = ref.differentials[p]
        assert c.differentials[p] == cols
        for i, (a, b) in enumerate(zip(c.differentials[p], cols)):
            assert list(a.items()) == list(b.items()), (p, i)
            assert list(c.differentials[p][i].items()) == \
                list(b.items()), (p, i)
        blocks = ref.q_blocks(p)
        assert list(c.block_sizes(p).items()) == \
            [(q, len(g)) for q, g in blocks.items()]
        for q, gens in blocks.items():
            assert c.block_generators(p, q) == gens
            skip = {i for i in gens if rng.random() < 0.3}
            assert list(c.block_columns(p, q, skip)) == \
                [(i, backend(cols[i], f)) for i in gens if i not in skip]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kernel_matches_stored_reference(field):
    rng = random.Random(71)
    broken = 0
    for d in diagrams(67, 24):
        for flip in (None, random_flip(d, rng)):
            c = negate_edge(build_complex(d, field=field), flip)
            ref = StoredComplex(d, field, sign_flip=flip)
            assert_matches_stored(c, ref, rng)
            verdict = verify_d_squared(c)
            assert verdict == stored_d_squared(ref), d.to_json()
            broken += not verdict[0]
            if flip is None:
                assert verdict[0]
                for reps in (False, True):
                    assert homology(c, representatives=reps).ranks == \
                        stored_homology(ref)
    if field.char != 2:   # over F2 a flipped sign changes nothing
        assert broken >= 8


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_peak_memory_is_at_most_half_the_stored():
    d = braid_closure([1, 1, 1, 2, 2, 2, 1, 1, 1, 2], 3)
    expect = homology(build_complex(d, field=GF2), representatives=False)
    streamed = peak_bytes(lambda: homology(build_complex(d, field=GF2),
                                           representatives=False))
    stored = peak_bytes(lambda: stored_homology(StoredComplex(d, GF2)))
    assert stored_homology(StoredComplex(d, GF2)) == expect.ranks
    assert 2 * streamed <= stored, (streamed, stored)
