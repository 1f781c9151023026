"""The field-specialised reducer against a dense elimination written here.

The reference works on dense lists of ``Fraction`` (Q) or ints mod p and
shares no code with ``tanglekh.linalg``.  It recomputes every (p, q)
block of random complexes, so these tests stand in for a comparison with
the two-pass reduction that ``complex.homology`` used to run.
"""

import random
from fractions import Fraction

import pytest

from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, PrimeField
from tanglekh.complex import build_complex, homology

from conftest import braid_closure, random_braid_diagram
from reducers import kernel_basis


FIELDS = {"F2": (GF2, 2), "F3": (PrimeField(3), 3),
          "F5": (PrimeField(5), 5), "Q": (QQ, 0)}


def plain(x, char):
    """A field element as a reference scalar: Fraction or int mod p."""
    return Fraction(x) if char == 0 else int(x) % char


def dense_rank(columns, nrows, char):
    """Rank of sparse columns by row reduction of a dense copy."""
    rows = [[plain(0, char)] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = plain(x, char)
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, nrows) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = 1 / top[j] if char == 0 else pow(top[j], char - 2, char)
        for i in range(nrows):
            if i != rank and rows[i][j] != 0:
                c = rows[i][j] * inv
                rows[i] = [x - c * y for x, y in zip(rows[i], top)]
                if char:
                    rows[i] = [x % char for x in rows[i]]
        rank += 1
    return rank


def block(c, p, q, rows_q):
    """d^p on the (p, q) block, rows indexed within the (p+1, q) block."""
    local = {g: k for k, g in enumerate(rows_q)}
    return [{local[j]: x for j, x in c.differentials[p][i].items()}
            for i in c.q_blocks(p).get(q, ())]


def reference_ranks(c, char):
    ranks = {}
    for p in c.degrees:
        for q, gens in c.q_blocks(p).items():
            out = c.q_blocks(p + 1).get(q, ())
            rk = dense_rank(block(c, p, q, out), len(out), char)
            prev = block(c, p - 1, q, gens)
            h = len(gens) - rk - dense_rank(prev, len(gens), char)
            if h:
                ranks[(p, q)] = h
    return ranks


def cases(seed, count):
    """Random diagrams, after two torus knots whose homology has
    2-torsion, so that F2 and Q ranks differ."""
    rng = random.Random(seed)
    return [braid_closure([1] * 3, 2), braid_closure([1] * 5, 2)] + \
        [random_braid_diagram(rng, max_crossings=5) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ranks_match_dense_reference(name):
    field, char = FIELDS[name]
    for d in cases(31, 12):
        c = build_complex(d, field=field)
        expect = reference_ranks(c, char)
        for reps in (False, True):
            assert homology(c, representatives=reps).ranks == expect, \
                d.to_json()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_representatives_span_homology(name):
    field, char = FIELDS[name]
    for d in cases(47, 12):
        c = build_complex(d, field=field)
        h = homology(c, representatives=True)
        assert {k: len(v) for k, v in h.representatives.items()} == h.ranks
        for (p, q), reps in h.representatives.items():
            gens = c.q_blocks(p)[q]
            local = {g: k for k, g in enumerate(gens)}
            out = c.q_blocks(p + 1).get(q, ())
            for z in reps:
                assert set(z) <= set(local), "outside its q-block"
                assert all(plain(x, char) != 0 for x in z.values())
                # d z = 0, summed in reference arithmetic
                dz = {}
                for i, x in z.items():
                    for j, y in c.differentials[p][i].items():
                        dz[j] = dz.get(j, 0) + plain(x, char) * plain(y, char)
                assert all((v % char if char else v) == 0
                           for v in dz.values()), (d.to_json(), p, q)
                assert set(dz) <= set(out)
            # independent modulo the image of d^{p-1}
            image = block(c, p - 1, q, gens)
            zs = [{local[i]: x for i, x in z.items()} for z in reps]
            assert dense_rank(image + zs, len(gens), char) == \
                dense_rank(image, len(gens), char) + len(reps)


def test_q_rank_sees_entries_of_two():
    """Entries +-2 vanish mod 2: the F2 rank is lower than the Q rank."""
    # the last column is 2 * first - second
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}, {2: 2}, {2: -2, 3: 2}, {0: 1, 1: 3}]
    q_cols = [{i: Fraction(x) for i, x in col.items()} for col in cols]
    f2_cols = [{i: 1 for i, x in col.items() if x % 2} for col in cols]
    assert linalg.rank(q_cols, QQ) == dense_rank(q_cols, 4, 0) == 4
    assert linalg.rank(f2_cols, GF2) == dense_rank(f2_cols, 4, 2) == 1
    for field, mat, dim in ((QQ, q_cols, 1), (GF2, f2_cols, 4)):
        kernel = kernel_basis(mat, field)
        assert len(kernel) == dim
        for kvec in kernel:
            assert linalg.matvec(mat, kvec, field) == {}
