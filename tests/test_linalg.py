from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tanglekh import linalg
from tanglekh.algebra import GF2, QQ, PrimeField

from reducers import ColumnReducer, kernel_basis


def dense_rank(columns, nrows, field):
    """Naive Gaussian elimination on a dense copy, for cross-checking."""
    rows = [[field.coerce(0)] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, nrows) if rows[i][j] != field.zero),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][j])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][j] != field.zero:
                f = rows[i][j]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


matrices = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool),
                    max_size=4),
    min_size=0, max_size=6)


@settings(max_examples=60)
@given(matrices, st.sampled_from(["q", "f2", "f5"]))
def test_rank_matches_dense(cols_raw, fname):
    field = {"q": QQ, "f2": GF2, "f5": PrimeField(5)}[fname]
    cols = [{i: field.coerce(v) for i, v in c.items() if field.coerce(v) != field.zero}
            for c in cols_raw]
    assert linalg.rank(cols, field) == dense_rank(cols, 6, field)


@settings(max_examples=60)
@given(matrices, st.sampled_from(["q", "f2", "f5"]))
def test_kernel_vectors_annihilate(cols_raw, fname):
    field = {"q": QQ, "f2": GF2, "f5": PrimeField(5)}[fname]
    cols = [{i: field.coerce(v) for i, v in c.items() if field.coerce(v) != field.zero}
            for c in cols_raw]
    kernel = kernel_basis(cols, field)
    for kvec in kernel:
        assert linalg.matvec(cols, kvec, field) == {}
    assert len(kernel) == len(cols) - linalg.rank(cols, field)


@settings(max_examples=40)
@given(matrices)
def test_coordinate_tracking_invariant(cols_raw):
    """A reduced-away vector equals the tracked combination of columns."""
    field = QQ
    cols = [{i: Fraction(v) for i, v in c.items() if v} for c in cols_raw]
    red = ColumnReducer(field, track=True)
    added = []
    for col in cols:
        residual, coords = red.add(col)
        added.append(col)
        if not residual:
            recon = {}
            for j, c in coords.items():
                linalg.add_into(recon, added[j], c, field)
            assert recon == col


def test_matmul_composition():
    field = QQ
    a = [{0: Fraction(1)}, {1: Fraction(2)}]
    b = [{0: Fraction(3), 1: Fraction(1)}]
    ab = linalg.matmul(a, b, field)
    assert ab == [{0: Fraction(3), 1: Fraction(2)}]

