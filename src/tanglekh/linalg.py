"""Exact sparse column elimination: one reducer, specialised by field.

Each backend keeps an incremental column echelon form over sparse
columns, dicts {row: int}:

- ``FpReducer``: entries are ints mod p (p = 2 included), and stored
  columns have pivot 1;
- ``QReducer``: entries are ints; elimination is fraction free
  (a*v - b*col) and stored columns are divided by their content, so no
  ``Fraction`` arithmetic happens while reducing.

Both take the highest nonzero row of a column as its pivot, so that
columns added in index order obey the clearing lemma used by
``complex.homology``.  Coordinates are tracked by augmentation: a column
loaded with ``key=k`` carries coordinate k as the negative row ~k, below
the real ones.  After any reduction the real part of a column equals the
sum, over its coordinates, of coordinate times loaded column, modulo the
columns loaded without a key.

Rows are the generator indices of ``complex``, the one numbering used
from the differential to the echelons and representatives.  ``load``
turns a field-valued dict into backend format, and ``take`` accepts a
column already in it (int entries reduced mod p, or integral over Q),
such as the columns that ``GradedChainComplex.block_columns`` streams;
both add the coordinate ``key`` if given.  A reducer reduces and keeps
the very dicts it is given, so a caller that still needs a column passes
a copy.  ``coords`` turns the coordinate part back into field values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class _DictReducer:
    """Shared parts of the dict backends: coordinate k is row ~k = -1-k."""

    __slots__ = ("pivots", "rank")

    def __init__(self):
        self.pivots = {}   # pivot row -> stored column
        self.rank = 0

    def take(self, col, key=None):
        """``col`` itself, with coordinate ``key`` if given: the reducer
        owns what it is given, and reduces it in place."""
        if key is not None:
            col[~key] = 1
        return col

    def is_zero(self, v):
        return not v or max(v) < 0

    def pivot_rows(self):
        return set(self.pivots)

    def coords(self, v):
        return {~r: self._value(x) for r, x in v.items() if r < 0}

    def reduce(self, v):
        """``v``, reduced in place by the backend's ``_reduce``, which
        returns the top row left, negative when no real row is left."""
        self._reduce(v)
        return v

    def add(self, v):
        top = self._reduce(v)
        if top >= 0:
            v = self._normalize(v, top)
            self.pivots[top] = v
            self.rank += 1
        return v


class FpReducer(_DictReducer):
    """Echelon form over F_p for a prime p (p = 2 included)."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def load(self, vec, key=None):
        p = self.p
        return self.take({r: y for r, x in vec.items() if (y := x % p)}, key)

    def _reduce(self, v):
        p, pivots = self.p, self.pivots
        while v:
            top = max(v)
            col = pivots.get(top)
            if col is None:
                return top
            b = v[top]
            for r, x in col.items():
                y = (v.get(r, 0) - b * x) % p
                if y:
                    v[r] = y
                else:
                    del v[r]
        return -1

    def _normalize(self, v, top):
        inv = pow(v[top], -1, self.p)
        if inv == 1:
            return v
        p = self.p
        return {r: x * inv % p for r, x in v.items()}

    @staticmethod
    def _value(x):
        return x


class QReducer(_DictReducer):
    """Fraction-free echelon form over Q on Python ints."""

    __slots__ = ()

    def load(self, vec, key=None):
        den = lcm(*(x.denominator for x in vec.values()))
        if den == 1:
            v = {r: x.numerator for r, x in vec.items() if x}
        else:
            v = {r: x.numerator * (den // x.denominator)
                 for r, x in vec.items() if x}
        if key is not None:
            v[~key] = den
        return v

    def _reduce(self, v):
        pivots = self.pivots
        while v:
            top = max(v)
            col = pivots.get(top)
            if col is None:
                return top
            a, b = col[top], v[top]
            scaled = False
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    for r in v:
                        v[r] *= a
                    scaled = True
            for r, x in col.items():
                y = v.get(r, 0) - b * x
                if y:
                    v[r] = y
                else:
                    del v[r]
            if scaled and v:
                g = gcd(*v.values())
                if g != 1:
                    for r in v:
                        v[r] //= g
        return -1

    @staticmethod
    def _normalize(v, top):
        g = gcd(*v.values())
        if v[top] < 0:
            g = -g
        return v if g == 1 else {r: x // g for r, x in v.items()}

    @staticmethod
    def _value(x):
        return Fraction(x)


def reducer(field):
    """An empty echelon form over ``field``."""
    if field.char:
        return FpReducer(field.p)
    return QReducer()


def rank(columns, field) -> int:
    red = reducer(field)
    for col in columns:
        red.add(red.load(col))
    return red.rank


def add_into(acc, vec, c, field):
    for r, x in vec.items():
        nv = field.add(acc.get(r, field.zero), field.mul(c, x))
        if nv == field.zero:
            acc.pop(r, None)
        else:
            acc[r] = nv
    return acc


def matvec(columns, vec, field):
    """Apply a matrix given by columns to a coefficient vector."""
    out = {}
    for j, c in vec.items():
        add_into(out, columns[j], c, field)
    return out


def matmul(a_columns, b_columns, field):
    """Compose: result column j = A applied to B's column j."""
    return [matvec(a_columns, col, field) for col in b_columns]

