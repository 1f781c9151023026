"""Exact sparse column elimination: one reducer, specialised by field.

Each backend keeps an incremental column echelon form in its own column
format:

- ``F2Reducer``: a column is a Python int, bit r set for row r;
- ``FpReducer``: a column is a dict {row: int mod p}, stored with pivot 1;
- ``QReducer``: a column is a dict {row: int}; elimination is fraction
  free (a*v - b*col) and stored columns are divided by their content, so
  no ``Fraction`` arithmetic happens while reducing.

All three take the highest nonzero row of a column as its pivot, so that
columns added in index order obey the clearing lemma used by
``complex.homology``.  Coordinates are tracked by augmentation: a column
loaded with ``key=k`` carries coordinate k in rows below the real ones
(negative dict keys, or the low ``ncoords`` bits over F2).  After any
reduction the real part of a column equals the sum, over its coordinates,
of coordinate times loaded column, modulo the columns loaded without a key.

``load`` turns a field-valued dict into backend format, and ``take``
accepts a column already in it (a packed int over F2, {row: int} with
entries reduced mod p or integral over Q), such as the columns that
``GradedChainComplex.block_columns`` streams; both add the coordinate
``key`` if given.  ``coords`` turns the coordinate part back into field
values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import GF2


class F2Reducer:
    """GF(2) echelon with columns as Python ints (bit i = row i)."""

    __slots__ = ("pivots", "rank", "shift")

    def __init__(self, ncoords=0):
        self.pivots = {}      # bit length of the column -> column
        self.rank = 0
        self.shift = ncoords  # real row r is bit r + shift

    def load(self, vec, key=None):
        return self.take(pack(vec), key)

    def take(self, col, key=None):
        v = col << self.shift
        return v if key is None else v | 1 << key

    def reduce(self, v):
        pivots, shift = self.pivots, self.shift
        while True:
            top = v.bit_length()
            if top <= shift:
                return v
            col = pivots.get(top)
            if col is None:
                return v
            v ^= col

    def add(self, v):
        """Reduce and, if the real part is nonzero, store.  Returns the
        reduced column."""
        v = self.reduce(v)
        top = v.bit_length()
        if top > self.shift:
            self.pivots[top] = v
            self.rank += 1
        return v

    def is_zero(self, v):
        return v.bit_length() <= self.shift

    def pivot_rows(self):
        return {top - 1 - self.shift for top in self.pivots}

    def widen(self, ncoords):
        """Make room for ``ncoords`` coordinates below stored columns."""
        d = ncoords - self.shift
        self.pivots = {top + d: v << d for top, v in self.pivots.items()}
        self.shift = ncoords

    def coords(self, v):
        return unpack(v & ((1 << self.shift) - 1), GF2)


class _DictReducer:
    """Shared parts of the dict backends: coordinate k is row ~k = -1-k."""

    __slots__ = ("pivots", "rank")

    def __init__(self):
        self.pivots = {}   # pivot row -> stored column
        self.rank = 0

    def take(self, col, key=None):
        v = dict(col)
        if key is not None:
            v[~key] = 1
        return v

    def is_zero(self, v):
        return not v or max(v) < 0

    def pivot_rows(self):
        return set(self.pivots)

    def widen(self, ncoords):
        """Coordinate keys are negative rows: any number fits."""

    def coords(self, v):
        return {~r: self._value(x) for r, x in v.items() if r < 0}

    def add(self, v):
        v = self.reduce(v)
        if v:
            top = max(v)
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
        v = {r: y for r, x in vec.items() if (y := x % p)}
        if key is not None:
            v[~key] = 1
        return v

    def reduce(self, v):
        p, pivots = self.p, self.pivots
        while v:
            top = max(v)
            col = pivots.get(top)
            if col is None:
                return v
            b = v[top]
            for r, x in col.items():
                y = (v.get(r, 0) - b * x) % p
                if y:
                    v[r] = y
                else:
                    del v[r]
        return v

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

    def reduce(self, v):
        pivots = self.pivots
        while v:
            top = max(v)
            col = pivots.get(top)
            if col is None:
                return v
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
        return v

    @staticmethod
    def _normalize(v, top):
        g = gcd(*v.values())
        if v[top] < 0:
            g = -g
        return v if g == 1 else {r: x // g for r, x in v.items()}

    @staticmethod
    def _value(x):
        return Fraction(x)


def reducer(field, ncoords=0):
    """An empty echelon form over ``field``.  ``ncoords`` bounds the
    coordinate keys that loaded columns may carry (needed by F2 only)."""
    if field.char == 2:
        return F2Reducer(ncoords)
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


def pack(vec):
    v = 0
    for r in vec:
        v |= 1 << r
    return v


def unpack(v, field):
    out = {}
    r = 0
    while v:
        if v & 1:
            out[r] = field.one
        v >>= 1
        r += 1
    return out
