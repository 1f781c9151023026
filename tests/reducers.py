"""Reducer helpers used only by the tests, moved out of ``tanglekh.linalg``.

``kernel_basis`` and ``ColumnReducer`` wrap the package's field backends
with the older call shapes: field-valued dict columns in, residuals and
kernel vectors in field values out.
"""

from tanglekh.linalg import reducer


def kernel_basis(columns, field):
    """Coefficient vectors (over column indices) spanning the kernel."""
    red = reducer(field)
    out = []
    for i, col in enumerate(columns):
        v = red.add(red.load(col, key=i))
        if red.is_zero(v):
            out.append(red.coords(v))
    return out


class ColumnReducer:
    """Incremental column echelon form over field-valued dict columns,
    with optional coordinate tracking over the columns added so far."""

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self._red = reducer(field)
        self.count = 0     # columns added (for coordinate indexing)

    @property
    def rank(self):
        return self._red.rank

    def reduce(self, vec):
        """Reduce ``vec`` against the stored columns.

        Returns ``(residual, coords)``: ``vec - residual`` equals the sum
        of coords[j] times the j-th added column (coords only if
        tracking).
        """
        return self._split(self._red.reduce(self._load(vec)))

    def add(self, vec):
        """Reduce and, if independent, store.  Returns (residual, coords)."""
        out = self._split(self._red.add(self._load(vec)))
        self.count += 1
        return out

    def _load(self, vec):
        # the column itself is coordinate ``count``; its coefficient is the
        # scale the Q backend has applied to it
        return self._red.load(vec, key=self.count)

    def _split(self, v):
        f, red = self.field, self._red
        coords = red.coords(v)
        own = f.inv(coords.pop(self.count))
        neg = f.neg(own)
        rows = {r: red._value(x) for r, x in v.items() if r >= 0}
        return ({r: f.mul(own, x) for r, x in rows.items()},
                {j: f.mul(neg, x) for j, x in coords.items()}
                if self.track else None)

