"""Assembly of the Khovanov cochain complex and bigraded homology.

The homological degree of a state s is h(s) = l(s) - n_minus.  The
quantum grading of a generator is p + n_plus - n_minus + theta, which the
differential preserves, so homology is computed per (p, q) block.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

from . import linalg
from .algebra import GF2, Generator
from .cube import StateTable, classify, labels_of, mask_of, saddle_mask_map
from .diagram import TangleDiagram, resolve, validate


class ComplexError(ValueError):
    pass


@dataclass
class GradedChainComplex:
    """Generator i of degree p is (state, mask) with i = offset + mask,
    where ``layout[state] = (p, offset)`` and mask is a bitmask over the
    state's circles (see ``cube``).  States of one degree take consecutive
    index ranges in lexicographic state order, so the basis is ordered by
    state, then by labeling with '+' before '-'."""

    diagram: TangleDiagram
    functor: str
    field: object
    n_plus: int
    n_minus: int
    differentials: dict  # p -> list of column dicts into degree p+1 indices
    resolutions: dict    # state -> Resolution
    layout: dict         # state -> (p, offset of the state's mask 0)

    @property
    def degrees(self):
        return sorted(self.differentials)

    def dim(self, p):
        return len(self.differentials.get(p, ()))

    def total_dim(self):
        return sum(len(cols) for cols in self.differentials.values())

    def span(self, state):
        """(p, start, count) of the generators living over one state."""
        p, off = self.layout[state]
        return p, off, 1 << self.resolutions[state].r

    @cached_property
    def _states(self):
        """p -> (offsets, states) in index order."""
        out = {}
        for state, (p, off) in self.layout.items():
            offs, states = out.setdefault(p, ([], []))
            offs.append(off)
            states.append(state)
        return out

    def locate(self, p, i):
        """(state, mask) of generator i at degree p."""
        offs, states = self._states[p]
        k = bisect.bisect_right(offs, i) - 1
        return states[k], i - offs[k]

    @property
    def basis(self):
        """p -> sequence of ``Generator``, decoded on demand."""
        return {p: _DegreeBasis(self, p) for p in self.differentials}

    @property
    def index(self):
        """(state, labels) -> (p, i), encoded on demand."""
        return _Index(self)

    def _q_base(self, state, p):
        res = self.resolutions[state]
        return p + self.n_plus - self.n_minus + res.r - res.t

    def q_of(self, p, i):
        state, mask = self.locate(p, i)
        return self._q_base(state, p) - 2 * bin(mask).count("1")

    def q_blocks(self, p):
        """Generator indices at degree p grouped by quantum grading:
        q = p + n_plus - n_minus + r - t - 2 popcount(mask)."""
        out = {}
        if p not in self.differentials:
            return out
        for off, state in zip(*self._states[p]):
            q0 = self._q_base(state, p)
            for k, masks in enumerate(_by_popcount(self.resolutions[state].r)):
                out.setdefault(q0 - 2 * k, []).extend([off + m for m in masks])
        return out

    def differential_column(self, p, i):
        cols = self.differentials.get(p)
        return cols[i] if cols is not None else {}


@lru_cache(maxsize=None)
def _by_popcount(r):
    """The 2^r masks grouped by popcount 0..r, each group ascending."""
    out = [[] for _ in range(r + 1)]
    for m in range(1 << r):
        out[bin(m).count("1")].append(m)
    return out


class _DegreeBasis(Sequence):
    def __init__(self, c, p):
        self._c, self._p = c, p

    def __len__(self):
        return self._c.dim(self._p)

    def __getitem__(self, i):
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        state, mask = self._c.locate(self._p, i)
        return Generator(state=state,
                         labels=labels_of(self._c.resolutions[state], mask))

    def __iter__(self):
        c = self._c
        for state in c._states[self._p][1]:
            res = c.resolutions[state]
            for m in range(1 << res.r):
                yield Generator(state=state, labels=labels_of(res, m))


class _Index(Mapping):
    def __init__(self, c):
        self._c = c

    def __getitem__(self, key):
        state, labels = key
        p, off = self._c.layout[state]
        return p, off + mask_of(self._c.resolutions[state], labels)

    def __iter__(self):
        for gens in self._c.basis.values():
            for g in gens:
                yield g.state, g.labels

    def __len__(self):
        return self._c.total_dim()


def build_complex(d: TangleDiagram, functor="G", field=GF2,
                  sign_flip=None) -> GradedChainComplex:
    """Assemble the cochain complex of ``d`` under the given functor.

    Each cube edge is classified once; its saddle then fills the columns
    of all 2^r source masks.  Distinct edges of a state reach distinct
    target states and a split's two target masks differ, so every
    (column, row) entry is a single signed term.

    ``sign_flip`` optionally names one edge ``(state, star)`` whose sign is
    negated; it exists purely as a corruption hook for self-tests.
    """
    rep = validate(d)
    if not rep.ok:
        raise ComplexError("invalid diagram: " + "; ".join(rep.problems))
    if functor == "F" and d.boundary:
        raise ComplexError("functor F requires an empty boundary")
    if functor not in ("F", "G"):
        raise ComplexError(f"unknown functor {functor!r}")

    _, rank, _, ports = d.wiring()
    n_minus = d.n_minus
    resolutions = {}
    layout = {}
    tables = {}
    dims = {}
    for state in itertools.product((0, 1), repeat=d.n):
        res = resolve(d, state)
        resolutions[state] = res
        p = sum(state) - n_minus
        off = dims.get(p, 0)
        layout[state] = (p, off)
        dims[p] = off + (1 << res.r)
        tables[state] = StateTable(res, rank)

    one = field.one
    neg_one = field.neg(one)
    differentials = {p: [{} for _ in range(k)] for p, k in dims.items()}

    for state, src in tables.items():
        p, off = layout[state]
        cols = differentials[p]
        ones = 0
        for star, bit in enumerate(state):
            if bit:
                ones += 1
                continue
            tgt_state = state[:star] + (1,) + state[star + 1:]
            dst = tables[tgt_state]
            cls = classify(src, dst, ports[star])
            negative = (ones % 2 == 1) != (sign_flip == (state, star))
            saddle_mask_map(cls, src.bits, dst.bits).fill(
                cols, off, layout[tgt_state][1], neg_one if negative else one)

    return GradedChainComplex(
        diagram=d, functor=functor, field=field,
        n_plus=d.n_plus, n_minus=d.n_minus,
        differentials=differentials, resolutions=resolutions, layout=layout)


def verify_d_squared(c: GradedChainComplex):
    """Check d(p+1) . d(p) = 0; returns (ok, first violating (p, column))."""
    f = c.field
    for p in c.degrees:
        nxt = c.differentials.get(p + 1)
        if nxt is None:
            continue
        for i, col in enumerate(c.differentials[p]):
            acc = {}
            for j, coeff in col.items():
                linalg.add_into(acc, nxt[j], coeff, f)
            if acc:
                return False, (p, i)
    return True, None


def verify_phi_homogeneous(c: GradedChainComplex):
    """Every differential entry must preserve the quantum grading."""
    for p in c.degrees:
        for i, col in enumerate(c.differentials[p]):
            q = c.q_of(p, i)
            for j in col:
                if c.q_of(p + 1, j) != q:
                    return False, (p, i, j)
    return True, None


@dataclass
class BigradedHomology:
    field: object
    n_plus: int
    n_minus: int
    ranks: dict            # (p, q) -> rank
    representatives: dict  # (p, q) -> list of chain vectors at degree p
    complex: GradedChainComplex = dc_field(repr=False, default=None)

    def rank(self, p, q):
        return self.ranks.get((p, q), 0)

    def total_rank(self, p):
        return sum(r for (pp, _), r in self.ranks.items() if pp == p)

    @property
    def degrees(self):
        return sorted({p for (p, _) in self.ranks})

    def to_json(self):
        return {
            "field": self.field.name,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "ranks": [{"p": p, "q": q, "rank": r}
                      for (p, q), r in sorted(self.ranks.items())],
        }


def homology(c: GradedChainComplex, representatives=True) -> BigradedHomology:
    """Bigraded homology ranks, with cocycle representatives on request.

    Rank first: dim H^{p,q} = dim C^{p,q} - rk d^p_q - rk d^{p-1}_q, and
    each block d^p_q is eliminated once, untracked, in degree order.  A
    column whose index is a pivot row of the reduced block d^{p-1}_q
    reduces to zero and is skipped (clearing, Chen-Kerber).  Blocks with
    H^{p,q} != 0 are eliminated once more with coordinate tracking when
    ``representatives`` is set: the columns that reduce to zero without
    being cleared give cocycles that form a basis of H^{p,q}, because
    their highest coordinates are distinct from the pivot rows of the
    image and from each other.
    """
    f = c.field
    ranks = {}
    reps = {}
    blocks = {p: c.q_blocks(p) for p in c.degrees}
    cleared = {}   # q -> pivot rows of d^{p-1}_q, as indices into block q
    for p in c.degrees:
        cols = c.differentials[p]
        nxt = blocks.get(p + 1, {})
        pivots = {}
        for q, gens in blocks[p].items():
            skip = cleared.get(q, ())
            rows = {g: k for k, g in enumerate(nxt.get(q, ()))}
            live = [(k, {rows[j]: x for j, x in cols[i].items()})
                    for k, i in enumerate(gens) if k not in skip]
            red = linalg.reducer(f)
            for _, col in live:
                red.add(red.load(col))
            pivots[q] = red.pivot_rows()
            h = len(live) - red.rank
            if h:
                ranks[(p, q)] = h
                if representatives:
                    reps[(p, q)] = _cocycles(f, gens, live)
        cleared = pivots

    return BigradedHomology(field=f, n_plus=c.n_plus, n_minus=c.n_minus,
                            ranks=ranks, representatives=reps, complex=c)


def _cocycles(f, gens, live):
    """Tracked elimination of one block: the uncleared columns that
    reduce to zero, as chain vectors over the global indices ``gens``."""
    red = linalg.reducer(f, ncoords=len(gens))
    out = []
    for k, col in live:
        v = red.add(red.load(col, key=k))
        if red.is_zero(v):
            out.append({gens[j]: x for j, x in red.coords(v).items()})
    return out
