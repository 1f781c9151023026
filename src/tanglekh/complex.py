"""Assembly of the Khovanov cochain complex and bigraded homology.

The homological degree of a state s is h(s) = l(s) - n_minus.  The
quantum grading of a generator is p + n_plus - n_minus, plus one for
each '+' circle and minus one for each '-' circle and each arc.  The
differential preserves it, so homology is computed per (p, q) block.

Free circles are circles of every state like any other: ``diagram.walk``
numbers them last, so they are the lowest bits of each mask, and every
saddle carries them as bystanders.
"""

from __future__ import annotations

import bisect
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

from . import linalg
from .algebra import GF2
from .cube import (bystanders, labels_of, mask_of, saddle, state_bits,
                   state_number, zero_bits)
from .diagram import TangleDiagram, validate, walk
from .diagram import resolve  # noqa: F401  the benchmark's tracer wraps it here


class ComplexError(ValueError):
    pass


# The largest cube ``build_complex`` lists, as 2^(crossings + free circles):
# a free circle doubles the generators as a crossing does.  At 16 crossings
# ``compute --generators`` peaks near 600 MB (3-braid closure, F2 or Q).
MAX_STATES = 1 << 16


class Generator(NamedTuple):
    """A basis element: a state, as its bits, and one label per component."""

    state: tuple
    labels: tuple


@dataclass
class GradedChainComplex:
    """Generator i of degree p is (state, mask) with i = offset + mask,
    where ``layout[state] = (p, offset)`` and mask is a bitmask over the
    state's circles, and the state its number (see ``cube``), which
    indexes every per-state list.  States of one degree take consecutive
    index ranges in state order, so the basis is ordered by state, then
    by labeling with '+' before '-'.  This index is the only
    name of a generator: blocks, echelons and representatives all use it.

    The complex stores per-state data only, and computes the differential
    on demand, one column at a time, by ``_columns``: ``block_columns``
    yields the columns of one block d^p_q, and ``differentials`` is a view
    of all of d^p."""

    functor = "G"   # the only one; Khovanov's on a closed diagram
    diagram: TangleDiagram
    field: object
    n_plus: int
    n_minus: int
    rt: list             # state -> (circles r, arcs t)
    layout: list         # state -> (p, offset of the state's mask 0)
    edges: list          # state -> the cube.saddle record of each 0 bit
    dims: dict           # p -> dim C^p
    comps: list          # state -> component of each node rank, as bytes

    @property
    def degrees(self):
        return sorted(self.dims)

    def dim(self, p):
        return self.dims.get(p, 0)

    def total_dim(self):
        return sum(self.dims.values())

    @cached_property
    def _states(self):
        """p -> (offsets, states, q of mask 0, circle counts), in index
        order."""
        out = {}
        for state, ((p, off), (r, t)) in enumerate(zip(self.layout, self.rt)):
            lists = out.setdefault(p, ([], [], [], []))
            lists[0].append(off)
            lists[1].append(state)
            lists[2].append(p + self.n_plus - self.n_minus + r - t)
            lists[3].append(r)
        return out

    def locate(self, p, i):
        """(state, mask) of generator i at degree p."""
        offs, states, _, _ = self._states[p]
        k = bisect.bisect_right(offs, i) - 1
        return states[k], i - offs[k]

    @property
    def basis(self):
        """p -> sequence of ``Generator``, decoded on demand."""
        return {p: _DegreeBasis(self, p) for p in self.dims}

    @property
    def index(self):
        """(state, labels) -> (p, i), encoded on demand."""
        return _Index(self)

    def q_of(self, p, i):
        offs, _, q0s, _ = self._states[p]
        k = bisect.bisect_right(offs, i) - 1
        return q0s[k] - 2 * bin(i - offs[k]).count("1")

    def q_blocks(self, p):
        """Generator indices at degree p grouped by quantum grading:
        q = p + n_plus - n_minus + r - t - 2 popcount(mask)."""
        return {q: self.block_generators(p, q) for q in self.block_sizes(p)}

    def block_sizes(self, p):
        """q -> dim C^{p,q}, in the key order of ``q_blocks(p)``."""
        return self._sizes.get(p, {})

    @cached_property
    def _sizes(self):
        out = {p: {} for p in self._states}
        for p, (_, _, q0s, rs) in self._states.items():
            for q0, r in zip(q0s, rs):
                for k in range(r + 1):
                    out[p][q0 - 2 * k] = out[p].get(q0 - 2 * k, 0) + comb(r, k)
        return out

    def _block(self, p, q):
        """(state, r, popcount) of every state with generators in block
        (p, q), in index order."""
        for _, state, q0, r in zip(*self._states.get(p, ((),) * 4)):
            k, odd = divmod(q0 - q, 2)
            if not odd and 0 <= k <= r:
                yield state, r, k

    def block_generators(self, p, q):
        """The indices of block (p, q), ascending."""
        return [self.layout[state][1] + m
                for state, r, k in self._block(p, q)
                for m in _by_popcount(r)[k]]

    def block_columns(self, p, q, skip=()):
        """The columns of the block d^p_q, built by ``_columns`` on demand:
        yields ``(i, column)`` for each index i of block (p, q) not in
        ``skip``, ascending, and never builds the skipped ones.  So the
        columns of d^p_q come in the order of the rows of d^{p-1}_q, as
        clearing needs."""
        for state, r, k in self._block(p, q):
            off = self.layout[state][1]
            masks = [m for m in _by_popcount(r)[k] if off + m not in skip]
            for m, col in zip(masks, self._columns(state, masks)):
                yield off + m, col

    def _columns(self, state, masks):
        """The column of d at each of the given masks of one state, one at
        a time: a dict {row index: int} with entries 1 and -1 (mod p over
        F_p, so all 1 over F2).  The edge that flips ``bit`` reaches state
        ``state | bit`` with sign -1 to the number of 1s above ``bit``.
        Edges write in crossing order, each in its local map's term order;
        an edge whose local map is zero is skipped."""
        f = self.field
        signs = (1, f.p - 1 if f.char else -1)
        edges = [(self.layout[state | bit][1], bystanders(images), active,
                  terms, signs[(state >> bit.bit_length()).bit_count() & 1])
                 for bit, (_, images, active, terms)
                 in zip(zero_bits(state, self.diagram.n), self.edges[state])
                 if any(terms.values())]
        for m in masks:
            col = {}
            for off, by, active, terms, x in edges:
                b = off + by[m]   # b | t == b + t
                for t in terms[m & active]:
                    col[b + t] = x
            yield col

    @property
    def differentials(self):
        """p -> the columns of d^p, computed state by state on demand."""
        return {p: _DegreeColumns(self, p) for p in self.degrees}


@lru_cache(maxsize=None)
def _by_popcount(r):
    """The 2^r masks grouped by popcount 0..r, each group ascending."""
    out = [[] for _ in range(r + 1)]
    for m in range(1 << r):
        out[bin(m).count("1")].append(m)
    return out


class _DegreeView(Sequence):
    """A read-only sequence with one item per generator of degree p, made
    state by state by ``_over(state, masks)``."""

    def __init__(self, c, p):
        self._c, self._p = c, p

    def __len__(self):
        return self._c.dim(self._p)

    def __getitem__(self, i):
        state, mask = self._c.locate(self._p, range(len(self))[i])
        return next(self._over(state, (mask,)))

    def __iter__(self):
        for state in self._c._states[self._p][1]:
            yield from self._over(state, range(1 << self._c.rt[state][0]))


class _DegreeBasis(_DegreeView):
    def _over(self, state, masks):
        (r, t), bits = self._c.rt[state], state_bits(state, self._c.diagram.n)
        return (Generator(bits, labels_of(r, t, m)) for m in masks)


class _DegreeColumns(_DegreeView):
    """The columns of d^p as dicts, equal to a list of the same dicts."""

    def _over(self, state, masks):
        return self._c._columns(state, masks)

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


class _Index(Mapping):
    def __init__(self, c):
        self._c = c

    def __getitem__(self, key):
        bits, labels = key
        if len(bits) != self._c.diagram.n or not set(bits) <= {0, 1}:
            raise KeyError(key)
        state = state_number(bits)
        p, off = self._c.layout[state]
        return p, off + mask_of(*self._c.rt[state], labels)

    def __iter__(self):
        return (tuple(g) for gens in self._c.basis.values() for g in gens)

    def __len__(self):
        return self._c.total_dim()


def check_cube(d: TangleDiagram, states=True):
    """ComplexError unless ``d`` is valid, with 2^(crossings + free
    circles) at most MAX_STATES when ``states``."""
    rep = validate(d)
    if not rep.ok:
        raise ComplexError("invalid diagram: " + "; ".join(rep.problems))
    size = d.n + d.free_circles
    if states and 1 << size > MAX_STATES:
        circles = f" and {d.free_circles} free circles" if d.free_circles \
            else ""
        raise ComplexError(
            f"the cube of {d.n} crossings{circles} has 2^{size} = "
            f"{1 << size:,} states, above the limit of {MAX_STATES:,}")


def build_complex(d: TangleDiagram, field=GF2) -> GradedChainComplex:
    """Assemble the cochain complex of ``d``.

    Each state s < 2^n is walked once into a node -> component
    array (``diagram.walk``), kept as bytes for the chain maps, and each
    cube edge classified once from the arrays of its two states: edges[s]
    holds the cached ``cube.saddle`` record of each 0 bit.  No column is
    built here (see ``block_columns``).  Distinct edges of a state reach
    distinct target states and a split's two target masks differ, so
    every (column, row) entry is a single signed term.
    """
    check_cube(d)
    ports = d.wiring()[3]
    n, t, n_minus = d.n, len(d.boundary) // 2, d.n_minus
    comps, rt, layout, dims, pairs = [], [], [], {}, {}
    for state in range(1 << n):
        comp, _, r = walk(d, state)
        comps.append(bytes(comp) if len(comp) <= 256 else tuple(comp))
        rt.append(pairs.setdefault(r, (r, t)))   # one tuple per distinct r
        p = state.bit_count() - n_minus
        off = dims.get(p, 0)
        layout.append((p, off))
        dims[p] = off + (1 << r)

    edges = [tuple(saddle((comps[s], rt[s][0]), (comps[s | b], rt[s | b][0]),
                          t, ports[n - b.bit_length()])
                   for b in zero_bits(s, n)) for s in range(1 << n)]

    return GradedChainComplex(
        diagram=d, field=field, n_plus=d.n_plus, n_minus=d.n_minus,
        rt=rt, layout=layout, edges=edges, dims=dims, comps=comps)


def verify_d_squared(c: GradedChainComplex):
    """Check d(p+1) . d(p) = 0 block by block: each column of d^p_q is
    composed with the columns of d^{p+1}_q it meets, in integers reduced
    mod the characteristic.  Returns (ok, first violating (p, column)),
    the first such column in index order."""
    mod = c.field.char
    for p in c.degrees:
        if p + 1 not in c.dims:
            continue
        bad = None
        for q in c.block_sizes(p):
            nxt = dict(c.block_columns(p + 1, q))
            for i, col in c.block_columns(p, q):
                acc = {}
                for j, x in col.items():
                    for r, y in nxt[j].items():
                        acc[r] = acc.get(r, 0) + x * y
                if any(v % mod if mod else v for v in acc.values()):
                    bad = i if bad is None else min(bad, i)
                    break
        if bad is not None:
            return False, (p, bad)
    return True, None


def verify_phi_homogeneous(c: GradedChainComplex):
    """Every differential entry must preserve the quantum grading."""
    for p in c.degrees:
        q_next = [c.q_of(p + 1, j) for j in range(c.dim(p + 1))]
        for i, col in enumerate(c.differentials[p]):
            q = c.q_of(p, i)
            for j in col:
                if q_next[j] != q:
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
    # (p, q) -> the echelon of im d^{p-1}_q, where H^{p,q} != 0
    echelons: dict = dc_field(repr=False, compare=False, default_factory=dict)
    # the (p, q) whose echelon ``classes`` has added the representatives to
    _joined: set = dc_field(init=False, repr=False, compare=False,
                            default_factory=set)

    def rank(self, p, q):
        return self.ranks.get((p, q), 0)

    def total_rank(self, p):
        return sum(r for (pp, _), r in self.ranks.items() if pp == p)

    @property
    def degrees(self):
        return sorted({p for (p, _) in self.ranks})

    def classes(self, p, q, z):
        """Coordinates {k: coefficient} on ``representatives[(p, q)]`` of
        the class of the cocycle ``z`` {index: coefficient} of block (p, q);
        {} where z or H^{p,q} is 0.  Raises ValueError when z is not a
        cocycle; where H^{p,q} = 0 that is checked by applying d^p.
        Representative k joins the kept echelon as coordinate k."""
        if not self.rank(p, q):
            if linalg.matvec(self.complex.differentials[p], z, self.field):
                raise ValueError(f"not a cocycle at (p, q) = ({p}, {q})")
            return {}
        if (p, q) not in self.echelons:
            raise ValueError("homology was computed without representatives")
        red, own = self.echelons[(p, q)], len(self.representatives[(p, q)])
        if (p, q) not in self._joined:
            self._joined.add((p, q))
            for k, rep in enumerate(self.representatives[(p, q)]):
                red.add(red.load(rep, k))
        v = red.reduce(red.load(z, own))
        if not red.is_zero(v):
            raise ValueError(f"not a cocycle at (p, q) = ({p}, {q})")
        coords, f = red.coords(v), self.field
        # 0 = s*z + sum_k c_k rep_k modulo the image of d^{p-1}
        factor = f.neg(f.inv(coords.pop(own)))
        return {k: f.mul(factor, x) for k, x in coords.items()}

    def to_json(self):
        return {
            "field": self.field.name,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "ranks": [{"p": p, "q": q, "rank": r}
                      for (p, q), r in sorted(self.ranks.items())],
        }


def homology(c: GradedChainComplex, representatives=True) -> BigradedHomology:
    """Bigraded homology ranks, with cocycle representatives on request,
    both in block order: by p, then q as in ``c.block_sizes(p)``.

    Rank first: dim H^{p,q} = dim C^{p,q} - rk d^p_q - rk d^{p-1}_q, each
    block d^p_q streamed from ``c.block_columns`` and eliminated once,
    untracked, along its q-chain in degree order; a column whose index is
    a pivot row of the reduced d^{p-1}_q is never built (clearing,
    Chen-Kerber).  With ``representatives``, blocks with H^{p,q} != 0 are
    eliminated again, tracked, on their live columns: those that reduce
    to zero uncleared give cocycles with distinct highest coordinates,
    none a pivot row of the image, so a basis of H^{p,q}.  Such a block
    keeps the echelon of d^{p-1}_q for ``classes`` to solve against.
    """
    f = c.field
    sizes = {p: c.block_sizes(p) for p in c.degrees}
    ranks, reps, echelons = {}, {}, {}
    for q in {q for s in sizes.values() for q in s}:
        skip, image = (), None   # pivot rows and echelon of d^{p-1}_q
        for p in c.degrees:
            if q not in sizes[p]:
                continue   # what is carried, the map into this block, is 0
            red = linalg.reducer(f)
            live = []
            for i, col in c.block_columns(p, q, skip):
                if representatives:
                    live.append((i, col))
                    col = dict(col)   # the reducer consumes what it adds
                red.add(col)
            h = sizes[p][q] - len(skip) - red.rank
            if h:
                ranks[(p, q)] = h
                if representatives:
                    reps[(p, q)] = _cocycles(f, live)
                    echelons[(p, q)] = image or linalg.reducer(f)
            skip, image = red.pivot_rows(), red if representatives else None
    order = [(p, q) for p, s in sizes.items() for q in s if (p, q) in ranks]
    return BigradedHomology(
        field=f, n_plus=c.n_plus, n_minus=c.n_minus,
        ranks={b: ranks[b] for b in order},
        representatives={b: reps[b] for b in order if b in reps},
        complex=c, echelons=echelons)


def _cocycles(f, live):
    """Tracked elimination of one block: the uncleared columns that
    reduce to zero, as chain vectors {index: coefficient}."""
    red = linalg.reducer(f)
    out = []
    for i, col in live:
        v = red.add(red.take(col, key=i))
        if red.is_zero(v):
            out.append(red.coords(v))
    return out
