"""Assembly of the Khovanov cochain complex and bigraded homology.

The homological degree of a state s is h(s) = l(s) - n_minus.  The
quantum grading of a generator is p + n_plus - n_minus + theta, which the
differential preserves, so homology is computed per (p, q) block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import GF2, Generator, phi
from .cube import EdgeDescriptor, classify_saddle, edge_sign, transfer_labels
from .diagram import TangleDiagram, resolve, validate


class ComplexError(ValueError):
    pass


@dataclass
class GradedChainComplex:
    diagram: TangleDiagram
    functor: str
    field: object
    n_plus: int
    n_minus: int
    basis: dict          # p -> list[Generator]
    index: dict          # (state, labels) -> (p, i)
    differentials: dict  # p -> list of column dicts into basis[p+1] indices
    resolutions: dict    # state -> Resolution

    @property
    def degrees(self):
        return sorted(self.basis)

    def dim(self, p):
        return len(self.basis.get(p, ()))

    def total_dim(self):
        return sum(len(b) for b in self.basis.values())

    def q_of(self, p, i):
        return phi(self.basis[p][i].labels, p, self.n_plus, self.n_minus)

    def q_blocks(self, p):
        """Generator indices at degree p grouped by quantum grading."""
        out = {}
        q_of_labels = {}   # many states share a labeling
        for i, g in enumerate(self.basis.get(p, ())):
            q = q_of_labels.get(g.labels)
            if q is None:
                q = q_of_labels[g.labels] = phi(g.labels, p, self.n_plus,
                                                self.n_minus)
            out.setdefault(q, []).append(i)
        return out

    def differential_column(self, p, i):
        cols = self.differentials.get(p)
        return cols[i] if cols is not None else {}


def _labelings(resolution):
    choices = [("w",) if c.kind == "arc" else ("+", "-")
               for c in resolution.components]
    return itertools.product(*choices)


def build_complex(d: TangleDiagram, functor="G", field=GF2,
                  sign_flip=None) -> GradedChainComplex:
    """Assemble the cochain complex of ``d`` under the given functor.

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

    n, n_plus, n_minus = d.n, d.n_plus, d.n_minus
    resolutions = {}
    basis = {}
    index = {}
    state_span = {}
    for state in itertools.product((0, 1), repeat=n):
        res = resolve(d, state)
        resolutions[state] = res
        p = sum(state) - n_minus
        bucket = basis.setdefault(p, [])
        start = len(bucket)
        for labels in _labelings(res):
            index[(state, labels)] = (p, len(bucket))
            bucket.append(Generator(state=state, labels=labels))
        state_span[state] = (p, start, len(bucket) - start)

    one = field.one
    neg_one = field.neg(one)
    differentials = {p: [dict() for _ in gens] for p, gens in basis.items()}

    for state in resolutions:
        res_s = resolutions[state]
        p = sum(state) - n_minus
        cols = differentials[p]
        for star in range(n):
            if state[star]:
                continue
            e = EdgeDescriptor(source=state, star=star)
            tgt_state = e.target
            res_t = resolutions[tgt_state]
            cls = classify_saddle(res_s, res_t, e, d)
            sgn = edge_sign(e)
            if sign_flip == (state, star):
                sgn = -sgn
            coeff = one if sgn > 0 else neg_one

            _, start, count = state_span[state]
            for gen_idx in range(start, start + count):
                gen = basis[p][gen_idx]
                col = cols[gen_idx]
                for out2 in transfer_labels(cls, res_s, res_t, gen.labels):
                    _, ti = index[(tgt_state, out2)]
                    val = field.add(col.get(ti, field.zero), coeff)
                    if val == field.zero:
                        col.pop(ti, None)
                    else:
                        col[ti] = val

    return GradedChainComplex(
        diagram=d, functor=functor, field=field,
        n_plus=n_plus, n_minus=n_minus,
        basis=basis, index=index,
        differentials=differentials, resolutions=resolutions)


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
