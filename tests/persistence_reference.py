"""The induced maps on homology as ``persistence`` solved them before
``BigradedHomology.classes``: each target block's echelon of im d^{p-1}
is rebuilt from ``block_columns``, without clearing, together with the
target representatives, all in the complex's generator indices (the one
numbering ``classes`` also uses).  Tests compare the library against
it."""

from tanglekh import linalg
from tanglekh.complex import BigradedHomology, GradedChainComplex
from tanglekh.persistence import ChainMap, MorphismError, rep_order


def induced_on_homology(f: ChainMap, h_src: BigradedHomology,
                        h_dst: BigradedHomology):
    """Matrices of the induced map per homological degree.

    Columns follow ``rep_order(h_src, p)``, rows ``rep_order(h_dst, p)``.
    The image of a source representative at (p, q) lies in the target
    block (p, q + q_shift); it is solved there against the image of
    d^{p-1} (untracked) and the target representatives (tracked).
    """
    field = f.src.field
    out = {}
    for p in sorted(set(h_src.degrees) | set(h_dst.degrees)):
        row_of = {qj: k for k, qj in enumerate(rep_order(h_dst, p))}
        solvers = {}
        cols = []
        for (q, j) in rep_order(h_src, p):
            fz = f.apply(p, h_src.representatives[(p, q)][j])
            col = {}
            if fz:
                t = q + f.q_shift
                if t not in solvers:
                    solvers[t] = _block_solver(f.dst, h_dst, p, t)
                red, block, own = solvers[t]
                assert fz.keys() <= block, "image outside its target block"
                v = red.reduce(red.load(fz, key=own))
                if not red.is_zero(v):
                    raise MorphismError(
                        f"image of a cocycle is not a cocycle at p={p}")
                coords = red.coords(v)
                # 0 = s*fz + sum_k c_k rep_k modulo the image of d^{p-1}
                factor = field.neg(field.inv(coords.pop(own)))
                col = {row_of[(t, k)]: field.mul(factor, c)
                       for k, c in coords.items()}
            cols.append(col)
        out[p] = cols
    return out


def _block_solver(c: GradedChainComplex, h: BigradedHomology, p, q):
    """Echelon form of im d^{p-1} plus the representatives of H^{p,q} in
    the (p, q) block of ``c``, whose columns of d^{p-1}_q come from
    ``c.block_columns``.  Returns (reducer, the block's indices, own):
    representative k carries coordinate k, and a column to solve is
    loaded with coordinate ``own``."""
    reps = h.representatives.get((p, q), ())
    red = linalg.reducer(c.field)
    for _, col in c.block_columns(p - 1, q):
        red.add(red.take(col))
    for k, z in enumerate(reps):
        red.add(red.load(z, key=k))
    return red, set(c.block_generators(p, q)), len(reps)
