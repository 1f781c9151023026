"""Chain maps along filtrations of tangles and persistent homology.

Closure morphisms (from 1-input planar operations) induce the monomial
chain map: arcs that stay arcs keep w, circles keep their label, arcs
that close up send w to v-, and every brand-new circle is filled with v+.
Cap, cup, and saddle generator maps are provided for the link case, the
saddle both as the direct state-wise map and as the projection out of the
mapping-cone complex of the added crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import LaurentPolynomial
from .complex import BigradedHomology, GradedChainComplex, build_complex
from .cube import MaskMap, bit_table, circle_bit, saddle
from .diagram import Crossing, TangleDiagram, walk


class MorphismError(ValueError):
    """A filtration step outside the constructible class of chain maps."""


@dataclass(frozen=True)
class ClosureMorphismSpec:
    """Combinatorial description of a closure morphism T -> D(T).

    ``arc_images`` has one entry per portless arc of the source (canonical
    order): ("arc", i) for the i-th portless arc of the target,
    ("circle", i) for the i-th free circle, or ("port", label) when the
    arc was spliced into a strand through crossings (a component merge;
    no chain map exists for those).  ``circle_images`` maps source free
    circles to target free-circle indices.
    """

    source: TangleDiagram
    target: TangleDiagram
    arc_images: tuple
    circle_images: tuple

    @classmethod
    def identity(cls, d: TangleDiagram):
        return cls(source=d, target=d,
                   arc_images=tuple(("arc", i)
                                    for i in range(len(d.portless_arcs()))),
                   circle_images=tuple(range(d.free_circles)))

    def validate(self):
        s, t = self.source, self.target
        if s.crossings != t.crossings:
            raise MorphismError(
                "closure morphism requires identical crossing sets")
        if len(self.arc_images) != len(s.portless_arcs()):
            raise MorphismError("arc_images length mismatch")
        if len(self.circle_images) != s.free_circles:
            raise MorphismError("circle_images length mismatch")
        for img in self.arc_images:
            if img[0] == "port":
                raise MorphismError(
                    f"source arc merges into strand at {img[1]}: "
                    "no induced chain map is defined")
            if img[0] == "circle" and not 0 <= img[1] < t.free_circles:
                raise MorphismError(f"free circle index {img[1]} out of range")
            if img[0] == "arc" and not 0 <= img[1] < len(t.portless_arcs()):
                raise MorphismError(f"portless arc index {img[1]} out of range")
        for i in self.circle_images:
            if not 0 <= i < t.free_circles:
                raise MorphismError(f"free circle index {i} out of range")
        images = list(self.arc_images)
        images += [("circle", i) for i in self.circle_images]
        if len(set(images)) != len(images):
            raise MorphismError(
                "two source components share an image: merge cobordisms "
                "carry no induced chain map")


@dataclass
class ChainMap:
    src: GradedChainComplex
    dst: GradedChainComplex
    columns: dict   # p -> list of column dicts into dst basis[p] indices
    q_shift: int

    def apply(self, p, vec):
        cols = self.columns.get(p)
        if cols is None:
            return {}
        return linalg.matvec(cols, vec, self.src.field)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """The composite g after f."""
    if g.src is not f.dst and g.src.diagram != f.dst.diagram:
        raise MorphismError("chain maps are not composable")
    field = f.src.field
    columns = {}
    for p, cols in f.columns.items():
        gcols = g.columns.get(p)
        if gcols is None:
            columns[p] = [dict() for _ in cols]
        else:
            columns[p] = linalg.matmul(gcols, cols, field)
    return ChainMap(src=f.src, dst=g.dst, columns=columns,
                    q_shift=f.q_shift + g.q_shift)


def verify_chain_map(f: ChainMap):
    """Check d_dst . f = f . d_src degreewise; returns (ok, witness)."""
    fld = f.src.field
    for p in f.src.degrees:
        cols = f.columns.get(p, [])
        d_dst = list(f.dst.differentials.get(p, ()))
        for i, d_col in enumerate(f.src.differentials[p]):
            lhs = f.apply(p + 1, d_col)
            rhs = {}
            if i < len(cols):
                for j, c in cols[i].items():
                    linalg.add_into(rhs, d_dst[j], c, fld)
            if lhs != rhs:
                return False, (p, i)
    return True, None


def compose_specs(g: ClosureMorphismSpec,
                  f: ClosureMorphismSpec) -> ClosureMorphismSpec:
    """The combinatorial composite of two closure morphisms (g after f)."""
    if f.target != g.source:
        raise MorphismError("closure specs are not composable")
    arc_images = []
    for img in f.arc_images:
        if img[0] == "arc":
            arc_images.append(g.arc_images[img[1]])
        elif img[0] == "circle":
            arc_images.append(("circle", g.circle_images[img[1]]))
        else:
            arc_images.append(img)
    return ClosureMorphismSpec(
        source=f.source, target=g.target,
        arc_images=tuple(arc_images),
        circle_images=tuple(g.circle_images[k] for k in f.circle_images))


# -- closure morphisms ---------------------------------------------------


def build_psi(src: GradedChainComplex, dst: GradedChainComplex,
              spec: ClosureMorphismSpec) -> ChainMap:
    """The induced chain map of a closure morphism.

    Both diagrams have the same crossings, so a port keeps its rank up to
    the change in boundary size, and a component holding ports goes to the
    target component of its ports.  Portless arcs and free circles go
    where ``spec`` sends them."""
    if src.field != dst.field:
        raise MorphismError("complexes over different fields")
    if src.functor != "G" or dst.functor != "G":
        raise MorphismError("closure maps require the arc-aware functor")
    if spec.source != src.diagram or spec.target != dst.diagram:
        raise MorphismError("spec does not match the given complexes")
    spec.validate()

    ds, dt = spec.source, spec.target
    nb_s, nb_t = len(ds.boundary), len(dt.boundary)
    arcs_s = _portless_ranks(ds)
    arcs_t = _portless_ranks(dt)
    one = src.field.one
    columns = _empty_columns(src)
    q_shift = None

    for state, (p, off) in src.layout.items():
        comp_s, _, r_s = walk(ds, state)
        comp_t, _, r_t = walk(dt, state)
        (_, t_s), (_, t_t) = src.rt[state], dst.rt[state]
        free_s = t_s + r_s - ds.free_circles   # index of the first free circle
        free_t = t_t + r_t - dt.free_circles

        mapping = {}
        for k in range(nb_s, len(comp_s)):
            mapping[comp_s[k]] = comp_t[k - nb_s + nb_t]
        for k, img in zip(arcs_s, spec.arc_images):
            mapping[comp_s[k]] = (comp_t[arcs_t[img[1]]] if img[0] == "arc"
                                  else free_t + img[1])
        for k, j in enumerate(spec.circle_images):
            mapping[free_s + k] = free_t + j
        mapping = sorted(mapping.items())

        images = [j for _, j in mapping]
        if len(set(images)) != len(images):
            raise MorphismError(
                f"components merge in state {state}: no chain map exists")
        for i, j in mapping:
            if i >= t_s and j < t_t:
                raise MorphismError(
                    f"circle maps to arc in state {state}")

        new = set(range(t_t + r_t)) - set(images)
        shift = sum(1 if j >= t_t else -1 for j in new)
        if q_shift is None:
            q_shift = shift
        elif q_shift != shift:
            raise MorphismError("quantum shift varies across states")

        # circles keep their bit, an arc that closes up carries v- (its
        # bit set in every image) and a new circle carries v+
        bit_images = [0] * r_s
        closed = 0
        for i, j in mapping:
            b = circle_bit(r_t, t_t, j)
            if i >= t_s:
                bit_images[circle_bit(r_s, t_s, i).bit_length() - 1] = b
            else:
                closed |= b
        MaskMap(bit_table(bit_images), 0, {0: (closed,)}).fill(
            columns[p], off, dst.layout[state][1], one)

    return ChainMap(src=src, dst=dst, columns=columns,
                    q_shift=0 if q_shift is None else q_shift)


def _portless_ranks(d: TangleDiagram):
    """The rank of one endpoint of each portless arc, in canonical arc
    order."""
    rank = d.wiring()[1]
    return [rank[a] for a, _ in d.portless_arcs()]


def _empty_columns(c: GradedChainComplex):
    return {p: [{} for _ in range(c.dim(p))] for p in c.degrees}


def _fill_each_state(src, dst, mask_map):
    """Chain map columns from ``mask_map(state)``, the map of the
    generators over one state into those of ``dst`` over the same state."""
    columns = _empty_columns(src)
    for state, (p, off) in src.layout.items():
        mask_map(state).fill(columns[p], off, dst.layout[state][1],
                             src.field.one)
    return columns


# -- cobordism generator maps (link mode) --------------------------------


def _target(c: GradedChainComplex, d2: TangleDiagram, dst, kind):
    """``dst`` if it is the complex of ``d2`` over c's functor and field;
    built afresh when None."""
    if dst is None:
        return build_complex(d2, functor=c.functor, field=c.field)
    if (dst.diagram != d2 or dst.functor != c.functor
            or dst.field != c.field):
        raise MorphismError(f"{kind} target mismatch")
    return dst


def cap_map(c: GradedChainComplex, dst=None):
    """x -> x (x) v+ into the complex of the diagram plus one circle.

    ``dst`` is that complex, when the caller has already built it."""
    if c.diagram.boundary:
        raise MorphismError("cap map is defined in link mode only")
    d2 = TangleDiagram(boundary=(), crossings=c.diagram.crossings,
                       connections=c.diagram.connections,
                       free_circles=c.diagram.free_circles + 1)
    dst = _target(c, d2, dst, "cap")
    # the new circle comes last: the lowest bit, labelled v+

    def shifted(state):
        return MaskMap(bit_table([2 << k for k in
                                  range(c.rt[state][0])]),
                       0, {0: (0,)})

    columns = _fill_each_state(c, dst, shifted)
    return ChainMap(src=c, dst=dst, columns=columns, q_shift=1)


def cup_map(c: GradedChainComplex, circle_index=-1, dst=None):
    """x (x) v+ -> 0, x (x) v- -> x, deleting one crossing-free circle.

    ``dst`` is the complex without that circle, when already built."""
    if c.diagram.free_circles < 1:
        raise MorphismError("cup map needs a crossing-free circle")
    circle_index = range(c.diagram.free_circles)[circle_index]
    d2 = TangleDiagram(boundary=c.diagram.boundary,
                       crossings=c.diagram.crossings,
                       connections=c.diagram.connections,
                       free_circles=c.diagram.free_circles - 1)
    dst = _target(c, d2, dst, "cup")
    # free circles are the lowest bits, the first one highest among them
    b = c.diagram.free_circles - 1 - circle_index

    def deleted(state):
        r = c.rt[state][0]
        return MaskMap(bit_table([1 << k for k in range(b)] + [0]
                                 + [1 << k for k in range(b, r - 1)]),
                       1 << b, {0: (), 1 << b: (0,)})

    columns = _fill_each_state(c, dst, deleted)
    return ChainMap(src=c, dst=dst, columns=columns, q_shift=1)


def saddle_target_diagram(d: TangleDiagram, site):
    """The diagram after re-pairing the four strand nodes of ``site``.

    ``site`` is ``((a, b), (c, d))``: the connections (a,b) and (c,d) are
    replaced by (a,c) and (b,d).
    """
    (a, b), (cc, dd) = site
    pairs = {frozenset(p) for p in d.connections}
    for pair in ((a, b), (cc, dd)):
        if frozenset(pair) not in pairs:
            raise MorphismError(f"site pair {pair} is not a connection")
    pairs -= {frozenset((a, b)), frozenset((cc, dd))}
    pairs |= {frozenset((a, cc)), frozenset((b, dd))}
    return TangleDiagram(boundary=d.boundary, crossings=d.crossings,
                         connections=[tuple(p) for p in pairs],
                         free_circles=d.free_circles)


def saddle_map(src: GradedChainComplex, dst: GradedChainComplex, site,
               construction="direct") -> ChainMap:
    """The chain map of a saddle cobordism between ``src`` and ``dst``.

    The direct construction applies the local merge/split at the site in
    every state; the cone construction realizes the map as the projection
    p1 of the differential of the complex with one extra crossing at the
    site.  Both must agree.
    """
    (a, b), (cc, dd) = site
    if saddle_target_diagram(src.diagram, site) != dst.diagram:
        raise MorphismError(
            "diagrams do not differ by the given site re-pairing")
    if construction == "cone":
        return _saddle_cone(src, dst, site)

    # the target has the same nodes; the source joins a-b and cc-dd like
    # the 0-smoothing of ports (a, cc, dd, b), the target a-cc and b-dd
    # like their 1-smoothing
    rank = src.diagram.wiring()[1]
    ports = tuple(rank[x] for x in (a, cc, dd, b))
    t = len(src.diagram.boundary) // 2

    def local(state):
        comp_s, _, r_s = walk(src.diagram, state)
        comp_t, _, r_t = walk(dst.diagram, state)
        _, images, active, terms = saddle((comp_s, r_s), (comp_t, r_t), t,
                                          ports)
        return MaskMap(bit_table(images), active, terms)

    columns = _fill_each_state(src, dst, local)
    return ChainMap(src=src, dst=dst, columns=columns, q_shift=-1)


def _saddle_cone(src: GradedChainComplex, dst: GradedChainComplex, site):
    """p1 after the cone differential, built from the extra-crossing
    complex whose 0-smoothing restores the source pairing."""
    (a, b), (cc, dd) = site
    d = src.diagram
    new_id = (min(c.id for c in d.crossings) - 1) if d.crossings else 0
    xp = tuple(("cone", new_id, k) for k in range(4))
    pairs = [p for p in d.connections
             if frozenset(p) not in (frozenset((a, b)), frozenset((cc, dd)))]
    # 0-smoothing joins (x0,x3),(x1,x2): a-b and c-d; 1-smoothing joins
    # (x0,x1),(x2,x3): a-c and b-d
    pairs += [(a, xp[0]), (cc, xp[1]), (dd, xp[2]), (b, xp[3])]
    tilde = TangleDiagram(
        boundary=d.boundary,
        crossings=d.crossings + (Crossing(id=new_id, ports=xp, sign=-1),),
        connections=pairs, free_circles=d.free_circles)
    ct = build_complex(tilde, functor=src.functor, field=src.field)

    # the cone crossing has the smallest id: its four ports take the ranks
    # right after the boundary, and the other ports move up by 4
    nb, t = len(d.boundary), len(d.boundary) // 2
    into = [k if k < nb else k + 4 for k in range(len(d.wiring()[0]))]
    back = list(range(nb)) + [-1] * 4 + list(range(nb, len(into)))
    columns = _empty_columns(src)
    for state, (p, off) in src.layout.items():
        # new crossing has the smallest id, so it is the first state bit
        _, d_off, d_count = ct.span((1,) + state)
        tp, t_off, _ = ct.span((0,) + state)
        to_cone = _correspondence(walk(d, state), walk(tilde, (0,) + state),
                                  into, t, d.free_circles)
        from_cone = _correspondence(walk(tilde, (1,) + state),
                                    walk(dst.diagram, state), back, t,
                                    d.free_circles)
        row_off = dst.layout[state][1]
        for m in range(src.span(state)[2]):
            col = ct.differential_column(tp, t_off + to_cone[m])
            columns[p][off + m] = {row_off + from_cone[j - d_off]: x
                                   for j, x in col.items()
                                   if d_off <= j < d_off + d_count}
    return ChainMap(src=src, dst=dst, columns=columns, q_shift=-1)


def _correspondence(src, dst, to, t, free):
    """Mask transport between two states with t arcs each, given as
    ``walk`` results, whose components correspond: the component of rank
    k goes to the one of rank ``to[k]`` (no image when negative), and the
    ``free`` crossing-free circles, the lowest bits on both sides, keep
    their bits."""
    (comp_s, _, r_s), (comp_t, _, r_t) = src, dst
    images = [1 << k if k < free else 0 for k in range(r_s)]
    for k, j in enumerate(to):
        b = circle_bit(r_s, t, comp_s[k])
        if j >= 0 and b:
            images[b.bit_length() - 1] = circle_bit(r_t, t, comp_t[j])
    return bit_table(images)


# -- induced maps on homology and the rank invariant ---------------------


def rep_order(h: BigradedHomology, p):
    """Deterministic ordering of homology representatives at degree p."""
    out = []
    for (pp, q) in sorted(h.ranks):
        if pp != p:
            continue
        for j in range(h.ranks[(pp, q)]):
            out.append((q, j))
    return out


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
                red, local, own = solvers[t]
                v = red.reduce(red.load({local[i]: x for i, x in fz.items()},
                                        key=own))
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
    """Echelon form of im d^{p-1} plus the representatives of H^{p,q},
    in indices local to the (p, q) block of ``c``, whose columns of
    d^{p-1}_q come from ``c.block_columns``.  Returns (reducer, local
    index, own): representative k carries coordinate k, and a column to
    solve is loaded with coordinate ``own``."""
    local = {g: k for k, g in enumerate(c.block_generators(p, q))}
    reps = h.representatives.get((p, q), ())
    red = linalg.reducer(c.field, ncoords=len(reps) + 1)
    for _, col in c.block_columns(p - 1, q):
        red.add(red.take(col))
    for k, z in enumerate(reps):
        red.add(red.load({local[i]: x for i, x in z.items()}, key=k))
    return red, local, len(reps)


@dataclass
class RankTable:
    p: int
    size: int
    dims: list            # dims[i] = dim H^p(i)
    r: dict               # (i, j) -> rank of composite, i <= j

    def rank(self, i, j):
        if i < 0 or j < 0 or i > j:
            return 0
        return self.r[(i, j)]


@dataclass
class Bar:
    birth: int
    death: object  # index or None for an infinite bar
    multiplicity: int


def barcode_from_ranks(rt: RankTable):
    """Interval multiplicities of a one-directional persistence module."""
    bars = []
    n = rt.size
    for i in range(n):
        for j in range(i + 1, n):
            mu = (rt.rank(i, j - 1) - rt.rank(i - 1, j - 1)) \
                - (rt.rank(i, j) - rt.rank(i - 1, j))
            if mu < 0:
                raise ArithmeticError(
                    f"negative multiplicity at [{i},{j}): rank table invalid")
            if mu:
                bars.append(Bar(birth=i, death=j, multiplicity=mu))
        mu_inf = rt.rank(i, n - 1) - rt.rank(i - 1, n - 1)
        if mu_inf < 0:
            raise ArithmeticError("negative infinite-bar multiplicity")
        if mu_inf:
            bars.append(Bar(birth=i, death=None, multiplicity=mu_inf))
    return bars


class FiltrationRun:
    """A maximal stretch of a filtration with composable chain maps."""

    def __init__(self, grades, complexes, chain_maps, homologies):
        self.grades = list(grades)
        self.complexes = list(complexes)
        self.chain_maps = list(chain_maps)
        self.homologies = list(homologies)
        self._induced = {}

    @property
    def size(self):
        return len(self.complexes)

    def degrees(self):
        out = set()
        for h in self.homologies:
            out.update(h.degrees)
        return sorted(out)

    def induced(self, i, p):
        key = (i, p)
        if key not in self._induced:
            mats = induced_on_homology(self.chain_maps[i],
                                       self.homologies[i],
                                       self.homologies[i + 1])
            for pp, cols in mats.items():
                self._induced[(i, pp)] = cols
            self._induced.setdefault(key, [])
        return self._induced[key]

    def rank_table(self, p) -> RankTable:
        field = self.complexes[0].field
        n = self.size
        dims = [len(rep_order(h, p)) for h in self.homologies]
        r = {}
        for i in range(n):
            r[(i, i)] = dims[i]
            comp = None
            for j in range(i, n - 1):
                step = self.induced(j, p)
                if comp is None:
                    comp = [dict(c) for c in step]
                else:
                    comp = linalg.matmul(step, comp, field)
                r[(i, j + 1)] = linalg.rank(comp, field)
        return RankTable(p=p, size=n, dims=dims, r=r)

    def q_shift_between(self, a, b):
        return sum(self.chain_maps[i].q_shift for i in range(a, b))

    def persistent_betti(self, a, b, p) -> LaurentPolynomial:
        """Graded rank of im(H^p(a) -> H^p(b)) in target quantum degrees."""
        field = self.complexes[0].field
        order = rep_order(self.homologies[a], p)
        if a == b:
            h = self.homologies[a]
            return LaurentPolynomial(
                {q: r for (pp, q), r in h.ranks.items() if pp == p})
        comp = None
        for i in range(a, b):
            step = self.induced(i, p)
            comp = [dict(c) for c in step] if comp is None \
                else linalg.matmul(step, comp, field)
        shift = self.q_shift_between(a, b)
        out = LaurentPolynomial.zero()
        by_q = {}
        for idx, (q, _) in enumerate(order):
            by_q.setdefault(q, []).append(idx)
        for q, idxs in sorted(by_q.items()):
            rk = linalg.rank([comp[i] for i in idxs], field)
            if rk:
                out = out + LaurentPolynomial.q(q + shift, rk)
        return out

    def barcodes(self):
        """Per homological degree: the interval decomposition."""
        return {p: barcode_from_ranks(self.rank_table(p))
                for p in self.degrees()}


class Filtration:
    """An ordered sequence of diagrams joined by morphism steps.

    Steps are dicts: {"kind": "identity" | "closure" | "cap" | "cup" |
    "saddle" | "break", ...}.  A closure step carries a
    ``ClosureMorphismSpec`` as "spec" or a ``PlanarTangleSpec`` as "op";
    a saddle step carries {"site": {"from": ((a, b), (c, d))}}.  A
    "break" severs the sequence into runs (no induced map is defined
    across it).
    """

    def __init__(self, grades, diagrams, steps, functor="G", field=None):
        from .algebra import GF2
        if list(grades) != sorted(set(grades)):
            raise MorphismError("grades must be strictly increasing")
        if len(diagrams) != len(grades):
            raise MorphismError("one diagram per grade required")
        if len(steps) != max(len(grades) - 1, 0):
            raise MorphismError("one step per consecutive grade pair")
        self.grades = list(grades)
        self.diagrams = list(diagrams)
        self.steps = list(steps)
        self.functor = functor
        self.field = GF2 if field is None else field
        self._runs = None

    def _chain_map(self, i, src, dst):
        from .diagram import apply_planar
        step = self.steps[i]
        kind = step["kind"]
        try:
            if kind == "identity":
                return build_psi(src, dst,
                                 ClosureMorphismSpec.identity(src.diagram))
            if kind == "closure":
                if "spec" in step:
                    return build_psi(src, dst, step["spec"])
                try:
                    target, spec = apply_planar(step["op"], src.diagram)
                except ValueError as e:   # the operator is not valid here
                    raise MorphismError(str(e)) from e
                if target != dst.diagram:
                    raise MorphismError(
                        "closure result does not match next diagram")
                return build_psi(src, dst, spec)
            if kind == "cap":
                return cap_map(src, dst=dst)
            if kind == "cup":
                return cup_map(src, step.get("site", -1), dst=dst)
            if kind == "saddle":
                site = (tuple(step["site"]["from"][0]),
                        tuple(step["site"]["from"][1]))
                return saddle_map(src, dst, site)
        except MorphismError as e:
            raise MorphismError(f"step {i}: {e}") from e
        raise MorphismError(f"step {i}: unknown step kind {kind!r}")

    def runs(self):
        if self._runs is not None:
            return self._runs
        from .complex import homology
        # a grade whose diagram equals an earlier one reuses its results
        built = {}
        for d in self.diagrams:
            if d not in built:
                c = build_complex(d, functor=self.functor, field=self.field)
                built[d] = (c, homology(c))
        complexes = [built[d][0] for d in self.diagrams]
        homologies = [built[d][1] for d in self.diagrams]
        runs = []
        start = 0
        maps = []
        for i, step in enumerate(self.steps):
            if step["kind"] == "break":
                runs.append(FiltrationRun(self.grades[start:i + 1],
                                          complexes[start:i + 1],
                                          maps, homologies[start:i + 1]))
                start = i + 1
                maps = []
            else:
                maps.append(self._chain_map(i, complexes[i],
                                            complexes[i + 1]))
        runs.append(FiltrationRun(self.grades[start:],
                                  complexes[start:],
                                  maps, homologies[start:]))
        self._runs = runs
        return runs

    def barcode_report(self):
        """JSON-ready rows: one per bar, per run, per degree."""
        rows = []
        for run_idx, run in enumerate(self.runs()):
            for p, bars in sorted(run.barcodes().items()):
                for bar in bars:
                    birth = run.grades[bar.birth]
                    death = (None if bar.death is None
                             else run.grades[bar.death])
                    rows.append({
                        "run": run_idx,
                        "p": p,
                        "birth": birth,
                        "death": death,
                        "multiplicity": bar.multiplicity,
                        "q_shift_at_birth": run.q_shift_between(0, bar.birth),
                    })
        return rows
