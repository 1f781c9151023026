"""Chain maps along filtrations of tangles and persistent homology.

Closure morphisms (from 1-input planar operations) induce the monomial
chain map: arcs that stay arcs keep w, circles keep their label, arcs
that close up send w to v-, and every brand-new circle is filled with v+.
Cap, cup, and saddle generator maps are provided for the link case.
Every such map sends the generators over a state to those over the same
state of the target, so it is stored as one ``cube.saddle``-style record
per state, read off the complexes' component arrays, and applied on
demand, as the differential is.  ``Filtration.runs`` builds and reduces
each distinct core once and gives each grade a view of it (``complex``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GF2, LaurentPolynomial
from .complex import (BigradedHomology, GradedChainComplex, build_complex,
                      check_cube)
from .cube import bystanders, circle_bit, saddle
from .diagram import TangleDiagram, apply_planar
from .invariants import betti_polynomial


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
        bound = {"arc": len(t.portless_arcs()), "circle": t.free_circles}
        images = list(self.arc_images)
        images += [("circle", i) for i in self.circle_images]
        for img in images:
            kind, i = (img if isinstance(img, tuple) and len(img) == 2
                       else (None, None))
            if kind == "port":
                raise MorphismError(
                    f"source arc merges into strand at {i}: "
                    "no induced chain map is defined")
            if kind not in ("arc", "circle") or isinstance(i, bool) \
                    or not isinstance(i, int):
                raise MorphismError(
                    f"image {img!r} is not (\"arc\" or \"circle\", integer)")
            if not 0 <= i < bound[kind]:
                raise MorphismError(f"{kind} index {i} out of range")
        if len(set(images)) != len(images):
            raise MorphismError(
                "two source components share an image: merge cobordisms "
                "carry no induced chain map")


@dataclass
class ChainMap:
    """A chain map sending the generators over each state to those over
    the same state of ``dst``.  ``parts[state]`` is an ``(images, active,
    terms)`` record as ``cube.saddle`` gives it: source mask m goes to the
    target masks by[m] | t, t in terms[m & active], by =
    ``bit_table(images)``, each with coefficient 1."""

    src: GradedChainComplex
    dst: GradedChainComplex
    parts: dict      # state -> (images, active, terms)
    q_shift: int

    def _column(self, state, m):
        images, active, terms = self.parts[state]
        b = self.dst.layout[state][1] + bystanders(images)[m]
        one = self.src.field.one
        return {b + t: one for t in terms[m & active]}   # b | t == b + t

    def apply(self, p, vec):
        """The image of the chain vector ``vec`` {index: coefficient} of
        degree p, summed in the field."""
        out = {}
        for i, x in vec.items():
            linalg.add_into(out, self._column(*self.src.locate(p, i)), x,
                            self.src.field)
        return out


def verify_chain_map(f: ChainMap):
    """Check d_dst . f = f . d_src degreewise; returns (ok, witness)."""
    fld = f.src.field
    for p in f.src.degrees:
        d_dst = list(f.dst.differentials.get(p, ()))
        for i, d_col in enumerate(f.src.differentials[p]):
            if f.apply(p + 1, d_col) != linalg.matvec(
                    d_dst, f.apply(p, {i: fld.one}), fld):
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
    if spec.source != src.diagram or spec.target != dst.diagram:
        raise MorphismError("spec does not match the given complexes")
    spec.validate()

    ds, dt = spec.source, spec.target
    nb_s, nb_t = len(ds.boundary), len(dt.boundary)
    arcs_s = _portless_ranks(ds)
    arcs_t = _portless_ranks(dt)
    parts = {}
    q_shift = None

    for state in src.layout:
        comp_s, comp_t = src.comps[state], dst.comps[state]
        (r_s, t_s), (r_t, t_t) = src.rt[state], dst.rt[state]
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
        parts[state] = (tuple(bit_images), 0, {0: (closed,)})

    return ChainMap(src=src, dst=dst, parts=parts,
                    q_shift=0 if q_shift is None else q_shift)


def _portless_ranks(d: TangleDiagram):
    """The rank of one endpoint of each portless arc, in canonical arc
    order."""
    rank = d.wiring()[1]
    return [rank[a] for a, _ in d.portless_arcs()]


# -- cobordism generator maps (link mode) --------------------------------


def _target(c: GradedChainComplex, d2: TangleDiagram, dst, kind):
    """``dst`` if it is the complex of ``d2`` over c's field; built afresh
    when None."""
    if dst is None:
        return build_complex(d2, field=c.field)
    if dst.diagram != d2 or dst.field != c.field:
        raise MorphismError(f"{kind} target mismatch")
    return dst


def identity_map(c: GradedChainComplex, dst=None):
    """The identity of ``c``, into ``dst`` (another complex of c) if given."""
    dst = _target(c, c.diagram, c if dst is None else dst, "identity")
    parts = {state: (tuple(1 << k for k in range(r)), 0, {0: (0,)})
             for state, (r, _) in c.rt.items()}
    return ChainMap(src=c, dst=dst, parts=parts, q_shift=0)


def cap_map(c: GradedChainComplex, dst=None):
    """x -> x (x) v+ into the complex of the diagram plus one circle.

    ``dst`` is that complex, when the caller has already built it."""
    if c.diagram.boundary:
        raise MorphismError("cap map is defined in link mode only")
    d2 = c.diagram.with_circles(c.diagram.free_circles + 1)
    dst = _target(c, d2, dst, "cap")
    # the new circle comes last: the lowest bit, labelled v+
    parts = {state: (tuple(2 << k for k in range(r)), 0, {0: (0,)})
             for state, (r, _) in c.rt.items()}
    return ChainMap(src=c, dst=dst, parts=parts, q_shift=1)


def cup_map(c: GradedChainComplex, circle_index=-1, dst=None):
    """x (x) v+ -> 0, x (x) v- -> x, deleting one crossing-free circle.

    ``dst`` is the complex without that circle, when already built."""
    free = c.diagram.free_circles
    if free < 1:
        raise MorphismError("cup map needs a crossing-free circle")
    if not -free <= circle_index < free:
        raise MorphismError(f"free circle index {circle_index} out of range")
    circle_index %= free
    dst = _target(c, c.diagram.with_circles(free - 1), dst, "cup")
    # free circles are the lowest bits, the first one highest among them
    b = free - 1 - circle_index
    parts = {state: (tuple([1 << k for k in range(b)] + [0]
                           + [1 << k for k in range(b, r - 1)]),
                     1 << b, {0: (), 1 << b: (0,)})
             for state, (r, _) in c.rt.items()}
    return ChainMap(src=c, dst=dst, parts=parts, q_shift=1)


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


def saddle_map(src: GradedChainComplex, dst: GradedChainComplex,
               site) -> ChainMap:
    """The chain map of a saddle cobordism between ``src`` and ``dst``:
    the local merge or split at the site, in every state."""
    (a, b), (cc, dd) = site
    if saddle_target_diagram(src.diagram, site) != dst.diagram:
        raise MorphismError(
            "diagrams do not differ by the given site re-pairing")
    # the target has the same nodes; the source joins a-b and cc-dd like
    # the 0-smoothing of ports (a, cc, dd, b), the target a-cc and b-dd
    # like their 1-smoothing
    rank = src.diagram.wiring()[1]
    ports = tuple(rank[x] for x in (a, cc, dd, b))
    t = len(src.diagram.boundary) // 2
    parts = {state: saddle((src.comps[state], src.rt[state][0]),
                           (dst.comps[state], dst.rt[state][0]), t, ports)[1:]
             for state in src.layout}
    return ChainMap(src=src, dst=dst, parts=parts, q_shift=-1)


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
    block (p, q + q_shift), where ``h_dst.classes`` solves it.
    """
    out = {}
    for p in sorted(set(h_src.degrees) | set(h_dst.degrees)):
        row_of = {qj: k for k, qj in enumerate(rep_order(h_dst, p))}
        cols = []
        for (q, j) in rep_order(h_src, p):
            t = q + f.q_shift
            fz = f.apply(p, h_src.representatives[(p, q)][j])
            try:
                coords = h_dst.classes(p, t, fz)
            except ValueError as e:
                raise MorphismError(f"the image of a cocycle is {e}") from e
            cols.append({row_of[(t, k)]: x for k, x in coords.items()})
        out[p] = cols
    return out


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

    def _composites(self, i, p):
        """``(j, matrix of H^p(i) -> H^p(j))`` for j = i + 1, i + 2, ...,
        each composed from the one before."""
        comp = None
        for j in range(i, self.size - 1):
            step = self.induced(j, p)
            comp = [dict(c) for c in step] if comp is None \
                else linalg.matmul(step, comp, self.complexes[0].field)
            yield j + 1, comp

    def rank_table(self, p) -> RankTable:
        field = self.complexes[0].field
        dims = [len(rep_order(h, p)) for h in self.homologies]
        r = {}
        for i in range(self.size):
            r[(i, i)] = dims[i]
            for j, comp in self._composites(i, p):
                r[(i, j)] = linalg.rank(comp, field)
        return RankTable(p=p, size=self.size, dims=dims, r=r)

    def q_shift_between(self, a, b):
        return sum(self.chain_maps[i].q_shift for i in range(a, b))

    def persistent_betti(self, a, b, p) -> LaurentPolynomial:
        """Graded rank of im(H^p(a) -> H^p(b)) in target quantum degrees."""
        if not 0 <= a <= b < self.size:
            raise ValueError(f"need 0 <= a <= b < {self.size}: {a}, {b}")
        if a == b:
            return betti_polynomial(self.homologies[a], p)
        field = self.complexes[0].field
        order = rep_order(self.homologies[a], p)
        comp = next(m for j, m in self._composites(a, p) if j == b)
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

    def __init__(self, grades, diagrams, steps, field=None):
        if list(grades) != sorted(set(grades)):
            raise MorphismError("grades must be strictly increasing")
        if len(diagrams) != len(grades):
            raise MorphismError("one diagram per grade required")
        if len(steps) != max(len(grades) - 1, 0):
            raise MorphismError("one step per consecutive grade pair")
        self.grades = list(grades)
        self.diagrams = list(diagrams)
        self.steps = list(steps)
        self.field = GF2 if field is None else field
        self._runs = None

    def _chain_map(self, i, src, dst):
        step = self.steps[i]
        kind = step["kind"]
        try:
            if kind == "identity":
                return identity_map(src, dst)
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
        # looked up per call: the benchmark tracer (bench/spans.py) wraps
        # complex.homology in place, and a module-level name would miss it
        from .complex import homology
        # every diagram is checked before any cube is built; each distinct
        # core is built and reduced once, and each other grade gets a view
        for d in dict.fromkeys(self.diagrams):
            check_cube(d)
        built = {}
        for d in self.diagrams:
            core = d.with_circles(0)
            if core not in built:
                c = build_complex(core, field=self.field)
                built[core] = (c, homology(c))
            if d not in built:
                c, h = built[core]
                view = c.with_circles(d)
                built[d] = (view, h.tensor(view))
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
