"""Chain maps along filtrations of tangles and persistent homology.

Closure morphisms (from 1-input planar operations) induce the monomial
chain map: arcs that stay arcs keep w, circles keep their label, arcs
that close up send w to v-, and every brand-new circle is filled with v+.
Cap, cup, and saddle generator maps are provided for the link case.
Every such map sends the generators over a state to those over the same
state of the target, so it is stored as one ``cube.saddle``-style record
per state, read off the complexes' component arrays, and applied on
demand, as the differential is.

``Filtration.runs`` ranks two kinds of run by ``local.ranks``, with no
cube: runs of identity, cap, cup and closure steps that leave D° (the
diagram without its portless arcs and free circles) in place, and runs of
two grades joined by one saddle.  Every other run goes to the cube, which
builds and reduces each distinct core once, with representatives only
where a chain map reads them, and gives each grade a view of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from . import linalg
from .algebra import GF2, LaurentPolynomial
from .complex import (BigradedHomology, GradedChainComplex, build_complex,
                      check_cube)
from .cube import bystanders, circle_bit, saddle, state_bits
from .diagram import Crossing, TangleDiagram, apply_planar, validate
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
    the same state of ``dst``.  ``parts[state]``, by state number, is an
    ``(images, active, terms)`` record as ``cube.saddle`` gives it: source
    mask m goes to the target masks by[m] | t, t in terms[m & active], by =
    ``bit_table(images)``, each with coefficient 1."""

    src: GradedChainComplex
    dst: GradedChainComplex
    parts: list      # state -> (images, active, terms)
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
    parts = []
    q_shift = None

    for state, (comp_s, comp_t, (r_s, t_s), (r_t, t_t)) in enumerate(
            zip(src.comps, dst.comps, src.rt, dst.rt)):
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
                f"components merge in state {state_bits(state, ds.n)}: "
                "no chain map exists")
        for i, j in mapping:
            if i >= t_s and j < t_t:
                raise MorphismError("circle maps to arc in state "
                                    f"{state_bits(state, ds.n)}")

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
        parts.append((tuple(bit_images), 0, {0: (closed,)}))

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
    parts = [(tuple(1 << k for k in range(r)), 0, {0: (0,)})
             for r, _ in c.rt]
    return ChainMap(src=c, dst=dst, parts=parts, q_shift=0)


def cap_map(c: GradedChainComplex, dst=None):
    """x -> x (x) v+ into the complex of the diagram plus one circle.

    ``dst`` is that complex, when the caller has already built it."""
    if c.diagram.boundary:
        raise MorphismError("cap map is defined in link mode only")
    d2 = c.diagram.with_circles(c.diagram.free_circles + 1)
    dst = _target(c, d2, dst, "cap")
    # the new circle comes last: the lowest bit, labelled v+
    parts = [(tuple(2 << k for k in range(r)), 0, {0: (0,)})
             for r, _ in c.rt]
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
    parts = [(tuple([1 << k for k in range(b)] + [0]
                    + [1 << k for k in range(b, r - 1)]),
              1 << b, {0: (), 1 << b: (0,)}) for r, _ in c.rt]
    return ChainMap(src=c, dst=dst, parts=parts, q_shift=1)


def saddle_cone(d: TangleDiagram, site):
    """(D̃, D1) for ``site`` ((a, b), (c, d)): D1 is ``d`` with (a,c) and
    (b,d) in place of the connections (a,b) and (c,d), and D̃ is ``d``
    with a crossing put at the site, its ports wired to (a, c, d, b) or,
    mirrored, to (b, d, c, a), whichever lies in the plane.  Either way
    its 0-smoothing is ``d`` and its 1-smoothing D1.  MorphismError when
    neither does: then no crossing fits the site, and the re-pairing is
    not a local saddle."""
    (a, b), (cc, dd) = site
    cut = {frozenset(pair) for pair in site}
    for pair in site:
        if frozenset(pair) not in set(map(frozenset, d.connections)):
            raise MorphismError(f"site pair {pair} is not a connection")
    rest = [p for p in d.connections if frozenset(p) not in cut]
    k = max((c.id for c in d.crossings), default=-1) + 1
    x = Crossing(id=k, ports=tuple(("cone", k, j) for j in range(4)), sign=1)
    for ends in ((a, cc, dd, b), (b, dd, cc, a)):
        tilde = TangleDiagram(d.boundary, d.crossings + (x,),
                              rest + list(zip(ends, x.ports)), d.free_circles)
        if validate(tilde):
            return tilde, TangleDiagram(d.boundary, d.crossings, rest + [
                (a, cc), (b, dd)], d.free_circles)
    raise MorphismError(f"no crossing fits the site {site} in the plane: "
                        "the re-pairing is not a local saddle")


def saddle_target_diagram(d: TangleDiagram, site):
    """The diagram after re-pairing the four strand nodes of ``site``,
    D1 of ``saddle_cone``: a site where no crossing fits is refused."""
    return saddle_cone(d, site)[1]


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
    parts = [saddle((src.comps[s], src.rt[s][0]),
                    (dst.comps[s], dst.rt[s][0]), t, ports)[1:]
             for s in range(len(src.layout))]
    return ChainMap(src=src, dst=dst, parts=parts, q_shift=-1)


# -- induced maps on homology and the rank invariant ---------------------


def rep_order(h: BigradedHomology, p):
    """Deterministic ordering of homology representatives at degree p."""
    return [(q, j) for (pp, q), r in sorted(h.ranks.items()) if pp == p
            for j in range(r)]


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
    """A maximal stretch of a filtration with composable chain maps.

    A run answered without its cube (``_local_run``) has none: there
    ``image(a, b, p)`` gives ``persistent_betti`` for a < b."""

    def __init__(self, grades, complexes, chain_maps, homologies,
                 q_shifts=None, image=None):
        self.grades = list(grades)
        self.complexes = list(complexes)
        self.chain_maps = list(chain_maps)
        self.homologies = list(homologies)
        self.q_shifts = [f.q_shift for f in self.chain_maps] \
            if q_shifts is None else q_shifts
        self._image = image or self._composite_image
        self._induced, self._composites = {}, {}

    @property
    def size(self):
        return len(self.complexes)

    def degrees(self):
        return sorted({p for h in self.homologies for p in h.degrees})

    def induced(self, i, p):
        if i not in self._induced:
            self._induced[i] = induced_on_homology(
                self.chain_maps[i], self.homologies[i], self.homologies[i + 1])
        return self._induced[i].get(p, [])

    def _composite(self, a, b, p):
        """The matrix of H^p(a) -> H^p(b), a < b, composed from the one
        into b - 1."""
        key = (a, b, p)
        if key not in self._composites:
            step = self.induced(b - 1, p)
            self._composites[key] = [dict(c) for c in step] if b == a + 1 \
                else linalg.matmul(step, self._composite(a, b - 1, p),
                                   self.complexes[0].field)
        return self._composites[key]

    def rank_table(self, p) -> RankTable:
        dims = [h.total_rank(p) for h in self.homologies]
        r = {(i, j): sum(self.persistent_betti(i, j, p).coeffs.values())
             for i in range(self.size) for j in range(i, self.size)}
        return RankTable(p=p, size=self.size, dims=dims, r=r)

    def q_shift_between(self, a, b):
        return sum(self.q_shifts[a:b])

    def persistent_betti(self, a, b, p) -> LaurentPolynomial:
        """Graded rank of im(H^p(a) -> H^p(b)) in target quantum degrees."""
        if not 0 <= a <= b < self.size:
            raise ValueError(f"need 0 <= a <= b < {self.size}: {a}, {b}")
        if a == b:
            return betti_polynomial(self.homologies[a], p)
        return self._image(a, b, p)

    def _composite_image(self, a, b, p):
        by_q, shift = {}, self.q_shift_between(a, b)
        for (q, _), col in zip(rep_order(self.homologies[a], p),
                               self._composite(a, b, p)):
            by_q.setdefault(q + shift, []).append(col)
        return LaurentPolynomial({q: linalg.rank(cols, self.complexes[0].field)
                                  for q, cols in by_q.items()})

    def barcodes(self):
        """Per homological degree: the interval decomposition."""
        return {p: barcode_from_ranks(self.rank_table(p))
                for p in self.degrees()}


def _local_run(grades, diagrams, ranks, field, q_shifts, image):
    """A run answered without its cube: each grade keeps its diagram, as
    a stand-in for its complex, and its ranks {(p, q): rank}."""
    return FiltrationRun(
        grades, [SimpleNamespace(diagram=d) for d in diagrams], [],
        [BigradedHomology(field, d.n_plus, d.n_minus, dict(r), {})
         for d, r in zip(diagrams, ranks)], q_shifts, image)


def _split(d: TangleDiagram):
    """(D°, W): ``d`` without its portless arcs and free circles, and
    those alone.  No saddle touches W, so C(d) = C(D°) ⊗ C(W)."""
    arcs = set(d.portless_arcs())
    ends = {x for p in arcs for x in p}
    return (TangleDiagram([x for x in d.boundary if x not in ends],
                          d.crossings, set(d.connections) - arcs),
            TangleDiagram([x for x in d.boundary if x in ends], (), arcs,
                          d.free_circles))


def _core_key(d: TangleDiagram):
    """D° up to the names of its boundary points: the crossings and the
    ports of each connection."""
    return d.crossings, frozenset(
        frozenset(filter(d.is_port, p)) for p in d.connections) - {frozenset()}


def _site(step):
    return tuple(tuple(pair) for pair in step["site"]["from"])


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

    def _chain_map(self, i, step, src, dst):
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
                return saddle_map(src, dst, _site(step))
        except MorphismError as e:
            raise MorphismError(f"step {i}: {e}") from e
        raise MorphismError(f"step {i}: unknown step kind {kind!r}")

    def runs(self):
        """The runs between breaks, each answered without its cube where
        it can be (see the module docstring)."""
        if self._runs is not None:
            return self._runs
        # looked up per call: the benchmark tracer (bench/spans.py) wraps
        # complex.homology in place, and a module-level name would miss it
        from .complex import homology
        cuts = [i + 1 for i, s in enumerate(self.steps)
                if s["kind"] == "break"]
        spans = list(zip([0] + cuts, cuts + [len(self.diagrams)]))
        local = {a: self._local(a, b) for a, b in spans}
        on_cube = [self.diagrams[a:b] for a, b in spans if not local[a]]
        sized = {d for ds in on_cube for d in ds}
        # every diagram is checked before any cube is built
        for d in dict.fromkeys(self.diagrams):
            check_cube(d, states=d in sized)
        # chain maps read the representatives of these cores, and of the
        # crossingless cubes of W, where they cost nothing
        read = {d.with_circles(0) for ds in on_cube if len(ds) > 1 for d in ds}
        built = {}

        def grade(d):
            """(complex, homology) of ``d``; its core is built and reduced
            once."""
            core = d.with_circles(0)
            if core not in built:
                c = build_complex(core, field=self.field)
                built[core] = (c, homology(c, representatives=core in read
                                           or not core.n))
            if d not in built:
                c, h = built[core]
                view = c.with_circles(d)
                built[d] = (view, h.tensor(view))
            return built[d]

        self._runs = [local[a](grade) if local[a] else self._on_cube(
            a, list(map(grade, self.diagrams[a:b])), self.steps[a:b - 1])
            for a, b in spans]
        return self._runs

    def _on_cube(self, a, grades, steps):
        """The run from grade a over the (complex, homology) ``grades``."""
        cs = [c for c, _ in grades]
        maps = [self._chain_map(i, step, cs[k], cs[k + 1])
                for k, (i, step) in enumerate(enumerate(steps, a))]
        return FiltrationRun(self.grades[a:a + len(cs)], cs, maps,
                             [h for _, h in grades])

    def _local(self, a, b):
        """Run a..b as a function of the cube builder ``grade`` when it
        needs no cube of its diagrams, else None."""
        if b - a == 2 and self.steps[a]["kind"] == "saddle":
            return lambda grade: self._saddle_run(a)
        on_w = [self._on_w(i) for i in range(a, b - 1)]
        if b - a > 1 and all(on_w):
            return lambda grade: self._tensor_run(a, on_w, grade)
        return None

    def _on_w(self, i):
        """Step i as a step of W when it is the identity on D°, and so
        acts on W alone; else false, and the cube says why a step with no
        chain map fails."""
        step, d, e = self.steps[i], self.diagrams[i], self.diagrams[i + 1]
        kind, k = step["kind"], d.free_circles
        if _core_key(d) != _core_key(e):
            return None
        if kind == "closure":
            try:
                spec = step.get("spec") or apply_planar(step["op"], d)[1]
            except ValueError:
                return None
            return (spec.source, spec.target) == (d, e) and {
                "kind": kind, "spec": ClosureMorphismSpec(
                    _split(d)[1], _split(e)[1], spec.arc_images,
                    spec.circle_images)}
        return e == {"identity": d, "cup": k and d.with_circles(k - 1),
                     "cap": not d.boundary and d.with_circles(k + 1)
                     }.get(kind) and step

    def _tensor_run(self, a, steps, grade):
        """Steps that act on W alone: H(d) = H(D°) ⊗ W, each map is
        id ⊗ g, and the run of W's own cubes composes the g's."""
        from .local import ranks
        ds = self.diagrams[a:a + len(steps) + 1]
        w = self._on_cube(a, [grade(_split(d)[1]) for d in ds], steps)
        core = ranks(_split(ds[0])[0], self.field)
        betti = {p: LaurentPolynomial({q: r for (pp, q), r in core.items()
                                       if pp == p}) for p, _ in core}
        full = [{(p, q): r for p, b in betti.items() for q, r in
                 (b * betti_polynomial(h, 0)).coeffs.items()}
                for h in w.homologies]
        return _local_run(w.grades, ds, full, self.field, w.q_shifts,
                          lambda i, j, p: betti.get(p, LaurentPolynomial())
                          * w.persistent_betti(i, j, 0))

    def _saddle_run(self, i):
        """Grades i, i + 1 joined by a saddle, from the long exact sequence
        of its cone D̃: 0 -> [[D1]][-1]{1} -> [[D̃]] -> [[D0]] -> 0 is exact,
        brackets unnormalized, and its connecting map is the saddle.  So
        the rank r(l, j) of H^l[[D0]]_j -> H^l[[D1]]_{j-1} has r(l, j) +
        r(l+1, j) = dim H^l[[D1]]_{j-1} + dim H^{l+1}[[D0]]_j
        - dim H^{l+1}[[D̃]]_j, solved from the top degree down."""
        from .local import ranks
        d0, d1 = self.diagrams[i:i + 2]
        try:
            tilde, target = saddle_cone(d0, _site(self.steps[i]))
            if target != d1:
                raise MorphismError(
                    "diagrams do not differ by the given site re-pairing")
        except MorphismError as e:
            raise MorphismError(f"step {i}: {e}") from e
        ds = (d0, d1, tilde)
        hs = [ranks(d, self.field) for d in ds]
        h0, h1, ht = ({(p + d.n_minus, q - d.n_plus + 2 * d.n_minus): r
                       for (p, q), r in h.items()} for d, h in zip(ds, hs))
        image = {}   # p -> {target q: rank}
        for j in {j for _, j in h0}:
            r = 0
            for lv in range(d0.n, -1, -1):
                r = (h1.get((lv, j - 1), 0) + h0.get((lv + 1, j), 0)
                     - ht.get((lv + 1, j), 0) - r)
                image.setdefault(lv - d0.n_minus, {})[
                    j + d0.n_plus - 2 * d0.n_minus - 1] = r
        return _local_run(self.grades[i:i + 2], [d0, d1], hs[:2], self.field,
                          [-1], lambda a, b, p: LaurentPolynomial(
                              image.get(p, {})))

    def barcode_report(self):
        """JSON-ready rows: one per bar, per run, per degree."""
        rows = []
        for run_idx, run in enumerate(self.runs()):
            for p, bars in sorted(run.barcodes().items()):
                rows += [{"run": run_idx, "p": p,
                          "birth": run.grades[bar.birth],
                          "death": None if bar.death is None
                          else run.grades[bar.death],
                          "multiplicity": bar.multiplicity,
                          "q_shift_at_birth": run.q_shift_between(
                              0, bar.birth)} for bar in bars]
        return rows
