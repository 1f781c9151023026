"""Khovanov ranks of a tangle diagram by Bar-Natan's local algorithm.

Bar-Natan, "Fast Khovanov homology computations" (arXiv math/0606318),
in the category of dotted cobordisms of arXiv math/0410495 with t = 0,
which gives Khovanov's theory.  Crossings are added one at a time; after
each one every closed loop is delooped and every isomorphism cancelled by
Gaussian elimination, so the 2^n cube is never built.  The complex left
after the last crossing lives over the diagram's own boundary points
(none on a closed diagram), and functor G turns it into one of vector
spaces, ranked per block by ``linalg``.

G gives each crossingless matching one generator, w on every arc, and
kills a dot on an arc and an arc-arc reconnection (``algebra.SADDLE``),
as the cube does.  So G sends a normal-form morphism A -> B to its
undotted coefficient when A = B, and to 0 otherwise: applying G to the
final complex keeps exactly the undotted entries between equal matchings.
Delooping is an isomorphism, Gaussian elimination a homotopy
equivalence and G a functor, so G of the complex at any stage, the last
one left uneliminated, has the ranks of G of the whole cube: the cube
``complex.build_complex`` builds.  Each arc shifts q by -1 there, so q
is shifted by -t for the t boundary arcs, portless ones included.

A *point* is a connection of the diagram, numbered by its place in
``d.connections``.  Once some crossings are added, the boundary is the set
of points with exactly one end at an added crossing, together with the
points wired to the disk boundary, which never close.  An *object* is
(degree, matching, q): degree counts the 1-smoothings so far, matching is
a crossingless matching of the boundary as a sorted tuple of sorted point
pairs, and q is the quantum shift.  Hom(A, B) has the basis of Bar-Natan's
normal form: one disk on each cycle of A ∪ B, dotted or not.  A cycle is
the bit ``1 << p`` of its smallest point p, a basis element the mask of
its dotted cycles, and a morphism a dict {mask: coefficient} over the
field, so every result stays exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import linalg
from .complex import check_cube
from .diagram import TangleDiagram

# ACROSS[s][i] is the port at the other end of port i's arc in smoothing s,
# as in ``diagram.walk``: s = 0 joins ports 0-3 and 1-2, s = 1 0-1 and 2-3.
ACROSS = ((3, 2, 1, 0), (1, 0, 3, 2))
SADDLE = 2   # the kind of the saddle s0 -> s1; kinds 0 and 1 are identities


def _pairs(m):
    """{point: partner} of the matching ``m``."""
    out = {}
    for a, b in m:
        out[a] = b
        out[b] = a
    return out


def _cycles(x, y):
    """{point: smallest point of its cycle} over the cycles of x ∪ y."""
    px, py = _pairs(x), _pairs(y)
    cyc = {}
    for p in sorted(px):
        if p in cyc:
            continue
        z = p
        while True:
            w = px[z]
            cyc[z] = cyc[w] = p
            z = py[w]
            if z == p:
                break
    return cyc


def _glue(pieces, glues, circles):
    """The connected components of a surface glued from disks.

    ``pieces`` are the disks' ids, ``glues`` the intervals glued as pairs
    of pieces, and ``circles`` the surface's boundary circles as (a piece
    it runs along, its bit).  Returns one (mask of its pieces, genus, bits
    of its circles, their union) per component, where χ = pieces -
    intervals and 2 - 2g = χ + circles.
    """
    parent = {p: p for p in pieces}

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for a, b in glues:
        parent[find(a)] = find(b)
    comps = {}
    for p in pieces:
        c = comps.setdefault(find(p), [0, 0, []])
        c[0] |= p if p > 0 else 0    # crossing pieces carry no dots
        c[1] += 1
    for a, _ in glues:
        comps[find(a)][1] -= 1
    for p, bit in circles:
        comps[find(p)][2].append(bit)
    out = []
    for mask, chi, bits in comps.values():
        genus, odd = divmod(2 - chi - len(bits), 2)
        if odd or genus < 0:   # as the cube, a non-planar wiring fails
            raise ValueError("a glued surface is not orientable")
        out.append((mask, genus, tuple(bits), sum(bits)))   # distinct bits
    return out


def _evaluate(comps, dots):
    """The normal form {mask of dotted circles: integer} of the surface of
    ``comps`` with the pieces of ``dots`` dotted.  A component of genus g
    with d dots is 0 when g + d >= 2; 2^g times all its circles dotted
    when g + d = 1 (a closed one is the scalar 2^g); the sum over its
    circles i of all circles but i dotted when g + d = 0 (a sphere is 0)."""
    terms = {0: 1}
    for mask, genus, bits, whole in comps:
        n = (dots & mask).bit_count() + genus
        if n >= 2 or n == 0 and not bits:
            return {}
        if n == 1:
            k = 2 ** genus
            terms = {m | whole: c * k for m, c in terms.items()}
        else:
            terms = {m | (whole ^ b): c for m, c in terms.items()
                     for b in bits}
    return terms


def _order(ports, partner, owner):
    """Crossing indices in the order they are added: each next one has the
    most connections to those already added, the lowest index on ties."""
    links = [0] * len(ports)
    added = []
    for _ in ports:
        c = max((i for i in range(len(ports)) if links[i] >= 0),
                key=lambda i: (links[i], -i))
        added.append(c)
        links[c] = -1
        for x in ports[c]:
            j = owner.get(partner[x], c)   # the disk boundary adds no link
            if links[j] >= 0:
                links[j] += 1
    return added


class _Step:
    """Adding one crossing: the smoothings of each boundary matching and
    the gluing of each morphism to a piece over the crossing."""

    def __init__(self, pts, role, n):
        self.pts = pts     # port -> point
        self.role = role   # port -> "old", "kink" (joined to another port of
        self.n = n         # this crossing) or "new"; n = number of points
        self.port_of = {p: i for i, p in enumerate(pts) if role[i] != "new"}
        self.new = {p: i for i, p in enumerate(pts) if role[i] == "new"}
        self.kinks = [(i, j) for i in range(4) for j in range(i + 1, 4)
                      if role[i] == "kink" and pts[i] == pts[j]]
        self._smooth = {}
        self._shape = {}

    def smooth(self, m, s):
        """(matching, loops) of the old matching ``m`` glued to smoothing
        ``s``: each closed loop is named by its smallest port."""
        key = (m, s)
        if key in self._smooth:
            return self._smooth[key]
        pts, port_of = self.pts, self.port_of
        mp = _pairs(m)
        ext = []   # port -> the port its path runs on to, or ~point at an end
        for i, r in enumerate(self.role):
            if r == "new":
                ext.append(~pts[i])
            elif r == "kink":
                ext.append(next(j for j in range(4)
                                if j != i and pts[j] == pts[i]))
            else:
                q = mp[pts[i]]
                ext.append(port_of[q] if q in port_of else ~q)
        across = ACROSS[s]
        arcs = [(a, b) for a, b in m if a not in port_of and b not in port_of]
        seen = [False] * 4
        for i in range(4):
            if seen[i] or ext[i] >= 0:
                continue
            j = i
            while True:
                k = across[j]
                seen[j] = seen[k] = True
                if ext[k] < 0:
                    break
                j = ext[k]
            a, b = ~ext[i], ~ext[k]
            arcs.append((a, b) if a < b else (b, a))
        loops = []
        for i in range(4):
            j = i
            if not seen[i]:
                loops.append(i)
            while not seen[j]:
                k = across[j]
                seen[j] = seen[k] = True
                j = ext[k]
        out = self._smooth[key] = (tuple(sorted(arcs)), tuple(loops))
        return out

    def shape(self, x, y, kind):
        """The gluing of a morphism x -> y to the identity of smoothing
        ``kind`` or to the saddle: (components, a memo for ``_evaluate``,
        numbers of source and target loops).  Circles of the new matchings
        get the bits of their smallest points; source loop j gets bit
        n + j and target loop j bit n + 2 + j (a crossing closes at most
        two)."""
        key = (x, y, kind)
        if key in self._shape:
            return self._shape[key]
        src, tgt = (0, 1) if kind == SADDLE else (kind, kind)
        # the crossing's pieces: the saddle, or one strip per arc
        piece = ((-1,) * 4 if kind == SADDLE else
                 [-1 - min(i, j) for i, j in enumerate(ACROSS[kind])])
        fc = _cycles(x, y)
        pieces = {1 << p for p in fc.values()} | set(piece)
        glues = [(1 << fc[self.pts[i]], piece[i])
                 for i, r in enumerate(self.role) if r == "old"]
        glues += [(piece[i], piece[j]) for i, j in self.kinks]
        (x2, xl), (y2, yl) = self.smooth(x, src), self.smooth(y, tgt)
        new = self.new
        circles = [(piece[new[p]] if p in new else 1 << fc[p], 1 << p)
                   for p, c in _cycles(x2, y2).items() if p == c]
        circles += [(piece[r], 1 << (self.n + j)) for j, r in enumerate(xl)]
        circles += [(piece[r], 1 << (self.n + 2 + j))
                    for j, r in enumerate(yl)]
        out = self._shape[key] = (_glue(pieces, glues, circles), {},
                                  len(xl), len(yl))
        return out


class _Complex:
    """A complex of delooped objects over the current boundary, with its
    differential as ``out[a][b]`` (a morphism a -> b) and ``inc[b]`` the
    set of sources a."""

    def __init__(self, field, n):
        # Coefficients: ints mod p over F_p; over Q ints where integral and
        # Fractions elsewhere.  Sums stay raw until ``norm``, once a morphism.
        p = field.char
        self.norm = ((lambda x: x % p) if p else
                     (lambda x: x.numerator if x.denominator == 1 else x))
        self.inv = ((lambda a: pow(a, -1, p)) if p else
                    (lambda a: self.norm(Fraction(1) / a)))
        self.n = n
        self.objs = {0: (0, (), 0)}
        self.out = {0: {}}
        self.inc = {0: set()}
        self._compose = {}

    def add_crossing(self, step):
        n, norm = self.n, self.norm
        low = (1 << n) - 1
        objs, out, new = {}, {}, {}
        for o, (deg, m, q) in self.objs.items():
            for s in (0, 1):
                m2, loops = step.smooth(m, s)
                for sig in range(1 << len(loops)):
                    new[o, s, sig] = k = len(objs)
                    objs[k] = (deg + s, m2,
                               q + s + 2 * sig.bit_count() - len(loops))
                    out[k] = {}
        inc = {k: set() for k in objs}

        def glue(a, b, kind, s, t, morphism):
            comps, memo, ls, lt = step.shape(
                self.objs[a][1], self.objs[b][1], kind)
            by = {}   # loop bits -> {mask: coefficient}
            for mask, c in morphism.items():
                terms = memo.get(mask)
                if terms is None:
                    terms = memo[mask] = _evaluate(comps, mask)
                for m, k in terms.items():
                    row = by.setdefault(m >> n, {})
                    row[m & low] = row.get(m & low, 0) + c * k
            for sig in range(1 << ls):
                for tau in range(1 << lt):
                    # out of a source '+' keep its loop dotted, of '-'
                    # undotted; into a target '+' undotted, into '-' dotted
                    pat = sig | ((~tau & ((1 << lt) - 1)) << 2)
                    h = {m: v for m, c in by.get(pat, {}).items()
                         if (v := norm(c))}
                    if h:
                        x, y = new[a, s, sig], new[b, t, tau]
                        out[x][y] = h
                        inc[y].add(x)

        for a, (deg, _, _) in self.objs.items():
            glue(a, a, SADDLE, 0, 1, {0: -1 if deg % 2 else 1})
        for a, row in self.out.items():
            for b, morphism in row.items():
                for s in (0, 1):
                    glue(a, b, s, s, s, morphism)
        self.objs, self.out, self.inc = objs, out, inc

    def compose(self, x, a, y, f, g):
        """g ∘ f for f: x -> a and g: a -> y, glued along the arcs of a,
        with raw sums."""
        key = (x, a, y)
        shape = self._compose.get(key)
        n = self.n
        if shape is None:
            fc, gc = _cycles(x, a), _cycles(a, y)
            pieces = {1 << p for p in fc.values()}
            pieces |= {1 << (n + p) for p in gc.values()}
            glues = [(1 << fc[p], 1 << (n + gc[p])) for p, _ in a]
            circles = [(1 << fc[p], 1 << p)
                       for p, c in _cycles(x, y).items() if p == c]
            shape = self._compose[key] = (_glue(pieces, glues, circles), {})
        comps, memo = shape
        h = {}
        for mf, cf in f.items():
            for mg, cg in g.items():
                dots = mf | (mg << n)
                terms = memo.get(dots)
                if terms is None:
                    terms = memo[dots] = _evaluate(comps, dots)
                c = cf * cg
                for m, k in terms.items():
                    h[m] = h.get(m, 0) + c * k
        return h

    def eliminate(self):
        """Cancel every isomorphism c·id between objects of equal matching
        and q: δ(x -> y) -= δ(a -> y) ∘ c⁻¹ ∘ δ(x -> b) for a -> b."""
        objs, out, inc, norm = self.objs, self.out, self.inc, self.norm
        todo = [(a, b) for a, row in out.items() for b in row
                if objs[a][1:] == objs[b][1:]]
        while todo:
            a, b = todo.pop()
            if b not in out.get(a, ()):
                continue
            scale = -self.inv(out[a][b][0])
            ma = objs[a][1]
            targets = [(y, g) for y, g in out[a].items() if y != b]
            for x in inc[b]:
                if x == a:
                    continue
                fx, row = out[x][b], out[x]
                for y, g in targets:
                    h = self.compose(objs[x][1], ma, objs[y][1], fx, g)
                    old = row.get(y, {})
                    for m, c in h.items():
                        old[m] = old.get(m, 0) + scale * c
                    old = {m: v for m, c in old.items() if (v := norm(c))}
                    if old:
                        row[y] = old
                        inc[y].add(x)
                        if objs[x][1:] == objs[y][1:]:
                            todo.append((x, y))
                    else:
                        row.pop(y, None)
                        inc[y].discard(x)
            for v in (a, b):
                for y in out.pop(v):
                    inc[y].discard(v)
                for x in inc.pop(v):
                    out[x].pop(v, None)
                del objs[v]


def ranks(d: TangleDiagram, field) -> dict:
    """{(p, q): rank} of the Khovanov homology of ``d`` over ``field``,
    nonzero ranks only; the same ranks as
    ``homology(build_complex(d, field))``."""
    check_cube(d, states=False)
    _, rank, partner, ports = d.wiring()
    point = {}
    for k, (a, b) in enumerate(d.connections):
        point[rank[a]] = point[rank[b]] = k
    owner = {x: i for i, ps in enumerate(ports) for x in ps}
    cx = _Complex(field, len(d.connections))
    done = set()
    for c in _order(ports, partner, owner):
        cx.eliminate()
        role = tuple("kink" if owner.get(partner[x]) == c else
                     "old" if owner.get(partner[x]) in done else "new"
                     for x in ports[c])
        done.add(c)
        cx.add_crossing(_Step(tuple(point[x] for x in ports[c]), role,
                              cx.n))
    # G keeps the undotted entries between equal matchings, as scalars
    # (a dotted-only entry between them changes q, so it falls outside):
    # dim H = dim C - rk d^deg - rk d^(deg-1) per (degree, q) block.
    objs, shift = cx.objs, d.n_plus - 2 * d.n_minus - len(d.boundary) // 2
    blocks = {}   # (degree, q) -> {object: its row in the block}
    for o, (deg, _, q) in objs.items():
        block = blocks.setdefault((deg, q), {})
        block[o] = len(block)
    ranks = Counter()
    for (deg, q), block in blocks.items():
        into = blocks.get((deg + 1, q), {})
        rk = linalg.rank([{into[b]: m[0] for b, m in cx.out[o].items()
                           if 0 in m and objs[b][1] == objs[o][1]}
                          for o in block], field)
        p, k = deg - d.n_minus, q + shift
        ranks[p, k] += len(block) - rk
        ranks[p + 1, k] -= rk
    for _ in range(d.free_circles):   # V = q ⊕ q^-1 per free circle
        ranks, old = Counter(), ranks
        for (p, q), r in old.items():
            ranks[p, q + 1] += r
            ranks[p, q - 1] += r
    return {k: r for k, r in ranks.items() if r}
