"""Output checks that share no code with the package under test.

Every check takes plain data (JSON dicts, rank maps, bar rows) and raises
``CheckError`` when the data violates a law or disagrees with an
independent computation.  Nothing here imports ``tanglekh``.

Laurent polynomials in q are dicts ``{exponent: integer coefficient}``
with zero coefficients dropped.
"""

from __future__ import annotations

from math import comb


class CheckError(AssertionError):
    """A job's output failed one of the checks below."""


def hashable(label):
    """A label read from JSON, with its arrays turned into tuples."""
    return (tuple(hashable(y) for y in label) if isinstance(label, list)
            else label)


def _clean(poly):
    return {e: c for e, c in poly.items() if c}


def poly_from_json(data):
    """A ``{"exponent": coefficient}`` map as written by the CLI."""
    return _clean({int(e): int(c) for e, c in data.items()})


def mirror(poly):
    return {-e: c for e, c in poly.items()}


# -- state sum ---------------------------------------------------------------

# The diagram file format lists each crossing's ports counterclockwise with
# the under-strand entering at port 0 and leaving at port 2.  In that format
# the 0-smoothing pairs ports (0, 3), (1, 2) and the 1-smoothing pairs
# (0, 1), (2, 3); the closed-form torus-knot check below pins this down
# independently of the package.
_SMOOTHINGS = (((0, 3), (1, 2)), ((0, 1), (2, 3)))


def circles_per_state(diagram):
    """Yield (ones, circles) for every state of the cube, in binary order.

    Components are counted with a union-find over the diagram's own
    connection list plus each state's smoothing pairs; arcs are the
    components through the boundary, one per pair of endpoints.
    """
    boundary = [hashable(b) for b in diagram.get("boundary", ())]
    crossings = sorted(diagram.get("crossings", ()), key=lambda c: c["id"])
    index = {}
    for lbl in boundary:
        index[lbl] = len(index)
    ports = []
    for c in crossings:
        ids = []
        for p in c["ports"]:
            index[hashable(p)] = len(index)
            ids.append(index[hashable(p)])
        ports.append(ids)
    base = [(index[hashable(a)], index[hashable(b)])
            for a, b in diagram.get("connections", ())]
    n_nodes = len(index)
    loose = int(diagram.get("free_circles", 0)) - len(boundary) // 2
    n = len(crossings)
    for s in range(1 << n):
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n_nodes
        edges = list(base)
        for k in range(n):
            ids = ports[k]
            for i, j in _SMOOTHINGS[(s >> k) & 1]:
                edges.append((ids[i], ids[j]))
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        yield bin(s).count("1"), comps + loose


def state_sum(diagram):
    """Graded Euler characteristic from a Kauffman-style state sum.

    Each state with l one-smoothings, r circles and t arcs contributes
    (-1)^(l - n-) q^(l + n+ - 2 n-) (q + 1/q)^r q^(-t).
    """
    signs = [c["sign"] for c in diagram.get("crossings", ())]
    n_plus = sum(1 for s in signs if s > 0)
    n_minus = len(signs) - n_plus
    t = len(diagram.get("boundary", ())) // 2
    counts = {}
    for key in circles_per_state(diagram):
        counts[key] = counts.get(key, 0) + 1
    out = {}
    for (ell, r), mult in counts.items():
        sign = -1 if (ell - n_minus) % 2 else 1
        shift = ell + n_plus - 2 * n_minus - t
        for k in range(r + 1):
            e = shift + r - 2 * k
            out[e] = out.get(e, 0) + sign * mult * comb(r, k)
    return _clean(out)


def euler_at_one(diagram):
    """The state sum evaluated at q = 1."""
    return sum(state_sum(diagram).values())


def euler_of_ranks(ranks):
    """Sum over (p, q) of (-1)^p rank q^q."""
    out = {}
    for (p, q), r in ranks.items():
        out[q] = out.get(q, 0) + (-r if p % 2 else r)
    return _clean(out)


# -- closed form for torus knots ---------------------------------------------


def torus_jones(p, q):
    """Unnormalised Jones polynomial (q + 1/q) V(q^2) of the torus knot
    T(p, q), from V = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q))
    / (1 - t^2)."""
    num = {0: 1}
    for e, c in ((p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] = num.get(e, 0) + c
    # exact division by 1 - t^2, lowest degree first
    quot = {}
    rem = dict(num)
    for e in range(max(num) + 1):
        c = rem.get(e, 0)
        if c:
            quot[e] = c
            rem[e + 2] = rem.get(e + 2, 0) + c
            rem[e] = 0
    if any(rem.values()):
        raise ValueError(f"T({p},{q}) closed form does not divide")
    shift = (p - 1) * (q - 1) // 2
    out = {}
    for e, c in quot.items():
        for d in (1, -1):
            x = 2 * (e + shift) + d
            out[x] = out.get(x, 0) + c
    return _clean(out)


# -- checks on `compute` output ----------------------------------------------


def ranks_of(report):
    return {(r["p"], r["q"]): r["rank"] for r in report["ranks"]}


def check_euler(report, diagram):
    """Graded Euler characteristic of the ranks equals the state sum, and
    so does the ``jones`` field when the diagram is closed."""
    expect = state_sum(diagram)
    got = euler_of_ranks(ranks_of(report))
    if got != expect:
        raise CheckError(f"Euler characteristic {got} != state sum {expect}")
    if not diagram.get("boundary"):
        jones = poly_from_json(report["jones"])
        if jones != expect:
            raise CheckError(f"jones field {jones} != state sum {expect}")


def check_torus_jones(report, p, q):
    """The ``jones`` field is the closed form for T(p, q) or its mirror."""
    jones = poly_from_json(report["jones"])
    expect = torus_jones(p, q)
    if jones not in (expect, mirror(expect)):
        raise CheckError(f"jones {jones} is not that of T({p},{q})")


def check_f2_divisible(report):
    """Over F2 each Betti polynomial of a non-empty closed diagram is
    divisible by q + 1/q (Shumakovitch), i.e. vanishes at q = i."""
    by_p = {}
    for (p, q), r in ranks_of(report).items():
        re_im = by_p.setdefault(p, [0, 0])
        k = q % 4
        re_im[k % 2] += r if k < 2 else -r
    for p, (re, im) in by_p.items():
        if re or im:
            raise CheckError(f"F2 Betti polynomial at p={p} is not "
                             "divisible by q + 1/q")


def check_field_ranks(report_fp, report_q):
    """rank over F_p >= rank over Q in every bidegree."""
    rq, rp = ranks_of(report_q), ranks_of(report_fp)
    for key, r in rq.items():
        if rp.get(key, 0) < r:
            raise CheckError(f"rank over {report_fp['field']} at {key} is "
                             f"{rp.get(key, 0)} < {r} over Q")


def check_equal_ranks(report_a, report_b):
    """Braid words related by conjugation or braid relations have the
    same homology."""
    a, b = ranks_of(report_a), ranks_of(report_b)
    if a != b:
        raise CheckError(f"ranks differ between related braid words: "
                         f"{sorted(set(a.items()) ^ set(b.items()))}")


def check_generator_counts(report):
    """Each ``--generators`` list has as many entries as its rank."""
    ranks = ranks_of(report)
    gens = report.get("generators", {})
    got = {tuple(int(x) for x in k.split(",")): len(v)
           for k, v in gens.items() if v}
    if got != ranks:
        raise CheckError("generator lists do not match the ranks")


# -- barcodes ----------------------------------------------------------------


def check_rank_table(r, dims):
    """r(a,a) = dim H(a) and r(a,c) <= min(r(a,b), r(b,c)) for a<=b<=c.

    ``r`` maps (a, b) with a <= b to the rank of the composite map.
    """
    n = len(dims)
    for a in range(n):
        if r[(a, a)] != dims[a]:
            raise CheckError(f"r({a},{a}) = {r[(a, a)]} != dim {dims[a]}")
        for b in range(a, n):
            for c in range(b, n):
                if r[(a, c)] > min(r[(a, b)], r[(b, c)]):
                    raise CheckError(f"r({a},{c}) exceeds r({a},{b}) or "
                                     f"r({b},{c})")


def check_bars(bars, dims):
    """Multiplicities are positive and the bars alive at each index sum
    to the dimension there.  ``bars`` holds (birth, death or None,
    multiplicity) over indices 0..len(dims)-1."""
    for birth, death, mult in bars:
        if mult <= 0:
            raise CheckError(f"bar [{birth},{death}) has multiplicity {mult}")
    for i, dim in enumerate(dims):
        alive = sum(m for b, d, m in bars if b <= i and (d is None or i < d))
        if alive != dim:
            raise CheckError(f"{alive} bars alive at index {i}, dim {dim}")


def check_infinite_bars(bars):
    """A run of identity steps only has bars that never die."""
    finite = [b for b in bars if b[1] is not None]
    if finite:
        raise CheckError(f"identity run has finite bars {finite}")


def check_cap_cup_zero(r, p):
    """cap then cup of the same circle is zero on homology: eps(v+) = 0."""
    if r[(0, 2)]:
        raise CheckError(f"cap then cup has rank {r[(0, 2)]} at p={p}")


def check_rows_euler(rows, grades, run_of, expect):
    """For each grade g, the bars alive there, counted with sign (-1)^p,
    add up to the Euler characteristic at q = 1 of the diagram at g
    (``expect[i]`` for ``grades[i]``, which lies in run ``run_of[i]``;
    a bar that never dies lives to the end of its run)."""
    for row in rows:
        if row["multiplicity"] <= 0:
            raise CheckError(f"bar {row} has multiplicity <= 0")
    for g, run, chi in zip(grades, run_of, expect):
        alive = sum((-1 if row["p"] % 2 else 1) * row["multiplicity"]
                    for row in rows
                    if row["run"] == run and row["birth"] <= g
                    and (row["death"] is None or g < row["death"]))
        if alive != chi:
            raise CheckError(f"signed bar count {alive} at grade {g} != "
                             f"Euler characteristic {chi}")


def check_crossing_events(events, p, q):
    """T(p, q) drawn as a closed p-braid has q(p-1) crossings."""
    got = sum(1 for e in events if e["cause"] == "crossing enters disk")
    if got != q * (p - 1):
        raise CheckError(f"{got} crossing events for T({p},{q}), "
                         f"expected {q * (p - 1)}")


def check_torus_clip(diagram, p, q):
    """The last clip is T(p, q) or its mirror, by the state sum."""
    got = state_sum(diagram)
    expect = torus_jones(p, q)
    if got not in (expect, mirror(expect)):
        raise CheckError(f"last clip has Jones {got}, not that of "
                         f"T({p},{q})")
