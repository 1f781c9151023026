import csv
import json
import os
import random
import re
import subprocess
import sys
import time

from fractions import Fraction

import pytest

import tanglekh
from tanglekh import cli, linalg
from tanglekh.algebra import QQ, field_from_name
from tanglekh.cli import main
from tanglekh.complex import ComplexError, build_complex, homology
from tanglekh.diagram import Crossing, TangleDiagram, validate
from tanglekh.ingest import CurveSet
from tanglekh.invariants import betti_polynomial, jones_from_homology
from tanglekh.persistence import Filtration, saddle_target_diagram

from conftest import (braid_closure, braid_tangle, circle_polyline, kink_arc,
                      on_cube)
from cube_helpers import negate_edge
from test_local import random_braid_tangle


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def diagram_file(tmp_path, d, name="d.json"):
    return write_json(tmp_path / name, d.to_json())


def test_compute_link(tmp_path, capsys):
    path = diagram_file(tmp_path, braid_closure([1, 1, 1], 2))
    assert main(["compute", path, "--field", "q"]) == 0
    report = json.loads(capsys.readouterr().out)
    ranks = {(r["p"], r["q"]): r["rank"] for r in report["ranks"]}
    assert ranks == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
    assert report["jones"] == {"1": 1, "3": 1, "5": 1, "9": -1}
    assert set(report["betti"]) == {"0", "2", "3"}


def test_compute_tangle_has_no_jones(tmp_path, capsys):
    path = diagram_file(tmp_path, kink_arc(-1))
    assert main(["compute", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "jones" not in report
    assert report["ranks"] == [{"p": 0, "q": -1, "rank": 1}]


def test_compute_generators_and_out_file(tmp_path):
    path = diagram_file(tmp_path, kink_arc(1))
    out = tmp_path / "h.json"
    assert main(["compute", path, "--field", "q", "--generators",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["generators"] == {"0,-1": [[[[0], ["w", "-"], "1"]]]}


@pytest.mark.parametrize("name", ["q", "fp:3", "f2"])
def test_compute_generators_are_cocycles_with_coefficients(tmp_path, capsys,
                                                           name):
    """Each representative is read back through ``c.index`` with its
    coefficients and must be a cocycle: d(rep) = 0 in the field."""
    field = field_from_name(name)
    for k, d in enumerate((braid_closure([1, 1, 1], 2),
                           braid_tangle([1, -2, 1, 2], 3),
                           braid_closure([1, -2, 1, -2], 3))):
        path = diagram_file(tmp_path, d, f"d{k}.json")
        assert main(["compute", path, "--field", name, "--generators"]) == 0
        report = json.loads(capsys.readouterr().out)
        ranks = {f"{r['p']},{r['q']}": r["rank"] for r in report["ranks"]}
        assert {key: len(reps) for key, reps in
                report["generators"].items()} == ranks
        c = build_complex(d, field=field)
        for key, reps in report["generators"].items():
            p = int(key.split(",")[0])
            for rep in reps:
                vec = {}
                for state, labels, coeff in rep:
                    assert isinstance(coeff, str if field.char == 0 else int)
                    pp, i = c.index[(tuple(state), tuple(labels))]
                    assert pp == p and i not in vec
                    vec[i] = field.coerce(Fraction(coeff))
                assert list(vec) == sorted(vec)
                assert vec and all(x != field.zero for x in vec.values())
                image = {}
                for i, x in vec.items():
                    linalg.add_into(image, c.differentials[p][i], x,
                                    field)
                assert image == {}, (name, key)


def test_compute_json_one_generator_entry_per_line(tmp_path, monkeypatch):
    """The JSON output parses to the value the indented writer gave, and
    each --generators entry takes one line."""
    path = diagram_file(tmp_path, braid_closure([1, 1, 1], 2))
    args = ["compute", path, "--field", "q", "--generators", "--out"]
    assert main(args + [str(tmp_path / "new.json")]) == 0
    monkeypatch.setattr(cli, "_json_text",
                        lambda v: json.dumps(v, indent=2, default=str))
    assert main(args + [str(tmp_path / "old.json")]) == 0
    text = (tmp_path / "new.json").read_text()
    old = (tmp_path / "old.json").read_text()
    assert json.loads(text) == json.loads(old) and len(text) < len(old)
    lines = {line.strip().rstrip(",") for line in text.splitlines()}
    entries = [e for vs in json.loads(text)["generators"].values()
               for v in vs for e in v]
    assert entries and all(json.dumps(e) in lines for e in entries)


def test_compute_csv(tmp_path):
    path = diagram_file(tmp_path, braid_closure([1], 2))
    out = tmp_path / "h.csv"
    assert main(["compute", path, "--format", "csv",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "ranks" in rows[0]


def test_compute_rejects_odd_boundary(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json",
                      {"boundary": ["a"], "crossings": [],
                       "connections": [], "free_circles": 0})
    assert main(["compute", path]) == 2
    assert "error" in capsys.readouterr().err


def test_compute_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["compute", str(path)]) == 2


def test_compute_rejects_unknown_field(tmp_path):
    path = diagram_file(tmp_path, kink_arc(-1))
    assert main(["compute", path, "--field", "f9000x"]) == 2


def test_compute_large_prime_field(tmp_path, capsys):
    path = diagram_file(tmp_path, braid_closure([1, 1, 1], 2))
    ranks = {}
    for field in ("q", "fp:2305843009213693951"):
        assert main(["compute", path, "--field", field]) == 0
        ranks[field] = json.loads(capsys.readouterr().out)["ranks"]
    assert ranks["fp:2305843009213693951"] == ranks["q"]
    assert main(["compute", path, "--field", f"fp:{2 ** 89 - 1}"]) == 2
    assert "too large" in capsys.readouterr().err


def full_cube_report(d, field="f2"):
    """What ``tanglekh compute`` reports from the whole cube of ``d``."""
    h = homology(build_complex(d, field=field_from_name(field)),
                 representatives=False)
    report = h.to_json()
    report["betti"] = {str(p): betti_polynomial(h, p).to_json()
                       for p in h.degrees}
    if not d.boundary:
        report["jones"] = jones_from_homology(h).to_json()
    return json.loads(json.dumps(report))


def compute_report(tmp_path, capsys, d, *extra):
    assert main(["compute", diagram_file(tmp_path, d), *extra]) == 0
    return json.loads(capsys.readouterr().out)


def link_components(word, strands):
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for s in range(strands):
        cycles += s not in seen
        while s not in seen:
            seen.add(s)
            s = perm[s]
    return cycles


def test_compute_f2_closed_matches_full_cube(tmp_path, capsys):
    """Rank-only ranks come from ``local.ranks``; the report equals the
    one the whole cube gives, on seeded closures and on seeded braid
    tangles with portless arcs and free circles."""
    rng = random.Random(1301)
    links = free = 0
    for _ in range(300):
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))]
        d = braid_closure(word, strands)
        d = TangleDiagram(crossings=d.crossings, connections=d.connections,
                          free_circles=d.free_circles + rng.randint(0, 2))
        links += link_components(word, strands) > 1
        free += d.free_circles > 0
        assert compute_report(tmp_path, capsys, d) == full_cube_report(d), \
            d.to_json()
    assert links > 100 and free > 100
    arcs = 0
    for i in range(90):
        d = random_braid_tangle(rng)
        arcs += bool(d.portless_arcs())
        field = ("f2", "fp:3", "q")[i % 3]
        assert compute_report(tmp_path, capsys, d, "--field", field) == \
            full_cube_report(d, field), d.to_json()
    assert arcs > 40


def test_compute_f2_closed_cut_open_cases(tmp_path, capsys):
    criterion = braid_closure([1, 1, 1, 2, 2, 2] * 2, 3)
    assert compute_report(tmp_path, capsys, criterion) == \
        full_cube_report(criterion)
    for k in (1, 2, 3):
        d = TangleDiagram(free_circles=k)
        assert compute_report(tmp_path, capsys, d) == full_cube_report(d)
    for word, strands in (([1, 1, 1], 2), ([1, -2, 1, -2], 3), ([1], 3)):
        d = braid_closure(word, strands)
        for field in ("f2", "fp:2"):
            assert compute_report(tmp_path, capsys, d, "--field", field) == \
                full_cube_report(d, field)
    # ports named like labels a diagram could add of its own
    trefoil = braid_closure([1, 1, 1], 2)
    name = {p: ("cut", k) for k, p in
            enumerate(p for c in trefoil.crossings for p in c.ports)}
    renamed = TangleDiagram(
        crossings=[Crossing(c.id, [name[p] for p in c.ports], c.sign)
                   for c in trefoil.crossings],
        connections=[(name[a], name[b]) for a, b in trefoil.connections])
    assert compute_report(tmp_path, capsys, renamed) == \
        full_cube_report(trefoil)


def test_compute_f2_malformed_closed_diagram_exit_2(tmp_path, capsys):
    payload = braid_closure([1, 1, 1], 2).to_json()
    payload["connections"].pop()
    path = write_json(tmp_path / "bad.json", payload)
    assert main(["compute", path, "--field", "f2"]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid diagram {path}: labels without a connection: "
        "('x', 1, 3), ('x', 2, 0)\n")


def random_wiring(rng):
    """One to four crossings and 0, 2 or 4 boundary endpoints, their
    labels paired at random: planar or not."""
    crossings = [Crossing(i, [("x", i, k) for k in range(4)],
                          rng.choice((1, -1)))
                 for i in range(rng.randint(1, 4))]
    boundary = [("b", k) for k in range(rng.choice((0, 0, 2, 4)))]
    labels = boundary + [x for c in crossings for x in c.ports]
    rng.shuffle(labels)
    return TangleDiagram(boundary=boundary, crossings=crossings,
                         connections=list(zip(labels[::2], labels[1::2])),
                         free_circles=rng.randint(0, 1))


def test_compute_nonplanar_wiring_exit_2(tmp_path, capsys):
    """A wiring that no disk holds exits 2, on the local path and on the
    cube alike (both raise on most such wirings if they get to run).  A
    planar one gives the same ranks on both."""
    rng = random.Random(36)
    refused = planar = 0
    for _ in range(200):
        d = random_wiring(rng)
        path = diagram_file(tmp_path, d)
        rank_only = main(["compute", path])
        out = capsys.readouterr()
        with_generators = main(["compute", path, "--generators"])
        capsys.readouterr()
        if validate(d):
            assert rank_only == with_generators == 0
            assert json.loads(out.out) == full_cube_report(d)
            planar += 1
        else:
            assert rank_only == with_generators == 2
            assert "wiring is not planar" in out.err
            with pytest.raises(ComplexError, match="not planar"):
                build_complex(d)
            refused += 1
    assert refused >= 50 and planar >= 30


def run_capped(argv):
    """``tanglekh argv`` in a child process limited to 1 GB of address
    space; returns the finished process and its wall time in seconds."""
    src = os.path.dirname(os.path.dirname(tanglekh.__file__))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from tanglekh.cli import main; sys.exit(main(sys.argv[1:]))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    return done, time.perf_counter() - start


def test_cube_too_large_exit_2(tmp_path):
    """The closure of sigma_1^30 on 2 strands has a cube of 2^30 states,
    and a 15-crossing closure plus 2 free circles counts as 2^17: each
    free circle doubles the generators, as a crossing does.  The commands
    that build the cube exit 2 within 2 s, naming its size; rank-only
    ``compute`` builds none and answers.  Each runs in a child under an
    address-space limit, so a cube listed anyway ends in a MemoryError
    instead of taking the machine's memory."""
    for d, size in (
            (braid_closure([1] * 30, 2), "2^30 = 1,073,741,824 states"),
            (braid_closure(([1, 1, 1, 2, 2, 2] * 3)[:15], 3).with_circles(2),
             "15 crossings and 2 free circles has 2^17 = 131,072 states")):
        path = diagram_file(tmp_path, d)
        filt = write_json(tmp_path / "f.json",
                          {"grades": [0], "diagrams": [d.to_json()]})
        for argv in (["compute", path, "--generators"], ["oracle", path],
                     ["persist", filt]):
            done, seconds = run_capped(argv)
            assert done.returncode == 2, (argv, done.stderr)
            assert size in done.stderr
            assert seconds < 2, (argv, seconds)
        done, _ = run_capped(["compute", path])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ranks"]


def test_filtration_checks_every_grade_before_building_any(tmp_path, capsys,
                                                         monkeypatch):
    """A 13-crossing grade, a break, then a 17-crossing grade: ``runs``
    refuses the filtration before building the first grade's cube, and
    ``persist`` exits 2 naming the second grade's 2^17 states."""
    import tanglekh.persistence as ps
    calls = []

    def counting(d, **kwargs):
        calls.append(d)
        return build_complex(d, **kwargs)

    monkeypatch.setattr(ps, "build_complex", counting)
    word = [1, 1, 1, 2, 2, 2] * 3
    ds = [braid_closure(word[:n], 3) for n in (13, 17)]
    filt = Filtration(grades=[0, 1], diagrams=ds, steps=[{"kind": "break"}])
    with pytest.raises(ComplexError, match=r"2\^17 = 131,072 states"):
        filt.runs()
    assert calls == []
    path = write_json(tmp_path / "f.json",
                      {"grades": [0, 1], "diagrams": [d.to_json() for d in ds],
                       "steps": [{"kind": "break"}]})
    assert main(["persist", path]) == 2
    assert "2^17 = 131,072 states" in capsys.readouterr().err
    assert calls == []


def test_oracle_match(tmp_path, capsys):
    for d in (kink_arc(-1), braid_closure([1], 2)):
        path = diagram_file(tmp_path, d)
        assert main(["oracle", path]) == 0
        assert "MATCH" in capsys.readouterr().out


def test_oracle_corrupted_sign_mismatch(tmp_path, capsys, monkeypatch):
    """With one cube edge's sign negated the verdict must flip."""
    import tanglekh.cli as cli

    def corrupted(d, **kwargs):
        return negate_edge(build_complex(d, **kwargs), ((0,) * d.n, 0))

    monkeypatch.setattr(cli, "build_complex", corrupted)
    path = diagram_file(tmp_path, braid_closure([1, 1, 1], 2))
    assert main(["oracle", path]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("d", [braid_closure([1, 1, 1], 2),
                               braid_tangle([1, -2, 1], 3)],
                         ids=["closure", "tangle"])
def test_oracle_compares_ranks_with_the_local_algorithm(tmp_path, capsys,
                                                        monkeypatch, d):
    """Raising H^{p,q} and H^{p+1,q} by one keeps the Euler characteristic,
    so only the comparison with ``local.ranks`` can see it."""
    def raised(c, **kwargs):
        h = homology(c, **kwargs)
        p, q = min(h.ranks)
        for key in ((p, q), (p + 1, q)):
            h.ranks[key] = h.rank(*key) + 1
        return h

    monkeypatch.setattr(cli, "homology", raised)
    assert main(["oracle", diagram_file(tmp_path, d)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split(":")[1].strip() == out[1].split(":")[1].strip()
    assert out[2].startswith("local ranks:   differ at (p, q) = ")
    assert out[-1] == "MISMATCH"


def test_persist_arc_to_circle(tmp_path, capsys):
    arc = {"boundary": ["a", "b"], "crossings": [],
           "connections": [["a", "b"]], "free_circles": 0}
    circle = {"boundary": [], "crossings": [], "connections": [],
              "free_circles": 1}
    filt = {"grades": [0.0, 1.0],
            "diagrams": [arc, circle],
            "steps": [{"kind": "closure",
                       "component_map": {"arcs": [["circle", 0]],
                                         "circles": []}}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path, "--field", "q"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["run"] == 0 for r in rows)
    inf = [(r["birth"], r["multiplicity"]) for r in rows
           if r["death"] is None]
    assert (0.0, 1) in inf and (1.0, 1) in inf


def test_persist_invalid_spec_exit_2(tmp_path, capsys):
    circle = {"boundary": [], "crossings": [], "connections": [],
              "free_circles": 1}
    arc = {"boundary": ["a", "b"], "crossings": [],
           "connections": [["a", "b"]], "free_circles": 0}
    filt = {"grades": [0.0, 1.0],
            "diagrams": [circle, arc],
            "steps": [{"kind": "closure",
                       "component_map": {"arcs": [], "circles": [0]}}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path]) == 2
    assert "step 0" in capsys.readouterr().err


def test_persist_saddle_step(tmp_path, capsys):
    """Saddle sites arrive as JSON lists and must come out hashable."""
    d = braid_closure([1, 1, 1], 2)
    site = (d.connections[0], d.connections[1])
    d2 = saddle_target_diagram(d, site)
    steps = [{"kind": "saddle", "site": {"from": [list(site[0]),
                                                  list(site[1])]}}]
    filt = {"grades": [0, 1], "diagrams": [d.to_json(), d2.to_json()],
            "steps": steps}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path, "--field", "q"]) == 0
    rows = json.loads(capsys.readouterr().out)
    expect = Filtration(grades=[0, 1], diagrams=[d, d2], field=QQ,
                        steps=[{"kind": "saddle",
                                "site": {"from": site}}]).barcode_report()
    assert rows == expect


def test_persist_refuses_a_saddle_that_is_not_local(tmp_path, capsys):
    """On the closure of [2, -1] on 4 strands the two connections of this
    site share no face: the re-paired wiring is planar, but no crossing
    fits the site in either port order, and one circle would go to one
    circle.  The library refuses the site with a MorphismError, and
    ``persist`` exits 2 naming the step."""
    from tanglekh.persistence import MorphismError, saddle_cone
    from test_assemble import repaired
    d = braid_closure([2, -1], 4)
    site = ((("x", 0, 2), ("x", 1, 3)), (("x", 1, 2), ("x", 0, 1)))
    d2 = repaired(d, site)
    assert validate(d2)
    for refuse in (saddle_cone, saddle_target_diagram):
        with pytest.raises(MorphismError, match="not a local saddle"):
            refuse(d, site)
    steps = [{"kind": "saddle", "site": {"from": site}}]
    filt = Filtration(grades=[0, 1], diagrams=[d, d2], steps=steps)
    for route in (filt, on_cube(filt)):
        with pytest.raises(MorphismError, match="step 0: no crossing fits"):
            route.runs()
    path = write_json(tmp_path / "filt.json", {
        "grades": [0, 1], "diagrams": [d.to_json(), d2.to_json()],
        "steps": [{"kind": "saddle",
                   "site": {"from": [list(map(list, pair))
                                     for pair in site]}}]})
    assert main(["persist", path]) == 2
    assert "step 0: no crossing fits" in capsys.readouterr().err


def test_persist_op_closure_step(tmp_path, capsys):
    arc = {"boundary": ["a", "b"], "crossings": [],
           "connections": [["a", "b"]], "free_circles": 0}
    circle = {"boundary": [], "crossings": [], "connections": [],
              "free_circles": 1}
    op = {"inner_boundary": [["i", 0], ["i", 1]], "outer_boundary": [],
          "arcs": [[["i", 0], ["i", 1]]]}
    filt = {"grades": [0.0, 1.0], "diagrams": [arc, circle],
            "steps": [{"kind": "closure", "op": op}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path, "--field", "q"]) == 0
    rows = json.loads(capsys.readouterr().out)
    inf = [(r["birth"], r["multiplicity"]) for r in rows
           if r["death"] is None]
    assert (0.0, 1) in inf and (1.0, 1) in inf


@pytest.mark.parametrize("name", ["q", "fp:3", "f2"])
def test_persist_identity_steps_on_a_link(tmp_path, capsys, name):
    d = braid_closure([1, -2, 1, 1], 3).to_json()
    d["free_circles"] += 1
    filt = {"grades": [0, 1, 2], "diagrams": [d] * 3,
            "steps": [{"kind": "identity"}] * 2}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path, "--field", name]) == 0
    bars = json.loads(capsys.readouterr().out)
    assert bars != []
    assert all(r["birth"] == 0 and r["death"] is None for r in bars)


# The case ids are the names these cases have had since functors F and G
# were split: "f" compares two links, "g" two tangles with boundary.
@pytest.mark.parametrize("make", [braid_closure, braid_tangle],
                         ids=["f", "g"])
def test_persist_identity_between_different_diagrams_exit_2(
        tmp_path, capsys, make):
    filt = {"grades": [0, 1],
            "diagrams": [make([1, 1, 1], 2).to_json(),
                         make([1, 1], 2).to_json()],
            "steps": [{"kind": "identity"}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path]) == 2
    assert "step 0: identity target mismatch" in capsys.readouterr().err


def test_persist_malformed_steps_exit_2(tmp_path, capsys):
    d = braid_closure([1, 1, 1], 2)
    bad_steps = [
        {"site": {"from": []}},                                # no kind
        {"kind": "saddle", "site": {"from": [["a", "b"]]}},    # one pair
        {"kind": "saddle"},                                    # no site
        {"kind": "closure", "op": {"arcs": []}},               # no hole
        {"kind": "closure", "op": {"inner_boundary": [], "arcs": [[1]]}},
        {"kind": "closure", "op": {"inner_boundary": ["a", "b"],
                                   "arcs": [["a", "b"]]}},     # hole size
    ]
    for step in bad_steps:
        filt = {"grades": [0, 1], "diagrams": [d.to_json()] * 2,
                "steps": [step]}
        path = write_json(tmp_path / "filt.json", filt)
        assert main(["persist", path]) == 2, step
        assert "step 0" in capsys.readouterr().err


ARC = {"boundary": ["a", "b"], "crossings": [],
       "connections": [["a", "b"]], "free_circles": 0}
CIRCLES = [{"boundary": [], "crossings": [], "connections": [],
            "free_circles": k} for k in (1, 2)]
# a one-crossing kink on an arc, valid with an integer crossing id
KINK = {"boundary": ["a", "b"],
        "crossings": [{"id": 0, "ports": [1, 2, 3, 4], "sign": 1}],
        "connections": [["a", 1], [2, 3], ["b", 4]], "free_circles": 0}


@pytest.mark.parametrize("payload", [
    {"diagrams": [ARC], "steps": []},                         # no grades
    {"grades": [0], "steps": []},                             # no diagrams
    {"grades": [0, 1], "diagrams": [ARC, ARC], "steps": {"kind": "x"}},
    {"grades": [0, 1], "diagrams": [ARC, ARC], "steps": 5},
    [{"grades": [0], "diagrams": [ARC]}],                     # top-level list
    {"grades": "ab", "diagrams": [ARC, ARC],
     "steps": [{"kind": "identity"}]},
    {"grades": [0, True], "diagrams": [ARC, ARC],
     "steps": [{"kind": "identity"}]},
    {"grades": [0], "diagrams": ["arc"]},
    {"grades": [0, 1], "diagrams": CIRCLES[::-1],
     "steps": [{"kind": "cup", "site": "x"}]},
    {"grades": [0, 1], "diagrams": CIRCLES[::-1],
     "steps": [{"kind": "cup", "site": 0.5}]},
    {"grades": [0], "diagrams": [ARC | {"free_circles": 1.5}]},
    {"grades": [0], "diagrams": [
        KINK | {"crossings": [{"id": [0], "ports": [1, 2, 3, 4],
                               "sign": 1}]}]},
])
def test_persist_malformed_file_exit_2(tmp_path, capsys, payload):
    path = write_json(tmp_path / "filt.json", payload)
    assert main(["persist", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read filtration") and \
        err.count("\n") == 1, err


@pytest.mark.parametrize("circles", [1.5, -1, True, "1"])
def test_persist_op_circles_not_a_count_exit_2(tmp_path, capsys, circles):
    op = {"inner_boundary": ["i", "j"], "outer_boundary": [],
          "arcs": [["i", "j"]], "circles": circles}
    filt = {"grades": [0, 1], "diagrams": [ARC, CIRCLES[0]],
            "steps": [{"kind": "closure", "op": op}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path]) == 2
    assert "step 0: malformed step" in capsys.readouterr().err


@pytest.mark.parametrize("source, target, component_map", [
    (ARC, ARC, {"arcs": [["arc", 0.0]]}),
    (ARC, ARC, {"arcs": [["arc"]]}),
    (ARC, CIRCLES[0], {"arcs": [["foo", 0]]}),
    (ARC, CIRCLES[0], {"arcs": [["circle", False]]}),
    (ARC, CIRCLES[0], {"arcs": ["circle"]}),
    (CIRCLES[0], CIRCLES[0], {"circles": ["0"]}),
    (CIRCLES[0], CIRCLES[0], {"circles": [False]}),
    (ARC, ARC, [["arc", 0]]),
])
def test_persist_bad_component_map_exit_2(tmp_path, capsys, source, target,
                                          component_map):
    filt = {"grades": [0, 1], "diagrams": [source, target],
            "steps": [{"kind": "closure", "component_map": component_map}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path]) == 2
    err = capsys.readouterr().err
    assert "step 0" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("site", [5, -3])
def test_persist_cup_site_out_of_range_exit_2(tmp_path, capsys, site):
    filt = {"grades": [0, 1], "diagrams": CIRCLES[::-1],
            "steps": [{"kind": "cup", "site": site}]}
    path = write_json(tmp_path / "filt.json", filt)
    assert main(["persist", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0") and "out of range" in err


@pytest.mark.parametrize("payload", [
    {"crossings": [{"ports": [1, 2, 3, 4], "sign": 1}]},      # no id
    [ARC],                                                    # top-level list
    {"boundary": ["a", "b"], "connections": [["a", "b", "c"]]},
    KINK | {"crossings": [{"id": [0], "ports": [1, 2, 3, 4], "sign": 1}]},
    KINK | {"crossings": [{"id": "0", "ports": [1, 2, 3, 4], "sign": 1}]},
    KINK | {"crossings": [{"id": True, "ports": [1, 2, 3, 4], "sign": 1}]},
    ARC | {"free_circles": 1.5},
    ARC | {"free_circles": True},
    ARC | {"free_circles": "2"},
])
@pytest.mark.parametrize("cmd", ["compute", "oracle"])
def test_malformed_diagram_exit_2(tmp_path, capsys, payload, cmd):
    path = write_json(tmp_path / "d.json", payload)
    assert main([cmd, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read diagram") and \
        err.count("\n") == 1, err


def test_ingest_pipeline(tmp_path):
    payload = {"curves": [{"points": circle_polyline(1.0, cx=3.0, n=128),
                           "closed": True}],
               "axis": "z", "center": [0.0, 0.0]}
    path = write_json(tmp_path / "curves.json", payload)
    out = tmp_path / "filt.json"
    assert main(["ingest", path, "--out", str(out)]) == 0
    filt = json.loads(out.read_text())
    assert len(filt["grades"]) == len(filt["diagrams"])
    assert len(filt["steps"]) == len(filt["grades"]) - 1
    events = json.loads((tmp_path / "filt.json.events.json").read_text())
    assert [e["cause"] for e in events] == \
        ["component first enters", "component fully enclosed"]
    # one event per line, between the brackets
    assert len((tmp_path / "filt.json.events.json").read_text()
               .splitlines()) == len(events) + 2
    # the emitted filtration round-trips through the persist command
    assert main(["persist", str(out), "--field", "q",
                 "--out", str(tmp_path / "bars.json")]) == 0


def test_ingest_to_stdout_pipes_into_persist(tmp_path, capsys):
    """Without --out, stdout holds the filtration alone and no events file
    is written; persist reads it as it stands."""
    payload = {"curves": [{"points": circle_polyline(1.0, cx=3.0, n=128),
                           "closed": True}],
               "axis": "z", "center": [0.0, 0.0]}
    path = write_json(tmp_path / "curves.json", payload)
    assert main(["ingest", path]) == 0
    text = capsys.readouterr().out
    filt = tmp_path / "filt.json"
    filt.write_text(text)
    assert main(["ingest", path, "--out", str(filt)]) == 0
    assert filt.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["curves.json", "filt.json", "filt.json.events.json"]
    assert main(["persist", str(filt), "--field", "q"]) == 0
    assert json.loads(capsys.readouterr().out) != []


def test_ingest_genericity_exit_3(tmp_path, capsys):
    payload = {"curves": [
        {"points": [[-1, 0, 0.5], [1, 0, 0.5]], "closed": False},
        {"points": [[0, -1, 0.5], [0, 1, 0.5]], "closed": False}]}
    path = write_json(tmp_path / "curves.json", payload)
    assert main(["ingest", path]) == 3
    assert "genericity" in capsys.readouterr().err


def test_ingest_rejects_bad_file(tmp_path):
    path = tmp_path / "nope.json"
    assert main(["ingest", str(path)]) == 2


@pytest.mark.parametrize("payload,extra", [
    ({"curves": [{"points": [[0, 0, 0], [1, float("nan"), 0]]}]}, []),
    ({"curves": [{"points": [[0, 0, 0], [float("inf"), 1, 0]]}]}, []),
    ({"curves": []}, []),
    ({"curves": [{"points": [[0, 0], [1, 1]]}]}, []),
    ({"curves": [{"points": [[0, 0, 0], [1, 1, 0]]}]}, ["--tol", "-1"]),
    ({"curves": [{"points": [[0, 0, 0], [1, 1, 0]], "closed": "false"}]}, []),
    ({"curves": [{"points": [[0, 0, 0], [1, 1, 0]], "closed": 1}]}, []),
    ({"curves": 5}, []),
    ({"curves": [{"points": 5}]}, []),
    ([], []),
    ({"curves": [{"points": [[-3, 1, 0], [3, 1, 0]], "closed": True}]}, []),
])
def test_ingest_bad_curves_exit_2(tmp_path, capsys, payload, extra):
    path = write_json(tmp_path / "curves.json", payload)
    assert main(["ingest", path, *extra]) == 2
    assert capsys.readouterr().err.startswith("error: cannot")


def test_ingest_closed_is_a_json_boolean(tmp_path):
    """A missing "closed" means open; true and false are taken as given."""
    pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
    read = CurveSet.from_json({"curves": [{"points": pts},
                                          {"points": pts, "closed": False},
                                          {"points": pts, "closed": True}]})
    assert [c.closed for c in read.curves] == [False, False, True]


def test_compute_functor_f_on_tangle_fails(tmp_path, capsys):
    """There is no --functor flag: functor G on a closed diagram is
    Khovanov's, and on a tangle it is the only one."""
    path = diagram_file(tmp_path, braid_tangle([1], 2))
    with pytest.raises(SystemExit) as e:
        main(["compute", path, "--functor", "f"])
    assert e.value.code == 2
    assert "unrecognized arguments: --functor" in capsys.readouterr().err


# each subcommand takes only the flags it reads
FLAGS_OF = {"compute": {"--field", "--out", "--format", "--generators"},
            "persist": {"--field", "--out", "--format"},
            "ingest": {"--out", "--tol"},
            "oracle": set()}
VALUES = {"--field": ["q"], "--functor": ["g"], "--out": ["x.json"],
          "--format": ["json"], "--tol": ["0.001"], "--generators": []}


@pytest.mark.parametrize("cmd,flag", [
    (cmd, flag) for cmd, flags in FLAGS_OF.items()
    for flag in sorted(set(VALUES) - flags)])
def test_unread_flags_exit_2(tmp_path, capsys, cmd, flag):
    path = diagram_file(tmp_path, braid_closure([1, 1, 1], 2))
    with pytest.raises(SystemExit) as e:
        main([cmd, path, flag, *VALUES[flag]])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cmd", sorted(FLAGS_OF))
def test_subcommands_take_exactly_their_flags(capsys, cmd):
    with pytest.raises(SystemExit) as e:
        main([cmd, "--help"])
    assert e.value.code == 0
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert flags - {"--help"} == FLAGS_OF[cmd]
