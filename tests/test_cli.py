import csv
import json

from fractions import Fraction

import pytest

from tanglekh import linalg
from tanglekh.algebra import QQ, field_from_name
from tanglekh.cli import main
from tanglekh.complex import build_complex
from tanglekh.ingest import CurveSet
from tanglekh.persistence import Filtration, saddle_target_diagram

from conftest import braid_closure, braid_tangle, circle_polyline, kink_arc
from cube_helpers import negate_edge


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
    # the emitted filtration round-trips through the persist command
    assert main(["persist", str(out), "--field", "q",
                 "--out", str(tmp_path / "bars.json")]) == 0


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


def test_compute_functor_f_on_tangle_fails(tmp_path):
    path = diagram_file(tmp_path, braid_tangle([1], 2))
    assert main(["compute", path, "--functor", "f"]) == 2
