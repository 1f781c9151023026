"""Each check accepts a real result and rejects a corrupted copy of it.

The real results come from the package on small inputs; every
corruption is the smallest change the check is there to catch: a changed
rank or coefficient, a dropped bar or generator, a wrong crossing count.
"""

from __future__ import annotations

import copy
import os
import random

import oracles
import workloads


def _bump_rank(report, k=0):
    bad = copy.deepcopy(report)
    bad["ranks"][k]["rank"] += 1
    return bad


def _bump_jones(report):
    bad = copy.deepcopy(report)
    e = next(iter(bad["jones"]))
    bad["jones"][e] += 1
    return bad


def _drop_generator(report):
    bad = copy.deepcopy(report)
    key = next(k for k, v in bad["generators"].items() if v)
    bad["generators"][key].pop()
    return bad


def _run(jobs):
    done = {}
    for job in jobs:
        job.check(job.run(), done)
    return done


def main(pkg, work):
    os.makedirs(work, exist_ok=True)
    rng = random.Random(0)
    trefoil = workloads.braid_closure([1, 1, 1], 2)
    word = workloads.variant([1, 2, 1, 2, 1], 3, rng, relation=True)
    done = _run([
        workloads._compute_job(pkg, work, "t23-q", trefoil, "q", True, []),
        workloads._compute_job(pkg, work, "t23-fp:3", trefoil, "fp:3",
                               False, []),
        workloads._compute_job(pkg, work, "t23-f2", trefoil, "f2", False,
                               []),
        workloads._compute_job(pkg, work, "w-a", workloads.braid_closure(
            [1, 2, 1, 2, 1], 3), "f2", False, []),
        workloads._compute_job(pkg, work, "w-b", workloads.braid_closure(
            word, 3), "f2", False, []),
    ])
    q, f3, f2 = done["t23-q"], done["t23-fp:3"], done["t23-f2"]

    ident = workloads._filtration_job(
        pkg, work, "ident", [trefoil] * 3, "f2",
        workloads._identity_steps, workloads._no_laws)
    capcup = workloads._filtration_job(
        pkg, work, "capcup", [trefoil], "fp:3",
        workloads._cap_cup_steps, workloads._no_laws)
    tables = {}
    for job in (ident, capcup):
        filt, rows = job.run()
        tables[job.label] = [t for t in workloads.rank_tables(filt, rows)
                             if t[2][0]]

    curve = os.path.join(work, "T23.curves.json")
    filt_path = os.path.join(work, "T23.filt.json")
    workloads._write_json(curve, workloads.torus_curve(2, 3, 300, rng))
    done_i = _run([
        workloads._ingest_job(pkg, "T23", 2, 3, curve, filt_path),
        workloads._persist_job(pkg, "T23", filt_path,
                               os.path.join(work, "T23.bars.json")),
    ])
    data = done_i["T23"]
    events = workloads._read_json(filt_path + ".events.json")
    rows = workloads._read_json(os.path.join(work, "T23.bars.json"))
    run_of = [0]
    for step in data["steps"]:
        run_of.append(run_of[-1] + (step["kind"] == "break"))
    chi = [oracles.euler_at_one(d) for d in data["diagrams"]]
    last = copy.deepcopy(data["diagrams"][-1])
    last["crossings"][0]["sign"] *= -1
    crossing = next(e for e in events if e["cause"] == "crossing enters disk")

    _, r, dims, bars = tables["ident"][0]
    _, rc, _, _ = tables["capcup"][0]
    r_bad = dict(r)
    r_bad[(0, 2)] = min(r[(0, 1)], r[(1, 2)]) + 1
    rc_bad = dict(rc)
    rc_bad[(0, 2)] = 1

    cases = [
        ("state sum vs ranks", "a changed rank",
         lambda x: oracles.check_euler(x, trefoil), q, _bump_rank(q)),
        ("state sum vs jones field", "a changed coefficient",
         lambda x: oracles.check_euler(x, trefoil), q, _bump_jones(q)),
        ("torus-knot closed form", "a changed coefficient",
         lambda x: oracles.check_torus_jones(x, 2, 3), q, _bump_jones(q)),
        ("F2 divisibility by q + 1/q", "a changed rank",
         oracles.check_f2_divisible, f2, _bump_rank(f2)),
        ("rank over F3 >= rank over Q", "a raised rank over Q",
         lambda x: oracles.check_field_ranks(f3, x), q, _bump_rank(q)),
        ("equal ranks of related words", "a changed rank",
         lambda x: oracles.check_equal_ranks(done["w-a"], x),
         done["w-b"], _bump_rank(done["w-b"])),
        ("generator counts", "a dropped generator",
         oracles.check_generator_counts, q, _drop_generator(q)),
        ("rank-table law", "a composite rank above its factors",
         lambda x: oracles.check_rank_table(x, dims), r, r_bad),
        ("bars alive sum to dims", "a dropped bar",
         lambda x: oracles.check_bars(x, dims), bars, bars[1:]),
        ("identity runs: infinite bars", "a bar that dies",
         oracles.check_infinite_bars, bars,
         [(bars[0][0], 2, bars[0][2])] + bars[1:]),
        ("cap then cup is zero", "a non-zero composite",
         lambda x: oracles.check_cap_cup_zero(x, 0), rc, rc_bad),
        ("crossing events of T(p,q)", "a wrong crossing count",
         lambda x: oracles.check_crossing_events(x, 2, 3), events,
         [e for e in events if e is not crossing]),
        ("last clip is T(p,q)", "a flipped crossing",
         lambda x: oracles.check_torus_clip(x, 2, 3),
         data["diagrams"][-1], last),
        ("persist bars vs clip Euler characteristic", "a dropped bar",
         lambda x: oracles.check_rows_euler(x, data["grades"], run_of, chi),
         rows, rows[1:]),
    ]
    failures = 0
    for name, corruption, check, good, bad in cases:
        check(good)
        try:
            check(bad)
        except oracles.CheckError:
            print(f"ok   {name}: rejects {corruption}")
            continue
        failures += 1
        print(f"FAIL {name}: accepts {corruption}")
    print(f"self-test: {len(cases) - failures} of {len(cases)} checks "
          "reject their corrupted input")
    return 1 if failures else 0
