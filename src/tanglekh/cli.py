"""Command line front-end.

Subcommands: compute (homology of one diagram), persist (barcodes of a
filtration), ingest (3-D curves to a filtration), oracle (homology-side
Euler characteristic vs the state sum).  Exit codes: 0 success,
1 mismatch/negative verdict, 2 input validation, 3 genericity failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .algebra import field_from_name
from .complex import (ComplexError, build_complex, homology,
                      verify_d_squared)
from .diagram import PlanarTangleSpec, TangleDiagram, _label, validate
from .ingest import (CurveSet, GenericityError, build_filtration,
                     critical_radii, events_json, project_and_detect,
                     sample_grades)
from .invariants import betti_polynomial, jones_from_homology, state_sum
from .persistence import ClosureMorphismSpec, Filtration, MorphismError


def _write(payload, out, fmt):
    if fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        keys = sorted({k for r in rows for k in r})
        fh = open(out, "w", newline="") if out else sys.stdout
        try:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for r in rows:
                w.writerow({k: (json.dumps(v)
                                if isinstance(v, (dict, list)) else v)
                            for k, v in ((k, r.get(k)) for k in keys)})
        finally:
            if out:
                fh.close()
    else:
        text = json.dumps(payload, indent=2, default=str)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)


def _load_diagram(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit2(f"cannot read diagram {path}: {e}")
    d = TangleDiagram.from_json(data)
    rep = validate(d)
    if not rep.ok:
        raise SystemExit2(f"invalid diagram {path}: " + "; ".join(rep.problems))
    return d


class SystemExit2(Exception):
    pass


def _field(name):
    try:
        return field_from_name(name)
    except ValueError as e:
        raise SystemExit2(str(e))


def cmd_compute(args):
    d = _load_diagram(args.diagram)
    field = _field(args.field)
    try:
        c = build_complex(d, functor=args.functor.upper(), field=field)
    except ComplexError as e:
        raise SystemExit2(str(e))
    h = homology(c, representatives=args.generators)
    report = h.to_json()
    report["betti"] = {str(p): betti_polynomial(h, p).to_json()
                      for p in h.degrees}
    if not d.boundary:
        report["jones"] = jones_from_homology(h).to_json()
    if args.generators:
        basis = c.basis
        exact = str if field.char == 0 else int   # "-1/2" over Q

        def entry(p, i, x):
            g = basis[p][i]
            return [list(g.state), list(g.labels), exact(x)]

        report["generators"] = {
            f"{p},{q}": [[entry(p, i, x) for i, x in sorted(v.items())]
                         for v in vs]
            for (p, q), vs in h.representatives.items()}
    _write(report, args.out, args.format)
    return 0


def cmd_oracle(args):
    d = _load_diagram(args.diagram)
    sign_flip = None
    if getattr(args, "corrupt_sign", False) and d.crossings:
        # self-test hook: negate one cube edge so the verdict must flip
        sign_flip = ((0,) * len(d.crossings), 0)
    try:
        c = build_complex(d, functor="G", field=field_from_name("q"),
                          sign_flip=sign_flip)
    except ComplexError as e:
        raise SystemExit2(str(e))
    # homology ranks assume d^2 = 0, so a broken complex has no homology side
    ok, where = verify_d_squared(c)
    lhs = (jones_from_homology(homology(c, representatives=False)) if ok
           else f"undefined, d^2 != 0 at (p, column) = {where}")
    rhs = state_sum(d)
    print(f"homology side: {lhs}")
    print(f"state sum:     {rhs}")
    if ok and lhs == rhs:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def filtration_from_json(data, functor="G", field=None):
    diagrams = [TangleDiagram.from_json(d) for d in data["diagrams"]]
    steps = [_step_from_json(i, raw, diagrams)
             for i, raw in enumerate(data.get("steps", ()))]
    return Filtration(grades=list(data["grades"]), diagrams=diagrams,
                      steps=steps, functor=functor, field=field)


def _step_from_json(i, raw, diagrams):
    """One filtration step, with JSON node labels turned into tuples."""
    try:
        kind = raw["kind"]
        if kind == "closure" and "component_map" in raw:
            cm = raw["component_map"]
            spec = ClosureMorphismSpec(
                source=diagrams[i], target=diagrams[i + 1],
                arc_images=tuple(_label(img) for img in cm.get("arcs", ())),
                circle_images=tuple(cm.get("circles", ())))
            return {"kind": "closure", "spec": spec}
        if kind == "closure":
            op = raw["op"]
            return {"kind": "closure", "op": PlanarTangleSpec(
                inner_boundary=[_label(x) for x in op["inner_boundary"]],
                outer_boundary=[_label(x)
                                for x in op.get("outer_boundary", ())],
                arcs=[_pair(a) for a in op.get("arcs", ())],
                circles=int(op.get("circles", 0)))}
        if kind == "saddle":
            site = tuple(_pair(pair) for pair in raw["site"]["from"])
            if len(site) != 2:
                raise ValueError("a saddle site is two connections")
            return {**raw, "site": {**raw["site"], "from": site}}
        return dict(raw)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise SystemExit2(f"step {i}: malformed step {raw!r}: {e!r}")


def _pair(x):
    a, b = x
    return _label(a), _label(b)


def cmd_persist(args):
    try:
        with open(args.filtration) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit2(f"cannot read filtration {args.filtration}: {e}")
    try:
        filt = filtration_from_json(data, functor=args.functor.upper(),
                                    field=_field(args.field))
        rows = filt.barcode_report()
    except (MorphismError, ComplexError) as e:
        raise SystemExit2(str(e))
    _write(rows, args.out, args.format)
    return 0


def cmd_ingest(args):
    try:
        curves = CurveSet.load(args.curves)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        raise SystemExit2(f"cannot read curves {args.curves}: {e}")
    try:
        pa = project_and_detect(curves, tol=args.tol)
        events = critical_radii(pa, curves.center)
        grades = sample_grades(events)
        filt = build_filtration(pa, curves.center, grades,
                                functor=args.functor.upper(),
                                field=_field(args.field))
    except GenericityError as e:
        print(f"genericity failure: {e} at {e.location}", file=sys.stderr)
        return 3
    except ValueError as e:   # no curves, or a tolerance out of range
        raise SystemExit2(f"cannot ingest {args.curves}: {e}")
    payload = {
        "grades": filt.grades,
        "diagrams": [d.to_json() for d in filt.diagrams],
        "steps": [_step_json(s) for s in filt.steps],
    }
    _write(payload, args.out, args.format)
    sidecar = (args.out + ".events.json") if args.out else None
    ev = events_json(events)
    if sidecar:
        with open(sidecar, "w") as fh:
            json.dump(ev, fh, indent=2)
    else:
        print(json.dumps(ev, indent=2))
    return 0


def _step_json(step):
    if step["kind"] == "closure" and "spec" in step:
        spec = step["spec"]
        return {"kind": "closure",
                "component_map": {
                    "arcs": [list(img) for img in spec.arc_images],
                    "circles": list(spec.circle_images)}}
    return {k: v for k, v in step.items() if k != "spec"}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="tanglekh",
        description="Khovanov homology and persistence of tangle diagrams")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--field", default="f2",
                       help="coefficients: q, f2, or fp:<p>")
        p.add_argument("--functor", default="g", choices=["g", "f"])
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--generators", action="store_true",
                       help="include homology representatives")

    p = sub.add_parser("compute", help="homology of one diagram")
    p.add_argument("diagram")
    common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("persist", help="barcodes of a filtration file")
    p.add_argument("filtration")
    common(p)
    p.set_defaults(fn=cmd_persist)

    p = sub.add_parser("ingest", help="curves file to a filtration")
    p.add_argument("curves")
    common(p)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("oracle", help="compare homology with the state sum")
    p.add_argument("diagram")
    p.add_argument("--corrupt-sign", action="store_true",
                   help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
