"""Command line front-end.

Subcommands: compute (homology of one diagram), persist (barcodes of a
filtration), ingest (3-D curves to a filtration), oracle (homology-side
Euler characteristic vs the state sum, and the cube's ranks vs the local
algorithm's).  Exit codes: 0 success, 1 mismatch/negative verdict,
2 input validation, 3 genericity failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .algebra import field_from_name
from .complex import (BigradedHomology, ComplexError, build_complex,
                      homology, verify_d_squared)
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
        text = _json_text(payload)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)


def _json_text(value, pad=""):
    """``value`` as JSON, one item per line at the top level and in each
    list or dict nested more than two deep, the rest inline: a report
    row or a ``--generators`` entry takes one line."""
    if not isinstance(value, (dict, list, tuple)) or not value or \
            pad and not _nests(value, 2):
        return json.dumps(value, default=str)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_json_text(v, inner)}"
                 for k, v in value.items()]
    else:
        items = [_json_text(v, inner) for v in value]
    first, last = "{}" if isinstance(value, dict) else "[]"
    return f"{first}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{last}"


def _nests(value, levels):
    """Whether lists and dicts nest more than ``levels`` deep in ``value``."""
    if not isinstance(value, (dict, list, tuple)):
        return False
    items = value.values() if isinstance(value, dict) else value
    return levels == 0 or any(_nests(v, levels - 1) for v in items)


def _read(path, what, parse):
    """``parse`` of the JSON in ``path``.  A file that cannot be opened,
    decoded or parsed exits 2 with one line saying why."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, IndexError, TypeError, ValueError) as e:
        why = f"missing key {e}" if isinstance(e, KeyError) else e
        raise SystemExit2(f"cannot read {what} {path}: {why}")


def _of_type(kind, value, what):
    """``value`` if it is a ``kind``, else TypeError naming ``what``."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} is a {type(value).__name__}, "
                        f"not a {kind.__name__}")
    return value


def _diagram(data):
    return TangleDiagram.from_json(_of_type(dict, data, "a diagram"))


def _load_diagram(path):
    d = _read(path, "diagram", _diagram)
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
    if args.generators:
        try:
            c = build_complex(d, field=field)
        except ComplexError as e:
            raise SystemExit2(str(e))
        h = homology(c)
    else:   # ranks alone: no cube is built
        # imported where it is used: no other command compiles the module
        from .local import ranks
        h = BigradedHomology(field=field, n_plus=d.n_plus,
                             n_minus=d.n_minus,
                             ranks=ranks(d, field), representatives={})
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
    try:
        c = build_complex(d, field=field_from_name("q"))
    except ComplexError as e:
        raise SystemExit2(str(e))
    from .local import ranks
    # homology ranks assume d^2 = 0, so a broken complex has no homology side
    ok, where = verify_d_squared(c)
    h = homology(c, representatives=False) if ok else None
    lhs = (jones_from_homology(h) if ok
           else f"undefined, d^2 != 0 at (p, column) = {where}")
    rhs = state_sum(d)
    # any ranks have the chain-level Euler characteristic, so the ranks are
    # checked against the local algorithm, which shares no code with the cube
    bad = ok and min(h.ranks.items() ^ ranks(d, c.field).items(), default=0)
    local = (f"differ at (p, q) = {bad[0]}" if bad
             else "equal to the cube's" if ok else "undefined")
    print(f"homology side: {lhs}")
    print(f"state sum:     {rhs}")
    print(f"local ranks:   {local}")
    if ok and lhs == rhs and not bad:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def filtration_from_json(data, field=None):
    """The ``Filtration`` of a filtration file; KeyError, TypeError or
    ValueError when the file is malformed."""
    _of_type(dict, data, "a filtration")
    grades = _of_type(list, data["grades"], "grades")
    for g in grades:
        if isinstance(g, bool) or not isinstance(g, (int, float)):
            raise TypeError(f"grade {g!r} is not a number")
    diagrams = [_diagram(d)
                for d in _of_type(list, data["diagrams"], "diagrams")]
    steps = [_step_from_json(i, raw, diagrams) for i, raw in
             enumerate(_of_type(list, data.get("steps", []), "steps"))]
    return Filtration(grades=grades, diagrams=diagrams,
                      steps=steps, field=field)


def _step_from_json(i, raw, diagrams):
    """One filtration step, with JSON node labels turned into tuples."""
    try:
        kind = raw["kind"]
        if kind == "closure" and "component_map" in raw:
            cm = _of_type(dict, raw["component_map"], "a component_map")
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
                circles=op.get("circles", 0))}
        if kind == "saddle":
            site = tuple(_pair(pair) for pair in raw["site"]["from"])
            if len(site) != 2:
                raise ValueError("a saddle site is two connections")
            return {**raw, "site": {**raw["site"], "from": site}}
        if kind == "cup" and "site" in raw:
            site = raw["site"]
            if isinstance(site, bool) or not isinstance(site, int):
                raise TypeError("a cup site is the index of a free circle")
        return dict(raw)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"step {i}: malformed step {raw!r}: {e!r}") from e


def _pair(x):
    a, b = x
    return _label(a), _label(b)


def cmd_persist(args):
    field = _field(args.field)
    filt = _read(args.filtration, "filtration",
                 lambda data: filtration_from_json(data, field=field))
    try:
        rows = filt.barcode_report()
    except (MorphismError, ComplexError) as e:
        raise SystemExit2(str(e))
    _write(rows, args.out, args.format)
    return 0


def cmd_ingest(args):
    curves = _read(args.curves, "curves", CurveSet.from_json)
    try:
        pa = project_and_detect(curves, tol=args.tol)
        events = critical_radii(pa, curves.center)
        grades = sample_grades(events)
        filt = build_filtration(pa, curves.center, grades)
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
    _write(payload, args.out, "json")
    if args.out:   # stdout holds the filtration alone, for ``persist``
        _write(events_json(events), args.out + ".events.json", "json")
    return 0


def _step_json(step):
    if step["kind"] == "closure" and "spec" in step:
        spec = step["spec"]
        return {"kind": "closure",
                "component_map": {
                    "arcs": [list(img) for img in spec.arc_images],
                    "circles": list(spec.circle_images)}}
    return {k: v for k, v in step.items() if k != "spec"}


FLAGS = {
    "field": dict(default="f2", help="coefficients: q, f2, or fp:<p>"),
    "out": dict(default=None, help="output file instead of stdout"),
    "format": dict(default="json", choices=["json", "csv"]),
    "tol": dict(type=float, default=1e-9, help="crossing tolerance"),
    "generators": dict(action="store_true",
                       help="include homology representatives"),
}

# (subcommand, function, help, positional argument, the flags it reads)
COMMANDS = [
    ("compute", cmd_compute, "homology of one diagram", "diagram",
     ("field", "out", "format", "generators")),
    ("persist", cmd_persist, "barcodes of a filtration file", "filtration",
     ("field", "out", "format")),
    ("ingest", cmd_ingest, "curves file to a filtration", "curves",
     ("out", "tol")),
    ("oracle", cmd_oracle, "compare homology with the state sum", "diagram",
     ()),
]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="tanglekh",
        description="Khovanov homology and persistence of tangle diagrams")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn, help_, arg, flags in COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument(arg)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
