"""Check a ``persist`` barcode report against the ranks of its grades.

Usage: python bars_alive.py FILTRATION BARS FIELD

At every grade g and degree p, the bars of g's run alive at g (born at or
before g, dying after it) must add up to dim H^p of g's diagram, ranked
independently of the report by ``local.ranks``.  Exits 1 naming the
first grade and degree where they do not, or when the report is empty.
"""

import json
import sys

from tanglekh.algebra import field_from_name
from tanglekh.diagram import TangleDiagram
from tanglekh.local import ranks


def load(path):
    with open(path) as fh:
        return json.load(fh)


filt, rows = load(sys.argv[1]), load(sys.argv[2])
field = field_from_name(sys.argv[3])
run = 0
for k, (g, d) in enumerate(zip(filt["grades"], filt["diagrams"])):
    if k and filt["steps"][k - 1]["kind"] == "break":
        run += 1
    dims = {}
    for (p, _), r in ranks(TangleDiagram.from_json(d), field).items():
        dims[p] = dims.get(p, 0) + r
    alive = {}
    for row in rows:
        if row["run"] == run and row["birth"] <= g and (
                row["death"] is None or g < row["death"]):
            alive[row["p"]] = alive.get(row["p"], 0) + row["multiplicity"]
    if alive != dims:
        sys.exit(f"grade {g}: bars alive {alive} != ranks {dims}")
if not rows:
    sys.exit("no bars")
print(f"{len(rows)} bars, alive at every grade as the ranks say")
