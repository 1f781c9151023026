"""Spans around the package's layer functions, recorded from outside.

``Tracer.install`` replaces the layer functions at the call sites the
pipeline uses with wrappers that record a span (name, start, end, parent)
and, at some boundaries, size counts.  ``Tracer.uninstall`` puts the
originals back, so untraced rounds run the unmodified code.  Spans stay
in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time
import types

# span name -> the per-layer metric its self time goes to
SELF_METRIC = {
    "resolve": "resolve.busy_s",
    "assemble": "assemble.self_s",
    "reduce.rank_only": "reduce.rank_only_s",
    "reduce.with_reps": "reduce.with_reps_s",
    "persist.chain_map": "persist.chain_map_s",
    "persist.induced": "persist.induced_s",
    "persist.rank": "persist.rank_s",
    "ingest.detect": "ingest.detect_s",
    "ingest.radii": "ingest.radii_s",
    "ingest.clip": "ingest.clip_s",
    "ingest.match": "ingest.match_s",
    "io.parse": "io.parse_s",
    "io.write": "io.write_s",
    "job": "other.self_s",
    "trace": "trace.count_s",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job]
        self.stack = []
        self.counts = {}
        self.job = None
        self._saved = []
        self._built = set()  # distinct (diagram, functor, field) of this job

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span.  ``after(result, args, kwargs)``
        takes counts once the span has closed, inside a "trace" span of
        its own so that counting is not charged to any layer."""
        counter = None if after is None else self.span("trace", after)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            idx = len(self.spans)
            rec = [name, time.perf_counter(), None, parent, self.job]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(result, args, kwargs)
            return result
        return wrapper

    def run_job(self, label, fn):
        self.job = label
        self._built = set()
        return self.span("job", fn)()

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, pkg):
        """Wrap the layer entry points of the imported package ``pkg``
        (a namespace holding the modules cli, complex, persistence,
        ingest and diagram)."""
        cli, cx, ps, ing, dg = (pkg.cli, pkg.complex, pkg.persistence,
                                pkg.ingest, pkg.diagram)

        self._patch(cx, "resolve", self.span("resolve", cx.resolve))

        def after_build(c, args, kwargs):
            self.count("assemble.generators", c.total_dim())
            self.count("assemble.nnz", sum(len(col) for cols in
                                           c.differentials.values()
                                           for col in cols))
            key = (c.diagram, c.functor, c.field)
            self.count("builds")
            if key not in self._built:
                self._built.add(key)
                self.count("builds.distinct")

        build = self.span("assemble", cx.build_complex, after_build)
        for mod in (cx, cli, ps):
            self._patch(mod, "build_complex", build)

        def after_reduce(h, args, kwargs):
            c = args[0]
            sizes = [len(g) for p in c.degrees
                     for g in c.q_blocks(p).values()]
            self.count("reduce.blocks", len(sizes))
            self.count("reduce.generators", c.total_dim())
            self.counts["reduce.largest_block"] = max(
                self.counts.get("reduce.largest_block", 0), max(sizes))

        rank_only = self.span("reduce.rank_only", cx.homology, after_reduce)
        with_reps = self.span("reduce.with_reps", cx.homology, after_reduce)

        def homology(c, representatives=True):
            fn = with_reps if representatives else rank_only
            return fn(c, representatives=representatives)

        for mod in (cx, cli):
            self._patch(mod, "homology", homology)

        for attr in ("build_psi", "cap_map", "cup_map", "saddle_map"):
            self._patch(ps, attr, self.span("persist.chain_map",
                                            getattr(ps, attr)))
        self._patch(ps, "induced_on_homology",
                    self.span("persist.induced", ps.induced_on_homology))
        self._patch(ps.FiltrationRun, "rank_table",
                    self.span("persist.rank", ps.FiltrationRun.rank_table))

        def after_detect(pa, args, kwargs):
            n = sum(s.nseg for s in pa.strands)
            self.count("ingest.segments", n)
            self.count("ingest.segment_pairs", n * (n - 1) // 2)
            self.count("ingest.crossings", len(pa.crossings))

        self._patch(cli, "project_and_detect",
                    self.span("ingest.detect", cli.project_and_detect,
                              after_detect))
        self._patch(cli, "critical_radii",
                    self.span("ingest.radii", cli.critical_radii,
                              lambda ev, a, k: self.count("ingest.events",
                                                          len(ev))))
        self._patch(cli, "sample_grades",
                    self.span("ingest.radii", cli.sample_grades))
        self._patch(ing, "clip", self.span("ingest.clip", ing.clip))
        self._patch(ing, "_closure_step",
                    self.span("ingest.match", ing._closure_step))

        parse, write = self.span("io.parse", json.load), \
            self.span("io.write", json.dump)
        self._patch(cli, "json", types.SimpleNamespace(
            load=parse, dump=write, dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError))
        for attr in ("_load_diagram", "filtration_from_json"):
            self._patch(cli, attr, self.span("io.parse", getattr(cli, attr)))
        self._patch(cli, "_write", self.span("io.write", cli._write))
        self._patch(ing.CurveSet, "load",
                    staticmethod(self.span("io.parse", ing.CurveSet.load)))
        self._patch(dg.TangleDiagram, "load",
                    staticmethod(self.span("io.parse",
                                           dg.TangleDiagram.load)))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Self time per metric: each span's duration minus the part of
        it covered by its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            key = SELF_METRIC[name]
            out[key] = out.get(key, 0.0) + (end - start - covered)
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
