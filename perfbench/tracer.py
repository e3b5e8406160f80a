"""Outside-in span and counter recorder for the qloop layers.

The benchmark records per-layer spans without touching `src/`: a job
process wraps the public functions of each measured module, runs
`qloop.cli.main` inside a root span named `cli`, and writes its spans
out when the command ends.  Run as a script it does exactly that for one
command and writes the trace as the last line of stderr, prefixed by
TRACE_PREFIX:

    PYTHONPATH=src python3 perfbench/tracer.py verify tsystem --type A3 ...

A wrapper is installed on every binding its layer is reached through.
`preproj` imports `count_subrep_tuples` and `interpolate_at_one` by
name, so its bindings get spans of their own, apart from the ones in
`quiverrep`; functions that are looked up as module globals, such as
`linalg.rref`, `cluster.mutate` and `engine.gr_series`, are patched on
their module, and the `LPoly` operators on the class.  The renderers are
patched where `cli` imported them.  `sl2` and `cartan` are not wrapped.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_PREFIX = "perfbench-trace "

# Per-layer metrics of a traced pass, by name, with their units.
PER_LAYER = {
    "lpoly.mul.calls": "count",
    "lpoly.mul.self_s": "s",
    "lpoly.mul.term_pairs": "count",
    "lpoly.exact_div.calls": "count",
    "lpoly.exact_div.self_s": "s",
    "lpoly.exact_div.long_calls": "count",
    "linalg.rref.calls_q": "count",
    "linalg.rref.calls_fp": "count",
    "linalg.rref.self_s_q": "s",
    "linalg.rref.self_s_fp": "s",
    "linalg.rref.cells": "count",
    "quiverrep.count_subrep_tuples.calls": "count",
    "quiverrep.count_subrep_tuples.self_s": "s",
    "quiverrep.grassmannian_euler.calls": "count",
    "quiverrep.grassmannian_euler.self_s": "s",
    "quiverrep.grassmannian_euler.zero_frac": "fraction",
    "quiverrep.indecomposable_rep.calls": "count",
    "quiverrep.indecomposable_rep.self_s": "s",
    "quiverrep.interpolate_at_one.points": "count",
    "preproj.injective_module.calls": "count",
    "preproj.injective_module.self_s": "s",
    "preproj.count_subrep_tuples.calls": "count",
    "preproj.count_subrep_tuples.self_s": "s",
    "preproj.euler.calls": "count",
    "preproj.euler.zero_frac": "fraction",
    "preproj.qchar.self_s": "s",
    "cluster.mutate.calls": "count",
    "cluster.mutate.self_s": "s",
    "cluster.enumerate_exchange_graph.self_s": "s",
    "cluster.clusters": "count",
    "cluster.new_seed_frac": "fraction",
    "cluster.f_polynomial_and_gvector.calls": "count",
    "cluster.f_polynomial_and_gvector.self_s": "s",
    "engine.kr_qchar.self_s": "s",
    "engine.gr_series.calls": "count",
    "engine.gr_series.self_s": "s",
    "engine.verify_l1.self_s": "s",
    "ymono.render.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.layer_frac": "fraction",
    "trace.overhead_s": "s",
}


def _add(counters: dict, key: str, n: int):
    counters[key] = counters.get(key, 0) + n


class Recorder:
    """Spans kept in memory, and counters, for one process.

    A span is (name id, start ns, end ns, index of the parent span or -1).
    Calls of a leaf function, one that calls nothing wrapped, are not
    kept one by one: they are summed per (parent span, name), which keeps
    the million `linalg.rref` calls of one E6 job cheap to record.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []
        self.leaves: dict = {}
        self.counters: dict = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None, leaf=False):
        """fn with a span around every call.

        name is a string or a function of (args, kwargs) giving one;
        count(counters, args, kwargs, result) adds to the counters after
        a call that returned.
        """
        spans, leaves, stack = self.spans, self.leaves, self._stack
        clock, counters, ident = self.clock, self.counters, self._id
        if callable(name):
            def name_id(args, kwargs):
                return ident(name(args, kwargs))
        else:
            fixed = ident(name)

            def name_id(args, kwargs):
                return fixed

        def leaf_span(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                key = (stack[-1], name_id(args, kwargs))
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0]
                agg[0] += 1
                agg[1] += end - start
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id(args, kwargs), start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper = leaf_span if leaf else span
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        return {"names": self.names,
                "spans": [x for s in self.spans for x in s],
                "leaves": [[p, nid, calls, ns]
                           for (p, nid), (calls, ns) in self.leaves.items()],
                "counters": self.counters}


# --- counters -------------------------------------------------------------

def _term_pairs(counters, args, kwargs, result):
    a, b = args
    _add(counters, "lpoly.mul.term_pairs",
         len(a) * (len(b) if hasattr(b, "terms") else 1))


def _long_division(counters, args, kwargs, result):
    _add(counters, "lpoly.exact_div.long_calls", int(len(args[1]) > 1))


def _rref_cells(counters, args, kwargs, result):
    rows = args[0]
    _add(counters, "linalg.rref.cells", len(rows) * len(rows[0]) if rows
         else 0)


def _zero_results(key):
    def count(counters, args, kwargs, result):
        _add(counters, key, int(result == 0))
    return count


def _points(counters, args, kwargs, result):
    _add(counters, "quiverrep.interpolate_at_one.points", len(args[0]))


def _clusters(counters, args, kwargs, result):
    _add(counters, "cluster.clusters", result.n_clusters())


def install(rec: Recorder):
    """Wrap every measured binding; returns qloop.cli.main in a `cli` span."""
    from qloop import cli, cluster, engine, linalg, lpoly, preproj, quiverrep

    def rref_name(args, kwargs):
        # every caller passes rref(rows, field) positionally
        return ("linalg.rref.fp" if isinstance(args[1], linalg.GF)
                else "linalg.rref.q")

    targets = [
        (lpoly.LPoly, "__mul__", "lpoly.mul", _term_pairs),
        (lpoly.LPoly, "__rmul__", "lpoly.mul", _term_pairs),
        (lpoly.LPoly, "exact_div", "lpoly.exact_div", _long_division),
        (quiverrep, "count_subrep_tuples", "quiverrep.count_subrep_tuples",
         None),
        (quiverrep, "grassmannian_euler", "quiverrep.grassmannian_euler",
         _zero_results("quiverrep.grassmannian_euler.zeros")),
        (quiverrep, "indecomposable_rep", "quiverrep.indecomposable_rep",
         None),
        (quiverrep, "interpolate_at_one", "quiverrep.interpolate_at_one",
         _points),
        (preproj, "count_subrep_tuples", "preproj.count_subrep_tuples", None),
        (preproj, "interpolate_at_one", "preproj.interpolate_at_one",
         _zero_results("preproj.euler.zeros")),
        (preproj, "injective_module", "preproj.injective_module", None),
        (preproj, "fundamental_qchar", "preproj.qchar", None),
        (preproj, "standard_qchar", "preproj.qchar", None),
        (cluster, "mutate", "cluster.mutate", None),
        (cluster, "enumerate_exchange_graph",
         "cluster.enumerate_exchange_graph", _clusters),
        (cluster, "f_polynomial_and_gvector",
         "cluster.f_polynomial_and_gvector", None),
        (cluster, "classify_finite_type", "cluster.classify_finite_type",
         None),
        (engine, "kr_qchar", "engine.kr_qchar", None),
        (engine, "verify_tsystem", "engine.verify_tsystem", None),
        (engine, "gr_series", "engine.gr_series", None),
        (engine, "verify_l1", "engine.verify_l1", None),
        (engine, "cluster_fpoly", "engine.cluster_fpoly", None),
        (engine, "level1_graph", "engine.level1_graph", None),
        (cli, "poly_to_json", "ymono.render", None),
        (cli, "render_text", "ymono.render", None),
        (cli, "render_latex", "ymono.render", None),
    ]
    for owner, attr, name, count in targets:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, count))
    linalg.rref = rec.wrap(linalg.rref, rref_name, _rref_cells, leaf=True)
    return rec.wrap(cli.main, "cli")


# --- reading traces ---------------------------------------------------------

def summarize(traces) -> dict:
    """Sum spans and counters over job traces.

    Returns per span name its calls and total and self seconds, where
    self time is a span's duration minus the durations of its children;
    the number of calls per (parent name, child name); the counters; and
    the total duration of the root spans, the in-process time.
    """
    spans, edges, counters, root_ns = {}, {}, {}, 0

    def tally(parent, name, calls, total_ns, self_ns):
        s = spans.setdefault(name, [0, 0, 0])
        s[0] += calls
        s[1] += total_ns
        s[2] += self_ns
        edges[(parent, name)] = edges.get((parent, name), 0) + calls

    for tr in traces:
        names, flat = tr["names"], tr["spans"]
        recs = [flat[k:k + 4] for k in range(0, len(flat), 4)]
        child_ns = [0] * len(recs)
        for _, start, end, parent in recs:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                root_ns += end - start
        for parent, nid, calls, ns in tr["leaves"]:
            if parent >= 0:
                child_ns[parent] += ns
            pname = names[recs[parent][0]] if parent >= 0 else None
            tally(pname, names[nid], calls, ns, ns)
        for k, (nid, start, end, parent) in enumerate(recs):
            pname = names[recs[parent][0]] if parent >= 0 else None
            tally(pname, names[nid], 1, end - start, end - start - child_ns[k])
        for key, n in tr["counters"].items():
            _add(counters, key, n)
    return {"spans": {n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                      for n, (c, t, s) in spans.items()},
            "edges": edges, "counters": counters, "root_s": root_ns / 1e9}


def layer_metrics(summary: dict) -> dict:
    """The span-derived PER_LAYER metrics of a summary."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    enum_mutations = summary["edges"].get(
        ("cluster.enumerate_exchange_graph", "cluster.mutate"), 0)
    root_s = summary["root_s"]
    out = {
        "lpoly.mul.calls": calls("lpoly.mul"),
        "lpoly.mul.self_s": self_s("lpoly.mul"),
        "lpoly.mul.term_pairs": counters.get("lpoly.mul.term_pairs", 0),
        "lpoly.exact_div.calls": calls("lpoly.exact_div"),
        "lpoly.exact_div.self_s": self_s("lpoly.exact_div"),
        "lpoly.exact_div.long_calls":
            counters.get("lpoly.exact_div.long_calls", 0),
        "linalg.rref.calls_q": calls("linalg.rref.q"),
        "linalg.rref.calls_fp": calls("linalg.rref.fp"),
        "linalg.rref.self_s_q": self_s("linalg.rref.q"),
        "linalg.rref.self_s_fp": self_s("linalg.rref.fp"),
        "linalg.rref.cells": counters.get("linalg.rref.cells", 0),
        "quiverrep.grassmannian_euler.zero_frac": ratio(
            counters.get("quiverrep.grassmannian_euler.zeros", 0),
            calls("quiverrep.grassmannian_euler")),
        "quiverrep.interpolate_at_one.points":
            counters.get("quiverrep.interpolate_at_one.points", 0),
        "preproj.euler.calls": calls("preproj.interpolate_at_one"),
        "preproj.euler.zero_frac": ratio(
            counters.get("preproj.euler.zeros", 0),
            calls("preproj.interpolate_at_one")),
        "preproj.qchar.self_s": self_s("preproj.qchar"),
        "cluster.clusters": counters.get("cluster.clusters", 0),
        "cluster.new_seed_frac": ratio(counters.get("cluster.clusters", 0),
                                       enum_mutations),
        "ymono.render.self_s": self_s("ymono.render"),
        "cli.self_s": self_s("cli"),
        "trace.layer_frac": ratio(root_s - self_s("cli"), root_s),
    }
    for name in ("quiverrep.count_subrep_tuples",
                 "quiverrep.grassmannian_euler", "quiverrep.indecomposable_rep",
                 "preproj.injective_module", "preproj.count_subrep_tuples",
                 "cluster.mutate", "cluster.f_polynomial_and_gvector",
                 "engine.gr_series"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in ("cluster.enumerate_exchange_graph", "engine.kr_qchar",
                 "engine.verify_l1"):
        out[name + ".self_s"] = self_s(name)
    return out


def main(argv) -> int:
    rec = Recorder()
    traced_main = install(rec)
    try:
        return traced_main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(rec.to_json()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
