"""Per-layer tracing from outside the program.

Each traced function is replaced, in every monoidkit module that binds it
(the defining module and any module that imported the name directly, such
as cli, special and constructions), by a wrapper that records calls, total
time and self time.  Self time is the call's duration minus the time spent
in traced calls nested inside it.  Methods are wrapped on their class.
Size counters are read from each call's arguments or result.  The program's
source is not touched; wrappers live only in the benchmark's process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, counters), counters being a function
# (add, args, result) that adds sizes under metric names.
TARGETS = [
    ("rewriting", "knuth_bendix", lambda add, a, r: (
        add("rewriting.knuth_bendix.steps", r.steps),
        add("rewriting.knuth_bendix.rules", len(r.system.rules)))),
    ("rewriting", "normalize", None),
    ("rewriting", "equal_words", lambda add, a, r: add(
        "rewriting.equal_words.steps", r.budget_spent)),
    ("special", "compute_delta", lambda add, a, r: add(
        "special.delta_words", len(r.delta))),
    ("special", "certify_invertible", None),
    ("special", "normalize_special", None),
    ("special", "transversal_factor", None),
    ("cayley", "cayley_ball", lambda add, a, r: (
        add("cayley.cayley_ball.vertices", len(r.vertices)),
        add("cayley.cayley_ball.arcs", len(r.arcs)))),
    ("cayley", "scc_condense", lambda add, a, r: add(
        "cayley.scc_condense.sccs", len(r.sccs))),
    ("cayley", "check_unique_entrance", None),
    ("cayley", "cayley_complex_chain", lambda add, a, r: add(
        "cayley.cayley_complex_chain.cells", len(r.cell_base_vertices))),
    ("homology", "rank_exact", lambda add, a, r: (
        add("homology.rank_exact.dense_entries", a[0].rows * a[0].cols),
        add("homology.nnz", len(a[0].entries)))),
    ("homology", "smith_normal_form", None),
    ("homology", "chain_homology", None),
    ("homology", "exactness_check", None),
    ("constructions", "OPContext.factor", None),
    ("constructions", "op_normal_form", None),
    ("constructions", "op_multiply", None),
    ("constructions", "quotient_ball", None),
    ("constructions", "pair_quotient_ball", lambda add, a, r: add(
        "constructions.pair_quotient_ball.pairs", len(r.pairs))),
    ("constructions", "bass_serre_ball_amalgam", None),
    ("constructions", "bass_serre_ball_op", None),
    ("constructions", "bass_serre_forest_bi", None),
    ("constructions", "check_derivation_wellformed", None),
    ("constructions", "check_beta_section", None),
    ("cli", "main", None),
    ("words", "parse_presentation", None),
]

# reported self time -> the traced functions it sums
SELF_GROUPS = {
    "constructions.bass_serre.self_s": [
        "constructions.bass_serre_ball_amalgam",
        "constructions.bass_serre_ball_op",
        "constructions.bass_serre_forest_bi"],
    "constructions.derivation_checks.self_s": [
        "constructions.check_derivation_wellformed",
        "constructions.check_beta_section"],
}

VERDICTS = ("proven", "refuted", "unknown")


class Tracer:
    """Aggregates spans in memory: per traced function its calls, total
    and self seconds; plus size counters and verdict counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []     # child time of each open span

    def add(self, name, n):
        self.counts[name] += n

    def wrap(self, key, fn, counters):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - nested
                if children:
                    children[-1] += elapsed
            if counters is not None:
                counters(self.add, args, result)
            return result

        return traced

    def install(self):
        """Prepare a wrapper for every target wherever monoidkit binds it;
        enable() switches between the wrappers and the originals."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "monoidkit" or name.startswith("monoidkit.")]
        self._patches = []
        for module_name, attr, counters in TARGETS:
            key = f"{module_name}.{attr}"
            owner = sys.modules[f"monoidkit.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                bindings = [owner]
            else:
                bindings = modules
            original = getattr(owner, attr)
            traced = self.wrap(key, original, counters)
            for module in bindings:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original, traced))
        verdict_cls = sys.modules["monoidkit.rewriting"].Verdict
        init = verdict_cls.__init__

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.counts[f"verdicts.{obj.value}"] += 1

        self._patches.append((verdict_cls, "__init__", init, counted_init))

    def enable(self, on):
        for owner, name, original, traced in self._patches:
            setattr(owner, name, traced if on else original)

    def metrics(self, rounds, artifact_bytes, overhead_s):
        """Per-round values of every per-layer metric."""
        out = {}

        def put(name, value, unit):
            if unit != "s" and value % rounds == 0:
                value = value // rounds
            else:
                value = value / rounds
            out[name] = {"value": value, "unit": unit}

        for module_name, attr, _ in TARGETS:
            key = f"{module_name}.{attr}"
            put(f"{key}.calls", self.calls[key], "count")
            put(f"{key}.self_s", self.self_s[key], "s")
        for name, keys in SELF_GROUPS.items():
            put(name, sum(self.self_s[k] for k in keys), "s")
        for name in COUNTERS:
            put(name, self.counts[name], "count")
        for v in VERDICTS:
            put(f"verdicts.{v}", self.counts[f"verdicts.{v}"], "count")
        out["cli.artifact_bytes"] = {"value": artifact_bytes, "unit": "bytes"}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return {name: out[name] for name in PER_LAYER}

    def spans(self):
        """Aggregated spans, for the trace file."""
        return {key: {"calls": self.calls[key],
                      "total_s": self.total_s[key],
                      "self_s": self.self_s[key]}
                for key in sorted(self.calls)}


COUNTERS = [
    "rewriting.knuth_bendix.steps", "rewriting.knuth_bendix.rules",
    "rewriting.equal_words.steps", "special.delta_words",
    "cayley.cayley_ball.vertices", "cayley.cayley_ball.arcs",
    "cayley.scc_condense.sccs", "cayley.cayley_complex_chain.cells",
    "homology.rank_exact.dense_entries", "homology.nnz",
    "constructions.pair_quotient_ball.pairs",
]

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = [
    "rewriting.knuth_bendix.calls", "rewriting.knuth_bendix.self_s",
    "rewriting.knuth_bendix.steps", "rewriting.knuth_bendix.rules",
    "rewriting.normalize.calls", "rewriting.normalize.self_s",
    "rewriting.equal_words.calls", "rewriting.equal_words.self_s",
    "rewriting.equal_words.steps",
    "special.compute_delta.calls", "special.compute_delta.self_s",
    "special.certify_invertible.calls", "special.certify_invertible.self_s",
    "special.normalize_special.calls", "special.normalize_special.self_s",
    "special.transversal_factor.calls", "special.transversal_factor.self_s",
    "special.delta_words",
    "cayley.cayley_ball.calls", "cayley.cayley_ball.self_s",
    "cayley.cayley_ball.vertices", "cayley.cayley_ball.arcs",
    "cayley.scc_condense.self_s", "cayley.scc_condense.sccs",
    "cayley.check_unique_entrance.self_s",
    "cayley.cayley_complex_chain.self_s", "cayley.cayley_complex_chain.cells",
    "homology.rank_exact.calls", "homology.rank_exact.self_s",
    "homology.rank_exact.dense_entries",
    "homology.smith_normal_form.calls", "homology.smith_normal_form.self_s",
    "homology.chain_homology.self_s", "homology.exactness_check.self_s",
    "homology.nnz",
    "constructions.OPContext.factor.calls",
    "constructions.OPContext.factor.self_s",
    "constructions.op_normal_form.calls",
    "constructions.op_normal_form.self_s",
    "constructions.op_multiply.calls",
    "constructions.quotient_ball.self_s",
    "constructions.pair_quotient_ball.self_s",
    "constructions.pair_quotient_ball.pairs",
    "constructions.bass_serre.self_s",
    "constructions.derivation_checks.self_s",
    "cli.main.calls", "cli.main.self_s", "cli.artifact_bytes",
    "words.parse_presentation.self_s",
    "verdicts.proven", "verdicts.refuted", "verdicts.unknown",
    "trace.overhead_s",
]
