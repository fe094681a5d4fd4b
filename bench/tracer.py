"""Outside-in tracing of the qgl layers, installed from the benchmark's files.

``Tracer.install`` replaces chosen functions and methods of the ``qgl``
modules with wrappers, and also rebinds every name another ``qgl`` module
imported with ``from ... import`` (``repmod.rref``, ``cli.parse_element``, ...).
``uninstall`` puts every original object back.

Two kinds of wrapper:

* a span wrapper records (span id, name, start, end, parent span, query id)
  and adds the call's self time (its duration minus the part its child
  spans cover) to the name's total;
* the hot scalar operators of ``RatFunc`` and ``CycloNum`` only count calls
  and aggregate the time of their outermost call, which is charged to the
  enclosing span as child time.

Spans stay in memory until ``write_spans`` saves them.
"""

import functools
import json
from collections import Counter
from time import perf_counter_ns

from qgl import braid, cli, expr, hopf, linalg, pbwcore, repmod, rootofunity, scalars

MODULES = (scalars, pbwcore, expr, hopf, braid, linalg, repmod, rootofunity, cli)

RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse", "bar")
CYCLO_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "inverse")

# (owner, attribute, span name); the span name is also the metric prefix.
SPANS = (
    (cli, "run", "cli.run"),
    (expr, "parse", "expr.parse"),
    (expr, "parse_element", "expr.parse_element"),
    (expr, "print_canonical", "expr.print_canonical"),
    (expr, "element_to_json", "expr.element_to_json"),
    (pbwcore.Algebra, "straighten", "pbwcore.straighten"),
    (pbwcore.Algebra, "mono_product", "pbwcore.mono_product"),
    (pbwcore.Algebra, "multiply", "pbwcore.multiply"),
    (pbwcore.Algebra, "apply_hom", "pbwcore.apply_hom"),
    (pbwcore.Algebra, "a_form_coords", "pbwcore.a_form_coords"),
    (hopf.Hopf, "delta", "hopf.delta"),
    (hopf.Hopf, "antipode", "hopf.antipode"),
    (braid, "braid_t", "braid.braid_t"),
    (braid, "braid_t_inv", "braid.braid_t_inv"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (linalg, "in_span", "linalg.in_span"),
    (repmod, "simple_even_module", "repmod.simple_even_module"),
    (repmod, "kac_module", "repmod.kac_module"),
    (repmod, "simple_head", "repmod.simple_head"),
    (repmod, "singular_vectors", "repmod.singular_vectors"),
    (repmod, "submodule_closure", "repmod.submodule_closure"),
    (repmod, "quotient_module", "repmod.quotient_module"),
    (repmod, "tensor_module", "repmod.tensor_module"),
    (repmod, "rebase_to_divided_monomials", "repmod.rebase_to_divided_monomials"),
    (rootofunity, "specialize_element", "rootofunity.specialize_element"),
    (rootofunity, "specialize_module", "rootofunity.specialize_module"),
    (rootofunity, "specialize_kac", "rootofunity.specialize_kac"),
    (rootofunity, "simple_at_root", "rootofunity.simple_at_root"),
    (rootofunity, "classical_limit_check", "rootofunity.classical_limit_check"),
)

# per-layer metric name -> unit; the order is the order of the report
METRICS = {
    "scalars.ratfunc_ops": "count",
    "scalars.ratfunc_s": "s",
    "scalars.ratfunc_max_len": "count",
    "scalars.laurent_share": "ratio",
    "scalars.cyclo_ops": "count",
    "scalars.cyclo_inverse_calls": "count",
    "scalars.cyclo_s": "s",
    "scalars.evaluate_at_root_calls": "count",
    "pbwcore.straighten_calls": "count",
    "pbwcore.straighten_s": "s",
    "pbwcore.straighten_terms_out": "count",
    "pbwcore.mono_product_calls": "count",
    "pbwcore.multiply_calls": "count",
    "pbwcore.prod_cache_hit_ratio": "ratio",
    "pbwcore.apply_hom_calls": "count",
    "pbwcore.apply_hom_self_s": "s",
    "pbwcore.expand_words": "count",
    "hopf.antipode_s": "s",
    "hopf.delta_s": "s",
    "braid.braid_s": "s",
    "cli.run_self_s": "s",
    "expr.parse_s": "s",
    "expr.print_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_s": "s",
    "linalg.nullspace_calls": "count",
    "linalg.mat_mul_calls": "count",
    "linalg.mat_mul_s": "s",
    "repmod.even_module_s": "s",
    "repmod.kac_module_self_s": "s",
    "repmod.simple_head_self_s": "s",
    "repmod.closure_s": "s",
    "repmod.quotient_calls": "count",
    "repmod.quotient_keep_ratio": "ratio",
    "repmod.tensor_s": "s",
    "repmod.rebase_s": "s",
    "repmod.act_element_calls": "count",
    "repmod.module_dim_sum": "count",
    "rootofunity.specialize_module_s": "s",
    "rootofunity.specialized_entries": "count",
    "rootofunity.simple_at_root_self_s": "s",
    "rootofunity.specialize_element_s": "s",
}

# counts that depend only on the inputs; two traced runs must agree on them
DETERMINISTIC = ("scalars.ratfunc_ops", "scalars.cyclo_inverse_calls",
                 "pbwcore.straighten_calls", "linalg.rref_cells", "repmod.module_dim_sum")


class Tracer:
    """Wrappers for one traced run; not reentrant, one per process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.scalar_ns = Counter()
        self._scalar_depth = 0
        self._next_id = 0
        self._patches = []

    def set_query(self, idx):
        """Tag the spans that follow with query ``idx``."""
        self.query = idx

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._wrap(owner, attr, self._span(name, vars(owner)[attr]))
        for attr in RATFUNC_OPS:
            if (scalars.RatFunc, attr) in self._patched():
                continue  # an alias such as __radd__, already wrapped
            self._wrap(scalars.RatFunc, attr,
                       self._scalar("ratfunc", vars(scalars.RatFunc)[attr], self._on_ratfunc))
        for attr in CYCLO_OPS:
            if (scalars.CycloNum, attr) in self._patched():
                continue
            fn = vars(scalars.CycloNum)[attr]
            hook = self._on_cyclo_inverse if attr == "inverse" else None
            self._wrap(scalars.CycloNum, attr, self._scalar("cyclo", fn, hook))
        self._wrap(scalars, "evaluate_at_root",
                   self._scalar("cyclo", scalars.evaluate_at_root,
                                count="evaluate_at_root_calls"))
        self._wrap(pbwcore.Algebra, "expand_monomial",
                   self._counter(pbwcore.Algebra.expand_monomial, self._on_expand))
        self._wrap(repmod.WeightModule, "act_element",
                   self._counter(repmod.WeightModule.act_element, self._on_act))
        self._wrap(repmod.WeightModule, "__init__",
                   self._counter(repmod.WeightModule.__init__, self._on_module))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patched(self):
        return {(owner, attr) for owner, attr, _ in self._patches}

    def _wrap(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            # the same function under a second name, e.g. __radd__ = __add__
            for other, val in list(vars(owner).items()):
                if val is original and other != attr:
                    self._patches.append((owner, other, original))
                    setattr(owner, other, wrapper)
            return
        for mod in MODULES:
            for other, val in list(vars(mod).items()):
                if val is original and (mod, other) != (owner, attr):
                    self._patches.append((mod, other, original))
                    setattr(mod, other, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        spans, stack, self_ns, calls = self.spans, self.stack, self.self_ns, self.calls
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            if parent is not None:
                tracer.counts["edge:%s>%s" % (parent[1], name)] += 1
            frame = [sid, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self_ns[name] += dur - frame[2]
                calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                spans.append((sid, name, start, end,
                               parent[0] if parent is not None else None, tracer.query))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _scalar(self, group, fn, hook=None, count=None):
        tracer = self
        counts, scalar_ns, stack = self.counts, self.scalar_ns, self.stack
        key = count or group + "_ops"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if tracer._scalar_depth:
                result = fn(*args, **kwargs)
            else:
                tracer._scalar_depth = 1
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter_ns() - start
                    tracer._scalar_depth = 0
                    scalar_ns[group] += dur
                    if stack:
                        stack[-1][2] += dur
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counter(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _on_ratfunc(self, result):
        if type(result) is not scalars.RatFunc:
            return
        counts = self.counts
        counts["ratfunc_results"] += 1
        den = result.den
        if den[-1] == 1 and not any(den[:-1]):
            counts["laurent_results"] += 1
        size = max(len(result.num), len(den))
        if size > counts["ratfunc_max_len"]:
            counts["ratfunc_max_len"] = size

    def _on_cyclo_inverse(self, result):
        self.counts["cyclo_inverse_calls"] += 1

    def _on_expand(self, args, result):
        self.counts["expand_words"] += len(result)

    def _on_act(self, args, result):
        self.counts["act_element_calls"] += 1

    def _on_module(self, args, result):
        self.counts["module_dim_sum"] += len(args[3])

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric, in METRICS order, as {name: value}."""
        c, calls = self.counts, self.calls

        def s(*names):
            return sum(self.self_ns[n] for n in names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        mono = calls["pbwcore.mono_product"]
        out = {
            "scalars.ratfunc_ops": c["ratfunc_ops"],
            "scalars.ratfunc_s": self.scalar_ns["ratfunc"] / 1e9,
            "scalars.ratfunc_max_len": c["ratfunc_max_len"],
            "scalars.laurent_share": ratio(c["laurent_results"], c["ratfunc_results"]),
            "scalars.cyclo_ops": c["cyclo_ops"],
            "scalars.cyclo_inverse_calls": c["cyclo_inverse_calls"],
            "scalars.cyclo_s": self.scalar_ns["cyclo"] / 1e9,
            "scalars.evaluate_at_root_calls": c["evaluate_at_root_calls"],
            "pbwcore.straighten_calls": calls["pbwcore.straighten"],
            "pbwcore.straighten_s": s("pbwcore.straighten"),
            "pbwcore.straighten_terms_out": c["straighten_terms_out"],
            "pbwcore.mono_product_calls": mono,
            "pbwcore.multiply_calls": calls["pbwcore.multiply"],
            "pbwcore.prod_cache_hit_ratio":
                1.0 - ratio(c["edge:pbwcore.mono_product>pbwcore.straighten"], mono)
                if mono else 0.0,
            "pbwcore.apply_hom_calls": calls["pbwcore.apply_hom"],
            "pbwcore.apply_hom_self_s": s("pbwcore.apply_hom"),
            "pbwcore.expand_words": c["expand_words"],
            "hopf.antipode_s": s("hopf.antipode"),
            "hopf.delta_s": s("hopf.delta"),
            "braid.braid_s": s("braid.braid_t", "braid.braid_t_inv"),
            "cli.run_self_s": s("cli.run"),
            "expr.parse_s": s("expr.parse", "expr.parse_element"),
            "expr.print_s": s("expr.print_canonical", "expr.element_to_json"),
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_cells": c["rref_cells"],
            "linalg.rref_s": s("linalg.rref"),
            "linalg.nullspace_calls": calls["linalg.nullspace"],
            "linalg.mat_mul_calls": calls["linalg.mat_mul"],
            "linalg.mat_mul_s": s("linalg.mat_mul"),
            "repmod.even_module_s": s("repmod.simple_even_module"),
            "repmod.kac_module_self_s": s("repmod.kac_module"),
            "repmod.simple_head_self_s": s("repmod.simple_head"),
            "repmod.closure_s": s("repmod.submodule_closure"),
            "repmod.quotient_calls": calls["repmod.quotient_module"],
            "repmod.quotient_keep_ratio": ratio(c["quotient_dim_out"], c["quotient_dim_in"]),
            "repmod.tensor_s": s("repmod.tensor_module"),
            "repmod.rebase_s": s("repmod.rebase_to_divided_monomials"),
            "repmod.act_element_calls": c["act_element_calls"],
            "repmod.module_dim_sum": c["module_dim_sum"],
            "rootofunity.specialize_module_s": s("rootofunity.specialize_module"),
            "rootofunity.specialized_entries": c["specialized_entries"],
            "rootofunity.simple_at_root_self_s": s("rootofunity.simple_at_root"),
            "rootofunity.specialize_element_s": s("rootofunity.specialize_element"),
        }
        return {name: out[name] for name in METRICS}

    def write_spans(self, path):
        """One JSON line per span: id, name, start_ns, end_ns, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _on_straighten(tracer, args, result):
    tracer.counts["straighten_terms_out"] += len(result)


def _on_rref(tracer, args, result):
    rows = args[0]
    if rows:
        tracer.counts["rref_cells"] += len(rows) * len(rows[0])


def _on_quotient(tracer, args, result):
    tracer.counts["quotient_dim_in"] += args[0].dim
    tracer.counts["quotient_dim_out"] += result.dim


def _on_specialize_module(tracer, args, result):
    tracer.counts["specialized_entries"] += sum(
        len(m) * (len(m[0]) if m else 0) for m in args[0].mats.values()
    )


_HOOKS = {
    "pbwcore.straighten": _on_straighten,
    "linalg.rref": _on_rref,
    "repmod.quotient_module": _on_quotient,
    "rootofunity.specialize_module": _on_specialize_module,
}
