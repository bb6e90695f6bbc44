"""Spans and counters around the public functions of each `tlpc` layer.

The tracer wraps functions from outside the program: each wrapped function
is replaced in every `tlpc` module namespace that binds it (a
`from .typecheck import most_general_type` copies the name into the
importing module), and restored afterwards.  Generators are timed across
each `next()` call.  Spans (name, start, end, parent) are kept in memory;
self time is a span's duration minus that of its child spans.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

# The layers are the modules; these are the functions wrapped in each.
LAYERS = {
    "parser": ["parse_program", "parse_query", "parse_term", "parse_clause",
               "render", "render_types"],
    "typecheck": ["most_general_type", "most_general_type_wrt", "is_typable", "judge"],
    "unify": ["mgu_terms", "mgu_types", "match_terms", "match_types",
              "is_instance_of", "ordered_unifiable"],
    "trees": ["enumerate_skeletons", "enumerate_proof_skeletons", "is_proper_skeleton",
              "most_general_derivation_tree", "derivations", "derive_step", "answers",
              "tp_fixpoint", "tp_step", "ground_terms"],
    "srcheck": ["type_skeleton_of", "is_proper_type_skeleton", "type_properness_failure",
                "search_partition", "check_semi_generic", "check_head_condition",
                "subject_reduction_counterexamples", "check_subject_reduction_bounded",
                "monitor_derivation", "make_partition"],
    "cli": ["main", "cmd_check", "cmd_infer", "cmd_run", "cmd_sr", "cmd_skeletons"],
}

# Self-time metrics over a group of spans, beside one per layer.
GROUPS = {
    "parser.render_s": ["parser.render", "parser.render_types"],
    "trees.enum.self_s": ["trees.enumerate_skeletons", "trees.enumerate_proof_skeletons"],
    "trees.properness.self_s": ["trees.is_proper_skeleton",
                                "trees.most_general_derivation_tree"],
    "trees.derive.self_s": ["trees.derivations", "trees.derive_step", "trees.answers"],
    "trees.tp.self_s": ["trees.tp_fixpoint", "trees.tp_step", "trees.ground_terms"],
    "srcheck.typeskel.self_s": ["srcheck.type_skeleton_of"],
    "srcheck.type_proper.self_s": ["srcheck.is_proper_type_skeleton",
                                   "srcheck.type_properness_failure"],
    "srcheck.partition.self_s": ["srcheck.search_partition", "srcheck.check_semi_generic"],
    "srcheck.monitor.self_s": ["srcheck.monitor_derivation"],
}

ROOT_SPAN = "op"


def _canon(obj, names: dict):
    """A clause (or atom, term) with its variables numbered by first
    occurrence: equal for clauses that are renamings of each other."""
    if hasattr(obj, "head"):
        return (_canon(obj.head, names), tuple(_canon(a, names) for a in obj.body))
    if hasattr(obj, "pred"):
        return (obj.pred, tuple(_canon(a, names) for a in obj.args))
    if hasattr(obj, "args"):
        return (obj.name, tuple(_canon(a, names) for a in obj.args))
    return names.setdefault(obj, len(names))


class Tracer:
    """Spans of the current pass, and counters of the current operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep_spans = True
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child seconds, name id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.typed: list = []  # clauses given to the clause-typing functions
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        idx = -1
        if self.keep_spans:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0, nid]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, start, child, nid = frame
        self._stack.pop()
        dur = end - start
        self.self_s[self.names[nid]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def exclude(self, seconds: float) -> None:
        """Book-keeping time spent inside the current span that belongs to
        no layer."""
        if self._stack:
            self._stack[-1][2] += seconds

    # ------------------------------------------------------- wrapping

    def _hook(self, name: str):
        """Counter update after a call: (args, result, error) -> None."""
        c = self.counts
        if name in ("typecheck.most_general_type", "typecheck.most_general_type_wrt"):
            pos = 0 if name.endswith("most_general_type") else 1

            def typing(args, result, error):
                c["typecheck.clause_typings"] += 1
                self.typed.append(args[pos])
            return typing
        if name == "typecheck.is_typable":
            return lambda args, result, error: c.update(("typecheck.query_typings",))
        if name in ("unify.mgu_terms", "unify.mgu_types"):
            def mgu(args, result, error):
                c["unify.mgu_calls"] += 1
                c["unify.mgu_eqs"] += len(args[0])
                if error is not None:
                    c["unify.mgu_fails"] += 1
            return mgu
        if name in ("unify.match_terms", "unify.match_types"):
            return lambda args, result, error: c.update(("unify.match_calls",))
        if name == "trees.is_proper_skeleton":
            def proper(args, result, error):
                c["trees.proper_checked"] += 1
                c["trees.proper"] += result is not None
            return proper
        if name == "trees.enumerate_skeletons":
            return lambda args, result, error: c.update(("trees.skeletons",))
        if name == "trees.derivations":
            return lambda args, result, error: c.update(("trees.derivations",))
        if name == "trees.tp_step":
            def tp_step(args, result, error):
                c["trees.tp.iterations"] += 1
                if result is not None:
                    c["trees.tp.atoms_produced"] += len(result.atoms)
                    c["trees.tp.rederived"] += len(result.atoms & args[1].atoms)
            return tp_step
        if name == "trees.tp_fixpoint":
            def tp_fixpoint(args, result, error):
                if result is not None:
                    c["trees.tp.atoms"] += len(result.atoms)
            return tp_fixpoint
        if name == "trees.ground_terms":
            def ground_terms(args, result, error):
                if result is not None:
                    c["trees.tp.universe_terms"] += len(result)
            return ground_terms
        if name == "srcheck.type_skeleton_of":
            return lambda args, result, error: c.update(("srcheck.type_skeletons",))
        return None

    def _wrap(self, fn, name: str, generator: bool):
        nid = self.name_id(name)
        hook = self._hook(name)
        enter, exit_, exclude = self.enter, self.exit, self.exclude
        clock = time.perf_counter
        materialize = name in ("unify.mgu_terms", "unify.mgu_types")

        if generator:
            def traced_iter(it):
                while True:
                    frame = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        exit_(frame)
                        return
                    except BaseException:
                        exit_(frame)
                        raise
                    exit_(frame)
                    if hook is not None:
                        t = clock()
                        hook((), item, None)
                        exclude(clock() - t)
                    yield item

            def gen_wrapper(*args, **kwargs):
                return traced_iter(fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if materialize:
                args = (list(args[0]),) + args[1:]
            frame = enter(nid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                exit_(frame)
                if hook is not None:
                    t = clock()
                    hook(args, result, error)
                    exclude(clock() - t)
        return wrapper

    def install(self) -> None:
        import importlib
        import inspect
        layers = {layer: importlib.import_module(f"tlpc.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "tlpc" or n.startswith("tlpc.")]
        for layer, names in LAYERS.items():
            mod = layers[layer]
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:  # removed from the program: its metrics read 0
                    continue
                wrapped = self._wrap(fn, f"{layer}.{fname}", inspect.isgeneratorfunction(fn))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # ------------------------------------------------------- results

    def take_op(self) -> tuple[dict[str, float], Counter]:
        """Self times and counters of the operation just finished, which are
        then reset.  Adds the repeat count of clause typings."""
        seen, repeats = set(), 0
        for clause in self.typed:
            key = _canon(clause, {})
            repeats += key in seen
            seen.add(key)
        self.counts["typecheck.clause_repeats"] += repeats
        out = dict(self.self_s), Counter(self.counts)
        self.self_s.clear()
        self.counts.clear()
        self.typed.clear()
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines: id, name, parent id,
        start and end in seconds.  Returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
        return len(self.span_name)


PER_LAYER = [
    # (metric, unit, better)
    ("parser.self_s", "s", "lower"),
    ("parser.render_s", "s", "lower"),
    ("typecheck.clause_typings", "count", "lower"),
    ("typecheck.clause_repeat_share", "ratio", "lower"),
    ("typecheck.query_typings", "count", "lower"),
    ("typecheck.self_s", "s", "lower"),
    ("unify.mgu_calls", "count", "lower"),
    ("unify.mgu_fail_share", "ratio", "lower"),
    ("unify.eqs_per_mgu", "eqs/call", "lower"),
    ("unify.match_calls", "count", "lower"),
    ("unify.self_s", "s", "lower"),
    ("trees.skeletons", "count", "lower"),
    ("trees.proper_share", "ratio", "higher"),
    ("trees.enum.self_s", "s", "lower"),
    ("trees.properness.self_s", "s", "lower"),
    ("trees.derivations", "count", "lower"),
    ("trees.derive.self_s", "s", "lower"),
    ("trees.tp.iterations", "count", "lower"),
    ("trees.tp.atoms_produced", "count", "lower"),
    ("trees.tp.rederived_share", "ratio", "lower"),
    ("trees.tp.universe_terms", "count", "lower"),
    ("trees.tp.self_s", "s", "lower"),
    ("srcheck.type_skeletons", "count", "lower"),
    ("srcheck.typeskel.self_s", "s", "lower"),
    ("srcheck.type_proper.self_s", "s", "lower"),
    ("srcheck.partition.self_s", "s", "lower"),
    ("srcheck.monitor.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counters that must repeat exactly from pass to pass.
EXACT = [m for m, unit, _ in PER_LAYER if unit in ("count", "ratio", "eqs/call")]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: dict[str, float], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass from its summed self times and counters
    (trace.overhead_s is added by the caller)."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, s in self_s.items():
        by_layer[name.split(".")[0]] += s
    out = {f"{layer}.self_s": by_layer[layer]
           for layer in ("parser", "typecheck", "unify")}
    # the operation's own span belongs to the front end
    out["cli.self_s"] = by_layer["cli"] + by_layer[ROOT_SPAN]
    for metric, names in GROUPS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    out["typecheck.clause_typings"] = counts["typecheck.clause_typings"]
    out["typecheck.clause_repeat_share"] = _share(counts["typecheck.clause_repeats"],
                                                  counts["typecheck.clause_typings"])
    out["typecheck.query_typings"] = counts["typecheck.query_typings"]
    out["unify.mgu_calls"] = counts["unify.mgu_calls"]
    out["unify.mgu_fail_share"] = _share(counts["unify.mgu_fails"], counts["unify.mgu_calls"])
    out["unify.eqs_per_mgu"] = _share(counts["unify.mgu_eqs"], counts["unify.mgu_calls"])
    out["unify.match_calls"] = counts["unify.match_calls"]
    out["trees.skeletons"] = counts["trees.skeletons"]
    out["trees.proper_share"] = _share(counts["trees.proper"], counts["trees.proper_checked"])
    out["trees.derivations"] = counts["trees.derivations"]
    out["trees.tp.iterations"] = counts["trees.tp.iterations"]
    out["trees.tp.atoms_produced"] = counts["trees.tp.atoms_produced"]
    out["trees.tp.rederived_share"] = _share(counts["trees.tp.rederived"],
                                             counts["trees.tp.atoms_produced"])
    out["trees.tp.universe_terms"] = counts["trees.tp.universe_terms"]
    out["srcheck.type_skeletons"] = counts["srcheck.type_skeletons"]
    return out
