"""Span tracing of expodom's layers, installed from outside the program.

``install()`` wraps every public function of the layer modules, plus the
per-item boundary of the verification harness, and rebinds each wrapped
function under every name an expodom module holds it by, and in every
module-level dict that holds it as a value (``family._APPLICABLE``), so
calls between modules, inside a module and through dispatch tables all pass
through the wrapper.  A span is
(name, start, end, parent, size): size is the order of the first graph
argument, or 0.  Spans stay in flat arrays in memory and are written out
once, when the run ends.  ``arith`` gets no spans: a run makes millions of
``coeff`` and ``Dyadic`` calls, and their cost stays in the caller's self
time.

``summarize()`` turns the written spans into per-layer metrics.  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans add up to the root span (``cli.main``).
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

LAYERS = (
    "simplex",
    "lp",
    "solvers",
    "weights",
    "graph",
    "canon",
    "enumeration",
    "family",
    "harness",
    "graph6",
    "cli",
)
# the one private function that is a layer boundary: one verification item
ITEM = "harness._mp_item"

_SPAN_ARRAYS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"), ("size", "i"))


class Recorder:
    """Spans and argument-derived facts of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {key: array(code) for key, code in _SPAN_ARRAYS}
        self.stack = [-1]
        self.lp_values: dict = {}
        self.item_graph6: dict[int, str] = {}
        self.facts = {
            "simplex.cells": 0,
            "simplex.den_bits_max": 0,
            "solvers.searches": 0,
            "solvers.seed_hits": 0,
            "solvers.k_levels": 0,
            "enumeration.orders": [],
        }

    def wrap(self, qualname: str, func, graph_type):
        """A wrapper that records one span per call (per ``next`` for a
        generator function) and then runs the fact hook, if any."""
        name_id = len(self.names)
        self.names.append(qualname)
        spans = self.spans
        names, starts, ends = spans["name"], spans["start"], spans["end"]
        parents, sizes = spans["parent"], spans["size"]
        stack = self.stack
        now = time.monotonic_ns
        hook = getattr(self, "_hook_" + qualname.replace(".", "_"), None)

        def open_span(args):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            sizes.append(args[0].n if args and type(args[0]) is graph_type else 0)
            ends.append(0)
            stack.append(index)
            starts.append(now())
            return index

        def close_span(index):
            ends[index] = now()
            stack.pop()

        if inspect.isgeneratorfunction(func):

            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    index = open_span(args)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            index = open_span(args)
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(index)
            if hook is not None:
                hook(index, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- fact hooks: counts computed from arguments and public results -------

    def _simplex(self, args, result, width):
        m = len(args[0])
        self.facts["simplex.cells"] += m * width
        if result.status == "optimal":
            values = list(result.x) + list(result.y or ()) + [result.objective]
            bits = max(q.denominator.bit_length() for q in values)
            if bits > self.facts["simplex.den_bits_max"]:
                self.facts["simplex.den_bits_max"] = bits

    def _hook_simplex_solve_min_geq(self, index, args, result):
        a, b, c = args
        self._simplex(args, result, len(c) + 2 * len(a) + 1)

    def _hook_simplex_solve_max_leq(self, index, args, result):
        a, b, c = args
        self._simplex(args, result, len(c) + len(a) + 1)

    def _hook_lp_fractional_porous_number(self, index, args, result):
        self.lp_values[args[0]] = result

    def _search(self, args, result):
        lp = self.lp_values.get(args[0])
        if lp is None:  # disconnected input: the LP ran per component
            return
        seed = max(1, math.ceil(lp))
        self.facts["solvers.searches"] += 1
        self.facts["solvers.seed_hits"] += result.value == seed
        self.facts["solvers.k_levels"] += result.value - seed + 1

    def _hook_solvers_exponential_domination_number(self, index, args, result):
        self._search(args, result)

    def _hook_solvers_porous_exponential_domination_number(self, index, args, result):
        self._search(args, result)

    def _hook_enumeration_enumerate_subcubic_trees(self, index, args, result):
        self.facts["enumeration.orders"].append(args[0])

    def _hook_harness__mp_item(self, index, args, result):
        self.item_graph6[index] = args[0][1]

    # -- output ----------------------------------------------------------------

    def dump(self, prefix: str, end_facts: dict) -> None:
        for key, _code in _SPAN_ARRAYS:
            with open(f"{prefix}.{key}", "wb") as handle:
                self.spans[key].tofile(handle)
        facts = dict(self.facts, **end_facts)
        facts.pop("enumeration.orders")
        meta = {
            "names": self.names,
            "facts": facts,
            "item_graph6": {str(k): v for k, v in self.item_graph6.items()},
        }
        with open(f"{prefix}.json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def _targets(module):
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(module).items()):
        qualname = f"{layer}.{attr}"
        if (
            (not attr.startswith("_") or qualname == ITEM)
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield qualname, obj


def install() -> Recorder:
    """Wrap the layer functions of the already imported expodom package."""
    from expodom.graph import Graph

    recorder = Recorder()
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"expodom.{layer}"]
        for qualname, func in _targets(module):
            wrapped[id(func)] = recorder.wrap(qualname, func, Graph)
    modules = [m for k, m in sys.modules.items() if k == "expodom" or k.startswith("expodom.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                setattr(module, attr, replacement)
            elif type(obj) is dict:
                for key, value in obj.items():
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    return recorder


def end_facts(recorder: Recorder) -> dict:
    """Facts read once the command has returned: cache and memo sizes."""
    from expodom import enumeration, family, lp

    info = lp.fractional_porous_number.__wrapped__.cache_info()
    classes = 0
    for n in sorted(set(recorder.facts["enumeration.orders"])):
        classes += len(enumeration._subcubic_trees_cached(n))
    memo = sum(
        len(getattr(family, name))
        for name in ("_GAMMA", "_GAMMA_E", "_FORCED", "_RESTRICTED", "_TAU", "_RECOGNIZE")
    )
    return {
        "lp.cache_hits": info.hits,
        "lp.cache_misses": info.misses,
        "enumeration.classes": classes,
        "family.memo_entries": memo,
    }


# -- summary, computed by the benchmark process from the written files -------


def load(prefix: str):
    spans = {}
    for key, code in _SPAN_ARRAYS:
        values = array(code)
        with open(f"{prefix}.{key}", "rb") as handle:
            data = handle.read()
        values.frombytes(data)
        spans[key] = values
    with open(f"{prefix}.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    return spans, meta


def summarize(prefix: str) -> dict:
    """Per-layer metrics of one traced command (times in seconds)."""
    spans, meta = load(prefix)
    names = meta["names"]
    layer_of = [qual.split(".", 1)[0] for qual in names]
    name_ids, starts, ends = spans["name"], spans["start"], spans["end"]
    parents, sizes = spans["parent"], spans["size"]
    count = len(name_ids)
    child_ns = [0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child_ns[p] += ends[i] - starts[i]

    self_ns = dict.fromkeys(LAYERS, 0)
    calls_by_name = [0] * len(names)
    incl_by_name = [0] * len(names)
    canon_vertices = 0
    item_max = (0, -1)
    for i in range(count):
        k = name_ids[i]
        dur = ends[i] - starts[i]
        layer = layer_of[k]
        self_ns[layer] += dur - child_ns[i]
        calls_by_name[k] += 1
        p = parents[i]
        # inclusive time only for outermost spans of a function (no recursion)
        if p < 0 or name_ids[p] != k:
            incl_by_name[k] += dur
        if layer == "canon" and (p < 0 or layer_of[name_ids[p]] != "canon"):
            canon_vertices += sizes[i]
        if names[k] == ITEM and dur > item_max[0]:
            item_max = (dur, i)

    def calls(*quals):
        return sum(calls_by_name[names.index(q)] for q in quals if q in names)

    def incl_s(*quals):
        return sum(incl_by_name[names.index(q)] for q in quals if q in names) / 1e9

    def layer_calls(layer):
        return sum(c for k, c in enumerate(calls_by_name) if layer_of[k] == layer)

    facts = meta["facts"]
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    out.update(
        {
            "simplex.calls": calls("simplex.solve_min_geq", "simplex.solve_max_leq"),
            "simplex.cells": facts["simplex.cells"],
            "simplex.den_bits_max": facts["simplex.den_bits_max"],
            "lp.calls": calls("lp.fractional_porous_number"),
            "lp.cache_hits": facts["lp.cache_hits"],
            "lp.cache_misses": facts["lp.cache_misses"],
            "lp.solves": calls("lp.solve_exact"),
            "lp.build_s": incl_s("lp.build_porous_lp"),
            "solvers.gamma_calls": calls("solvers.domination_number"),
            "solvers.gamma_s": incl_s("solvers.domination_number"),
            "solvers.gamma_e_calls": calls("solvers.exponential_domination_number"),
            "solvers.gamma_e_s": incl_s("solvers.exponential_domination_number"),
            "solvers.gamma_e_star_calls": calls("solvers.porous_exponential_domination_number"),
            "solvers.gamma_e_star_s": incl_s("solvers.porous_exponential_domination_number"),
            "solvers.searches": facts["solvers.searches"],
            "solvers.seed_hits": facts["solvers.seed_hits"],
            "solvers.k_levels": facts["solvers.k_levels"],
            "weights.calls": layer_calls("weights"),
            "graph.bfs_calls": calls("graph.bfs_distances", "graph.bfs_distances_excluding"),
            "canon.calls": layer_calls("canon"),
            "canon.vertices": canon_vertices,
            "enumeration.sequences": calls("enumeration.tree_from_level_sequence"),
            "enumeration.classes": facts["enumeration.classes"],
            "family.tau_calls": calls("family.tau"),
            "family.tau_s": incl_s("family.tau"),
            "family.guard_calls": calls(
                "family.op1_applicable", "family.op2_applicable", "family.op3_applicable"
            ),
            "family.recognize_calls": calls("family.recognize"),
            "family.memo_entries": facts["family.memo_entries"],
            "harness.items": calls(ITEM),
            "harness.item_ms_max": item_max[0] / 1e6,
            "graph6.calls": layer_calls("graph6"),
            "trace.spans": count,
            "trace.root_s": sum(ends[i] - starts[i] for i in range(count) if parents[i] < 0) / 1e9,
        }
    )
    slowest = meta["item_graph6"].get(str(item_max[1])) if item_max[1] >= 0 else None
    return {"metrics": out, "slowest_item": (item_max[0] / 1e6, slowest)}


MAXIMA = ("simplex.den_bits_max", "harness.item_ms_max")
TIMES = ("harness.item_ms_max",)  # times besides the metrics named *_s
RATIOS = {
    "solvers.seed_hit_ratio": ("solvers.seed_hits", "solvers.searches"),
    "enumeration.keep_ratio": ("enumeration.classes", "enumeration.sequences"),
}


def scale_times(summary: dict, factor: float) -> dict:
    """The summary with every time multiplied by ``factor``."""
    metrics = {
        k: v * factor if k.endswith("_s") or k in TIMES else v
        for k, v in summary["metrics"].items()
    }
    return dict(summary, metrics=metrics)


def per_pass(values: dict[int, list[float]]) -> float:
    """The mean over each input's repetitions, summed over the inputs of one
    pass, so that inputs repeated by a time-limited run weigh no more."""
    return sum(sum(v) / len(v) for v in values.values())


def aggregate(summaries: list[tuple[int, dict]]) -> tuple[dict, str | None]:
    """Figures for one pass over the inputs from (input index, summary)
    pairs: ``per_pass`` of each metric (the maximum for the MAXIMA), the
    ratios from their parts, and the slowest item's graph6."""
    keys = summaries[0][1]["metrics"]
    out = {}
    for key in keys:
        if key in MAXIMA:
            out[key] = max(s["metrics"][key] for _, s in summaries)
            continue
        by_input: dict[int, list[float]] = {}
        for index, s in summaries:
            by_input.setdefault(index, []).append(s["metrics"][key])
        out[key] = per_pass(by_input)
    for key, (num, den) in RATIOS.items():
        out[key] = out[num] / out[den] if out[den] else 0.0
    slowest = max(s["slowest_item"] for _, s in summaries)
    return out, slowest[1]
