"""Spans around the calls into each fotensor layer, recorded from outside
the package.

`Tracer.install` replaces each layer's public function, in every fotensor
module namespace that holds it, by a wrapper that records a span: name,
start, end, parent span and request id. Spans stay in memory until the run
ends. A layer's self time is its spans' duration minus the time their child
spans cover; `summarize` turns spans into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# Layer name -> (module that defines the function, function name).
LAYERS = {
    "cli": ("fotensor.cli", "main"),
    "languages": ("fotensor.languages", "enumerate_language"),
    "parser": ("fotensor.parser", "parse_formula"),
    "prenex": ("fotensor.prenex", "to_prenex"),
    "tensors.compile": ("fotensor.tensors", "compile_formula"),
    "optimize": ("fotensor.optimize", "optimize"),
    "tensors.dump": ("fotensor.tensors", "dump_expr"),
    "models": ("fotensor.models", "build_word_model"),
    "trees": ("fotensor.trees", "build_tree_model"),
    "tensors.embed": ("fotensor.tensors", "embed_model"),
    "tensors.eval": ("fotensor.tensors", "eval_tensor"),
    "oracle": ("fotensor.oracle", "tarski_eval"),
}
# eval_tensor on a plan that `optimize` returned is its own span name.
EVAL_OPT = "tensors.eval_opt"
SPAN_NAMES = (*LAYERS, EVAL_OPT)
HARNESS = "harness"

# Span fields, kept as lists for cheap recording.
NAME, START, END, PARENT, REQUEST, FAILED, PAYLOAD = range(7)


class Tracer:
    """Records spans while installed; `uninstall` restores every function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._optimized: dict[int, object] = {}
        self._request = -1

    def install(self) -> None:
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "fotensor" or vars(module).get(attr) is not original:
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def request(self, request_id: int, fn, *args):
        """Run one benchmark request under a root span."""
        self._request = request_id
        return self._call(HARNESS, fn, args, {})[0]

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        span = [name, 0, 0, stack[-1] if stack else -1, self._request, False, None]
        stack.append(len(spans))
        spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), span
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, layer, fn):
        spans, stack, optimized = self.spans, self._stack, self._optimized

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if layer == "tensors.eval" and optimized.get(id(args[0])) is args[0]:
                name = EVAL_OPT
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)  # recursion stays in the caller's span
            result, span = self._call(name, fn, args, kwargs)
            # Keep what the counts need; they are computed when the run ends.
            if layer == "optimize":
                optimized[id(result)] = result
                span[PAYLOAD] = (args[0], result)
            elif layer == "tensors.compile":
                span[PAYLOAD] = result
            elif name == "tensors.eval":
                span[PAYLOAD] = (args[0], args[1])
            return result

        return traced


def plan_nodes(plan, leaf_type) -> int:
    """Number of plan nodes: dataclass instances reachable through dataclass
    fields and tuples, not counting instances of leaf_type (variables)."""
    count, todo = 0, [plan]
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            todo.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(node, leaf_type):
            count += 1
            todo.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


def prefix_length(plan) -> int:
    """Number of sum-over-domain nodes (those with a bound `var` and a
    `body`) from the root of a plan down."""
    k = 0
    while dataclasses.is_dataclass(plan) and {"var", "body"} <= {f.name for f in dataclasses.fields(plan)}:
        k += 1
        plan = plan.body
    return k


def summarize(spans, leaf_type) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from closed spans: name -> (value, unit)."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    metrics: dict[str, tuple[float, str]] = {}
    for name in (*SPAN_NAMES, HARNESS):
        mine = [i for i, s in enumerate(spans) if s[NAME] == name]
        self_ns = sum(spans[i][END] - spans[i][START] - covered[i] for i in mine)
        metrics[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
        if name != HARNESS:
            metrics[f"{name}.calls"] = (len(mine), "count")
            metrics[f"{name}.errors"] = (sum(spans[i][FAILED] for i in mine), "count")

    evals = [s[PAYLOAD] for s in spans if s[NAME] == "tensors.eval" and s[PAYLOAD]]
    domains = [model.basis_size for _, model in evals]
    prefix: dict[int, int] = {}
    assignments = 0
    for (plan, _), n in zip(evals, domains):
        if id(plan) not in prefix:
            prefix[id(plan)] = prefix_length(plan)
        assignments += n ** prefix[id(plan)]
    eval_ns = metrics["tensors.eval.self_ms"][0] * 1e6
    metrics["tensors.eval.max_domain"] = (max(domains, default=0), "count")
    metrics["tensors.eval.assignments"] = (assignments, "count")
    metrics["tensors.eval.ns_per_assignment"] = (eval_ns / assignments if assignments else 0.0, "ns")

    compiled = [s[PAYLOAD] for s in spans if s[NAME] == "tensors.compile" and s[PAYLOAD]]
    metrics["tensors.compile.plan_nodes"] = (_mean(plan_nodes(p, leaf_type) for p in compiled), "count")
    optimized = [s[PAYLOAD] for s in spans if s[NAME] == "optimize" and s[PAYLOAD]]
    metrics["optimize.plan_nodes"] = (_mean(plan_nodes(out, leaf_type) for _, out in optimized), "count")
    changed = sum(given != out for given, out in optimized)
    metrics["optimize.changed_ratio"] = (changed / len(optimized) if optimized else 0.0, "ratio")
    return metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
