"""Timing spans around the package's public functions, set from outside.

``Tracer.install`` replaces stage functions with wrappers that record one
span per call (name, start, end, parent span, operation) and replaces the
hot methods called inside them (rule compilation, relational composition,
pre-images, interpreter runs) with wrappers that only add a call count and
a duration to the innermost open span.  Spans stay in memory and are
written out once, when the run ends.  Times are ``perf_counter`` readings;
``layer_metrics`` turns them into reference seconds with the run's pace.
"""

from __future__ import annotations

import time

STAGES = (
    ("parser", "parse_program"),
    ("policy", "parse_policy"),
    ("policy", "gather_downgrades"),
    ("modelgen", "build_model"),
    ("compose", "self_compose"),
    ("compose", "tr_compose"),
    ("reach", "post_star"),
    ("reach", "is_error_reachable"),
    ("reach", "extract_witness"),
    ("reach", "replay_witness"),
    ("oracle", "check_where_security"),
    ("cli", "analyze"),  # the untimed entry-point check; left out of the metrics
)

# (owner module, attribute path, span name); run_program is rebound where
# the program calls it, so the benchmark's own witness check is not counted.
HOT = (
    ("spds", "RelationAlgebra.compile_spec", "spds.compile_spec"),
    ("spds", "RelationAlgebra.transpose_compose", "spds.transpose_compose"),
    ("spds", "RelationAlgebra.preimage", "spds.preimage"),
    ("oracle", "run_program", "semantics.run_program"),
    ("reach", "run_program", "semantics.run_program"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.operation = ""
        self._open: list[dict] = []

    def install(self, modules: dict) -> None:
        for mod, attr in STAGES:
            setattr(modules[mod], attr, self._span(f"{mod}.{attr}", getattr(modules[mod], attr)))
        for mod, path, name in HOT:
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))

    def _span(self, name, fn):
        clock, stack = time.perf_counter, self._open

        def traced(*args, **kwargs):
            parent = stack[-1]["id"] if stack else None
            span = {"id": len(self.spans), "parent": parent, "op": self.operation, "name": name,
                    "calls": {}}
            self.spans.append(span)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["start"], span["end"] = start, clock()
                stack.pop()

        return traced

    def _counted(self, name, fn):
        clock, stack = time.perf_counter, self._open

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = stack[-1]["calls"].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += clock() - start

        return counted

    def layer_metrics(self, first: int, last: int, scaled) -> dict[str, float]:
        """Per-layer times and call counts of ``spans[first:last]``.

        ``scaled(a, b)`` gives the reference seconds of an interval; the
        calls counted inside a span are scaled by the same factor as it.
        """
        spans = [s for s in self.spans[first:last] if s["name"] != "cli.analyze"]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}

        def add(key: str, value: float) -> None:
            total[key] = total.get(key, 0.0) + value

        for s in spans:
            dur = scaled(s["start"], s["end"])
            factor = dur / max(s["end"] - s["start"], 1e-9)
            add(s["name"], dur)
            if s["parent"] is None:
                add(s["name"] + "/top", dur)
            for child, (n, secs) in s["calls"].items():
                add(child, secs * factor)
                add(f"{s['name']}>{child}", secs * factor)
                calls[child] = calls.get(child, 0) + n
        get = total.get
        return {
            "parser.s": get("parser.parse_program", 0.0)
            + get("policy.parse_policy", 0.0)
            + get("policy.gather_downgrades", 0.0),
            "modelgen.s": get("modelgen.build_model", 0.0),
            "compose.s": get("compose.self_compose", 0.0) + get("compose.tr_compose", 0.0),
            "spds.compile_s": get("spds.compile_spec", 0.0),
            "spds.compile_calls": calls.get("spds.compile_spec", 0),
            "spds.transpose_compose_s": get("spds.transpose_compose", 0.0),
            "spds.preimage_s": get("spds.preimage", 0.0),
            "reach.post_star_s": get("reach.post_star", 0.0),
            "reach.saturate_s": get("reach.post_star", 0.0)
            - get("reach.post_star>spds.compile_spec", 0.0),
            "reach.decide_s": get("reach.is_error_reachable/top", 0.0),
            "reach.witness_s": get("reach.extract_witness", 0.0) - get("reach.replay_witness", 0.0),
            "reach.replay_s": get("reach.replay_witness", 0.0),
            "oracle.s": get("oracle.check_where_security", 0.0),
            "semantics.runs": calls.get("semantics.run_program", 0),
        }
