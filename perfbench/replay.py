"""Traced replay of benchmark operations, layer by layer.

Each operation is replayed through the public functions the CLI calls, with
a span around each call.  Nothing in the package is patched or wrapped: the
spans sit in this file, at the boundaries between the CLI's calls.  For
`verify`, the replay first warms one `SkeinEngine` on every sublink the
verifier will ask for (using the public `sublink`, `switch_crossing`,
`smooth_crossing` and `disjoint_union`), then runs the verifier on that
engine, so engine work and identity assembly fall into separate spans while
the total work stays that of the CLI call.  The replay's output bytes must
equal the CLI's.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from functools import reduce

from homflypt.cli import build_parser
from homflypt.identities import (
    verify_prop31,
    verify_skein_F,
    verify_split_F,
    verify_thm13,
    verify_thm14,
    verify_thm15,
)
from homflypt.links import LinkDiagram, close_braid, parse_braid
from homflypt.skein import SkeinEngine, coeff_table, homfly

from corpus import TARGETS, Op

# Per-layer metrics and their units; a `_s` metric is the self time of the
# span named by the rest of its name.
LAYERS = {
    "cli.args_s": "s",
    "links.parse_s": "s",
    "links.load_json_s": "s",
    "skein.framed_s": "s",
    "skein.sublinks_s": "s",
    "skein.nodes": "count",
    "skein.us_per_node": "us",
    "skein.extract_s": "s",
    **{f"identities.{t}_s": "s" for t in TARGETS},
    "laurent.mul_us": "us",
    "laurent.operand_terms": "count",
    "report.serialize_s": "s",
    "trace.overhead_frac": "ratio",
}
# At most this many products are replayed per operation.
_MAX_PRODUCTS = 32


class Tracer:
    """In-memory spans: [id, parent id, operation id, name, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.op_id, name, 0, 0]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus covered child time."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        totals: dict[str, float] = {}
        for s, ns in zip(self.spans, own):
            totals[s[3]] = totals.get(s[3], 0.0) + ns / 1e9
        return totals

    def to_json(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns")
        return [dict(zip(keys, s)) for s in self.spans]


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _inter_crossings(diagram: LinkDiagram) -> list[int]:
    return [cid for cid in diagram.crossing_ids() if not diagram.is_self_crossing(cid)]


def _split_knots(diagram: LinkDiagram) -> list[LinkDiagram]:
    return [diagram.sublink([alpha]) for alpha in range(diagram.num_components)]


def _verifier_bases(diagram: LinkDiagram, target: str) -> list[LinkDiagram]:
    """Diagrams whose every sublink the verifier for `target` evaluates."""
    if target == "skeinF":
        bases = [diagram]
        for cid in _inter_crossings(diagram):
            bases += [diagram.switch_crossing(cid), diagram.smooth_crossing(cid)]
        return bases
    if target == "splitF":
        return [reduce(LinkDiagram.disjoint_union, _split_knots(diagram))]
    return [diagram]


def _reports(diagram: LinkDiagram, target: str, engine: SkeinEngine, label: str):
    """The CLI's reports for one target on a link with at least 2 components."""
    L = diagram.num_components
    if target == "prop31":
        return [verify_prop31(diagram, engine=engine, label=label)]
    if target == "thm13":
        return [verify_thm13(diagram, g, engine=engine, label=label) for g in range(L - 1)]
    if target == "thm14":
        return [verify_thm14(diagram, engine=engine, label=label)]
    if target == "thm15":
        return [verify_thm15(diagram, engine=engine, label=label)]
    if target == "skeinF":
        return [
            verify_skein_F(diagram, cid, engine=engine, label=f"{label} c{cid}")
            for cid in _inter_crossings(diagram)
        ]
    knots = _split_knots(diagram)
    return [verify_split_F(knots, engine=engine, label=f"{label} (components split)")]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def replay_homfly(tracer: Tracer, op: Op):
    """`homfly --braid/--file ... --format json`; returns (output, nodes, product pairs)."""
    with tracer.span("op"):
        with tracer.span("cli.args"):
            build_parser().parse_args(op.argv)
        if op.path is not None:
            with open(op.path, "r", encoding="utf-8") as handle:
                text = handle.read()
            with tracer.span("links.load_json"):
                diagram = LinkDiagram.from_json_dict(json.loads(text))
            label = op.path
        else:
            with tracer.span("links.parse"):
                diagram = close_braid(parse_braid(op.braid))
            label = op.braid.strip()
        engine = SkeinEngine()
        with tracer.span("skein.framed"):
            framed = engine.framed_invariant(diagram)
        with tracer.span("skein.extract"):
            table = coeff_table(diagram, engine=engine)
            poly = homfly(diagram, engine=engine)
        with tracer.span("report.serialize"):
            out = _dump(
                {
                    "link": label,
                    "components": table.components,
                    "writhe": table.writhe,
                    "total_linking": table.total_linking,
                    "framed": framed.to_quadruples(),
                    "homfly": poly.to_quadruples(),
                    "h": {str(g): table.h_at(g).to_triples() for g in table.genus_range()},
                    "p": {str(g): table.p_at(g).to_triples() for g in table.genus_range()},
                }
            )
    return out, engine.nodes, [(framed, framed)]


def replay_verify(tracer: Tracer, op: Op):
    """`verify T --braid ... --format json`; returns (output, nodes, product pairs).

    The pairs are the framed values of complementary sublinks, the products
    the F sums are made of.
    """
    with tracer.span("op"):
        with tracer.span("cli.args"):
            build_parser().parse_args(op.argv)
        with tracer.span("links.parse"):
            diagram = close_braid(parse_braid(op.braid))
        label = op.braid.strip()
        engine = SkeinEngine()
        with tracer.span("skein.sublinks"):
            for base in _verifier_bases(diagram, op.target):
                for subset in _subsets(base.num_components):
                    engine.framed_invariant(base.sublink(subset))
        with tracer.span(f"identities.{op.target}"):
            reports = _reports(diagram, op.target, engine, label)
        with tracer.span("report.serialize"):
            out = _dump(
                {
                    "reports": [r.to_json_dict() for r in reports],
                    "skipped": [],
                    "passed": all(r.passed for r in reports),
                }
            )
    n = diagram.num_components

    def framed(subset):
        return engine.framed_invariant(diagram.sublink(subset))

    pairs = [
        (framed(s), framed(tuple(i for i in range(n) if i not in s)))
        for s in _subsets(n)
        if 0 in s and len(s) < n
    ]
    return out, engine.nodes, pairs


def time_products(pairs) -> tuple[int, float, int]:
    """(products, seconds, operand terms) for replaying a * b over the pairs."""
    pairs = pairs[:_MAX_PRODUCTS]
    seconds = 0.0
    terms = 0
    for a, b in pairs:
        t0 = time.perf_counter()
        _ = a * b
        seconds += time.perf_counter() - t0
        terms += sum(1 for _ in a.terms()) + sum(1 for _ in b.terms())
    return len(pairs), seconds, terms


def layer_metrics(tracer: Tracer, nodes: int, products, traced_s: float, untraced_s: float):
    """Every per-layer metric, from the spans and the replay counters."""
    self_s = tracer.self_times()
    count, mul_s, terms = products
    metrics = {}
    for name, unit in LAYERS.items():
        if unit == "s":
            metrics[name] = self_s.get(name[: -len("_s")], 0.0)
    metrics["skein.nodes"] = nodes
    engine_s = metrics["skein.framed_s"] + metrics["skein.sublinks_s"]
    metrics["skein.us_per_node"] = 1e6 * engine_s / nodes if nodes else 0.0
    metrics["laurent.mul_us"] = 1e6 * mul_s / count if count else 0.0
    metrics["laurent.operand_terms"] = terms / (2 * count) if count else 0.0
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return {name: {"value": metrics[name], "unit": LAYERS[name]} for name in LAYERS}
