"""Per-layer tracing of proben from outside its code.

Each traced function is replaced, for the duration of ``Tracer.installed``,
by a wrapper bound to the module-level name where its caller looks it up
(``proben.cli.fuse_all``, ``proben.engine.fuse``, ...), so no file of the
program changes. Calls at module boundaries become spans (name, start, end,
parent); hot leaf calls (``iou``, ``argmax_foreground``, the
``ClassScores`` constructors) are only counted. Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]  # name, start, end, index of the parent span or -1

# Per-layer metric -> (span name, "total" | "self"). "total" sums the
# outermost spans of that name; "self" subtracts the time of child spans.
SPAN_METRICS = {
    "cli.fuse.self_s": ("cli.fuse", "self"),
    "cli.eval.self_s": ("cli.eval", "self"),
    "cli.calibrate.self_s": ("cli.calibrate", "self"),
    "fileio.read_detections_s": ("fileio.read_detections", "total"),
    "fileio.read_ground_truth_s": ("fileio.read_ground_truth", "total"),
    "fileio.write_detections_s": ("fileio.write_detections", "total"),
    "fileio.write_reports_s": ("fileio.write_reports", "total"),
    "synth.generate_s": ("synth.generate", "total"),
    "engine.fuse_all_s": ("engine.fuse_all", "total"),
    "engine.fuse.self_s": ("engine.fuse", "self"),
    "score_fusion.fuse_s": ("score_fusion.fuse", "total"),
    "score_fusion.calibrate_s": ("score_fusion.calibrate", "total"),
    "box_fusion.s": ("box_fusion", "total"),
    "metrics.match_all_s": ("metrics.match_all", "total"),
    "metrics.match.self_s": ("metrics.match", "self"),
    "metrics.merge_s": ("metrics.merge", "total"),
    "metrics.ap_lamr_s": ("metrics.ap_lamr", "total"),
    "metrics.breakdown.self_s": ("metrics.breakdown", "self"),
    "calibrate.point.fuse_s": ("calibrate.point.fuse", "total"),
    "calibrate.point.objective_s": ("calibrate.point.objective", "total"),
}

# Per-layer counts: work done (calls) and work size (records, images, ...).
CALL_COUNTS = (
    "score_fusion.fuse_calls",
    "score_fusion.calibrate_calls",
    "box_fusion.calls",
    "geometry.iou_calls.engine",
    "geometry.iou_calls.metrics",
    "geometry.convex_combination_calls",
    "detections.argmax_calls",
    "detections.from_logits_calls",
    "detections.from_posteriors_calls",
    "metrics.match_all_calls",
)
SIZE_COUNTS = (
    "fileio.records_read",
    "fileio.records_written",
    "synth.detections",
    "engine.images",
    "engine.clusters",
    "engine.members",
    "calibrate.grid_points",
)


def unit(metric: str) -> str:
    return "count" if metric in CALL_COUNTS + SIZE_COUNTS else "s"


class Tracer:
    """Spans and counts, kept per phase (one set-up or one round)."""

    def __init__(self):
        self.phases: List[Tuple[str, List[Span], Counter]] = []
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def begin(self, label: str):
        """Start a phase; spans and counts from here on belong to it."""
        if self._open:
            raise RuntimeError("a phase starts only between top-level calls")
        self.spans, self.counts = [], Counter()
        self.phases.append((label, self.spans, self.counts))

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; count(args, result) adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = tracer._open[-1] if tracer._open else -1
            tracer._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                tracer._open.pop()
            if count is not None:
                tracer.counts.update(count(args, result))
            return result

        return traced

    def counted(self, fn: Callable, count) -> Callable:
        """Wrap fn without a span: count is a name to add one to per call, or
        count(args, result) gives the counts to add."""
        tracer = self
        if not callable(count):

            def counting(*args, **kwargs):
                tracer.counts[count] += 1
                return fn(*args, **kwargs)

            return counting

        def counting_result(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts.update(count(args, result))
            return result

        return counting_result

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced name."""
        import proben.box_fusion as box_fusion
        import proben.calibrate as calibrate
        import proben.cli as cli
        import proben.engine as engine
        import proben.metrics as metrics
        from proben.detections import ClassScores

        span, counted = self.span, self.counted

        def calls(name):
            return lambda args, result: {name: 1}

        def count(name):
            return lambda fn: counted(fn, name)

        def records_read(args, result):
            rows = result[0] if isinstance(result, tuple) else result
            return {"fileio.records_read": len(rows)}

        def clusters(args, result):
            return {"engine.clusters": 1, "engine.members": len(result)}

        def generated(args, result):
            return {"synth.detections": sum(len(v) for v in result.detections.values())}

        def point(fn):
            return span("calibrate.point.fuse", span("engine.fuse_all", fn),
                        calls("calibrate.grid_points"))

        def classmethod_counted(name):
            return lambda method: classmethod(counted(method.__func__, name))

        match_all = lambda fn: span("metrics.match_all", fn, calls("metrics.match_all_calls"))
        ap_lamr = lambda fn: span("metrics.ap_lamr", fn)
        written = lambda args, result: {"fileio.records_written": len(args[1])}
        return [
            (cli, "cmd_fuse", lambda fn: span("cli.fuse", fn)),
            (cli, "cmd_eval", lambda fn: span("cli.eval", fn)),
            (cli, "cmd_calibrate", lambda fn: span("cli.calibrate", fn)),
            (cli, "cmd_synth", lambda fn: span("cli.synth", fn)),
            (cli, "generate", lambda fn: span("synth.generate", fn, generated)),
            (cli, "read_detections", lambda fn: span("fileio.read_detections", fn, records_read)),
            (cli, "read_ground_truth",
             lambda fn: span("fileio.read_ground_truth", fn, records_read)),
            (cli, "write_detections", lambda fn: span("fileio.write_detections", fn, written)),
            (cli, "write_ground_truth",
             lambda fn: span("fileio.write_ground_truth", fn, written)),
            (cli, "write_json", lambda fn: span("fileio.write_reports", fn)),
            (cli, "write_curves_csv", lambda fn: span("fileio.write_reports", fn)),
            (cli, "fuse_all", lambda fn: span("engine.fuse_all", fn)),
            (cli, "breakdown", lambda fn: span("metrics.breakdown", fn)),
            (cli, "grid_search", lambda fn: span("calibrate.grid_search", fn)),
            (engine, "fuse", lambda fn: span("engine.fuse", fn, calls("engine.images"))),
            (engine, "_select_per_modality", lambda fn: counted(fn, clusters)),
            (engine, "fuse_proben",
             lambda fn: span("score_fusion.fuse", fn, calls("score_fusion.fuse_calls"))),
            (engine, "calibrate_scores",
             lambda fn: span("score_fusion.calibrate", fn, calls("score_fusion.calibrate_calls"))),
            (engine, "fuse_boxes", lambda fn: span("box_fusion", fn, calls("box_fusion.calls"))),
            (engine, "iou", count("geometry.iou_calls.engine")),
            (box_fusion, "convex_combination", count("geometry.convex_combination_calls")),
            (metrics, "match_all", match_all),
            (metrics, "match", lambda fn: span("metrics.match", fn)),
            (metrics, "iou", count("geometry.iou_calls.metrics")),
            (metrics.MatchResult, "merge", lambda fn: span("metrics.merge", fn)),
            (metrics, "average_precision", ap_lamr),
            (metrics, "lamr", ap_lamr),
            (metrics, "_pr_points", ap_lamr),
            (metrics, "_miss_fppi_curve", ap_lamr),
            (calibrate, "fuse_all", point),
            (calibrate, "_objective_value", lambda fn: span("calibrate.point.objective", fn)),
            (calibrate, "match_all", match_all),
            (calibrate, "average_precision", ap_lamr),
            (calibrate, "lamr", ap_lamr),
            (ClassScores, "argmax_foreground", count("detections.argmax_calls")),
            (ClassScores, "from_logits", classmethod_counted("detections.from_logits_calls")),
            (ClassScores, "from_posteriors",
             classmethod_counted("detections.from_posteriors_calls")),
        ]

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore the originals on exit."""
        originals = []
        try:
            for owner, attribute, wrap in self._targets():
                original = vars(owner)[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, wrap(original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def write(self, path: str, header: dict):
        """One JSON line per span: [phase, id, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, phases=[p[0] for p in self.phases])) + "\n")
            for phase, (_, spans, counts) in enumerate(self.phases):
                for index, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps([phase, index, parent, name, start, end]) + "\n")
                totals = {"phase": phase, "counts": dict(sorted(counts.items()))}
                fh.write(json.dumps(totals) + "\n")


def span_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: the total time of its outermost spans, and its self time
    (span time minus the time of its child spans)."""
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[index]
    total: Dict[str, float] = Counter()
    own: Dict[str, float] = Counter()
    for index, (name, _, _, parent) in enumerate(spans):
        if parent < 0 or spans[parent][0] != name:
            total[name] += duration[index]
        own[name] += duration[index] - child_time[index]
    return total, own


def phase_metrics(spans: List[Span], counts: Counter) -> Dict[str, float]:
    """Every per-layer metric of one phase."""
    total, own = span_times(spans)
    out = {
        metric: (total if mode == "total" else own)[name]
        for metric, (name, mode) in SPAN_METRICS.items()
    }
    out.update({name: counts[name] for name in CALL_COUNTS + SIZE_COUNTS})
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Mean per set-up plus mean per round: the cost of one set-up and one round."""
    by_label: Dict[str, List[Dict[str, float]]] = {}
    for label, spans, counts in tracer.phases:
        by_label.setdefault(label, []).append(phase_metrics(spans, counts))
    out: Dict[str, float] = Counter()
    for phases in by_label.values():
        for metric in phases[0]:
            values = [p[metric] for p in phases]
            mean = sum(values) / len(values)
            out[metric] += round(mean) if metric in CALL_COUNTS + SIZE_COUNTS else mean
    return dict(out)
