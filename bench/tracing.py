"""Spans and counters for the traced run, installed from outside mirtaint.

``Tracer.install()`` replaces public functions and methods of the mirtaint
modules with wrappers; ``restore()`` puts every original back.  Nothing in
``src/`` knows about tracing.

A span is ``[name, start, end, parent, program]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``program`` the name of the
program being analysed.  Spans are kept in memory until the run writes
them out.  A span's self time is its duration minus the time its direct
children cover.  Durations are reported at the reference speed of
``run.py``: each is multiplied by the factor given for its program.

The hot SSE functions get counters instead of spans: a span per call
would cost more than the call.  ``sse.canonicalize_s`` times only the
outermost call of each recursion.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from mirtaint import cfg, icall, ir, pipeline, sse, taint
from mirtaint.alias import Analysis, FunctionSummary

# (module, function) pairs recorded as spans, with their span name
SPANNED = (
    (ir, "parse_program", "ir.parse"),
    (ir, "validate", "ir.validate"),
    (pipeline, "load_program", "pipeline.load_program"),
    (pipeline, "analyze", "pipeline.analyze"),
    (cfg, "build_cfg", "cfg.build_cfg"),
    (cfg, "build_call_graph", "cfg.build_call_graph"),
    (cfg, "find_address_taken", "cfg.find_address_taken"),
    (cfg, "dominators", "cfg.dominators"),
    (icall, "resolve_all", "icall.resolve_all"),
    (icall, "resolve", "icall.resolve"),
    (taint, "run_taint", "taint.run_taint"),
    (taint, "check_sink", "taint.check_sink"),
    (taint, "detect_loop_copies", "taint.detect_loop_copies"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.program = ""
        self.scale = 1.0
        self.scales: dict[str, float] = {}
        self.sink_sites: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._canon_depth = 0

    def start_program(self, name: str, scale: float):
        """Attribute what follows to program ``name``; its measured times
        are multiplied by ``scale``."""
        self.program, self.scale = name, scale
        self.scales[name] = scale

    # -- spans ------------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.program])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, list]:
        """{span name: [calls, summed duration, summed self time]}, with
        durations scaled by their program's factor."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, program) in enumerate(self.spans):
            scale = self.scales.get(program, 1.0)
            out[name][0] += 1
            out[name][1] += (end - start) * scale
            out[name][2] += (end - start - child_time[i]) * scale
        return out

    # -- installing and restoring -----------------------------------------

    def _patch_function(self, module, attr: str, wrapper):
        """Point every mirtaint module's reference to the function at the
        wrapper, including names bound by ``from ... import``."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("mirtaint"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        counters = self.counters
        after = {
            "ir.parse": self._after_parse,
            "icall.resolve": self._after_resolve,
            "taint.run_taint": self._after_run_taint,
            "taint.check_sink": self._after_check_sink,
        }
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._patch_function(module, attr,
                                 self._spanned(name, fn, after.get(name)))

        def canonicalize_counter(fn):
            def wrapper(e):
                counters["sse.canonicalize_calls"] += 1
                if self._canon_depth:
                    return fn(e)
                self._canon_depth = 1
                t0 = time.perf_counter()
                try:
                    return fn(e)
                finally:
                    counters["sse.canonicalize_s"] += (time.perf_counter() - t0) * self.scale
                    self._canon_depth = 0
            return wrapper

        def subtrees_counter(fn):
            def wrapper(e):
                counters["sse.subtrees_calls"] += 1
                return fn(e)
            return wrapper

        self._patch_function(sse, "canonicalize",
                             canonicalize_counter(sse.canonicalize))
        self._patch_function(sse, "subtrees", subtrees_counter(sse.subtrees))

        def init(fn):
            def wrapper(analysis, *args, **kwargs):
                counters["alias.analyses"] += 1
                fn(analysis, *args, **kwargs)
            return wrapper

        def run(fn):
            return self._spanned("alias.run", fn, self._after_analysis_run)

        def analyze_function(fn):
            def wrapper(analysis, fname):
                counters["alias.analyze_function_calls"] += 1
                return fn(analysis, fname)
            return wrapper

        def summary(fn):
            def wrapper(analysis, fname):
                counters["alias.summary_lookups"] += 1
                cached = analysis.summaries.get(fname)
                if not isinstance(cached, FunctionSummary) and cached != "computing":
                    counters["alias.summaries_computed"] += 1
                return fn(analysis, fname)
            return wrapper

        self._patch_method(Analysis, "__init__", init)
        self._patch_method(Analysis, "run", run)
        self._patch_method(Analysis, "analyze_function", analyze_function)
        self._patch_method(Analysis, "summary", summary)
        self._patch_method(pipeline.Report, "to_json",
                           lambda fn: self._spanned("pipeline.report", fn))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- counters read from public results --------------------------------

    def _after_parse(self, args, program):
        self.counters["ir.statements"] += sum(
            len(b.stmts) for f in program.functions.values() for b in f.blocks)

    def _after_resolve(self, args, resolution):
        self.counters["icall.sites"] += 1
        self.counters["icall.targets"] += len(resolution.targets)

    def _after_run_taint(self, args, result):
        self.counters["taint.seeds"] += result.seeds

    def _after_check_sink(self, args, result):
        hit = args[1]
        self.counters["taint.sink_checks"] += 1
        self.sink_sites.add((self.program, hit.point))

    def _after_analysis_run(self, args, result):
        analysis = args[0]
        entries = 0
        for reg in analysis.registry.values():
            entries += len(reg)
            for t in reg.values():
                if t.rule is not None:
                    self.counters[f"alias.rule_firings.{t.rule}"] += 1
        self.counters["alias.registry_entries"] += entries
        self.counters["alias.registry_peak"] = max(
            self.counters["alias.registry_peak"], entries)


def layer_metrics(tracer: Tracer, cap_hits: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    c = tracer.counters
    spans = tracer.totals()

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    lookups = c["alias.summary_lookups"]
    checks = c["taint.sink_checks"]
    sites = len(tracer.sink_sites)
    out = {
        "ir.parse_s": total("ir.parse"),
        "ir.validate_s": total("ir.validate"),
        "ir.statements": c["ir.statements"],
        "cfg.build_cfg_calls": calls("cfg.build_cfg"),
        "cfg.build_cfg_s": total("cfg.build_cfg"),
        "cfg.build_call_graph_calls": calls("cfg.build_call_graph"),
        "cfg.dominators_calls": calls("cfg.dominators"),
        "cfg.dominators_s": total("cfg.dominators"),
        "alias.analyses": c["alias.analyses"],
        "alias.run_s": spans["alias.run"][2],
        "alias.analyze_function_calls": c["alias.analyze_function_calls"],
        "alias.summary_lookups": lookups,
        "alias.summaries_computed": c["alias.summaries_computed"],
        "alias.summary_reuse": (1 - c["alias.summaries_computed"] / lookups
                                if lookups else 0.0),
        "alias.registry_entries": c["alias.registry_entries"],
        "alias.registry_peak": c["alias.registry_peak"],
    }
    for rule in range(1, 16):
        out[f"alias.rule_firings.{rule}"] = c[f"alias.rule_firings.{rule}"]
    out.update({
        "sse.canonicalize_calls": c["sse.canonicalize_calls"],
        "sse.canonicalize_s": c["sse.canonicalize_s"],
        "sse.subtrees_calls": c["sse.subtrees_calls"],
        "icall.resolve_all_s": total("icall.resolve_all"),
        "icall.resolve_s": total("icall.resolve"),
        "icall.sites": c["icall.sites"],
        "icall.targets": c["icall.targets"],
        "taint.run_taint_s": total("taint.run_taint"),
        "taint.seeds": c["taint.seeds"],
        "taint.sink_checks": checks,
        "taint.sink_sites": sites,
        "taint.sink_check_yield": sites / checks if checks else 0.0,
        "taint.check_sink_s": total("taint.check_sink"),
        "taint.detect_loop_copies_s": total("taint.detect_loop_copies"),
        "pipeline.analyze_s": total("pipeline.analyze"),
        "pipeline.report_s": total("pipeline.report"),
        "pipeline.cap_hits": cap_hits,
    })
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("alias.summary_reuse", "taint.sink_check_yield"):
        return "ratio"
    return "count"
