"""End-to-end driver: parse -> CFGs -> alias/icall -> taint -> report."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from . import cfg as cfglib
from . import icall as icalllib
from . import ir
from . import taint as taintlib
from .alias import Analysis, EngineConfig, Seed, Session
from . import sse as S

SCHEMA_VERSION = 1

_ENV_CAPS = {
    "MIRTAINT_SSE_DEPTH": "sse_depth",
    "MIRTAINT_ALIAS_CAP": "alias_cap",
    "MIRTAINT_LOOP_K": "loop_k",
    "MIRTAINT_BLOCK_ITER_CAP": "block_iter_cap",
    "MIRTAINT_FUNC_ROUNDS_CAP": "func_rounds_cap",
    "MIRTAINT_RECURSION_DEPTH": "recursion_depth",
}


@dataclass
class RunConfig:
    ir_path: str
    config_path: Optional[str] = None
    enable_icall: bool = True
    seeds: tuple[str, ...] = ()           # "function:block:expr" queries
    out_path: Optional[str] = None
    fmt: str = "json"                     # json | text
    exit_zero_on_alerts: bool = False
    dump_cfg: Optional[str] = None
    dump_aliases: bool = False
    dump_icalls: bool = False
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self):
        overrides = {}
        for env, attr in _ENV_CAPS.items():
            if env in os.environ:
                overrides[attr] = int(os.environ[env], 0)
        if overrides:
            from dataclasses import replace
            self.engine = replace(self.engine, **overrides)
        for name in ("sse_depth", "alias_cap", "loop_k", "block_iter_cap",
                     "func_rounds_cap", "recursion_depth"):
            if getattr(self.engine, name) < 1:
                raise ValueError(f"cap {name} must be >= 1")


class InputError(Exception):
    pass


@dataclass
class Report:
    schema_version: int
    ir_path: str
    icall: dict
    icall_sites: list
    taint: dict
    alerts: list
    seeds: list
    timings: dict
    warnings: list
    cap_hits: list
    dumps: dict = field(default_factory=dict)

    def to_json(self, with_timings: bool = True) -> str:
        data = {
            "schema_version": self.schema_version,
            "ir": self.ir_path,
            "icall_resolution": self.icall,
            "icall_sites": self.icall_sites,
            "taint_metrics": self.taint,
            "alerts": self.alerts,
            "seed_queries": self.seeds,
            "warnings": sorted(set(self.warnings)),
            "cap_hits": self.cap_hits,
        }
        if with_timings:
            data["timings"] = self.timings
        if self.dumps:
            data["dumps"] = self.dumps
        return json.dumps(data, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"== analysis report for {self.ir_path} =="]
        ic = self.icall
        lines.append(
            f"indirect calls: {ic['all_icalls']} total, "
            f"{ic['resolved_icalls']} resolved ({ic['resolved_pct']}%), "
            f"{ic['icall_targets']} targets")
        tm = self.taint
        lines.append(
            f"taint: {tm['analyzed_functions']} functions analyzed, "
            f"{tm['covered_blocks']} blocks covered, "
            f"{tm['tainted_blocks']} tainted blocks, "
            f"{tm['tainted_sinks']} tainted sinks, {tm['alerts']} alerts")
        for a in self.alerts:
            lines.append(
                f"ALERT {a['class']} at {a['sink_site']} ({a['sink_fn']}): "
                f"{a['verdict']}; tainted {a['tainted_expr']}; "
                f"chain {' -> '.join(a['chain'])}")
        for w in sorted(set(self.warnings)):
            lines.append(f"warning: {w}")
        for q in self.seeds:
            lines.append(f"seed {q['query']}: {len(q['aliases'])} aliases")
            for e in q["aliases"]:
                lines.append(f"  {e['expr']} @ {e['point']} ({e['phase']})")
        return "\n".join(lines) + "\n"


def load_program(path: str) -> ir.Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        program = ir.parse_program(text)
    except ir.ParseError as exc:
        raise InputError(str(exc)) from None
    problems = ir.validate(program)
    if problems:
        raise InputError("; ".join(str(d) for d in problems))
    return program


def _seed_queries(session: Session, seeds: tuple[str, ...]):
    program = session.program
    out = []
    for query in seeds:
        try:
            fname, block, expr_text = query.split(":", 2)
            expr = S.parse_sse(expr_text)
            if fname not in program.functions:
                raise ValueError(f"no function {fname}")
            point = ir.Point(fname, block, 0)
        except ValueError as exc:
            raise InputError(f"bad seed {query!r}: {exc}") from None
        analysis = Analysis(program, session=session)
        sid = analysis.add_seed(Seed(point=point, expr=expr, direction="both",
                                     label=f"query:{query}"))
        analysis.run()
        members = sorted(analysis.family(sid),
                         key=lambda t: (str(t.point), S.pretty(t.expr)))
        out.append({
            "query": query,
            "aliases": [{"expr": S.pretty(t.expr), "point": str(t.point),
                         "phase": t.phase, "rules": t.chain(),
                         "tainted": t.tainted} for t in members],
        })
    return out


def analyze(config: RunConfig) -> Report:
    timings = {}
    t0 = time.perf_counter()
    program = load_program(config.ir_path)
    timings["parse_s"] = round(time.perf_counter() - t0, 6)

    models, model_diags = taintlib.load_models(config.config_path)
    warnings = [str(d) for d in model_diags]

    t1 = time.perf_counter()
    address_taken = cfglib.find_address_taken(program)
    timings["preprocess_s"] = round(time.perf_counter() - t1, 6)

    # one session per resolution map: icall resolution runs without
    # resolutions, everything after it under the final map
    session = Session(program, config.engine)
    t2 = time.perf_counter()
    if config.enable_icall:
        resolutions, mapping = icalllib.resolve_all(program, address_taken,
                                                    session=session)
    else:
        resolutions, mapping = [], {}
    session = session.with_resolutions(mapping)
    timings["icall_s"] = round(time.perf_counter() - t2, 6)

    t3 = time.perf_counter()
    taint_result = taintlib.run_taint(program, models, session=session)
    timings["taint_s"] = round(time.perf_counter() - t3, 6)
    warnings.extend(taint_result.warnings)

    dumps = {}
    if config.dump_cfg:
        if config.dump_cfg not in program.functions:
            raise InputError(f"no function {config.dump_cfg} to dump")
        dumps["cfg"] = cfglib.to_dot(session.cfg(config.dump_cfg))
    if config.dump_icalls:
        dumps["icalls"] = [r.as_json() for r in resolutions]

    seed_results = _seed_queries(session, config.seeds)
    if config.dump_aliases:
        dumps["aliases"] = seed_results

    icall_stats = icalllib.metrics(resolutions)
    report = Report(
        schema_version=SCHEMA_VERSION,
        ir_path=config.ir_path,
        icall=icall_stats,
        icall_sites=[r.as_json() for r in resolutions],
        taint={
            "analyzed_functions": taint_result.analyzed_functions,
            "covered_blocks": taint_result.covered_blocks,
            "tainted_blocks": taint_result.tainted_blocks,
            "tainted_sinks": taint_result.tainted_sinks,
            "alerts": len(taint_result.alerts),
            "sources_seeded": taint_result.seeds,
        },
        alerts=[a.as_json() for a in taint_result.alerts],
        seeds=seed_results,
        timings=timings,
        warnings=warnings,
        cap_hits=list(taint_result.cap_hits),
        dumps=dumps,
    )
    return report
