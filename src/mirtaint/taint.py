"""Taint-style vulnerability checking on top of the alias engine.

Attacker-controlled data enters at source callsites (recv and friends),
rides the alias derivation (plus arithmetic and the modeled library
copies) to security-sensitive sinks, and an alert is raised when the
sink argument is tainted with no sufficient sanitization between.

Each tainted expression remembers its taint-trigger point: crossing it
forward turns the taint on, crossing it backward turns it off (a buffer
is not attacker data before the recv that fills it ran).

Comparisons against tainted values become constraints attached to the
branch edges they guard; a constraint guards a sink only if the taken
edge's target dominates the sink block.  At copy-like sinks the tightest
constant upper bound is compared against the distance from the
destination buffer to the top of the frame; a symbolic bound suppresses
the alert outright, and command-execution sinks alert exactly when no
constraint exists at all.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ir
from . import sse as S
from .alias import Analysis, EngineConfig, Seed, Session, Tracked, op_sse

log = logging.getLogger(__name__)

RET = "ret"


@dataclass(frozen=True)
class SourceModel:
    name: str
    taints: tuple[Union[int, str], ...]      # argument indices and/or "ret"
    fd_arg: Optional[int] = None             # filtered when it reads a fixed file


@dataclass(frozen=True)
class SinkModel:
    name: str
    klass: str                               # "copy" | "exec"
    checked_args: tuple[int, ...]
    dst_arg: Optional[int] = None
    len_arg: Optional[int] = None


@dataclass(frozen=True)
class LibrarySummary:
    name: str
    group: str
    flows: tuple[tuple[int, Union[int, str]], ...]   # (from arg) -> (to arg | "ret")
    ret_is_length: bool = False


DEFAULT_SOURCES = (
    SourceModel("recv", (1,)),
    SourceModel("recvfrom", (1,)),
    SourceModel("read", (1,), fd_arg=0),
    SourceModel("fread", (0,), fd_arg=3),
    SourceModel("fgets", (0,), fd_arg=2),
    SourceModel("BIO_read", (1,)),
    SourceModel("BIO_gets", (1,)),
    SourceModel("SSL_read", (1,)),
    SourceModel("getenv", (RET,)),
)

DEFAULT_SINKS = (
    SinkModel("strcpy", "copy", (1,), dst_arg=0),
    SinkModel("strncpy", "copy", (1, 2), dst_arg=0, len_arg=2),
    SinkModel("memcpy", "copy", (1, 2), dst_arg=0, len_arg=2),
    SinkModel("memmove", "copy", (1, 2), dst_arg=0, len_arg=2),
    SinkModel("sprintf", "copy", (1, 2, 3, 4, 5), dst_arg=0),
    SinkModel("sscanf", "copy", (0,), dst_arg=2),
    SinkModel("strcat", "copy", (1,), dst_arg=0),
    SinkModel("strncat", "copy", (1, 2), dst_arg=0, len_arg=2),
    SinkModel("system", "exec", (0,)),
    SinkModel("popen", "exec", (0,)),
    SinkModel("execve", "exec", (0,)),
)

_COPY = "String Copy"
_INDEX = "String Index"
_SPLIT = "String Split"
_TOINT = "String to Int"
_OTHER = "Other functions"

DEFAULT_SUMMARIES = (
    LibrarySummary("strcpy", _COPY, ((1, 0), (1, RET))),
    LibrarySummary("strncpy", _COPY, ((1, 0), (1, RET))),
    LibrarySummary("strlcpy", _COPY, ((1, 0), (1, RET)), ret_is_length=True),
    LibrarySummary("memcpy", _COPY, ((1, 0), (1, RET))),
    LibrarySummary("memmove", _COPY, ((1, 0), (1, RET))),
    LibrarySummary("sprintf", _COPY, ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0)),
                   ret_is_length=True),
    LibrarySummary("snprintf", _COPY, ((2, 0), (3, 0), (4, 0), (5, 0)),
                   ret_is_length=True),
    LibrarySummary("vsnprintf", _COPY, ((2, 0), (3, 0)), ret_is_length=True),
    LibrarySummary("strcat", _COPY, ((1, 0), (1, RET), (0, RET))),
    LibrarySummary("strncat", _COPY, ((1, 0), (1, RET), (0, RET))),
    LibrarySummary("sscanf", _COPY, ((0, 2), (0, 3), (0, 4), (0, 5))),
    LibrarySummary("strdup", _COPY, ((0, RET),)),
    LibrarySummary("strstr", _INDEX, ((0, RET),)),
    LibrarySummary("strchr", _INDEX, ((0, RET),)),
    LibrarySummary("strrchr", _INDEX, ((0, RET),)),
    LibrarySummary("strpbrk", _INDEX, ((0, RET),)),
    LibrarySummary("stristr", _INDEX, ((0, RET),)),
    LibrarySummary("strtok", _SPLIT, ((0, RET),)),
    LibrarySummary("strtok_r", _SPLIT, ((0, RET), (0, 2))),
    LibrarySummary("strsep", _SPLIT, ((0, RET),)),
    LibrarySummary("atoi", _TOINT, ((0, RET),)),
    LibrarySummary("atol", _TOINT, ((0, RET),)),
    LibrarySummary("atoll", _TOINT, ((0, RET),)),
    LibrarySummary("strtol", _TOINT, ((0, RET),)),
    LibrarySummary("strtoll", _TOINT, ((0, RET),)),
    LibrarySummary("strtoul", _TOINT, ((0, RET),)),
    LibrarySummary("hsearch_r", _OTHER, ((0, 2),)),
    LibrarySummary("index", _OTHER, ((0, RET),)),
    LibrarySummary("strlen", _OTHER, ((0, RET),), ret_is_length=True),
)


@dataclass
class Models:
    sources: dict[str, SourceModel]
    sinks: dict[str, SinkModel]
    summaries: dict[str, LibrarySummary]


def default_models() -> Models:
    return Models(
        sources={m.name: m for m in DEFAULT_SOURCES},
        sinks={m.name: m for m in DEFAULT_SINKS},
        summaries={m.name: m for m in DEFAULT_SUMMARIES},
    )


def load_models(path: Optional[str] = None) -> tuple[Models, list[ir.Diagnostic]]:
    """Built-in defaults, optionally extended/overridden by a JSON config
    with `sources`, `sinks`, `summaries` arrays keyed by function name.
    A malformed config leaves the defaults untouched and reports why."""
    models = default_models()
    if path is None:
        return models, []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("top level must be an object")
        for entry in raw.get("sources", []):
            models.sources[entry["name"]] = SourceModel(
                entry["name"],
                tuple(entry.get("taints", [1])),
                entry.get("fd_arg"))
        for entry in raw.get("sinks", []):
            models.sinks[entry["name"]] = SinkModel(
                entry["name"], entry.get("class", "copy"),
                tuple(entry.get("checked_args", [1])),
                entry.get("dst_arg"), entry.get("len_arg"))
        for entry in raw.get("summaries", []):
            models.summaries[entry["name"]] = LibrarySummary(
                entry["name"], entry.get("group", _OTHER),
                tuple((f[0], f[1]) for f in entry.get("flows", [])),
                entry.get("ret_is_length", False))
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return default_models(), [ir.Diagnostic(f"bad taint config {path}: {exc}")]
    return models, []


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def _fd_reads_fixed_file(program: ir.Program, fname: str, fd: ir.Operand) -> bool:
    """Heuristic file-descriptor filter: the fd register is defined by an
    open/fopen whose path argument is a string-table constant."""
    if not isinstance(fd, str):
        return False
    fn = program.functions[fname]
    for stmt in fn.statements():
        form = stmt.form
        if (isinstance(form, ir.Call) and form.ret == fd
                and form.target in ("open", "fopen") and form.args
                and isinstance(form.args[0], int)
                and form.args[0] in program.string_table):
            return True
    return False


def seed_sources(program: ir.Program, models: Models) -> list[Seed]:
    seeds = []
    for fn in program.functions.values():
        for stmt in fn.statements():
            form = stmt.form
            if not isinstance(form, ir.Call) or form.target not in models.sources:
                continue
            model = models.sources[form.target]
            if model.fd_arg is not None and model.fd_arg < len(form.args):
                if _fd_reads_fixed_file(program, fn.name, form.args[model.fd_arg]):
                    log.info("source %s at %s reads a fixed file; skipped",
                             form.target, stmt.point)
                    continue
            for out in model.taints:
                if out == RET:
                    if form.ret is not None:
                        expr = S.Reg(form.ret)
                    else:
                        continue
                else:
                    if out >= len(form.args):
                        continue
                    expr = op_sse(form.args[out])
                seeds.append(Seed(point=stmt.point, expr=expr, direction="both",
                                  tainted=True, trigger=stmt.point,
                                  label=f"src:{form.target}"))
    return seeds


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_CMP_OPS = set(_NEGATE)


@dataclass(frozen=True)
class Constraint:
    subject: S.Sse
    relation: str
    bound: S.Sse                      # Val(...) for constant bounds
    site: ir.Point
    seed_id: int
    subject_is_length: bool = False

    def upper_bound(self) -> Optional[int]:
        if not isinstance(self.bound, S.Val):
            return None
        c = self.bound.value
        if self.relation == "<":
            return c - 1
        if self.relation in ("<=", "=="):
            return c
        return None

    def symbolic(self) -> bool:
        return not isinstance(self.bound, S.Val)

    def as_json(self):
        return {"subject": S.pretty(self.subject), "relation": self.relation,
                "bound": S.pretty(self.bound), "site": str(self.site)}


@dataclass
class SinkHit:
    point: ir.Point
    func: str
    sink: SinkModel
    arg_index: int
    item: Tracked


@dataclass
class Alert:
    sink_site: ir.Point
    sink_fn: str
    klass: str
    tainted_expr: S.Sse
    constraints: tuple[Constraint, ...]
    capacity: Optional[int]
    bound: Optional[int]
    stack_offset: Optional[int]
    verdict: str
    chain: tuple[str, ...]

    def as_json(self):
        return {
            "sink_site": str(self.sink_site),
            "sink_fn": self.sink_fn,
            "class": self.klass,
            "tainted_expr": S.pretty(self.tainted_expr),
            "constraints": [c.as_json() for c in self.constraints],
            "capacity": self.capacity,
            "bound": self.bound,
            "stack_offset": self.stack_offset,
            "verdict": self.verdict,
            "chain": list(self.chain),
        }


class TaintPolicy:
    """Engine plug-in: derived-taint generation hooks, library summaries,
    sink observation, and comparison-fact collection."""

    def __init__(self, models: Models):
        self.models = models
        self.analysis: Optional[Analysis] = None
        self.cmp_facts: dict[tuple[str, str], list] = {}
        self._fact_seen: set = set()
        self.sink_hits: list[SinkHit] = []
        self._hit_seen: set = set()

    def bind(self, analysis: Analysis):
        self.analysis = analysis

    def knows_library(self, name: str) -> bool:
        return (name in self.models.summaries or name in self.models.sources
                or name in self.models.sinks or name in ("open", "fopen",
                                                         "strcmp", "strncmp"))

    # facts: tainted value compared against something
    def observe_forward(self, stmt: ir.Statement, idx: int, t: Tracked):
        form = stmt.form
        if not (isinstance(form, ir.BinOp) and form.op in _CMP_OPS and t.tainted):
            return
        subject = None
        if isinstance(form.lhs, str) and t.expr == S.Reg(form.lhs):
            rel, bound = form.op, op_sse(form.rhs)
            subject = t
        elif isinstance(form.rhs, str) and t.expr == S.Reg(form.rhs):
            rel, bound = _MIRROR[form.op], op_sse(form.lhs)
            subject = t
        if subject is None:
            return
        key = (stmt.point, t.key(), rel)
        if key in self._fact_seen:
            return
        self._fact_seen.add(key)
        self.cmp_facts.setdefault((stmt.point.func, form.dst), []).append(
            (subject, rel, bound, stmt.point))

    # library taint flows and sink observation at callsites
    def callsite_forward(self, analysis, fname, point, form, t: Tracked):
        gens: list[Tracked] = []
        if not isinstance(form, ir.Call):
            return gens
        name = form.target
        if name in self.models.sinks and t.tainted:
            model = self.models.sinks[name]
            for ci in model.checked_args:
                if ci < len(form.args) and t.expr == op_sse(form.args[ci]):
                    hk = (point, ci, t.seed_id)
                    if hk not in self._hit_seen:
                        self._hit_seen.add(hk)
                        self.sink_hits.append(SinkHit(point, fname, model, ci, t))
        if name in self.models.summaries and t.tainted:
            summ = self.models.summaries[name]
            for src_i, dst in summ.flows:
                if src_i >= len(form.args) or t.expr != op_sse(form.args[src_i]):
                    continue
                if dst == RET:
                    if form.ret is None:
                        continue
                    expr = S.Reg(form.ret)
                    is_len = summ.ret_is_length
                else:
                    if dst >= len(form.args) or not isinstance(form.args[dst], str):
                        continue
                    expr = S.Reg(form.args[dst])
                    is_len = False
                gens.append(Tracked(
                    expr=expr, point=point, phase="post", seed_id=t.seed_id,
                    rule=None, parent=t, tainted=True, derived=True,
                    is_length=is_len, trigger=t.trigger, conds=t.conds,
                    hops=t.hops))
        elif (t.tainted and name not in self.models.summaries
              and name not in self.models.sources and name not in self.models.sinks
              and name not in self.analysis.program.functions):
            self.analysis.warnings.append(
                f"tainted argument to unmodeled {name} at {point}; taint kept")
        return gens

    def edge_constraints(self) -> dict[tuple[str, str], list[Constraint]]:
        """Attach collected comparison facts to branch edges: the true
        successor gets the fact as-is, the false successor its negation."""
        out: dict[tuple[str, str], list[Constraint]] = {}
        if self.analysis is None:
            return out
        for fname in list(self.analysis.visited_functions):
            fn = self.analysis.program.functions[fname]
            for stmt in fn.statements():
                form = stmt.form
                if not isinstance(form, ir.Branch):
                    continue
                for subject, rel, bound, site in self.cmp_facts.get(
                        (fname, form.cond), ()):
                    c_true = Constraint(subject.expr, rel, bound, site,
                                        subject.seed_id, subject.is_length)
                    c_false = Constraint(subject.expr, _NEGATE[rel], bound, site,
                                         subject.seed_id, subject.is_length)
                    out.setdefault((fname, form.then_block), []).append(c_true)
                    out.setdefault((fname, form.else_block), []).append(c_false)
        return out


# ---------------------------------------------------------------------------
# Sink checking
# ---------------------------------------------------------------------------

def _backward_family(session: Session, point: ir.Point, reg: str):
    sub = Analysis(session.program, session=session)
    sid = sub.add_seed(Seed(point=point, expr=S.Reg(reg),
                            direction="backward", label="query"))
    sub.run()
    return [t.expr for t in sub.family(sid, point.func)]


def _stack_offset_of(exprs) -> Optional[int]:
    for e in exprs:
        if e == S.Reg("sp"):
            return 0
        if (isinstance(e, S.Bin) and e.op == "+" and e.left == S.Reg("sp")
                and isinstance(e.right, S.Val)):
            return e.right.value
    return None


def _constant_of(exprs) -> Optional[int]:
    for e in exprs:
        if isinstance(e, S.Val):
            return e.value
    return None


def _resolve_stack_dst(session: Session, hit: SinkHit) -> Optional[int]:
    """Backward-trace the destination argument to an sp+k form."""
    model = hit.sink
    if model.dst_arg is None:
        return None
    form = session.statement(hit.point).form
    if model.dst_arg >= len(form.args):
        return None
    dst = form.args[model.dst_arg]
    if isinstance(dst, int):
        return None
    return _stack_offset_of(_backward_family(session, hit.point, dst))


def _taint_chain(item: Tracked) -> tuple[str, ...]:
    chain = []
    t = item
    while t is not None:
        if t.trigger is not None and (not chain or chain[-1] != str(t.trigger)):
            chain.append(str(t.trigger))
        t = t.parent
    return tuple(reversed(chain))


def check_sink(session: Session, hit: SinkHit,
               constraints_by_edge: dict[tuple[str, str], list[Constraint]],
               tainted_args: frozenset = frozenset()) -> Optional[Alert]:
    """Decide whether one tainted sink argument becomes an alert."""
    _, sink_block, _ = session.locate(hit.point)
    doms = session.dominators(hit.func)
    applicable: list[Constraint] = []
    for (fname, edge_target), cs in constraints_by_edge.items():
        if fname != hit.func:
            continue
        if edge_target in doms.get(sink_block, frozenset()):
            applicable.extend(c for c in cs if c.seed_id == hit.item.seed_id)

    # a constant length argument (immediate, or a register that resolves
    # to one untainted constant) acts like an equality constraint
    model = hit.sink
    if model.len_arg is not None:
        form = session.statement(hit.point).form
        if model.len_arg < len(form.args):
            ln = form.args[model.len_arg]
            bound = None
            if isinstance(ln, int):
                bound = ln
            elif (hit.point, model.len_arg) not in tainted_args:
                bound = _constant_of(_backward_family(session, hit.point, ln))
            if bound is not None:
                applicable.append(Constraint(
                    S.Val(bound), "==", S.Val(bound), hit.point,
                    hit.item.seed_id, subject_is_length=True))

    if model.klass == "exec":
        if applicable:
            return None
        return Alert(hit.point, model.name, "command-exec", hit.item.expr, (),
                     None, None, None, "tainted command with no constraint",
                     _taint_chain(hit.item) + (str(hit.point),))

    # copy-like
    if any(c.symbolic() for c in applicable):
        return None
    uppers = [c.upper_bound() for c in applicable if c.upper_bound() is not None]
    bound = min(uppers) if uppers else None
    offset = _resolve_stack_dst(session, hit)
    capacity = None
    if offset is not None:
        capacity = session.program.functions[hit.func].frame_size - offset
    if bound is None:
        verdict = ("unbounded copy, destination unknown" if capacity is None
                   else "unbounded tainted copy into stack buffer")
        return Alert(hit.point, model.name, "copy-like", hit.item.expr,
                     tuple(applicable), capacity, None, offset, verdict,
                     _taint_chain(hit.item) + (str(hit.point),))
    if capacity is None:
        return Alert(hit.point, model.name, "copy-like", hit.item.expr,
                     tuple(applicable), None, bound, None,
                     "bounded copy but destination unknown",
                     _taint_chain(hit.item) + (str(hit.point),))
    if bound > capacity:
        return Alert(hit.point, model.name, "copy-like", hit.item.expr,
                     tuple(applicable), capacity, bound, offset,
                     f"bound {bound} exceeds capacity {capacity}",
                     _taint_chain(hit.item) + (str(hit.point),))
    return None


def detect_loop_copies(analysis: Analysis, constraints_by_edge) -> list[Alert]:
    """The minimal unsafe-loop-copy idiom: inside a natural loop, a store
    through a pointer that the loop itself advances, storing a value fed
    by a tainted load.  Flagged as a copy-like sink with no length bound
    (so any dominating constraint still suppresses it)."""
    session = analysis.session
    alerts: list[Alert] = []
    for fname in sorted(analysis.visited_functions):
        reg = analysis.registry.get(fname, {})
        tainted = {}
        for t in reg.values():
            if t.tainted and isinstance(t.expr, S.Reg):
                tainted.setdefault(t.expr.name, []).append(t)
        if not tainted:
            continue
        graph = analysis.cfg(fname)
        loops = session.loop_blocks(fname)
        if not loops:
            continue
        doms = session.dominators(fname)
        source_labels = {lbl.split("@")[0] for lbl in loops}
        advanced = set()
        loaded = set()
        for lbl in loops:
            for stmt in graph.blocks[lbl].stmts:
                form = stmt.form
                if (isinstance(form, ir.BinOp) and form.op == "+"
                        and (form.lhs == form.dst or form.rhs == form.dst)):
                    advanced.add(form.dst)
                if isinstance(form, ir.Load):
                    loaded.add(form.dst)
        for lbl in sorted(loops):
            for stmt in graph.blocks[lbl].stmts:
                form = stmt.form
                if not (isinstance(form, ir.Store) and form.addr in advanced
                        and isinstance(form.src, str) and form.src in loaded):
                    continue
                items = [t for t in tainted.get(form.src, ())
                         if t.point.block in source_labels]
                if not items:
                    continue
                item = items[0]
                applicable = []
                for (cf, edge_target), cs in constraints_by_edge.items():
                    if cf == fname and edge_target in doms.get(lbl, frozenset()):
                        applicable.extend(c for c in cs
                                          if c.seed_id == item.seed_id)
                if any(c.symbolic() for c in applicable):
                    continue
                uppers = [c.upper_bound() for c in applicable
                          if c.upper_bound() is not None]
                offset = _stack_offset_of(_backward_family(
                    session, stmt.point, form.addr))
                capacity = (session.program.functions[fname].frame_size - offset
                            if offset is not None else None)
                bound = min(uppers) if uppers else None
                if bound is not None and capacity is not None and bound <= capacity:
                    continue
                alerts.append(Alert(
                    stmt.point, "loop-copy", "copy-like", item.expr,
                    tuple(applicable), capacity, bound, offset,
                    "unbounded loop copy through an advancing pointer",
                    _taint_chain(item) + (str(stmt.point),)))
    return alerts


# ---------------------------------------------------------------------------
# The end-to-end taint run
# ---------------------------------------------------------------------------

@dataclass
class TaintResult:
    alerts: list[Alert]
    tainted_sinks: int
    tainted_blocks: int
    covered_blocks: int
    analyzed_functions: int
    warnings: list[str] = field(default_factory=list)
    cap_hits: list[str] = field(default_factory=list)
    seeds: int = 0


def run_taint(program: ir.Program, models: Models | None = None,
              resolutions: dict | None = None,
              engine_config: EngineConfig | None = None,
              session: Session | None = None) -> TaintResult:
    """Seed the sources, run the taint fixpoint and check every sink.
    Every analysis of the run shares `session` (built from `resolutions`
    and `engine_config` when not given)."""
    models = models or default_models()
    if session is None:
        session = Session(program, engine_config, resolutions)
    policy = TaintPolicy(models)
    analysis = Analysis(program, policy=policy, session=session)
    seeds = seed_sources(program, models)
    for seed in seeds:
        analysis.add_seed(seed)
    analysis.run()

    constraints = policy.edge_constraints()
    tainted_args = frozenset((h.point, h.arg_index) for h in policy.sink_hits)
    alerts: dict[ir.Point, Alert] = {}
    for hit in policy.sink_hits:
        alert = check_sink(session, hit, constraints, tainted_args)
        if alert is not None and hit.point not in alerts:
            alerts[hit.point] = alert
    for alert in detect_loop_copies(analysis, constraints):
        if alert.sink_site not in alerts:
            alerts[alert.sink_site] = alert

    tainted_blocks = set()
    for fname, reg in analysis.registry.items():
        for t in reg.values():
            if t.tainted:
                tainted_blocks.add((fname, t.point.block))
    ordered = sorted(alerts.values(), key=lambda a: str(a.sink_site))
    return TaintResult(
        alerts=ordered,
        tainted_sinks=len({h.point for h in policy.sink_hits}),
        tainted_blocks=len(tainted_blocks),
        covered_blocks=len(analysis.blocks_visited),
        analyzed_functions=len(analysis.visited_functions),
        warnings=list(analysis.warnings),
        cap_hits=list(analysis.cap_hits),
        seeds=len(seeds),
    )
