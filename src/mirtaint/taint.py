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

A tainted store of a loop copy is a sink hit too, under the `loop-copy`
model: its destination is the store's advancing address and it has no
length argument.  `check_sink` decides it by the same rule as a library
copy, and is the one place that raises an alert.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ir
from . import sse as S
from .alias import Analysis, Seed, Session, Tracked, op_sse

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
    flows: tuple[tuple[int, Union[int, str]], ...]   # (from arg) -> (to arg | "ret")


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

DEFAULT_SUMMARIES = (
    LibrarySummary("strcpy", ((1, 0), (1, RET))),
    LibrarySummary("strncpy", ((1, 0), (1, RET))),
    LibrarySummary("strlcpy", ((1, 0), (1, RET))),
    LibrarySummary("memcpy", ((1, 0), (1, RET))),
    LibrarySummary("memmove", ((1, 0), (1, RET))),
    LibrarySummary("sprintf", ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))),
    LibrarySummary("snprintf", ((2, 0), (3, 0), (4, 0), (5, 0))),
    LibrarySummary("vsnprintf", ((2, 0), (3, 0))),
    LibrarySummary("strcat", ((1, 0), (1, RET), (0, RET))),
    LibrarySummary("strncat", ((1, 0), (1, RET), (0, RET))),
    LibrarySummary("sscanf", ((0, 2), (0, 3), (0, 4), (0, 5))),
    LibrarySummary("strdup", ((0, RET),)),
    LibrarySummary("strstr", ((0, RET),)),
    LibrarySummary("strchr", ((0, RET),)),
    LibrarySummary("strrchr", ((0, RET),)),
    LibrarySummary("strpbrk", ((0, RET),)),
    LibrarySummary("stristr", ((0, RET),)),
    LibrarySummary("strtok", ((0, RET),)),
    LibrarySummary("strtok_r", ((0, RET), (0, 2))),
    LibrarySummary("strsep", ((0, RET),)),
    LibrarySummary("atoi", ((0, RET),)),
    LibrarySummary("atol", ((0, RET),)),
    LibrarySummary("atoll", ((0, RET),)),
    LibrarySummary("strtol", ((0, RET),)),
    LibrarySummary("strtoll", ((0, RET),)),
    LibrarySummary("strtoul", ((0, RET),)),
    LibrarySummary("hsearch_r", ((0, 2),)),
    LibrarySummary("index", ((0, RET),)),
    LibrarySummary("strlen", ((0, RET),)),
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
    A malformed config, or an entry with a malformed field, leaves the
    defaults untouched and reports why."""
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
                _indices(entry.get("taints", [1]), (RET,)),
                _index(entry.get("fd_arg"), (None,)))
        for entry in raw.get("sinks", []):
            name, klass = entry["name"], entry.get("class", "copy")
            if klass not in ("copy", "exec"):
                raise ValueError(f"sink class {klass!r} is not copy or exec")
            models.sinks[name] = SinkModel(
                name, klass, _indices(entry.get("checked_args", [1])),
                _index(entry.get("dst_arg"), (None,)),
                _index(entry.get("len_arg"), (None,)))
        for entry in raw.get("summaries", []):
            name, flows = entry["name"], entry.get("flows", [])
            if not (isinstance(flows, list)
                    and all(isinstance(f, list) and len(f) == 2 for f in flows)):
                raise ValueError(f"flows {flows!r} are not [from, to] pairs")
            models.summaries[name] = LibrarySummary(
                name, tuple((_index(a), _index(b, (RET,))) for a, b in flows))
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return default_models(), [ir.Diagnostic(f"bad taint config {path}: {exc}")]
    return models, []


def _index(value, also: tuple = ()):
    """A model field's argument index: a non-negative int, or one of `also`
    (`RET` or None) where the field allows it; ValueError otherwise."""
    if (type(value) is int and value >= 0) or value in also:
        return value
    raise ValueError(f"{value!r} is not an argument index")


def _indices(values, also: tuple = ()) -> tuple:
    if not isinstance(values, list):
        raise ValueError(f"{values!r} is not a list of argument indices")
    return tuple(_index(v, also) for v in values)


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
    sink: SinkModel
    item: Tracked
    dst: Optional[ir.Operand] = None         # the destination operand
    length: Optional[ir.Operand] = None      # the length operand


def _arg(form: ir.Call, index: Optional[int]) -> Optional[ir.Operand]:
    return form.args[index] if index is not None and index < len(form.args) else None


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
        # (function, compare register) -> {(point, key, relation): fact}
        self.cmp_facts: dict[tuple[str, str], dict] = {}
        # (point, argument index, seed id) -> the first hit found there
        self.sink_hits: dict[tuple, SinkHit] = {}

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
        self.cmp_facts.setdefault((stmt.point.func, form.dst), {}).setdefault(
            (stmt.point, t.key(), rel), (subject, rel, bound, stmt.point))

    # library taint flows and sink observation at callsites
    def callsite_forward(self, analysis, point, form, t: Tracked):
        gens: list[Tracked] = []
        if not isinstance(form, ir.Call):
            return gens
        name = form.target
        if name in self.models.sinks and t.tainted:
            model = self.models.sinks[name]
            for ci in model.checked_args:
                hk = (point, ci, t.seed_id)
                if (ci < len(form.args) and t.expr == op_sse(form.args[ci])
                        and hk not in self.sink_hits):
                    self.sink_hits[hk] = SinkHit(point, model, t,
                                                 _arg(form, model.dst_arg),
                                                 _arg(form, model.len_arg))
        if name in self.models.summaries and t.tainted:
            summ = self.models.summaries[name]
            for src_i, dst in summ.flows:
                if src_i >= len(form.args) or t.expr != op_sse(form.args[src_i]):
                    continue
                if dst == RET:
                    if form.ret is None:
                        continue
                    expr = S.Reg(form.ret)
                else:
                    if dst >= len(form.args) or not isinstance(form.args[dst], str):
                        continue
                    expr = S.Reg(form.args[dst])
                gens.append(t.derive(expr, point, "post", derived=True))
        elif (t.tainted and name not in self.models.summaries
              and name not in self.models.sources and name not in self.models.sinks
              and name not in analysis.program.functions):
            analysis.warn(
                f"tainted argument to unmodeled {name} at {point}; taint kept")
        return gens

    def edge_constraints(self, analysis: Analysis
                         ) -> dict[tuple[str, str], list[Constraint]]:
        """Attach the comparison facts collected during `analysis` to
        branch edges: the true successor gets the fact as-is, the false
        successor its negation."""
        out: dict[tuple[str, str], list[Constraint]] = {}
        for fname in list(analysis.visited_functions):
            fn = analysis.program.functions[fname]
            for stmt in fn.statements():
                form = stmt.form
                if not isinstance(form, ir.Branch):
                    continue
                for subject, rel, bound, site in self.cmp_facts.get(
                        (fname, form.cond), {}).values():
                    c_true = Constraint(subject.expr, rel, bound, site,
                                        subject.seed_id)
                    c_false = Constraint(subject.expr, _NEGATE[rel], bound, site,
                                         subject.seed_id)
                    out.setdefault((fname, form.then_block), []).append(c_true)
                    out.setdefault((fname, form.else_block), []).append(c_false)
        return out


# ---------------------------------------------------------------------------
# Sink checking
# ---------------------------------------------------------------------------

def _backward_family(session: Session, point: ir.Point, reg: str,
                     cap_hits: list[str]) -> tuple[S.Sse, ...]:
    """The expressions of `reg`'s backward family at `point`, from a query
    analysis of its own, whose cap hits are appended to `cap_hits`.  The
    analysis has no policy, so no fact moves from a caller into a
    callee, and a caller outside the function's call-graph cycle cannot
    change the family: it exports only to callers in the cycle."""
    sub = Analysis(session, confine=session.cycle(point.func))
    sid = sub.add_seed(Seed(point=point, expr=S.Reg(reg),
                            direction="backward", label="query"))
    sub.run()
    cap_hits.extend(sub.cap_hits)
    return tuple(t.expr for t in sub.family(sid, point.func))


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


def _stack_dst(session: Session, point: ir.Point, reg: ir.Operand,
               cap_hits: list[str]):
    """(sp offset, capacity up to the frame top) of the stack buffer that
    `reg` points to at `point`, from its backward family (whose query's
    cap hits go to `cap_hits`); (None, None) when it resolves to no sp+k
    form."""
    offset = None
    if isinstance(reg, str):
        offset = _stack_offset_of(_backward_family(session, point, reg, cap_hits))
    if offset is None:
        return None, None
    return offset, session.program.functions[point.func].frame_size - offset


def _guards(session: Session, constraints_by_edge, fname: str, block: str,
            seed_id: int) -> list[Constraint]:
    """The seed's constraints on branch edges whose target dominates
    `block`; the dominators are built only when an edge of `fname` has
    a constraint."""
    edges = [(t, cs) for (cf, t), cs in constraints_by_edge.items() if cf == fname]
    doms = session.func(fname).dominators().get(block, ()) if edges else ()
    return [c for t, cs in edges if t in doms for c in cs if c.seed_id == seed_id]


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
               cap_hits: list[str], tainted_args: frozenset = frozenset()
               ) -> Optional[Alert]:
    """Decide whether one tainted sink argument or loop store becomes an
    alert; the cap hits of its backward queries go to `cap_hits`."""
    _, sink_block, _ = session.locate(hit.point)
    model = hit.sink
    applicable = _guards(session, constraints_by_edge, hit.point.func, sink_block,
                         hit.item.seed_id)

    # a constant length argument (immediate, or a register that resolves
    # to one untainted constant) acts like an equality constraint
    bound = hit.length
    if isinstance(bound, str):
        bound = (None if (hit.point, model.len_arg) in tainted_args
                 else _constant_of(_backward_family(session, hit.point, bound,
                                                    cap_hits)))
    if bound is not None:
        applicable.append(Constraint(S.Val(bound), "==", S.Val(bound),
                                     hit.point, hit.item.seed_id))

    offset = capacity = bound = None
    if model.klass == "exec":
        if applicable:
            return None
        klass, verdict = "command-exec", "tainted command with no constraint"
    else:
        if any(c.symbolic() for c in applicable):
            return None
        uppers = [c.upper_bound() for c in applicable if c.upper_bound() is not None]
        bound = min(uppers) if uppers else None
        offset, capacity = _stack_dst(session, hit.point, hit.dst, cap_hits)
        if bound is None and model is LOOP_COPY:
            verdict = "unbounded loop copy through an advancing pointer"
        elif bound is None:
            verdict = ("unbounded copy, destination unknown" if capacity is None
                       else "unbounded tainted copy into stack buffer")
        elif capacity is None:
            verdict = "bounded copy but destination unknown"
        elif bound > capacity:
            verdict = f"bound {bound} exceeds capacity {capacity}"
        else:
            return None
        klass = "copy-like"
    return Alert(hit.point, model.name, klass, hit.item.expr, tuple(applicable),
                 capacity, bound, offset, verdict,
                 _taint_chain(hit.item) + (str(hit.point),))


# the store of a loop copy: a copy with the store's address as its
# destination and no length argument
LOOP_COPY = SinkModel("loop-copy", "copy", ())


def detect_loop_copies(analysis: Analysis) -> list[SinkHit]:
    """The minimal unsafe-loop-copy idiom: inside a loop, a store
    through a pointer that the loop itself advances, storing a value fed
    by a tainted load.  Each such store is a `LOOP_COPY` sink hit, which
    `check_sink` decides like any other copy (so any dominating constraint
    still suppresses it)."""
    hits: list[SinkHit] = []
    for fname in sorted(analysis.visited_functions):
        reg = analysis.registry.get(fname, {})
        tainted = {}
        for t in reg.values():
            if t.tainted and isinstance(t.expr, S.Reg):
                tainted.setdefault(t.expr.name, []).append(t)
        if not tainted:
            continue
        fn = analysis.func(fname)
        graph, loops = fn.cfg, fn.loops
        if not loops:
            continue
        source_labels = {stmt.point.block for lbl in loops
                         for stmt in graph.blocks[lbl].stmts}
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
                if items:
                    hits.append(SinkHit(stmt.point, LOOP_COPY, items[0], form.addr))
    return hits


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


def run_taint(session: Session, models: Models | None = None) -> TaintResult:
    """Seed the sources, run the taint fixpoint and decide every sink hit,
    at library sinks and loop copies alike, with `check_sink`.  Every
    analysis of the run shares `session`."""
    models = models or default_models()
    policy = TaintPolicy(models)
    analysis = Analysis(session, policy)
    seeds = seed_sources(session.program, models)
    for seed in seeds:
        analysis.add_seed(seed)
    analysis.run()

    constraints = policy.edge_constraints(analysis)
    tainted_args = frozenset((point, ci) for point, ci, _ in policy.sink_hits)
    alerts: dict[ir.Point, Alert] = {}
    # the run's cap hits, then the sink queries', each once in first-ask
    # order; the queries' warnings are left out, as the seed queries' are
    cap_hits = list(analysis.cap_hits)
    for hit in [*policy.sink_hits.values(), *detect_loop_copies(analysis)]:
        alert = check_sink(session, hit, constraints, cap_hits, tainted_args)
        if alert is not None:
            alerts.setdefault(hit.point, alert)

    tainted_blocks = set()
    for fname, reg in analysis.registry.items():
        for t in reg.values():
            if t.tainted:
                tainted_blocks.add((fname, t.point.block))
    ordered = sorted(alerts.values(), key=lambda a: str(a.sink_site))
    return TaintResult(
        alerts=ordered,
        tainted_sinks=len({point for point, _, _ in policy.sink_hits}),
        tainted_blocks=len(tainted_blocks),
        covered_blocks=len(analysis.blocks_visited),
        analyzed_functions=len(analysis.visited_functions),
        warnings=list(analysis.warnings),
        cap_hits=list(dict.fromkeys(cap_hits)),
        seeds=len(seeds),
    )
