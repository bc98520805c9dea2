"""Indirect-call resolution.

A callsite's target register is traced backward to its alias set
(CTexpr); every reference to an address-taken function, whether a plain
function pointer (fptr) or a function-table base (dptr), is traced in
both directions to its alias set (Pexpr).  Targets fall out of matching
one against the other:

  direct-fptr   a CTexpr is the function address itself, a load of a
                data cell holding one, or any expression shared with an
                fptr's alias set.
  table-stride  a CTexpr has the shape load(table + i*stride + off):
                the table is walked at that stride, keeping words that
                are function addresses and recording zeros as NULL.
  gptr-load     CTexpr load(G) with some Pexpr store(G) over the same
                globals-rooted cell: the stored function pointer is the
                target.
  gptr-table    CTexpr load(load(G) + i*stride + off) with a dptr's
                Pexpr store(G): the inner load names the table base, so
                the table is walked as above.

A site matched by several patterns takes the union of targets and is
labeled with the highest-priority pattern among those that contributed
(loads of cells inside an already-walked table count toward the table
pattern, not as independent direct hits).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import cfg as cfglib
from . import ir
from . import sse as S
from .alias import Analysis, EngineConfig, Seed, Session

log = logging.getLogger(__name__)

PATTERNS = ("direct-fptr", "table-stride", "gptr-load", "gptr-table", "unresolved")


@dataclass
class PointerRef:
    kind: str                      # "fptr" | "dptr"
    value: int                     # function address / table base
    site: ir.Point | None = None   # in-code reference site
    cell: int | None = None        # data-section cell holding the value
    pexprs: set = field(default_factory=set)


@dataclass
class IcallResolution:
    callsite: ir.Point
    targets: tuple[str, ...]
    pattern: str
    null_targets: int = 0
    evidence: dict = field(default_factory=dict)

    def as_json(self):
        return {"callsite": str(self.callsite), "pattern": self.pattern,
                "targets": sorted(self.targets), "null_targets": self.null_targets,
                "evidence": self.evidence}


def find_icall_sites(program: ir.Program) -> list[ir.Point]:
    out = []
    for fn in program.functions.values():
        for stmt in fn.statements():
            if isinstance(stmt.form, ir.ICall):
                out.append(stmt.point)
    return out


def collect_pointer_refs(program: ir.Program,
                         address_taken: frozenset[int]) -> list[PointerRef]:
    refs: list[PointerRef] = []
    data_objects = {base: words for base, words in program.data_section.items()}
    table_bases = {base for base, words in data_objects.items()
                   if any(w in address_taken for w in words)}
    ws = program.word_size

    for base, words in data_objects.items():
        for i, w in enumerate(words):
            if w in address_taken:
                cell = base + i * ws
                refs.append(PointerRef("fptr", w, cell=cell,
                                       pexprs={S.Load(S.Val(cell))}))
    for fn in program.functions.values():
        for stmt in fn.statements():
            for imm in ir.immediates(stmt.form):
                if imm in address_taken:
                    refs.append(PointerRef("fptr", imm, site=stmt.point))
                obj = program.data_object(imm)
                if obj is not None and obj[0] in table_bases:
                    refs.append(PointerRef("dptr", imm, site=stmt.point))
    return refs


def table_walk(program: ir.Program, base: int, stride: int, off: int,
               entries: dict[int, str]) -> tuple[list[str], int]:
    """Read base + i*stride + off for i = 0, 1, ... within the labeled
    data object; function-address words become targets, zero words count
    as explicit NULL targets, anything else is skipped."""
    obj = program.data_object(base)
    if obj is None or stride <= 0:
        return [], 0
    obj_base, words = obj
    end = obj_base + len(words) * program.word_size
    targets: list[str] = []
    nulls = 0
    i = 0
    while True:
        addr = base + i * stride + off
        if addr >= end or addr < obj_base:
            break
        w = program.data_word(addr)
        if w is not None:
            if w == 0:
                nulls += 1
            elif w in entries:
                targets.append(entries[w])
        i += 1
    return targets, nulls


def _index_term_shape(e: S.Sse):
    """Match load(X + i*stride + off); returns (base_expr, stride, off)."""
    if not isinstance(e, S.Load):
        return None
    terms, const = S._sum_terms(e.addr)
    its = [t for t in terms if isinstance(t, S.IndexTerm)]
    rest = [t for t in terms if not isinstance(t, S.IndexTerm)]
    if len(its) != 1 or rest:
        return None
    it = its[0]
    return it.base, it.stride, const


def _gp_rooted(e: S.Sse) -> bool:
    return S.root_register(e) == "gp"


def resolve(callsite: ir.Point, ct_exprs: list[S.Sse], refs: list[PointerRef],
            program: ir.Program) -> IcallResolution:
    """Match one callsite's CTexpr set against the pointer references."""
    entries = {f.entry_address: f.name for f in program.functions.values()}
    ct_exprs = [e for e in ct_exprs if not S.has_bitwise_addr(e)]

    direct: list[tuple[str, int | None]] = []   # (target, containing object)
    table_hits: list[tuple[list[str], int, dict]] = []
    gptr_load: list[str] = []
    gptr_table: list[tuple[list[str], int, dict]] = []

    fptr_refs = [r for r in refs if r.kind == "fptr"]
    dptr_refs = [r for r in refs if r.kind == "dptr"]

    for ct in ct_exprs:
        if isinstance(ct, S.Val) and ct.value in entries:
            direct.append((entries[ct.value], None))
        if isinstance(ct, S.Load) and isinstance(ct.addr, S.Val):
            cell = ct.addr.value
            w = program.data_word(cell)
            if w is not None and w in entries:
                obj = program.data_object(cell)
                direct.append((entries[w], obj[0] if obj else None))
        shape = _index_term_shape(ct)
        if shape is not None:
            base, stride, off = shape
            if isinstance(base, S.Val):
                targets, nulls = table_walk(program, base.value, stride, off, entries)
                if targets or nulls:
                    table_hits.append((targets, nulls, {
                        "ct": S.pretty(ct), "base": hex(base.value),
                        "stride": hex(stride), "offset": hex(off)}))
            elif isinstance(base, S.Load) and _gp_rooted(base.addr):
                for ref in dptr_refs:
                    if any(isinstance(p, S.Store) and p.addr == base.addr
                           for p in ref.pexprs):
                        targets, nulls = table_walk(program, ref.value, stride,
                                                    off, entries)
                        if targets or nulls:
                            gptr_table.append((targets, nulls, {
                                "ct": S.pretty(ct), "gp_cell": S.pretty(base.addr),
                                "base": hex(ref.value), "stride": hex(stride),
                                "offset": hex(off)}))
        if isinstance(ct, S.Load) and _gp_rooted(ct.addr):
            for ref in fptr_refs:
                if any(isinstance(p, S.Store) and p.addr == ct.addr
                       for p in ref.pexprs):
                    gptr_load.append(entries.get(ref.value, hex(ref.value)))
        for ref in fptr_refs:
            if ref.site is not None and ct in ref.pexprs and ref.value in entries:
                direct.append((entries[ref.value], None))

    walked_objects = set()
    for targets, nulls, ev in table_hits + gptr_table:
        base = int(ev["base"], 16)
        obj = program.data_object(base)
        if obj:
            walked_objects.add(obj[0])
    effective_direct = [t for t, obj in direct
                        if obj is None or obj not in walked_objects]

    all_targets: set[str] = set(effective_direct)
    nulls = 0
    evidence: dict = {}
    for targets, n, ev in table_hits + gptr_table:
        all_targets.update(targets)
        nulls += n
        evidence.setdefault("tables", []).append(ev)
    all_targets.update(gptr_load)
    for t, obj in direct:
        if obj is not None and obj in walked_objects:
            all_targets.add(t)

    if effective_direct:
        pattern = "direct-fptr"
    elif table_hits:
        pattern = "table-stride"
    elif gptr_load:
        pattern = "gptr-load"
    elif gptr_table:
        pattern = "gptr-table"
    else:
        pattern = "unresolved"
    if effective_direct:
        evidence["direct"] = sorted(set(effective_direct))
    if gptr_load:
        evidence["gptr_load"] = sorted(set(gptr_load))
    return IcallResolution(callsite, tuple(sorted(all_targets)), pattern,
                           nulls, evidence)


def resolve_all(program: ir.Program, address_taken: frozenset[int] | None = None,
                config: EngineConfig | None = None,
                session: Session | None = None):
    """Run the alias engine for every icall target and pointer reference,
    then match.  Returns (resolutions list, {callsite: targets} map).
    `session` (built from `config` when not given) must have no
    resolutions: this is the run that finds them."""
    if session is None:
        session = Session(program, config)
    elif session.resolutions:
        raise ValueError("icall resolution runs on a session without resolutions")
    if address_taken is None:
        address_taken = cfglib.find_address_taken(program)
    sites = find_icall_sites(program)
    refs = collect_pointer_refs(program, address_taken)

    analysis = Analysis(program, config, session=session)
    ct_sids: dict[ir.Point, int] = {}
    for point in sites:
        ct_sids[point] = analysis.add_seed(Seed(
            point=point, expr=S.Reg(session.statement(point).form.target),
            direction="backward", label=f"ct:{point}"))
    ref_sids: list[tuple[PointerRef, int]] = []
    for ref in refs:
        if ref.site is not None:
            sid = analysis.add_seed(Seed(
                point=ref.site, expr=S.Val(ref.value), direction="both",
                label=f"ref:{ref.kind}:{ref.site}"))
            ref_sids.append((ref, sid))
    analysis.run()

    for ref, sid in ref_sids:
        for t in analysis.family(sid):
            if not t.derived:
                ref.pexprs.add(t.expr)

    resolutions: list[IcallResolution] = []
    for point in sites:
        ct = [t.expr for t in analysis.family(ct_sids[point]) if not t.derived]
        resolutions.append(resolve(point, ct, refs, program))
    mapping = {r.callsite: r.targets for r in resolutions if r.targets}
    return resolutions, mapping


def augment_call_graph(graph: cfglib.CallGraph,
                       resolutions: list[IcallResolution]) -> cfglib.CallGraph:
    """Add resolved icall edges; idempotent; unresolved sites stay listed."""
    edges = list(graph.edges)
    seen = set(edges)
    resolved_sites = set()
    for res in resolutions:
        if res.targets:
            resolved_sites.add(res.callsite)
        for target in res.targets:
            edge = (res.callsite.func, target, res.callsite)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    unresolved = tuple(p for p in graph.unresolved_icalls
                       if p not in resolved_sites)
    return cfglib.CallGraph(graph.nodes, tuple(edges), unresolved)


def metrics(resolutions: list[IcallResolution]) -> dict:
    """The resolution-table counters: a site counts as resolved when at
    least one target was found."""
    all_icalls = len(resolutions)
    resolved = sum(1 for r in resolutions if r.targets)
    targets = sum(len(r.targets) for r in resolutions)
    return {
        "all_icalls": all_icalls,
        "resolved_icalls": resolved,
        "icall_targets": targets,
        "resolved_pct": round(100.0 * resolved / all_icalls, 1) if all_icalls else 0.0,
    }
