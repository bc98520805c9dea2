"""Structured symbolic expressions: the unit of alias identity.

An expression is a tree over registers, 64-bit constants, binary/unary
arithmetic, and abstract memory nodes ``load(addr)`` / ``store(addr)``.
A ``store`` node names the value written by some store statement; a
``load`` node names the value read from a cell.  Two expressions denote
the same runtime value exactly when their canonical forms are
structurally equal, which is what the whole analysis leans on.

Memory nodes carry two bookkeeping fields that deliberately do NOT take
part in structural equality:

``birth``
    The statement index (within the block being walked) at which the
    node entered the expression.  Needed to decide the ordering side
    conditions of the store-crossing rules: a store kills only memory
    nodes created before it, and a backward store-crossing rewrites only
    loads created after it.

``stale_fwd`` / ``stale_bwd``
    Set when the expression is carried across a store whose address is
    syntactically different from the node's but might collide at
    runtime: a store after the node's birth taints later forward
    re-matching (stale_fwd), a store crossed on the way up taints
    use-define matching above it (stale_bwd).  A marked node is never
    used again as a rewrite target on the affected side, and marked
    expressions are excluded from the pairs handed to the concrete
    certifier.  They are still reported: recall beats precision here,
    the certifier just does not vouch for them.

    A node stale in both directions is *spent*: it names a cell that
    may-alias stores overwrote on both sides, so no rule matches it
    again in either direction and no expression holding it is trusted.
    `holds_spent` says whether an expression holds one; the engine stops
    tracking most such aliases (`alias._spent`).

Every node also caches structural facts computed at construction from
its children's: register set, size, memory depth and flag bits (a
bitwise op, a bitwise op in some memory node's address, a spent node).
Like the tags above they take no part in equality.  The structure
queries read them in O(1), and pattern searches and rewrites use them
to skip subtrees a pattern cannot lie in.  Five more facts are computed
on first use and cached on the node in the same way:
  ``_subs``  the structure ids of all its subtrees, itself included, so
             `occurs` is one set lookup;
  ``_sk``    its `sort_key`, the order canonical sums and commutative
             operands are kept in;
  ``_offs``  its additive constants and their offset buckets, for the
             loop-induction merge (`Families`);
  ``_mem``   the structure ids of its memory nodes' addresses and its
             birth summary (the lowest birth among its memory nodes not
             stale forward, the highest among those not stale backward),
             which the block walker's row index reads.
A tag edit (`retag`, `mark_stale`) takes one bottom-up pass that
rebuilds only the nodes above the memory nodes it changes.

Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): building a node whose fields, tags
included, match a node of the intern table returns that node.  The key
holds a child by identity, so a child that differs only in its tags
makes another key.  The table belongs to one analysis session: each root
`alias.Session` calls `reset_tables`.  The rewrites are memoized too:
`replace`, `retag`, and `mark_stale`/`replace_mem` given a `key`, are
remembered per table under the identities of their node arguments, and
so are the induction terms and zero forms the merge builds on a member
(`_merge_bucket`, `_zero`).  An entry holds those arguments, so no id in
its key is reused while it lives, and no result goes to a node that is
only equal, whose tags may differ.  A canonical form is not remembered:
nodes are interned, so canonicalizing again returns the very same node,
and `occurs` needs no memo, reading `_subs`.

The structure id `_sid` is an integer identity of the tag-free
structure.  A new node looks it up by its class, its fields but the
tags and its children's ids.  The id map lives as long as the process
and is never cleared, so one id names one structure in every table.
It is the only equality: two nodes are equal, and hash alike, exactly
when their ids are, whatever their tags and whichever table built them.
The analysis keys its facts on it (`alias.Tracked.key`), so a node
built before a reset needs no rebuilding to key as its twin built after.

All values are immutable; every function in this module is pure.  The
table and the memos change which object a call returns, never its value.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import MISSING, dataclass
from typing import Iterator, Optional, Union

U64 = (1 << 64) - 1

# Births for nodes that entered the current block from elsewhere.
BIRTH_BEFORE_BLOCK = -(1 << 30)
BIRTH_AFTER_BLOCK = 1 << 30

COMMUTATIVE = {"+", "*", "&", "|", "^", "==", "!="}
BITWISE = {"&", "|", "^", "<<", ">>"}


# Node equality and hashing read the structure id alone (process-wide,
# never reset), so they exclude the birth/stale bookkeeping on memory
# nodes and take one compare.  Every node computes its facts once, at
# construction, from its children's: the register set `_regs`, the node
# count `_size`, the memory nesting depth `_mdepth` and the flag bits
# `_bits` (_BIT_OP: a bitwise op appears in the tree; _BIT_ADDR: some
# memory node's address holds one; _BIT_SPENT: some memory node is spent,
# stale both forward and backward).  The tags are part of the intern key,
# so a node's spent bit is fixed like its other facts.  `_canon` marks
# trees the canonicalizer already produced so re-canonicalizing is free.

_BIT_OP, _BIT_ADDR, _BIT_SPENT = 1, 2, 4

_NO_REGS: frozenset[str] = frozenset()

_TABLE: dict = {}        # (class, field or id(child node), ...) -> node
_SIDS: dict = {}         # (class, tag-free field or child _sid, ...) -> _sid
_MEMO: dict = {}         # (rewrite, id(node) or value, ...) -> (result, args)


def reset_tables() -> None:
    """Start an empty intern table and memos (a new analysis session).
    The structure-id map is kept, so nodes built before stay valid: they
    are equal to the nodes built after and share their ids, only they
    are not the same objects."""
    _TABLE.clear()
    _MEMO.clear()


def _memo(key: tuple, fn, *args):
    """`fn(*args)`, remembered until the next reset under `key`: `fn` and
    what determines the result, nodes by their ids.  The entry holds the
    node arguments, so no id in its key is reused while it lives."""
    hit = _MEMO.get(key)
    if hit is None:
        hit = _MEMO[key] = (fn(*args), tuple([a for a in args
                                               if isinstance(a, _Node)]))
    return hit[0]


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


_set = object.__setattr__


class _Interned(type):
    """The node classes' metaclass: calling a class returns the table's
    node with those fields, and builds one only when there is none.  A
    new node gets its structure id `_sid`, looked up by the class, the
    fields but the tags (the first `_nstruct`) and the children's ids;
    a structure new to the process gets the next id."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) < len(cls.__match_args__):
            args = _all_fields(cls, args, kwargs)
        key = (cls, *[id(a) if isinstance(a, _Node) else a for a in args])
        node = _TABLE.get(key)
        if node is None:
            node = _TABLE[key] = super().__call__(*args)
            skey = (cls, *[a._sid if isinstance(a, _Node) else a
                           for a in args[:cls._nstruct]])
            sid = _SIDS.get(skey)
            if sid is None:
                sid = _SIDS[skey] = len(_SIDS)
            _set(node, "_sid", sid)
        return node


def _all_fields(cls, args: tuple, kwargs: dict) -> list:
    """The values of every field of a `cls` node in order: `args`, then
    `kwargs` by name, then the defaults."""
    values = list(args)
    for name in cls.__match_args__[len(args):]:
        value = kwargs.pop(name, cls.__dataclass_fields__[name].default)
        if value is MISSING:
            raise TypeError(f"{cls.__name__} needs {name}")
        values.append(value)
    if kwargs:
        raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))}")
    return values


class _Node(metaclass=_Interned):
    # `_offs`, `_mem`, `_subs` and `_sk` are filled on first use only (see
    # `_offsets`, `mem_summary`, `_subtree_ids` and `sort_key`)
    __slots__ = ("_sid", "_canon", "_regs", "_size", "_mdepth", "_bits",
                 "_offs", "_mem", "_subs", "_sk")
    _nstruct = None     # how many fields make the structure (None: all)

    def __eq__(self, other):
        return self is other or (type(other) in _KINDS and other._sid == self._sid)

    def __hash__(self):
        return self._sid

    def _mark_canonical(self):
        _set(self, "_canon", True)
        return self

    def _facts(self, canon, regs, size, mdepth, bits):
        _set(self, "_canon", canon)
        _set(self, "_regs", regs)
        _set(self, "_size", size)
        _set(self, "_mdepth", mdepth)
        _set(self, "_bits", bits)


@dataclass(frozen=True, eq=False, slots=True)
class Reg(_Node):
    name: str

    def __post_init__(self):
        self._facts(True, frozenset((self.name,)), 1, 0, 0)

    def __repr__(self):
        return f"Reg({self.name})"


@dataclass(frozen=True, eq=False, slots=True)
class Val(_Node):
    value: int

    def __post_init__(self):
        self._facts(0 <= self.value <= U64, _NO_REGS, 1, 0, 0)

    def __repr__(self):
        return f"Val({self.value:#x})"


@dataclass(frozen=True, eq=False, slots=True)
class Bin(_Node):
    op: str
    left: "Sse"
    right: "Sse"

    def __post_init__(self):
        l, r = self.left, self.right
        self._facts(False, _union(l._regs, r._regs), 1 + l._size + r._size,
                    max(l._mdepth, r._mdepth),
                    l._bits | r._bits | (self.op in BITWISE))


@dataclass(frozen=True, eq=False, slots=True)
class Un(_Node):
    op: str
    child: "Sse"

    def __post_init__(self):
        c = self.child
        self._facts(False, c._regs, 1 + c._size, c._mdepth,
                    c._bits | (self.op == "~"))


@dataclass(frozen=True, eq=False, slots=True)
class _Mem(_Node):
    """A memory node: `Load` and `Store` differ only in their name."""
    addr: "Sse"
    birth: int = BIRTH_BEFORE_BLOCK
    stale_fwd: bool = False
    stale_bwd: bool = False
    _nstruct = 1        # the address; the tags are not structure

    def __post_init__(self):
        a = self.addr
        bits = a._bits | _BIT_ADDR if a._bits & _BIT_OP else a._bits
        if self.stale_fwd and self.stale_bwd:
            bits |= _BIT_SPENT
        self._facts(False, a._regs, 1 + a._size, 1 + a._mdepth, bits)

    @property
    def stale(self):
        return self.stale_fwd or self.stale_bwd


class Load(_Mem):
    __slots__ = ()


class Store(_Mem):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class IndexTerm(_Node):
    """A loop-summarized term ``base + i * stride`` with a fresh index id.

    Two index terms are equal only when base, stride and index id all
    match.  Whole strides added to a register-rooted base are index
    shifts and are absorbed; constant bases anchor absolute function
    tables and are left alone.
    """

    base: "Sse"
    stride: int
    index: str

    def __post_init__(self):
        b = self.base
        self._facts(False, b._regs, 1 + b._size, b._mdepth, b._bits)


Sse = Union[Reg, Val, Bin, Un, Load, Store, IndexTerm]
_KINDS = frozenset((Reg, Val, Bin, Un, Load, Store, IndexTerm))


# ---------------------------------------------------------------------------
# Shared two's-complement arithmetic (the interpreter uses the same table,
# so constant folding and concrete execution cannot disagree).
# ---------------------------------------------------------------------------

def eval_binop(op: str, a: int, b: int) -> int:
    a &= U64
    b &= U64
    if op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    elif op == "/":
        r = a // b if b else 0
    elif op == "<<":
        r = a << (b & 63)
    elif op == ">>":
        r = a >> (b & 63)
    elif op == "&":
        r = a & b
    elif op == "|":
        r = a | b
    elif op == "^":
        r = a ^ b
    elif op == "<":
        r = int(a < b)
    elif op == "<=":
        r = int(a <= b)
    elif op == "==":
        r = int(a == b)
    elif op == "!=":
        r = int(a != b)
    elif op == ">=":
        r = int(a >= b)
    elif op == ">":
        r = int(a > b)
    else:
        raise ValueError(f"unknown binop {op!r}")
    return r & U64


def eval_unop(op: str, a: int) -> int:
    a &= U64
    if op == "~":
        return (~a) & U64
    if op == "!":
        return int(a == 0)
    if op == "neg":
        return (-a) & U64
    raise ValueError(f"unknown unop {op!r}")


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

_REG_ORDER = {"sp": 1 << 40, "gp": (1 << 40) + 1}


def _reg_rank(name: str) -> int:
    if name in _REG_ORDER:
        return _REG_ORDER[name]
    return int(name[1:])


def sort_key(e: Sse):
    """Deterministic total order: registers first, then memory nodes and
    compound terms, constants last.  Computed once per node and cached on
    it: the key reads structure only."""
    try:
        return e._sk
    except AttributeError:
        pass
    t = type(e)
    if t is Reg:
        key = (0, _reg_rank(e.name))
    elif t is Load or t is Store:
        key = (1 if t is Load else 2, sort_key(e.addr))
    elif t is IndexTerm:
        key = (3, sort_key(e.base), e.stride, e.index)
    elif t is Un:
        key = (4, e.op, sort_key(e.child))
    elif t is Bin:
        key = (5, e.op, sort_key(e.left), sort_key(e.right))
    else:
        key = (9, e.value)
    _set(e, "_sk", key)
    return key


def _sum_terms(e: Sse) -> tuple[list[Sse], int]:
    """Flatten an additive chain into (non-constant terms, folded constant)."""
    if isinstance(e, Val):
        return [], e.value
    if isinstance(e, Bin) and e.op == "+":
        lt, lc = _sum_terms(e.left)
        rt, rc = _sum_terms(e.right)
        return lt + rt, (lc + rc) & U64
    if isinstance(e, Bin) and e.op == "-" and isinstance(e.right, Val):
        lt, lc = _sum_terms(e.left)
        return lt, (lc - e.right.value) & U64
    return [e], 0


def _rebuild_sum(terms: list[Sse], const: int) -> Sse:
    """The canonical sum of `terms` and `const`.  Every caller passes a
    term: a sum with none folds to a constant before it gets here."""
    terms = sorted(terms, key=sort_key)
    if const:
        terms = terms + [Val(const)._mark_canonical()]
    acc = terms[0]
    for t in terms[1:]:
        acc = Bin("+", acc, t)._mark_canonical()
    return acc


def canonicalize(e: Sse) -> Sse:
    """Normalize an expression: fold constants (mod 2**64), flatten and
    sort additive chains, drop neutral elements, absorb whole-stride
    shifts of an index term's base.  Idempotent."""
    if e._canon:
        return e
    return _canonicalize(e)._mark_canonical()


def _canonicalize(e: Sse) -> Sse:
    if isinstance(e, Val):
        return Val(e.value & U64)
    if isinstance(e, Un):
        c = canonicalize(e.child)
        if isinstance(c, Val):
            return Val(eval_unop(e.op, c.value))
        return Un(e.op, c)
    if isinstance(e, _Mem):
        return type(e)(canonicalize(e.addr), e.birth, e.stale_fwd, e.stale_bwd)
    if isinstance(e, IndexTerm):
        base = canonicalize(e.base)
        # A whole stride added to the base is an index shift and is
        # absorbed into the (unconstrained) index; the remainder stays in
        # the base.  Constant bases anchor absolute tables and are never
        # touched.
        bterms, bconst = _sum_terms(base)
        if bterms and e.stride and bconst:
            base = _rebuild_sum(bterms, bconst % e.stride)
        return IndexTerm(base, e.stride, e.index)
    # Bin
    l = canonicalize(e.left)
    r = canonicalize(e.right)
    op = e.op
    if isinstance(l, Val) and isinstance(r, Val):
        return Val(eval_binop(op, l.value, r.value))
    if op in ("+", "-") and (op == "+" or isinstance(r, Val)):
        terms, const = _sum_terms(Bin(op, l, r))
        terms = [canonicalize(t) if isinstance(t, IndexTerm) else t for t in terms]
        return _rebuild_sum(terms, const)
    if op == "*":
        if isinstance(l, Val):
            l, r = r, l
        if isinstance(r, Val):
            if r.value == 0:
                return Val(0)
            if r.value == 1:
                return l
    if op in ("<<", ">>") and isinstance(r, Val) and r.value == 0:
        return l
    if op in COMMUTATIVE and sort_key(r) < sort_key(l):
        l, r = r, l
    return Bin(op, l, r)


# ---------------------------------------------------------------------------
# Structure queries (O(1) reads of the cached facts, or walks pruned by them)
# ---------------------------------------------------------------------------

def subtrees(e: Sse) -> Iterator[Sse]:
    """Every node of `e`, `e` first; a subtree that occurs twice is
    yielded twice."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(_children(n))


def _children(n: Sse) -> tuple[Sse, ...]:
    t = type(n)
    if t is Bin:
        return n.left, n.right
    if t is Load or t is Store:
        return n.addr,
    if t is Un:
        return n.child,
    if t is IndexTerm:
        return n.base,
    return ()


def size(e: Sse) -> int:
    return e._size


def occurs(expr: Sse, pattern: Sse) -> bool:
    """True iff ``pattern`` appears as a subtree of ``expr`` (structural
    equality; both sides assumed canonical)."""
    try:
        return pattern._sid in expr._subs
    except AttributeError:
        return pattern._sid in _subtree_ids(expr)


def _subtree_ids(e: Sse) -> frozenset[int]:
    """The structure ids of every subtree of `e`, `e` included.  Computed
    on first use from its children's and cached on the node: the ids
    name structure, which a node fixes."""
    try:
        return e._subs
    except AttributeError:
        pass
    ids = frozenset((e._sid,)).union(*map(_subtree_ids, _children(e)))
    _set(e, "_subs", ids)
    return ids


def registers(e: Sse) -> frozenset[str]:
    return e._regs


def contains_reg(e: Sse, name: str) -> bool:
    return name in e._regs


def mem_nodes(e: Sse) -> Iterator[Union[Load, Store]]:
    """Memory nodes in `subtrees` order, skipping memory-free subtrees."""
    stack = [e] if e._mdepth else []
    while stack:
        n = stack.pop()
        if type(n) is Load or type(n) is Store:
            yield n
        stack.extend(c for c in _children(n) if c._mdepth)


def mem_summary(e: Sse) -> tuple[frozenset, Optional[int], Optional[int]]:
    """The structure ids of `e`'s memory nodes' addresses, and its birth
    summary: the lowest birth among those nodes not stale forward and the
    highest among those not stale backward (None where there is none),
    the reach of the stores that can still mark `e` stale.  Computed on
    first use and cached on the node: its tags are part of its intern
    key, so the summary is fixed per node."""
    if not e._mdepth:
        return frozenset(), None, None
    try:
        return e._mem
    except AttributeError:
        nodes = list(mem_nodes(e))
    summary = (frozenset(n.addr._sid for n in nodes),
               min((n.birth for n in nodes if not n.stale_fwd), default=None),
               max((n.birth for n in nodes if not n.stale_bwd), default=None))
    _set(e, "_mem", summary)
    return summary


def mem_depth(e: Sse) -> int:
    return e._mdepth


def has_bitwise_addr(e: Sse) -> bool:
    """True when some memory node's address subtree uses a bitwise op.
    Such expressions are tracked but never trusted for kills or call
    matching (pointer bit-twiddling is out of reach of this analysis)."""
    return bool(e._bits & _BIT_ADDR)


def holds_spent(e: Sse) -> bool:
    """True when some memory node of `e` is spent: stale both forward and
    backward.  Read from the cached bits, which a node's tags fix."""
    return bool(e._bits & _BIT_SPENT)


def root_register(e: Sse) -> Optional[str]:
    """The base register an expression hangs off (e.g. r0 for
    load(r0+0x8)), or None for constant-rooted expressions."""
    if isinstance(e, Reg):
        return e.name
    for c in _children(e):
        if (r := root_register(c)) is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def _remake(e: Sse, kids: list[Sse]) -> Sse:
    """`e` over the children `kids`: `e` itself when none changed."""
    if all(k is c for k, c in zip(kids, _children(e))):
        return e
    t = type(e)
    if t is Bin:
        return Bin(e.op, kids[0], kids[1])
    if t is Un:
        return Un(e.op, kids[0])
    if t is IndexTerm:
        return IndexTerm(kids[0], e.stride, e.index)
    return t(kids[0], e.birth, e.stale_fwd, e.stale_bwd)


def _substitute(e: Sse, match, replacement: Sse, fits) -> Sse:
    """Pre-order substitution: only nodes of the original tree are
    matched, so a node formed by the rewrite itself never cascades into
    another replacement.  Subtrees that `fits` rules out, and those in
    which nothing matched, are returned as they are."""
    if not fits(e):
        return e
    if match(e):
        return replacement
    return _remake(e, [_substitute(c, match, replacement, fits)
                       for c in _children(e)])


def replace(expr: Sse, pattern: Sse, replacement: Sse) -> Sse:
    """Substitute every occurrence of ``pattern`` in ``expr`` and
    re-canonicalize.  Matching is structural, so memory-node tags on the
    pattern are ignored; tags of untouched nodes survive the rebuild."""
    return _memo((_replace, id(expr), id(pattern), id(replacement)),
                 _replace, expr, pattern, replacement)


def _replace(expr: Sse, pattern: Sse, replacement: Sse) -> Sse:
    # a subtree whose structure ids (`_subs`) lack the pattern's holds no
    # occurrence of it
    sid = pattern._sid
    return canonicalize(_substitute(expr, lambda n: n._sid == sid, replacement,
                                    lambda n: sid in _subtree_ids(n)))


def replace_mem(expr: Sse, node_pred, replacement: Sse,
                key=None) -> tuple[Sse, bool]:
    """Substitute memory nodes selected by ``node_pred`` (which sees the
    node including its tags, unlike plain structural matching).  Returns
    the canonical result and whether anything was replaced.  ``key``, if
    given, is a hashable value that determines ``node_pred``; the result
    is then remembered under it."""
    if key is None:
        return _replace_mem(expr, node_pred, replacement)
    return _memo((_replace_mem, id(expr), key, id(replacement)),
                 _replace_mem, expr, node_pred, replacement)


def _replace_mem(expr: Sse, node_pred, replacement: Sse) -> tuple[Sse, bool]:
    hit = False

    def match(n):
        nonlocal hit
        if isinstance(n, _Mem) and node_pred(n):
            hit = True
            return True
        return False

    out = _substitute(expr, match, replacement, lambda n: n._mdepth)
    return (canonicalize(out) if hit else expr), hit


def retag(expr: Sse, birth: int) -> Sse:
    """Reset every memory node's birth (used when an expression crosses a
    block boundary).  Staleness is NOT cleared: a node known stale stays
    stale forever."""
    if not expr._mdepth:
        return expr
    return _memo((_retag, id(expr), birth), _retag, expr, birth)


def _retag(expr: Sse, birth: int) -> Sse:
    return _edit_tags(expr, lambda n: n.birth != birth,
                      lambda n: (birth, n.stale_fwd, n.stale_bwd))


def mark_stale(expr: Sse, node_pred, which: str = "fwd", key=None) -> Sse:
    """Set the forward or backward staleness flag on the selected memory
    nodes (a tag-only edit; the structure is unchanged).  ``key``, if
    given, is a hashable value that determines ``node_pred``; the result
    is then remembered under it."""
    if not expr._mdepth:
        return expr
    if key is None:
        return _mark_stale(expr, node_pred, which)
    return _memo((_mark_stale, id(expr), key, which),
                 _mark_stale, expr, node_pred, which)


def _mark_stale(expr: Sse, node_pred, which: str) -> Sse:
    fwd = which == "fwd"
    return _edit_tags(
        expr, lambda n: not (n.stale_fwd if fwd else n.stale_bwd) and node_pred(n),
        lambda n: (n.birth, n.stale_fwd or fwd, n.stale_bwd or not fwd))


def _edit_tags(expr: Sse, select, tags) -> Sse:
    """`expr` with the memory nodes `select` picks rebuilt under the tags
    (birth, stale_fwd, stale_bwd) that `tags` gives: a tag-only edit, so a
    canonical tree stays canonical; `expr` itself when none is picked.
    One bottom-up pass: memory-free subtrees and nodes with no picked
    node below are kept, and each rebuilt node of a canonical tree is
    marked canonical."""
    canon = expr._canon

    def edit(e: Sse) -> Sse:
        if not e._mdepth:
            return e
        out = _remake(e, [edit(c) for c in _children(e)])
        t = type(out)
        if (t is Load or t is Store) and select(out):
            out = t(out.addr, *tags(out))
        if canon and out is not e:
            _set(out, "_canon", True)
        return out

    return edit(expr)


def is_trusted(e: Sse) -> bool:
    """Expressions we are willing to hand to the concrete certifier:
    no stale memory node, no bitwise address arithmetic."""
    return not has_bitwise_addr(e) and not any(n.stale for n in mem_nodes(e))


# ---------------------------------------------------------------------------
# Kill primitives (rules 14 and 15)
# ---------------------------------------------------------------------------

def kills_register(expr: Sse, reg: str) -> bool:
    """Rule 14 trigger: the expression contains the redefined register."""
    return contains_reg(expr, reg)


def kills_memory(expr: Sse, addr: Sse, position: int) -> bool:
    """Rule 15 trigger: the expression holds a load/store of the same
    (syntactically equal) address created before the new store.  Bitwise
    addresses are exempt: we do not trust them enough to kill on them."""
    if has_bitwise_addr(expr):
        return False
    return any(n.addr == addr and n.birth < position for n in mem_nodes(expr))


# ---------------------------------------------------------------------------
# Loop-induction summarization
# ---------------------------------------------------------------------------

def _offsets(e: Sse) -> tuple[tuple[tuple, str, int], ...]:
    """(path, bucket, constant) for each additive constant of `e`'s
    canonical form (the trailing Val of a sum chain), in pre-order.  A
    path holds child indices (`_children`).  The bucket names the
    form's skeleton at that path, the form with the constant set to 0,
    by structure and without building it: per node above the constant
    its kind, what it holds besides the path's child and that child's
    index, then the structure id of the sum's terms.  So two forms share
    a bucket exactly when their skeletons there are equal.  It is a
    string, which keeps its hash.  Computed once per node and cached on
    it."""
    try:
        return e._offs
    except AttributeError:
        pass
    out = []
    stack = [(canonicalize(e), (), "")]
    while stack:
        n, path, above = stack.pop()
        t = type(n)
        if t is Bin:
            l, r = n.left, n.right
            if n.op == "+" and type(r) is Val:
                out.append((path, f"{above}+{l._sid}", r.value))
            # the left child's subtree comes first, so it goes on top
            if r._size > 1:
                stack.append((r, path + (1,), f"{above}{n.op} 1 {l._sid};"))
            if l._size > 1:
                stack.append((l, path + (0,), f"{above}{n.op} 0 {r._sid};"))
        elif t is Un:
            stack.append((n.child, path + (0,), f"{above}u{n.op};"))
        elif t is IndexTerm:
            stack.append((n.base, path + (0,), f"{above}i{n.stride} {n.index};"))
        elif t is Load or t is Store:
            stack.append((n.addr, path + (0,), f"{above}{t.__name__};"))
    offs = tuple(out)
    _set(e, "_offs", offs)
    return offs


# `_at` and `_set_at` follow paths that `_offsets` read off the same
# tree, so every step has the child it names.

def _at(e: Sse, path) -> Sse:
    for i in path:
        e = _children(e)[i]
    return e


def _set_at(e: Sse, path, new: Sse) -> Sse:
    if not path:
        return new
    kids = list(_children(e))
    kids[path[0]] = _set_at(kids[path[0]], path[1:], new)
    return _remake(e, kids)


def _zero(e: Sse, path) -> int:
    """The structure id of `e`'s canonical form without the additive
    constant at `path`: the form a family's zero member has."""
    return _memo((_zero, id(e), path), _zero_sid, e, path)


def _zero_sid(e: Sse, path) -> int:
    ce = canonicalize(e)
    return canonicalize(_set_at(ce, path, _at(ce, path).left))._sid


def _merge_bucket(e: Sse, path, d: int, low: int, index_id: str) -> Sse:
    """The induction term of a family whose additive constants at `path`
    step by `d` from `low`, built on `e`'s canonical form (its memory
    nodes keep `e`'s tags): the sum's terms at `path` become the base of
    an index term of stride `d`, plus `low`.  Remembered per member."""
    return _memo((_merge_bucket, id(e), path, d, low, index_id),
                 _induction_term, e, path, d, low, index_id)


def _induction_term(e: Sse, path, d: int, low: int, index_id: str) -> Sse:
    ce = canonicalize(e)
    # the sum's terms are canonical and hold no constant, so the index
    # term over them and its sum with the lowest constant are canonical
    term = IndexTerm(_at(ce, path).left, d, index_id)._mark_canonical()
    if low:
        term = Bin("+", term, Val(low)._mark_canonical())._mark_canonical()
    return canonicalize(_set_at(ce, path, term))


class _Group:
    """One group of a `Families`: its members, their offset buckets and
    what its next merge must evaluate."""
    __slots__ = ("members", "buckets", "zeros", "waiting", "dirty")

    def __init__(self):
        # key -> (number, its offsets (`_offsets`), its structure id), by number
        self.members: dict = {}
        # bucket (see `_offsets`) -> {key: (constant, expression, number,
        # position)} by number; a position is the bucket's index among
        # its member's offsets
        self.buckets: dict = {}
        # structure id -> {key: None}: the members of that canonical form
        self.zeros: dict = {}
        # zero's structure id -> the buckets that found none for it
        self.waiting: dict = {}
        self.dirty: dict = {}    # bucket id -> None, changed since the last merge

    def discard(self, key) -> None:
        member = self.members.pop(key)
        buckets, dirty = self.buckets, self.dirty
        for _, bid, _ in member[1]:
            bucket = buckets[bid]
            del bucket[key]
            if bucket:
                dirty[bid] = None
            else:
                del buckets[bid]
                dirty.pop(bid, None)
        same = self.zeros[member[2]]
        del same[key]
        if not same:
            del self.zeros[member[2]]

    def merge(self, index_id: str) -> list[tuple[Sse, list]]:
        """(merged expression, member keys) per family the buckets that
        may have changed hold, base member first; the members merged are
        discarded."""
        buckets, members = self.buckets, self.members
        # a bucket's rank: largest first, then by its first member's number
        # and position; with fewer than two members it cannot merge
        heap = []
        for bid in self.dirty:
            bucket = buckets[bid]
            if len(bucket) > 1:
                _, _, number, pos = next(iter(bucket.values()))
                heap.append((-len(bucket), number, pos, bid))
        heapq.heapify(heap)
        queued, self.dirty = self.dirty, {}
        used: dict = {}
        out: list[tuple[Sse, list]] = []
        while heap:
            rank = heapq.heappop(heap)
            bid = rank[3]
            bucket = buckets[bid]
            # the merged term takes the tags of the bucket's first member
            _, first, _, pos = next(iter(bucket.values()))
            path = first._offs[pos][0]
            family = [key for key, v in bucket.items() if key not in used]
            cs = sorted({bucket[key][0] for key in family})
            # a family's constants are distinct steps of one positive stride
            if len(cs) < 2 or len(cs) < len(family):
                continue
            d = cs[1] - cs[0]
            if any(cs[k + 1] - cs[k] != d for k in range(1, len(cs) - 1)):
                continue
            low = cs[0]
            if low == d:
                zero = _zero(first, path)
                z = next((key for key in self.zeros.get(zero, ()) if key not in used),
                         None)
                if z is None:
                    self.waiting.setdefault(zero, set()).add(bid)
                else:
                    family.insert(0, z)
                    low = 0
            if len(family) < 3:
                continue
            out.append((_merge_bucket(first, path, d, low, index_id), family))
            used.update(dict.fromkeys(family))
            # a later bucket that shares a member merges without it
            for key in family:
                for _, other, _ in members[key][1]:
                    if other not in queued:
                        queued[other] = None
                        shared = buckets[other]
                        if len(shared) > 1:
                            _, _, number, pos = next(iter(shared.values()))
                            later = (-len(shared), number, pos, other)
                            if later > rank:
                                heapq.heappush(heap, later)
        for key in used:
            self.discard(key)
        return out


class Families:
    """The offset families of a changing collection of expressions, merged
    at the cost of what changed (the semi-naive, or delta, step of Datalog
    evaluation: Bancilhon & Ramakrishnan, SIGMOD 1986).

    Members come and go under a caller's key, each in a caller's group
    (`add`, `discard`); families never mix groups.  Each member sits in
    one bucket per additive constant of its canonical form: the bucket of
    that constant's path and the form's skeleton with it set to 0
    (`_offsets`).  `merge` returns each family that partitioning every
    whole group would give at that moment, groups in the order of their
    earliest members.  In a group, buckets are taken largest first, ties
    in the order they first appear over the members in the order added;
    a member absorbed by one family is not reused by another; and a
    member with no additive constant at all (the pointer before its
    first increment, the bucket's *zero*) joins a family whose
    progression starts one stride above zero.  The members of the
    families merged are discarded.

    `merge` evaluates only the buckets that gained or lost a member since
    the previous merge, those waiting for a zero that has arrived since,
    and those that lose a member to a family merged before them in the
    same call.  Every other bucket failed on the very same members the
    last time it was evaluated, and fails again."""

    __slots__ = ("_groups", "_count", "_changed")

    def __init__(self):
        self._groups: dict = {}  # group -> _Group
        self._count = 0          # members added so far: the next number
        self._changed = False    # some group has a bucket to evaluate

    def add(self, members) -> None:
        """Add each (group, key, expression) of `members`, in order."""
        groups = self._groups
        number = self._count
        for group, key, expr in members:
            if group in groups:
                g = groups[group]
            else:
                g = groups[group] = _Group()
            buckets, dirty = g.buckets, g.dirty
            try:
                offs = expr._offs
            except AttributeError:
                offs = _offsets(expr)
            pos = 0
            for _, bid, const in offs:
                if bid in buckets:
                    buckets[bid][key] = (const, expr, number, pos)
                else:
                    buckets[bid] = {key: (const, expr, number, pos)}
                dirty[bid] = None
                pos += 1
            sid = expr._sid if expr._canon else canonicalize(expr)._sid
            g.members[key] = (number, offs, sid)
            zeros = g.zeros
            if sid in zeros:
                zeros[sid][key] = None
            else:
                zeros[sid] = {key: None}
            if sid in g.waiting:
                for bid in g.waiting.pop(sid):
                    if bid in buckets:
                        dirty[bid] = None
            number += 1
        self._count = number
        self._changed = True

    def discard(self, keys) -> None:
        """Drop the members of `keys` that are here."""
        for g in self._groups.values():
            members = g.members
            for key in keys:
                if key in members:
                    g.discard(key)
                    self._changed = True

    def merge(self, index_of) -> list[tuple[Sse, list]]:
        """(merged expression, member keys) per family the buckets that
        may have changed hold, base member first; `index_of(group)` names
        a group's induction index."""
        if not self._changed:
            return []
        changed = [(next(iter(g.members.values()))[0], group, g)
                   for group, g in self._groups.items() if g.dirty]
        changed.sort(key=lambda c: c[0])
        out = [family for _, group, g in changed
               for family in g.merge(index_of(group))]
        # the members merged left their other buckets changed
        self._changed = bool(out)
        return out


# ---------------------------------------------------------------------------
# Pretty printing / parsing (paper-style notation: load(store(r6+0x4)+0x8))
# ---------------------------------------------------------------------------

def pretty(e: Sse) -> str:
    if isinstance(e, Reg):
        return e.name
    if isinstance(e, Val):
        return hex(e.value)
    if isinstance(e, _Mem):
        return f"{type(e).__name__.lower()}({pretty(e.addr)})"
    if isinstance(e, IndexTerm):
        b = pretty(e.base)
        return f"{b}+{e.index}*{hex(e.stride)}"
    if isinstance(e, Un):
        op = "-" if e.op == "neg" else e.op
        return f"{op}{_wrap(e.child)}"
    return f"{_wrap(e.left)}{e.op}{_wrap(e.right)}"


def _wrap(e: Sse) -> str:
    s = pretty(e)
    if isinstance(e, (Bin, IndexTerm)):
        return f"({s})"
    return s


_REG = r"r(?:0|[1-9][0-9]*)|sp|gp"     # one name per register, as in `ir`
_TOKEN = re.compile(
    rf"\s*(load|store|{_REG}|i[0-9]+|0x[0-9a-fA-F]+|[0-9]+|<<|>>|<=|>=|==|!=|[()+\-*/&|^~!<>,])"
)


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad expression token at {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None):
        t = self.peek()
        if t is None or (expect is not None and t != expect):
            raise ValueError(f"expected {expect or 'token'}, got {t!r}")
        self.pos += 1
        return t

    def parse(self) -> Sse:
        e = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens {self.toks[self.pos:]!r}")
        return e

    def expr(self, prec=0) -> Sse:
        levels = [("<", "<=", "==", "!=", ">=", ">"), ("&", "|", "^"),
                  ("<<", ">>"), ("+", "-"), ("*", "/")]
        if prec == len(levels):
            return self.atom()
        e = self.expr(prec + 1)
        while self.peek() in levels[prec]:
            op = self.take()
            rhs = self.expr(prec + 1)
            e = Bin(op, e, rhs)
        return e

    def atom(self) -> Sse:
        t = self.peek()
        if t == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if t in ("~", "!"):
            self.take()
            return Un(t, self.atom())
        if t == "-":
            self.take()
            return Un("neg", self.atom())
        if t in ("load", "store"):
            self.take()
            self.take("(")
            a = self.expr()
            self.take(")")
            return Load(a) if t == "load" else Store(a)
        if t and (t.startswith("0x") or t.isdigit()):
            self.take()
            return Val(int(t, 0))
        if t and re.fullmatch(_REG, t):
            self.take()
            # i*stride sugar is parsed as plain multiplication; index
            # identifiers only arise internally.
            return Reg(t)
        raise ValueError(f"unexpected token {t!r}")


def parse_sse(text: str) -> Sse:
    """Parse the debug notation back into a canonical expression."""
    return canonicalize(_ExprParser(_tokenize(text)).parse())
