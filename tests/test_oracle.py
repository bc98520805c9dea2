"""The concrete interpreter: its library models, whole corpus runs, and
the certifier's verdicts on pairs it cannot compare."""

import pathlib

import pytest

from mirtaint import ir, oracle
from mirtaint import sse as S
from mirtaint.alias import Cond, Tracked

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted(p.name for p in (ROOT / "corpus").glob("*.ir"))

# "12ab" at SRC, "xy" at DST; nothing is written at FREE
SRC, DST, FREE = 0x9000, 0x9100, 0x5000
PROGRAM = f"""
data @0x8000 {{ word 0x1000, word 0x0 }}
strings {{ @{SRC:#x} "12ab" @{DST:#x} "xy" }}
func main @0x1000 frame=0 {{
bb0:
  ret
}}
"""


def machine():
    return oracle.Machine(ir.parse_program(PROGRAM), seed=1)


def no_warning(message):
    raise AssertionError(message)


def test_machine_loads_data_and_strings():
    m = machine()
    assert m.read_word(0x8000) == 0x1000 and m.read_word(0x8004) == 0
    assert m._cstring(SRC) == b"12ab" and m._cstring(DST) == b"xy"


@pytest.mark.parametrize("name,want", [("strcpy", b"12ab"), ("strcat", b"xy12ab")])
def test_unbounded_string_copies(name, want):
    m = machine()
    assert m.library_call(name, [DST, SRC], no_warning) == DST
    assert m._cstring(DST) == want


@pytest.mark.parametrize("name,n,want,ret", [
    ("strncpy", 2, b"12", FREE), ("strncpy", 8, b"12ab", FREE),
    ("strlcpy", 3, b"12a", 3),
])
def test_bounded_string_copies(name, n, want, ret):
    """At most `n` bytes of the source, and a NUL only when it is shorter."""
    m = machine()
    assert m.library_call(name, [FREE, SRC, n], no_warning) == ret
    assert bytes(m.mem[FREE + i] for i in range(len(want))) == want
    assert (FREE + len(want) in m.mem) == (len(want) < n)


@pytest.mark.parametrize("n,want", [(2, b"xy12"), (8, b"xy12ab")])
def test_strncat_appends_at_most_n_bytes_and_a_nul(n, want):
    m = machine()
    assert m.library_call("strncat", [DST, SRC, n], no_warning) == DST
    assert bytes(m.mem[DST + i] for i in range(len(want) + 1)) == want + b"\0"


@pytest.mark.parametrize("name", ["memcpy", "memmove"])
def test_memory_copies(name):
    m = machine()
    assert m.library_call(name, [FREE, SRC, 3], no_warning) == FREE
    assert bytes(m.mem[FREE + i] for i in range(3)) == b"12a"
    assert FREE + 3 not in m.mem


@pytest.mark.parametrize("name,args", [("sprintf", [FREE, SRC]),
                                       ("snprintf", [FREE, 0x10, SRC])])
def test_formatted_copies_write_the_format(name, args):
    m = machine()
    assert m.library_call(name, args, no_warning) == 4
    assert m._cstring(FREE) == b"12ab"


@pytest.mark.parametrize("name", ["atoi", "atol", "atoll", "strtol", "strtoll",
                                  "strtoul"])
def test_string_to_int_reads_leading_digits(name):
    m = machine()
    assert m.library_call(name, [SRC], no_warning) == 12
    assert m.library_call(name, [DST], no_warning) == 0


def test_strlen_and_strdup():
    m = machine()
    assert m.library_call("strlen", [SRC], no_warning) == 4
    copy = m.library_call("strdup", [SRC], no_warning)
    assert copy not in (SRC, DST) and m._cstring(copy) == b"12ab"


@pytest.mark.parametrize("name", ["strstr", "strchr", "strrchr", "strpbrk",
                                  "stristr", "index", "strtok", "strtok_r",
                                  "strsep"])
def test_string_searches_return_their_first_argument(name):
    assert machine().library_call(name, [SRC, DST], no_warning) == SRC


def test_getenv_returns_a_fresh_string():
    m = machine()
    first = m.library_call("getenv", [SRC], no_warning)
    second = m.library_call("getenv", [SRC], no_warning)
    assert first != second and m._cstring(first) == m._cstring(second) == b"abcdefgh"


@pytest.mark.parametrize("name,want", [("open", {3}), ("fopen", {3}),
                                       ("system", {0, 1}), ("popen", {0, 1}),
                                       ("execve", {0, 1}), ("strcmp", {0, 1}),
                                       ("strncmp", {0, 1})])
def test_descriptor_and_status_results(name, want):
    """Opening gives descriptor 3; a command or comparison a seeded bit."""
    value = machine().library_call(name, [SRC, DST], no_warning)
    assert value in want and machine().library_call(name, [SRC, DST],
                                                    no_warning) == value


def test_unmodeled_call_warns_and_returns_a_seeded_value():
    warnings = []
    value = machine().library_call("frobnicate", [SRC], warnings.append)
    assert warnings == ["unmodeled library call frobnicate; returning seeded value"]
    assert value == machine().library_call("frobnicate", [DST], warnings.append)


@pytest.mark.parametrize("name,args,length,written", [
    ("recv", [3, FREE, 0x10, 0], 0x10, 0x10),
    ("recvfrom", [3, FREE, 0x4, 0], 0x4, 0x4),
    ("read", [3, FREE, 0x10], 0x10, 0x10),
    ("BIO_read", [7, FREE, 0x1f], 0x1f, 0x1f),
    ("SSL_read", [7, FREE, 0x10], 0x10, 0x10),
    ("fread", [FREE, 0x4, 0x3, 7], 0xc, 0xc),
    ("fgets", [FREE, 0x10, 7], 0x10, 0xf),
    ("BIO_gets", [7, FREE, 0x10], 0x10, 0xf),
    ("fgets", [FREE, 0x1, 7], 0x1, 0x0),
    ("recv", [3, FREE, 0x0, 0], 0x0, 0x0),
    ("recv", [3, FREE, 0x100, 0], 0x100, 0x20),
])
def test_sources_never_write_past_their_length(name, args, length, written):
    """A source writes at most 32 bytes and a NUL, never at `buf + length`
    or beyond: fread's length is size * count, and fgets and BIO_gets keep
    its last byte for the NUL."""
    m = machine()
    assert m.library_call(name, args, no_warning) == written
    data = bytes(m.mem[FREE + i] for i in range(written))
    assert all(0x41 <= b <= 0x5A for b in data)
    assert (m.mem.get(FREE + written) == 0) == (written < length)
    assert not any(a in m.mem for a in range(FREE + min(length, written + 1),
                                             FREE + length + 0x40))


@pytest.mark.parametrize("name", CORPUS)
def test_every_corpus_program_runs_to_its_end(name):
    """Each corpus program runs from its function at 0x1000 to its return,
    calls, icalls, loops and library models included."""
    prog = ir.parse_program((ROOT / "corpus" / name).read_text())
    res = oracle.run(prog, entry=prog.function_at(0x1000).name, seed=3)
    assert not res.step_limit_hit and res.returned is not None


def test_a_call_that_ends_a_block_falls_through():
    """After a call that ends its block the run goes on at the next block,
    as the CFG's edge does; a call that ends the last block falls off."""
    prog = ir.parse_program((ROOT / "corpus" / "call_fallthrough.ir").read_text())
    res = oracle.run(prog)
    assert (res.returned, res.steps) == (2, 5)
    prog = ir.parse_program("func main @0x1000 frame=0 {\nbb0:\n  call g()\n}\n")
    with pytest.raises(oracle.OracleError, match="fell off block main:bb0"):
        oracle.run(prog)


def test_run_needs_its_entry_function():
    with pytest.raises(oracle.OracleError, match="no function nope"):
        oracle.run(ir.parse_program(PROGRAM), entry="nope")


def test_icall_to_a_non_function_is_skipped():
    prog = ir.parse_program("func main @0x1000 frame=0 {\nbb0:\n  r1 = 0x1234\n"
                            "  r2 = icall r1(r1)\n  ret r2\n}\n")
    res = oracle.run(prog)
    assert res.warnings == ["icall to non-function @0x1234 skipped"]
    assert res.returned == 0


# -- certification of pairs no run can compare ------------------------------

def test_index_terms_are_unsupported():
    term = S.IndexTerm(S.Reg("r1"), 4, "i1")
    with pytest.raises(oracle.Unsupported):
        oracle.eval_sse(term, {}, {}, 4, 0, 1)
    prog = ir.parse_program("func main @0x1000 frame=0 {\nbb0:\n  r1 = r2\n"
                            "  ret r1\n}\n")
    point = ir.Point("main", "bb0", 1)
    pair = oracle.AliasPair(oracle.PairSide(S.Reg("r1"), point, "pre"),
                            oracle.PairSide(term, point, "pre"))
    (verdict,) = oracle.certify_aliases(prog, [pair])
    assert verdict.status == "unsupported" and verdict.runs_compared == 0


def test_pair_whose_condition_point_never_runs_is_vacuous():
    prog = ir.parse_program((ROOT / "corpus" / "unreachable.ir").read_text())
    end = ir.Point("main", "end", 0)
    cond = Cond("r2", True, ir.Point("main", "dead", 0))
    side = oracle.PairSide(S.Reg("r1"), end, "pre")
    (verdict,) = oracle.certify_aliases(prog, [oracle.AliasPair(side, side, (cond,))])
    assert verdict.status == "vacuous"


@pytest.mark.parametrize("birth,phase,want", [(0, "pre", True), (1, "pre", False),
                                              (1, "post", True), (2, "post", False)])
def test_a_store_node_is_evaluable_once_its_store_ran(birth, phase, want):
    """A store node names the value its statement wrote, so the snapshot
    at a point sees it only after that statement; a load carried up from
    a later block names a cell state no snapshot here holds."""
    expr = S.Store(S.Reg("r1"), birth=birth)
    t = Tracked(expr=expr, point=ir.Point("main", "bb0", 1), phase=phase, seed_id=0)
    assert oracle.evaluable(t) == want
    later = S.Bin("+", S.Load(S.Reg("r2"), birth=S.BIRTH_AFTER_BLOCK), expr)
    assert not oracle.evaluable(t.moved(later))
