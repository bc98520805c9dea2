"""The `mirtaint` command line: exit codes, output options, and report
determinism across hash seeds."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from mirtaint import cli, oracle, taint
from mirtaint import sse as S

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALERTING = str(ROOT / "corpus" / "memcpy_bound_bad.ir")
CLEAN = str(ROOT / "corpus" / "memcpy_bound_ok.ir")


def test_alerts_exit_1(capsys):
    assert cli.main(["analyze", "--ir", ALERTING]) == 1
    assert json.loads(capsys.readouterr().out)["taint_metrics"]["alerts"] == 1


def test_exit_zero_with_alerts(capsys):
    assert cli.main(["analyze", "--ir", ALERTING, "--exit-zero"]) == 0


def test_clean_program_exits_0(capsys):
    assert cli.main(["analyze", "--ir", CLEAN]) == 0
    assert json.loads(capsys.readouterr().out)["alerts"] == []


@pytest.mark.parametrize("argv", [
    ["--ir", str(ROOT / "corpus" / "no_such_file.ir")],
    ["--ir", CLEAN, "--seed", "no_such_function:bb0:r1"],
    ["--ir", CLEAN, "--seed", "main:bb0:+"],
    ["--ir", CLEAN, "--seed", "main:no_such_block:r1"],
    ["--ir", CLEAN, "--dump-cfg", "no_such_function"],
], ids=["missing-file", "unknown-function-seed", "malformed-seed",
        "unknown-block-seed", "unknown-dump-cfg"])
def test_input_errors_exit_2(argv, monkeypatch, capsys):
    """Bad input is rejected before any analysis runs."""
    def run_taint(*args, **kwargs):
        raise AssertionError("the taint run started before the input was checked")

    monkeypatch.setattr(taint, "run_taint", run_taint)
    assert cli.main(["analyze", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# `r01` would name a second register beside `r1`, binding `f`'s formals in
# an order that depends on the hash seed; `01` and `08` are not Python ints
LEADING_ZEROS = {
    "register": """
func f @0x2000 frame=0 {
bb0:
  r2 = r01
  call system(r1)
  ret
}

func main @0x1000 frame=0x40 {
  buf in @0x0 size 0x40
bb0:
  r1 = sp
  r2 = 0x40
  r3 = call recv(r9, r1, r2)
  call f(0x10, r1)
  ret
}
""",
    "immediate": """
func main @0x1000 frame=0 {
bb0:
  r1 = 01
  r2 = load r1 + 08
  ret r2
}
""",
}


@pytest.mark.parametrize("name", sorted(LEADING_ZEROS))
def test_leading_zeros_are_syntax_errors(name, tmp_path, capsys):
    path = tmp_path / f"{name}.ir"
    path.write_text(LEADING_ZEROS[name])
    assert cli.main(["analyze", "--ir", str(path)]) == 2
    err = capsys.readouterr().err
    assert "syntax error" in err and "Traceback" not in err


# the environment variables that once overrode the engine's bounds
CAP_VARIABLES = ("MIRTAINT_SSE_DEPTH", "MIRTAINT_LOOP_K", "MIRTAINT_BLOCK_ITER_CAP",
                 "MIRTAINT_FUNC_ROUNDS_CAP", "MIRTAINT_RECURSION_DEPTH")


def _clean_report(capsys) -> dict:
    assert cli.main(["analyze", "--ir", CLEAN]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    return report


@pytest.mark.parametrize("value", ["abc", "0", "1"])
def test_cap_variables_change_no_report(value, monkeypatch, capsys):
    """The engine's bounds are constants: no value of these variables
    changes the exit code or the report, not even 1, which as every bound
    would change this program's report."""
    plain = _clean_report(capsys)
    for var in CAP_VARIABLES:
        monkeypatch.setenv(var, value)
    assert _clean_report(capsys) == plain


def _side(point="main:bb0:1", expr="r1"):
    return {"expr": expr, "point": point, "phase": "post"}


@pytest.mark.parametrize("pairs", [
    {"a": _side(), "b": _side()},
    [[_side(), _side()]],
    [{"a": _side(), "b": _side(point=7)}],
    [{"a": _side(), "b": _side(point="main:bb0")}],
    [{"a": _side(point="no_such_function:bb0:0"), "b": _side()}],
    [{"a": _side(), "b": _side(point="main:no_such_block:0")}],
    [{"a": _side(), "b": _side(), "conds": [{"reg": "r1", "value": True}]}],
], ids=["not-a-list", "pair-not-an-object", "point-not-a-string",
        "point-without-index", "unknown-function", "unknown-block",
        "cond-without-point"])
def test_certify_bad_pairs_exit_2(pairs, tmp_path, capsys):
    """A malformed pairs file is an input error (2), never a traceback or
    the exit code of a failed pair (1)."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    assert cli.main(["oracle", "certify", "--ir", CLEAN, "--pairs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_certify_well_formed_pairs(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"a": _side(), "b": _side(expr="sp")}]))
    assert cli.main(["oracle", "certify", "--ir", CLEAN, "--pairs", str(path)]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "pass"


def test_certify_reports_a_shrunk_counterexample(tmp_path, capsys):
    """A pair that does not hold fails (exit 1) with a counterexample
    whose entry registers are all zeroed by the shrinker, the values
    still differing: the store between the reads is a barrier."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"a": _side("main:bb0:1", "r4") | {"phase": "pre"},
                                 "b": _side("main:bb0:2", "r5")}]))
    assert cli.main(["oracle", "certify", "--ir",
                     str(ROOT / "corpus" / "store_barrier.ir"),
                     "--pairs", str(path)]) == 1
    (verdict,) = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "fail"
    cex = verdict["counterexample"]
    assert cex["inputs"] and set(cex["inputs"].values()) == {"0x0"}
    assert cex["value_a"] != cex["value_b"]


# counts r1 up to BOUND, then copies it to r3
COUNTED = """\
func main @0x1000 frame=0 {
bb0:
  r1 = 0x0
  jump head
head:
  r2 = r1 == BOUND
  branch r2, done, body
body:
  r1 = r1 + 0x1
  jump head
done:
  r3 = r1
  ret r3
}
"""


@pytest.mark.parametrize("bound,status", [("0x100000", "step-limit"),
                                          ("0x10", "pass")],
                         ids=["step-limit", "pass"])
def test_certify_names_runs_cut_at_the_step_limit(bound, status, tmp_path, capsys):
    """A pair that no run compared because every run stopped at the step
    limit is `step-limit`, not `vacuous`, and exits 0; with a loop short
    enough to finish, the same pair passes."""
    prog = tmp_path / "counted.ir"
    prog.write_text(COUNTED.replace("BOUND", bound))
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"a": _side("main:done:0", "r1"),
                                  "b": _side("main:done:0", "r3")}]))
    assert cli.main(["oracle", "certify", "--ir", str(prog), "--pairs",
                     str(pairs), "--runs", "2"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)
    assert verdict["status"] == status
    assert verdict["runs_compared"] == (2 if status == "pass" else 0)


@pytest.mark.parametrize("argv", [
    ["certify", "--ir", CLEAN, "--pairs", "pairs.json", "--runs", "0"],
    ["fuzz", "--runs", "0"],
    ["fuzz", "--count", "0"],
    ["fuzz", "--count", "-1"],
    ["fuzz", "--max-len", "4"],
], ids=["certify-runs", "fuzz-runs", "fuzz-count-0", "fuzz-count-negative",
        "fuzz-max-len"])
def test_oracle_flags_out_of_range_exit_2(argv, tmp_path, monkeypatch, capsys):
    """An oracle count below its least value is an input error, rejected
    before any program is run or generated."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.json").write_text("[]")

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle started before its flags were checked")

    monkeypatch.setattr(oracle, "certify_aliases", refuse)
    monkeypatch.setattr(oracle, "fuzz", refuse)
    assert cli.main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_differential_fuzz_finds_no_failure(capsys):
    """Every trusted alias pair the engine reports on 20 generated
    programs holds on concrete runs."""
    assert cli.main(["oracle", "fuzz", "--count", "20", "--seed", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["programs"] == 20 and summary["failures"] == 0
    assert summary["pairs"] > 0


def test_text_format_to_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert cli.main(["analyze", "--ir", ALERTING, "--format", "text",
                     "--out", str(out), "--exit-zero"]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith(f"== analysis report for {ALERTING} ==")
    assert "ALERT copy-like at " in text


@pytest.mark.parametrize("name", ["listing1.ir", "gptr_table.ir"])
def test_report_independent_of_hash_seed(name):
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mirtaint.cli", "analyze", "--ir",
             str(ROOT / "corpus" / name)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr
        report = json.loads(proc.stdout)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]


def _commands(parser, path=()):
    """(command words, parser) for each command `parser` runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _commands(sub, (*path, name))


def test_usage_text_names_every_option():
    """The module docstring's usage lines of each command name every option
    its parser takes."""
    usage = {}
    for block in re.split(r"^\s+mirtaint ", cli.__doc__, flags=re.M)[1:]:
        words = re.match(r"[a-z ]+?(?= --| \[|$)", block).group()
        usage[words] = block
    commands = dict(_commands(cli.build_parser()))
    assert set(commands) == set(usage) == {"analyze", "oracle certify", "oracle fuzz"}
    for words, parser in commands.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                for option in action.option_strings:
                    assert option in usage[words], (words, option)


def test_invalid_program_exits_2(tmp_path, capsys):
    """A program that parses but does not validate is an input error that
    names the statement."""
    path = tmp_path / "bad.ir"
    path.write_text("func main @0x1000 frame=0 {\nbb0:\n  jump nowhere\n}\n")
    assert cli.main(["analyze", "--ir", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: main:bb0:0: jump to undefined label nowhere\n"


def test_program_level_errors_name_the_header_line(tmp_path, capsys):
    """A validation error about data objects or a frame names the line of
    the header at fault, not `?`."""
    path = tmp_path / "bad.ir"
    path.write_text("data @0x100 { word 0x1 }\ndata @0x102 { word 0x2 }\n"
                    "func main @0x1000 frame=0 {\n  buf b @0x0 size 0x10\n"
                    "bb0:\n  ret\n}\n")
    assert cli.main(["analyze", "--ir", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: data objects @0x100 and @0x102 overlap; line 4: stack "
        "buffer b (0x0+0x10) exceeds frame size 0x0 of main\n")


def test_no_icall_resolves_nothing(capsys):
    """With `--no-icall` no indirect call is resolved, so none is listed
    and the taint run warns of each one it meets."""
    assert cli.main(["analyze", "--ir", str(ROOT / "corpus" / "overflow_icall.ir"),
                     "--no-icall", "--exit-zero"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["icall_resolution"] == {"all_icalls": 0, "icall_targets": 0,
                                          "resolved_icalls": 0,
                                          "resolved_pct": 0.0}
    assert report["icall_sites"] == []
    assert any(w.startswith("unresolved indirect call at ")
               for w in report["warnings"])


def test_certify_bad_phase_exits_2(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"a": _side() | {"phase": "mid"}, "b": _side()}]))
    assert cli.main(["oracle", "certify", "--ir", CLEAN, "--pairs", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad pair 0: phase 'mid'\n"


def test_certify_reports_a_pairs_conditions(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    cond = {"reg": "r1", "value": True, "point": "main:bb0:0"}
    path.write_text(json.dumps([{"a": _side(), "b": _side(expr="sp"),
                                 "conds": [cond]}]))
    assert cli.main(["oracle", "certify", "--ir", CLEAN, "--pairs", str(path)]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)
    assert verdict["pair"]["conds"] == [cond]


@pytest.mark.parametrize("outcome", ["fail", "crash"])
def test_fuzz_prints_each_failure(outcome, monkeypatch, capsys):
    """A failing pair or a crash in a generated program is a finding: the
    summary counts it, stderr shows the program, and the exit code is 1."""
    def fuzz_once(program, fuzz_seed, n_runs):
        if outcome == "crash":
            raise RuntimeError("boom")
        side = oracle.PairSide(S.Reg("r0"), next(
            s.point for s in program.functions["main"].statements()), "pre")
        pair = oracle.AliasPair(side, side)
        return [pair], [oracle.PairVerdict(pair, "fail", 1)]

    monkeypatch.setattr(oracle, "fuzz_once", fuzz_once)
    assert cli.main(["oracle", "fuzz", "--count", "1", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["failures"] == 1
    failure = json.loads(captured.err)
    assert failure["program"].startswith("func main @0x1000")
    if outcome == "crash":
        assert failure["error"] == "RuntimeError('boom')"
    else:
        assert failure["verdict"]["status"] == "fail"
