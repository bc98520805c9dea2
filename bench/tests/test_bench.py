"""Tests for the benchmark itself: generator, ground truth, scoring,
printed metric names and the tracing wrappers.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
import mirtaint
from mirtaint import alias, cfg, cli, icall, ir, pipeline, sse, taint

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert [p.text for p in first] == [p.text for p in again]
    assert [p.text for p in first] != [p.text for p in other]
    # the seed never changes how much work a size asks for
    assert [p.statements for p in first] == [p.statements for p in other]
    assert ([len(p.sinks) for p in first], [len(p.icalls) for p in first]) == \
        ([len(p.sinks) for p in other], [len(p.icalls) for p in other])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_programs_validate_and_count_statements(name):
    for program in workloads.generate(name, 3):
        parsed = ir.parse_program(program.text)
        assert ir.validate(parsed) == []
        stmts = [s for f in parsed.functions.values() for s in f.statements()]
        assert len(stmts) == program.statements
        points = {str(s.point) for s in stmts}
        assert set(program.sinks) <= points
        assert set(program.icalls) <= points


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_ground_truth_on_smallest_size(name, tmp_path, monkeypatch):
    program = workloads.generate(name, 1)[0]
    (tmp_path / (program.name + ".ir")).write_text(program.text)
    monkeypatch.chdir(tmp_path)
    outcome = run.analyze_once(program, run.PROGRAM_TIME_LIMIT_S)
    assert outcome.error is None
    result = run.check(program, outcome.report)
    assert result.gated_wrong == []
    assert result.labels == (len(program.sinks)
                             + sum(len(t) for t in program.icalls.values()))


def test_ground_truth_shapes():
    dispatch = workloads.generate("dispatch", 1)[0]
    (site, handlers), = dispatch.icalls.items()
    assert len(handlers) == dispatch.size == len(dispatch.sinks)
    verdicts = [label.verdict for label in dispatch.sinks.values()]
    assert verdicts.count("safe") == verdicts.count("vulnerable")
    deep = [label for label in dispatch.sinks.values()
            if label.gap == "recursion_depth"]
    assert deep and all(label.verdict == "vulnerable" for label in deep)

    loops = workloads.generate("loop_copy", 1)[2]
    assert loops.size == 3
    kinds = sorted(label.kind for label in loops.sinks.values())
    assert kinds == sorted(workloads._LOOP_SHAPES * workloads.LOOP_FUNCTIONS)
    assert all((label.verdict == "safe") == (label.kind == "checked")
               for label in loops.sinks.values())

    mix = workloads.generate("icall_mix", 1)[1]
    assert not mix.sinks and len(mix.icalls) == 8
    assert all(targets for targets in mix.icalls.values())


def test_check_scores_missing_targets_and_unexpected_alerts():
    program = workloads.GenProgram(
        "p", 1, "", 0,
        sinks={"f:bb0:1": workloads.SinkLabel("vulnerable", "strcpy-open"),
               "g:bb0:1": workloads.SinkLabel("vulnerable", "strcpy-open",
                                              gap="recursion_depth")},
        icalls={"m:bb0:2": ("a", "b")})
    report = {"alerts": [{"sink_site": "f:bb0:1"}, {"sink_site": "h:bb0:0"}],
              "icall_sites": [{"callsite": "m:bb0:2", "targets": ["a", "c"]}]}
    result = run.check(program, report)
    assert (result.labels, result.wrong) == (5, 3)
    assert len(result.gated_wrong) == 2        # the gap-tagged miss is not gated
    assert (result.true_targets, result.reported_targets) == (1, 2)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    pct, value = run.tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert run.fit_exponent([(10, 1.0), (100, 100.0)]) == pytest.approx(2.0)


def test_times_are_reported_at_reference_speed():
    # twice as slow a reference means the machine ran at half speed
    outcome = run.Outcome("p", seconds=0.4, reference=2 * run.REFERENCE_S)
    assert outcome.calibrated == pytest.approx(0.2)
    assert run.reference_work() == run.reference_work()
    assert run.reference_seconds() > 0


def _run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--workload", "dispatch",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"\n{name} = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings():
    """Every function and method the tracer may replace, by owner."""
    out = {}
    for mod in (mirtaint, alias, cfg, cli, icall, ir, pipeline, sse, taint):
        for name, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, name)] = value
    for cls in (alias.Analysis, pipeline.Report):
        for name, value in vars(cls).items():
            out[(cls.__name__, name)] = value
    return out


def test_tracer_restores_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert pipeline.analyze is not before[("mirtaint.pipeline", "analyze")]
            assert taint.check_sink is not before[("mirtaint.taint", "check_sink")]
            assert sse.canonicalize is not before[("mirtaint.sse", "canonicalize")]
            raise RuntimeError("the run stops inside the traced region")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_from_public_state(tmp_path, monkeypatch):
    program = workloads.generate("dispatch", 1)[0]
    (tmp_path / (program.name + ".ir")).write_text(program.text)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        tracer.start_program(program.name, 1.0)
        outcome = run.analyze_once(program, run.PROGRAM_TIME_LIMIT_S)
    metrics = tracing.layer_metrics(tracer, cap_hits=0)
    tracer.scales[program.name] = 2.0
    assert tracing.layer_metrics(tracer, cap_hits=0)["pipeline.analyze_s"] == \
        pytest.approx(2 * metrics["pipeline.analyze_s"])
    assert outcome.error is None
    assert metrics["ir.statements"] == program.statements
    assert metrics["icall.sites"] == len(program.icalls)
    untagged = sum(label.gap is None for label in program.sinks.values())
    assert untagged <= metrics["taint.sink_sites"] <= len(program.sinks)
    assert metrics["taint.sink_checks"] >= metrics["taint.sink_sites"]
    assert 0 < metrics["alias.summaries_computed"] <= metrics["alias.summary_lookups"]
    # spans nest: every parent index points at an earlier span
    assert all(-1 <= s[3] < i for i, s in enumerate(tracer.spans))
