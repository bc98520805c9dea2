"""mirtaint benchmark: time to a verdict on generated workloads.

    python3 bench/run.py --workload dispatch --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  One process runs one workload.  Programs of the workload's size
ladder are generated from the seed and analysed one after another on one
thread (a closed loop), in whole passes over the ladder, until
``--seconds`` have passed.  Each analysis goes from the IR file path to
the serialized JSON report through ``pipeline.analyze`` with the default
``EngineConfig``, and every verdict is checked against the generator's
ground truth.

Machine speed on a shared host drifts by a fifth or more over seconds to
minutes, and CPU time drifts with it.  So before each timed analysis or
front-end pass the run also times ``reference_work``, fixed pure-Python
work that never touches mirtaint, and reports every end-to-end time at
reference speed: the measured time times ``REFERENCE_S`` over the
reference time measured just before it.  The raw medians are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones; its spans go to ``.bench_out/<workload>-s<seed>/spans.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()            # the checkout being measured
OUT_DIR = ".bench_out"
PROGRAM_TIME_LIMIT_S = 15    # a program that takes longer counts as failed
SETUP_REPEATS = 3            # front-end passes after each analysis pass
# reference_work's time at the speed end-to-end times are reported at:
# about its time on the 2-vCPU x86-64 VM, CPython 3.11, of NOTES.md
REFERENCE_S = 0.0125
REPORT_KEYS = {"schema_version", "ir", "icall_resolution", "icall_sites",
               "taint_metrics", "alerts", "seed_queries", "warnings",
               "cap_hits", "timings"}

END_TO_END_UNITS = {
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "stmts_per_s": "stmt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
    "verdict_accuracy": "ratio",
    "icall_precision": "ratio",
    "scaling_exponent": "log/log",
}


class ProgramTimeout(BaseException):
    """Raised by SIGALRM inside an analysis; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise ProgramTimeout()


class _Node:
    __slots__ = ("op", "left", "right", "h")

    def __init__(self, op: int, left: _Node | None, right: _Node | None):
        self.op, self.left, self.right = op, left, right
        self.h = hash((op, left.h if left else 0, right.h if right else 0))


def reference_work() -> int:
    """Fixed work in the interpreter's common operations: integer
    arithmetic, and building, hashing and indexing small objects."""
    total = 0
    for i in range(100_000):
        total += i * i
    buckets: dict[int, list] = {}
    seen = set()
    nodes = [_Node(-1, None, None)]
    for i in range(6_000):
        node = _Node(i % 7, nodes[i // 2], nodes[-1])
        nodes.append(node)
        seen.add((node.op, node.h & 1023))
        buckets.setdefault(node.h & 255, []).append(node)
    return total + len(seen) + max(len(b) for b in buckets.values())


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Outcome:
    """One analysis of one program."""
    program: str
    seconds: float = 0.0            # measured
    reference: float = REFERENCE_S  # reference_work's time just before
    report: dict | None = None
    error: str | None = None

    @property
    def calibrated(self) -> float:
        """``seconds`` at reference speed."""
        return self.seconds * REFERENCE_S / self.reference


@dataclass
class Check:
    """Verdicts of one program's report against its ground truth."""
    labels: int = 0
    wrong: int = 0
    gated_wrong: list = field(default_factory=list)
    true_targets: int = 0
    reported_targets: int = 0


def analyze_once(program, time_limit: float) -> Outcome:
    """IR path to serialized JSON report, timed; the cwd holds the file."""
    from mirtaint import pipeline

    out = Outcome(program.name)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, time_limit)
    try:
        t0 = time.perf_counter()
        report = pipeline.analyze(pipeline.RunConfig(ir_path=program.name + ".ir"))
        text = report.to_json()
        out.seconds = time.perf_counter() - t0
    except ProgramTimeout:
        out.error = f"exceeded the {time_limit:g} s limit"
        return out
    except Exception as exc:          # the run must go on; record and count it
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    try:
        data = json.loads(text)
    except ValueError as exc:
        out.error = f"report is not JSON: {exc}"
        return out
    missing = REPORT_KEYS - set(data) if isinstance(data, dict) else REPORT_KEYS
    if missing:
        out.error = f"report lacks {sorted(missing)}"
        return out
    out.report = data
    return out


def check(program, report: dict) -> Check:
    """Score one report.  A label is a sink marked vulnerable or safe, or
    a true icall target that must be in the resolved set; an alert at an
    unlabelled site counts as one more wrong label."""
    res = Check()
    alerted = {a["sink_site"] for a in report["alerts"]}
    for point, label in program.sinks.items():
        res.labels += 1
        got = "vulnerable" if point in alerted else "safe"
        if got != label.verdict:
            res.wrong += 1
            if label.gap is None:
                res.gated_wrong.append(f"{program.name} {point}: {got}, "
                                       f"expected {label.verdict}")
    for point in sorted(alerted - set(program.sinks)):
        res.labels += 1
        res.wrong += 1
        res.gated_wrong.append(f"{program.name} {point}: unexpected alert")
    resolved = {s["callsite"]: set(s["targets"]) for s in report["icall_sites"]}
    for point, truth in program.icalls.items():
        got = resolved.get(point, set())
        for target in truth:
            res.labels += 1
            if target not in got:
                res.wrong += 1
                res.gated_wrong.append(f"{program.name} {point}: missing "
                                       f"icall target {target}")
        if got:
            res.true_targets += len(got & set(truth))
            res.reported_targets += len(got)
    return res


def digest_text(report: dict) -> str:
    data = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(data, indent=2, sort_keys=True)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; (100, max) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return 100.0 * (k + 1) / n, ordered[k]


def fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(statements)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def setup_seconds(programs) -> float:
    """One front-end pass: load, address-taken set and call graph, at
    reference speed."""
    from mirtaint import cfg, pipeline

    gc.collect()
    reference = reference_seconds()
    total = 0.0
    for program in programs:
        t0 = time.perf_counter()
        prog = pipeline.load_program(program.name + ".ir")
        cfg.find_address_taken(prog)
        cfg.build_call_graph(prog)
        total += time.perf_counter() - t0
    return total * REFERENCE_S / reference


class Session:
    """State of one benchmark run over one workload's ladder."""

    def __init__(self, programs):
        self.programs = programs
        self.failed: dict[str, str] = {}
        self.texts: dict[str, str] = {}
        self.nondeterministic: set[str] = set()
        self.reports: dict[str, dict] = {}
        self.attempted = 0
        self.failures = 0

    def run_pass(self, tracer=None) -> list[Outcome]:
        """Analyse every program that has not failed yet, once."""
        outcomes = []
        for program in self.programs:
            if program.name in self.failed:
                continue
            gc.collect()
            self.attempted += 1
            reference = reference_seconds()
            if tracer is not None:
                tracer.start_program(program.name, REFERENCE_S / reference)
            outcome = analyze_once(program, PROGRAM_TIME_LIMIT_S)
            outcome.reference = reference
            if outcome.report is None:
                self.failures += 1
                self.failed[program.name] = outcome.error
                continue
            text = digest_text(outcome.report)
            if program.name not in self.texts:
                self.texts[program.name] = text
                self.reports[program.name] = outcome.report
            elif self.texts[program.name] != text:
                self.nondeterministic.add(program.name)
            outcomes.append(outcome)
        return outcomes

    def verdicts(self) -> tuple[list[Check], list[str]]:
        checks, problems = [], []
        for program in self.programs:
            if program.name in self.failed:
                problems.append(f"{program.name} failed: "
                                f"{self.failed[program.name]}")
                continue
            res = check(program, self.reports[program.name])
            checks.append(res)
            problems.extend(res.gated_wrong)
        problems.extend(f"{name}: report differs between passes"
                        for name in sorted(self.nondeterministic))
        return checks, problems

    def digest(self) -> str:
        h = hashlib.sha256()
        for program in self.programs:
            h.update(program.name.encode() + b"\n")
            h.update(self.texts.get(program.name, "failed").encode() + b"\n")
        return h.hexdigest()


def end_to_end(session: Session, outcomes: list[Outcome], setups: list[float],
               checks: list[Check]) -> dict[str, float]:
    by_name = {p.name: p for p in session.programs}
    times = [o.calibrated for o in outcomes]
    pct, tail = tail_percentile(times)
    stmts = sum(by_name[o.program].statements for o in outcomes)
    per_size = {}
    for o in outcomes:
        per_size.setdefault(o.program, []).append(o.calibrated)
    ladder = [(by_name[name].statements, statistics.median(ts))
              for name, ts in per_size.items()]
    labels = sum(c.labels for c in checks)
    wrong = sum(c.wrong for c in checks)
    reported = sum(c.reported_targets for c in checks)
    print(f"samples {len(times)}; tail is p{pct:.1f}")
    print(f"measured verdict median {statistics.median(o.seconds for o in outcomes):.4f} s; "
          f"reference_work median {statistics.median(o.reference for o in outcomes):.5f} s "
          f"(reported at {REFERENCE_S} s)")
    for stmts_n, t in sorted(ladder):
        print(f"  {stmts_n:5d} statements: median {t:.4f} s at reference speed")
    print(f"labels {labels}, wrong {wrong}; icall targets reported {reported}")
    return {
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": tail,
        "stmts_per_s": stmts / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": 1 - session.failures / session.attempted,
        "verdict_accuracy": 1 - wrong / labels if labels else 1.0,
        # with no resolved site nothing was reported, so nothing was wrong
        "icall_precision": (sum(c.true_targets for c in checks) / reported
                            if reported else 1.0),
        "scaling_exponent": fit_exponent(ladder) if len(ladder) > 1 else 1.0,
    }


def traced_passes(session: Session, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; per-layer medians and units."""
    import tracing

    totals: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    written = False
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if not traced:
                outcomes = session.run_pass()
            else:
                tracer = tracing.Tracer()
                with tracer:
                    outcomes = session.run_pass(tracer)
                cap_hits = sum(len(r["cap_hits"]) for r in session.reports.values())
                layers.append(tracing.layer_metrics(tracer, cap_hits))
                if not written:
                    _write_spans(tracer, spans_path)
                    written = True
            totals[traced].append(sum(o.calibrated for o in outcomes))
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(totals[True])
                                   - statistics.median(totals[False]))
    print(f"traced passes {len(layers)}; pass time median at reference "
          f"speed untraced {statistics.median(totals[False]):.3f} s, traced "
          f"{statistics.median(totals[True]):.3f} s")
    return metrics, {name: tracing.layer_unit(name) for name in metrics}


def _write_spans(tracer, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "program"],
                   "spans": tracer.spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # RunConfig applies MIRTAINT_* variables as silent cap overrides
    for name in [k for k in os.environ if k.startswith("MIRTAINT_")]:
        del os.environ[name]
    src = ROOT / "src"
    if not (src / "mirtaint" / "__init__.py").is_file():
        print(f"error: no mirtaint sources under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mirtaint
    if Path(mirtaint.__file__).resolve().parent != (src / "mirtaint").resolve():
        print(f"error: imported mirtaint from {mirtaint.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    programs = workloads.generate(args.workload, args.seed)
    workdir = ROOT / OUT_DIR / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    for program in programs:
        (workdir / (program.name + ".ir")).write_text(program.text, encoding="utf-8")
    os.chdir(workdir)

    session = Session(programs)
    if args.trace:
        metrics, units = traced_passes(session, args.seconds,
                                       workdir / "spans.json")
    else:
        setups, outcomes = [], []
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < args.seconds:
            outcomes.extend(session.run_pass())
            if len(session.failed) == len(programs):
                break
            # spread over the run like the verdict times, so that a slow
            # phase of the machine weighs on both alike
            setups.extend(setup_seconds(programs) for _ in range(SETUP_REPEATS))
        metrics = {}
        units = END_TO_END_UNITS
    checks, problems = session.verdicts()
    if not args.trace and outcomes:
        metrics = end_to_end(session, outcomes, setups, checks)
    for problem in problems:
        print(f"check: {problem}")
    print(f"digest {args.workload} seed={args.seed} sha256={session.digest()}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
