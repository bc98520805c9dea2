"""Command-line front end.

    mirtaint analyze --ir prog.ir [--config models.json] [--no-icall]
                     [--seed f:bb0:load(r3+0x8)] [--dump-cfg f]
                     [--out report.json] [--format json|text] [--exit-zero]
    mirtaint oracle certify --ir prog.ir --pairs pairs.json [--runs 16]
                            [--seed 0]
    mirtaint oracle fuzz [--count 500] [--max-len 30] [--seed 0] [--runs 16]

Exit codes: 0 success; 1 alerts found (analyze, unless --exit-zero), a
pair that fails (oracle certify) or a failing fuzz case (oracle fuzz);
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ir, oracle
from . import sse as S
from .pipeline import InputError, RunConfig, analyze, load_program


def _add_analyze_flags(p: argparse.ArgumentParser):
    p.add_argument("--ir", required=True, help="micro-IR source file")
    p.add_argument("--config", help="JSON taint-model config")
    p.add_argument("--no-icall", action="store_true",
                   help="disable indirect-call resolution (ablation)")
    p.add_argument("--seed", action="append", default=[],
                   metavar="FN:BLOCK:EXPR", help="manual alias query")
    p.add_argument("--dump-cfg", metavar="FN", help="emit a DOT CFG for FN")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--exit-zero", action="store_true",
                   help="exit 0 even when alerts were raised")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirtaint",
        description="alias-driven taint checking for the micro-IR")
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline")
    _add_analyze_flags(pa)

    po = sub.add_parser("oracle", help="concrete-execution utilities")
    osub = po.add_subparsers(dest="oracle_cmd", required=True)

    pc = osub.add_parser("certify", help="replay alias pairs concretely")
    pc.add_argument("--ir", required=True)
    pc.add_argument("--pairs", required=True, help="JSON list of pairs")
    pc.add_argument("--runs", type=int, default=16)
    pc.add_argument("--seed", type=int, default=0)

    pf = osub.add_parser("fuzz", help="differential fuzz of the alias engine")
    pf.add_argument("--count", type=int, default=500)
    pf.add_argument("--max-len", type=int, default=30)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--runs", type=int, default=16)
    return parser


# least oracle flag values; a generated program has at least 5 statements
_MINIMUMS = {"certify": {"runs": 1},
             "fuzz": {"count": 1, "max_len": 5, "runs": 1}}


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_analyze(args) -> int:
    try:
        report = analyze(RunConfig(
            ir_path=args.ir,
            config_path=args.config,
            enable_icall=not args.no_icall,
            seeds=tuple(args.seed),
            dump_cfg=args.dump_cfg,
        ))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" else report.to_text()
    _emit(text, args.out)
    if report.alerts and not args.exit_zero:
        return 1
    return 0


def _parse_pairs(program: ir.Program, raw) -> list[oracle.AliasPair]:
    """The alias pairs of a pairs file's JSON; ValueError when it is not a
    list of pairs or a point is not a statement of the program."""
    from .alias import Cond
    points = {str(s.point): s.point for fn in program.functions.values()
              for s in fn.statements()}

    def get(d, key, kind, default=None):
        if not isinstance(d, dict):
            raise ValueError(f"bad pair {i}: {d!r} is not an object")
        value = d.get(key, default)
        if not isinstance(value, kind):
            raise ValueError(f"bad pair {i}: {key!r} missing or malformed")
        return value

    def point(d):
        text = get(d, "point", str)
        if text not in points:
            raise ValueError(f"bad pair {i}: no statement at {text!r}")
        return points[text]

    def side(d):
        phase = get(d, "phase", str, "post")
        if phase not in ("pre", "post"):
            raise ValueError(f"bad pair {i}: phase {phase!r}")
        return oracle.PairSide(S.parse_sse(get(d, "expr", str)), point(d), phase)

    if not isinstance(raw, list):
        raise ValueError("the pairs file must hold a JSON list of pairs")
    pairs = []
    for i, entry in enumerate(raw):
        conds = tuple(Cond(get(c, "reg", str), bool(get(c, "value", (bool, int))),
                           point(c)) for c in get(entry, "conds", list, []))
        pairs.append(oracle.AliasPair(side(get(entry, "a", dict)),
                                      side(get(entry, "b", dict)), conds))
    return pairs


def _cmd_certify(args) -> int:
    try:
        program = load_program(args.ir)
        with open(args.pairs, "r", encoding="utf-8") as fh:
            pairs = _parse_pairs(program, json.load(fh))
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdicts = oracle.certify_aliases(program, pairs, n_runs=args.runs,
                                      seed=args.seed)
    print(json.dumps([v.as_json() for v in verdicts], indent=2, sort_keys=True))
    return 1 if any(v.status == "fail" for v in verdicts) else 0


def _cmd_fuzz(args) -> int:
    report = oracle.fuzz(count=args.count, max_len=args.max_len,
                         seed=args.seed, n_runs=args.runs)
    print(json.dumps({"programs": report["programs"], "pairs": report["pairs"],
                      "failures": len(report["failures"])}, sort_keys=True))
    for failure in report["failures"]:
        print(json.dumps(failure, indent=2, sort_keys=True), file=sys.stderr)
    return 1 if report["failures"] else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "analyze":
        return _cmd_analyze(args)
    for name, least in _MINIMUMS[args.oracle_cmd].items():
        if getattr(args, name) < least:
            print(f"error: --{name.replace('_', '-')} must be >= {least}",
                  file=sys.stderr)
            return 2
    if args.oracle_cmd == "certify":
        return _cmd_certify(args)
    return _cmd_fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
