"""Command-line interface.

Subcommands: ``monitor``, ``evolve``, ``mc``, ``synth``, ``bench``.  Exit
codes: 0 pass/realizable, 1 fail/unrealizable, 2 unknown, 3 usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .automata import BudgetError
from .benchmarks import ACCEPTANCE_ROWS, TABLE1_ROWS, family, update_pair
from .machine import serialize_machine, to_dot as machine_dot
from .modelcheck import LiveProblem, mc_finite_live, mc_universal_live
from .monitor import build_monitor, cut_from_phi, reachable_obligations
from .problem import ProblemFormatError, load_problem
from .rewrite import evolve
from .synthesis import SynthesisProblem, synth_finite_live, synth_ltl, synth_universal_live
from .traces import format_trace

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _verdict_json(verdict) -> dict:
    data = {"outcome": verdict.outcome}
    if verdict.failing_obligation is not None:
        data["failing_obligation"] = str(verdict.failing_obligation)
    if verdict.witness is not None:
        data["witness"] = {
            "prefix": [sorted(l) for l in verdict.witness.lasso.prefix],
            "loop": [sorted(l) for l in verdict.witness.lasso.loop],
        }
    if verdict.details:
        data.update(verdict.details)
    return data


def cmd_monitor(args) -> int:
    prob = load_problem(args.problem)
    prob.require("initial")
    if args.cut:
        prob.require("initial_machine")
        prob.ap.check_formula(prob.initial)
        mon = cut_from_phi(prob.initial, prob.initial_machine, args.anchor, args.monitor_budget)
    else:
        mon = build_monitor(prob.initial, prob.ap, args.monitor_budget, args.anchor)
    labels = reachable_obligations(mon)
    if args.dot:
        Path(args.dot).write_text(mon.to_dot())
    if args.json:
        print(json.dumps({"states": len(mon), "labels": [str(l) for l in labels],
                          "monitor": mon.to_json()}, indent=2))
    else:
        print(f"monitor states: {len(mon)}")
        print(f"distinct obligations: {len(labels)}")
        for l in labels:
            print(f"  {l}")
    return EXIT_PASS


def cmd_evolve(args) -> int:
    prob = load_problem(args.problem)
    prob.require("initial", "trace")
    obligation = evolve(prob.trace, prob.initial)
    if args.json:
        print(json.dumps({"trace": format_trace(prob.trace), "obligation": str(obligation)}))
    else:
        print(obligation)
    return EXIT_PASS


def cmd_mc(args) -> int:
    prob = load_problem(args.problem)
    prob.require("initial", "update", "update_machine")
    if args.universal:
        prob.require("initial_machine")
        problem = LiveProblem(prob.initial, prob.update, prob.ap, ts_i=prob.initial_machine)
        verdict = mc_universal_live(prob.update_machine, problem,
                                    max_states=args.monitor_budget)
    else:
        prob.require("trace")
        problem = LiveProblem(prob.initial, prob.update, prob.ap, eta=prob.trace)
        verdict = mc_finite_live(prob.update_machine, problem)
    if args.json:
        print(json.dumps(_verdict_json(verdict), indent=2))
    else:
        print(verdict.outcome)
        if verdict.failing_obligation is not None:
            print(f"failing obligation: {verdict.failing_obligation}")
        if verdict.witness is not None:
            w = verdict.witness.lasso
            print(f"counterexample: {format_trace(w.prefix)} ({format_trace(w.loop)})^w")
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _synth_kwargs(args) -> dict:
    """Synthesis options; ``--timeout`` becomes one deadline from now."""
    deadline = None if args.timeout is None else time.monotonic() + args.timeout
    return {"cap": args.bound_max, "deadline": deadline, "solver": args.solver}


def _report_synth(result, args, out_prefix: str) -> int:
    data = {"outcome": result.outcome, "stats": result.stats}
    if result.reason is not None:
        data["reason"] = result.reason
        print(f"unknown: {result.reason}", file=sys.stderr)
    if result.per_obligation:
        data["per_obligation"] = result.per_obligation
    if result.machine is not None:
        data["machine_states"] = len(result.machine)
        text = serialize_machine(result.machine)
        if args.out:
            Path(args.out).write_text(text)
            data["machine_file"] = args.out
        else:
            data["machine"] = text
        if args.dot:
            Path(args.dot).write_text(machine_dot(result.machine, out_prefix))
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(result.outcome)
        if result.per_obligation:
            for entry in result.per_obligation:
                print(f"  [{entry['outcome']:12s}] {entry['obligation']}")
        if result.machine is not None and not args.out:
            print(serialize_machine(result.machine), end="")
    return {"realizable": EXIT_PASS, "unrealizable": EXIT_FAIL}.get(result.outcome, EXIT_UNKNOWN)


def cmd_synth(args) -> int:
    prob = load_problem(args.problem)
    prob.require("initial", "update")
    kwargs = _synth_kwargs(args)
    if args.universal:
        prob.require("initial_machine")
        result = synth_universal_live(prob.initial_machine, prob.initial, prob.update,
                                      prob.ap, monitor_budget=args.monitor_budget, **kwargs)
    else:
        prob.require("trace")
        result = synth_finite_live(prob.initial, prob.update, prob.trace, prob.ap, **kwargs)
    return _report_synth(result, args, "update_system")


def _unknown_row(row, reason: str, t0: float) -> dict:
    return {"row": row.key, "universal": "unknown", "expected": row.expected,
            "reason": reason, "time": round(time.monotonic() - t0, 2)}


def cmd_bench(args) -> int:
    rows = [r for r in TABLE1_ROWS if not args.rows or any(f in r.key for f in args.rows)]
    if args.acceptance:
        rows = [r for r in rows if r.key in ACCEPTANCE_ROWS]
    report = []
    machines = {}
    for row in rows:
        t0 = time.monotonic()
        kwargs = _synth_kwargs(args)
        bi, bu, ap = update_pair(row.initial, row.update)
        try:
            if row.initial not in machines:
                r0 = synth_ltl(SynthesisProblem(bi.spec, bi.ap, **kwargs))
                if r0.outcome == "unknown":
                    report.append(_unknown_row(row, f"initial system: {r0.reason}", t0))
                    continue
                if not r0.realizable:
                    raise RuntimeError(f"initial specification not synthesizable: {r0.outcome}")
                machines[row.initial] = r0.machine
            ts_i = machines[row.initial]
            result = synth_universal_live(ts_i, bi.spec, bu.spec, ap,
                                          monitor_budget=args.monitor_budget, **kwargs)
            verdict = {"realizable": "real", "unrealizable": "unreal"}.get(result.outcome, "unknown")
            outcomes = [e["outcome"] for e in result.per_obligation]
            report.append({
                "row": row.key,
                "om_labels": len(outcomes),
                "fin_trace_realizable": outcomes.count("realizable"),
                "fin_trace_unknown": outcomes.count("unknown"),
                "universal": verdict,
                "expected": row.expected,
                "time": round(time.monotonic() - t0, 2),
            })
            if result.reason is not None:
                report[-1]["reason"] = result.reason
        except BudgetError as exc:
            report.append(_unknown_row(row, str(exc), t0))
        except Exception as exc:  # noqa: BLE001 - rows report their own failures
            report.append({"row": row.key, "universal": "error", "expected": row.expected,
                           "error": str(exc), "time": round(time.monotonic() - t0, 2)})
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{'row':30s} {'#OM':>4s} {'#fin':>5s} {'#unk':>5s} {'universal':>10s} "
              f"{'expected':>9s} {'time':>8s}")
        for e in report:
            print(f"{e['row']:30s} {e.get('om_labels', '-'):>4} "
                  f"{e.get('fin_trace_realizable', '-'):>5} {e.get('fin_trace_unknown', '-'):>5} "
                  f"{e['universal']:>10s} {e['expected']:>9s} {e['time']:>7.1f}s")
            if "reason" in e:
                print(f"  unknown: {e['reason']}")
            if "error" in e:
                print(f"  error: {e['error']}")
    bad = [e for e in report if e["universal"] in ("error", "unknown")]
    mismatched = [e for e in report if e["universal"] in ("real", "unreal") and e["universal"] != e["expected"]]
    if mismatched:
        return EXIT_FAIL
    if bad:
        return EXIT_UNKNOWN
    return EXIT_PASS


def cmd_gen(args) -> int:
    inst = family(args.family, args.n)
    print(f"# {inst.name}")
    print("INPUTS:", " ".join(inst.ap.inputs))
    print("OUTPUTS:", " ".join(inst.ap.outputs))
    print("INITIAL:", inst.spec)
    return EXIT_PASS


def _bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"seconds must be at least 0: {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="liveupdate",
                                  description="verify and synthesize live updates of reactive systems")
    sub = top.add_subparsers(dest="command", required=True)
    solver_help = ("'internal' (a conflict budget per attempt) or the path to a DIMACS solver "
                   "(each attempt runs until it answers or --timeout passes)")

    def common(p, monitor_budget=True):
        p.add_argument("problem", help="problem file")
        p.add_argument("--json", action="store_true", help="JSON output")
        if monitor_budget:
            p.add_argument("--monitor-budget", type=_bound, default=10000)

    p = sub.add_parser("monitor", help="build (and optionally cut) the obligation monitor")
    common(p)
    p.add_argument("--cut", action="store_true", help="cut against INITIAL_MACHINE")
    p.add_argument("--anchor", choices=("edge", "state"), default="edge",
                   help="obligation anchoring: at the transition taken (edge) or after it (state)")
    p.add_argument("--dot", help="write DOT to this path")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("evolve", help="residual obligation after the recorded trace")
    common(p, monitor_budget=False)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("mc", help="model-check a live update")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--finite", action="store_true")
    mode.add_argument("--universal", action="store_true")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("synth", help="synthesize an update system")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--finite", action="store_true")
    mode.add_argument("--universal", action="store_true")
    p.add_argument("--bound-max", type=_bound, default=16)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="seconds; one deadline for the whole command")
    p.add_argument("--solver", default="internal", help=solver_help)
    p.add_argument("--out", help="write the synthesized machine here")
    p.add_argument("--dot", help="write machine DOT here")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("bench", help="run the built-in update regression table")
    p.add_argument("--acceptance", action="store_true", help="verdict-asserted subset only")
    p.add_argument("--rows", nargs="*", default=None, help="substring filters on row keys")
    p.add_argument("--json", action="store_true")
    p.add_argument("--monitor-budget", type=_bound, default=10000)
    p.add_argument("--bound-max", type=_bound, default=16)
    p.add_argument("--timeout", type=_seconds, default=600.0,
                   help="seconds; one deadline for each row, its initial system's "
                        "synthesis included")
    p.add_argument("--solver", default="internal", help=solver_help)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="print a benchmark family instance as a problem skeleton")
    p.add_argument("family")
    p.add_argument("n", type=_bound)
    p.set_defaults(fn=cmd_gen)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else EXIT_PASS
    try:
        return args.fn(args)
    except (ProblemFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetError as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            print(json.dumps({"outcome": "unknown", "reason": str(exc)}, indent=2))
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
