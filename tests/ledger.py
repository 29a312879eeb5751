"""Run the full regression table and check its attempt ledger.

The ledger lists every specification that the table searches, once: the
results that ``synth_ltl`` keeps, told apart by the identity of their
``stats``, so a copy answered by renaming a searched specification counts as
a lookup.  Per specification it gives each attempt's ``(side, bound, vars,
clauses, conflicts, sat)``; one that a machine kept from an earlier
specification answered also gives that bound under ``kept``, and is counted
as a kept answer, apart from the specifications searched to a verdict and
the lookups.  The table runs twice in one process, the second time after
``forget()``, which must leave the process to answer as a fresh one: a result
that leaks through a table that ``forget()`` misses changes the second
ledger.  The script exits non-zero when the table does (a wrong, unknown or
failed row) or when either ledger differs from the committed
``table_ledger.json`` next to it; ``--write`` rewrites that file with the
ledger of both runs, if they agree, instead of comparing.  A change meant to
keep the search keeps the file; one meant to change it rewrites the file and
says why.

One search path is one sample of a heavy-tailed distribution, so a change
to the search is judged on many.  ``--shuffle N`` runs the table once and
keeps a copy of each attempt's CNF as its solver loads it, then solves each
copy again under seeds 1..N, each of which shuffles the clause order and the
literal order inside each clause, up to that attempt's own conflict budget.
Per attempt it prints the median and quartiles of the conflicts and how many
runs hit the budget; its last line is the samples as JSON.  It exits
non-zero when a shuffled run ends against a verdict of the table's run.
``--compare OLD NEW`` reads two saved outputs of ``--shuffle`` and prints the
geometric mean of the per-attempt ratios of the median conflicts, NEW over
OLD, over the attempts that most runs of both end within the budget.

    PYTHONPATH=src python tests/ledger.py [--write]
    PYTHONPATH=src python tests/ledger.py --shuffle N > out.txt
    PYTHONPATH=src python tests/ledger.py --compare old.txt new.txt
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import statistics
import sys
from pathlib import Path

from liveupdate import forget, synthesis
from liveupdate.cli import main

PINNED = Path(__file__).with_name("table_ledger.json")
FIELDS = ("side", "bound", "vars", "clauses", "conflicts", "sat")


def ledger() -> dict:
    """The ledger of the results that ``synth_ltl`` keeps, in the order it kept them."""
    searched: dict[int, dict] = {}
    for (spec, *_), result in synthesis._SYNTH.items():
        if id(result.stats) not in searched:
            entry = searched[id(result.stats)] = {"spec": str(spec), "attempts": [
                [a[f] for f in FIELDS] for a in result.stats if not a.get("kept")]}
            entry.update({"kept": a["bound"] for a in result.stats if a.get("kept")})
    entries = list(searched.values())
    kept = sum("kept" in e for e in entries)
    return {"specifications": len(entries) - kept, "kept": kept,
            "lookups": len(synthesis._SYNTH) - len(entries),
            "attempts": sum(len(e["attempts"]) for e in entries),
            "conflicts": sum(a[4] for e in entries for a in e["attempts"]),
            "searched": entries}


def main_ledger(argv: list[str]) -> int:
    code, ledgers, results = 0, [], []
    for _ in range(2):
        code = main(["bench"]) or code
        ledgers.append(ledger())
        # the results stay referenced, so no id of a first-run stats is reused
        results.append({id(r.stats): r for r in synthesis._SYNTH.values() if r.stats})
        forget()
    reused = len(results[0].keys() & results[1].keys())
    if reused:
        print(f"run 2 answered {reused} specifications from results of run 1", file=sys.stderr)
    pinned = ledgers[0] if "--write" in argv else json.loads(PINNED.read_text())
    failed = bool(reused)
    for run, got in enumerate(ledgers, 1):
        print(f"ledger of run {run}: {got['specifications']} specifications searched, "
              f"{got['kept']} answered by a kept machine, {got['lookups']} lookups, "
              f"{got['attempts']} attempts, {got['conflicts']} conflicts")
        if got != pinned:
            failed = True
            _report(run, pinned, got)
    if "--write" in argv and not failed:
        head = json.dumps({k: v for k, v in pinned.items() if k != "searched"})[:-1]
        rows = ",\n".join(json.dumps(e) for e in pinned["searched"])
        PINNED.write_text(f'{head}, "searched": [\n{rows}\n]}}\n')  # a line per specification
    return code or int(failed)


def _report(run: int, pinned: dict, got: dict) -> None:
    """Where run ``run``'s ledger first differs from ``pinned``, on standard error."""
    for key in ("specifications", "kept", "lookups", "attempts", "conflicts"):
        if got[key] != pinned[key]:
            print(f"run {run}, {key}: {pinned[key]} pinned, {got[key]} now", file=sys.stderr)
    for was, now in zip(pinned["searched"], got["searched"]):
        if was != now:
            print(f"run {run}, first differing specification: {now['spec']}\n"
                  f"  pinned {was['attempts']} kept {was.get('kept')}\n"
                  f"  now    {now['attempts']} kept {now.get('kept')}", file=sys.stderr)
            break


def shuffled(clauses: list[list[int]], seed: int) -> list[list[int]]:
    """A copy of ``clauses`` with the clause order and the literal order
    inside each clause shuffled by ``seed``."""
    rng = random.Random(seed)
    copy = [rng.sample(c, len(c)) for c in clauses]
    rng.shuffle(copy)
    return copy


def _captured_table() -> tuple[int, dict, list[dict]]:
    """Run the table once, keeping a copy of each attempt's CNF as its solver
    loads it: the table's exit code, its ledger, and per attempt of the
    internal solver its spec, side, bound, budget and ``(nvars, clauses)``."""
    solver, run = synthesis.Solver, synthesis._Attempt.run
    captured: list[dict] = []
    loaded: list[tuple] = []

    def copying_solver(nv: int, clauses: list[list[int]]):
        loaded.append((nv, [c[:] for c in clauses]))  # the solver reorders the lists it owns
        return solver(nv, clauses)

    def capturing_run(attempt, problem, target):
        first = attempt.enc is None
        found = run(attempt, problem, target)
        if first and attempt.sat is not None:
            captured.append({"spec": str(problem.spec), "side": attempt.side, "bound": attempt.k,
                             "budget": attempt.budget, "cnf": loaded.pop()})
        return found

    synthesis.Solver, synthesis._Attempt.run = copying_solver, capturing_run
    try:
        with contextlib.redirect_stdout(sys.stderr):  # the table's rows; stdout is the samples'
            code = main(["bench"])
    finally:
        synthesis.Solver, synthesis._Attempt.run = solver, run
    return code, ledger(), captured


def _quartiles(xs: list[int]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def main_shuffle(seeds: int) -> int:
    code, got, captured = _captured_table()
    verdicts = {(e["spec"], a[0], a[1]): a[5] for e in got["searched"] for a in e["attempts"]}
    print(f"table run: {got['attempts']} attempts, {got['conflicts']} conflicts; "
          f"{len(captured)} CNFs kept; {seeds} shuffles each, up to the attempt's budget")
    missing = verdicts.keys() - {(c["spec"], c["side"], c["bound"]) for c in captured}
    if missing:
        print(f"{len(missing)} attempts of the ledger kept no CNF", file=sys.stderr)
    contradicted = 0
    for c in captured:
        (nv, clauses), budget = c.pop("cnf"), c["budget"]
        verdict = c["sat"] = verdicts.get((c["spec"], c["side"], c["bound"]))
        c["conflicts"], c["found"] = [], []
        for seed in range(1, seeds + 1):
            s = synthesis.Solver(nv, shuffled(clauses, seed))
            found = s.solve(budget)
            c["conflicts"].append(s.conflicts)
            c["found"].append(found)
            if found is not None and verdict is not None and found != verdict:
                contradicted += 1
                print(f"seed {seed} ends {found} against {verdict}: {c['side']} {c['bound']} of "
                      f"{c['spec']}", file=sys.stderr)
        q1, median, q3 = _quartiles(c["conflicts"])
        print(f"{c['side'][:3]} {c['bound']:>2}  median {median:>9.1f}  quartiles {q1:.1f}-{q3:.1f}  "
              f"{c['found'].count(None)}/{seeds} hit {budget}  sat {verdict}  {c['spec']}", flush=True)
    print(f"{sum(c['found'].count(None) for c in captured)} runs hit their budget, "
          f"{contradicted} ended against the table's verdict")
    print(json.dumps({"seeds": seeds, "attempts": captured}))
    return code or int(bool(missing or contradicted))


def main_compare(old: Path, new: Path) -> int:
    """Print the geometric mean of the per-attempt ratios of the median
    conflicts plus one, so that an attempt solved without a conflict counts."""
    sides = []
    for path in (old, new):
        attempts = json.loads(path.read_text().splitlines()[-1])["attempts"]
        sides.append({(a["spec"], a["side"], a["bound"]): a for a in attempts
                      if 2 * a["found"].count(None) < len(a["found"])})
    both = sides[0].keys() & sides[1].keys()
    logs = [math.log((statistics.median(sides[1][k]["conflicts"]) + 1)
                     / (statistics.median(sides[0][k]["conflicts"]) + 1)) for k in sorted(both)]
    mean = math.exp(sum(logs) / len(logs)) if logs else float("nan")
    print(f"{len(both)} attempts conclusive in both; geometric mean of the median ratios "
          f"(new / old): {mean:.4f}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--shuffle"]:
        sys.exit(main_shuffle(int(args[1])))
    if args[:1] == ["--compare"]:
        sys.exit(main_compare(Path(args[1]), Path(args[2])))
    sys.exit(main_ledger(args))
