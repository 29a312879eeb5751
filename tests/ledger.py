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

    PYTHONPATH=src python tests/ledger.py [--write]
"""

from __future__ import annotations

import json
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


if __name__ == "__main__":
    sys.exit(main_ledger(sys.argv[1:]))
