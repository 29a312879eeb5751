"""Run the full regression table and check its attempt ledger.

The ledger lists every specification that the table searches, once: the
results that ``synth_ltl`` keeps, told apart by the identity of their
``stats``, so a copy answered by renaming a searched specification counts as
a lookup.  Per specification it gives each attempt's ``(side, bound, vars,
clauses, conflicts, sat)``.  The script exits non-zero when the table does
(a wrong, unknown or failed row) or when the ledger differs from the
committed ``table_ledger.json`` next to it; ``--write`` rewrites that file
instead of comparing.  A change meant to keep the search keeps the file; one
meant to change it rewrites the file and says why.

    PYTHONPATH=src python tests/ledger.py [--write]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from liveupdate import synthesis
from liveupdate.cli import main

PINNED = Path(__file__).with_name("table_ledger.json")
FIELDS = ("side", "bound", "vars", "clauses", "conflicts", "sat")


def ledger() -> dict:
    """The ledger of the results that ``synth_ltl`` keeps, in the order it kept them."""
    searched: dict[int, dict] = {}
    for (spec, *_), result in synthesis._SYNTH.items():
        if id(result.stats) not in searched:
            searched[id(result.stats)] = {"spec": str(spec), "attempts": [
                [a[f] for f in FIELDS] for a in result.stats]}
    entries = list(searched.values())
    return {"specifications": len(entries), "lookups": len(synthesis._SYNTH) - len(entries),
            "attempts": sum(len(e["attempts"]) for e in entries),
            "conflicts": sum(a[4] for e in entries for a in e["attempts"]),
            "searched": entries}


def main_ledger(argv: list[str]) -> int:
    code = main(["bench"])
    got = ledger()
    print(f"ledger: {got['specifications']} specifications searched, {got['lookups']} "
          f"lookups, {got['attempts']} attempts, {got['conflicts']} conflicts")
    if "--write" in argv:
        head = json.dumps({k: v for k, v in got.items() if k != "searched"})[:-1]
        rows = ",\n".join(json.dumps(e) for e in got["searched"])
        PINNED.write_text(f'{head}, "searched": [\n{rows}\n]}}\n')  # a line per specification
        return code
    pinned = json.loads(PINNED.read_text())
    if got == pinned:
        return code
    for key in ("specifications", "lookups", "attempts", "conflicts"):
        if got[key] != pinned[key]:
            print(f"{key}: {pinned[key]} pinned, {got[key]} now", file=sys.stderr)
    for was, now in zip(pinned["searched"], got["searched"]):
        if was != now:
            print(f"first differing specification: {now['spec']}\n"
                  f"  pinned {was['attempts']}\n  now    {now['attempts']}", file=sys.stderr)
            break
    return code or 1


if __name__ == "__main__":
    sys.exit(main_ledger(sys.argv[1:]))
