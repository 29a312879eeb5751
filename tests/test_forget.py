"""``forget()`` clears the process-wide tables: a cleared process answers as
a fresh one, and the formulas it built stay the formulas it builds."""

import json
import sys

from ledger import ledger

import liveupdate
from liveupdate import forget
from liveupdate.cli import main
from liveupdate.formula import canonical, neg, t_true
from liveupdate.machine import serialize_machine
from liveupdate.parser import parse_formula
from liveupdate.synthesis import synth_finite_live
from liveupdate.traces import APTable, parse_trace

INTERN = "liveupdate.formula.Formula._intern"


def _dicts() -> dict[str, dict]:
    """Every dict held by a module of the package or by a class defined in
    one, by its dotted name, found at run time."""
    found: dict[str, dict] = {}
    for name, module in list(sys.modules.items()):
        if name != "liveupdate" and not name.startswith("liveupdate."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and not attr.startswith("__"):
                found[f"{name}.{attr}"] = value
            elif isinstance(value, type) and value.__module__ == name:
                found.update((f"{name}.{attr}.{a}", v) for a, v in vars(value).items()
                             if isinstance(v, dict) and not a.startswith("__"))
    return found


def _run(capsys) -> tuple:
    """The acceptance rows without their times, one finite-trace synthesis,
    and the ledger of the results that ``synth_ltl`` keeps."""
    assert main(["bench", "--acceptance", "--json"]) == 0
    rows = [{k: v for k, v in row.items() if k != "time"}
            for row in json.loads(capsys.readouterr().out)]
    phi = parse_formula("G (m1 -> X F i1)")
    result = synth_finite_live(phi, phi, parse_trace("m1 ; i1 m1"), APTable(("m1",), ("i1",)))
    assert result.realizable
    return rows, serialize_machine(result.machine), ledger()


def test_forget_leaves_the_process_as_a_fresh_one(capsys):
    # every dict that a run changes but the intern table is a derived table:
    # forget() empties it, leaves every other dict as it was, and the run
    # after it gives the same rows, machine and ledger
    dicts = _dicts()
    before = {name: dict(d) for name, d in dicts.items()}
    first = _run(capsys)
    changed = {name for name, d in dicts.items() if d != before[name]}
    registered = {name for name, d in dicts.items() if any(d is t for t in liveupdate._TABLES)}
    assert len(registered) == len(liveupdate._TABLES)
    assert changed - {INTERN} == registered
    interned = dict(dicts[INTERN])
    forget()
    assert [name for name in changed - {INTERN} if dicts[name]] == []
    assert dicts[INTERN] == interned
    assert [name for name, d in dicts.items() if name not in changed and d != before[name]] == []
    assert _run(capsys) == first


def test_a_formula_built_before_forget_is_the_one_parsed_after():
    text = "G (r -> F g) && X !r"
    f = parse_formula(text)
    atoms, negated, canon = f.atoms, neg(f), canonical(f)
    forget()
    assert parse_formula(text) is f and parse_formula("true") is t_true()
    assert f.atoms == atoms and neg(f) is negated and canonical(f) is canon
