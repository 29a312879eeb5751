import hashlib
import itertools
import random
import re

import pytest

from liveupdate.cli import main
from liveupdate.machine import MachineFormatError, MooreMachine, parse_machine, serialize_machine, to_dot
from liveupdate.monitor import cut_from_phi
from liveupdate.traces import APTable, Cube

from gen import all_lassos, fin_traces, random_machine


def L(*names):
    return frozenset(names)


ONE_STATE = """
inputs: r
outputs: g
state s0 initial { g }
s0 --*--> s0
"""


def test_run_constant_machine():
    m = parse_machine(ONE_STATE)
    assert m.run((L("r"), L())) == (L("g", "r"), L("g"))


def test_run_fig1(fig1_machine):
    m = fig1_machine
    first = m.run((L("m0", "m1"),))
    assert first == (L("i0", "i1", "r", "m0", "m1"),)
    assert m.delta(m.initial, L("m0", "m1")) == m.initial
    # silence of station 0 moves to the state emitting only i1
    dst = m.delta(m.initial, L("m1"))
    assert m.outputs[dst] == L("i1")


def test_run_rejects_undeclared_input():
    m = parse_machine(ONE_STATE)
    # any iterable is a letter
    assert m.run((["r"], (), L("r"))) == (L("g", "r"), L("g"), L("g", "r"))
    # alone, or in the middle of a word; an output is no input
    for word, names in (((L("zzz"),), ["zzz"]),
                        ((L("r"), L(), L("g"), L("r")), ["g"]),
                        ((L("r"), L(), L("r", "zzz"), L("r")), ["zzz"])):
        with pytest.raises(ValueError, match=re.escape(f"undeclared input propositions: {names}")):
            m.run(word)
    # a cube ignores a name it does not mention, but no state has a move on a
    # letter outside the machine's inputs
    for inp, names in ((L("zzz"), ["zzz"]), (L("r", "g"), ["g"])):
        with pytest.raises(ValueError, match=re.escape(f"undeclared input propositions: {names}")):
            m.delta(m.initial, inp)


def test_fin_traces_depths():
    m = parse_machine(ONE_STATE)
    assert fin_traces(m, 0) == {()}
    assert fin_traces(m, 1) == {(), (L("g", "r"),), (L("g"),)}


def test_fin_traces_prefix_closed():
    rng = random.Random(3)
    for _ in range(20):
        m = random_machine(rng, APTable(("x",), ("y",)), 3)
        traces = fin_traces(m, 3)
        for t in traces:
            for i in range(len(t)):
                assert t[:i] in traces


def test_fin_traces_equal_runs():
    rng = random.Random(4)
    m = random_machine(rng, APTable(("x",), ("y",)), 3)
    letters = m.input_letters()
    expected = {()}
    for n in range(1, 4):
        for combo in itertools.product(letters, repeat=n):
            expected.add(m.run(combo))
    assert fin_traces(m, 3) == expected


def test_all_lassos_match_runs():
    rng = random.Random(5)
    m = random_machine(rng, APTable(("x",), ()), 2)
    lassos = list(all_lassos(m, 2))
    assert lassos
    for sig in lassos:
        # every lasso is an actual trace of the machine: replay its letters
        word = [sig.letter(i) for i in range(sig.positions + 2)]
        inputs = [l & frozenset(m.ap.inputs) for l in word]
        assert m.run(tuple(inputs)) == tuple(word)


def test_roundtrip_fig1(fig1_machine):
    text = serialize_machine(fig1_machine)
    again = parse_machine(text)
    assert serialize_machine(again) == text
    assert again.outputs == fig1_machine.outputs
    letters = fig1_machine.input_letters()
    for s in range(len(fig1_machine)):
        for inp in letters:
            assert again.delta(s, inp) == fig1_machine.delta(s, inp)


def test_roundtrip_empty_output_state():
    text = "inputs:\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n"
    m = parse_machine(text)
    assert m.outputs[0] == frozenset()
    assert parse_machine(serialize_machine(m)).outputs[0] == frozenset()


def test_roundtrip_random():
    rng = random.Random(6)
    for _ in range(25):
        m = random_machine(rng, APTable(("x", "z"), ("y",)), 3)
        again = parse_machine(serialize_machine(m))
        for s in range(len(m)):
            assert again.outputs[s] == m.outputs[s]
            for inp in m.input_letters():
                assert again.delta(s, inp) == m.delta(s, inp)


def test_totality_error():
    text = "inputs: r\noutputs: g\nstate s0 initial { g }\ns0 --r--> s0\n"
    with pytest.raises(MachineFormatError, match="not total"):
        parse_machine(text)


def test_overlap_error():
    text = ("inputs: r\noutputs: g\nstate s0 initial { g }\nstate s1 { }\n"
            "s0 --*--> s0\ns0 --r--> s1\ns1 --*--> s1\n")
    with pytest.raises(MachineFormatError, match="overlapping"):
        parse_machine(text)


def test_duplicate_state_error():
    text = "inputs: r\noutputs: g\nstate s0 initial { g }\nstate s0 { }\ns0 --*--> s0\n"
    with pytest.raises(MachineFormatError, match="duplicate"):
        parse_machine(text)


HEADER = "inputs: r\noutputs: g\n"


@pytest.mark.parametrize("text, message", [
    (HEADER + "state s0 initial { x }\ns0 --*--> s0\n",
     "state s0 outputs undeclared propositions ['x']"),
    (HEADER + "state s0 initial g\ns0 --*--> s0\n", "malformed state line: 'state s0 initial g'"),
    (HEADER + "state s0 start { g }\ns0 --*--> s0\n", "malformed state line: 'state s0 start { g }'"),
    (HEADER + "state s0 initial { g }\nstate s1 initial { }\ns0 --*--> s0\ns1 --*--> s1\n",
     "multiple initial states"),
    (HEADER + "state s0 initial { g }\ns0 -> s0\n", "unrecognized line: 's0 -> s0'"),
    ("inputs: r\nstate s0 initial { g }\ns0 --*--> s0\n", "missing inputs:/outputs: header"),
    (HEADER + "state s0 { g }\ns0 --*--> s0\n", "no initial state"),
    (HEADER + "state s0 initial { g }\ns0 --*--> s1\n", "edge references unknown state: s0 --...--> s1"),
    (HEADER + "state s0 initial { g }\ns0 --g--> s0\n", "cube literal 'g' is not a declared input"),
    (HEADER + "state s0 initial { g }\ns0 --r & !r--> s0\n", "contradictory cube 'r & !r'"),
], ids=["undeclared-output", "state-without-braces", "state-bad-head", "two-initial-states",
        "unrecognized-line", "missing-header", "no-initial-state", "unknown-endpoint",
        "cube-undeclared-literal", "cube-contradictory"])
def test_format_errors(tmp_path, capsys, text, message):
    with pytest.raises(MachineFormatError) as err:
        parse_machine(text)
    assert str(err.value) == message
    (tmp_path / "bad.machine").write_text(text)
    problem = tmp_path / "bad.problem"
    problem.write_text("INPUTS: r\nOUTPUTS: g\nINITIAL: G g\nTRACE: -\nINITIAL_MACHINE: @bad.machine\n")
    assert main(["evolve", str(problem)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_constructor_rejects_duplicate_ids():
    ap = APTable(("r",), ("g",))
    loop = [(Cube(frozenset(), frozenset()), 0)]
    with pytest.raises(MachineFormatError, match="^duplicate state ids$"):
        MooreMachine(ap, ["s0", "s0"], 0, [frozenset(), frozenset()], [loop, loop])


def test_dot_export(fig1_machine):
    dot = to_dot(fig1_machine)
    assert dot.startswith("digraph")
    assert "m0 & m1" in dot
    assert "i0, i1, r" in dot


def test_dot_of_ordinary_ids_is_unchanged(fig1_machine, relay2):
    # the sha256 of the DOT text of the machine and of its relay(2) cut as
    # the two writers of DOT wrote it before they were merged into one
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(to_dot(fig1_machine)) == \
        "9658942ab31a9bbd4868637ea558569b2401e9ab343eb5e45e8ad00593e9bf19"
    assert digest(cut_from_phi(relay2.spec, fig1_machine).to_dot()) == \
        "b1a41dd48b8f2415b3b9e4889c2e059530028719f125c4ee267ec617d5ec5466"


DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def dot_strings(dot: str) -> list[str]:
    """The title and every label of a DOT text, unescaped; an assertion
    fails on a line whose title or label is not one well-formed DOT string."""
    title, *lines = dot.splitlines()
    found = [re.fullmatch(rf"digraph ({DOT_STRING}) {{", title)]
    found += [re.fullmatch(rf".*?[ \[]label=({DOT_STRING})\];", line) for line in lines
              if "label=" in line]
    assert all(found), dot
    return [re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], m[1][1:-1]) for m in found]


def test_dot_escapes_quotes_and_backslashes(tmp_path):
    text = ('inputs: r\noutputs: g\nstate c"1 initial { g }\nstate c\\2 { }\n'
            'c"1 --r--> c\\2\nc"1 --!r--> c"1\nc\\2 --*--> c"1\n')
    m = parse_machine(text)
    assert dot_strings(to_dot(m, 'say "hi" \\o/')) == [
        'say "hi" \\o/', "", 'c"1\n{g}', "c\\2\n{}", "r", "!r", "*"]
    (tmp_path / "m.machine").write_text(text)
    problem = tmp_path / "m.problem"
    problem.write_text("INPUTS: r\nOUTPUTS: g\nINITIAL: G (r -> X g)\nTRACE: -\n"
                       "INITIAL_MACHINE: @m.machine\n")
    out = tmp_path / "cut.dot"
    assert main(["monitor", str(problem), "--cut", "--dot", str(out)]) == 0
    labels = dot_strings(out.read_text())
    assert labels[0] == "monitor" and {'c"1', "c\\2"} <= {l.rsplit(" | ", 1)[-1] for l in labels}
