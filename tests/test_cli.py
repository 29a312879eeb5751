import json

import pytest

from liveupdate.cli import main
from liveupdate.machine import serialize_machine

RELAY1_MONITOR = """\
INPUTS: m1
OUTPUTS: i1
INITIAL: G (m1 -> X F i1)
TRACE: m1 ; i1 m1
INITIAL_MACHINE:
  inputs: m1
  outputs: i1
  state c1 initial { i1 }
  state c2 { }
  c1 --m1--> c1
  c1 --!m1--> c2
  c2 --m1--> c1
  c2 --!m1--> c2
"""

MC_PROBLEM = """\
INPUTS: r
OUTPUTS: g
INITIAL: G (r -> F g)
UPDATE: G F g
TRACE: r
UPDATE_MACHINE:
  inputs: r
  outputs: g
  state s0 initial { g }
  s0 --*--> s0
"""

MC_FAIL = MC_PROBLEM.replace("state s0 initial { g }", "state s0 initial { }")

SYNTH_PROBLEM = """\
INPUTS: r
OUTPUTS: g
INITIAL: G (r -> F g)
UPDATE: G (r -> F g) && G (!r -> X !g)
TRACE: r
"""


@pytest.fixture
def problem_dir(tmp_path):
    (tmp_path / "monitor.problem").write_text(RELAY1_MONITOR)
    (tmp_path / "mc.problem").write_text(MC_PROBLEM)
    (tmp_path / "mc_fail.problem").write_text(MC_FAIL)
    (tmp_path / "synth.problem").write_text(SYNTH_PROBLEM)
    return tmp_path


def test_monitor_command(problem_dir, capsys):
    code = main(["monitor", str(problem_dir / "monitor.problem"), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == 4
    assert sorted(data["labels"]) == sorted(["true", "X F i1", "F i1", "F i1 && X F i1"])


def test_monitor_cut_command(problem_dir, capsys):
    code = main(["monitor", str(problem_dir / "monitor.problem"), "--cut", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["states"] == 5
    assert len(data["labels"]) == 4


def test_monitor_dot(problem_dir, tmp_path, capsys):
    out = tmp_path / "m.dot"
    code = main(["monitor", str(problem_dir / "monitor.problem"), "--dot", str(out)])
    assert code == 0
    assert out.read_text().startswith("digraph")


def test_evolve_command(problem_dir, capsys):
    code = main(["evolve", str(problem_dir / "monitor.problem")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "F i1"


def test_mc_finite_pass(problem_dir, capsys):
    assert main(["mc", "--finite", str(problem_dir / "mc.problem"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "pass"


def test_mc_finite_fail_exit_code(problem_dir, capsys):
    code = main(["mc", "--finite", str(problem_dir / "mc_fail.problem"), "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "fail"
    assert "witness" in data


def test_synth_finite(problem_dir, tmp_path, capsys):
    out = tmp_path / "machine.txt"
    code = main(["synth", "--finite", str(problem_dir / "synth.problem"),
                 "--out", str(out), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "realizable"
    assert out.read_text().startswith("inputs: r")


UNIVERSAL_PROBLEM = """\
INPUTS: r
OUTPUTS: g
INITIAL: G (r -> F g)
UPDATE: G F g
INITIAL_MACHINE:
  inputs: r
  outputs: g
  state s0 initial { }
  s0 --*--> s0
UPDATE_MACHINE:
  inputs: r
  outputs: g
  state s0 initial { g }
  s0 --*--> s0
"""


def test_mc_universal(tmp_path, capsys):
    path = tmp_path / "u.problem"
    path.write_text(UNIVERSAL_PROBLEM)
    code = main(["mc", "--universal", str(path), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "pass"
    assert data["obligations"]


def test_synth_universal(tmp_path, capsys):
    path = tmp_path / "u.problem"
    path.write_text(UNIVERSAL_PROBLEM)
    code = main(["synth", "--universal", str(path), "--json", "--timeout", "60"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "realizable"
    assert data["per_obligation"]


def test_missing_section_error(problem_dir, capsys):
    code = main(["mc", "--universal", str(problem_dir / "mc.problem")])
    assert code == 3
    assert "lacks required sections: INITIAL_MACHINE" in capsys.readouterr().err


def test_synth_bound_max_below_one_is_an_input_error(problem_dir):
    assert main(["synth", "--finite", str(problem_dir / "synth.problem"), "--bound-max", "0"]) == 3


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["bench", "--bogus"],
    ["synth", "--finite", "--timeout", "abc", "x"],
    ["evolve", "x", "--monitor-budget", "5"],
    ["bench", "--bound-max", "0"],
    ["monitor", "x", "--monitor-budget", "0"],
    ["bench", "--rows", "no-such-row", "--timeout", "nan"],
    ["synth", "--finite", "x", "--timeout", "-1"],
    ["gen", "relay", "0"],
])
def test_usage_error_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["synth", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_bad_file_error(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text("INPUTS: a\nOUTPUTS: b\nINITIAL: a U\n")
    code = main(["monitor", str(bad)])
    assert code == 3


def test_bench_empty_filter(capsys):
    code = main(["bench", "--rows", "no-such-row-xyz", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_bench_robot_row(capsys):
    code = main(["bench", "--rows", "visit->seq-visit", "--json", "--timeout", "60"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out[0]["universal"] == "real"
    assert out[0]["fin_trace_realizable"] == out[0]["om_labels"]
    assert out[0]["fin_trace_unknown"] == 0


def test_bench_row_has_one_deadline(monkeypatch):
    # the row's initial system and its universal synthesis share the deadline
    from liveupdate import cli
    from liveupdate.synthesis import SynthesisResult
    deadlines = []

    def initial(problem):
        deadlines.append(problem.deadline)
        return SynthesisResult("realizable")

    def universal(ts_i, phi, psi, ap, monitor_budget, **kwargs):
        deadlines.append(kwargs["deadline"])
        return SynthesisResult("realizable")

    monkeypatch.setattr(cli, "synth_ltl", initial)
    monkeypatch.setattr(cli, "synth_universal_live", universal)
    assert main(["bench", "--rows", "visit->seq-visit", "--timeout", "60"]) == 0
    assert len(deadlines) == 2 and deadlines[0] is not None
    assert deadlines[0] == deadlines[1]


def test_bench_budget_row_is_unknown(capsys):
    code = main(["bench", "--rows", "visit->seq-visit", "--monitor-budget", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out[0]["universal"] == "unknown"
    assert "monitor exceeds 1 states" in out[0]["reason"]


def test_bench_unknown_row_has_a_reason(monkeypatch, capsys):
    from liveupdate import cli
    from liveupdate.synthesis import SynthesisResult
    reason = "the deadline passed before the system attempt at bound 2"
    monkeypatch.setattr(cli, "synth_universal_live",
                        lambda *args, **kwargs: SynthesisResult("unknown", reason=reason))
    code = main(["bench", "--rows", "visit->seq-visit", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out[0]["universal"] == "unknown" and out[0]["reason"] == reason


def test_bench_unknown_initial_system_is_unknown(capsys):
    # the deadline passes before the row's initial system is synthesized
    code = main(["bench", "--rows", "visit->seq-visit", "--timeout", "0", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out[0]["universal"] == "unknown"
    assert out[0]["reason"] == ("initial system: the deadline passed before the system "
                                "attempt at bound 1")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_bench_unrealizable_initial_system_is_an_error(monkeypatch, capsys, as_json):
    from liveupdate import cli
    from liveupdate.synthesis import SynthesisResult
    monkeypatch.setattr(cli, "synth_ltl", lambda problem: SynthesisResult("unrealizable"))
    code = main(["bench", "--rows", "visit->seq-visit"] + (["--json"] if as_json else []))
    out = capsys.readouterr().out
    message = "initial specification not synthesizable: unrealizable"
    assert code == 2
    if as_json:
        assert json.loads(out)[0]["universal"] == "error"
        assert json.loads(out)[0]["error"] == message
    else:
        row, detail = out.splitlines()[1:]
        assert row.split()[:2] == ["visit->seq-visit", "-"] and "error" in row.split()
        assert detail == f"  error: {message}"


def test_mc_universal_budget_counts_cut_states(tmp_path, capsys, fig1_machine, relay2):
    # relay(2): the cut has 27 states, the uncut monitor 66
    (tmp_path / "fig1.machine").write_text(serialize_machine(fig1_machine))
    path = tmp_path / "relay.problem"
    path.write_text(f"INPUTS: {' '.join(relay2.ap.inputs)}\nOUTPUTS: {' '.join(relay2.ap.outputs)}\n"
                    f"INITIAL: {relay2.spec}\nUPDATE: {relay2.spec}\n"
                    "INITIAL_MACHINE: @fig1.machine\nUPDATE_MACHINE: @fig1.machine\n")
    code = main(["mc", "--universal", str(path), "--monitor-budget", "40", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["monitor_states"] == 27


def test_gen_command(capsys):
    assert main(["gen", "relay", "1"]) == 0
    out = capsys.readouterr().out
    assert "INPUTS: m0" in out and "INITIAL:" in out


@pytest.mark.parametrize("argv", [
    ["monitor"],
    ["mc", "--universal"],
    ["synth", "--universal"],
])
def test_monitor_budget_is_unknown(tmp_path, capsys, argv):
    path = tmp_path / "u.problem"
    path.write_text(UNIVERSAL_PROBLEM)
    code = main(argv + [str(path), "--monitor-budget", "1", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["outcome"] == "unknown"
    assert "monitor exceeds 1 states" in data["reason"]
    assert data["reason"] in captured.err


def test_automaton_budget_is_unknown(problem_dir, capsys, monkeypatch):
    from liveupdate import automata
    monkeypatch.setattr(automata.ltl_to_nba, "__defaults__", (1,))
    code = main(["mc", "--finite", str(problem_dir / "mc.problem")])
    assert code == 2
    assert "automaton exceeds 1 states" in capsys.readouterr().err


def test_external_solver_timeout_is_unknown(problem_dir, tmp_path, capsys):
    solver = tmp_path / "slow-solver"
    solver.write_text("#!/bin/sh\nexec sleep 30\n")
    solver.chmod(0o755)
    code = main(["synth", "--finite", str(problem_dir / "synth.problem"), "--json",
                 "--timeout", "1", "--solver", str(solver)])
    assert code == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["outcome"] == "unknown"
    assert data["stats"][0]["timeout"]
    assert data["stats"][0]["budget"] is None and data["stats"][0]["conflicts"] is None
    assert data["reason"] == "the deadline passed during the system attempt at bound 1"
    assert data["reason"] in captured.err


@pytest.mark.parametrize("output, reason", [
    ("c no verdict", "external solver gave no verdict"),
    ("s SATISFIABLE\nv 1 0", "external solver gave a model that leaves a clause false"),
    ("s SATISFIABLE\nv 1 x 0", "external solver gave unreadable output"),
], ids=["no-verdict", "clause-false", "unreadable"])
def test_bad_external_solver_answer_is_unknown(problem_dir, tmp_path, capsys, output, reason):
    solver = tmp_path / "bad-solver"
    solver.write_text(f"#!/bin/sh\nprintf '{output}\\n'\n")
    solver.chmod(0o755)
    code = main(["synth", "--finite", str(problem_dir / "synth.problem"), "--json",
                 "--solver", str(solver)])
    assert code == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["outcome"] == "unknown"
    assert len(data["stats"]) == 1 and not data["stats"][0]["timeout"]
    assert data["reason"] == f"{reason} in the system attempt at bound 1"
    assert data["reason"] in captured.err
