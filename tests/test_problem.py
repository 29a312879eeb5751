import pytest

from liveupdate.cli import main
from liveupdate.problem import ProblemFormatError, load_problem

MACHINE = "  inputs: r x\n  outputs: g\n  state s0 initial { g }\n  s0 --*--> s0\n"


@pytest.mark.parametrize("text, message", [
    ("# relay\nr g\nINPUTS: r\nOUTPUTS: g\n", "text before first section: 'r g'"),
    ("INPUTS: r\nINITIAL: G r\nTRACE: -\n", "problem file needs INPUTS: and OUTPUTS: sections"),
    ("INPUTS: r\nOUTPUTS: g\nINITIAL: G g\nTRACE: -\nINITIAL_MACHINE:\n" + MACHINE,
     "INITIAL_MACHINE machine declares propositions outside the problem AP table"),
], ids=["text-before-first-section", "no-outputs-section", "machine-outside-ap"])
def test_format_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.problem"
    path.write_text(text)
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert str(err.value) == message
    assert main(["evolve", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
