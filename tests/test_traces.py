import pytest

from liveupdate.cli import main
from liveupdate.traces import APTable, Cube, LassoTrace, parse_trace


@pytest.mark.parametrize("make, message", [
    (lambda: Cube.parse("r & q", frozenset({"r"})), "cube literal 'q' is not a declared input"),
    (lambda: Cube.parse("!r & r", frozenset({"r"})), "contradictory cube '!r & r'"),
    (lambda: APTable(("r", "g"), ("g",)), "duplicate proposition names in AP table"),
    (lambda: LassoTrace((frozenset(),), ()), "lasso loop must be nonempty"),
], ids=["cube-undeclared-literal", "cube-contradictory", "duplicate-ap-name", "empty-lasso-loop"])
def test_value_errors(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["", "  ", "\n"])
def test_a_blank_trace_has_no_letter(text):
    # unlike "-", which is one empty letter
    assert parse_trace(text) == ()
    assert parse_trace("-") == (frozenset(),)


def test_duplicate_ap_name_in_a_problem_exits_3(tmp_path, capsys):
    path = tmp_path / "dup.problem"
    path.write_text("INPUTS: r g\nOUTPUTS: g\nINITIAL: G g\nTRACE: -\n")
    assert main(["evolve", str(path)]) == 3
    assert capsys.readouterr().err == "error: duplicate proposition names in AP table\n"
