import pytest

from liveupdate.formula import atom, f_next, f_release, f_until, natom, t_false, t_true
from liveupdate.parser import LtlSyntaxError, UndeclaredPropositionError, is_atom_name, parse_formula
from liveupdate.traces import APTable


def test_until_literal():
    f = parse_formula("a U b")
    assert f is f_until(atom("a"), atom("b"))


def test_negated_eventually_is_globally_not():
    f = parse_formula("!(F a)")
    assert f is f_release(t_false(), natom("a"))


def test_relay_guarantee_shape():
    f = parse_formula("G (m1 -> X F i1)")
    assert f.kind == "R" and f.left is t_false()
    body = f.right
    assert body.kind == "or"
    assert set(body.children) == {natom("m1"), f_next(f_until(t_true(), atom("i1")))}


def test_precedence():
    # unary > U/R > && > || > -> > <->
    assert parse_formula("X a U b") is f_until(f_next(atom("a")), atom("b"))
    assert parse_formula("a U b && c") is not None
    f = parse_formula("a && b || c")
    assert f.kind == "or"
    g = parse_formula("a -> b -> c")  # right associative
    assert g is parse_formula("a -> (b -> c)")
    assert parse_formula("a U b U c") is parse_formula("a U (b U c)")


def test_iff_desugars():
    f = parse_formula("a <-> b")
    assert f.kind == "and"
    assert parse_formula("g <-> !g") is t_false()


def test_syntax_error_position():
    with pytest.raises(LtlSyntaxError) as err:
        parse_formula("a U ")
    assert err.value.pos == 4
    with pytest.raises(LtlSyntaxError):
        parse_formula("a &&& b")
    with pytest.raises(LtlSyntaxError):
        parse_formula("(a U b")
    with pytest.raises(LtlSyntaxError):
        parse_formula("a b")


def test_undeclared_proposition():
    parse_formula("a U b", declared=frozenset(("a", "b")))
    with pytest.raises(UndeclaredPropositionError) as err:
        parse_formula("a U bad", declared=frozenset(("a", "b")))
    assert err.value.name == "bad"


def test_ap_table_rejects_names_no_formula_can_mention():
    for name in ("G", "true", "U", "m-1", "1a", "a b"):
        assert not is_atom_name(name)
        with pytest.raises(ValueError, match="no formula can mention"):
            APTable((name,), ("g",))
    assert is_atom_name("m_1") and is_atom_name("Go")
    assert APTable(("m_1",), ("Go",)).all == {"m_1", "Go"}
