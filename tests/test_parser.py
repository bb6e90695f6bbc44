"""Surface syntax: parsing, desugaring, diagnostics, and rendering."""
from __future__ import annotations

import pytest

from tlpc.core import Atom, Fun, Param, Subst, TCon, Var
from tlpc.corpus import corpus_names, corpus_text
from tlpc.parser import (
    ParseError,
    parse_clause,
    parse_program,
    parse_query,
    parse_term,
    render,
)


def test_append_program_shape(append):
    assert len(append.clauses) == 4
    decl = append.signature.preds["app"]
    u = Param("U")
    assert decl.arg_types == (TCon("list", (u,)),) * 3


def test_equality_bodies(eqnil):
    clause = eqnil.clauses[0]
    assert [a.pred for a in clause.body] == ["=", "="]
    assert clause.body[0] == Atom("=", (Var("X"), Fun("nil")))
    assert clause.body[1] == Atom("=", (Fun("nil"), Fun("nil")))


def test_unbalanced_parenthesis_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_program("kind list/1.\nfunc nil : list(U).\npred q(list(U)).\nq(X")
    assert any(d.severity == "error" for d in exc.value.diagnostics.entries)


def test_parse_query_shapes(append):
    sig = append.signature
    q = parse_query("app(Xs, [], Zs), r(Xs)", sig)
    assert [a.pred for a in q] == ["app", "r"]
    assert len(parse_query("r(X)", sig)) == 1
    with pytest.raises(ParseError):
        parse_query("r(X,", sig)


def test_query_atoms_resolved_against_signature(append):
    with pytest.raises(ParseError):
        parse_query("nosuch(X)", append.signature)
    with pytest.raises(ParseError):
        parse_query("r(X, Y)", append.signature)  # arity


def test_list_sugar(append):
    sig = append.signature
    x, xs = Var("X"), Var("Xs")
    assert parse_term("[X|Xs]", sig) == Fun("cons", (x, xs))
    assert parse_term("[]", sig) == Fun("nil")
    assert parse_term("[1, 2]", sig) == \
        Fun("cons", (Fun("1"), Fun("cons", (Fun("2"), Fun("nil")))))
    assert parse_term("cons(X, Xs)", sig) == parse_term("[X|Xs]", sig)


def test_minus_sugar(nestcount):
    t = parse_term("J-1", nestcount.signature)
    assert t == Fun("minus", (Var("J"), Fun("1")))
    assert parse_term("J-1-2", nestcount.signature) == \
        Fun("minus", (t, Fun("2")))


def test_int_literal_requires_int_kind(hqpr):
    # hqpr declares no int kind, so literals have no declaration.
    with pytest.raises(ParseError):
        parse_query("q([1])", hqpr.signature)


def test_render_list_fact(append):
    assert render(append.clauses[2]) == "r([1])."
    assert render(parse_term("[1]", append.signature)) == "[1]"
    assert render(Fun("nil")) == "[]"


def test_render_example_clause(semigen):
    c = semigen.clauses[0]
    assert render(c) == "p(X, [Y]) :- q([X], Z), q([Z], Y)."
    assert render(semigen.clauses[1]) == "q(X, [X])."


def test_render_empty_query():
    assert render(()) == "true"


def test_render_infix_equality(eqnil):
    assert render(eqnil.clauses[0]) == "p :- X = [], [] = []."


def test_render_substitution():
    th = Subst({Var("X"): Fun("nil"), Var("A"): Fun("1")})
    assert render(th) == "{A/1, X/[]}"


def test_roundtrip_all_corpus_programs():
    for name in corpus_names():
        once = parse_program(corpus_text(name))
        again = parse_program(render(once))
        assert again.clauses == once.clauses, name
        assert again.signature == once.signature, name
        assert again.partitions == once.partitions, name


def test_too_deep_term_is_a_parse_error(nest):
    deep = "[" * 3000 + "]" * 3000
    with pytest.raises(ParseError) as err:
        parse_query(f"p({deep})", nest.signature)
    assert "term nested too deeply" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_program(corpus_text("nest") + f"p({deep}).\np(X :- r.\n")
    # each clause is reported, and parsing resumes after the deep one
    assert [d.message for d in err.value.diagnostics.entries] == [
        "term nested too deeply", "expected ')', found ':-'"]


def test_long_flat_list_is_no_deep_term(append):
    # parse_list builds the cons chain with a loop; validation walks it the
    # same way, and still reports each bad symbol in prefix order.
    q = parse_query("app([" + ", ".join(["[]"] * 5000) + "], Ys, Zs)", append.signature)
    assert render(q).count("[]") == 5000
    sig = parse_program("kind list/1. func nil : list(U). func cons(U, list(U)) : list(U). "
                        "pred p(list(list(U))).").signature
    with pytest.raises(ParseError) as err:
        parse_query("p([" + ", ".join(["[]"] * 3000) + ", f(g), [nil(X)]])", sig)
    assert [d.message for d in err.value.diagnostics.entries] == [
        "function f not declared", "function g not declared", "function nil/0 used with 1 arguments"]


def test_parse_clause_single(append):
    c = parse_clause("app([], Ys, Ys).", append.signature)
    assert c == append.clauses[0]
    with pytest.raises(ParseError):
        parse_clause("app([], Ys, Ys)", append.signature)  # missing dot


def test_partition_directive(nestcount):
    assert nestcount.partitions == {"r": ("h", "b")}


def test_partition_directive_validation():
    base = "kind list/1.\nfunc nil : list(U).\npred r(list(U)).\nr([]).\n"
    for bad in ("partition s(h).",       # unknown predicate
                "partition r(h, b).",    # arity mismatch
                "partition r(x).",       # unknown mark
                "partition r(h). partition r(b)."):  # duplicate
        with pytest.raises(ParseError):
            parse_program(base + bad)


def test_undeclared_symbols_rejected():
    with pytest.raises(ParseError):
        parse_program("pred p.\np :- q.\n")
    with pytest.raises(ParseError):
        parse_program("kind list/1.\npred p(list(U)).\np(f(X)).\n")


def test_transparency_forwarded_from_signature():
    with pytest.raises(ParseError) as exc:
        parse_program("kind int/0.\nfunc h(U) : int.\n")
    assert "not transparent" in str(exc.value.diagnostics)


def test_comments_and_whitespace(hqpr):
    text = "% leading comment\n" + corpus_text("hqpr") + "\n% trailing\n"
    assert parse_program(text).clauses == hqpr.clauses


def test_render_does_not_recurse():
    term, ty, lists = Fun("z"), Param("A"), Fun("nil")
    for _ in range(5000):
        term = Fun("s", (term,))
        ty = TCon("list", (ty,))
        lists = Fun("cons", (lists, Fun("nil")))
    assert render(term) == "s(" * 5000 + "z" + ")" * 5000
    assert render(ty) == "list(" * 5000 + "A" + ")" * 5000
    assert render(lists) == "[" * 5000 + "[]" + "]" * 5000


@pytest.mark.parametrize("text, messages", [
    ("pred p.\np :- #.\n",
     ["2:6: error: unexpected character '#'", "2:7: error: expected a term, found '.'"]),
    ("pred p(1).\n", ["1:8: error: expected a type, found '1'"]),
    ("kind a/0.\nkind a/0.\n", ["2:6: error: kind a declared twice"]),
    ("pred true.\n", ["1:6: error: true is reserved"]),
    ("kind a/0.\nfunc c : a.\npred p(a).\np(X - c).\n",
     ["4:5: error: integer subtraction requires kind int/0"]),
    ("kind a/0.\npred p(a).\np([]).\n",
     ["3:4: error: list syntax requires func nil to be declared",
      "3:1: error: function nil not declared"]),
    ("kind a/0.\npred p(a).\np(X) :- X.\n",
     ["3:9: error: a body atom must be a predicate call or an equation"]),
    ("kind int/0.\npred p(int).\np(X) :- 1 - X.\n",
     ["3:9: error: a body atom must be a predicate call or an equation"]),
], ids=["character", "type", "kind-twice", "reserved", "minus-without-int", "nil-undeclared",
        "variable-atom", "minus-atom"])
def test_diagnostics(text, messages):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert [str(d) for d in err.value.diagnostics.entries] == messages


@pytest.mark.parametrize("text, term, shown", [
    ("-5", Fun("-5"), "-5"),
    ("(X)", Var("X"), "X"),
    ("(X - Y) - Z", Fun("minus", (Fun("minus", (Var("X"), Var("Y"))), Var("Z"))), "X-Y-Z"),
    ("X - (Y - Z)", Fun("minus", (Var("X"), Fun("minus", (Var("Y"), Var("Z"))))), "X-(Y-Z)"),
    ("X - -1", Fun("minus", (Var("X"), Fun("-1"))), "X-(-1)"),
    ("[-1|(Xs)]", Fun("cons", (Fun("-1"), Var("Xs"))), "[-1|Xs]"),
])
def test_signs_and_parentheses_render_and_parse_back(nestcount, text, term, shown):
    sig = nestcount.signature
    assert parse_term(text, sig) == term
    assert render(term) == shown
    assert parse_term(shown, sig) == term
    fact = parse_clause(f"r({text}, []).", sig)
    assert parse_clause(render(fact), sig) == fact
