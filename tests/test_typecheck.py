"""Typing judgements and most general clause types."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from tlpc.core import (
    Atom, Clause, Fun, NameSource, Param, Subst, TCon, Var, rename_apart, variant,
    vars_in_order, wrap_query,
)
from tlpc.parser import parse_clause, parse_program, parse_query
from tlpc.trees import derivations
from tlpc.typecheck import (
    UntypableError,
    is_typable,
    judge,
    most_general_type,
    most_general_type_wrt,
    typable_in_run,
)

from helpers import BENCH_PROGRAMS, SIG, programs_with_queries, typed_programs

X = Var("X")
INT = TCon("int")
A, B = Param("A"), Param("B")


def list_of(t):
    return TCon("list", (t,))


def test_judge_constant_against_expected_type(eqnil):
    sig = eqnil.signature
    assert judge({X: list_of(INT)}, Fun("nil"), list_of(INT), sig=sig) is None
    judge({}, Fun("nil"), list_of(A), sig=sig)
    with pytest.raises(UntypableError):
        judge({}, Fun("nil"), INT, sig=sig)


def test_judge_nested_term():
    t = Fun("cons", (Fun("1"), Fun("nil")))
    judge({}, t, list_of(INT), sig=SIG)
    with pytest.raises(UntypableError):
        judge({}, t, list_of(list_of(INT)), sig=SIG)
    # The expected type's parameters are rigid: [1] is not of type list(A).
    with pytest.raises(UntypableError):
        judge({}, t, list_of(A), sig=SIG)


def test_judge_variable_against_wrong_type(eqnil):
    judge({X: INT}, X, INT, sig=eqnil.signature)
    with pytest.raises(UntypableError):
        judge({X: INT}, X, list_of(INT), sig=eqnil.signature)


def test_judge_term_requires_expected_type(eqnil):
    with pytest.raises(ValueError):
        judge({}, Fun("nil"), sig=eqnil.signature)


def test_judge_atom_and_query(nest):
    sig = nest.signature
    judge({X: list_of(INT)}, Atom("p", (X,)), sig=sig)
    q = parse_query("r(X), p(X)", sig)
    judge({X: list_of(INT)}, q, sig=sig)
    with pytest.raises(UntypableError):
        judge({X: INT}, q, sig=sig)
    with pytest.raises(UntypableError, match="variable X has no type"):
        judge({}, q, sig=sig)


def test_judge_clause_and_program(nest, corpus):
    judge({X: list_of(INT)}, nest.clauses[0], sig=nest.signature)
    with pytest.raises(UntypableError):
        judge({X: INT}, nest.clauses[0], sig=nest.signature)
    for program in corpus.values():
        assert len(program.clause_typings) == len(program.clauses)


def test_most_general_type_wrt_fixed_int(eqnil):
    ct = most_general_type_wrt({X: list_of(INT)}, eqnil.clauses[0],
                               eqnil.signature)
    assert ct.types == (list_of(INT), list_of(INT), list_of(A), list_of(A))
    assert ct.atom_types == ((), ct.types[:2], ct.types[2:])
    assert ct.variable_typing == {X: list_of(INT)}
    # Same tuple as with any other fresh-parameter letter.
    assert variant(ct.types,
                         (list_of(INT), list_of(INT), list_of(B), list_of(B)))


def test_most_general_type_wrt_untypable(eqnil):
    with pytest.raises(UntypableError):
        most_general_type_wrt({X: INT}, eqnil.clauses[0], eqnil.signature)


def test_most_general_type_wrt_empty_typing(hqpr):
    fact = hqpr.clauses[1]
    ct = most_general_type_wrt({}, fact, hqpr.signature)
    assert ct.types == (list_of(A),)


def test_most_general_type_wrt_keeps_given_parameters(nest):
    u = {X: list_of(Param("V"))}
    ct = most_general_type_wrt(u, nest.clauses[1], nest.signature)
    # X is the element of the head list, so the head type mentions V.
    assert ct.types == (list_of(list_of(Param("V"))), list_of(Param("V")))
    assert ct.variable_typing == u


def test_most_general_type_of_equation_clause(eqnil):
    ct = most_general_type(eqnil.clauses[0], eqnil.signature)
    assert ct.variable_typing == {X: list_of(A)}
    assert ct.types == (list_of(A), list_of(A), list_of(B), list_of(B))
    assert ct.atom_types == ((), ct.types[:2], ct.types[2:])


def test_most_general_type_of_append_fact(append):
    ct = most_general_type(append.clauses[0], append.signature)
    assert ct.types == (list_of(A), list_of(A), list_of(A))
    assert ct.variable_typing == {Var("Ys"): list_of(A)}


def test_most_general_type_of_nesting_clause(nest):
    ct = most_general_type(nest.clauses[1], nest.signature)
    assert ct.types == (list_of(list_of(A)), list_of(A))
    assert ct.atom_types == ((list_of(list_of(A)),), (list_of(A),))


def test_most_general_type_untypable_clause(append):
    c = parse_clause("r([[1]]).", append.signature)
    with pytest.raises(UntypableError):
        most_general_type(c, append.signature)


def test_most_general_type_is_deterministic(corpus):
    for program in corpus.values():
        for c in program.clauses:
            assert most_general_type(c, program.signature) == \
                most_general_type(c, program.signature)


def test_is_typable(nest):
    sig = nest.signature
    assert is_typable(parse_query("r(Y)", sig), sig)
    assert not is_typable(parse_query("p([[Y]])", sig), sig)
    assert is_typable((), sig)


def test_untypable_error_names_subject(nest):
    sig = nest.signature
    with pytest.raises(UntypableError) as exc:
        judge({X: INT}, Atom("p", (X,)), sig=sig)
    assert "X" in str(exc.value)


NAT = "kind nat/0. func z : nat. func s(nat) : nat. pred n(nat). n(z). n(s(X)) :- n(X)."


def test_typing_deep_terms_does_not_recurse():
    sig = parse_program(NAT).signature
    nat = TCon("nat")
    open_term, ground_term = X, Fun("z")
    for _ in range(5000):
        open_term, ground_term = Fun("s", (open_term,)), Fun("s", (ground_term,))
    atom = Atom("n", (open_term,))
    assert most_general_type(wrap_query((atom,)), sig).variable_typing == {X: nat}
    judge({}, ground_term, nat, sig=sig)
    memo: dict = {}
    assert typable_in_run((atom,), sig, memo)
    assert typable_in_run((Atom("=", (ground_term, X)),), sig, memo)
    assert memo[ground_term] == nat  # typed once, by its principal type
    assert typable_in_run((Atom("=", (open_term, ground_term)),), sig, memo)
    with pytest.raises(UntypableError):
        judge({X: list_of(nat)}, open_term, nat, sig=sig)


# ------------------------------------------------------ renaming invariance

def _assert_typing_follows_renaming(program, ns):
    """A renamed copy of a clause has the clause's atom types, and the
    clause's variable typing carried over through the renaming: what lets
    a skeleton node read its clause's typing by clause index."""
    for c, ct in zip(program.clauses, program.clause_typings):
        copy = rename_apart(c, ns)
        got = most_general_type(copy, program.signature)
        renaming = dict(zip(vars_in_order(c), vars_in_order(copy)))
        assert got.atom_types == ct.atom_types, c
        assert got.variable_typing == {renaming[v]: t for v, t in ct.variable_typing.items()}, c


def test_typing_follows_renaming(corpus):
    ns = NameSource()
    bench = [parse_program(p.read_text()) for p in sorted(BENCH_PROGRAMS.glob("*.tlp"))]
    for program in list(corpus.values()) + bench:
        _assert_typing_follows_renaming(program, ns)


def test_typing_follows_renaming_on_random_programs():
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(typed_programs())
    def check(program):
        _assert_typing_follows_renaming(program, NameSource())

    check()


# ------------------------------------- query typings with principal types

LISTS = """kind list/1. kind int/0. func nil : list(U). func cons(U, list(U)) : list(U).
pred p(U, int). pred q(list(U), U)."""


def test_typable_in_run_types_each_ground_subterm_where_it_stands():
    # p([], X) and p(X, []) are one atom up to renaming and ground
    # subterms, with the ground [] at different places: the []'s principal
    # type, reused from the memo, must meet the argument type of its place.
    sig = parse_program(LISTS).signature
    memo: dict = {}
    assert typable_in_run(parse_query("p([], X)", sig), sig, memo)
    assert not typable_in_run(parse_query("p(X, [])", sig), sig, memo)
    assert not is_typable(parse_query("p(X, [])", sig), sig)


def test_typable_in_run_renames_principal_types_apart():
    # Both []s have principal type list(A); q(list(U), U) needs the first
    # to be list(list(B)) and the second list(B), which one shared A would
    # make cyclic.
    sig = parse_program(LISTS).signature
    assert typable_in_run(parse_query("q([], [])", sig), sig, {})
    assert typable_in_run(parse_query("q([[]], [])", sig), sig, {})
    assert not typable_in_run(parse_query("q([1], [])", sig), sig, {})


def test_typable_in_run_untypable_ground_subterm():
    sig = parse_program(LISTS).signature
    for text in ("p([1, []], X)", "q(X, [1, []])"):
        q = parse_query(text, sig)
        assert not typable_in_run(q, sig, {}) and not is_typable(q, sig), text


def test_verdict_only_typing_resolves_no_binding(monkeypatch):
    # judge and typable_in_run keep only the verdict, so no binding of the
    # solver's Subst is read; a clause typing reads them all.
    resolved = []
    resolve = Subst._resolve
    monkeypatch.setattr(Subst, "_resolve", lambda self, keys: resolved.append(keys) or resolve(self, keys))
    sig = parse_program(LISTS).signature
    q = parse_query("q([X, Y], Z), p(Z, 1)", sig)
    assert typable_in_run(q, sig, {})
    judge({v: A for v in vars_in_order(q)}, q, sig=sig)
    assert resolved == []
    most_general_type(wrap_query(q), sig)
    assert resolved


def test_typable_in_run_matches_is_typable_on_random_queries():
    verdicts = set()

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(programs_with_queries())
    def check(drawn):
        program, texts = drawn
        memo: dict = {}  # shared by the queries, as by one run's derived queries
        for text in texts:
            q = parse_query(text, program.signature)
            want = is_typable(q, program.signature)
            assert typable_in_run(q, program.signature, memo) == want, (program, text)
            verdicts.add(want)

    check()
    assert verdicts == {True, False}


def test_typable_in_run_matches_is_typable_on_derived_queries(corpus):
    bench = [parse_program(p.read_text()) for p in sorted(BENCH_PROGRAMS.glob("*.tlp"))]
    checked = 0
    for program in list(corpus.values()) + bench:
        sig = program.signature
        memo: dict = {}
        for pred, decl in sig.preds.items():
            args = ", ".join(f"V{i}" for i in range(len(decl.arg_types)))
            q = parse_query(f"{pred}({args})" if args else pred, sig)
            for d in derivations(program, q, 4, "all"):
                if d.steps:
                    assert typable_in_run(d.final, sig, memo) == is_typable(d.final, sig), \
                        (program, d.final)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("atom, message", [
    (Atom("r", (Fun("f"),)), "function f not declared"),
    (Atom("r", (Fun("nil", (X,)),)), "function nil/0 used with 1 arguments"),
    (Atom("r", (Fun("1"),)), "integer literals require kind int/0"),
    (Atom("s", (X,)), "predicate s not declared"),
    (Atom("r", (X, X)), "predicate r/1 used with 2 arguments"),
], ids=["function", "function-arity", "int-literal", "predicate", "predicate-arity"])
def test_untypable_terms_and_atoms_built_without_the_parser(hqpr, atom, message):
    # The parser rejects all of these; values built directly reach the
    # typing rules, whose own checks reject them.  hqpr declares no int.
    with pytest.raises(UntypableError, match=f"^{message}$"):
        most_general_type(Clause(Atom("h", (X,)), (atom,)), hqpr.signature)
    assert not is_typable((atom,), hqpr.signature)
