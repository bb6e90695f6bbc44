"""Syntax-layer behaviour: parameter/variable collection, substitutions,
renaming, and signature validation."""
from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlpc.core import (
    Atom,
    Clause,
    EQ_CLAUSE,
    EQ_CLAUSE_INDEX,
    Fun,
    FuncDecl,
    NameSource,
    Param,
    PredDecl,
    Signature,
    Subst,
    TCon,
    Var,
    apply_subst,
    canonical_param_map,
    rename_apart,
    resolution_clauses,
    validate_signature,
    variant,
    vars_in_order,
    vars_of,
    wrap_query,
)
from tlpc.parser import parse_query, parse_term
from tlpc.unify import mgu_types

from helpers import (
    raw_terms, reference_depth, reference_ground, reference_hash_key, reference_variant,
    typed_programs, types_st,
)

U = Param("U")
V = Param("V")
INT = TCon("int")


def list_of(t):
    return TCon("list", (t,))


def t_of(t):
    return TCon("t", (t,))


def test_pars_of_types():
    assert vars_of(list_of(U)) == {U}
    assert vars_of(INT) == set()
    assert vars_of((list_of(U), TCon("pair", (U, V)))) == {U, V}


def test_vars_of_atom(append):
    q = parse_query("app(Xs, [], Zs)", append.signature)
    assert vars_of(q[0]) == {Var("Xs"), Var("Zs")}


def test_apply_type_subst():
    assert apply_subst(list_of(U), {U: INT}) == list_of(INT)
    assert apply_subst(U, {}) == U
    assert apply_subst(list_of(U), {V: INT}) == list_of(U)


def test_type_subst_compose_agrees_with_sequencing():
    th1 = Subst({U: list_of(V)})
    th2 = Subst({V: INT})
    # Composition solves both substitutions' bindings as one equation set.
    both = mgu_types(list(th1.items()) + list(th2.items()))
    for ty in (U, V, list_of(U), TCon("pair", (U, V))):
        assert both.apply(ty) == th2.apply(th1.apply(ty))


def test_type_subst_idempotent_on_application():
    th = Subst({U: list_of(V)})
    ty = TCon("pair", (U, list_of(U)))
    assert th.apply(th.apply(ty)) == th.apply(ty)


def test_type_subst_rejects_nonidempotent():
    with pytest.raises(ValueError):
        Subst({U: list_of(U)})


def test_type_subst_drops_identity_bindings():
    assert len(Subst({U: U})) == 0


def test_apply_term_subst(hqpr):
    sig = hqpr.signature
    p_x = parse_query("p(X)", sig)[0]
    assert apply_subst(p_x, {Var("X"): Fun("nil")}) == \
        parse_query("p([])", sig)[0]
    assert apply_subst(Var("X"), {}) == Var("X")
    got = apply_subst(parse_term("[X|Y]", sig), {Var("X"): Fun("nil")})
    assert got == parse_term("[[]|Y]", sig)


def test_term_subst_is_simultaneous():
    x, y = Var("X"), Var("Y")
    with pytest.raises(ValueError):
        Subst({x: y, y: Fun("nil")})
    th = Subst({x: Fun("cons", (y, Fun("nil")))})
    assert th.apply(th.apply(x)) == th.apply(x)


def test_rename_apart_consistent(nest):
    ns = NameSource()
    c = nest.clauses[0]  # p(X) :- r(X).
    copy = rename_apart(c, ns)
    assert copy.head.args[0] == copy.body[0].args[0]
    assert copy.head.args[0] != c.head.args[0]
    assert variant(copy, c)


def test_rename_apart_keeps_sharing(append):
    ns = NameSource()
    copy = rename_apart(append.clauses[0], ns)  # app([], Ys, Ys).
    assert copy.head.args[1] == copy.head.args[2]


def test_rename_apart_ground_fact(append):
    ns = NameSource()
    fact = append.clauses[2]  # r([1]).
    assert rename_apart(fact, ns) == fact


def test_rename_apart_never_reuses_names(nest):
    ns = NameSource()
    seen = set()
    for _ in range(20):
        copy = rename_apart(nest.clauses[1], ns)
        new = vars_of(copy)
        assert not (new & seen)
        seen |= new


def test_rename_apart_invertible(nest):
    ns = NameSource()
    c = nest.clauses[1]
    copy = rename_apart(c, ns)
    pairs = dict(zip(sorted(vars_of(copy), key=lambda v: (v.name, v.idx)),
                     sorted(vars_of(c), key=lambda v: (v.name, v.idx))))
    assert apply_subst(copy, pairs) == c


def _check_fresh_copy(obj, ns):
    copy = rename_apart(obj, ns)
    assert variant(copy, obj)
    assert not vars_of(copy) & vars_of(obj)
    assert [v.name for v in vars_in_order(copy)] == [v.name for v in vars_in_order(obj)]
    return copy


@settings(max_examples=200, derandomize=True, deadline=None)
@given(types_st(max_leaves=6))
def test_rename_apart_types(t):
    ns = NameSource()
    _check_fresh_copy(_check_fresh_copy(t, ns), ns)


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
@given(typed_programs())
def test_rename_apart_clause_typings(program):
    # A clause's atom types with its variable typing, whose keys stay.
    ns = NameSource()
    for ct in program.clause_typings:
        pair = (ct.atom_types, ct.variable_typing)
        _check_fresh_copy(_check_fresh_copy(pair, ns), ns)


# Terms, types and atoms over few variables and parameters, so they share
# them; a tuple of an atom and a type mixes the two levels.
_SYNTAX = st.one_of(
    raw_terms(), types_st(),
    st.builds(lambda s, t: Atom("p", (s, t)), raw_terms(), raw_terms()),
    st.builds(lambda s, t: (Atom("q", (s,)), t), raw_terms(), types_st()),
)


@st.composite
def _variant_pairs(draw):
    a = draw(_SYNTAX)
    if draw(st.booleans()):
        return a, draw(_SYNTAX)
    # A renaming onto few names per level, so not always a bijection.
    ren = {v: type(v)(draw(st.sampled_from("XAY")), draw(st.integers(0, 1)))
           for v in vars_in_order(a)}
    return a, apply_subst(a, ren)


def test_variant_matches_a_parallel_walk():
    verdicts = set()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_variant_pairs())
    def check(pair):
        a, b = pair
        assert variant(a, b) == variant(b, a) == reference_variant(a, b), pair
        verdicts.add(variant(a, b))

    check()
    assert verdicts == {True, False}


def test_canonical_types_first_occurrence_order():
    ty = (TCon("pair", (V, U)), V)
    assert apply_subst(ty, canonical_param_map(ty)) == (TCon("pair", (Param("A"), Param("B"))),
                                                         Param("A"))
    assert variant(ty, (TCon("pair", (U, V)), U))
    assert not variant((U, U), (U, V))
    # Canonical renamings whose range meets their domain: {B: A, C: B}.
    a, b, c = Param("A"), Param("B"), Param("C")
    assert variant((b, c), (U, V))
    assert variant((b, a), (a, b))


def test_validate_signature_accepts_transparent_funcs():
    sig = Signature()
    sig.declare_kind("t", 1)
    sig.declare_kind("int", 0)
    sig.declare_func(FuncDecl("g", (U,), t_of(U)))
    sig.declare_func(FuncDecl("f", (t_of(t_of(U)),), t_of(U)))
    assert validate_signature(sig).passed


def test_validate_signature_rejects_transparency_violation():
    sig = Signature()
    sig.declare_kind("int", 0)
    sig.declare_func(FuncDecl("h", (U,), INT))
    rep = validate_signature(sig)
    assert not rep.passed
    assert rep.findings[0].condition == "transparency"


def test_validate_signature_rejects_unknown_constructor_and_arity():
    sig = Signature()
    sig.declare_kind("list", 1)
    sig.declare_func(FuncDecl("c", (), TCon("tree", ())))
    sig.declare_pred(PredDecl("p", (TCon("list", ()),)))
    conditions = {f.condition for f in validate_signature(sig).findings}
    assert conditions == {"unknown-constructor", "constructor-arity"}


def test_duplicate_declarations_rejected():
    sig = Signature()
    sig.declare_kind("int", 0)
    with pytest.raises(ValueError):
        sig.declare_kind("int", 1)
    sig.declare_pred(PredDecl("p", ()))
    with pytest.raises(ValueError):
        sig.declare_pred(PredDecl("p", (INT,)))
    with pytest.raises(ValueError):
        sig.declare_pred(PredDecl("=", (INT, INT)))


def test_corpus_signatures_validate(corpus):
    for name, program in corpus.items():
        assert validate_signature(program.signature).passed, name


def test_transparency_mutation_rejected(fgs1):
    sig = Signature()
    sig.kinds.update(fgs1.signature.kinds)
    sig.funcs.update(fgs1.signature.funcs)
    # Forget the result-type parameter of g: t(U) becomes t(int).
    sig.funcs["g"] = FuncDecl("g", (U,), t_of(INT))
    rep = validate_signature(sig)
    assert any(f.condition == "transparency" for f in rep.findings)


def test_wrap_query_and_resolution_clauses(hqpr):
    q = parse_query("h(X)", hqpr.signature)
    wrapper = wrap_query(q)
    assert wrapper.head == Atom("go")
    assert wrapper.body == q
    listed = resolution_clauses(hqpr)
    assert listed[:3] == list(enumerate(hqpr.clauses))
    assert listed[-1] == (EQ_CLAUSE_INDEX, EQ_CLAUSE)
    assert EQ_CLAUSE == Clause(Atom("=", (Var("X"), Var("X"))))


# ------------------------------------------------ cached application fields

def _subterms(t):
    """Every subterm of t with its path of argument positions."""
    stack = [(t, ())]
    while stack:
        s, path = stack.pop()
        yield s, path
        if isinstance(s, (Fun, TCon)):
            stack.extend((a, path + (i,)) for i, a in enumerate(s.args))


def _at(t, path):
    for i in path:
        t = t.args[i]
    return t


def _rebuilt(t):
    """A structurally equal copy of t made of new application objects."""
    if isinstance(t, (Fun, TCon)):
        return type(t)(t.name, tuple(_rebuilt(a) for a in t.args))
    return t


_BIG_TERMS = raw_terms(max_leaves=12)
_BIG_TYPES = types_st(max_leaves=12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(_BIG_TERMS, _BIG_TYPES))
def test_cached_fields_match_a_recursive_reference(t):
    for s, _ in _subterms(t):
        assert s.ground == reference_ground(s)
        assert s.depth == reference_depth(s)
        assert hash(s) == hash(reference_hash_key(s))
    twin = _rebuilt(t)
    assert twin == t and hash(twin) == hash(t)
    if isinstance(t, (Fun, TCon)):
        assert twin is not t


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(_BIG_TERMS, _BIG_TYPES))
def test_apply_subst_shares_ground_subterms(t):
    theta = {v: Fun("pr", (Var("Y"), Fun("1"))) if isinstance(v, Var) else list_of(v)
             for v in vars_of(t)}
    out = apply_subst(t, theta)
    for s, path in _subterms(t):
        if s.ground:
            assert _at(out, path) is s


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw_terms(max_leaves=3), raw_terms(max_leaves=3))
def test_application_equality_is_structural(a, b):
    same = reference_hash_key(a) == reference_hash_key(b)
    assert (a == b) == same and (a != b) != same
    if same:
        assert hash(a) == hash(b)


def test_applications_are_immutable_and_levels_never_meet():
    t = Fun("f", (Var("X"), Fun("a")))
    for field in ("name", "args", "ground", "depth"):
        with pytest.raises(AttributeError):
            setattr(t, field, None)
        with pytest.raises(AttributeError):
            delattr(t, field)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t == Fun("f", (Var("X"), Fun("a")))
    assert Fun("a") != TCon("a") and TCon("a") != Fun("a")
    assert Fun("f", (Fun("a"),)) != TCon("f", (TCon("a"),))
    assert Var("A") != Param("A")
    assert len({Fun("a"), TCon("a")}) == 2
    with pytest.raises(AttributeError):
        Var("X").name = "Y"
    for x in (t, Var("X", 3), list_of(Param("U", 2)), Atom("p", (t,))):
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
