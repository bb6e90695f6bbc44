"""Unification at both levels, typed substitutions, and the oriented
sufficient unifiability test (`helpers.ordered_unifiable`, which only the
tests use)."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlpc.core import Atom, Fun, Param, Subst, TCon, Var, apply_subst
from tlpc.parser import parse_query, parse_term
from tlpc.typecheck import is_typed_substitution
from tlpc.unify import (
    UnificationError,
    match_terms,
    mgu_terms,
    mgu_types,
)

from helpers import eager_mgu, ordered_unifiable, time_limit

X, Y = Var("X"), Var("Y")
U = Param("U")
INT = TCon("int")


def list_of(t):
    return TCon("list", (t,))


def test_mgu_terms_interface_equations(hqpr):
    sig = hqpr.signature
    x1, x2 = Var("X", 1), Var("X", 2)
    eqs = [(Atom("q", (x1,)), parse_query("q([])", sig)[0]),
           (Atom("p", (x1,)), Atom("p", (x2,)))]
    theta = mgu_terms(eqs)
    assert theta.apply(x1) == Fun("nil")
    assert theta.apply(x2) == Fun("nil")
    assert set(theta) == {x1, x2}


# Without the occur check these unifications never end, so they run under
# a time limit.
def test_mgu_terms_occur_check():
    nil = Fun("nil")
    with time_limit(5), pytest.raises(UnificationError) as exc:
        mgu_terms([(X, Fun("cons", (X, nil)))])
    assert exc.value.kind == "occur"
    # X occurs in Y's binding only through the binding of X.
    with time_limit(5), pytest.raises(UnificationError) as exc:
        mgu_terms([(X, Fun("cons", (Y, nil))), (Y, Fun("cons", (X, nil)))])
    e = exc.value
    assert (e.kind, e.index) == ("occur", 1)
    assert (e.left, e.right) == (Y, Fun("cons", (Fun("cons", (Y, nil)), nil)))


def test_unification_error_shows_the_equation_with_the_bindings_applied():
    # The sides and the message are built when first read, from the
    # bindings made before the clash.
    a = Fun("a")
    with pytest.raises(UnificationError) as exc:
        mgu_terms([(X, Fun("f", (Y,))), (Y, a), (X, Fun("g"))])
    e = exc.value
    assert (e.kind, e.index) == ("clash", 2)
    assert str(e) == "clash: f(a) = g (equation 3)"
    assert (e.left, e.right) == (Fun("f", (a,)), Fun("g"))


def test_mgu_terms_decomposition():
    theta = mgu_terms([(Fun("cons", (X, Fun("nil"))),
                        Fun("cons", (Fun("1"), Y)))])
    assert theta.apply(X) == Fun("1")
    assert theta.apply(Y) == Fun("nil")


def test_mgu_terms_solves_equations(append):
    sig = append.signature
    l = parse_term("[X|Xs]", sig)
    r = parse_term("[1, 2]", sig)
    theta = mgu_terms([(l, r)])
    assert theta.apply(l) == theta.apply(r) == r


def test_mgu_terms_clash_reports_equation():
    with pytest.raises(UnificationError) as exc:
        mgu_terms([(X, X), (Fun("nil"), Fun("1"))])
    assert exc.value.kind == "clash"
    assert exc.value.index == 1


def test_mgu_types_binds_parameter():
    u2 = Param("U", 2)
    theta = mgu_types([(list_of(INT), list_of(u2))])
    assert dict(theta) == {u2: INT}


def test_mgu_types_clash():
    with pytest.raises(UnificationError) as exc:
        mgu_types([(INT, list_of(U))])
    assert exc.value.kind == "clash"


def test_mgu_types_occur_check():
    with time_limit(5), pytest.raises(UnificationError) as exc:
        mgu_types([(U, list_of(U))])
    assert exc.value.kind == "occur"


def test_mgu_types_rigid_parameters_act_as_constants():
    v = Param("V")
    assert mgu_types([(U, v)], rigid=(v,)).apply(U) == v
    with pytest.raises(UnificationError):
        mgu_types([(list_of(U), v)], rigid=(v,))
    with pytest.raises(UnificationError):
        mgu_types([(U, v)], rigid=(U, v))


def test_mgu_is_idempotent():
    theta = mgu_terms([(X, Fun("cons", (Y, Fun("nil")))), (Y, Fun("1"))])
    for v in (X, Y):
        assert theta.apply(theta.apply(v)) == theta.apply(v)


def test_match_is_one_sided():
    pat = Fun("cons", (X, Y))
    tgt = Fun("cons", (Fun("1"), Fun("nil")))
    assert match_terms(pat, tgt) == {X: Fun("1"), Y: Fun("nil")}
    assert match_terms(tgt, pat) is None
    assert match_terms(list_of(U), list_of(INT)) == {U: INT}
    assert match_terms(list_of(INT), list_of(U)) is None


def test_is_typed_substitution(append):
    sig = append.signature
    u = {X: list_of(INT)}
    assert is_typed_substitution(Subst({X: Fun("nil")}), u, sig)
    assert not is_typed_substitution(Subst({X: Fun("1")}), u, sig)
    assert is_typed_substitution(Subst({}), u, sig)


def test_ordered_unifiable_empty():
    assert ordered_unifiable([]) == "guaranteed"


def test_ordered_unifiable_shared_rhs_variable():
    eqs = [(Fun("f1", (Fun("nil"),)), X), (Fun("f1", (Fun("1"),)), X)]
    assert ordered_unifiable(eqs) == "unknown"


def test_ordered_unifiable_instance_chain():
    eqs = [(Fun("cons", (Fun("1"), Fun("nil"))), Fun("cons", (X, Y))),
           (Fun("nil"), Var("Z"))]
    assert ordered_unifiable(eqs) == "guaranteed"
    assert mgu_terms(eqs) is not None


def test_ordered_unifiable_non_instance():
    assert ordered_unifiable([(X, Fun("nil"))]) == "unknown"


def test_ordered_unifiable_cycle():
    # Each right side feeds the other equation's left side.
    eqs = [(Fun("cons", (Y, Fun("nil"))), Fun("cons", (X, Fun("nil")))),
           (Fun("cons", (X, Fun("nil"))), Fun("cons", (Y, Fun("nil"))))]
    assert ordered_unifiable(eqs) == "unknown"


def test_ordered_unifiable_type_level():
    u1, u2 = Param("U", 1), Param("U", 2)
    eqs = [(list_of(INT), list_of(u1)), (u1, u2)]
    assert ordered_unifiable(eqs) == "guaranteed"


def test_type_subst_composition_factors():
    # A unifier of the pair below must factor through the mgu.
    eqs = [(list_of(U), list_of(Param("V")))]
    theta = mgu_types(eqs)
    other = Subst({U: INT, Param("V"): INT})
    pack = lambda s: TCon("pr", (s.apply(U), s.apply(Param("V"))))
    assert match_terms(pack(theta), pack(other)) is not None


# ------------------------------- differential test against the reference

differential = settings(max_examples=300, derandomize=True, deadline=None)

_VARS = [Var("X"), Var("Y"), Var("Z", 1), Var("Z", 2)]
_PARAMS = [Param(n) for n in "ABCD"]


def _terms():
    return st.recursive(
        st.sampled_from(_VARS + [Fun("nil")]),
        lambda sub: st.one_of(
            st.builds(lambda a, b: Fun("cons", (a, b)), sub, sub),
            st.builds(lambda a: Fun("s", (a,)), sub),
        ),
        max_leaves=4,
    )


def _types():
    return st.recursive(
        st.sampled_from(_PARAMS + [INT]),
        lambda sub: st.one_of(
            st.builds(list_of, sub),
            st.builds(lambda s, t: TCon("pair", (s, t)), sub, sub),
        ),
        max_leaves=4,
    )


@st.composite
def _equations(draw, trees, alphabet):
    """Equations between random trees; about half pair a tree with an
    instance of itself, so that many systems are solvable."""
    eqs = []
    for _ in range(draw(st.integers(1, 4))):
        left = draw(trees)
        if draw(st.booleans()):
            eqs.append((left, draw(trees)))
        else:
            inst = draw(st.dictionaries(st.sampled_from(alphabet), trees, min_size=1, max_size=2))
            eqs.append((apply_subst(left, inst), left))
    if alphabet is _VARS and draw(st.booleans()):
        eqs = [(Atom("p", (l,)), Atom("p", (r,))) for l, r in eqs]
    return eqs


def _outcome(solve, eqs, **kw):
    try:
        return solve(eqs, **kw)
    except UnificationError as e:
        return (e.kind, e.index, e.left, e.right)


def _assert_same(got, want):
    assert got == want
    if not isinstance(got, tuple):
        assert list(got.items()) == list(want.items())
        for v in got:
            assert got.apply(got[v]) == got[v]


@differential
@given(eqs=_equations(_terms(), _VARS))
def test_mgu_terms_matches_reference(eqs):
    _assert_same(_outcome(mgu_terms, eqs), _outcome(eager_mgu, eqs))


@differential
@given(eqs=_equations(_types(), _PARAMS),
       rigid=st.sets(st.sampled_from(_PARAMS), max_size=2))
def test_mgu_types_matches_reference(eqs, rigid):
    _assert_same(_outcome(mgu_types, eqs, rigid=rigid),
                 _outcome(eager_mgu, eqs, rigid=rigid))


_CHAIN = [Var("V", i) for i in range(8)]


@st.composite
def _chains(draw):
    """Solvable equations V_i = t_i, each t_i over the later variables only,
    in a random order: their bindings form chains up to 7 long."""
    eqs = [(v, draw(st.recursive(
        st.sampled_from(_CHAIN[i + 1:] + [Fun("nil")]),
        lambda sub: st.builds(lambda a, b: Fun("cons", (a, b)), sub, sub), max_leaves=3)))
        for i, v in enumerate(_CHAIN[:-1])]
    return draw(st.permutations(eqs))


@differential
@given(eqs=st.one_of(_equations(_terms(), _VARS), _chains()),
       rnd=st.randoms(use_true_random=False))
def test_lazy_subst_reads_keys_in_any_order(eqs, rnd):
    # The solver's Subst resolves each key on first read: reading the keys
    # one at a time, in a random order, gives the whole resolved map.
    try:
        theta, whole = mgu_terms(eqs), mgu_terms(eqs)
    except UnificationError:
        return
    keys = list(theta)
    rnd.shuffle(keys)
    one_by_one = {v: theta[v] for v in keys}
    assert one_by_one == dict(whole.items()) == dict(eager_mgu(eqs).items())
    assert list(theta.items()) == list(whole.items())


def test_mgu_resolves_long_term_chains():
    # X_i = f(X_{i+1}): the solution binds X_i to f nested 2999 - i deep
    # around the last variable, each resolved value read without recursion.
    xs = [Var("X", i) for i in range(3000)]
    theta = mgu_terms((a, Fun("f", (b,))) for a, b in zip(xs, xs[1:]))
    assert len(theta) == len(xs) - 1
    for i, x in enumerate(xs[:-1]):
        t, depth = theta[x], 0
        while isinstance(t, Fun):
            assert t.name == "f" and len(t.args) == 1
            t, depth = t.args[0], depth + 1
        assert (t, depth) == (xs[-1], len(xs) - 1 - i)


def test_mgu_resolves_long_binding_chains():
    xs = [Var("X", i) for i in range(3000)]
    eqs = [(a, b) for a, b in zip(xs, xs[1:])] + [(xs[-1], Fun("nil"))]
    theta = mgu_terms(eqs)
    assert all(theta[x] == Fun("nil") for x in xs)
