"""Release-gate checks.

Criteria 1-6 pin down the worked examples end to end: inferred clause
types, skeleton properness and most general derivation trees, the bounded
static check against the runtime monitor, the append and semi-genericity
case studies, and the f/g/s program family.  Criterion 7 re-validates the
core guarantees on randomized and exhaustively enumerated inputs, with
brute-force oracles where one exists.  The conftest summarizer turns the
markers into one pass/fail line per criterion.
"""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tlpc.cli import main
from tlpc.core import (
    Atom,
    EQ_CLAUSE_INDEX,
    Fun,
    GO_CLAUSE_INDEX,
    NameSource,
    Param,
    Subst,
    TCon,
    Var,
    apply_subst,
    vars_of,
)
from tlpc.parser import parse_query, parse_term, render
from tlpc.srcheck import (
    check_head_condition,
    check_semi_generic,
    label,
    make_partition,
    monitored_answers,
    search_partition,
    subject_reduction,
    subject_reduction_counterexamples,
    type_skeleton_of,
)
from tlpc.trees import (
    BOTTOM,
    Skeleton,
    answers,
    atom_depth,
    derivations,
    enumerate_proof_skeletons,
    enumerate_skeletons,
    frontier,
    ground_terms,
    head_atom,
    height,
    int_literals,
    is_proper_skeleton,
    most_general_derivation_tree,
    node_atoms,
    rename_apart,
    same_shape,
    skeleton_of,
    tp_fixpoint,
)
from tlpc.typecheck import (
    is_typable, is_typed_substitution, judge, most_general_type, most_general_type_wrt,
)
from tlpc.unify import (
    UnificationError,
    match_terms,
    mgu_terms,
    mgu_types,
)

from helpers import (
    CORPUS_QUERIES,
    EXTRA_QUERIES,
    INT,
    SIG,
    complete_node_count,
    corpus_path,
    corpus_query,
    free_vars,
    ground_subst_st,
    ground_trees,
    match_onto,
    ordered_unifiable,
    raw_equations,
    raw_terms,
    subst_ground,
    types_st,
    variant_queries,
    wt_equations,
    wt_term,
)

A, B = Param("A"), Param("B")


def list_of(t):
    return TCon("list", (t,))


def proper_skeletons(program, text, depth):
    q = parse_query(text, program.signature)
    for s in enumerate_skeletons(program, q, depth):
        if is_proper_skeleton(s) is not None:
            yield s


randomized = settings(max_examples=200, derandomize=True, deadline=None,
                      suppress_health_check=(HealthCheck.filter_too_much,))


# ---------------------------------------------------- criterion 1: typing

@pytest.mark.criterion(1)
def test_most_general_clause_type(eqnil):
    ct = most_general_type(eqnil.clauses[0], eqnil.signature)
    assert ct.types == (list_of(A), list_of(A), list_of(B), list_of(B))
    assert ct.atom_types == ((), ct.types[:2], ct.types[2:])
    assert ct.variable_typing == {Var("X"): list_of(A)}


@pytest.mark.criterion(1)
def test_most_general_clause_type_wrt_typing(eqnil):
    ct = most_general_type_wrt({Var("X"): list_of(INT)},
                               eqnil.clauses[0], eqnil.signature)
    assert ct.types == (list_of(INT), list_of(INT), list_of(A), list_of(A))


@pytest.mark.criterion(1)
def test_cli_infer_reports_clause_types(capsys):
    assert main(["infer", corpus_path("eqnil")]) == 0
    out = capsys.readouterr().out
    assert "clause 1: (list(A), list(A), list(B), list(B))" in out


# -------------------------------------------- criterion 2: skeleton trees

def two_level_skeleton(hqpr):
    ns = NameSource()
    return Skeleton(hqpr.clauses[0], 0,
                    (Skeleton(rename_apart(hqpr.clauses[1], ns), 1),
                     Skeleton(rename_apart(hqpr.clauses[2], ns), 2, (BOTTOM,))))


@pytest.mark.criterion(2)
def test_proper_skeleton_yields_most_general_tree(hqpr):
    s = two_level_skeleton(hqpr)
    assert is_proper_skeleton(s) is not None
    t = most_general_derivation_tree(s)
    nil = Fun("nil")
    assert node_atoms(t) == [Atom("h", (nil,)), Atom("q", (nil,)),
                             Atom("p", (nil,)), Atom("r", (nil,))]
    assert frontier(t) == (Atom("r", (nil,)),)
    assert skeleton_of(t) == s


@pytest.mark.criterion(2)
def test_enumeration_finds_the_two_level_skeleton(hqpr):
    q = parse_query("h(X)", hqpr.signature)
    target = two_level_skeleton(hqpr)
    hits = [s for s in enumerate_skeletons(hqpr, q, depth=2)
            if len(s.children) == 1 and same_shape(s.children[0], target)]
    assert len(hits) == 1


@pytest.mark.criterion(2)
def test_non_proper_skeleton_has_no_tree(append):
    bad = next(s for s in enumerate_skeletons(
        append, parse_query("r([])", append.signature), depth=1)
        if height(s) == 1)
    assert is_proper_skeleton(bad) is None
    assert most_general_derivation_tree(bad) is None


# ------------------------------- criterion 3: static check versus monitor

@pytest.mark.criterion(3)
def test_bounded_check_fails_monitor_passes(nest):
    q = parse_query("p(X)", nest.signature)
    static = subject_reduction(nest, q, depth=4, bounded=True)[0]
    assert static.verdict == "fail"
    ces = list(subject_reduction_counterexamples(nest, q, depth=4))
    assert height(ces[0][0]) == 2
    assert monitored_answers(nest, q, depth=10)[0].passed


@pytest.mark.criterion(3)
def test_cli_sr_fails_while_run_passes(capsys):
    assert main(["sr", corpus_path("nest"), "--query", "p(X)",
                 "--depth", "4"]) == 1
    out = capsys.readouterr().out
    assert "counterexample skeleton:" in out
    assert main(["run", corpus_path("nest"), "--query", "p(X)",
                 "--depth", "10"]) == 0
    out = capsys.readouterr().out
    assert "derived queries typable: pass (up to depth 10)" in out


# --------------------------------------- criterion 4: append case study

APPEND_QUERY = "app(Xs, [], Zs), r(Xs)"


@pytest.mark.criterion(4)
def test_append_satisfies_head_condition(append):
    assert check_head_condition(append).passed


@pytest.mark.criterion(4)
def test_append_success_branch_type_skeleton(append):
    hit = next(s for s in proper_skeletons(append, APPEND_QUERY, 2)
               if len(s.children) == 2
               and s.children[0] is not BOTTOM
               and s.children[0].clause_index == 1
               and s.children[0].children[0] is not BOTTOM
               and s.children[1] is not BOTTOM)
    ts = type_skeleton_of(hit, append)
    assert label(ts) == ("go <- app(list(int), list(int), list(int)), "
                         "r(list(int))")
    theta = is_proper_skeleton(ts)
    assert theta is not None
    assert set(dict(theta).values()) == {INT}


@pytest.mark.criterion(4)
def test_append_bounded_check_passes(append, capsys):
    q = parse_query(APPEND_QUERY, append.signature)
    rep = subject_reduction(append, q, depth=5, bounded=True)[0]
    assert rep.passed and rep.depth_bound == 5
    assert main(["sr", corpus_path("append"), "--query", APPEND_QUERY,
                 "--depth", "5"]) == 0
    assert "pass" in capsys.readouterr().out


# ------------------------------------- criterion 5: semi-genericity

@pytest.mark.criterion(5)
def test_semigen_passes_only_the_relaxed_condition(semigen):
    assert not check_head_condition(semigen).passed
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    assert check_semi_generic(semigen, part).passed


@pytest.mark.criterion(5)
def test_partition_search_finds_markings(semigen, nestcount):
    assert search_partition(semigen).by_pred == {"p": ("h", "b"),
                                                 "q": ("h", "b")}
    assert search_partition(nestcount).by_pred == {"r": ("h", "b")}


@pytest.mark.criterion(5)
def test_semigen_two_fact_type_skeleton_proper(semigen):
    ns = NameSource()
    s = Skeleton(semigen.clauses[0], 0,
                 (Skeleton(rename_apart(semigen.clauses[1], ns), 1),
                  Skeleton(rename_apart(semigen.clauses[1], ns), 1)))
    assert is_proper_skeleton(s) is not None
    ts = type_skeleton_of(s, semigen)
    assert label(ts).startswith("p(")
    assert is_proper_skeleton(ts) is not None


@pytest.mark.criterion(5)
def test_non_semi_generic_query_is_reported(semigen):
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    q = parse_query("p(X, [Y|X])", semigen.signature)
    rep = check_semi_generic(semigen, part, queries=(q,))
    assert not rep.passed
    assert {f.clause for f in rep.findings} == {GO_CLAUSE_INDEX}


@pytest.mark.criterion(5)
def test_cli_check_semi_mode(capsys):
    assert main(["check", corpus_path("semigen"), "--mode", "semi"]) == 0
    out = capsys.readouterr().out
    assert "semi-generic: pass" in out
    assert "partition (search): p(h, b); q(h, b)" in out


# ------------------------------------- criterion 6: the f/g/s programs

@pytest.mark.criterion(6)
def test_fgs_head_condition_verdicts(fgs1, fgs2, fgs3):
    assert not check_head_condition(fgs1).passed
    assert not check_head_condition(fgs2).passed
    assert check_head_condition(fgs3).passed


@pytest.mark.criterion(6)
def test_fgs_partition_search_verdicts(fgs1, fgs2, fgs3):
    assert search_partition(fgs1) is None
    assert search_partition(fgs2) is None
    assert search_partition(fgs3) is not None


@pytest.mark.criterion(6)
def test_fgs1_computes_nested_applications(fgs1, capsys):
    q = parse_query("fgs1(2, Y)", fgs1.signature)
    got = answers(fgs1, q, depth=12)
    want = parse_term("f(f(g(g(c))))", fgs1.signature)
    assert [dict(a) for a in got] == [{Var("Y"): want}]
    assert main(["run", corpus_path("fgs1"), "--query", "fgs1(2, Y)",
                 "--depth", "12"]) == 0
    assert "answer: Y = f(f(g(g(c))))" in capsys.readouterr().out


# ------------------------------------ criterion 7: property suites

@pytest.mark.criterion(7)
@randomized
@given(data=st.data())
def test_prop_typing_survives_parameter_grounding(data):
    u, t, ty = data.draw(wt_term())
    theta = Subst(data.draw(ground_subst_st(
        vars_of(tuple(u.values())) | vars_of(ty))))
    ground_u = {v: theta.apply(s) for v, s in u.items()}
    # The expected type's parameters are rigid, so a derivable judgement
    # gives t exactly the type theta.apply(ty).
    judge(ground_u, t, theta.apply(ty), sig=SIG)


@pytest.mark.criterion(7)
@randomized
@given(data=st.data())
def test_prop_well_typed_equations_stay_judgeable(data):
    u, eqs = data.draw(wt_equations())
    judge(u, eqs, sig=SIG)
    theta = Subst(data.draw(ground_subst_st(vars_of(tuple(u.values())))))
    judge({v: theta.apply(s) for v, s in u.items()}, eqs, sig=SIG)


@pytest.mark.criterion(7)
@randomized
@given(data=st.data())
def test_prop_mgu_of_well_typed_equations_is_typed(data):
    u, eqs, extra = data.draw(wt_equations(max_eqs=2, extra_atom=True))
    try:
        theta = mgu_terms([(a.args[0], a.args[1]) for a in eqs])
    except UnificationError:
        assume(False)
    assert is_typed_substitution(theta, u, SIG)
    judge(u, apply_subst(eqs, theta), sig=SIG)
    judge(u, apply_subst(extra, theta), sig=SIG)


@pytest.mark.criterion(7)
@randomized
@given(eqs=raw_equations())
def test_prop_mgu_agrees_with_brute_force(eqs):
    from helpers import ground_universe, brute_ground_unifiers
    brute = brute_ground_unifiers(eqs, ground_universe(1), max_vars=2)
    try:
        theta = mgu_terms(eqs)
    except UnificationError:
        if brute is not None:
            assert brute == []
        return
    for l, r in eqs:
        assert theta.apply(l) == theta.apply(r)
    if brute:
        vs = sorted(free_vars(tuple(eqs)), key=lambda v: v.name)
        pattern = tuple(theta.apply(v) for v in vs)
        for binding in brute:
            target = tuple(subst_ground(v, binding) for v in vs)
            assert match_onto(pattern, target) is not None


def embed_type(ty):
    if isinstance(ty, Param):
        return Var(f"P_{ty.name}")
    return Fun(ty.name, tuple(embed_type(a) for a in ty.args))


@pytest.mark.criterion(7)
@randomized
@given(eqs=st.lists(st.tuples(types_st(), types_st()),
                    min_size=1, max_size=3))
def test_prop_type_unification_mirrors_term_unification(eqs):
    term_eqs = [(embed_type(l), embed_type(r)) for l, r in eqs]
    try:
        ty_theta = mgu_types(eqs)
    except UnificationError:
        with pytest.raises(UnificationError):
            mgu_terms(term_eqs)
        return
    t_theta = mgu_terms(term_eqs)
    for l, r in eqs:
        assert ty_theta.apply(l) == ty_theta.apply(r)
    ps = sorted(vars_of(tuple(x for eq in eqs for x in eq)),
                key=lambda p: p.name)
    via_types = Fun("pack", tuple(embed_type(ty_theta.apply(p)) for p in ps))
    via_terms = Fun("pack", tuple(t_theta.apply(embed_type(p)) for p in ps))
    assert match_terms(via_types, via_terms) is not None
    assert match_terms(via_terms, via_types) is not None


@pytest.mark.criterion(7)
def test_prop_properness_decides_most_general_tree(corpus):
    cases = proper_cases = 0
    for name, text in CORPUS_QUERIES + EXTRA_QUERIES:
        program, q = corpus_query(corpus, name, text)
        for s in enumerate_skeletons(program, q, depth=4):
            cases += 1
            theta = is_proper_skeleton(s)
            tree = most_general_derivation_tree(s)
            assert (theta is None) == (tree is None)
            if tree is not None:
                proper_cases += 1
                assert skeleton_of(tree) == s
    assert cases >= 200 and proper_cases >= 100


@pytest.mark.criterion(7)
def test_prop_most_general_tree_covers_ground_trees(corpus):
    decided = covered = 0
    for name, text in CORPUS_QUERIES:
        program, q = corpus_query(corpus, name, text)
        universe = sorted(ground_terms(program.signature, 1,
                                       int_literals(program)), key=repr)
        for s in enumerate_skeletons(program, q, depth=3):
            if complete_node_count(s) > 4:
                continue
            found = ground_trees(s, universe, max_free=2)
            if found is None:
                continue
            decided += 1
            tree = most_general_derivation_tree(s)
            if tree is None:
                assert found == []
                continue
            pattern = tuple(node_atoms(tree))
            for g in found:
                covered += 1
                assert match_onto(pattern, tuple(node_atoms(g))) is not None
    assert decided >= 40 and covered >= 5


@pytest.mark.criterion(7)
def test_prop_consequences_match_proof_tree_heads(corpus):
    for name in ("hqpr", "eqnil", "nestcount"):
        program = corpus[name]
        trees = []
        for s in enumerate_proof_skeletons(program, depth=4):
            if s.clause_index == EQ_CLAUSE_INDEX:
                continue
            t = most_general_derivation_tree(s)
            if t is not None:
                trees.append(t)
        for bound in range(4):
            want = tp_fixpoint(program, bound).atoms
            got = {head_atom(t) for t in trees
                   if all(not vars_of(a) and atom_depth(a) <= bound
                          for a in node_atoms(t))}
            assert got == want


NON_ARITH_PAIRS = [("hqpr", "h(X)"), ("nest", "p(X)"),
                   ("append", APPEND_QUERY), ("eqnil", "p"),
                   ("semigen", "p(X, Y)")]


@pytest.mark.criterion(7)
def test_prop_derivations_reach_tree_frontiers(corpus):
    checked = 0
    for name, text in NON_ARITH_PAIRS:
        program, q = corpus_query(corpus, name, text)
        frontiers = []
        for s in enumerate_skeletons(program, q, depth=4):
            t = most_general_derivation_tree(s)
            if t is not None:
                frontiers.append(frontier(t))
        for selection in ("leftmost", "all"):
            for d in derivations(program, q, 4, selection):
                assert any(variant_queries(d.final, f) for f in frontiers)
                checked += 1
    assert checked >= 60


@pytest.mark.criterion(7)
def test_prop_tree_frontiers_are_reached_by_derivations(corpus):
    checked = 0
    for name, text in NON_ARITH_PAIRS:
        program, q = corpus_query(corpus, name, text)
        for s in enumerate_skeletons(program, q, depth=3):
            t = most_general_derivation_tree(s)
            if t is None:
                continue
            steps = complete_node_count(s) - 1
            finals = [d.final for d in derivations(program, q, steps, "all")
                      if len(d.steps) == steps]
            assert any(variant_queries(frontier(t), f) for f in finals)
            checked += 1
    assert checked >= 25


@pytest.mark.criterion(7)
@randomized
@given(eqs=raw_equations(max_eqs=3))
def test_prop_ordered_verdict_is_sound(eqs):
    if ordered_unifiable(eqs) == "guaranteed":
        mgu_terms(eqs)


@pytest.mark.criterion(7)
@randomized
@given(data=st.data())
def test_prop_ordered_verdict_fires_on_oriented_instances(data):
    n = data.draw(st.integers(1, 3))
    eqs = []
    for i in range(n):
        pattern = data.draw(raw_terms(max_leaves=3))
        fresh = {v: Var(f"F{i}_{v.name}") for v in free_vars(pattern)}
        rhs = subst_ground(pattern, fresh)
        inst = {fv: data.draw(raw_terms(max_leaves=2))
                for fv in fresh.values()}
        eqs.append((subst_ground(rhs, inst), rhs))
    assert ordered_unifiable(eqs) == "guaranteed"
    mgu_terms(eqs)


@pytest.mark.criterion(7)
def test_prop_static_pass_implies_monitor_pass(corpus):
    passed = 0
    for name, text in CORPUS_QUERIES:
        program, q = corpus_query(corpus, name, text)
        if subject_reduction(program, q, depth=4, bounded=True)[0].passed:
            passed += 1
            assert monitored_answers(program, q, depth=4)[0].passed
            # A certified run types no derived query: type each one whole.
            assert all(is_typable(d.final, program.signature)
                       for d in derivations(program, q, 4)), (name, text)
    assert passed == 7  # every pair except the one for the nesting program


SEMI_QUERY_BATTERY = {
    "semigen": ["p(X, Y)", "q(X, Y)", "p([], Y)", "p(X, [Y|X])"],
    "nestcount": ["r(J, X)", "r(1, [[]])"],
    "append": [APPEND_QUERY, "app([1], Ys, Zs)"],
    "hqpr": ["h(X)", "q(X), p(Y)"],
    "eqnil": ["p"],
    "fgs3": ["fgs3(1, Y)"],
}


@pytest.mark.criterion(7)
def test_prop_semi_generic_queries_pass_bounded_check(corpus):
    covered = 0
    for name, texts in SEMI_QUERY_BATTERY.items():
        program = corpus[name]
        part = search_partition(program)
        assert part is not None
        for text in texts:
            q = parse_query(text, program.signature)
            if not is_typable(q, program.signature):
                continue
            if check_semi_generic(program, part, queries=(q,)).passed:
                covered += 1
                assert subject_reduction(program, q, depth=5, bounded=True)[0].passed
    assert covered >= 8


@pytest.mark.criterion(7)
def test_prop_head_condition_implies_semi_genericity(corpus):
    checked = 0
    for name in sorted(corpus):
        program = corpus[name]
        if not check_head_condition(program).passed:
            continue
        checked += 1
        part = make_partition(program)
        assert check_semi_generic(program, part).passed
        text = dict(CORPUS_QUERIES).get(name)
        if text:
            q = parse_query(text, program.signature)
            assert check_semi_generic(program, part, queries=(q,)).passed
    assert checked == 4
