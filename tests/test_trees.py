"""Derivations, skeletons, most general derivation trees, and the bounded
consequence operator."""
from __future__ import annotations

import dataclasses
import json
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlpc.core import (
    EQ_CLAUSE_INDEX,
    GO_CLAUSE_INDEX,
    Atom,
    Clause,
    Fun,
    NameSource,
    Program,
    Subst,
    Var,
    apply_subst,
    rename_apart,
    vars_of,
    wrap_query,
)
from tlpc.corpus import corpus_names
from tlpc.parser import parse_program, parse_query, parse_term, render
from tlpc.trees import (
    BOTTOM,
    Derivation,
    DerivationTree,
    Skeleton,
    _Index,
    _head_depths,
    answers,
    atom_depth,
    derivations,
    depth_first,
    derive_step,
    enumerate_proof_skeletons,
    enumerate_skeletons,
    eq_of_skeleton,
    eval_arith,
    frontier,
    ground_terms,
    head_atom,
    height,
    int_literals,
    is_proper_skeleton,
    most_general_derivation_tree,
    node_atoms,
    rebuild,
    same_shape,
    skeleton_of,
    skeleton_to_json,
    tp_fixpoint,
    tree_to_json,
)
from tlpc.cli import _skeleton_text, _tree_lines
from tlpc.srcheck import label, type_skeleton_of

from helpers import (
    BENCH_PROGRAMS,
    CORPUS_QUERIES,
    EXTRA_QUERIES,
    FLAT_TEXT,
    MK_TEXT,
    check_derivation_tree,
    complete_node_count,
    corpus_query,
    eager_answers,
    ground_trees,
    is_complete,
    match_onto,
    programs_with_queries,
    recursive_eq_of_skeleton,
    recursive_eq_of_type_skeleton,
    recursive_node_atoms,
    recursive_tree_to_json,
    reference_derivations,
    reference_tp_fixpoint,
    reference_tp_step,
    typed_programs,
    variant_queries,
)


# ------------------------------------------------------------ single steps

def test_derive_step_against_fact(append):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    theta, nxt = derive_step(q, 1, append.clauses[0])
    assert nxt == parse_query("r([])", append.signature)
    assert theta.apply(Var("Xs")) == Fun("nil")


def test_derive_step_renamed_clause(nest):
    q = parse_query("p(X)", nest.signature)
    copy = rename_apart(nest.clauses[0], NameSource())
    theta, nxt = derive_step(q, 1, copy)
    assert variant_queries(nxt, parse_query("r(Y)", nest.signature))


def test_derive_step_clash(append):
    q = parse_query("r([])", append.signature)
    assert derive_step(q, 1, append.clauses[2]) is None


def test_derive_step_position_out_of_range(append):
    q = parse_query("r([])", append.signature)
    with pytest.raises(IndexError):
        derive_step(q, 2, append.clauses[2])
    with pytest.raises(IndexError):
        derive_step(q, 0, append.clauses[2])


def test_derive_step_evaluates_subtraction(fgs1):
    q = parse_query("fs1(2, Y, 2)", fgs1.signature)
    copy = rename_apart(fgs1.clauses[1], NameSource())
    _, nxt = derive_step(q, 1, copy)
    # The body's I-1 becomes ground after unification and is reduced.
    assert nxt[0].args[0] == Fun("1")


# ------------------------------------------------------------- derivations

def test_leftmost_derivations_yield_all_prefixes(nest):
    q = parse_query("p(X)", nest.signature)
    ds = list(derivations(nest, q, depth=2))
    assert [len(d.steps) for d in ds] == [0, 1, 2]
    last = ds[-1]
    assert variant_queries(last.final, parse_query("r(Y)", nest.signature))
    assert all(s.position == 1 for s in last.steps)
    assert [s.clause_index for s in last.steps] == [0, 1]


def test_depth_zero_single_empty_derivation(append):
    q = parse_query("r([1])", append.signature)
    ds = list(derivations(append, q, depth=0))
    assert ds == [Derivation(q, ())]
    assert ds[0].answer == Subst({})


def test_append_success_branch(append):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    wins = [d for d in derivations(append, q, depth=3) if d.succeeded and d.steps]
    assert len(wins) == 1
    d = wins[0]
    assert len(d.steps) == 3
    one = parse_term("[1]", append.signature)
    assert d.answer.apply(Var("Xs")) == one
    assert d.answer.apply(Var("Zs")) == one
    assert set(d.answer) <= vars_of(q)


def test_equality_atoms_resolve_with_builtin(eqnil):
    q = parse_query("p", eqnil.signature)
    wins = [d for d in derivations(eqnil, q, depth=3) if d.succeeded and d.steps]
    assert len(wins) == 1
    assert [s.clause_index for s in wins[0].steps] == [0, EQ_CLAUSE_INDEX,
                                                       EQ_CLAUSE_INDEX]


def test_all_selection_tries_every_position(append):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    left = list(derivations(append, q, depth=2, selection="leftmost"))
    both = list(derivations(append, q, depth=2, selection="all"))
    assert len(both) > len(left)
    assert {s.position for d in both for s in d.steps} == {1, 2}
    with pytest.raises(ValueError):
        next(derivations(append, q, depth=1, selection="bogus"))


@pytest.mark.parametrize("selection", ["leftmost", "all"])
def test_answers_match_eager_composer(corpus, selection):
    mk = parse_program(MK_TEXT)
    cases = [corpus_query(corpus, name, text) for name, text in CORPUS_QUERIES + EXTRA_QUERIES]
    cases += [(mk, parse_query(text, mk.signature)) for text in ("mk(4, Xs)", "mk(N, Xs)", "mk(3-1, Xs)")]
    cases += [corpus_query(corpus, "nestcount", text) for text in ("r(3, X)", "r(J, [[X]])")]
    for program, q in cases:
        ds = list(derivations(program, q, 6, selection))
        want = list(eager_answers(program, q, 6, selection))
        assert len(ds) == len(want), render(q)
        for d, ref in zip(ds, want):
            assert d.answer == ref, (render(q), [s.clause_index for s in d.steps])


def _tops(atom):
    return [None if isinstance(t, Var) else (t.name, len(t.args)) for t in atom.args]


def _match_reference(program, q, depth, selection, seen):
    """Compare `derivations` with the reference search step by step, and
    count in `seen` what the comparison covered."""
    got = list(derivations(program, q, depth, selection))
    want = list(reference_derivations(program, q, depth, selection))
    assert len(got) == len(want), render(q)
    for d, (steps, answer) in zip(got, want):
        assert [(s.position, s.clause_index, s.clause, s.mgu, s.query)
                for s in d.steps] == list(steps), render(q)
        assert d.answer == answer, (render(q), [s.clause_index for s in d.steps])
        binding = {v: t for s in steps for v, t in s[3].items()}
        if any(vars_of(binding[v]) & binding.keys() for v in vars_of(q) if v in binding):
            seen["answer resolves a later binding"] += 1
        if len(steps) == depth:
            continue
        for a in d.final if selection == "all" else d.final[:1]:
            for c in program.clauses:
                if c.head.pred == a.pred:
                    pairs = list(zip(_tops(c.head), _tops(a)))
                    seen["head functor clash"] += any(h and t and h != t for h, t in pairs)
                    seen["variable head argument"] += any(t and not h for h, t in pairs)


@pytest.mark.parametrize("selection", ["leftmost", "all"])
def test_derivations_match_the_reference_search(selection):
    # The reference renames every clause of the predicate, so this checks
    # the clause filter, the fresh names it must keep, and the triangular
    # reading of the answer.
    seen = {"answer resolves a later binding": 0, "head functor clash": 0,
            "variable head argument": 0}
    mk = parse_program(MK_TEXT)
    for text in ("mk(4, Xs)", "mk(N, Xs)", "mk(3-1, Xs)"):
        _match_reference(mk, parse_query(text, mk.signature), 6, selection, seen)

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(programs_with_queries())
    def check(case):
        program, texts = case
        for text in texts:
            _match_reference(program, parse_query(text, program.signature), 3, selection, seen)

    check()
    assert min(seen.values()) >= 30, seen


def test_answers(append, nest):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    got = answers(append, q, depth=5)
    one = parse_term("[1]", append.signature)
    assert [dict(a) for a in got] == [{Var("Xs"): one, Var("Zs"): one}]
    assert answers(nest, parse_query("p(X)", nest.signature), depth=10) == []
    # the empty query succeeds at once, with the empty answer
    assert [dict(a) for a in answers(append, (), depth=0)] == [{}]


def test_answers_evaluate_subtraction_of_the_query():
    # The clauses have no `-`: only the query's X-1 must still be evaluated.
    program = parse_program("kind int/0. pred p(int). p(2).")
    q = parse_query("X = 3, p(X-1)", program.signature)
    assert [dict(a) for a in answers(program, q, depth=3)] == [{Var("X"): Fun("3")}]


# --------------------------------------------------------------- skeletons

def fig1_skeleton(hqpr):
    """Manually built: the h-clause over the q-fact and the p-clause, the
    recursive call left unexpanded."""
    ns = NameSource()
    h = hqpr.clauses[0]
    q = rename_apart(hqpr.clauses[1], ns)
    p = rename_apart(hqpr.clauses[2], ns)
    return Skeleton(h, 0, (Skeleton(q, 1), Skeleton(p, 2, (BOTTOM,))))


def test_enumerate_skeletons_heights_and_roots(hqpr):
    q = parse_query("h(X)", hqpr.signature)
    seen = list(enumerate_skeletons(hqpr, q, depth=2))
    assert all(s.clause_index == GO_CLAUSE_INDEX for s in seen)
    assert all(height(s) <= 2 for s in seen)
    hs = [height(s) for s in seen]
    assert hs == sorted(hs)
    # The wrapped counterpart of the two-level skeleton is found.
    target = fig1_skeleton(hqpr)
    hits = [s for s in seen
            if len(s.children) == 1 and same_shape(s.children[0], target)]
    assert len(hits) == 1


def test_enumerate_skeletons_depth_zero(nest):
    q = parse_query("p(X)", nest.signature)
    seen = list(enumerate_skeletons(nest, q, depth=0))
    assert len(seen) == 1
    root = seen[0]
    assert root.children == (BOTTOM,)
    assert root.clause.body == q
    assert root.clause.head == Atom("go", ())


def test_enumerate_skeletons_unique_chain(nest):
    q = parse_query("p(X)", nest.signature)
    chains = [s for s in enumerate_skeletons(nest, q, depth=3)
              if height(s) == 3]
    assert len(chains) == 1
    s = chains[0]
    idxs = []
    while isinstance(s, Skeleton):
        idxs.append(s.clause_index)
        s = s.children[0]
    assert idxs == [GO_CLAUSE_INDEX, 0, 1, 1] and s is BOTTOM


def test_skeleton_nodes_are_variable_disjoint(hqpr):
    q = parse_query("h(X)", hqpr.signature)
    for s in enumerate_skeletons(hqpr, q, depth=2):
        seen: set = set()

        def walk(node, at_root):
            if node is BOTTOM:
                return
            vs = vars_of(node.clause)
            if not at_root:
                assert not (vs & seen)
            seen.update(vs)
            for c in node.children:
                walk(c, False)

        walk(s, True)


def test_skeleton_arity_checked(hqpr):
    with pytest.raises(ValueError):
        Skeleton(hqpr.clauses[0], 0, ())


def test_enumerate_proof_skeletons(hqpr):
    seen = list(enumerate_proof_skeletons(hqpr, depth=2))
    assert all(is_complete(s) for s in seen)
    # Only the q-fact and the builtin equality fact can be completed.
    assert {s.clause_index for s in seen} == {1, EQ_CLAUSE_INDEX}


def test_eq_of_skeleton_order_and_properness(hqpr):
    s = fig1_skeleton(hqpr)
    x = Var("X")
    x2 = next(iter(vars_of(s.children[1].clause)))
    assert eq_of_skeleton(s) == [
        (Atom("q", (x,)), Atom("q", (Fun("nil"),))),
        (Atom("p", (x,)), Atom("p", (x2,))),
    ]
    theta = is_proper_skeleton(s)
    assert dict(theta) == {x: Fun("nil"), x2: Fun("nil")}


def test_non_proper_skeleton(append):
    q = parse_query("r([])", append.signature)
    bad = next(s for s in enumerate_skeletons(append, q, depth=1)
               if height(s) == 1)
    assert eq_of_skeleton(bad) == [(q[0], append.clauses[2].head)]
    assert is_proper_skeleton(bad) is None
    assert most_general_derivation_tree(bad) is None


def test_most_general_derivation_tree_labels(hqpr):
    s = fig1_skeleton(hqpr)
    t = most_general_derivation_tree(s)
    nil = Fun("nil")
    x2 = next(iter(vars_of(s.children[1].clause)))
    assert dict(t.subst) == {Var("X"): nil}
    assert dict(t.children[0].subst) == {}
    assert dict(t.children[1].subst) == {x2: nil}
    assert node_atoms(t) == [Atom("h", (nil,)), Atom("q", (nil,)),
                             Atom("p", (nil,)), Atom("r", (nil,))]
    assert frontier(t) == (Atom("r", (nil,)),)
    assert head_atom(t) == Atom("h", (nil,))
    assert check_derivation_tree(t)
    assert skeleton_of(t) == s


def test_fact_only_tree(hqpr):
    s = Skeleton(hqpr.clauses[1], 1)
    t = most_general_derivation_tree(s)
    assert t == DerivationTree(hqpr.clauses[1], 1, Subst({}))
    assert frontier(t) == ()
    assert is_complete(t)


def test_root_only_tree_frontier_is_query(nest):
    q = parse_query("p(X)", nest.signature)
    root = next(enumerate_skeletons(nest, q, depth=0))
    t = most_general_derivation_tree(root)
    assert frontier(t) == q


def test_subst_restricted_to_node_clause(append):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    for s in enumerate_skeletons(append, q, depth=2):
        t = most_general_derivation_tree(s)
        if t is None:
            continue

        def walk(node):
            assert set(node.subst) <= vars_of(node.clause)
            for c in node.children:
                if c is not BOTTOM:
                    walk(c)

        walk(t)


def test_shape_helpers(hqpr):
    s = fig1_skeleton(hqpr)
    # The unexpanded leaf does not add a level.
    assert height(s) == 1
    assert complete_node_count(s) == 3
    assert not is_complete(s)
    assert same_shape(s, fig1_skeleton(hqpr))
    assert not same_shape(s, s.children[0])
    assert not same_shape(s, BOTTOM)


def _all_skeletons(corpus):
    for name, text in CORPUS_QUERIES + EXTRA_QUERIES:
        program, q = corpus_query(corpus, name, text)
        yield from ((program, s) for s in enumerate_skeletons(program, q, 3))
    flat = parse_program(FLAT_TEXT)
    q = parse_query("flat(T, L)", flat.signature)
    yield from ((flat, s) for s in enumerate_skeletons(flat, q, 2))


def test_walks_keep_the_recursive_prefix_order(corpus):
    # Every skeleton, proper or not, of the corpus queries at depth 3 (multi-
    # atom roots included, where prefix order and per-node order differ) and
    # of flat at depth 2 (three children per node).
    def clause_fields(node):
        return {"clause": render(node.clause)}

    def label_fields(node):
        return {"label": label(node)}

    def copy_node(node):
        made.append(render(node.clause))
        return partial(Skeleton, node.clause, node.clause_index)

    seen = 0
    for program, s in _all_skeletons(corpus):
        assert eq_of_skeleton(s) == recursive_eq_of_skeleton(s)
        want = recursive_tree_to_json(s, clause_fields)
        # dumped, so that the order of each record's keys is compared too
        assert json.dumps(tree_to_json(s, clause_fields)) == json.dumps(want)
        made: list[str] = []
        assert rebuild(s, copy_node) == s
        assert made == [r["clause"] for r in want["nodes"] if r["kind"] == "clause"]
        ts = type_skeleton_of(s, program)
        assert ([eq for a, b in eq_of_skeleton(ts) for eq in zip(a.args, b.args)]
                == recursive_eq_of_type_skeleton(ts))
        assert (json.dumps(tree_to_json(ts, label_fields))
                == json.dumps(recursive_tree_to_json(ts, label_fields)))
        t = most_general_derivation_tree(s)
        if t is not None:
            assert node_atoms(t) == recursive_node_atoms(t)
            assert skeleton_of(t) == s
            seen += 1
    assert seen > 50


def test_tall_skeleton_walks_do_not_recurse():
    # A 2000-level chain, built directly: far past the recursion limit.
    program = parse_program("pred p(U).\np(X) :- p(X).\n")
    sig = program.signature
    ns = NameSource()
    s = BOTTOM
    for _ in range(2000):
        s = Skeleton(rename_apart(program.clauses[0], ns), 0, (s,))
    s = Skeleton(wrap_query(parse_query("p(X)", sig)), GO_CLAUSE_INDEX, (s,))
    assert height(s) == 2000
    assert complete_node_count(s) == 2001
    assert not is_complete(s)
    assert is_proper_skeleton(s) is not None
    t = most_general_derivation_tree(s)
    atoms = node_atoms(t)
    assert len(atoms) == 2002 and len(set(atoms[1:])) == 1
    assert frontier(t) == (atoms[-1],)
    assert check_derivation_tree(t)
    assert same_shape(skeleton_of(t), s)
    ts = type_skeleton_of(s, program)
    assert is_proper_skeleton(ts) is not None
    doc = json.loads(json.dumps(skeleton_to_json(s)))
    assert [n["children"] for n in doc["nodes"][:-1]] == [[i + 1] for i in range(2001)]
    assert doc["nodes"][-1] == {"id": 2001, "kind": "bottom"}
    assert same_shape(s, s)
    lines = _tree_lines(s, _skeleton_text, 1)
    assert len(lines) == 2002 and lines[-1] == "  " * 2002 + "_|_"
    assert len(_tree_lines(ts, label, 1)) == 2002


# -------------------------------------------------------------- arithmetic

def test_eval_arith(fgs1):
    sig = fgs1.signature
    assert eval_arith(parse_term("2-1", sig)) == Fun("1")
    assert eval_arith(parse_term("2-1-1", sig)) == Fun("0")
    sym = parse_term("J-1", sig)
    assert eval_arith(sym) == sym
    assert eval_arith(parse_query("gs1(1-1, c)", sig)) == \
        parse_query("gs1(0, c)", sig)


def test_term_and_atom_depth(append):
    sig = append.signature
    assert Var("X").depth == 0
    assert Fun("nil").depth == 0
    assert parse_term("[1]", sig).depth == 1
    assert parse_term("[[1]]", sig).depth == 2
    assert atom_depth(Atom("go", ())) == 0
    assert atom_depth(parse_query("r([1])", sig)[0]) == 1


def test_head_depths(append):
    a = parse_query("app([X|Xs], [[X]], Zs)", append.signature)[0]
    assert _head_depths(a) == (2, {Var("X"): 2, Var("Xs"): 1, Var("Zs"): 0})
    assert _head_depths(Atom("go", ())) == (0, {})


def test_term_walks_do_not_recurse():
    # A 5000-level chain, built directly: the parser would pass the
    # recursion limit.
    t = Var("X")
    for _ in range(5000):
        t = Fun("s", (Fun("7"), t))
    a = Atom("p", (t,))
    assert t.depth == 5000
    assert atom_depth(a) == 5000
    assert _head_depths(a) == (5000, {Var("X"): 5000})
    program = Program(parse_program("pred p(U).").signature, (Clause(a),))
    assert int_literals(program) == ["7"]


def test_deep_terms_hash_compare_and_substitute_without_recursion():
    # Two 5000-element lists built apart: hashes are cached at construction,
    # equality walks with an explicit stack once the hashes agree, and
    # apply_subst returns a ground list itself.
    def countdown(last, tail=Fun("nil")):
        t = Fun("cons", (last, tail))
        for k in range(1, 5000):
            t = Fun("cons", (Fun(str(k)), t))
        return t

    a, b = countdown(Fun("0")), countdown(Fun("0"))
    assert a is not b and hash(a) == hash(b) and a == b
    assert {a: 1}[b] == 1 and Atom("p", (a,)) == Atom("p", (b,))
    assert a != countdown(Fun("7")) and a != countdown(Fun("0"), Var("T"))
    assert countdown(Var("X"), Var("T")) == countdown(Var("X"), Var("T"))
    assert apply_subst(a, {Var("X"): Fun("0")}) is a
    assert apply_subst(Atom("p", (a, Var("X"))), {Var("X"): b}) == Atom("p", (a, a))
    assert a.depth == 5000 and a.ground


def test_int_literals(fgs1, nestcount, hqpr):
    assert int_literals(fgs1) == ["0", "1"]
    assert int_literals(nestcount) == ["1"]
    assert int_literals(hqpr) == []
    q = parse_query("fgs1(2, Y)", fgs1.signature)
    assert int_literals(fgs1, q) == ["0", "1", "2"]


def test_ground_terms(hqpr, append):
    nil = Fun("nil")
    assert ground_terms(hqpr.signature, 0) == {nil: 0}
    assert ground_terms(hqpr.signature, 1) == {nil: 0, Fun("cons", (nil, nil)): 1}
    # Integer literals only enter through the explicit list.
    assert ground_terms(append.signature, 0, ["1"]) == {nil: 0, Fun("1"): 0}
    assert ground_terms(append.signature, 0) == {nil: 0}
    terms = ground_terms(append.signature, 2, ["1"])
    assert all(t.depth == d for t, d in terms.items())
    assert list(terms.values()) == sorted(terms.values())
    assert len(terms) == 2 + 6 ** 2


# ------------------------------------------------------------ consequences

def test_tp_fixpoint_single_fact(hqpr):
    m = tp_fixpoint(hqpr, depth=2)
    assert m.atoms == frozenset({Atom("q", (Fun("nil"),))})
    assert Atom("q", (Fun("nil"),)) in m
    assert len(m) == 1


def test_tp_fixpoint_append(append):
    m = tp_fixpoint(append, depth=3)
    sig = append.signature
    assert parse_query("r([1])", sig)[0] in m
    assert parse_query("app([], [], [])", sig)[0] in m
    assert parse_query("app([1], [], [1])", sig)[0] in m
    assert all(atom_depth(a) <= 3 for a in m.atoms)
    assert all(not vars_of(a) for a in m.atoms)


def test_tp_fixpoint_empty_program(append):
    empty = dataclasses.replace(append, clauses=())
    assert tp_fixpoint(empty, depth=2).atoms == frozenset()


def test_tp_handles_body_equations(eqnil):
    m = tp_fixpoint(eqnil, depth=1)
    assert m.atoms == frozenset({Atom("p", ())})


def test_tp_subtraction_is_uninterpreted(nestcount):
    m = tp_fixpoint(nestcount, depth=2)
    assert m.atoms == frozenset({parse_query("r(1, [])",
                                             nestcount.signature)[0]})


def test_tp_step_monotone_and_stable(append):
    m0 = tp_fixpoint(append, depth=2)
    assert reference_tp_step(append, m0).atoms == m0.atoms
    start = reference_tp_step(append, dataclasses.replace(m0, atoms=frozenset()))
    assert start.atoms <= m0.atoms


def test_index_looks_calls_up_by_their_first_ground_argument(append):
    sig = append.signature
    a1, a2, a3, a4, r1 = (parse_query(t, sig)[0] for t in (
        "app([], [], [])", "app([], [1], [1])", "app([1], [], [1])",
        "app([1], [1], [1, 1])", "r([1])"))
    index = _Index([a1, a2, r1])
    by_second = parse_query("app(Xs, [], Zs)", sig)[0]
    assert index.candidates(by_second) == [a1]
    # The table for the second argument, built above, takes in later atoms.
    index.add([a3, a4])
    assert index.candidates(by_second) == [a1, a3]
    # A first argument that is not ground is passed over.
    assert index.candidates(parse_query("app([X], [1], Zs)", sig)[0]) == [a2, a4]
    assert index.candidates(parse_query("app([], Ys, Zs)", sig)[0]) == [a1, a2]
    assert index.candidates(parse_query("app([1], Ys, [1])", sig)[0]) == [a3, a4]
    assert index.candidates(parse_query("app(Xs, Ys, Zs)", sig)[0]) == [a1, a2, a3, a4]
    assert index.candidates(parse_query("r([1])", sig)[0]) == [r1]
    assert index.candidates(parse_query("r([])", sig)[0]) == []
    assert _Index().candidates(by_second) == []


def test_tp_max_iters(append):
    m1 = tp_fixpoint(append, depth=2, max_iters=1)
    full = tp_fixpoint(append, depth=2)
    assert m1.atoms <= full.atoms
    assert parse_query("app([1], [], [1])", append.signature)[0] not in m1


# Every corpus program at depths 1-3, every bench program at depth 1, and
# flatnest at depth 2.  (flat at depth 2 is left out: the naive oracle
# alone takes seconds there.)
TP_CASES = ([(name, d) for name in corpus_names() for d in (1, 2, 3)]
            + [(BENCH_PROGRAMS / f"{name}.tlp", 1) for name in ("chain", "flat", "flatnest", "mk")]
            + [(BENCH_PROGRAMS / "flatnest.tlp", 2)])


def _assert_tp_matches_oracle(program, depth):
    for max_iters in (None, 0, 1, 2, 3):
        got = tp_fixpoint(program, depth, max_iters)
        assert got.depth_bound == depth
        assert got.atoms == reference_tp_fixpoint(program, depth, max_iters).atoms, max_iters


@pytest.mark.parametrize("source, depth", TP_CASES,
                         ids=[f"{getattr(s, 'stem', s)}-{d}" for s, d in TP_CASES])
def test_tp_fixpoint_matches_the_naive_oracle(corpus, source, depth):
    program = corpus[source] if isinstance(source, str) else parse_program(source.read_text())
    _assert_tp_matches_oracle(program, depth)


def test_tp_fixpoint_keeps_tables_in_step_across_rounds():
    # Round 1 looks q(M, []) up among the old atoms, which builds their
    # table for q's second argument while q([], [1]) is still new.  Round 2
    # finds q([], [1]) there only if the table took it in when it turned old.
    program = parse_program("""
        kind list/1. kind int/0.
        func nil : list(U). func cons(U, list(U)) : list(U).
        pred nat(list(int)). pred q(list(int), list(int)). pred p(list(int)).
        nat([]).
        nat([1|N]) :- nat(N).
        q([], [1]).
        p(M) :- nat(N), q(M, N).
    """)
    assert parse_query("p([])", program.signature)[0] in tp_fixpoint(program, 2)
    _assert_tp_matches_oracle(program, 2)


def test_tp_fixpoint_with_body_equations():
    # `p`'s body equation does not unify, so `p` never holds; the others
    # bind X, and a binding dropped would ground X to `b` as well.
    program = parse_program("""
        kind t/0. func a : t. func b : t.
        pred p. pred q(t). pred r(t).
        p :- a = b.
        q(X) :- X = a.
        r(X) :- q(X), X = a.
    """)
    want = {parse_query(t, program.signature)[0] for t in ("q(a)", "r(a)")}
    assert tp_fixpoint(program, 1).atoms == want
    _assert_tp_matches_oracle(program, 1)


def test_tp_fixpoint_flat_at_depth_2():
    # The naive oracle takes seconds here, so only the count is pinned.
    assert len(tp_fixpoint(parse_program(FLAT_TEXT), 2)) == 3241


def test_tp_fixpoint_matches_the_naive_oracle_on_random_programs():
    sizes, bodies = set(), set()

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(typed_programs(), st.integers(1, 2))
    def check(program, depth):
        _assert_tp_matches_oracle(program, depth)
        sizes.add(len(tp_fixpoint(program, depth)) > 0)
        for c in program.clauses:  # the bodies hold calls only
            if len(c.body) >= 2:
                bodies.add("two calls")
            if any(t.ground for b in c.body for t in b.args):
                bodies.add("a ground argument")

    check()
    assert sizes == {True, False}
    assert bodies == {"two calls", "a ground argument"}


# ---------------------------------------------------------------- round trip

def test_skeleton_json_round_trip(hqpr):
    doc = skeleton_to_json(fig1_skeleton(hqpr))
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {"root": 0, "nodes": [
        {"id": 0, "kind": "clause", "clauseIndex": 0, "clause": "h(X) :- q(X), p(X).",
         "children": [1, 2]},
        {"id": 1, "kind": "clause", "clauseIndex": 1, "clause": "q([]).", "children": []},
        {"id": 2, "kind": "clause", "clauseIndex": 2, "clause": "p(X_1) :- r(X_1).",
         "children": [3]},
        {"id": 3, "kind": "bottom"}]}


def test_derivation_tree_json_round_trip(hqpr):
    doc = skeleton_to_json(most_general_derivation_tree(fig1_skeleton(hqpr)))
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {"root": 0, "nodes": [
        {"id": 0, "kind": "clause", "clauseIndex": 0, "clause": "h(X) :- q(X), p(X).",
         "subst": {"X": "[]"}, "children": [1, 2]},
        {"id": 1, "kind": "clause", "clauseIndex": 1, "clause": "q([]).", "subst": {},
         "children": []},
        {"id": 2, "kind": "clause", "clauseIndex": 2, "clause": "p(X_1) :- r(X_1).",
         "subst": {"X_1": "[]"}, "children": [3]},
        {"id": 3, "kind": "bottom"}]}


# ------------------------------------------------- most generality, concretely

def test_ground_trees_are_instances_of_most_general(hqpr):
    universe = ground_terms(hqpr.signature, 2)
    s = fig1_skeleton(hqpr)
    mg = most_general_derivation_tree(s)
    pattern = tuple(node_atoms(mg))
    found = ground_trees(s, universe)
    assert found
    for t in found:
        assert check_derivation_tree(t)
        assert match_onto(pattern, tuple(node_atoms(t))) is not None


# ------------------------------------------------------------ depth first

def test_depth_first_visits_children_in_order_and_lazily():
    tree = {"r": ["a", "b"], "a": ["a1", "a2"], "b": ["b1"]}
    asked = []

    def children(node):
        asked.append(node)
        return iter(tree.get(node, ()))

    walk = depth_first("r", children)
    assert [next(walk), next(walk)] == ["r", "a"]
    assert asked == ["r"]  # a node's children are asked for once it is reached
    assert list(walk) == ["a1", "a2", "b", "b1"]
    assert asked == ["r", "a", "a1", "a2", "b", "b1"]


def test_depth_first_is_not_bounded_by_the_recursion_limit():
    chain = list(depth_first(0, lambda n: [n + 1] if n < 20000 else []))
    assert chain == list(range(20001))
