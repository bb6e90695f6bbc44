"""Type skeletons, the two per-clause conditions, partition search, and the
bounded subject-reduction checks."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, Phase, given, settings

from helpers import (
    BENCH_PROGRAMS, EXTRA_QUERIES, FLAT_TEXT, FLATNEST_TEXT, MK_TEXT, assembled_variable_typing,
    corpus_path, eq_prime_of_type_skeleton, ordered_unifiable, programs_with_queries,
    reference_search_partition, reference_sr_check, time_limit, typed_programs,
)
from tlpc.cli import _report, _skeleton, _type_skeleton, main
from tlpc.core import (
    EQ, EQ_CLAUSE, GO, GO_CLAUSE_INDEX, Atom, Fun, Param, TCon, Var, apply_subst, variant,
    wrap_query,
)
from tlpc.corpus import corpus_names, load_corpus
from tlpc.parser import parse_program, parse_query, render
from tlpc.srcheck import (
    HEAD_CONDITION,
    SEMI_GENERIC,
    Partition,
    check_head_condition,
    check_semi_generic,
    label,
    make_partition,
    monitored_answers,
    search_partition,
    sr_certificate,
    subject_reduction_counterexamples,
    subject_reduction,
    type_clause,
    type_skeleton_of,
    typed_proper_skeletons,
)
from tlpc.trees import (
    BOTTOM,
    Skeleton,
    answers,
    derivations,
    enumerate_skeletons,
    eq_of_skeleton,
    frontier,
    height,
    is_proper_skeleton,
    most_general_derivation_tree,
)
from tlpc.typecheck import UntypableError, is_typable, judge, require_typable
from tlpc.unify import UnificationError, mgu_types

INT = TCon("int")


def list_of(t):
    return TCon("list", (t,))


def proper_skeletons(program, query_text, depth):
    q = parse_query(query_text, program.signature)
    for s in enumerate_skeletons(program, q, depth):
        if is_proper_skeleton(s) is not None:
            yield s


def chain_skeleton(nest, levels):
    """go over the p-clause over `levels - 1` nested r-clauses."""
    q = parse_query("p(X)", nest.signature)
    return next(s for s in enumerate_skeletons(nest, q, depth=levels)
                if height(s) == levels)


# ------------------------------------------------------------ type skeletons

def test_type_skeleton_of_nesting_chain(nest):
    ts = type_skeleton_of(chain_skeleton(nest, 3), nest)
    assert label(ts) == "go <- p(list(int))"
    p = ts.children[0]
    assert label(p) == "p(list(int)) <- r(list(int))"
    r1 = p.children[0]
    a = r1.clause.head.args[0].args[0].args[0]
    assert isinstance(a, Param)
    assert r1.clause.head.args == (list_of(list_of(a)),)
    assert tuple(b.args for b in r1.clause.body) == ((list_of(a),),)
    assert r1.children[0].children == (BOTTOM,)


def test_type_skeleton_parameters_disjoint_per_node(nest, semigen):
    for program, qt in ((nest, "p(X)"), (semigen, "p(X, Y)")):
        for s in proper_skeletons(program, qt, 2):
            ts = type_skeleton_of(s, program)
            seen: set = set()

            def walk(node):
                from tlpc.core import vars_of
                here = vars_of(node.clause)
                assert not (here & seen)
                seen.update(here)
                for c in node.children:
                    if c is not BOTTOM:
                        walk(c)

            walk(ts)


def test_type_skeleton_preserves_shape(append):
    for s in proper_skeletons(append, "app(Xs, [], Zs), r(Xs)", 2):
        ts = type_skeleton_of(s, append)

        def walk(sk, tk):
            assert len(sk.children) == len(tk.children)
            assert tk.clause_index == sk.clause_index
            assert tk.clause.head.pred == sk.clause.head.pred
            assert tuple(a.pred for a in tk.clause.body) == tuple(a.pred for a in sk.clause.body)
            assert variant(tk.clause, type_clause(*append.typing(sk.clause_index, sk.clause)))
            for a, b in zip(sk.children, tk.children):
                assert (a is BOTTOM) == (b is BOTTOM)
                if a is not BOTTOM:
                    walk(a, b)

        walk(s, ts)


def test_type_skeleton_of_untypable_clause_reports_node(append):
    import dataclasses
    from tlpc.parser import parse_clause
    bad = parse_clause("r([[1]]).", append.signature)
    broken = dataclasses.replace(append,
                                 clauses=append.clauses[:2] + (bad,) + append.clauses[3:])
    with pytest.raises(UntypableError) as exc:
        for s in proper_skeletons(broken, "r(Xs)", 1):
            type_skeleton_of(s, broken)
    assert "r([[1]])" in str(exc.value)


def test_append_type_skeleton_proper_all_int(append):
    hit = None
    for s in proper_skeletons(append, "app(Xs, [], Zs), r(Xs)", 2):
        kids = s.children
        if (len(kids) == 2 and kids[0] is not BOTTOM
                and kids[0].clause_index == 1
                and kids[0].children[0] is not BOTTOM
                and kids[1] is not BOTTOM):
            hit = s
            break
    assert hit is not None
    ts = type_skeleton_of(hit, append)
    assert label(ts) == "go <- app(list(int), list(int), list(int)), r(list(int))"
    theta = is_proper_skeleton(ts)
    assert theta is not None
    assert set(dict(theta).values()) == {INT}


def test_nesting_type_skeleton_not_proper(nest):
    ts = type_skeleton_of(chain_skeleton(nest, 2), nest)
    assert is_proper_skeleton(ts) is None
    with pytest.raises(UnificationError) as exc:
        mgu_types(eq_of_skeleton(ts))
    err = exc.value
    assert err.kind == "clash"
    assert {err.left, err.right} == {INT, list_of(Param("A", 1))}


def test_single_node_type_skeleton(nest):
    q = parse_query("p(X)", nest.signature)
    root = next(enumerate_skeletons(nest, q, depth=0))
    ts = type_skeleton_of(root, nest)
    assert eq_of_skeleton(ts) == []
    assert dict(is_proper_skeleton(ts)) == {}


def test_semigen_root_label(semigen):
    root = next(s for s in proper_skeletons(semigen, "p(X, Y)", 1)
                if height(s) == 1)
    ts = type_skeleton_of(root, semigen)
    child = ts.children[0]
    a, b = child.clause.head.args
    assert isinstance(a, Param) and b.name == "list"
    v = b.args[0]
    assert child.clause.body[0].args[0] == list_of(a)
    w = child.clause.body[0].args[1]
    assert child.clause.body[1].args == (list_of(w), v)


def test_type_skeleton_json(append):
    s = next(proper_skeletons(append, "app(Xs, [], Zs), r(Xs)", 1))
    ts = type_skeleton_of(s, append)
    doc = _type_skeleton(ts, 0)[0]
    assert doc["root"] == 0
    root = doc["nodes"][0]
    assert root["kind"] == "clause"
    assert root["clauseIndex"] == GO_CLAUSE_INDEX
    assert root["label"].startswith("go <- app(")
    assert all("label" in n for n in doc["nodes"] if n["kind"] == "clause")


# ---------------------------------------------------------------- partitions

def test_partition_marks_and_builtins(nestcount):
    part = make_partition(nestcount, {"r": ("h", "b")})
    assert part.marks("r", 2) == ("h", "b")
    assert part.marks(EQ, 2) == ("h", "h")
    assert part.marks(GO, 0) == ()
    with pytest.raises(ValueError):
        part.marks("r", 3)
    with pytest.raises(ValueError):
        part.marks("missing", 1)


def test_make_partition_validation(nestcount):
    assert make_partition(nestcount).by_pred == {"r": ("h", "h")}
    with pytest.raises(ValueError, match="partition for r has 1 marks, expected 2"):
        make_partition(nestcount, {"r": ("h",)})
    with pytest.raises(ValueError, match="partition marks must be h or b, got x"):
        make_partition(nestcount, {"r": ("h", "x")})
    with pytest.raises(ValueError, match="partition for undeclared predicate s"):
        make_partition(nestcount, {"s": ("h",)})


def test_annotated_partition_from_source(nestcount):
    assert nestcount.partitions == {"r": ("h", "b")}
    part = make_partition(nestcount, nestcount.partitions)
    assert check_semi_generic(nestcount, part).passed


# ------------------------------------------------------------- head condition

def test_head_condition_verdicts(corpus):
    failing = {
        "fgs1": [3],
        "fgs2": [4],
        "nest": [1],
        "nestcount": [1],
        "semigen": [0, 1],
    }
    for name, program in corpus.items():
        rep = check_head_condition(program)
        got = [f.clause for f in rep.findings]
        assert got == failing.get(name, []), name
        assert rep.verdict == ("fail" if name in failing else "pass")


def test_head_condition_witness_text(fgs1):
    f = check_head_condition(fgs1).findings[0]
    assert f.condition == "head-condition"
    assert "(int, t(t(A)))" in f.witness
    assert "(int, t(U))" in f.witness


def test_head_condition_is_semi_genericity_under_the_all_head_partition(corpus):
    # Under make_partition(program) no body atom has a generic part, so
    # conditions 1 and 2 are vacuous and condition 3 asks of the head what
    # the head condition asks: each clause is reported by both or by neither.
    def reported(program):
        head = [f.clause for f in check_head_condition(program).findings]
        semi = check_semi_generic(program, make_partition(program)).findings
        assert {f.condition for f in semi} <= {"semi-generic-3"}
        assert [f.clause for f in semi] == head
        return head

    bench = [parse_program(p.read_text()) for p in sorted(BENCH_PROGRAMS.glob("*.tlp"))]
    assert sum(bool(reported(p)) for p in [*corpus.values(), *bench]) >= 5

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(typed_programs())
    def check(program):
        reported(program)

    check()


# ------------------------------------------------------------- semi-generic

def test_semi_generic_passes(semigen, nestcount):
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    assert check_semi_generic(semigen, part).passed
    assert check_semi_generic(
        nestcount, make_partition(nestcount, {"r": ("h", "b")})).passed


def test_semi_generic_failures_move_with_the_partition(fgs1):
    # Marking only gs1's value position body-generic trips the sharing
    # condition where fs1 hands its variable over to gs1.
    rep = check_semi_generic(fgs1, make_partition(fgs1, {"gs1": ("h", "b")}))
    assert [(f.clause, f.condition) for f in rep.findings] == \
        [(2, "semi-generic-1")]
    # Also freeing fs1's value position moves the failure to the recursive
    # fs1 clause: t(t(A)) is a proper instance of the declared t(U).
    rep = check_semi_generic(
        fgs1, make_partition(fgs1, {"gs1": ("h", "b"), "fs1": ("h", "b", "h")}))
    assert (1, "semi-generic-3") in [(f.clause, f.condition) for f in rep.findings]


@pytest.mark.parametrize("marks", ["h", "b"])
def test_semi_generic_check_of_a_long_body_is_fast(marks):
    # 1500 and 8000 body atoms; under q(b) each body atom's generic part has
    # a parameter of its own, under q(h) none.  Sharing is found through the
    # atoms that hold each parameter, not by comparing every pair of atoms.
    for n in (1500, 8000):
        program = parse_program(
            "kind list/1.\nfunc nil : list(U). func cons(U, list(U)) : list(U).\n"
            "pred q(list(U)). pred r.\nq([]).\nr :- "
            + ", ".join(f"q(X{i})" for i in range(n)) + ".\n")
        with time_limit(2):
            assert check_semi_generic(program, make_partition(program, {"q": (marks,)})).passed


def test_all_head_partition_makes_every_query_semi_generic(append):
    q = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    rep = check_semi_generic(append, make_partition(append), queries=(q,))
    assert rep.passed


def test_non_semi_generic_query_reported(semigen):
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    q = parse_query("p(X, [Y|X])", semigen.signature)
    rep = check_semi_generic(semigen, part, queries=(q,))
    assert {f.clause for f in rep.findings} == {GO_CLAUSE_INDEX}
    assert {f.condition for f in rep.findings} == \
        {"semi-generic-2", "semi-generic-3"}


# ------------------------------------------------------------------- search

def test_search_partition_results(corpus):
    expected = {
        "semigen": {"p": ("h", "b"), "q": ("h", "b")},
        "nestcount": {"r": ("h", "b")},
        "fgs1": None,
        "fgs2": None,
        "nest": None,
    }
    for name, program in corpus.items():
        got = search_partition(program)
        if name in expected:
            want = expected[name]
            assert (got.by_pred == want if want is not None else got is None), name
        else:
            # Programs passing the head condition settle for all-head.
            assert got is not None
            assert got.by_pred == make_partition(program).by_pred, name


def test_search_partition_is_deterministic(semigen):
    assert search_partition(semigen) == search_partition(semigen)


def test_search_result_actually_passes(corpus):
    for program in corpus.values():
        part = search_partition(program)
        if part is not None:
            assert check_semi_generic(program, part).passed


def test_search_partition_matches_the_full_product_on_random_programs():
    found = set()

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(typed_programs())
    def check(program):
        part = search_partition(program)
        assert part == reference_search_partition(program), program
        found.add(part is None)

    check()
    assert found == {True, False}


# Near misses: under the marks given, each program and query meet every
# semi-generic condition but the one named, and no other partition works,
# yet a type skeleton of a proper skeleton is not proper.  Without that
# condition `sr` would certify the query.
NEAR_MISSES = {
    "semi-generic-1": ("""
kind list/1. kind int/0.
func nil : list(U). func cons(U, list(U)) : list(U).
pred p(U). pred q(V). pred r(int).
p(X) :- q(X).
q([Y]).
""", "p(Z), r(Z)", {"p": ("h",), "q": ("b",), "r": ("h",)}),
    # q(Y, Y) ties the non-generic input of q to its own generic output,
    # and q's clause makes that output a list of its input.
    "semi-generic-2": ("""
kind list/1.
func nil : list(U). func cons(U, list(U)) : list(U).
pred p(U). pred q(U, V). pred mk(U, list(U)).
p(Y) :- q(Y, Y).
q(X, Z) :- mk(X, Z).
mk(X, []).
""", "p(W)", {"p": ("b",), "q": ("h", "b"), "mk": ("h", "h")}),
}


@pytest.mark.parametrize("condition", sorted(NEAR_MISSES))
def test_semi_generic_condition_rejects_a_near_miss(condition):
    text, query, marks = NEAR_MISSES[condition]
    program = parse_program(text)
    q = parse_query(query, program.signature)
    assert sr_certificate(program, q) is None
    assert subject_reduction(program, q, depth=3, bounded=True)[0].verdict == "fail"
    assert not check_head_condition(program).passed
    report = check_semi_generic(program, make_partition(program, marks), (q,))
    assert {f.condition for f in report.findings} == {condition}


def test_head_condition_rejects_a_near_miss_in_its_second_argument():
    # Only the second argument of one head breaks the head condition, and
    # no partition works; the skeleton recursing twice has an improper
    # type skeleton, as for the corpus program nest.
    program = parse_program("""
kind list/1. kind int/0.
func nil : list(U). func cons(U, list(U)) : list(U).
pred p(int, list(int)). pred r(int, list(U)).
p(N, X) :- r(N, X).
r(N, []).
r(N, [X]) :- r(N, X).
""")
    q = parse_query("p(1, X)", program.signature)
    assert sr_certificate(program, q) is None
    assert subject_reduction(program, q, depth=3, bounded=True)[0].verdict == "fail"
    assert [f.clause for f in check_head_condition(program).findings] == [2]


# --------------------------------------------------------------- bounded SR

def test_bounded_check_fails_on_nesting(nest):
    q = parse_query("p(X)", nest.signature)
    rep = subject_reduction(nest, q, depth=4, bounded=True)[0]
    assert rep.verdict == "fail"
    assert rep.depth_bound == 4
    f = rep.findings[0]
    assert f.condition == "type-skeleton-nonproper"
    assert "go <- p(list(int))" in f.witness
    assert "clash" in f.witness


def test_counterexamples_smallest_first(nest):
    q = parse_query("p(X)", nest.signature)
    ces = list(subject_reduction_counterexamples(nest, q, depth=4))
    assert [height(s) for s, _, _ in ces] == [2, 3, 4]
    for s, ts, err in ces:
        assert is_proper_skeleton(s) is not None
        assert is_proper_skeleton(ts) is None
        assert err.kind == "clash"


def test_bounded_check_passes(append, semigen):
    qa = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    rep = subject_reduction(append, qa, depth=5, bounded=True)[0]
    assert rep.passed and rep.depth_bound == 5
    qs = parse_query("p(X, Y)", semigen.signature)
    assert subject_reduction(semigen, qs, depth=5, bounded=True)[0].passed


def test_bounded_check_requires_typable_query(nest):
    q = parse_query("p([[X]])", nest.signature)
    with pytest.raises(UntypableError):
        subject_reduction(nest, q, depth=2, bounded=True)
    with pytest.raises(UntypableError):
        monitored_answers(nest, q, depth=2)


# ----------------------------------------------------------------- monitor

def test_monitor_passes_where_static_fails(nest):
    q = parse_query("p(X)", nest.signature)
    assert monitored_answers(nest, q, depth=10)[0].passed
    assert subject_reduction(nest, q, depth=3, bounded=True)[0].verdict == "fail"


def test_monitor_append_and_fgs1(append, fgs1):
    qa = parse_query("app(Xs, [], Zs), r(Xs)", append.signature)
    assert monitored_answers(append, qa, depth=10)[0].passed
    qf = parse_query("fgs1(2, Y)", fgs1.signature)
    assert monitored_answers(fgs1, qf, depth=12)[0].passed


def test_monitor_reports_depth_and_selection(nest):
    q = parse_query("p(X)", nest.signature)
    rep = monitored_answers(nest, q, depth=6, selection="all")[0]
    assert rep.passed and rep.depth_bound == 6


def test_monitor_failure_keeps_collecting_answers():
    # q([[]]) hands t a list of lists where t expects list(int).
    program = parse_program("""
        kind list/1. kind int/0.
        func nil : list(U). func cons(U, list(U)) : list(U).
        pred p(list(int)). pred q(list(U)). pred t(list(int)).
        p(X) :- q(X), t(X).
        q([[]]).
        q([]).
        t(Y).
    """)
    q = parse_query("p(X)", program.signature)
    rep, cert, found = monitored_answers(program, q, depth=5)
    assert cert is None  # q([[]]) breaks the head condition and every partition
    assert [f.witness for f in rep.findings] == [
        "derived query t([[]]) has no typing (from p(X) via q(X_1), t(X_1) -> t([[]]))"]
    assert found == answers(program, q, depth=5)
    assert [render(a.apply(Var("X"))) for a in found] == ["[[]]", "[]"]
    assert monitored_answers(program, q, depth=5)[0] == rep


# ------------------------------------------------ ordered split equations

def test_eq_prime_structure_and_order(semigen):
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    root = next(s for s in proper_skeletons(semigen, "p(X, Y)", 1)
                if height(s) == 1)
    ts = type_skeleton_of(root, semigen)
    child = ts.children[0]
    pack = lambda ts_: TCon("$vec", ts_)
    assert eq_prime_of_type_skeleton(ts, part) == [
        (pack(ts.clause.body[0].args[:1]), pack(child.clause.head.args[:1])),
        (pack(child.clause.head.args[1:]), pack(ts.clause.body[0].args[1:])),
    ]


def test_eq_prime_guaranteed_for_semi_generic(semigen):
    part = make_partition(semigen, {"p": ("h", "b"), "q": ("h", "b")})
    seen = 0
    for s in proper_skeletons(semigen, "p(X, Y)", 3):
        ts = type_skeleton_of(s, semigen)
        assert ordered_unifiable(eq_prime_of_type_skeleton(ts, part)) == \
            "guaranteed"
        seen += 1
    assert seen >= 5


# ------------------------------------------------------------ instantiation

def test_assembled_typing_types_the_frontier(nest, semigen):
    checked = 0
    for program, qt in ((nest, "p(X)"), (semigen, "p(X, Y)"),
                        (nest, "r(X), p(Y)")):
        for s in proper_skeletons(program, qt, 2):
            ts = type_skeleton_of(s, program)
            theta = is_proper_skeleton(ts)
            if theta is None:
                continue
            u = assembled_variable_typing(s, ts, program, theta)
            t = most_general_derivation_tree(s)
            judge(u, frontier(t), sig=program.signature)
            checked += 1
    assert checked >= 10


def test_report_json_shape(nest, monkeypatch):
    monkeypatch.setenv("TLPC_COLOR", "0")
    q = parse_query("p(X)", nest.signature)
    rep = subject_reduction(nest, q, depth=3, bounded=True)[0]
    doc, lines = _report("all type skeletons proper", rep)
    assert doc["verdict"] == "fail"
    assert doc["depthBound"] == 3
    f = doc["findings"][0]
    assert set(f) == {"clause", "condition", "witness"}
    assert f["clause"] is None
    assert lines == ["all type skeletons proper: fail (up to depth 3)",
                     f"  type-skeleton-nonproper: {f['witness']}"]


# ------------------------------------------ against the generate-and-check oracle

def _sr_cases(corpus):
    """Every predicate with fresh variables, at depth 4 for the corpus and
    at depth 2 for the branching flat programs, and the extra multi-atom
    queries at depth 4.  flatnest's top also at depth 3, where its smallest
    counterexample lies, and a query that is not semi-generic under the
    partition that makes semigen's clauses semi-generic, and fails."""
    flatnest = parse_program(FLATNEST_TEXT)
    programs = [(p, 4) for p in corpus.values()]
    programs += [(parse_program(FLAT_TEXT), 2), (flatnest, 2)]
    for program, depth in programs:
        for pred, decl in program.signature.preds.items():
            args = ", ".join(f"V{i}" for i in range(len(decl.arg_types)))
            yield program, f"{pred}({args})" if args else pred, depth
    for name, text in EXTRA_QUERIES:
        yield corpus[name], text, 4
    yield flatnest, "top(T, L)", 3
    yield corpus["semigen"], "p(X, [Y|X])", 4


def _counterexample_text(found):
    if found is None:
        return None
    s, ts, err = found
    return (_skeleton(s, 1)[1], _type_skeleton(ts, 1)[1],
            f"{render(err.left)} = {render(err.right)}")


def test_sr_matches_generate_and_check_oracle(corpus):
    failing = 0
    certified = set()
    for program, text, depth in _sr_cases(corpus):
        q = parse_query(text, program.signature)
        want = list(reference_sr_check(program, q, depth))
        got = list(typed_proper_skeletons(program, q, depth))
        assert len(got) == len(want), text
        assert got == [(s, err is None) for s, _, err in want], text
        first = next(((s, ts, err) for s, ts, err in want if err is not None), None)
        rep, _, found = subject_reduction(program, q, depth, bounded=True)
        assert rep.verdict == ("pass" if first is None else "fail"), text
        assert _counterexample_text(found) == _counterexample_text(first), text
        failing += first is not None
        cert = sr_certificate(program, q)
        if cert is not None:
            assert first is None, (text, cert)
            certified.add(cert[0])
    assert failing >= 3
    assert certified == {HEAD_CONDITION, SEMI_GENERIC}


def test_certificate_implies_bounded_pass_on_random_programs(tmp_path):
    # Whenever a certificate holds for a typable random query, no proper
    # skeleton up to depth 3 has an improper type skeleton, and `sr` and
    # `sr --bounded` agree.
    held = {HEAD_CONDITION: 0, SEMI_GENERIC: 0}
    path = tmp_path / "random.tlp"

    # No shrinking: each step would rerun the oracle and two `sr` commands.
    @settings(max_examples=200, derandomize=True, deadline=None,
              phases=(Phase.explicit, Phase.generate),
              suppress_health_check=(HealthCheck.too_slow,))
    @given(programs_with_queries())
    def check(case):
        program, texts = case
        path.write_text(render(program))
        for text in texts:
            q = parse_query(text, program.signature)
            try:
                cert = sr_certificate(program, q)
            except UntypableError:
                continue
            if cert is None:
                continue
            held[cert[0]] += 1
            failing = [s for s, _, err in reference_sr_check(program, q, 3) if err is not None]
            assert not failing, (program, text, cert)
            argv = ["sr", str(path), "--query", text, "--depth", "3"]
            assert main(argv) == main(argv + ["--bounded"]) == 0, (program, text)

    check()
    assert held[HEAD_CONDITION] >= 20 and held[SEMI_GENERIC] >= 5, held


def _run_against_reference(program, q, depth, selection):
    """`monitored_answers` checked against a search with every derived query
    and every answer instance typed whole (`is_typable`): the same answers,
    and a monitor pass exactly when no derived query is untypable.  A
    certified run must find no untypable query and no untypable answer.
    Returns the certificate and the numbers of derived queries, answers,
    and untypable ones among each."""
    sig = program.signature
    ds = list(derivations(program, q, depth, selection))
    derived = [d.final for d in ds if d.steps]
    instances = [apply_subst(q, d.answer) for d in ds if d.succeeded]
    bad_derived = sum(not is_typable(f, sig) for f in derived)
    bad_answers = sum(not is_typable(a, sig) for a in instances)
    rep, cert, found = monitored_answers(program, q, depth, selection)
    assert found == [d.answer for d in ds if d.succeeded]
    assert rep.passed == (bad_derived == 0)
    if cert is not None:
        assert bad_derived == bad_answers == 0, (cert, render(q), selection)
    return cert, len(derived), len(instances), bad_derived, bad_answers


def test_certified_run_matches_the_reference_on_random_programs(nestcount):
    # The certified run types no derived query; the reference types each
    # one, and each answer instance, whole.  About 2-3 s.
    seen = {"certified": 0, "derived": 0, "answers": 0, "untypable": 0}

    @settings(max_examples=70, derandomize=True, deadline=None,
              phases=(Phase.explicit, Phase.generate),
              suppress_health_check=(HealthCheck.too_slow,))
    @given(programs_with_queries())
    def check(case):
        program, texts = case
        for text in texts:
            q = parse_query(text, program.signature)
            try:
                require_typable(program, q)
            except UntypableError:
                continue
            for selection in ("leftmost", "all"):
                cert, derived, answers, bad_derived, bad_answers = \
                    _run_against_reference(program, q, 4, selection)
                if cert is None:
                    seen["untypable"] += bad_derived + bad_answers
                else:
                    seen["certified"] += 1
                    seen["derived"] += derived
                    seen["answers"] += answers

    check()
    assert seen["certified"] >= 250 and seen["derived"] >= 2000, seen
    assert seen["answers"] >= 400 and seen["untypable"] >= 1, seen

    # mk(50) evaluates a subtraction at every step.
    mk = parse_program(MK_TEXT)
    q = parse_query("mk(50, Xs)", mk.signature)
    for selection in ("leftmost", "all"):
        assert _run_against_reference(mk, q, 51, selection) == (
            (HEAD_CONDITION, None), 52, 1, 0, 0)

    # nestcount's clauses are semi-generic under r(h, b), but this query is
    # not, and its run reaches the untypable r(1, 1).
    q = parse_query("r(2, [1])", nestcount.signature)
    for selection in ("leftmost", "all"):
        assert _run_against_reference(nestcount, q, 4, selection) == (None, 1, 0, 1, 0)


def test_sr_matches_the_oracle_on_random_programs():
    # Same skeletons and type verdicts, and the same first failing type
    # equation, which the oracle finds from its own argument-type equations.
    verdicts = set()

    def clash(err):
        return None if err is None else (err.kind, err.left, err.right)

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=(HealthCheck.too_slow,))
    @given(typed_programs())
    def check(program):
        for pred, decl in program.signature.preds.items():
            args = ", ".join(f"V{i}" for i in range(len(decl.arg_types)))
            q = parse_query(f"{pred}({args})", program.signature)
            want = list(reference_sr_check(program, q, 3))
            got = list(typed_proper_skeletons(program, q, 3))
            assert got == [(s, err is None) for s, _, err in want], (program, pred)
            verdicts.update(proper for _, proper in got)
            first = next((err for _, _, err in want if err is not None), None)
            found = next(subject_reduction_counterexamples(program, q, 3), None)
            assert clash(found[2] if found else None) == clash(first), (program, pred)

    check()
    assert verdicts == {True, False}


@pytest.fixture
def typing_calls(monkeypatch):
    """The clauses typed, in call order: every clause typing passes through
    `typecheck._clause_typing`.  Derived queries of a run are typed apart
    from it (`typecheck.typable_in_run`)."""
    import tlpc.typecheck as typecheck
    calls = []
    real = typecheck._clause_typing

    def counted(c, sig, fixed):
        calls.append(c)
        return real(c, sig, fixed)

    monkeypatch.setattr(typecheck, "_clause_typing", counted)
    return calls


def test_sr_types_each_clause_once(typing_calls, tmp_path):
    # One typing per program clause, then one of the query: no node copy
    # is typed, and flat has no `=` atom.
    flat = parse_program(FLAT_TEXT)
    q = parse_query("flat(T, L)", flat.signature)
    assert sum(1 for _ in typed_proper_skeletons(flat, q, 2)) > 20
    assert typing_calls == list(flat.clauses) + [wrap_query(q)]
    typing_calls.clear()
    path = tmp_path / "flat.tlp"
    path.write_text(FLAT_TEXT)
    assert main(["sr", str(path), "--query", "flat(T, L)", "--depth", "3"]) == 0
    assert typing_calls == list(flat.clauses) + [wrap_query(q)]


def test_sr_semi_generic_certificate_types_each_clause_once(typing_calls, semigen):
    # The certificate checks the query with the gate's typing of it.
    q = parse_query("p(X, Y)", semigen.signature)
    assert main(["sr", corpus_path("semigen"), "--query", "p(X, Y)", "--depth", "3"]) == 0
    assert typing_calls == list(semigen.clauses) + [wrap_query(q)]


def test_sr_counterexample_types_its_query_once(typing_calls, nest):
    # The counterexample's type skeleton reads the gate's typing of the query.
    q = parse_query("p(X)", nest.signature)
    assert main(["sr", corpus_path("nest"), "--query", "p(X)", "--depth", "6"]) == 1
    assert typing_calls == list(nest.clauses) + [wrap_query(q)]


def test_run_types_its_query_once(typing_calls, nestcount):
    q = parse_query("r(3, X)", nestcount.signature)
    assert main(["run", corpus_path("nestcount"), "--query", "r(3, X)", "--depth", "4"]) == 0
    assert typing_calls.count(wrap_query(q)) == 1


def test_skeletons_type_each_clause_once(typing_calls, tmp_path):
    flat = parse_program(FLAT_TEXT)
    path = tmp_path / "flat.tlp"
    path.write_text(FLAT_TEXT)
    assert main(["skeletons", str(path), "--query", "flat(T, L)", "--depth", "2", "--types"]) == 0
    for c in flat.clauses:
        assert sum(variant(c, t) for t in typing_calls) == 1, c


def test_skeletons_type_the_query_and_equality_once(typing_calls, tmp_path):
    # Every type skeleton's root reads the gate's typing of the query, and
    # `=` nodes read one typing of the built-in clause.
    flat = parse_program(FLAT_TEXT)
    path = tmp_path / "flat.tlp"
    path.write_text(FLAT_TEXT)
    assert main(["skeletons", str(path), "--query", "flat(T, L)", "--depth", "2", "--types"]) == 0
    assert typing_calls.count(wrap_query(parse_query("flat(T, L)", flat.signature))) == 1
    typing_calls.clear()
    assert main(["skeletons", corpus_path("eqnil"), "--query", "p", "--depth", "2", "--types"]) == 0
    assert sum(variant(c, EQ_CLAUSE) for c in typing_calls) == 1
    assert typing_calls.count(wrap_query((Atom("p"),))) == 1


@pytest.fixture
def run_typings(monkeypatch):
    """The derived queries the run monitor types, in call order, each with
    the memo it was typed under: every one passes through
    `srcheck.typable_in_run`."""
    import tlpc.srcheck as srcheck
    calls = []
    real = srcheck.typable_in_run

    def counted(q, sig, memo):
        calls.append((q, memo))
        return real(q, sig, memo)

    monkeypatch.setattr(srcheck, "typable_in_run", counted)
    return calls


def _ground_subterms(q):
    """Every ground subterm of the query's atoms, at any depth."""
    found, stack = set(), [t for a in q for t in a.args]
    while stack:
        t = stack.pop()
        if isinstance(t, Fun):
            if t.ground:
                found.add(t)
            stack += t.args
    return found


def _tree7(labels):
    """A complete binary tree of 7 nodes with the given labels, in order."""
    leaf = [f"node(leaf, {labels[i]}, leaf)" for i in (0, 2, 4, 6)]
    return (f"node(node({leaf[0]}, {labels[1]}, {leaf[1]}), {labels[3]}, "
            f"node({leaf[2]}, {labels[5]}, {leaf[3]}))")


# mk with a polymorphic list argument: its recursive clause fixes U = int in
# its head, so neither the head condition nor any partition holds.
MK_POLY_TEXT = MK_TEXT.replace("pred mk(int, list(int))", "pred mk(int, list(U))")


def test_run_reuses_principal_types_of_ground_subterms(typing_calls, run_typings):
    # An uncertified run is monitored.  flatnest's flat over a 7-node tree
    # reaches r, whose clauses block every certificate: the program's
    # clauses and the query are the only clauses typed, each derived query
    # is typed once, and all of them share one memo, which ends up holding
    # exactly the ground subterms they met, each with its principal type.
    # The labels are empty lists, so every r call is typable; r admits no
    # list longer than one, so there is no answer.
    flatnest = parse_program(FLATNEST_TEXT)
    q = parse_query(f"flat({_tree7(['[]'] * 7)}, L)", flatnest.signature)
    rep, cert, found = monitored_answers(flatnest, q, depth=40)
    assert cert is None
    assert rep.passed and found == []
    assert typing_calls == list(flatnest.clauses) + [wrap_query(q)]
    assert [t for t, _ in run_typings] == [d.final for d in derivations(flatnest, q, 40) if d.steps]
    memo = run_typings[0][1]
    assert all(m is memo for _, m in run_typings)
    assert set(memo) == set().union(*(_ground_subterms(t) for t, _ in run_typings))
    left, _, right = q[0].args[0].args  # the tree's subtrees, each met in the first resolvent
    assert render(memo[left]) == render(memo[right]) == "tree(list(A))"

    # mk(50) derives mk(49, Xs_1), mk(48, Xs_2), ...: each literal is
    # worked out once, and the memo holds nothing else.
    mk = parse_program(MK_POLY_TEXT)
    q = parse_query("mk(50, Xs)", mk.signature)
    run_typings.clear()
    rep, cert, found = monitored_answers(mk, q, depth=51)
    assert cert is None
    assert rep.passed and len(found) == 1
    memo = run_typings[0][1]
    assert set(memo) == {Fun(str(n)) for n in range(-1, 50)}
    assert {render(t) for t in memo.values()} == {"int"}


@pytest.mark.parametrize("text, query, depth", [
    (FLAT_TEXT, f"flat({_tree7(range(1, 8))}, L)", 40),
    (MK_TEXT, "mk(50, Xs)", 51),
], ids=["flat", "mk"])
def test_certified_run_types_no_derived_atom(run_typings, monkeypatch, text, query, depth):
    # flat and mk meet the head condition: the run types no derived query,
    # and gives the report and the answers of the monitored run.
    import tlpc.srcheck as srcheck
    program = parse_program(text)
    q = parse_query(query, program.signature)
    rep, cert, found = monitored_answers(program, q, depth=depth)
    assert cert == (HEAD_CONDITION, None)
    assert rep.passed and len(found) == 1
    assert run_typings == []
    monkeypatch.setattr(srcheck, "sr_certificate", lambda program, query: None)
    assert monitored_answers(program, q, depth=depth) == (rep, None, found)
    assert run_typings


@pytest.mark.parametrize("search, text, query, depth", [
    ("enumerate", FLAT_TEXT, "flat(T, L)", 3),
    ("typed", FLAT_TEXT, "flat(T, L)", 3),
    # top :- flat puts a one-atom call site below the root.
    ("enumerate", FLATNEST_TEXT, "top(T, L)", 4),
    ("typed", FLATNEST_TEXT, "top(T, L)", 4),
], ids=["enumerate", "typed", "flatnest-enumerate", "flatnest-typed"])
def test_root_options_stream(search, text, query, depth):
    # Every one-atom call site's options stream from the call site below
    # it: at the first skeleton of the greatest height only the current
    # option's subtree lists are alive, not the thousands of skeletons
    # among all the options of a one-atom clause.
    import gc
    program = parse_program(text)
    q = parse_query(query, program.signature)
    if search == "enumerate":
        found = enumerate_skeletons(program, q, depth)
    else:
        found = (s for s, _ in typed_proper_skeletons(program, q, depth))
    next(s for s in found if height(s) == depth)  # the search stays suspended in found
    gc.collect()
    assert sum(isinstance(o, Skeleton) for o in gc.get_objects()) < 500


def test_partition_search_types_each_clause_once(typing_calls):
    fgs2 = load_corpus("fgs2")  # not the shared fixture, whose typings may be cached
    assert search_partition(fgs2) is None
    assert 0 < len(typing_calls) <= len(fgs2.clauses)


def test_check_types_each_clause_once(typing_calls, tmp_path, capsys):
    path = tmp_path / "flat.tlp"
    path.write_text(FLAT_TEXT)
    files = [str(path)] + [corpus_path(name) for name in corpus_names()]
    for f in files:
        typing_calls.clear()
        main(["check", f])
        with open(f) as fh:
            assert len(typing_calls) <= len(parse_program(fh.read()).clauses), f


def test_sr_untypable_clause_reported_like_the_oracle(append):
    import dataclasses
    from tlpc.parser import parse_clause
    bad = parse_clause("r([X, [X]]).", append.signature)
    broken = dataclasses.replace(append,
                                 clauses=append.clauses[:2] + (bad,) + append.clauses[3:])
    q = parse_query("app(Xs, [], Zs), r(Xs)", broken.signature)
    with pytest.raises(UntypableError) as want:
        list(reference_sr_check(broken, q, 2))
    with pytest.raises(UntypableError) as got:
        list(typed_proper_skeletons(broken, q, 2))
    assert str(got.value) == str(want.value)
    assert "has no typing" in str(got.value)
