"""Command-line interface: verdicts, exit codes, and JSON output."""
from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tlpc
from tlpc.cli import main
from tlpc.corpus import corpus_names, load_corpus
from tlpc.parser import parse_program, parse_query, render
from tlpc.srcheck import subject_reduction, type_skeleton_of, type_skeleton_to_json
from tlpc.trees import enumerate_skeletons, skeleton_to_json, tp_fixpoint

from helpers import (
    BENCH_PROGRAMS, EXTRA_QUERIES, FLAT_TEXT, MK_TEXT, REPO, corpus_path, readme_transcripts,
)


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("TLPC_COLOR", "0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    got = capsys.readouterr()
    return code, got.out, got.err


# ------------------------------------------------------------------- check

def test_check_passing_program(capsys, fgs3):
    code, out, err = run_cli(capsys, "check", corpus_path("fgs3"))
    assert code == 0
    assert "head condition: pass" in out
    assert "semi-generic: pass" in out
    assert "partition (search): fgs3(h, h); fgs3_aux(h, h, h)" in out
    assert err == ""


def test_check_failing_program(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("fgs1"))
    assert code == 1
    assert "head condition: fail" in out
    assert "clause 4: head-condition:" in out
    assert "semi-generic: fail" in out
    assert "no head/body marking" in out


def test_check_head_only(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_path("nestcount"),
                           "--mode", "head")
    assert code == 1
    assert "semi-generic" not in out


def test_check_semi_with_annotation(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_path("nestcount"),
                           "--mode", "semi")
    assert code == 0
    assert "partition (annotated): r(h, b)" in out
    assert "semi-generic: pass" in out


def test_check_semi_auto_ignores_annotation(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_path("nestcount"),
                           "--mode", "semi", "--partition", "auto")
    assert code == 0
    assert "partition (search): r(h, b)" in out


def test_check_annotated_requires_annotations(capsys):
    code, out, err = run_cli(capsys, "check", corpus_path("hqpr"),
                             "--partition", "annotated")
    assert code == 2
    assert out == ""
    assert "no partition annotations" in err


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_path("semigen"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["head"]["verdict"] == "fail"
    assert doc["semi"]["verdict"] == "pass"
    assert doc["partition"] == {"p": ["h", "b"], "q": ["h", "b"]}
    assert doc["partitionSource"] == "search"


CHAIN = """
kind list/1.
func nil : list(U).
func cons(U, list(U)) : list(U).
pred p(list(U), V, W).
p([], Y, Z).
p([X], Y, Z) :- p(X, Y, Z).
"""


def test_check_chain_gives_a_verdict(capsys, tmp_path):
    # The partition search compares (B, C) with (V, W) up to renaming.
    f = tmp_path / "chain.tlp"
    f.write_text(CHAIN)
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "head condition: fail" in out
    assert "partition (search): p(b, h, h)" in out
    assert "semi-generic: pass" in out
    assert err == ""


# ------------------------------------------------------------------- infer

def test_infer_text(capsys):
    code, out, _ = run_cli(capsys, "infer", corpus_path("eqnil"))
    assert code == 0
    assert "clause 1: (list(A), list(A), list(B), list(B))" in out
    assert "p :- X = [], [] = []." in out


def test_infer_untypable_clause(capsys, tmp_path):
    src = parse_program(open(corpus_path("append")).read())
    text = open(corpus_path("append")).read() + "\nr([[1]]).\n"
    f = tmp_path / "bad.tlp"
    f.write_text(text)
    code, out, _ = run_cli(capsys, "infer", str(f))
    assert code == 1
    assert f"clause {len(src.clauses) + 1}: untypable:" in out


def test_infer_without_clauses_prints_nothing(capsys, tmp_path):
    f = tmp_path / "decls.tlp"
    f.write_text("kind int/0. pred p(int).\n")
    assert run_cli(capsys, "infer", str(f)) == (0, "", "")


NESTED_CLASH = """kind list/1.
kind int/0.
func nil : list(U).
func cons(U, list(U)) : list(U).
pred r(list(U)).
pred q(list(U), U).
r([X]).
q([[1, [2]], [3, [[4]]]], [[X]]) :- r([X, [[5]]]).
"""


def test_untypable_nested_argument_names_the_first_clash(capsys, tmp_path):
    # Which clash is reported follows the order of the typing equations.
    f = tmp_path / "clash.tlp"
    f.write_text(NESTED_CLASH)
    clause = "q([[1, [2]], [3, [[4]]]], [[X]]) :- r([X, [[5]]])."
    clash = "argument 2 of [1, [2]]: clash between list(int) and int"
    for argv in (("check", str(f)), ("run", str(f), "--query", "r(Y)")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: clause 2: {clause} has no typing: {clash}\n"
    code, out, _ = run_cli(capsys, "infer", str(f))
    assert code == 1
    assert out == f"clause 1: (list(A))\n  r([X]).\nclause 2: untypable: {clash}\n  {clause}\n"


def test_infer_json(capsys):
    code, out, _ = run_cli(capsys, "infer", corpus_path("append"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["clauses"][0]["types"] == "(list(A), list(A), list(A))"
    assert doc["clauses"][0]["atomTypes"] == ["(list(A), list(A), list(A))"]


# --------------------------------------------------------------------- run

def test_run_append(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("append"),
                           "--query", "app(Xs, [], Zs), r(Xs)", "--depth", "6")
    assert code == 0
    assert "answer: Xs = [1], Zs = [1]" in out
    assert "derived queries typable: pass (up to depth 6)" in out


def test_run_no_answers(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("nest"),
                           "--query", "p(X)", "--depth", "10")
    assert code == 0
    assert "no answers within 10 steps" in out
    assert "pass" in out


def test_run_ground_success_prints_true(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("eqnil"),
                           "--query", "p", "--depth", "4")
    assert code == 0
    assert "answer: true" in out


def test_run_fgs1(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("fgs1"),
                           "--query", "fgs1(2, Y)", "--depth", "12")
    assert code == 0
    assert "answer: Y = f(f(g(g(c))))" in out


def test_run_long_countdown(capsys, tmp_path):
    # n + 1 steps: the answer is resolved from the steps' unifiers once, at
    # the end, and its subtractions are evaluated without recursion;
    # derivations are searched with an explicit stack.
    f = tmp_path / "mk.tlp"
    f.write_text(MK_TEXT)
    for n in (400, 600, 1000, 2000):
        code, out, err = run_cli(capsys, "run", str(f), "--query", f"mk({n}, Xs)",
                                 "--depth", str(n + 1))
        assert code == 0
        countdown = ", ".join(str(k) for k in range(n, 0, -1))
        assert out.splitlines()[0] == f"answer: Xs = [{countdown}]"
        assert err == ""


def test_run_evaluates_subtraction_in_the_query(capsys):
    # A ground subtraction is evaluated in the query before the first step,
    # so `1-1` meets the head `mk(0, [])`.
    code, out, err = run_cli(capsys, "run", str(BENCH_PROGRAMS / "mk.tlp"),
                             "--query", "mk(1-1, Xs)", "--depth", "4")
    assert (code, err) == (0, "")
    assert out == "answer: Xs = []\nderived queries typable: pass (up to depth 4)\n"


def _many_int_facts(n):
    return ("kind int/0.\n" + "".join(f"pred p{i}(int).\n" for i in range(n))
            + "".join(f"p{i}(1).\n" for i in range(n)))


def _many_list_facts(n):
    return ("kind list/1. kind int/0.\nfunc nil : list(U). func cons(U, list(U)) : list(U).\n"
            + "".join(f"pred p{i}(list(U)).\n" for i in range(n))
            + "".join(f"p{i}([1]).\n" for i in range(n)))


def _long_body(n):
    return "pred q. pred r.\nq.\nr :- " + ", ".join(["q"] * n) + ".\n"


@pytest.mark.parametrize("make, argv, out", [
    # One declared predicate per level of the partition search.
    (_many_int_facts, ["check"],
     lambda n: ("head condition: pass\npartition (search): "
                + "; ".join(f"p{i}(h)" for i in range(n)) + "\nsemi-generic: pass\n")),
    # The head condition fails, so `sr` searches for a partition too.
    (_many_list_facts, ["sr", "--query", "p0(X)", "--depth", "1"],
     lambda n: "all type skeletons proper: pass (up to depth 1)\n"),
    # One body atom per level of tp's body join.
    (_long_body, ["tp", "--depth", "1"], lambda n: "q\nr\n2 ground atom(s) up to depth 1\n"),
], ids=["check", "sr", "tp"])
def test_searches_deeper_than_the_recursion_limit(capsys, tmp_path, make, argv, out):
    for n in (3, 1500):
        f = tmp_path / f"many{n}.tlp"
        f.write_text(make(n))
        code, got, err = run_cli(capsys, argv[0], str(f), *argv[1:])
        assert (code, got, err) == (0, out(n), ""), n


def _long_list_program(n, clauses):
    xs = ", ".join(f"X{i}" for i in range(n))
    return ("kind list/1.\nfunc nil : list(U). func cons(U, list(U)) : list(U).\n"
            "pred p(list(U)). pred r.\n" + clauses.format(xs=xs))


@pytest.mark.parametrize("clauses, argv, out", [
    # The answer applies the unifier to an n-element list of variables.
    ("p([{xs}]).\n", ["run", "--query", "p(L)", "--depth", "1"],
     lambda n: ("answer: L = [" + ", ".join(f"X{i}_{i + 1}" for i in range(n))
                + "]\nderived queries typable: pass (up to depth 1)\n")),
    # Solving the option's head applies the unifier to the fact's head.
    ("p([{xs}]).\n", ["sr", "--bounded", "--query", "p(L)", "--depth", "1"],
     lambda n: "all type skeletons proper: pass (up to depth 1)\n"),
    # Grounding `p(L)` and joining the body apply bindings to the body atom.
    ("p(L).\nr :- p([{xs}]).\n", ["tp", "--depth", "1"],
     lambda n: "p([[]])\np([])\n2 ground atom(s) up to depth 1\n"),
], ids=["run", "sr", "tp"])
def test_substitutes_into_lists_longer_than_the_recursion_limit(capsys, tmp_path, clauses,
                                                                argv, out):
    for n in (3, 2000):
        f = tmp_path / f"long{n}.tlp"
        f.write_text(_long_list_program(n, clauses))
        code, got, err = run_cli(capsys, argv[0], str(f), *argv[1:])
        assert (code, got, err) == (0, out(n), ""), n


def test_run_empty_query_answers_true(capsys):
    code, out, err = run_cli(capsys, "run", corpus_path("append"), "--query", "true")
    assert (code, err) == (0, "")
    assert out == "answer: true\nderived queries typable: pass (up to depth 5)\n"
    code, out, _ = run_cli(capsys, "run", corpus_path("append"), "--query", "true", "--json")
    assert json.loads(out)["answers"] == [{}]


def test_run_accepts_a_long_flat_list_literal(capsys, tmp_path):
    # A list literal is a `cons` chain as deep as the list is long, built by
    # a loop; validating its function symbols must not recurse down it.
    f = tmp_path / "mk.tlp"
    f.write_text(MK_TEXT)
    countdown = ", ".join(str(k) for k in range(1000, 0, -1))
    code, out, err = run_cli(capsys, "run", str(f), "--query", f"mk(1000, [{countdown}])",
                             "--depth", "2")
    assert (code, err) == (0, "")
    assert out.startswith("no answers within 2 steps\n")
    code, out, err = run_cli(capsys, "run", str(f), "--query", f"mk(1000, [{countdown}])",
                             "--depth", "1001")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "answer: true"


@pytest.mark.parametrize("query", [
    "app([{xs}], [], Z)",  # clashes with the first clause at a head functor
    "app([[{xs}]], Y, [[]|Z])",  # and with the second one below its head functors
])
def test_run_with_a_deep_clash_answers(capsys, query):
    # A failed head unification must not apply its bindings to the two
    # sides of the clash, or render them, before anyone reads them: here
    # the sides are 3000-element lists.
    xs = ", ".join(f"X{i}" for i in range(3000))
    code, out, err = run_cli(capsys, "run", corpus_path("append"), "--query",
                             query.format(xs=xs), "--depth", "3")
    assert (code, err) == (0, "")
    assert out == "no answers within 3 steps\nderived queries typable: pass (up to depth 3)\n"


def test_internal_error_exits_3(capsys, monkeypatch):
    import tlpc.cli as cli

    def crash(args, program, query):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_sr", crash)
    code, out, err = run_cli(capsys, "sr", corpus_path("nest"), "--query", "p(X)")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"


def test_too_deep_query_is_input_error(capsys):
    deep = "[" * 3000 + "]" * 3000
    code, out, err = run_cli(capsys, "run", corpus_path("nest"), "--query", f"p({deep})")
    assert code == 2
    assert out == ""
    assert "term nested too deeply" in err
    assert "internal error" not in err


def test_run_answers_a_query_nested_just_under_the_parser_limit():
    # The run monitor keys its typings by atom, and an atom's hash recurses
    # through its terms: a 320-deep list must still be monitored.  The
    # parser's limit counts the caller's frames, so the command runs in a
    # process of its own, as from a shell.
    deep = "[" * 320 + "1" + "]" * 320
    src = str(Path(tlpc.__file__).resolve().parent.parent)
    got = subprocess.run(
        [sys.executable, "-m", "tlpc.cli", "run", corpus_path("nest"),
         "--query", f"r({deep})", "--depth", "3"],
        capture_output=True, text=True,
        env={"PATH": "", "TLPC_COLOR": "0", "PYTHONPATH": src})
    assert got.returncode == 0, got.stderr
    assert got.stdout == "no answers within 3 steps\nderived queries typable: pass (up to depth 3)\n"


def test_run_json(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("append"),
                           "--query", "app(Xs, [], Zs), r(Xs)",
                           "--depth", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["answers"] == [{"Xs": "[1]", "Zs": "[1]"}]
    assert doc["monitor"]["verdict"] == "pass"
    assert doc["monitor"]["depthBound"] == 6


@pytest.mark.parametrize("path, query, depth, certificate", [
    (BENCH_PROGRAMS / "mk.tlp", "mk(5, Xs)", 6, {"criterion": "head condition"}),
    (corpus_path("nestcount"), "r(3, X)", 4,
     {"criterion": "semi-generic", "partition": {"r": ["h", "b"]}}),
    # No certificate: the monitor decides, and passes.
    (corpus_path("nest"), "p(X)", 6, None),
    (BENCH_PROGRAMS / "flatnest.tlp", "top(T, L)", 8, None),
], ids=["mk", "nestcount", "nest", "flatnest"])
def test_run_json_names_its_certificate(capsys, path, query, depth, certificate):
    # The same field as `sr --json`'s: the criterion that makes every
    # derived query typable, or null when the monitor typed them.
    code, out, _ = run_cli(capsys, "run", str(path), "--query", query,
                           "--depth", str(depth), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] == certificate
    assert doc["monitor"] == {"verdict": "pass", "findings": [], "depthBound": depth}


def test_run_untypable_query_is_input_error(capsys):
    code, out, err = run_cli(capsys, "run", corpus_path("nest"),
                             "--query", "p([[X]])", "--depth", "3")
    assert code == 2
    assert "not typable" in err


# ---------------------------------------------------------------------- sr

def test_sr_failure_dumps_counterexample(capsys):
    code, out, _ = run_cli(capsys, "sr", corpus_path("nest"),
                           "--query", "p(X)", "--depth", "4")
    assert code == 1
    assert "all type skeletons proper: fail (up to depth 4)" in out
    assert "counterexample skeleton:" in out
    assert "go :- p(X).   [query]" in out
    assert "_|_" in out
    assert "its type skeleton:" in out
    assert "failing type equation: int = list(A_1)" in out


def test_sr_pass(capsys):
    code, out, _ = run_cli(capsys, "sr", corpus_path("append"),
                           "--query", "app(Xs, [], Zs), r(Xs)", "--depth", "5")
    assert code == 0
    assert "all type skeletons proper: pass (up to depth 5)" in out
    assert "counterexample" not in out


def test_sr_json_round_trips_the_skeleton(capsys, nest):
    code, out, _ = run_cli(capsys, "sr", corpus_path("nest"),
                           "--query", "p(X)", "--depth", "3", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "fail"
    assert doc["certificate"] is None
    ce = doc["counterexample"]
    s, ts, _ = subject_reduction(nest, parse_query("p(X)", nest.signature), 3)[2]
    assert ce["skeleton"] == skeleton_to_json(s)
    assert ce["typeSkeleton"] == type_skeleton_to_json(ts)
    assert ce["typeSkeleton"]["nodes"][0]["label"] == "go <- p(list(int))"
    assert ce["equation"] == "int = list(A_1)"
    # A pass names the certificate that backs it, or null under --bounded,
    # where enumeration decides with the same report.
    for name, query, certificate in [
            ("append", "app(Xs, [], Zs), r(Xs)", {"criterion": "head condition"}),
            ("semigen", "p(X, Y)", {"criterion": "semi-generic",
                                    "partition": {"p": ["h", "b"], "q": ["h", "b"]}})]:
        argv = ["sr", corpus_path(name), "--query", query, "--depth", "3", "--json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"] == certificate
        assert doc["report"] == {"verdict": "pass", "findings": [], "depthBound": 3}
        assert doc["counterexample"] is None
        code, out, _ = run_cli(capsys, *argv, "--bounded")
        assert code == 0
        assert json.loads(out) == {**doc, "certificate": None}


def test_sr_certificate_enumerates_no_skeleton(capsys, monkeypatch, tmp_path):
    import tlpc.trees as trees

    def refuse(*args):
        raise AssertionError("skeletons enumerated")

    monkeypatch.setattr(trees, "_by_height", refuse)
    flat = tmp_path / "flat.tlp"
    flat.write_text(FLAT_TEXT)
    assert run_cli(capsys, "sr", str(flat), "--query", "flat(T, L)", "--depth", "3") == (
        0, "all type skeletons proper: pass (up to depth 3)\n", "")
    assert run_cli(capsys, "sr", corpus_path("append"), "--query", "app(Xs, [], Zs), r(Xs)",
                   "--depth", "50") == (
        0, "all type skeletons proper: pass (up to depth 50)\n", "")


def test_sr_bounded_enumerates(capsys, monkeypatch, tmp_path):
    import tlpc.trees as trees
    calls = []
    real = trees._by_height

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(trees, "_by_height", counted)
    flat = tmp_path / "flat.tlp"
    flat.write_text(FLAT_TEXT)
    got = run_cli(capsys, "sr", str(flat), "--query", "flat(T, L)", "--depth", "3", "--bounded")
    assert calls == [3]
    assert got == (0, "all type skeletons proper: pass (up to depth 3)\n", "")


# ---------------------------------------------------------------- skeletons

def test_skeletons_text(capsys):
    code, out, _ = run_cli(capsys, "skeletons", corpus_path("hqpr"),
                           "--query", "h(X)", "--depth", "1")
    assert code == 0
    assert "skeleton 1 (height 0): proper" in out
    assert "skeleton 2 (height 1): proper, mgu {X/X_1}" in out
    assert "2 skeleton(s) up to depth 1" in out


def test_skeletons_with_types(capsys):
    code, out, _ = run_cli(capsys, "skeletons", corpus_path("nest"),
                           "--query", "p(X)", "--depth", "2", "--types")
    assert code == 0
    assert "type skeleton (proper):" in out
    assert "type skeleton (not proper):" in out
    assert "r(list(list(" in out


def test_skeletons_json(capsys, append):
    code, out, _ = run_cli(capsys, "skeletons", corpus_path("append"),
                           "--query", "app(Xs, [], Zs), r(Xs)",
                           "--depth", "2", "--json", "--types")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == 2
    assert [e["height"] for e in doc["skeletons"]] == \
        sorted(e["height"] for e in doc["skeletons"])
    want = enumerate_skeletons(append, parse_query("app(Xs, [], Zs), r(Xs)", append.signature), 2)
    for e, s in zip(doc["skeletons"], want, strict=True):
        assert e["skeleton"] == skeleton_to_json(s)
        assert e["typeSkeleton"] == type_skeleton_to_json(type_skeleton_of(s, append))
        assert "typeProper" in e
        if e["proper"]:
            assert e["mgu"].startswith("{") or e["mgu"] == "{}"


def test_skeletons_untypable_query_is_input_error(capsys):
    code, _, err = run_cli(capsys, "skeletons", corpus_path("nest"),
                           "--query", "p([[X]])", "--depth", "1")
    assert code == 2
    assert "not typable" in err


# ------------------------------------------------------------ typing gate

@pytest.mark.parametrize("argv", [
    ["check"],
    ["run", "--query", "r(Xs)", "--depth", "1"],
    ["sr", "--query", "r(Xs)", "--depth", "1"],
    ["skeletons", "--query", "r(Xs)", "--depth", "1"],
    ["skeletons", "--query", "r(Xs)", "--depth", "1", "--types"],
], ids=lambda argv: " ".join(argv[:1] + argv[5:]))
def test_untypable_clause_is_named_before_any_output(capsys, tmp_path, argv):
    text = Path(corpus_path("append")).read_text() + "r([X, [X]]).\n"
    path = tmp_path / "broken.tlp"
    path.write_text(text)
    n = len(parse_program(text).clauses)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: clause {n}: r([X, [X]]). has no typing: ")


@pytest.mark.parametrize("command", ["sr", "run", "skeletons"])
def test_untypable_query_is_rejected_alike(capsys, command):
    code, out, err = run_cli(capsys, command, corpus_path("nest"),
                             "--query", "p([[X]])", "--depth", "2")
    assert (code, out, err) == (2, "", "error: query is not typable: p([[X]]): "
                                       "argument 1 of p([[X]]): clash between list(U_2) and int\n")


def test_untypable_query_error_gives_the_reason(capsys):
    code, out, err = run_cli(capsys, "run", corpus_path("append"),
                             "--query", "app([1, [2]], Y, Z)")
    assert (code, out) == (2, "")
    assert err == ("error: query is not typable: app([1, [2]], Y, Z): "
                   "argument 2 of [1, [2]]: clash between list(int) and int\n")


def _most_general_queries():
    """The most general query of every corpus and bench program (its first
    declared predicate applied to fresh variables), then the extra
    multi-atom queries, as (file, program, query)."""
    files = [corpus_path(n) for n in corpus_names()] + sorted(map(str, BENCH_PROGRAMS.glob("*.tlp")))
    for path in files:
        program = parse_program(Path(path).read_text())
        pred, decl = next(iter(program.signature.preds.items()))
        args = ", ".join(f"V{i}" for i in range(len(decl.arg_types)))
        yield path, program, f"{pred}({args})" if args else pred
    for name, text in EXTRA_QUERIES:
        yield corpus_path(name), load_corpus(name), text


def test_sr_json_is_the_library_verdict(capsys):
    # `sr --json` and `sr --bounded --json` print what `subject_reduction`
    # returns: the report, the certificate and the counterexample.
    certified = failing = 0
    for path, program, text in _most_general_queries():
        q = parse_query(text, program.signature)
        for bounded in (False, True):
            rep, cert, found = subject_reduction(program, q, 3, bounded)
            argv = ["sr", path, "--query", text, "--depth", "3", "--json"]
            code, out, _ = run_cli(capsys, *argv + ["--bounded"] * bounded)
            doc = json.loads(out)
            assert code == (0 if rep.passed else 1), (path, text)
            assert doc["report"] == rep.to_json(), (path, text, bounded)
            certificate = counterexample = None
            if cert is not None:
                certificate = {"criterion": cert[0]}
                if cert[1] is not None:
                    certificate["partition"] = cert[1].to_json()
            if found is not None:
                s, ts, err = found
                counterexample = {"skeleton": skeleton_to_json(s),
                                  "typeSkeleton": type_skeleton_to_json(ts),
                                  "equation": f"{render(err.left)} = {render(err.right)}"}
            assert doc["certificate"] == certificate, (path, text, bounded)
            assert doc["counterexample"] == counterexample, (path, text, bounded)
            certified += cert is not None
            failing += found is not None
    assert certified and failing


# ---------------------------------------------------------------------- tp

def test_tp_text(capsys, append):
    code, out, err = run_cli(capsys, "tp", corpus_path("append"), "--depth", "2")
    assert code == 0 and err == ""
    *lines, count = out.splitlines()
    want = tp_fixpoint(append, 2).atoms
    assert lines == sorted(render(a) for a in want)
    assert count == f"{len(want)} ground atom(s) up to depth 2"
    assert "app([1], [], [1])" in lines and "go" in lines


def test_tp_json(capsys, append):
    code, out, _ = run_cli(capsys, "tp", corpus_path("append"), "--depth", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"depth", "atoms"}
    assert doc["depth"] == 1
    assert doc["atoms"] == sorted(render(a) for a in tp_fixpoint(append, 1).atoms)
    assert len(doc["atoms"]) == 12


def test_tp_empty_fixpoint(capsys):
    code, out, _ = run_cli(capsys, "tp", corpus_path("nest"), "--depth", "2")
    assert code == 0
    assert out == "0 ground atom(s) up to depth 2\n"


@pytest.mark.parametrize("argv", [
    ["tp", "no_such_file.tlp", "--depth", "1"],
    ["tp", corpus_path("append"), "--depth", "-1"],
])
def test_tp_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "error" in err


def test_tp_requires_a_depth(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tp", corpus_path("append")])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


def test_tp_syntax_error(capsys, tmp_path):
    bad = tmp_path / "bad.tlp"
    bad.write_text("pred p(U).\np(X :- p(X).\n")
    code, out, err = run_cli(capsys, "tp", str(bad), "--depth", "1")
    assert code == 2
    assert out == "" and err


# ------------------------------------------------------------- input errors

def test_syntax_error(capsys, tmp_path):
    f = tmp_path / "broken.tlp"
    f.write_text("kind list/1.\npred p(list(U)).\np(X :- q.\n")
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 2
    assert "error" in err


def test_query_syntax_error(capsys):
    code, _, err = run_cli(capsys, "run", corpus_path("nest"),
                           "--query", "p(X", "--depth", "2")
    assert code == 2
    assert "expected" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_file.tlp")
    assert code == 2
    assert "error" in err


def test_negative_depth(capsys):
    code, _, err = run_cli(capsys, "run", corpus_path("nest"),
                           "--query", "p(X)", "--depth", "-2")
    assert code == 2
    assert "--depth" in err


def test_unknown_predicate_in_query(capsys):
    code, _, err = run_cli(capsys, "run", corpus_path("nest"),
                           "--query", "zzz(X)", "--depth", "2")
    assert code == 2
    assert "zzz" in err


# ------------------------------------------------------- README transcripts

def test_readme_has_transcripts():
    assert len(readme_transcripts()) == 7


@pytest.mark.parametrize("command, output",
                         [pytest.param(c, o, id=c) for c, o in readme_transcripts()])
def test_readme_transcript(capsys, monkeypatch, command, output):
    # The README wraps long lines, so whitespace is compared normalized.
    monkeypatch.chdir(REPO)
    main(shlex.split(command))
    assert capsys.readouterr().out.split() == output.split()


# ------------------------------------------------------------- entry point

def test_benchmark_imports_resolve():
    # The names the benchmark harness imports, and every exported name.
    import tlpc.cli
    for name in ("parse_program", "parse_query", "tp_fixpoint", "validate_signature"):
        assert callable(getattr(tlpc, name)), name
    assert callable(tlpc.cli.main)
    assert [name for name in tlpc.__all__ if not hasattr(tlpc, name)] == []


def test_every_public_name_is_used_or_exported():
    # A public top-level function or class of a `tlpc` module is read by
    # code in the package, not counting its own definition (docstrings are
    # not code), or exported in `tlpc.__all__`.
    import ast
    from collections import Counter
    modules = [ast.parse(p.read_text()) for p in sorted(Path(tlpc.__file__).parent.rglob("*.py"))]

    def references(tree) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    used = sum((references(m) for m in modules), Counter())
    unused = [d.name for m in modules for d in m.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and used[d.name] == references(d)[d.name] and d.name not in tlpc.__all__]
    assert unused == []


def test_installed_entry_point():
    # The package's own source directory stands in for an installation.
    src = str(Path(tlpc.__file__).resolve().parent.parent)
    got = subprocess.run(
        [sys.executable, "-m", "tlpc.cli", "check", corpus_path("append")],
        capture_output=True, text=True,
        env={"PATH": "", "TLPC_COLOR": "0", "PYTHONPATH": src})
    assert got.returncode == 0
    assert "head condition: pass" in got.stdout
