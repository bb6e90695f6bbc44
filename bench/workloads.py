"""The benchmark's workloads: their operations, inputs and expected results.

Every expected result is written by hand or computed here by a plain-Python
oracle that does not call `tlpc`.  This module does not import `tlpc` at
module level, so a set-up probe can time the import itself.
"""
from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
PROGRAMS = BENCH_DIR / "programs"
ROOT = BENCH_DIR.parent
CORPUS = ROOT / "src" / "tlpc" / "corpus"

WORKLOADS = ("sr-flat", "run-resolve", "tp-ground", "check-criteria")

# Operations whose failure is a known defect of the program under test.
# They still count as failed; they only keep `correct` true.  Remove an
# entry once the defect is fixed.
KNOWN_DEFECTS = {
    # search_partition reaches variant_types((B, C), (V, W)), whose
    # canonical renaming {B: A, C: B} is rejected as non-idempotent, so the
    # CLI reports bad input (exit 2) instead of a verdict.
    "check chain",
}

FLAT_PROPER_DEPTH3 = 2836  # proper skeletons for flat(T, L) at depth 3, per ROADMAP
APPEND_DEPTH = 3


@dataclass
class Op:
    """One operation a user makes.  `call` returns the raw outcome, `check`
    returns None when the outcome is right and an error class otherwise.
    `baseline` holds counter values measured when the benchmark was
    defined; the traced run reports its own beside them, since an
    optimisation may legitimately change them."""
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    baseline: dict[str, int] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (program path, query texts) parsed and validated by the set-up probe
    inputs: list[tuple[Path, list[str]]]


# ------------------------------------------------------------ oracles

def random_tree(rng: random.Random, nodes: int):
    """A ground binary tree (left, label, right) with `nodes` labelled
    nodes.  Each split sends between a third and two thirds of the
    remaining nodes left, so resolution cost varies little between draws."""
    if nodes == 0:
        return None
    rest = nodes - 1
    k = rng.randint(rest // 3, rest - rest // 3)
    return (random_tree(rng, k), rng.randrange(100), random_tree(rng, rest - k))


def tree_text(t) -> str:
    stack, out = [t], []
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif x is None:
            out.append("leaf")
        else:
            left, label, right = x
            stack.extend([")", right, f", {label}, ", left, "node("])
    return "".join(out)


def in_order(t) -> list[int]:
    out, stack = [], []
    while stack or t is not None:
        while t is not None:
            stack.append(t)
            t = t[0]
        t = stack.pop()
        out.append(t[1])
        t = t[2]
    return out


def flat_steps(t) -> int:
    """Resolution steps of flat(t, L): one per flat call, and one per app
    call, of which there are len(left) + 1 for each node."""
    if t is None:
        return 1
    return 1 + flat_steps(t[0]) + flat_steps(t[2]) + len(in_order(t[0])) + 1


def flat_skeleton_count(depth: int) -> int:
    """Skeletons of height <= depth for the query flat(T, L).  A call site
    of budget b is either unexpanded or, when b >= 0, one of the matching
    clauses with one such site of budget b - 1 per body atom."""
    def sites(pred: str, budget: int) -> int:
        if budget < 0:
            return 1
        if pred == "flat":  # flat(leaf, []) and the node clause
            return 1 + 1 + sites("flat", budget - 1) ** 2 * sites("app", budget - 1)
        return 1 + 1 + sites("app", budget - 1)  # both app clauses
    return sites("flat", depth - 1)


@functools.lru_cache(maxsize=None)
def append_fixpoint(depth: int) -> frozenset:
    """Ground atoms of the corpus program append within a term depth, as
    nested tuples: app(L, Y, L ++ Y) for every list L, r([1]) and go.  The
    ground universe is untyped: every term over nil, cons and the literal 1."""
    nil, one = ("nil",), ("1",)
    depth_of = {nil: 0, one: 0}
    for _ in range(depth):
        for a, b in [(a, b) for a in depth_of for b in depth_of]:
            depth_of.setdefault(("cons", a, b), 1 + max(depth_of[a], depth_of[b]))
    atoms = {("r", ("cons", one, nil)), ("go",)}
    for xs in depth_of:
        items, t = [], xs
        while t[0] == "cons":
            items.append(t[1])
            t = t[2]
        if t != nil:
            continue
        for ys, d in depth_of.items():
            if d + len(items) > depth:
                continue
            zs = ys
            for item in reversed(items):
                d = 1 + max(depth_of[item], d)
                zs = ("cons", item, zs)
            if d <= depth:
                atoms.add(("app", xs, ys, zs))
    return frozenset(atoms)


def as_tuple(x):
    """A tlpc Atom or Fun as the nested tuples the oracle uses."""
    head = x.pred if hasattr(x, "pred") else x.name
    return (head,) + tuple(as_tuple(a) for a in x.args)


# ------------------------------------------------------- expected text

_INDEXED = re.compile(r"\b([A-Za-z][A-Za-z0-9]*)_(\d+)\b")


def normalize(text: str) -> str:
    """Renumber machine-made variable and parameter names (X_12, A_1) by
    first occurrence, so that texts equal up to fresh-name choice compare
    equal while distinct names stay distinct."""
    seen: dict[str, int] = {}

    def sub(m):
        return f"{m.group(1)}_{seen.setdefault(m.group(0), len(seen) + 1)}"

    return _INDEXED.sub(sub, text)


NEST_SR_DEPTH6 = """\
all type skeletons proper: fail (up to depth 6)
  type-skeleton-nonproper: skeleton of height 2 rooted at go <- p(list(int)): type equation int = list(A_1) fails (clash)
counterexample skeleton:
  go :- p(X).   [query]
    p(X_2) :- r(X_2).   [clause 1]
      r([X_3]) :- r(X_3).   [clause 2]
        _|_
its type skeleton:
  go <- p(list(int))
    p(list(int)) <- r(list(int))
      r(list(list(A_1))) <- r(list(A_1))
        _|_
failing type equation: int = list(A_1)
"""

# The smallest counterexample: top calls flat, whose node clause calls r
# with the recursive r clause, which needs list(list(A)) where top fixed
# list(int).  Clauses are numbered in file order.
FLATNEST_SR_DEPTH4 = """\
all type skeletons proper: fail (up to depth 4)
  type-skeleton-nonproper: skeleton of height 3 rooted at go <- top(tree(int), list(int)): type equation int = list(A_2) fails (clash)
counterexample skeleton:
  go :- top(T, L).   [query]
    top(T_1, Zs_1) :- flat(T_1, Zs_1).   [clause 1]
      flat(node(L_1, X_1, R_1), Zs_2) :- flat(L_1, Ls_1), flat(R_1, Rs_1), app(Ls_1, [X_1|Rs_1], Zs_2), r(Zs_2).   [clause 3]
        _|_
        _|_
        _|_
        r([X_2]) :- r(X_2).   [clause 7]
          _|_
its type skeleton:
  go <- top(tree(int), list(int))
    top(tree(int), list(int)) <- flat(tree(int), list(int))
      flat(tree(A_1), list(A_1)) <- flat(tree(A_1), list(A_1)), flat(tree(A_1), list(A_1)), app(list(A_1), list(A_1), list(A_1)), r(list(A_1))
        _|_
        _|_
        _|_
        r(list(list(A_2))) <- r(list(A_2))
          _|_
failing type equation: int = list(A_2)
"""

NEST_CHECK = """\
head condition: fail
  clause 2: head-condition: head of r([X]) :- r(X). has most general type (list(list(A))), not a renaming of the declared (list(U))
semi-generic: fail
  semi-generic: no head/body marking of the argument positions makes every clause semi-generic
"""

# `tlpc check` verdict lines (findings, indented, are not compared) and
# exit codes, derived by hand: an atom's types are its predicate's declared
# types as instantiated by the clause's most general typing.
CHECK_EXPECTED = {
    "append": (0, ["head condition: pass", "partition (search): app(h, h, h); r(h)",
                   "semi-generic: pass"]),
    "eqnil": (0, ["head condition: pass", "partition (search): p()", "semi-generic: pass"]),
    "fgs1": (1, ["head condition: fail", "semi-generic: fail"]),
    "fgs2": (1, ["head condition: fail", "semi-generic: fail"]),
    "fgs3": (0, ["head condition: pass", "partition (search): fgs3(h, h); fgs3_aux(h, h, h)",
                 "semi-generic: pass"]),
    "hqpr": (0, ["head condition: pass", "partition (search): h(h); q(h); p(h); r(h)",
                 "semi-generic: pass"]),
    "nest": (1, None),  # whole text: NEST_CHECK
    "nestcount": (1, ["head condition: fail", "partition (annotated): r(h, b)",
                      "semi-generic: pass"]),
    "semigen": (1, ["head condition: fail", "partition (search): p(h, b); q(h, b)",
                    "semi-generic: pass"]),
    # Every head of flat and mk instantiates its declared types to a
    # renaming of them, so the all-head-generic marking works.
    "flat": (0, ["head condition: pass", "partition (search): flat(h, h); app(h, h, h)",
                 "semi-generic: pass"]),
    # r([X]) :- r(X) needs r(b); then the node clause's r(Zs) shares the
    # element type with its head (flat(h, h)) or with app, and any other
    # flat marking puts list(int) or tree(int) in top's body-generic part.
    "flatnest": (1, ["head condition: fail", "semi-generic: fail"]),
    "mk": (0, ["head condition: pass", "partition (search): mk(h, h)", "semi-generic: pass"]),
    "chain": (1, ["head condition: fail", "partition (search): p(b, h, h)",
                  "semi-generic: pass"]),
}


# ---------------------------------------------------------- operations

def run_cli(argv: list[str]):
    """`tlpc.cli.main(argv)` with stdout and stderr captured."""
    import contextlib
    import io

    from tlpc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli(code: int, text: str | None = None, lines: list[str] | None = None):
    def check(outcome) -> str | None:
        got_code, out, err = outcome
        if got_code != code:
            first = (err.strip().splitlines() or [""])[0]
            return f"wrong-exit-code {got_code}: {first}"
        if text is not None and normalize(out) != normalize(text):
            return "wrong-output"
        if lines is not None and [ln for ln in out.splitlines()
                                  if not ln.startswith(" ")] != lines:
            return "wrong-verdict"
        return None
    return check


def _cli_op(name: str, argv: list[str], check, baseline=None) -> Op:
    return Op(name, lambda: run_cli(argv), check, dict(baseline or {}))


def sr_flat(depth: int = 3) -> Workload:
    flat, flatnest, nest = PROGRAMS / "flat.tlp", PROGRAMS / "flatnest.tlp", CORPUS / "nest.tlp"
    baseline = {"trees.skeletons": flat_skeleton_count(depth)}
    if depth == 3:
        baseline["trees.proper"] = FLAT_PROPER_DEPTH3
    ops = [
        _cli_op("sr flat", ["sr", str(flat), "--query", "flat(T, L)", "--depth", str(depth)],
                _check_cli(0, f"all type skeletons proper: pass (up to depth {depth})\n"),
                baseline),
        _cli_op("sr nest", ["sr", str(nest), "--query", "p(X)", "--depth", "6"],
                _check_cli(1, NEST_SR_DEPTH6)),
        _cli_op("sr flatnest", ["sr", str(flatnest), "--query", "top(T, L)", "--depth", "4"],
                _check_cli(1, FLATNEST_SR_DEPTH4)),
    ]
    return Workload("sr-flat", ops, [(flat, ["flat(T, L)"]), (nest, ["p(X)"]),
                                     (flatnest, ["top(T, L)"])])


def run_answer_check(var: str, values: list[int], depth: int):
    expected = (f"answer: {var} = [{', '.join(map(str, values))}]\n"
                f"derived queries typable: pass (up to depth {depth})\n")
    return _check_cli(0, expected)


def run_resolve(seed: int, trees: int = 3, nodes: int = 30, mk_n: int = 300) -> Workload:
    mk, flat = PROGRAMS / "mk.tlp", PROGRAMS / "flat.tlp"
    rng = random.Random(seed)
    mk_query = f"mk({mk_n}, Xs)"
    ops = [_cli_op(f"run mk({mk_n})",
                   ["run", str(mk), "--query", mk_query, "--depth", str(mk_n + 1)],
                   run_answer_check("Xs", list(range(mk_n, 0, -1)), mk_n + 1))]
    queries = [mk_query]
    for i in range(trees):
        t = random_tree(rng, nodes)
        q = f"flat({tree_text(t)}, L)"
        depth = flat_steps(t)
        ops.append(_cli_op(f"run flat(tree {i + 1})",
                           ["run", str(flat), "--query", q, "--depth", str(depth)],
                           run_answer_check("L", in_order(t), depth)))
        queries.append(q)
    return Workload("run-resolve", ops, [(mk, queries[:1]), (flat, queries[1:])])


def tp_ground(depth: int = APPEND_DEPTH) -> Workload:
    path = CORPUS / "append.tlp"
    program = []

    def call():
        from tlpc import parse_program, tp_fixpoint
        if not program:  # parsed once, like a library user would
            program.append(parse_program(path.read_text(encoding="utf-8")))
        return tp_fixpoint(program[0], depth)

    expected = append_fixpoint(depth)

    def check(got) -> str | None:
        if len(got) != len(expected):
            return f"wrong-atom-count {len(got)}"
        if {as_tuple(a) for a in got.atoms} != expected:
            return "wrong-atoms"
        return None

    return Workload("tp-ground", [Op(f"tp_fixpoint append {depth}", call, check)],
                    [(path, [])])


def check_criteria() -> Workload:
    ops, inputs = [], []
    for stem, (code, lines) in CHECK_EXPECTED.items():
        path = PROGRAMS / f"{stem}.tlp"
        if not path.exists():
            path = CORPUS / f"{stem}.tlp"
        check = _check_cli(code, NEST_CHECK if lines is None else None, lines)
        ops.append(_cli_op(f"check {stem}", ["check", str(path)], check))
        inputs.append((path, []))
    return Workload("check-criteria", ops, inputs)


def build(name: str, seed: int) -> Workload:
    if name == "sr-flat":
        return sr_flat()
    if name == "run-resolve":
        return run_resolve(seed)
    if name == "tp-ground":
        return tp_ground()
    if name == "check-criteria":
        return check_criteria()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def setup_probe(workload: Workload) -> float:
    """Seconds to import tlpc and parse and validate the workload's programs
    and queries.  Meant to run first thing in a fresh process."""
    import time
    t0 = time.perf_counter()
    from tlpc import parse_program, parse_query, validate_signature
    for path, queries in workload.inputs:
        program = parse_program(path.read_text(encoding="utf-8"))
        report = validate_signature(program.signature)
        if not report.passed:
            raise ValueError(f"{path.name}: invalid signature")
        for q in queries:
            parse_query(q, program.signature)
    return time.perf_counter() - t0
