"""Generators and brute-force oracles shared by the test modules.

The randomized suites work over one small fixed signature (ints, lists,
pairs).  The matching/substitution helpers here are deliberately
independent re-implementations so they can serve as oracles for the
library's unification and tree machinery.
"""
from __future__ import annotations

import contextlib
import itertools
import re
import signal
import tracemalloc
from pathlib import Path

from hypothesis import strategies as st

from tlpc import corpus as _corpus_pkg
from tlpc.core import (
    Atom, Fun, NameSource, Param, Subst, TCon, Var, apply_subst, is_int_literal,
    rename_apart, resolution_clauses, variant, vars_in_order, vars_of,
)
from tlpc.parser import parse_clause, parse_program, parse_query
from tlpc.srcheck import (
    BODY_GENERIC, HEAD_GENERIC, Partition, check_semi_generic, type_clause, type_skeleton_of,
)
from tlpc.trees import (
    BOTTOM, DerivationTree, GroundAtomSet, derive_step, enumerate_skeletons, eval_arith,
    is_proper_skeleton, nodes,
)
from tlpc.typecheck import UntypableError, most_general_type
from tlpc.unify import UnificationError, match_terms, mgu_terms, mgu_types


def corpus_path(name: str) -> str:
    return str(Path(_corpus_pkg.__file__).parent / f"{name}.tlp")


REPO = Path(__file__).resolve().parent.parent
BENCH_PROGRAMS = REPO / "bench" / "programs"


def readme_transcripts() -> list[tuple[str, str]]:
    """Each `$ tlpc ...` line of the README's text blocks with the output
    printed under it, up to the next such line or the end of the block."""
    found = []
    for block in re.findall(r"^```text\n(.*?)^```", (REPO / "README.md").read_text(),
                            re.S | re.M):
        for part in re.split(r"^(?=\$ tlpc )", block, flags=re.M):
            if part.startswith("$ tlpc "):
                command, _, output = part.partition("\n")
                found.append((command[len("$ tlpc "):], output))
    return found


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the body once it has run `seconds` seconds, so
    that a test whose loop no longer ends fails instead of spinning.  No
    bound where SIGALRM is missing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def memory_limit(mib: float):
    """Trace the body's allocations with `tracemalloc`, and raise
    MemoryError once the memory traced so far exceeds `mib` MiB: checked
    every 0.1 s of CPU time while the body runs, and on its peak at the end.
    So a test of a memory bound fails early, and never exhausts memory.
    Without SIGVTALRM only the peak is checked."""
    limit = mib * 2 ** 20

    def check(signum=None, frame=None):
        used = tracemalloc.get_traced_memory()[1 if signum is None else 0]
        if used > limit:
            raise MemoryError(f"{used / 2 ** 20:.1f} MiB traced, over {mib} MiB")

    timed = hasattr(signal, "SIGVTALRM")
    if timed:
        previous = signal.signal(signal.SIGVTALRM, check)
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.1, 0.1)
    tracemalloc.start()
    try:
        yield
        check()
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        tracemalloc.stop()


SMALL_SIG_TEXT = """
kind int/0.
kind list/1.
kind pair/2.

func nil : list(U).
func cons(U, list(U)) : list(U).
func pr(U, V) : pair(U, V).

pred p1(U).
pred p2(U, list(U)).
pred rel(pair(U, V)).
"""

SMALL = parse_program(SMALL_SIG_TEXT)
SIG = SMALL.signature

INT = TCon("int")
A, B = Param("A"), Param("B")

PRED_DECLS = {
    "p1": (Param("U"),),
    "p2": (Param("U"), TCon("list", (Param("U"),))),
    "rel": (TCon("pair", (Param("U"), Param("V"))),),
}

CORPUS_QUERIES = [
    ("hqpr", "h(X)"),
    ("nest", "p(X)"),
    ("append", "app(Xs, [], Zs), r(Xs)"),
    ("eqnil", "p"),
    ("nestcount", "r(J, X)"),
    ("semigen", "p(X, Y)"),
    ("fgs1", "fgs1(2, Y)"),
    ("fgs3", "fgs3(1, Y)"),
]

EXTRA_QUERIES = [
    ("append", "app(Xs, Ys, Zs), app(Ys, Zs, Ws)"),
    ("hqpr", "h(X), q(Y)"),
    ("semigen", "q(X, Y), q(Y, Z)"),
    ("fgs1", "fs1(I, Y, J)"),
    ("nest", "r(X), p(Y)"),
]

# Tree flattening: two recursive calls and an append per node, so skeletons
# branch and share subtrees.
FLAT_TEXT = """
kind tree/1. kind list/1. kind int/0.
func leaf : tree(U).  func node(tree(U), U, tree(U)) : tree(U).
func nil : list(U).   func cons(U, list(U)) : list(U).
pred flat(tree(U), list(U)).  pred app(list(U), list(U), list(U)).
flat(leaf, []).
flat(node(L, X, R), Zs) :- flat(L, Ls), flat(R, Rs), app(Ls, [X|Rs], Zs).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
"""

# flat with the nesting predicate r of the corpus program nest called on
# the flattened list, under a top predicate fixing the element type to int.
FLATNEST_TEXT = """
kind tree/1. kind list/1. kind int/0.
func leaf : tree(U).  func node(tree(U), U, tree(U)) : tree(U).
func nil : list(U).   func cons(U, list(U)) : list(U).
pred top(tree(int), list(int)).  pred flat(tree(U), list(U)).
pred app(list(U), list(U), list(U)).  pred r(list(U)).
top(T, Zs) :- flat(T, Zs).
flat(leaf, []).
flat(node(L, X, R), Zs) :- flat(L, Ls), flat(R, Rs), app(Ls, [X|Rs], Zs), r(Zs).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
r([]).
r([X]) :- r(X).
"""


# Countdown lists: mk(N, Xs) gives Xs = [N, N-1, ..., 1].
MK_TEXT = """
kind list/1. kind int/0.
func nil : list(U).  func cons(U, list(U)) : list(U).
pred mk(int, list(int)).
mk(0, []).
mk(N, [N|Xs]) :- mk(N-1, Xs).
"""


def corpus_query(corpus, name, text):
    program = corpus[name]
    return program, parse_query(text, program.signature)


# ---------------------------------------------------------------- types

def types_st(with_params=True, max_leaves=3):
    leaves = [INT] + ([A, B] if with_params else [])
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda t: TCon("list", (t,)), sub),
            st.builds(lambda s, t: TCon("pair", (s, t)), sub, sub),
        ),
        max_leaves=max_leaves,
    )


# ------------------------------------------------- well-typed generation

def _type_pars(ty):
    if isinstance(ty, Param):
        return {ty}
    out = set()
    for a in ty.args:
        out |= _type_pars(a)
    return out


def _apply_ty(ty, theta):
    if isinstance(ty, Param):
        return theta.get(ty, ty)
    return TCon(ty.name, tuple(_apply_ty(a, theta) for a in ty.args))


class TypedBuilder:
    """Builds terms/atoms that are well typed by construction, recording a
    variable typing as it goes.  Follows the typing rules directly, so it
    is independent of the inference engine under test."""

    def __init__(self, draw):
        self.draw = draw
        self.u: dict[Var, TCon | Param] = {}
        self._n = itertools.count()

    def var_of(self, ty) -> Var:
        matching = [v for v, t in self.u.items() if t == ty]
        if matching and self.draw(st.booleans()):
            return self.draw(st.sampled_from(matching))
        v = Var(f"X{next(self._n)}")
        self.u[v] = ty
        return v

    def term_of(self, ty, depth=2):
        options = ["var"]
        if isinstance(ty, TCon):
            if ty.name == "int":
                options.append("lit")
            elif ty.name == "list":
                options.append("nil")
                if depth > 0:
                    options.append("cons")
            elif ty.name == "pair" and depth > 0:
                options.append("pr")
        pick = self.draw(st.sampled_from(options))
        if pick == "var":
            return self.var_of(ty)
        if pick == "lit":
            return Fun(self.draw(st.sampled_from(["0", "1", "2"])))
        if pick == "nil":
            return Fun("nil")
        if pick == "cons":
            return Fun("cons", (self.term_of(ty.args[0], depth - 1),
                                self.term_of(ty, depth - 1)))
        return Fun("pr", (self.term_of(ty.args[0], depth - 1),
                          self.term_of(ty.args[1], depth - 1)))

    def atom(self, depth=2) -> Atom:
        pred = self.draw(st.sampled_from(sorted(PRED_DECLS)))
        decl = PRED_DECLS[pred]
        pars = sorted({p for t in decl for p in _type_pars(t)},
                      key=lambda p: p.name)
        theta = {p: self.draw(types_st()) for p in pars}
        return Atom(pred, tuple(self.term_of(_apply_ty(t, theta), depth)
                                for t in decl))

    def equation(self, depth=2) -> Atom:
        ty = self.draw(types_st())
        return Atom("=", (self.term_of(ty, depth), self.term_of(ty, depth)))


@st.composite
def wt_term(draw):
    b = TypedBuilder(draw)
    ty = draw(types_st())
    t = b.term_of(ty)
    return b.u, t, ty


@st.composite
def wt_atom(draw):
    b = TypedBuilder(draw)
    a = b.atom()
    return b.u, a


@st.composite
def wt_equations(draw, max_eqs=2, extra_atom=False):
    b = TypedBuilder(draw)
    n = draw(st.integers(1, max_eqs))
    eqs = tuple(b.equation() for _ in range(n))
    if extra_atom:
        return b.u, eqs, b.atom()
    return b.u, eqs


def ground_subst_st(params):
    if not params:
        return st.just({})
    return st.fixed_dictionaries({p: types_st(with_params=False)
                                  for p in sorted(params, key=lambda p: p.name)})


# --------------------------------------------------- raw (untyped) terms

def raw_terms(max_leaves=4):
    return st.recursive(
        st.sampled_from([Var("X"), Var("Y"), Var("Z"),
                         Fun("nil"), Fun("1"), Fun("2")]),
        lambda sub: st.one_of(
            st.builds(lambda a, b: Fun("cons", (a, b)), sub, sub),
            st.builds(lambda a, b: Fun("pr", (a, b)), sub, sub),
        ),
        max_leaves=max_leaves,
    )


def raw_equations(max_eqs=3):
    return st.lists(st.tuples(raw_terms(), raw_terms()),
                    min_size=1, max_size=max_eqs)


# --------------------------------------------------- brute-force oracles

def ground_universe(depth=1):
    terms = {Fun("nil"), Fun("1"), Fun("2")}
    for _ in range(depth):
        grown = set(terms)
        for a in terms:
            for b in terms:
                grown.add(Fun("cons", (a, b)))
                grown.add(Fun("pr", (a, b)))
        terms = grown
    return sorted(terms, key=repr)


def _head_name(x):
    return x.pred if isinstance(x, Atom) else x.name


def subst_ground(obj, binding):
    if isinstance(obj, Var):
        return binding.get(obj, obj)
    if isinstance(obj, tuple):
        return tuple(subst_ground(o, binding) for o in obj)
    if isinstance(obj, Atom):
        return Atom(obj.pred, subst_ground(obj.args, binding))
    return Fun(obj.name, subst_ground(obj.args, binding))


def free_vars(obj):
    if isinstance(obj, Var):
        return {obj}
    if isinstance(obj, tuple):
        return set().union(*(free_vars(o) for o in obj)) if obj else set()
    return free_vars(obj.args)


def match_onto(pattern, target, binding=None):
    """One-sided structural match: bind pattern variables so that the
    pattern becomes the target.  Returns the binding or None."""
    b = dict(binding or {})

    def go(p, t):
        if isinstance(p, Var):
            if p in b:
                return b[p] == t
            b[p] = t
            return True
        if isinstance(p, tuple):
            return (isinstance(t, tuple) and len(p) == len(t)
                    and all(map(go, p, t)))
        if isinstance(t, Var) or type(p) is not type(t):
            return False
        return (_head_name(p) == _head_name(t)
                and len(p.args) == len(t.args)
                and all(map(go, p.args, t.args)))

    return b if go(pattern, target) else None


def brute_ground_unifiers(eqs, universe, max_vars=2):
    """All assignments of the equations' variables to universe terms that
    equalise every equation; None when there are too many variables to
    enumerate."""
    vs = sorted(free_vars(tuple(eqs)), key=lambda v: (v.name, v.idx))
    if len(vs) > max_vars:
        return None
    found = []
    for combo in itertools.product(universe, repeat=len(vs)):
        binding = dict(zip(vs, combo))
        if all(subst_ground(l, binding) == subst_ground(r, binding)
               for l, r in eqs):
            found.append(binding)
    return found


def ground_trees(skeleton, universe, max_free=3):
    """Brute-force enumeration of the ground derivation trees based on a
    skeleton: the root's variables range over the universe, every child
    head is matched structurally onto its parent's body atom, and any
    variables left free then range over the universe too.  Returns None
    when some node would leave too many variables to enumerate."""
    overflow = False

    def at_node(node, forced):
        nonlocal overflow
        free = sorted(free_vars((node.clause.head, node.clause.body))
                      - set(forced), key=lambda v: (v.name, v.idx))
        if len(free) > max_free:
            overflow = True
            return
        for combo in itertools.product(universe, repeat=len(free)):
            binding = {**forced, **dict(zip(free, combo))}
            child_lists = []
            ok = True
            for a, child in zip(node.clause.body, node.children):
                if child is BOTTOM:
                    child_lists.append([BOTTOM])
                    continue
                got = match_onto(child.clause.head, subst_ground(a, binding))
                if got is None:
                    ok = False
                    break
                subtrees = list(at_node(child, got))
                if not subtrees:
                    ok = False
                    break
                child_lists.append(subtrees)
            if not ok:
                continue
            for kids in itertools.product(*child_lists):
                yield DerivationTree(node.clause, node.clause_index,
                                     Subst(binding), tuple(kids))

    trees = list(at_node(skeleton, {}))
    return None if overflow else trees


def variant_queries(a, b):
    return variant(tuple(a), tuple(b))


# ------------------------------------------------ reference unifier

def eager_mgu(eqs, rigid=()):
    """Reference unifier for both levels: applies the bindings found so far
    to each equation before solving it, and rewrites every binding when a
    new one is added, so the bindings are idempotent at every step.  Same
    equation order, orientation, rigid parameters, and error reports as
    the library's unifier."""
    rigid = frozenset(rigid)

    def is_var(x):
        return isinstance(x, (Var, Param))

    def functor(x):
        return type(x), x.pred if isinstance(x, Atom) else x.name, len(x.args)

    binding = {}
    work = [(l, r, i) for i, (l, r) in enumerate(eqs)]
    work.reverse()
    while work:
        left, right, i = work.pop()
        left = apply_subst(left, binding)
        right = apply_subst(right, binding)
        if left == right:
            continue
        if is_var(left) or is_var(right):
            if is_var(right) and (not is_var(left) or left in rigid):
                left, right = right, left
            if left in rigid:
                raise UnificationError("clash", left, right, i)
            if left in vars_of(right):
                raise UnificationError("occur", left, right, i)
            one = {left: right}
            binding = {v: apply_subst(t, one) for v, t in binding.items()}
            binding[left] = right
            continue
        if functor(left) != functor(right):
            raise UnificationError("clash", left, right, i)
        for l, r in reversed(list(zip(left.args, right.args))):
            work.append((l, r, i))
    return Subst(binding)


# ------------------------------------------------ reference answers

def eager_answers(program, query, depth, selection="leftmost"):
    """Reference for `Derivation.answer`: the search of `trees.derivations`,
    in the same order and with the same fresh names, keeping the answer as
    a binding map of the query's variables that every step rewrites with
    its unifier (evaluating ground subtractions, as in the query before
    the first step).  Yields the answer of each derivation in search order."""
    clauses = resolution_clauses(program)
    ns = NameSource()

    def rec(cur, binding, steps):
        yield Subst({v: t for v, t in binding.items() if t != v})
        if steps >= depth or not cur:
            return
        positions = range(1, len(cur) + 1) if selection == "all" else (1,)
        for k in positions:
            a = cur[k - 1]
            for _, c in clauses:
                if c.head.pred != a.pred or len(c.head.args) != len(a.args):
                    continue
                got = derive_step(cur, k, rename_apart(c, ns))
                if got is None:
                    continue
                theta, nxt = got
                nb = {v: eval_arith(theta.apply(t)) for v, t in binding.items()}
                yield from rec(nxt, nb, steps + 1)

    yield from rec(eval_arith(tuple(query)), {v: v for v in vars_in_order(query)}, 0)


def reference_derivations(program, query, depth, selection="leftmost"):
    """Reference for `trees.derivations`, with no clause filter: every
    clause of the selected atom's predicate and arity is renamed apart with
    `rename_apart` and resolved with `mgu_terms`, and ground subtractions
    of the query and of each resolvent are evaluated.  Yields, for each
    derivation in search order, its steps as (position, clause index,
    renamed clause, mgu, query) and its answer: the most general unifier
    of all the steps' bindings, solved with `mgu_terms`, restricted to the
    query's variables and evaluated."""
    clauses = resolution_clauses(program)
    ns = NameSource()

    def answer(steps):
        theta = mgu_terms([(v, t) for s in steps for v, t in s[3].items()])
        return Subst({v: eval_arith(theta[v]) for v in vars_in_order(query) if v in theta})

    def rec(cur, steps):
        yield steps, answer(steps)
        if len(steps) >= depth or not cur:
            return
        positions = range(1, len(cur) + 1) if selection == "all" else (1,)
        for k in positions:
            a = cur[k - 1]
            for idx, c in clauses:
                if c.head.pred != a.pred or len(c.head.args) != len(a.args):
                    continue
                copy = rename_apart(c, ns)
                try:
                    theta = mgu_terms([(a, copy.head)])
                except UnificationError:
                    continue
                nxt = eval_arith(theta.apply(cur[:k - 1] + copy.body + cur[k:]))
                yield from rec(nxt, steps + ((k, idx, copy, theta, nxt),))

    yield from rec(eval_arith(tuple(query)), ())


# ------------------------------------------------ random typed programs

RANDOM_SIG_TEXT = """
kind list/1. kind int/0.
func nil : list(U).  func cons(U, list(U)) : list(U).
"""

# The declared argument types of the random programs' predicates.
DECLARED_POOL = ["U", "int", "list(U)", "list(int)", "list(list(U))"]


def _term_text(draw, depth=2):
    kinds = ["var", "var", "var", "nil", "lit"] + (["singleton", "singleton", "cons"]
                                                    if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return draw(st.sampled_from("XY"))
    if kind == "nil":
        return "[]"
    if kind == "lit":
        return draw(st.sampled_from("01"))
    if kind == "singleton":
        return f"[{_term_text(draw, depth - 1)}]"
    return f"[{_term_text(draw, depth - 1)}|{_term_text(draw, depth - 1)}]"


def _atom_text(draw, pred, arity):
    return f"{pred}({', '.join(_term_text(draw) for _ in range(arity))})"


def _skeleton_count(program, budget):
    """The most subtree options any predicate's call site has up to the
    budget: the enumeration's size, before any properness check."""
    count = {pred: 1 for pred in program.signature.preds}
    for _ in range(budget + 1):
        nxt = dict.fromkeys(count, 1)
        for c in program.clauses:
            k = 1
            for a in c.body:
                k *= count[a.pred]
            nxt[c.head.pred] += k
        count = nxt
    return max(count.values())


@st.composite
def typed_programs(draw, max_skeletons=400):
    """Small programs over lists and ints: two or three predicates with
    declared types from DECLARED_POOL, and up to four clauses with at most
    two body atoms and shallow argument terms, keeping only the typable
    ones.  Heads such as r([X]) over a body r(X) make type skeletons whose
    nodes need their parameters renamed apart.  Programs whose enumeration
    would exceed `max_skeletons` options per call site at depth 3 are
    trimmed clause by clause from the end."""
    arities = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    preds = {name: draw(st.lists(st.sampled_from(DECLARED_POOL), min_size=n, max_size=n))
             for name, n in zip("pqr", arities)}
    decls = "".join(f"pred {name}({', '.join(ts)}).\n" for name, ts in preds.items())
    sig = parse_program(RANDOM_SIG_TEXT + decls).signature
    clauses = []
    wanted = draw(st.integers(2, 4))
    for _ in range(4 * wanted):  # untypable draws are skipped
        if len(clauses) == wanted:
            break
        head = draw(st.sampled_from(sorted(preds)))
        body = [draw(st.sampled_from(sorted(preds)))
                for _ in range(draw(st.sampled_from([0, 1, 1, 2])))]
        text = _atom_text(draw, head, len(preds[head]))
        if body:
            text += " :- " + ", ".join(_atom_text(draw, b, len(preds[b])) for b in body)
        try:
            most_general_type(parse_clause(text + ".", sig), sig)
        except UntypableError:
            continue
        clauses.append(text + ".\n")
    program = parse_program(RANDOM_SIG_TEXT + decls + "".join(clauses))
    while _skeleton_count(program, 2) > max_skeletons:
        clauses.pop()
        program = parse_program(RANDOM_SIG_TEXT + decls + "".join(clauses))
    return program


@st.composite
def programs_with_queries(draw, queries=4):
    """A program of `typed_programs` with a few queries of one to three
    atoms over its predicates and `=`.  Their terms draw variables from X
    and Y, so atoms share variables, and they are not filtered for
    typability: ill-typed queries are as likely as typable ones."""
    program = draw(typed_programs())
    preds = program.signature.preds
    names = sorted(preds) + ["="]
    texts = []
    for _ in range(queries):
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            name = draw(st.sampled_from(names))
            atoms.append(f"{_term_text(draw)} = {_term_text(draw)}" if name == "="
                         else _atom_text(draw, name, len(preds[name].arg_types)))
        texts.append(", ".join(atoms))
    return program, texts


# -------------------------------------- reference subject-reduction check

def reference_sr_check(program, query, depth):
    """The bounded subject-reduction check by generate and check: every
    skeleton's interface equations are solved whole, and every proper one
    gets a type skeleton, typed node by node, whose argument-type equations
    (`recursive_eq_of_type_skeleton`, built here) are solved whole.  Yields
    each proper skeleton, smallest first, with its type skeleton and the
    failing type equation (None when the type skeleton is proper)."""
    for s in enumerate_skeletons(program, query, depth):
        if is_proper_skeleton(s) is None:
            continue
        ts = type_skeleton_of(s, program)
        try:
            mgu_types(recursive_eq_of_type_skeleton(ts))
        except UnificationError as err:
            yield s, ts, err
        else:
            yield s, ts, None


def reference_search_partition(program):
    """The first partition in `search_partition`'s order, predicates in
    declaration order and each one's marks through the h/b product with "h"
    first, over the full product, each checked whole; or None."""
    preds = program.signature.preds
    marks = [itertools.product("hb", repeat=len(d.arg_types)) for d in preds.values()]
    for combo in itertools.product(*marks):
        part = Partition(dict(zip(preds, combo)))
        if check_semi_generic(program, part).passed:
            return part
    return None


# ---------------------------------- reference fields of terms and types

def reference_depth(t):
    """0 for a variable or a constant, else one more than the deepest
    argument."""
    if isinstance(t, (Var, Param)) or not t.args:
        return 0
    return 1 + max(reference_depth(a) for a in t.args)


def reference_ground(t):
    """Does no variable or parameter occur in the term or type t?"""
    return not isinstance(t, (Var, Param)) and all(reference_ground(a) for a in t.args)


def reference_hash_key(t):
    """Nested tuples that hash as t does: an application hashes as the pair
    of its name and the tuple of its arguments, a variable as itself."""
    if isinstance(t, (Var, Param)):
        return t
    return (t.name, tuple(reference_hash_key(a) for a in t.args))


def reference_variant(a, b):
    """Equality up to a bijective renaming of variables and parameters:
    walks a and b in parallel and builds the bijection as it goes."""
    fwd, back = {}, {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (Var, Param)):
            if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
                return False
        elif isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        else:  # an application or an atom
            name = "pred" if isinstance(x, Atom) else "name"
            if getattr(x, name) != getattr(y, name) or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
    return True


# ------------------------------------------ reference ground consequences

def _reference_atom_depth(a):
    return max((reference_depth(t) for t in a.args), default=0)


def _reference_literals(program):
    seen = set()

    def walk(t):
        if isinstance(t, Fun):
            if not t.args and is_int_literal(t.name):
                seen.add(t.name)
            for a in t.args:
                walk(a)

    for c in program.clauses:
        for a in c.atoms():
            for t in a.args:
                walk(t)
    return seen


def _reference_universe(sig, depth, literals=()):
    """The ground terms of depth <= depth, grown by whole rounds and then
    filtered by depth."""
    funcs = list(sig.funcs.values())
    cur = {Fun(f.name) for f in funcs if not f.arg_types}
    if sig.has_int():
        cur |= {Fun(l) for l in literals}
    for _ in range(depth):
        nxt = set(cur)
        for f in funcs:
            if f.arg_types:
                for combo in itertools.product(cur, repeat=len(f.arg_types)):
                    nxt.add(Fun(f.name, combo))
        cur = nxt
    return {t for t in cur if reference_depth(t) <= depth}


def _reference_extend(binding, more):
    out = {v: apply_subst(t, more) for v, t in binding.items()}
    for v, t in more.items():
        out.setdefault(v, t)
    return out


def _reference_body_matches(body, by_pred, binding):
    if not body:
        yield binding
        return
    first = apply_subst(body[0], binding)
    if first.pred == "=" and len(first.args) == 2:
        try:
            theta = mgu_terms([(first.args[0], first.args[1])])
        except UnificationError:
            return
        yield from _reference_body_matches(body[1:], by_pred,
                                           _reference_extend(binding, theta))
        return
    for g in by_pred.get((first.pred, len(first.args)), ()):
        more = match_terms(first, g)
        if more is not None:
            yield from _reference_body_matches(body[1:], by_pred,
                                               _reference_extend(binding, more))


def reference_tp_step(program, current, universe=None):
    """One naive application of the bounded immediate-consequence operator
    to a GroundAtomSet: every clause is fired against the whole set.  A
    head variable ranges over the universe terms that fit under the bound
    at its deepest occurrence, and every grounded head's depth is walked
    afresh."""
    bound = current.depth_bound
    if universe is None:
        universe = _reference_universe(program.signature, bound, _reference_literals(program))
    depth_of = {t: reference_depth(t) for t in universe}
    pool_cache = {}

    def pool(allowed):
        if allowed not in pool_cache:
            pool_cache[allowed] = [t for t, d in depth_of.items() if d <= allowed]
        return pool_cache[allowed]

    by_pred = {}
    for a in current.atoms:
        by_pred.setdefault((a.pred, len(a.args)), []).append(a)
    produced = set()
    for c in program.clauses:
        for binding in _reference_body_matches(c.body, by_pred, {}):
            h = apply_subst(c.head, binding)
            if _reference_atom_depth(h) > bound:
                continue
            occ = {}

            def walk(t, d):
                if isinstance(t, Var):
                    occ[t] = max(occ.get(t, 0), d)
                else:
                    for s in t.args:
                        walk(s, d + 1)

            for t in h.args:
                walk(t, 0)
            frees = vars_in_order(h)
            for combo in itertools.product(*(pool(bound - occ[v]) for v in frees)):
                g = apply_subst(h, dict(zip(frees, combo)))
                if _reference_atom_depth(g) <= bound:
                    produced.add(g)
    return GroundAtomSet(frozenset(produced), bound)


def reference_tp_fixpoint(program, depth, max_iters=None):
    """The naive iteration of `reference_tp_step` from the empty set: the
    k-th round gives the k-th iterate."""
    universe = _reference_universe(program.signature, depth, _reference_literals(program))
    m = GroundAtomSet(frozenset(), depth)
    done = 0
    while max_iters is None or done < max_iters:
        nxt = reference_tp_step(program, m, universe)
        done += 1
        if nxt.atoms == m.atoms:
            return nxt
        m = nxt
    return m


# ------------------------------------------------- reference tree walks

def recursive_eq_of_skeleton(s):
    """Reference for `trees.eq_of_skeleton`: one recursive call per node."""
    eqs = []

    def walk(node):
        for a, child in zip(node.clause.body, node.children):
            if child is not BOTTOM:
                eqs.append((a, child.clause.head))
                walk(child)

    walk(s)
    return eqs


def recursive_eq_of_type_skeleton(ts):
    """The interface equations of a type skeleton between argument types:
    each parent body atom's argument types paired with its child's head
    argument types, parent before child, left to right; one recursive call
    per node."""
    eqs = []

    def walk(node):
        for a, child in zip(node.clause.body, node.children):
            if child is not BOTTOM:
                eqs.extend(zip(a.args, child.clause.head.args))
                walk(child)

    walk(ts)
    return eqs


def recursive_node_atoms(t):
    """Reference for `trees.node_atoms`."""
    out = []

    def walk(node):
        out.append(node.subst.apply(node.clause.head))
        for a, child in zip(node.clause.body, node.children):
            if child is BOTTOM:
                out.append(node.subst.apply(a))
            else:
                walk(child)

    walk(t)
    return out


def recursive_tree(root, text, indent, fields):
    """Reference for `cli._tree`: records and lines made on the way down,
    children attached on the way back up."""
    nodes, lines = [], []

    def emit(node, depth):
        me = len(nodes)
        if node is BOTTOM:
            nodes.append({"id": me, "kind": "bottom"})
            lines.append("  " * depth + "_|_")
            return me
        rec = {"id": me, "kind": "clause", "clauseIndex": node.clause_index, **fields(node)}
        nodes.append(rec)
        lines.append("  " * depth + text(rec))
        rec["children"] = [emit(c, depth + 1) for c in node.children]
        return me

    emit(root, indent)
    return {"root": 0, "nodes": nodes}, lines


# ------------------------------- paper machinery that only the tests use

def complete_node_count(node):
    return sum(n is not BOTTOM for _, _, n, _ in nodes(node))


def is_complete(node):
    return all(n is not BOTTOM for _, _, n, _ in nodes(node))


def check_derivation_tree(t):
    """Do the node labels actually agree on every interface?  (Each expanded
    body atom instance must equal its child's head instance.)"""
    return all(p.subst.apply(p.clause.body[i]) == n.subst.apply(n.clause.head)
               for p, i, n, _ in nodes(t) if p is not None and n is not BOTTOM)


def assembled_variable_typing(s, ts, program, theta):
    """One variable typing covering every node's clause copy in the
    skeleton s: each node's most general variable typing (`program.typing`),
    carried over to the copy's variables and, through the first-occurrence
    order of its type clause, to the parameters of its node in the type
    skeleton ts, then instantiated by theta, a solution of ts's equations.
    Sound because distinct nodes share no variables."""
    out = {}
    for (_, _, n, _), (_, _, m, _) in zip(nodes(s), nodes(ts)):
        if n is BOTTOM:
            continue
        typed, ct = program.typing(n.clause_index, n.clause)
        # Transparency: every variable's type is part of an argument's type.
        assert vars_of(ct.variable_typing) <= vars_of(ct.atom_types), typed
        pars = dict(zip(vars_in_order(type_clause(typed, ct)), vars_in_order(m.clause)))
        names = dict(zip(vars_in_order(typed), vars_in_order(n.clause)))
        out.update((names[v], theta.apply(apply_subst(t, pars)))
                   for v, t in ct.variable_typing.items())
    return out


def eq_prime_of_type_skeleton(ts, part):
    """The split form of the interface equations: each parent/child equation
    becomes one equation over the head-generic positions (child's types on
    the right) and one over the body-generic positions (parent's types on
    the right).  Each side is packed into a single type so the pair stays
    one equation."""

    def pack(types, marks, want):
        return TCon("$vec", tuple(t for t, m in zip(types, marks) if m == want))

    eqs = []
    for parent, i, child, _ in nodes(ts):
        if parent is None or child is BOTTOM:
            continue
        vec, head = parent.clause.body[i].args, child.clause.head.args
        marks = part.marks(parent.clause.body[i].pred, len(vec))
        eqs.append((pack(vec, marks, HEAD_GENERIC), pack(head, marks, HEAD_GENERIC)))
        eqs.append((pack(head, marks, BODY_GENERIC), pack(vec, marks, BODY_GENERIC)))
    return eqs


def ordered_unifiable(eqs):
    """Sufficient unifiability test for an oriented equation list.

    Returns "guaranteed" when (1) right-hand sides are pairwise
    variable-disjoint, (2) the dependency relation "r_i shares a variable
    with l_j" is acyclic, and (3) every left side is an instance of its
    right side.  Returns "unknown" otherwise; never claims non-unifiability.
    """
    eqs = list(eqs)
    lv = [vars_of(l) for l, _ in eqs]
    rv = [vars_of(r) for _, r in eqs]
    if (any(rv[i] & rv[j] for i in range(len(eqs)) for j in range(i + 1, len(eqs)))
            or any(match_terms(r, l) is None for l, r in eqs)):
        return "unknown"
    succ = [{j for j in range(len(eqs)) if rv[i] & lv[j] and not (i == j and l == r)}
            for i, (l, r) in enumerate(eqs)]
    # Acyclic exactly when dropping equations that depend on no remaining
    # one, round after round, drops them all.
    left = set(range(len(eqs)))
    while left:
        sinks = {i for i in left if not succ[i] & left}
        if not sinks:
            return "unknown"
        left -= sinks
    return "guaranteed"
