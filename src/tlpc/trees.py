"""Proof skeletons, derivation trees, derivations, and bounded consequences.

A skeleton fixes which clause resolves each call without committing to any
bindings; gluing its node interfaces together (parent body atom against child
head) gives an equation set whose unifiability decides whether the skeleton
describes a real derivation.  When it does, applying the most general unifier
node by node yields the most general derivation tree of that shape.  A type
skeleton is a skeleton of type clauses, so the same equations and
properness test serve it.

Every walk over a tree of clause nodes (skeletons, derivation trees and type
skeletons) reads `nodes`, which lists them in one order: prefix, parent
before child, left to right.  That order fixes the order of interface
equations, and so which type equation a check reports as failing.  Copies
are made by `rebuild`, bottom-up from that list.  Every depth-first walk
runs on `depth_first`, so none is bounded by the recursion limit.

SLD derivations resolve without rewriting the query: the bindings of the
current branch live in one store, undone as the search backtracks, and
only the selected atom is resolved under it.  A derivation is a chain of
steps, each pointing to the one before, so memory grows linearly with its
length; its queries and its steps tuple are built when first read.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator, Literal

from .core import (
    Atom,
    Clause,
    EQ,
    GO_CLAUSE_INDEX,
    Fun,
    NameSource,
    Program,
    Query,
    Signature,
    Term,
    Subst,
    Var,
    apply_subst,
    is_int_literal,
    rename_apart,
    resolution_clauses,
    variant,
    vars_in_order,
    wrap_query,
    MINUS,
)
from .unify import UnificationError, match_terms, mgu_terms


class _Bottom:
    """Marker for an unexpanded call site (an incomplete leaf)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


@dataclass(frozen=True)
class Skeleton:
    """A clause-labelled tree.  `children` has one entry per body atom of the
    node's clause, each either a Skeleton or BOTTOM.  Clause copies at
    distinct nodes share no variables."""
    clause: Clause
    clause_index: int
    children: tuple = ()

    def __post_init__(self):
        if len(self.children) != len(self.clause.body):
            raise ValueError("one child per body atom required")


@dataclass(frozen=True)
class DerivationTree:
    """A skeleton whose nodes additionally carry a substitution for the
    variables of their clause copy."""
    clause: Clause
    clause_index: int
    subst: Subst
    children: tuple = ()

    def __post_init__(self):
        if len(self.children) != len(self.clause.body):
            raise ValueError("one child per body atom required")


def depth_first(root, children) -> Iterator:
    """`root`, then depth first and lazily every node that `children(node)`
    lists.  One child iterator per level is held on a list, so depth is not
    bounded by the recursion limit."""
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()


def _kids(item: tuple) -> list:
    _, _, node, depth = item
    return [] if node is BOTTOM else [(node, i, kid, depth + 1) for i, kid in enumerate(node.children)]


def nodes(root) -> Iterator[tuple]:
    """Every node of a tree of clause nodes in prefix order, BOTTOM leaves
    included, as (parent, index, node, depth): `node` is child `index` of
    `parent`, `depth` levels below the root (whose parent and index are
    None)."""
    return depth_first((None, None, root, 0), _kids)


def rebuild(root, make):
    """A copy of a tree: `make(node)` is called on each clause node in prefix
    order and gives a function from the node's copied children to its copy.
    BOTTOM leaves stay BOTTOM.  The copy is assembled bottom-up from a list."""
    plan = [(None, 0) if n is BOTTOM else (make(n), len(n.children))
            for _, _, n, _ in nodes(root)]
    built: list = []
    for copy, arity in reversed(plan):
        built.append(BOTTOM if copy is None else copy(tuple(built.pop() for _ in range(arity))))
    return built[0]


def height(node) -> int:
    """Levels of complete nodes below the root (BOTTOM leaves do not count)."""
    return max(d for _, _, n, d in nodes(node) if n is not BOTTOM)


# ------------------------------------------------------------ enumeration

def _options(clauses, atom: Atom, budget: int, ns: NameSource,
             allow_bottom: bool, build) -> Iterator:
    """Subtree options for one call site: BOTTOM (if allowed), then the
    options of height <= budget rooted at each matching clause, renamed
    apart (`_rooted`)."""
    if allow_bottom:
        yield BOTTOM
    if budget >= 0:
        for idx, c in clauses:
            if c.head.pred == atom.pred and len(c.head.args) == len(atom.args):
                yield from _rooted(clauses, rename_apart(c, ns), idx, budget, ns, allow_bottom, build)


def _rooted(clauses, root: Clause, root_index: int, budget: int,
            ns: NameSource, allow_bottom: bool, build=Skeleton) -> Iterator:
    """The options rooted at `root`, each made by `build(root, root_index,
    children)` from options of its body atoms' call sites; options for
    which `build` returns None are left out.  With one body atom they stream
    from its call site.  With more, `product` takes each slot in full, one
    after the other, before the first option.  Either way fresh names are
    drawn in the same order whatever the consumer does."""
    slots = [_options(clauses, b, budget - 1, ns, allow_bottom, build)
             for b in root.body]
    # A one-atom chain nests these generators one level per call, so each
    # Python frame per level lowers the deepest chain the recursion limit
    # allows: zip adds none, a generator expression would add one.
    combos = zip(slots[0]) if len(slots) == 1 else itertools.product(*slots)
    for combo in combos:
        opt = build(root, root_index, combo)
        if opt is not None:
            yield opt


def _by_height(program: Program, query: Query, depth: int, build, height_of) -> Iterator:
    """The query's root options, made by `build`, of each height from 0 up
    to `depth` in turn; `height_of(option)` gives an option's height."""
    clauses = resolution_clauses(program)
    root = wrap_query(query)
    ns = NameSource()
    for h in range(depth + 1):
        for opt in _rooted(clauses, root, GO_CLAUSE_INDEX, h, ns, True, build):
            if height_of(opt) == h:
                yield opt


def enumerate_skeletons(program: Program, query: Query,
                        depth: int = 5) -> Iterator[Skeleton]:
    """All skeletons for the query against the program, in order of height.

    The root is the wrapper clause whose body is the query; it keeps the
    query's own variables.  Every other node gets a fresh clause copy.  The
    builtin equality clause participates like a program clause.  Heights run
    from 0 up to `depth`.
    """
    yield from _by_height(program, query, depth, Skeleton, height)


def enumerate_proof_skeletons(program: Program, depth: int) -> Iterator[Skeleton]:
    """Complete skeletons (no BOTTOM leaves) of height <= depth rooted at each
    clause of the program, including the builtin equality clause."""
    clauses = resolution_clauses(program)
    ns = NameSource()
    for h in range(depth + 1):
        for idx, c in clauses:
            copy = rename_apart(c, ns)
            for s in _rooted(clauses, copy, idx, h, ns, False):
                if height(s) == h:
                    yield s


# ------------------------------------------------------------- properness

def eq_of_skeleton(s: Skeleton) -> list[tuple[Atom, Atom]]:
    """Interface equations: each expanded body atom equated with its child's
    head, parent before child, left to right.  In a type skeleton, whose
    clauses are type clauses, they equate argument types."""
    return [(p.clause.body[i], n.clause.head) for p, i, n, _ in nodes(s)
            if p is not None and n is not BOTTOM]


def is_proper_skeleton(s: Skeleton) -> Subst | None:
    """The most general unifier of the skeleton's interface equations, or
    None when they do not unify.  Serves skeletons and type skeletons."""
    try:
        return mgu_terms(eq_of_skeleton(s))
    except UnificationError:
        return None


def most_general_derivation_tree(s: Skeleton) -> DerivationTree | None:
    """Label each node of a proper skeleton with the interface unifier
    restricted to that node's clause variables."""
    theta = is_proper_skeleton(s)
    if theta is None:
        return None
    # A restriction of an idempotent unifier is idempotent.  Looking up each
    # clause's own variables keeps the labelling linear in the tree's size.
    return rebuild(s, lambda n: partial(DerivationTree, n.clause, n.clause_index, Subst.triangular(
        {v: theta[v] for v in vars_in_order(n.clause) if v in theta})))


def head_atom(t: DerivationTree) -> Atom:
    return t.subst.apply(t.clause.head)


def node_atoms(t: DerivationTree) -> list[Atom]:
    """All atoms of the tree in prefix order: each node's instantiated head,
    with unexpanded body atoms appearing where their child would."""
    return [p.subst.apply(p.clause.body[i]) if n is BOTTOM else n.subst.apply(n.clause.head)
            for p, i, n, _ in nodes(t)]


def frontier(t: DerivationTree) -> Query:
    """The instantiated unexpanded body atoms, left to right: the query still
    to be solved."""
    return tuple(p.subst.apply(p.clause.body[i]) for p, i, n, _ in nodes(t) if n is BOTTOM)


def skeleton_of(t: DerivationTree) -> Skeleton:
    return rebuild(t, lambda n: partial(Skeleton, n.clause, n.clause_index))


def same_shape(a, b) -> bool:
    """Same clause choices in the same arrangement; node clauses may be
    renamed copies of one another.  A prefix sequence with each node's child
    count fixes its tree, so the two sequences are compared pairwise."""
    return all(
        x is y if x is BOTTOM or y is BOTTOM else
        x.clause_index == y.clause_index and len(x.children) == len(y.children)
        and variant(x.clause, y.clause)
        for (_, _, x, _), (_, _, y, _) in zip(nodes(a), nodes(b)))


# ------------------------------------------------------------- derivations

def _rebuilt(t: Term, store: dict, arith: bool) -> Term:
    """`t` with each variable that `store` binds replaced by its value, in
    turn resolved (acyclic triangular bindings applied until none is left)
    and, when `arith`, each ground subtraction of integer literals by its
    value.  Rebuilt from an explicit stack of frames (node, arguments, new
    arguments so far); constants, and ground terms unless `arith`, are kept."""
    stack = [(None, (t,), [])]
    while True:
        node, args, done = stack[-1]
        for a in args[len(done):]:
            while type(a) is Var and (value := store.get(a)) is not None:
                a = value
            if type(a) is Var or not a.args or a.ground and not arith:
                done.append(a)
            else:
                stack.append((a, a.args, []))
                break
        else:
            stack.pop()
            if node is None:
                return done[0]
            if arith and node.name == MINUS and len(done) == 2 and all(
                    type(x) is Fun and not x.args and is_int_literal(x.name) for x in done):
                new = Fun(str(int(done[0].name) - int(done[1].name)))
            else:
                new = node if tuple(done) == args else Fun(node.name, tuple(done))
            stack[-1][2].append(new)


def eval_arith(obj):
    """Replace every ground subtraction of integer literals with its value.
    Works on terms, atoms and queries.  Terms are walked with an explicit
    stack, so their depth is not bounded by the recursion limit."""
    t = type(obj)
    if t is Var or t is Fun:
        return _rebuilt(obj, {}, True)
    if t is Atom:
        return Atom(obj.pred, tuple([_rebuilt(a, {}, True) for a in obj.args]))
    if t is tuple:
        return tuple([eval_arith(a) for a in obj])
    raise TypeError(f"cannot evaluate {obj!r}")


class Step:
    """One resolution step: the selected atom's position (1-based), the
    clause used (as the renamed copy actually unified with), the unifier,
    and the query it produced, which has `size` atoms.  `parent` is the step
    before, or the query that the first step resolved; `count` numbers the
    steps from 1.  The query is built from the parent's when first read and
    kept; ground subtractions in it are evaluated when `arith`."""
    __slots__ = ("position", "clause_index", "clause", "mgu", "parent", "count", "size",
                 "arith", "_query")

    def __init__(self, position: int, clause_index: int, clause: Clause, mgu: Subst,
                 parent, count: int, size: int, arith: bool):
        self.position, self.clause_index, self.clause, self.mgu = position, clause_index, clause, mgu
        self.parent, self.count, self.size, self.arith = parent, count, size, arith
        self._query = None

    @property
    def query(self) -> Query:
        todo, s = [], self  # built down from the nearest known query, without recursion
        while type(s) is Step and s._query is None:
            todo.append(s)
            s = s.parent
        q = s._query if type(s) is Step else s
        for s in reversed(todo):
            q = s.mgu.apply(q[:s.position - 1] + s.clause.body + q[s.position:])
            s._query = q = eval_arith(q) if s.arith else q
        return q


@dataclass(frozen=True)
class Derivation:
    """A derivation of `query`: the chain of steps that ends at `last`, or
    none.  Its steps tuple is built when first read, and kept."""
    query: Query
    last: Step | None = None

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        out, s = [], self.last
        while type(s) is Step:
            out.append(s)
            s = s.parent
        return tuple(reversed(out))

    @property
    def length(self) -> int:
        return 0 if self.last is None else self.last.count

    @property
    def answer(self) -> Subst:
        """The composition of the steps' unifiers, restricted to the query's
        variables, with ground subtractions evaluated.  Each unifier binds
        only variables the earlier steps left free, so their bindings as the
        solver left them form one triangular substitution without cycles,
        whose resolution for the query's variables is the answer."""
        theta = Subst.triangular({v: t for s in self.steps for v, t in s.mgu.bindings.items()})
        return Subst({v: eval_arith(theta[v]) for v in vars_in_order(self.query) if v in theta})

    @property
    def final(self) -> Query:
        return self.query if self.last is None else self.last.query

    @property
    def succeeded(self) -> bool:
        return not (self.query if self.last is None else self.last.size)


def derive_step(query: Query, position: int, clause: Clause) -> tuple[Subst, Query] | None:
    """Resolve the atom at `position` (1-based) with `clause`, which must
    already be renamed apart from the query.  Ground subtractions in the
    result are evaluated.  None when the head does not unify."""
    if not 1 <= position <= len(query):
        raise IndexError(f"no atom at position {position}")
    a = query[position - 1]
    if clause.head.pred != a.pred or len(clause.head.args) != len(a.args):
        return None
    try:
        theta = mgu_terms([(a, clause.head)])
    except UnificationError:
        return None
    return theta, eval_arith(theta.apply(query[:position - 1] + clause.body + query[position:]))


def _tops(args: tuple) -> tuple:
    """Each argument's top functor, (name, arity), or None for a variable."""
    return tuple(None if type(t) is Var else (t.name, len(t.args)) for t in args)


def _push(atoms, rest: tuple | None) -> tuple | None:
    """The goal list `atoms` then `rest`: (atom, rest) cells, None when empty."""
    for a in reversed(atoms):
        rest = (a, rest)
    return rest


def derivations(program: Program, query: Query, depth: int = 5,
                selection: Literal["leftmost", "all"] = "leftmost") -> Iterator[Derivation]:
    """Every derivation of at most `depth` steps, including all prefixes.

    Clauses are tried in program order (builtin equality last); under
    "leftmost" only the first atom is selected, under "all" every position
    is tried.  Each clause of the selected atom's predicate is renamed
    apart, from its variables listed once per call, and unified with it.
    A clause whose head has at some argument a top functor other than the
    atom's is skipped before renaming; it still uses up the fresh names its
    copy would have drawn, so every copy is named as if none were skipped.

    Resolution shares structure, as in Prolog: goals stay as the clauses
    give them, in a linked list, and the unifiers of the steps on the
    current branch keep their bindings in one store, from which a step's
    leave when the search backtracks past it.  Only the selected atom is
    resolved under the store, into the atom that the rewritten query would
    hold, so every unifier is as if the query were rewritten.  Ground
    subtractions are evaluated, in the query once and in every selected
    atom, only when the query or a clause contains `-`.  A derivation reads
    none of the store: its queries and answer come from its chain of steps.
    `Derivation.query` is the query as given.
    """
    if selection not in ("leftmost", "all"):
        raise ValueError(f"unknown selection rule: {selection}")
    clauses = resolution_clauses(program)
    by_pred: dict[tuple, list] = {}
    for idx, c in clauses:
        by_pred.setdefault((c.head.pred, len(c.head.args)), []).append(
            (idx, c, vars_in_order(c), _tops(c.head.args)))
    drawn = 0  # fresh variable indices issued so far
    arith = MINUS in _function_names([c for _, c in clauses] + [wrap_query(query)])
    start = eval_arith(tuple(query)) if arith else tuple(query)
    store: dict = {}  # the bindings of the steps on the current branch

    def children(node: tuple) -> Iterator[tuple]:
        nonlocal drawn
        d, goals = node
        if goals is None or d.length >= depth:
            return
        parent, size = (start, len(start)) if d.last is None else (d.last, d.last.size)
        before: list[Atom] = []  # the goals left of position k
        for k in range(1, size + 1 if selection == "all" else 2):
            atom, rest = goals
            a = Atom(atom.pred, tuple([_rebuilt(t, store, arith) for t in atom.args]))
            tops = _tops(a.args)
            for idx, c, vs, heads in by_pred.get((a.pred, len(a.args)), ()):
                first = drawn
                drawn += len(vs)  # also for a skipped clause, as if it were renamed
                if any(h != t for h, t in zip(heads, tops) if h and t):
                    continue
                copy = apply_subst(c, {v: Var(v.name, first + i) for i, v in enumerate(vs, 1)})
                try:
                    theta = mgu_terms([(a, copy.head)])
                except UnificationError:
                    continue
                store.update(theta.bindings)
                step = Step(k, idx, copy, theta, parent, d.length + 1,
                            size - 1 + len(copy.body), arith)
                yield Derivation(query, step), _push(before, _push(copy.body, rest))
                for v in theta.bindings:
                    del store[v]
            before.append(atom)
            goals = rest

    # Children are generated lazily, so copies draw names in search order,
    # and a child's subtree is searched before its bindings leave the store.
    for d, _ in depth_first((Derivation(query), _push(start, None)), children):
        yield d


def answers(program: Program, query: Query, depth: int = 5,
            selection: Literal["leftmost", "all"] = "leftmost") -> list[Subst]:
    """Answer substitutions of the successful derivations, in search order."""
    return [d.answer for d in derivations(program, query, depth, selection)
            if d.succeeded]


# ------------------------------------------------- bounded consequences

def atom_depth(a: Atom) -> int:
    return max((t.depth for t in a.args), default=0)


def _head_depths(a: Atom) -> tuple[int, dict[Var, int]]:
    """The atom's depth, its variables counted as constants, and the
    deepest occurrence of each variable below the atom's argument roots.
    Walked with an explicit stack that skips ground subterms."""
    occ: dict[Var, int] = {}
    stack = [(t, 0) for t in a.args if not t.ground]
    while stack:
        t, d = stack.pop()
        if type(t) is Var:
            if occ.get(t, -1) < d:
                occ[t] = d
        else:
            stack.extend((x, d + 1) for x in t.args if not x.ground)
    return atom_depth(a), occ


def _function_names(clauses: Iterable[Clause]) -> set[str]:
    """The names of the function symbols in the clauses' atoms, integer
    literals and `-` included."""
    return {t.name for c in clauses for a in c.atoms() for arg in a.args
            for t in depth_first(arg, lambda t: getattr(t, "args", ())) if type(t) is Fun}


def int_literals(program: Program, query: Query = ()) -> list[str]:
    """Integer constants appearing anywhere in the program or query text."""
    names = _function_names(program.clauses + (wrap_query(query),))
    return sorted((n for n in names if is_int_literal(n)), key=int)


def ground_terms(sig: Signature, depth: int, literals: Iterable[str] = ()) -> dict[Term, int]:
    """All ground terms of depth <= depth over the declared functions, each
    mapped to its depth, shallowest first.  The integer type contributes
    only the supplied literals (the type itself is infinite).  Terms are
    built level by level: a term first made at level i has depth i."""
    funcs = list(sig.funcs.values())
    out: dict[Term, int] = {Fun(f.name): 0 for f in funcs if not f.arg_types}
    if sig.has_int():
        out.update((Fun(l), 0) for l in literals)
    for level in range(1, depth + 1):
        below = list(out)
        for f in funcs:
            if f.arg_types:
                for combo in itertools.product(below, repeat=len(f.arg_types)):
                    out.setdefault(Fun(f.name, combo), level)
    return out


@dataclass(frozen=True)
class GroundAtomSet:
    atoms: frozenset[Atom]
    depth_bound: int

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)


class _Index:
    """Ground atoms by predicate and arity, and by the argument at one
    position.  A position's table is built when a call first asks for it
    and kept up to date by `add` from then on, so no table is built for a
    position no call asks for."""

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.by_pred: dict[tuple, list[Atom]] = {}
        self.by_arg: dict[tuple, dict[int, dict[Term, list[Atom]]]] = {}
        self.add(atoms)

    def add(self, atoms: Iterable[Atom]) -> None:
        for a in atoms:
            key = (a.pred, len(a.args))
            self.by_pred.setdefault(key, []).append(a)
            for i, table in self.by_arg.get(key, {}).items():
                table.setdefault(a.args[i], []).append(a)

    def candidates(self, call: Atom) -> list[Atom]:
        """The indexed atoms that `call` may match: those equal to it at its
        first ground argument, or all of its predicate when it has none."""
        key = (call.pred, len(call.args))
        i = next((i for i, t in enumerate(call.args) if t.ground), None)
        if i is None:
            return self.by_pred.get(key, [])
        tables = self.by_arg.setdefault(key, {})
        if i not in tables:
            tables[i] = {}
            for a in self.by_pred.get(key, ()):
                tables[i].setdefault(a.args[i], []).append(a)
        return tables[i].get(call.args[i], [])


def _is_equation(a: Atom) -> bool:
    return a.pred == EQ and len(a.args) == 2


def _extend(binding: dict, more) -> dict:
    out = {v: apply_subst(t, more) for v, t in binding.items()}
    for v, t in more.items():
        out.setdefault(v, t)
    return out


def _body_matches(body: Query, sources: tuple, binding: dict) -> Iterator[dict]:
    """Bindings under which the body holds, left to right.  An equation
    holds for any instance making both sides equal; grounding of leftover
    variables is deferred to the head.  The k-th other atom, a call,
    matches one of the ground atoms that `sources[k]`, a function of the
    call's instance, lists.  Search nodes: (atoms done, calls done, binding)."""
    def children(node: tuple) -> Iterator[tuple]:
        i, k, binding = node
        if i == len(body):
            return
        first = apply_subst(body[i], binding)
        if _is_equation(first):
            try:
                theta = mgu_terms([(first.args[0], first.args[1])])
            except UnificationError:
                return
            yield i + 1, k, _extend(binding, theta)
            return
        for g in sources[k](first):
            more = match_terms(first, g)
            if more is not None:
                yield i + 1, k + 1, _extend(binding, more)

    return (b for i, _, b in depth_first((0, 0, binding), children) if i == len(body))


def tp_fixpoint(program: Program, depth: int,
                max_iters: int | None = None) -> GroundAtomSet:
    """Iterate the bounded immediate-consequence operator from the empty set
    until it stabilises (the universe is finite, so it always does) or until
    `max_iters` rounds have been made; round k gives the k-th iterate.

    Only program clauses produce heads, and only ground heads within the
    depth bound are kept.  Body equations are satisfied by unification;
    head variables the body leaves free are instantiated from the ground
    term universe.  Subtraction is treated as a plain constructor here.

    Evaluation is semi-naive.  The first round fires every clause against
    the empty set, so only the clauses without calls (body atoms other than
    equations) produce heads, once.  Every later round fires each clause
    once per call i: call i matches the atoms new in the previous round,
    the calls before it the atoms known before that round, and those after
    it all atoms known.  So every consequence not yet known is found, and
    each from at least one new atom.  The variant for call i is left out
    when no new atom may match call i, and each call looks atoms up by its
    first ground argument (`_Index`).  A binding whose head instance would
    exceed the depth bound is rejected before the instance is built."""
    depth_of = ground_terms(program.signature, depth, int_literals(program))
    pools = [[t for t, d in depth_of.items() if d <= allowed] for allowed in range(depth + 1)]
    atoms: set[Atom] = set()

    def ground(head: Atom, shape: tuple, binding: dict, fresh: list[Atom]) -> None:
        # `shape` is `_head_depths(head)`.  The instance's depth, its
        # variables counted as 0, is the head's own or, for a bound
        # variable, its deepest occurrence plus the depth of its term.
        # Variables add at least nothing to it, so a head over the bound is
        # ruled out for every grounding before it is built.
        base, occ = shape
        if base > depth:
            return
        for v, d in occ.items():
            t = binding.get(v)
            if t is not None and d + t.depth > depth:
                return
        h = apply_subst(head, binding)
        # A grounding's depth is the larger of the instance's own and, for
        # each variable left, its deepest occurrence plus the depth of its
        # term; each variable's pool holds only the terms that keep it
        # within the bound.
        _, occ = _head_depths(h)
        frees = list(occ)
        for combo in itertools.product(*(pools[depth - occ[v]] for v in frees)):
            g = apply_subst(h, dict(zip(frees, combo))) if frees else h
            known = len(atoms)
            atoms.add(g)  # hashes g once, where a membership test would add a second
            if len(atoms) > known:
                fresh.append(g)

    old, delta, last = _Index(), _Index(), []

    def everything(call: Atom) -> Iterable[Atom]:
        return itertools.chain(old.candidates(call), delta.candidates(call))

    rules = [(c, [b for b in c.body if not _is_equation(b)], _head_depths(c.head))
             for c in program.clauses]
    done = 0
    while max_iters is None or done < max_iters:
        fresh: list[Atom] = []
        for c, calls, shape in rules:
            # Only clauses without calls fire in the first round.  Later, the
            # variant for call i fires only if some new atom may match it.
            variants = (([()] if not calls else []) if done == 0 else
                        [(old.candidates,) * i + (delta.candidates,)
                         + (everything,) * (len(calls) - i - 1)
                         for i, call in enumerate(calls) if delta.candidates(call)])
            for sources in variants:
                for binding in _body_matches(c.body, sources, {}):
                    ground(c.head, shape, binding, fresh)
        done += 1
        if not fresh:
            break
        old.add(last)
        delta, last = _Index(fresh), fresh
    return GroundAtomSet(frozenset(atoms), depth)
