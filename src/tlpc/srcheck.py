"""Static subject-reduction analysis.

A type skeleton is a skeleton of type clauses: every clause of a skeleton
is replaced by its most general type, written as a clause whose atoms
carry argument types (`type_clause`), with parameters renamed apart per
node.  So one interface walk (`trees.eq_of_skeleton`) and one properness
test (`trees.is_proper_skeleton`) serve both levels.  If every proper
skeleton of a program-and-query yields a proper (unifiable) type skeleton,
resolution can never produce an untypable query.  The bounded check
decides each skeleton from its root: the clause copies of distinct nodes
share no variables and no parameters, so a skeleton (or
its type skeleton) is proper exactly when its subtrees are and the root's
body atoms (or their type atoms) unify with the subtrees' solved heads.
Each subtree is solved where enumeration builds it and dropped there when
improper; its type head is solved there too, once for every skeleton
that contains it.  Two decidable per-clause conditions imply
this for all queries at once: the classical requirement that inferred
head types be a renaming of the declared types, and its relaxation where
each argument position is marked head-generic or body-generic.

Every node reads its clause's typing by clause index from the program
(`Program.typing`), which types each program clause, query and the
built-in `=` clause once.  `subject_reduction` gives the verdict of
`tlpc sr`, stopping at the first step that settles it.  The gate
`require_typable` types the program and the query.  Then the certificate
(`sr_certificate`): by the paper's theorem, a program meeting the head
condition, or a program and query semi-generic under the partition
`search_partition` finds, keeps every type skeleton of a proper skeleton
proper at every depth.  Only when neither holds, or when `bounded` is set
(`sr --bounded`), does the bounded check enumerate.

The run monitor (`monitored_answers`) is the runtime counterpart: it
checks that every query a bounded resolution derives is typable.  It
tries the same certificate first: when one holds, every derived query is
typable by the theorem, and the run types none of them.  Only an
uncertified run is monitored.  Each derived query is typed whole, in one
inference pass (`typecheck.typable_in_run`), except that a ground subterm
is typed by a copy of its principal type, which is worked out once per run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping

from .core import (
    BODY_GENERIC,
    HEAD_GENERIC,
    Atom,
    Clause,
    EQ,
    GO,
    GO_CLAUSE_INDEX,
    NameSource,
    Program,
    Query,
    Subst,
    Type,
    partition_problem,
    rename_apart,
    variant,
    vars_of,
    wrap_query,
)
from .parser import render, render_types
from .reports import CheckReport, Finding
from . import trees
from .trees import (
    BOTTOM,
    Skeleton,
    derivations,
    eq_of_skeleton,
    height,
    rebuild,
    tree_to_json,
)
from .typecheck import ClauseTyping, require_typable, typable_in_run
from .unify import UnificationError, mgu_terms, mgu_types


def type_clause(clause: Clause, ct: ClauseTyping) -> Clause:
    """The clause's most general type `ct` written as a clause: each atom
    with that atom's argument types as its arguments."""
    return Clause(Atom(clause.head.pred, ct.atom_types[0]),
                  tuple(Atom(b.pred, v) for b, v in zip(clause.body, ct.atom_types[1:])))


def _typed_atom(a: Atom) -> str:
    return f"{a.pred}{render_types(a.args)}" if a.args else a.pred


def label(ts: Skeleton) -> str:
    head, *body = (_typed_atom(a) for a in ts.clause.atoms())
    return f"{head} <- {', '.join(body)}" if body else head


def type_skeleton_of(s: Skeleton, program: Program) -> Skeleton:
    """The type skeleton of s: every complete node's clause replaced by its
    type clause (`type_clause`), parameters renamed apart across nodes.  A
    node reads its clause's typing by clause index (`Program.typing`).
    Raises UntypableError naming the first untypable program clause."""
    ns = NameSource()
    return rebuild(s, lambda node: partial(
        Skeleton, rename_apart(type_clause(*program.typing(node.clause_index, node.clause)), ns),
        node.clause_index))


# ------------------------------------------------------------ partitions

@dataclass(frozen=True)
class Partition:
    """For each predicate, one mark per argument position: "h" (the position
    must carry the declared type in clause heads) or "b" (in body atoms)."""
    by_pred: Mapping[str, tuple[str, ...]]

    def marks(self, pred: str, arity: int) -> tuple[str, ...]:
        if pred in self.by_pred:
            got = self.by_pred[pred]
            if len(got) != arity:
                raise ValueError(f"partition for {pred} has {len(got)} marks, "
                                 f"expected {arity}")
            return got
        if pred in (EQ, GO):
            return (HEAD_GENERIC,) * arity
        raise ValueError(f"no partition for predicate {pred}")

    def to_json(self) -> dict:
        return {p: list(m) for p, m in self.by_pred.items()}


def make_partition(program: Program,
                   assigned: Mapping[str, tuple[str, ...]] | None = None) -> Partition:
    """A partition covering every declared predicate: the given marks where
    supplied, all-head-generic elsewhere."""
    given = assigned or {}
    for name, marks in given.items():
        problem = partition_problem(program.signature, name, marks)
        if problem is not None:
            raise ValueError(problem)
    return Partition({name: tuple(given.get(name, (HEAD_GENERIC,) * len(decl.arg_types)))
                      for name, decl in program.signature.preds.items()})


# ------------------------------------------------------- per-clause checks

def check_head_condition(program: Program) -> CheckReport:
    """Every clause head's inferred argument types must be a renaming of the
    predicate's declared types.  Raises UntypableError on untypable clauses."""
    sig = program.signature
    findings: list[Finding] = []
    for i, (c, ct) in enumerate(zip(program.clauses, program.clause_typings)):
        got = ct.atom_types[0]
        declared = sig.pred_decl(c.head.pred).arg_types
        if not variant(got, declared):
            findings.append(Finding(
                "head-condition",
                f"head of {render(c)} has most general type "
                f"{render_types(got)}, not a renaming of the declared "
                f"{render_types(declared)}",
                clause=i))
    return CheckReport(tuple(findings))


def _split(vec, marks, want):
    return tuple(t for t, m in zip(vec, marks) if m == want)


def _semi_generic_findings(program: Program, part: Partition, clause: Clause,
                           ct: ClauseTyping, clause_index: int | None) -> Iterator[Finding]:
    """Violations of the three per-clause conditions, made lazily, so that
    a caller asking whether there is any stops at the first.  With the
    clause's most general type instantiating each atom's declared types:
    (1) the generic parts of distinct atoms share no parameter; (2) no body
    atom's non-generic part shares a parameter with its own or any later
    body atom's generic part; (3) each generic part is a renaming of the
    declared types at those positions.  Generic means head-generic
    positions for the head atom and body-generic positions for body atoms.
    `ct` is the clause's most general type."""
    sig = program.signature
    atoms = clause.atoms()
    generic: list[tuple[Type, ...]] = []
    nongeneric: list[tuple[Type, ...]] = []
    declared_generic: list[tuple[Type, ...]] = []
    for i, (a, vec) in enumerate(zip(atoms, ct.atom_types)):
        decl = sig.pred_decl(a.pred)
        marks = part.marks(a.pred, len(decl.arg_types))
        want = HEAD_GENERIC if i == 0 else BODY_GENERIC
        generic.append(_split(vec, marks, want))
        nongeneric.append(tuple(t for t, m in zip(vec, marks) if m != want))
        declared_generic.append(_split(decl.arg_types, marks, want))

    m = len(atoms) - 1
    params = [vars_of(g) for g in generic]
    for i in range(m + 1):
        for j in range(i + 1, m + 1) if params[i] else ():
            shared = params[i] & params[j]
            if shared:
                names = ", ".join(sorted(p.printed() for p in shared))
                yield Finding(
                    "semi-generic-1",
                    f"generic parts of atoms {i} and {j} share parameter(s) "
                    f"{names}: {render_types(generic[i])} vs {render_types(generic[j])}",
                    clause=clause_index)
    # A parameter is in a generic part at or after body atom i when the last
    # body atom whose generic part holds it is at or after i.
    last = {p: j for j in range(1, m + 1) for p in params[j]}
    for i in range(1, m + 1):
        shared = {p for p in vars_of(nongeneric[i]) if last.get(p, 0) >= i}
        if shared:
            names = ", ".join(sorted(p.printed() for p in shared))
            yield Finding(
                "semi-generic-2",
                f"non-generic part {render_types(nongeneric[i])} of body atom {i} "
                f"shares parameter(s) {names} with a generic part at or after it",
                clause=clause_index)
    for i in range(m + 1):
        if not variant(generic[i], declared_generic[i]):
            yield Finding(
                "semi-generic-3",
                f"generic part {render_types(generic[i])} of atom {i} is not a "
                f"renaming of the declared {render_types(declared_generic[i])}",
                clause=clause_index)


def check_semi_generic(program: Program, part: Partition,
                       queries: tuple[Query, ...] = ()) -> CheckReport:
    """Semi-genericity of every clause, and of each supplied query (a query
    counts as the body of a clause with the 0-ary head `go`)."""
    typed = zip(program.clauses, program.clause_typings)
    typed_queries = [program.typing(GO_CLAUSE_INDEX, wrap_query(q)) for q in queries]
    findings: list[Finding] = []
    for i, (c, ct) in enumerate(typed):
        findings.extend(_semi_generic_findings(program, part, c, ct, i))
    for c, ct in typed_queries:
        findings.extend(_semi_generic_findings(program, part, c, ct, GO_CLAUSE_INDEX))
    return CheckReport(tuple(findings))


def search_partition(program: Program) -> Partition | None:
    """First partition (in a fixed order) making every clause semi-generic,
    or None.  Predicates are assigned in declaration order; per predicate,
    candidate mark vectors run through the h/b product with "h" first, so an
    all-head-generic partition is found first whenever it works.  A clause is
    checked as soon as all its declared predicates are assigned, pruning the
    search.  Its verdict depends on their marks alone, so it is kept by
    those marks for the rest of the search, and a full assignment needs no
    second check.  (A clause with no declared predicate, a `go` clause
    calling only `=`, if any, has empty generic parts and meets every
    condition.)  Search nodes are partial assignments."""
    sig = program.signature
    typed = list(zip(program.clauses, program.clause_typings))
    names = list(sig.preds)
    rank = {p: i for i, p in enumerate(names)}
    preds = [sorted({a.pred for a in c.atoms() if a.pred in rank}, key=rank.__getitem__)
             for c, _ in typed]
    due: list[list[int]] = [[] for _ in names]  # clauses by their last predicate
    for k, ps in enumerate(preds):
        if ps:
            due[rank[ps[-1]]].append(k)
    verdicts: dict[tuple, bool] = {}

    def passes(k: int, assigned: dict[str, tuple[str, ...]]) -> bool:
        key = (k, tuple(assigned[p] for p in preds[k]))
        if key not in verdicts:
            c, ct = typed[k]
            verdicts[key] = next(_semi_generic_findings(
                program, Partition(assigned), c, ct, None), None) is None
        return verdicts[key]

    def children(assigned: dict[str, tuple[str, ...]]) -> Iterator[dict]:
        i = len(assigned)
        if i == len(names):
            return
        arity = len(sig.preds[names[i]].arg_types)
        for marks in itertools.product((HEAD_GENERIC, BODY_GENERIC), repeat=arity):
            nxt = {**assigned, names[i]: marks}
            if all(passes(k, nxt) for k in due[i]):
                yield nxt

    return next((Partition(a) for a in trees.depth_first({}, children)
                 if len(a) == len(names)), None)


HEAD_CONDITION = "head condition"
SEMI_GENERIC = "semi-generic"


def sr_certificate(program: Program, query: Query) -> tuple[str, Partition | None] | None:
    """The criterion by which every type skeleton of a proper skeleton of
    the query is proper at every depth, with the partition it uses: the
    head condition (no partition), else semi-genericity of the program and
    the query under the partition `search_partition` finds.  None when
    neither holds.  The query passes `require_typable` first."""
    typing = require_typable(program, query)
    if check_head_condition(program).passed:
        return HEAD_CONDITION, None
    part = search_partition(program)  # every clause is semi-generic under it
    if part is not None and next(_semi_generic_findings(
            program, part, wrap_query(query), typing, GO_CLAUSE_INDEX), None) is None:
        return SEMI_GENERIC, part
    return None


# --------------------------------------------------------- bounded checks

@dataclass(eq=False, slots=True)
class _Option:
    """A proper option of one call site, made where enumeration builds it:
    its skeleton, its height, its head under an mgu of its interface
    equations, and its type head (the head of its type clause) under an mgu
    of its type skeleton's equations (None when those do not unify)."""
    skeleton: Skeleton
    height: int
    head: Atom
    types: Atom | None


def _solved_head(clause: Clause, kids: list[tuple[int, Atom]]) -> Atom:
    """`clause.head` under an mgu of `clause.body[i] = h` for each child
    (i, h); the same at both levels.  Raises UnificationError when those
    equations do not unify."""
    if not kids:
        return clause.head
    return mgu_terms([(clause.body[i], h) for i, h in kids]).apply(clause.head)


def typed_proper_skeletons(program: Program, query: Query, depth: int = 5,
                           ) -> Iterator[tuple[Skeleton, bool]]:
    """The proper skeletons up to the given height, smallest first, each
    paired with whether its type skeleton is proper.  The query passes
    `require_typable` first.  A node reads its clause's type clause by
    clause index (`Program.typing`), since the node copies of one clause
    are renamings of it.  Each option's type head is solved where it is
    built, from its children's, under fresh parameters."""
    require_typable(program, query)
    vectors: dict[int, Clause] = {}  # type clauses by clause index
    ns = NameSource()

    def build(copy: Clause, index: int, children: tuple) -> _Option | None:
        kids = [(i, c) for i, c in enumerate(children) if c is not BOTTOM]
        try:
            head = _solved_head(copy, [(i, c.head) for i, c in kids])
        except UnificationError:
            return None  # not proper: enumeration leaves the option out
        skeleton = Skeleton(copy, index, tuple(BOTTOM if c is BOTTOM else c.skeleton
                                               for c in children))
        if index not in vectors:
            vectors[index] = type_clause(*program.typing(index, copy))
        types = None
        if all(c.types is not None for _, c in kids):
            try:
                types = _solved_head(rename_apart(vectors[index], ns),
                                     [(i, c.types) for i, c in kids])
            except UnificationError:
                pass  # term-proper, type-improper: kept with types None
        return _Option(skeleton, max((c.height + 1 for _, c in kids), default=0),
                       head, types)

    for opt in trees._by_height(program, query, depth, build, lambda o: o.height):
        yield opt.skeleton, opt.types is not None


def subject_reduction_counterexamples(
        program: Program, query: Query, depth: int = 5,
) -> Iterator[tuple[Skeleton, Skeleton, UnificationError]]:
    """Proper skeletons (smallest first) whose type skeletons are not proper,
    with the type skeleton and the failing type equation."""
    for s, type_proper in typed_proper_skeletons(program, query, depth):
        if not type_proper:
            ts = type_skeleton_of(s, program)
            try:
                mgu_types(eq_of_skeleton(ts))
            except UnificationError as err:
                yield s, ts, err


def subject_reduction(
        program: Program, query: Query, depth: int = 5, bounded: bool = False,
) -> tuple[CheckReport, tuple[str, Partition | None] | None,
           tuple[Skeleton, Skeleton, UnificationError] | None]:
    """The verdict of `tlpc sr`: the report, the certificate that backs a
    pass at every depth (`sr_certificate`; None when `bounded` or when no
    criterion holds), and the smallest counterexample (None on a pass).
    The query passes `require_typable` first.  Without a certificate, every
    proper skeleton up to the given height is checked for a proper type
    skeleton: a pass only covers that bound, a failure is definite."""
    cert = None if bounded else sr_certificate(program, query)
    if cert is not None:
        return CheckReport(depth_bound=depth), cert, None
    found = next(subject_reduction_counterexamples(program, query, depth), None)
    findings: list[Finding] = []
    if found is not None:
        s, ts, err = found
        findings.append(Finding(
            "type-skeleton-nonproper",
            f"skeleton of height {height(s)} rooted at {label(ts)}: "
            f"type equation {render(err.left)} = {render(err.right)} fails "
            f"({err.kind})",
            clause=None))
    return CheckReport(tuple(findings), depth_bound=depth), None, found


def monitored_answers(
        program: Program, query: Query, depth: int = 5, selection: str = "leftmost",
) -> tuple[CheckReport, tuple[str, Partition | None] | None, list[Subst]]:
    """The verdict of `tlpc run`: the monitor's report, the certificate that
    backs its pass (`sr_certificate`; None when the monitor decided), and
    the answers of trees.answers, all from one bounded search.  The query
    passes `require_typable` first.

    A certified run types no derived query.  Derivation results are
    exactly the frontiers of most general derivation trees, and the
    certificate makes the type skeleton of every proper skeleton proper, at
    every depth; so every query a derivation reaches is typable, under
    either selection rule.  Evaluating a ground subtraction swaps an `int`
    term for an `int` literal, which has the same principal type.  The
    report is then a pass by the theorem.

    Without a certificate, derived queries are checked for typability up to
    the first untypable one, and answers are collected throughout.  Each
    derived query is typed whole, and each distinct ground subterm's
    principal type is worked out once per call and reused wherever the
    subterm recurs (`typable_in_run`)."""
    cert = sr_certificate(program, query)
    findings: list[Finding] = []
    found: list[Subst] = []
    principal: dict = {}
    for d in derivations(program, query, depth, selection):
        if (cert is None and not findings and d.steps
                and not typable_in_run(d.final, program.signature, principal)):
            trace = " -> ".join(render(s.query) for s in d.steps)
            findings.append(Finding(
                "query-untypable",
                f"derived query {render(d.final)} has no typing "
                f"(from {render(query)} via {trace})",
                clause=None))
        if d.succeeded:
            found.append(d.answer)
    return CheckReport(tuple(findings), depth_bound=depth), cert, found


def type_skeleton_to_json(ts: Skeleton) -> dict:
    """Serialise a type skeleton as skeletons are, each node by its `label`."""
    return tree_to_json(ts, lambda node: {"label": label(node)})
