"""Static subject-reduction analysis.

A type skeleton replaces every clause of a skeleton by that clause's most
general type, with parameters renamed apart per node.  If every proper
skeleton of a program-and-query yields a proper (unifiable) type skeleton,
resolution can never produce an untypable query.  Two decidable per-clause
conditions imply this for all queries at once: the classical requirement
that inferred head types be a renaming of the declared types, and its
relaxation where each argument position is marked head-generic or
body-generic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
    Clause,
    EQ,
    GO,
    GO_CLAUSE_INDEX,
    NameSource,
    Program,
    Query,
    Signature,
    Subst,
    Type,
    Var,
    apply_subst,
    pars,
    pars_in_order,
    variant_types,
    wrap_query,
)
from .parser import render, render_types
from .reports import CheckReport, Finding
from .trees import (
    BOTTOM,
    Skeleton,
    derivations,
    enumerate_skeletons,
    height,
    is_proper_skeleton,
    tree_to_json,
)
from .typecheck import UntypableError, is_typable, most_general_type
from .unify import UnificationError, mgu_types

HEAD_GENERIC = "h"
BODY_GENERIC = "b"


@dataclass(frozen=True)
class TypeSkeleton:
    """A skeleton node relabelled with the most general type of its clause:
    one type vector per atom, parameters shared with no other node.  The
    node also keeps the variable typing of that most general typing (over
    the clause copy's own variables)."""
    clause_index: int
    head_pred: str
    head_types: tuple[Type, ...]
    body_preds: tuple[str, ...]
    body_types: tuple[tuple[Type, ...], ...]
    variable_typing: Mapping[Var, Type]
    children: tuple = ()

    def __post_init__(self):
        if len(self.children) != len(self.body_preds):
            raise ValueError("one child per body atom required")


def _typed_atom(pred: str, types: tuple[Type, ...]) -> str:
    return f"{pred}{render_types(types)}" if types else pred


def label(ts: TypeSkeleton) -> str:
    head = _typed_atom(ts.head_pred, ts.head_types)
    if not ts.body_preds:
        return head
    body = ", ".join(_typed_atom(p, v) for p, v in zip(ts.body_preds, ts.body_types))
    return f"{head} <- {body}"


def type_skeleton_of(s: Skeleton, sig: Signature) -> TypeSkeleton:
    """Relabel every complete node of s with the most general type of its
    clause, renaming parameters apart across nodes.  Raises UntypableError
    naming the offending clause when some node has no typing."""
    ns = NameSource()

    def conv(node: Skeleton) -> TypeSkeleton:
        try:
            ct = most_general_type(node.clause, sig)
        except UntypableError as e:
            raise UntypableError(f"clause {render(node.clause)} has no typing: {e}") from e
        ren = {p: ns.fresh_param(p.name) for p in pars_in_order(ct.atom_types)}
        vecs = apply_subst(ct.atom_types, ren)
        kids = tuple(BOTTOM if c is BOTTOM else conv(c) for c in node.children)
        return TypeSkeleton(
            clause_index=node.clause_index,
            head_pred=node.clause.head.pred,
            head_types=vecs[0],
            body_preds=tuple(a.pred for a in node.clause.body),
            body_types=vecs[1:],
            variable_typing=apply_subst(ct.variable_typing, ren),
            children=kids,
        )

    return conv(s)


def eq_of_type_skeleton(ts: TypeSkeleton) -> list[tuple[Type, Type]]:
    """Interface equations between argument types: each expanded body-atom
    type paired with the child's head type, componentwise, parent before
    child, left to right."""
    eqs: list[tuple[Type, Type]] = []

    def walk(node: TypeSkeleton) -> None:
        for vec, child in zip(node.body_types, node.children):
            if child is not BOTTOM:
                eqs.extend(zip(vec, child.head_types))
                walk(child)

    walk(ts)
    return eqs


def is_proper_type_skeleton(ts: TypeSkeleton) -> Subst | None:
    try:
        return mgu_types(eq_of_type_skeleton(ts))
    except UnificationError:
        return None


def type_properness_failure(ts: TypeSkeleton) -> UnificationError | None:
    """The unification failure that makes the type skeleton non-proper, or
    None when it is proper."""
    try:
        mgu_types(eq_of_type_skeleton(ts))
        return None
    except UnificationError as e:
        return e


def assembled_variable_typing(ts: TypeSkeleton, theta: Subst) -> dict[Var, Type]:
    """One variable typing covering every node's clause copy: the per-node
    typings instantiated by a solution of the type skeleton's equations.
    Sound because distinct nodes share no variables."""
    out: dict[Var, Type] = {}

    def walk(node: TypeSkeleton) -> None:
        for v, t in node.variable_typing.items():
            out[v] = theta.apply(t)
        for c in node.children:
            if c is not BOTTOM:
                walk(c)

    walk(ts)
    return out


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

    def __repr__(self) -> str:
        inner = "; ".join(f"{p}({', '.join(m)})" for p, m in self.by_pred.items())
        return f"Partition[{inner}]"


def make_partition(program: Program,
                   assigned: Mapping[str, tuple[str, ...]] | None = None) -> Partition:
    """A partition covering every declared predicate: the given marks where
    supplied, all-head-generic elsewhere."""
    given = dict(assigned or {})
    out: dict[str, tuple[str, ...]] = {}
    for name, decl in program.signature.preds.items():
        marks = given.pop(name, (HEAD_GENERIC,) * len(decl.arg_types))
        if len(marks) != len(decl.arg_types):
            raise ValueError(f"partition for {name} has {len(marks)} marks, "
                             f"expected {len(decl.arg_types)}")
        if any(m not in (HEAD_GENERIC, BODY_GENERIC) for m in marks):
            raise ValueError(f"partition marks must be h or b: {marks}")
        out[name] = tuple(marks)
    if given:
        raise ValueError(f"partition for undeclared predicate {next(iter(given))}")
    return Partition(out)


def all_head_partition(program: Program) -> Partition:
    return make_partition(program)


# ------------------------------------------------------- per-clause checks

def check_head_condition(program: Program) -> CheckReport:
    """Every clause head's inferred argument types must be a renaming of the
    predicate's declared types.  Raises UntypableError on untypable clauses."""
    sig = program.signature
    findings: list[Finding] = []
    for i, c in enumerate(program.clauses):
        got = most_general_type(c, sig).atom_types[0]
        declared = sig.pred_decl(c.head.pred).arg_types
        if not variant_types(got, declared):
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
                           clause_index: int | None) -> list[Finding]:
    """Violations of the three per-clause conditions.  With the clause's most
    general type instantiating each atom's declared types: (1) the generic
    parts of distinct atoms share no parameter; (2) no body atom's
    non-generic part shares a parameter with its own or any later body
    atom's generic part; (3) each generic part is a renaming of the declared
    types at those positions.  Generic means head-generic positions for the
    head atom and body-generic positions for body atoms."""
    sig = program.signature
    ct = most_general_type(clause, sig)
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

    findings: list[Finding] = []
    m = len(atoms) - 1
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            shared = pars(generic[i]) & pars(generic[j])
            if shared:
                names = ", ".join(sorted(p.printed() for p in shared))
                findings.append(Finding(
                    "semi-generic-1",
                    f"generic parts of atoms {i} and {j} share parameter(s) "
                    f"{names}: {render_types(generic[i])} vs {render_types(generic[j])}",
                    clause=clause_index))
    for i in range(1, m + 1):
        later: set = set()
        for j in range(i, m + 1):
            later |= pars(generic[j])
        shared = pars(nongeneric[i]) & later
        if shared:
            names = ", ".join(sorted(p.printed() for p in shared))
            findings.append(Finding(
                "semi-generic-2",
                f"non-generic part {render_types(nongeneric[i])} of body atom {i} "
                f"shares parameter(s) {names} with a generic part at or after it",
                clause=clause_index))
    for i in range(m + 1):
        if not variant_types(generic[i], declared_generic[i]):
            findings.append(Finding(
                "semi-generic-3",
                f"generic part {render_types(generic[i])} of atom {i} is not a "
                f"renaming of the declared {render_types(declared_generic[i])}",
                clause=clause_index))
    return findings


def check_semi_generic(program: Program, part: Partition,
                       queries: tuple[Query, ...] = ()) -> CheckReport:
    """Semi-genericity of every clause, and of each supplied query (a query
    counts as the body of a clause with the 0-ary head `go`)."""
    findings: list[Finding] = []
    for i, c in enumerate(program.clauses):
        findings.extend(_semi_generic_findings(program, part, c, i))
    for q in queries:
        findings.extend(_semi_generic_findings(program, part, wrap_query(q),
                                               GO_CLAUSE_INDEX))
    return CheckReport(tuple(findings))


def search_partition(program: Program) -> Partition | None:
    """First partition (in a fixed order) making every clause semi-generic,
    or None.  Predicates are assigned in declaration order; per predicate,
    candidate mark vectors run through the h/b product with "h" first, so an
    all-head-generic partition is found first whenever it works.  A clause is
    checked as soon as all its predicates are assigned, pruning the search."""
    sig = program.signature
    for c in program.clauses:
        most_general_type(c, sig)
    names = list(sig.preds)

    def decidable(c: Clause, have: set[str]) -> bool:
        return {a.pred for a in c.atoms()} - {EQ, GO} <= have

    def rec(i: int, assigned: dict[str, tuple[str, ...]]) -> Partition | None:
        if i == len(names):
            part = Partition(dict(assigned))
            if check_semi_generic(program, part).passed:
                return part
            return None
        arity = len(sig.preds[names[i]].arg_types)
        for marks in itertools.product((HEAD_GENERIC, BODY_GENERIC), repeat=arity):
            assigned[names[i]] = marks
            part = Partition(dict(assigned))
            ok = all(
                not _semi_generic_findings(program, part, c, None)
                for c in program.clauses
                if names[i] in {a.pred for a in c.atoms()}
                and decidable(c, set(assigned)))
            if ok:
                found = rec(i + 1, assigned)
                if found is not None:
                    return found
            del assigned[names[i]]
        return None

    return rec(0, {})


# --------------------------------------------------------- bounded checks

def subject_reduction_counterexamples(
        program: Program, query: Query, depth: int = 5,
) -> Iterator[tuple[Skeleton, TypeSkeleton, UnificationError]]:
    """Proper skeletons (smallest first) whose type skeletons are not proper,
    with the failing type equation."""
    sig = program.signature
    for s in enumerate_skeletons(program, query, depth):
        if is_proper_skeleton(s) is None:
            continue
        ts = type_skeleton_of(s, sig)
        err = type_properness_failure(ts)
        if err is not None:
            yield s, ts, err


def _require_typable(program: Program, query: Query) -> None:
    for c in program.clauses:
        most_general_type(c, program.signature)
    if not is_typable(query, program.signature):
        raise UntypableError(f"query {render(query)} has no typing")


def check_subject_reduction_bounded(program: Program, query: Query,
                                    depth: int = 5) -> CheckReport:
    """Certificate that every proper skeleton up to the given height has a
    proper type skeleton.  A pass only covers the stated bound; a failure is
    a definite counterexample (the smallest one found)."""
    _require_typable(program, query)
    findings: list[Finding] = []
    for s, ts, err in subject_reduction_counterexamples(program, query, depth):
        findings.append(Finding(
            "type-skeleton-nonproper",
            f"skeleton of height {height(s)} rooted at {label(ts)}: "
            f"type equation {render(err.left)} = {render(err.right)} fails "
            f"({err.kind})",
            clause=None))
        break
    return CheckReport(tuple(findings), depth_bound=depth)


def monitor_derivation(program: Program, query: Query, depth: int = 5,
                       selection: str = "leftmost") -> CheckReport:
    """Run the query and check that every derived query is typable."""
    _require_typable(program, query)
    findings: list[Finding] = []
    for d in derivations(program, query, depth, selection):
        if not is_typable(d.final, program.signature):
            trace = " -> ".join(render(s.query) for s in d.steps)
            findings.append(Finding(
                "query-untypable",
                f"derived query {render(d.final)} has no typing "
                f"(from {render(query)} via {trace})",
                clause=None))
            break
    return CheckReport(tuple(findings), depth_bound=depth)


def type_skeleton_to_json(ts) -> dict:
    """Serialise a TypeSkeleton the same way skeletons are serialised."""
    return tree_to_json(ts, lambda node: {"label": label(node)})


# ------------------------------------------------------- ordered equations

def eq_prime_of_type_skeleton(ts: TypeSkeleton, part: Partition) -> list[tuple[Type, Type]]:
    """The split form of the interface equations: each parent/child equation
    becomes one equation over the head-generic positions (child's types on
    the right) and one over the body-generic positions (parent's types on
    the right).  Each side is packed into a single type so the pair stays
    one equation."""
    from .core import TCon

    eqs: list[tuple[Type, Type]] = []

    def pack(types: tuple[Type, ...]) -> Type:
        return TCon("$vec", tuple(types))

    def walk(node: TypeSkeleton) -> None:
        for pred, vec, child in zip(node.body_preds, node.body_types, node.children):
            if child is BOTTOM:
                continue
            marks = part.marks(pred, len(vec))
            parent_h = _split(vec, marks, HEAD_GENERIC)
            parent_b = _split(vec, marks, BODY_GENERIC)
            child_h = _split(child.head_types, marks, HEAD_GENERIC)
            child_b = _split(child.head_types, marks, BODY_GENERIC)
            eqs.append((pack(parent_h), pack(child_h)))
            eqs.append((pack(child_b), pack(parent_b)))
            walk(child)

    walk(ts)
    return eqs
