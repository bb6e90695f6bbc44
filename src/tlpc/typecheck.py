"""Typing judgements and most general types.

Checking and inference both reduce to type unification: every occurrence of
a declared symbol gets a fresh copy of its declared type, argument types are
equated with the copies, and the equations are solved.  Inference builds no
proof objects, only types and equations: `judge` gives a judgement's
verdict, and the clause typings give most general types.  A term is typed
in one walk with an explicit stack, so nesting depth is not bounded by
Python's recursion limit.  For judgements against a supplied variable
typing, the parameters of that typing (and of an expected type) are rigid:
they behave as constants and cannot be instantiated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    EQ, GO_CLAUSE_INDEX, Atom, Clause, Fun, NameSource, Program, Query, Signature, Subst,
    Term, Type, Var, apply_subst, canonical_param_map, is_int_literal,
    rename_apart, vars_of, wrap_query,
)
from .parser import render
from .unify import UnificationError, mgu_types


class UntypableError(Exception):
    """No typing proof exists; the message names the first sub-judgement
    that cannot be derived."""


@dataclass(frozen=True)
class ClauseTyping:
    """Most general type of a clause: a typing for its variables plus the
    types of every atom's arguments (head first, then body atoms)."""
    variable_typing: Mapping[Var, Type]
    types: tuple[Type, ...]
    atom_types: tuple[tuple[Type, ...], ...]


class _Infer:
    def __init__(self, sig: Signature, fixed: Mapping[Var, Type] | None = None,
                 rigid=()):
        self.sig = sig
        self.ns = NameSource()
        self.mint = fixed is None
        self.env: dict[Var, Type] = dict(fixed) if fixed is not None else {}
        self.rigid = set(rigid)
        self.eqs: list[tuple[Type, Type]] = []
        # What each equation constrains: (argument position, term or atom),
        # or (None, term) for a term's expected type; rendered on failure.
        self.notes: list[tuple[int | None, object]] = []

    def constrain(self, actual: Type, expected: Type, position: int | None, obj) -> None:
        self.eqs.append((actual, expected))
        self.notes.append((position, obj))

    def term(self, t: Term) -> Type:
        """The type of t, with one equation per argument.  An explicit stack
        holds subterms still to type and (term, position, expected type)
        marks; `done` holds the types of the subterms typed so far.  So
        declared types are copied in prefix order and an argument's equation
        is added right after its subterm is typed, as a recursion would."""
        done: list[Type] = []
        todo: list = [t]
        while todo:
            x = todo.pop()
            if type(x) is tuple:
                parent, i, expected = x
                self.constrain(done.pop(), expected, i, parent)
            elif isinstance(x, Var):
                if x not in self.env:
                    if not self.mint:
                        raise UntypableError(f"variable {x.printed()} has no type in the variable typing")
                    self.env[x] = self.ns.fresh_param(x.name)
                done.append(self.env[x])
            else:
                decl = self.sig.func_decl(x.name)
                if decl is None:
                    if is_int_literal(x.name):
                        raise UntypableError("integer literals require kind int/0")
                    raise UntypableError(f"function {x.name} not declared")
                if len(decl.arg_types) != len(x.args):
                    raise UntypableError(
                        f"function {x.name}/{len(decl.arg_types)} used with {len(x.args)} arguments")
                copied = rename_apart(decl.arg_types + (decl.result,), self.ns)
                done.append(copied[-1])
                for i in reversed(range(len(x.args))):
                    todo += ((x, i, copied[i]), x.args[i])
        return done.pop()

    def atom(self, a: Atom) -> tuple[Type, ...]:
        decl = self.sig.pred_decl(a.pred)
        if decl is None:
            raise UntypableError(f"predicate {a.pred} not declared")
        if len(decl.arg_types) != len(a.args):
            raise UntypableError(
                f"predicate {a.pred}/{len(decl.arg_types)} used with {len(a.args)} arguments")
        vec = rename_apart(decl.arg_types, self.ns)
        for i, (arg, ety) in enumerate(zip(a.args, vec)):
            self.constrain(self.term(arg), ety, i, a)
        return vec

    def clause(self, c: Clause) -> list[tuple[Type, ...]]:
        return [self.atom(a) for a in c.atoms()]

    def solve(self):
        try:
            return mgu_types(self.eqs, rigid=self.rigid)
        except UnificationError as e:
            position, obj = self.notes[e.index]
            note = (f"type of {render(obj)}" if position is None
                    else f"argument {position + 1} of {render(obj)}")
            raise UntypableError(
                f"{note}: {e.kind} between {render(e.left)} and {render(e.right)}"
            ) from e


def judge(u: Mapping[Var, Type] | None, obj, expected: Type | None = None,
          *, sig: Signature | None = None) -> None:
    """Decide the typing judgement for obj (a Term with an expected type,
    or an Atom, Query or Clause) under the variable typing u, whose
    parameters, and the expected type's, are rigid.  Returns when the
    judgement is derivable; raises UntypableError naming the first
    sub-judgement that is not, and ValueError for a term without an
    expected type.  (A program is typable when `program.clause_typings`
    returns.)"""
    if sig is None:
        raise TypeError("judge needs a signature")
    u = dict(u or {})
    inf = _Infer(sig, fixed=u, rigid=vars_of((u, expected)))
    if isinstance(obj, (Var, Fun)):
        if expected is None:
            raise ValueError("a term needs an expected type")
        inf.constrain(inf.term(obj), expected, None, obj)
    elif isinstance(obj, Atom):
        inf.atom(obj)
    elif isinstance(obj, Clause):
        inf.clause(obj)
    elif isinstance(obj, tuple):
        for a in obj:
            inf.atom(a)
    else:
        raise TypeError(f"cannot judge {obj!r}")
    inf.solve()


def is_typed_substitution(theta: Subst, u: Mapping[Var, Type], sig: Signature) -> bool:
    """Does binding each variable read as a well-typed equation query under
    the variable typing u?"""
    items = sorted(theta.items(), key=lambda kv: (kv[0].name, kv[0].idx))
    try:
        judge(u, tuple(Atom(EQ, (v, t)) for v, t in items), sig=sig)
        return True
    except UntypableError:
        return False


def _clause_typing(c: Clause, sig: Signature,
                   fixed: Mapping[Var, Type] | None) -> ClauseTyping:
    rigid = vars_of(fixed)
    inf = _Infer(sig, fixed=dict(fixed) if fixed is not None else None, rigid=rigid)
    vecs = inf.clause(c)
    theta = inf.solve()
    vecs = [theta.apply(tuple(v)) for v in vecs]
    env = {v: theta.apply(t) for v, t in inf.env.items()}
    flat = tuple(t for vec in vecs for t in vec)
    canon = canonical_param_map((flat, tuple(env.values())), keep=rigid)
    return ClauseTyping(
        variable_typing=apply_subst(env, canon),
        types=apply_subst(flat, canon),
        atom_types=apply_subst(tuple(vecs), canon),
    )


def most_general_type(c: Clause, sig: Signature) -> ClauseTyping:
    """Most general type of c over all variable typings, canonically
    renamed left to right.  Raises UntypableError when c has no typing."""
    return _clause_typing(c, sig, None)


def most_general_type_wrt(u: Mapping[Var, Type], c: Clause,
                          sig: Signature) -> ClauseTyping:
    """Most general type of c with the types of u fixed.  Parameters of u
    are kept; only proof-fresh parameters are canonically renamed."""
    return _clause_typing(c, sig, u)


def is_typable(q: Query, sig: Signature) -> bool:
    """Is there a variable typing under which the query is well-typed?"""
    try:
        most_general_type(wrap_query(q), sig)
        return True
    except UntypableError:
        return False


def _principal_type(t: Term, sig: Signature, memo: dict) -> Type | None:
    """The most general type of the ground term t, with canonical
    parameters, or None when t has none.  Bottom-up over an explicit stack:
    each distinct ground subterm not yet in `memo` gets its declaration's
    type, renamed apart, unified with its children's cached types, each
    renamed apart too, and the result is stored in `memo`."""
    todo = [t]
    while todo:
        s = todo[-1]
        if s in memo:
            todo.pop()
            continue
        pending = [c for c in s.args if c not in memo]
        if pending:
            todo += pending
            continue
        todo.pop()
        memo[s] = None
        decl = sig.func_decl(s.name)
        kids = [memo[c] for c in s.args]
        if decl is None or len(decl.arg_types) != len(kids) or any(k is None for k in kids):
            continue
        result = decl.result
        if kids:
            ns = NameSource()
            copied = rename_apart(decl.arg_types + (result,), ns)
            try:
                theta = mgu_types(zip(copied, (rename_apart(k, ns) for k in kids)))
            except UnificationError:
                continue
            result = theta.apply(copied[-1])
        memo[s] = apply_subst(result, canonical_param_map(result))
    return memo[t]


def _abstract(a: Atom) -> tuple[Atom, dict[Var, Var], list[tuple[Var, Term]]]:
    """The atom's shape: each maximal ground subterm replaced with a
    placeholder variable, and variables and placeholders renamed to V_1,
    V_2, ... in first-occurrence order.  Returns the canonical atom, the
    renaming of the atom's own variables, and each placeholder with the
    ground subterm it stands for.  One walk with an explicit stack, where
    a 1-tuple marks a term whose arguments are done."""
    canon: dict[Var, Var] = {}
    holes: list[tuple[Var, Term]] = []
    done: list[Term] = []
    todo: list = list(reversed(a.args))
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            f, = t
            args = tuple(done[-len(f.args):])
            del done[-len(f.args):]
            done.append(Fun(f.name, args))
        elif type(t) is Var:
            if t not in canon:
                canon[t] = Var("V", len(canon) + len(holes) + 1)
            done.append(canon[t])
        elif t.ground:
            holes.append((Var("V", len(canon) + len(holes) + 1), t))
            done.append(holes[-1][0])
        else:
            todo.append((t,))
            todo += reversed(t.args)
    return Atom(a.pred, tuple(done)), canon, holes


def _shape_typing(key: tuple, sig: Signature) -> dict[Var, Type] | None:
    """The most general typing of the real variables of an abstracted atom
    `(canonical atom, ((placeholder, principal type), ...))`, or None: the
    canonical atom typed in one inference pass, with each placeholder's
    type fixed in advance to a copy of its principal type renamed apart
    from the others."""
    atom, holes = key
    inf = _Infer(sig)
    inf.env.update((h, rename_apart(t, inf.ns)) for h, t in holes)
    placeholders = set(inf.env)
    try:
        inf.atom(atom)
        theta = inf.solve()
    except UntypableError:
        return None
    return {v: theta.apply(t) for v, t in inf.env.items() if v not in placeholders}


def _atom_typing(a: Atom, sig: Signature, memo: dict) -> dict[Var, Type] | None:
    atom, canon, holes = _abstract(a)
    pairs = []
    for h, g in holes:
        t = _principal_type(g, sig, memo)
        if t is None:
            return None
        pairs.append((h, t))
    key = (atom, tuple(pairs))
    if key not in memo:
        memo[key] = _shape_typing(key, sig)
    u = memo[key]
    return None if u is None else {v: u[c] for v, c in canon.items()}


def typable_by_atoms(q: Query, sig: Signature, memo: dict) -> bool:
    """The verdict of `is_typable`, joined from typings of the query's atoms,
    each atom shape typed once per `memo`.

    The query's typing constraints are the union of its atoms', and
    parameters local to one atom never meet another atom's, so the query is
    typable exactly when each atom is and, with each atom's parameters
    renamed apart, the types its atoms give a shared variable unify.

    An atom is typed through its shape (`_abstract`): a ground subterm
    shares no variable with the rest of the atom, and the types it can take
    are exactly the instances of its principal type.  So the atom with each
    maximal ground subterm replaced by a placeholder, plus one equation per
    placeholder between its type and a renamed-apart copy of that principal
    type, has the atom's verdict and the same most general typing of the
    atom's variables.  Atoms equal up to renaming, and up to ground
    subterms with the same principal types at the same places, share one
    typing.

    `memo` is per run and holds three kinds of entries: each ground subterm
    met, with its principal type; each shape (the canonical atom with each
    placeholder paired with its principal type), with the typing of its
    canonical variables; and each atom met, with the typing of its own
    variables, so that an atom repeated from the parent query skips the
    walk.  A typing is None when there is none."""
    ns = NameSource()
    first: dict[Var, Type] = {}
    eqs: list[tuple[Type, Type]] = []
    for a in q:
        if a not in memo:
            memo[a] = _atom_typing(a, sig, memo)
        u = memo[a]
        if u is None:
            return False
        for v, t in rename_apart(u, ns).items():
            if v in first:
                eqs.append((first[v], t))
            else:
                first[v] = t
    try:
        mgu_types(eqs)
        return True
    except UnificationError:
        return False


def require_typable(program: Program, query: Query) -> ClauseTyping:
    """The one admission gate: every clause of the program and the query
    must have a typing.  Forces `program.clause_typings`, which types each
    clause once, and returns the most general type of the query's wrapper
    clause `go :- query`, memoised in the program.  Raises UntypableError
    naming the first untypable clause, or the query, with the reason."""
    program.clause_typings  # raises on the first untypable clause
    try:
        return program.typing(GO_CLAUSE_INDEX, wrap_query(query))[1]
    except UntypableError as e:
        raise UntypableError(f"query is not typable: {render(query)}: {e}") from e
