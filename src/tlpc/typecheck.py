"""Typing judgements and most general types.

Checking and inference both reduce to type unification: every occurrence of
a declared symbol gets a fresh copy of its declared type, argument types are
equated with the copies, and the equations are solved.  Inference builds no
proof objects, only types and equations: `judge` gives a judgement's
verdict, the clause typings give most general types, and `typable_in_run`
gives a derived query's verdict, reusing the principal types of ground
subterms across one run.  A term is typed in one walk with an explicit
stack, so nesting depth is not bounded by Python's recursion limit.  For
judgements against a supplied variable typing, the parameters of that
typing (and of an expected type) are rigid: they behave as constants and
cannot be instantiated.
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
                 rigid=(), principal: dict | None = None):
        self.sig = sig
        # Per run: each ground term met, with its principal type; when set,
        # a ground term is typed by a renamed copy of it (`typable_in_run`).
        self.principal = principal
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
            elif self.principal is not None and x.ground:
                known = _principal_type(x, self.sig, self.principal)
                if known is None:
                    raise UntypableError(f"ground term {render(x)} has no type")
                done.append(rename_apart(known, self.ns))
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


def typable_in_run(q: Query, sig: Signature, memo: dict) -> bool:
    """The verdict of `is_typable`, from one inference pass over the query's
    atoms in which each ground subterm is typed by a copy of its principal
    type, renamed apart, instead of a walk.  A ground subterm shares no
    variable with the rest of the query, and the types it can take are
    exactly the instances of its principal type, so the verdict is the
    same.  `memo` is per run: it maps each ground subterm met, at any
    depth, to its principal type (None when it has none), so a ground
    subterm that later queries carry along is typed once."""
    inf = _Infer(sig, principal=memo)
    try:
        for a in q:
            inf.atom(a)
        inf.solve()
        return True
    except UntypableError:
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
