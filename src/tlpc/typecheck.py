"""Typing judgements and most general types.

Checking and inference both reduce to type unification: every occurrence of
a declared symbol gets a fresh copy of its declared type, argument types are
equated with the copies, and the equations are solved.  For judgements
against a supplied variable typing, the parameters of that typing (and of an
expected type) are rigid: they behave as constants and cannot be
instantiated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    Atom, Clause, Fun, NameSource, Param, Program, Query, Signature,
    Term, Type, Var, apply_subst, canonical_param_map, is_int_literal,
    pars, pars_in_order, wrap_query,
)
from .parser import render
from .unify import UnificationError, mgu_types


class UntypableError(Exception):
    """No typing proof exists; the message names the first sub-judgement
    that cannot be derived."""


@dataclass(frozen=True)
class JudgementProof:
    """A proof tree.  `rule` is one of var, func, atom, query, clause,
    program; `theta` instantiates the declared type of the symbol at a func
    or atom node; `ty` is the derived type at a term node."""
    rule: str
    subject: object
    ty: Type | None = None
    theta: Mapping[Param, Type] | None = None
    children: tuple["JudgementProof", ...] = ()
    variable_typing: Mapping[Var, Type] | None = None


@dataclass(frozen=True)
class ClauseTyping:
    """Most general type of a clause: a typing for its variables plus the
    types of every atom's arguments (head first, then body atoms)."""
    variable_typing: Mapping[Var, Type]
    types: tuple[Type, ...]
    atom_types: tuple[tuple[Type, ...], ...]


class _Pre:
    """Proof node before the constraints are solved."""

    __slots__ = ("rule", "subject", "ty", "copy_map", "children")

    def __init__(self, rule, subject, ty=None, copy_map=None, children=()):
        self.rule = rule
        self.subject = subject
        self.ty = ty
        self.copy_map = copy_map
        self.children = children


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

    def copy_of(self, types: tuple[Type, ...]):
        cm = {p: self.ns.fresh_param(p.name) for p in pars_in_order(types)}
        return cm, apply_subst(types, cm)

    def term(self, t: Term):
        if isinstance(t, Var):
            if t not in self.env:
                if not self.mint:
                    raise UntypableError(f"variable {t.printed()} has no type in the variable typing")
                self.env[t] = self.ns.fresh_param(t.name)
            ty = self.env[t]
            return ty, _Pre("var", t, ty)
        decl = self.sig.func_decl(t.name)
        if decl is None:
            if is_int_literal(t.name):
                raise UntypableError("integer literals require kind int/0")
            raise UntypableError(f"function {t.name} not declared")
        if len(decl.arg_types) != len(t.args):
            raise UntypableError(
                f"function {t.name}/{len(decl.arg_types)} used with {len(t.args)} arguments")
        cm, copied = self.copy_of(decl.arg_types + (decl.result,))
        kids = []
        for i, (arg, ety) in enumerate(zip(t.args, copied[:-1])):
            aty, kid = self.term(arg)
            self.constrain(aty, ety, i, t)
            kids.append(kid)
        return copied[-1], _Pre("func", t, copied[-1], cm, kids)

    def atom(self, a: Atom):
        decl = self.sig.pred_decl(a.pred)
        if decl is None:
            raise UntypableError(f"predicate {a.pred} not declared")
        if len(decl.arg_types) != len(a.args):
            raise UntypableError(
                f"predicate {a.pred}/{len(decl.arg_types)} used with {len(a.args)} arguments")
        cm, vec = self.copy_of(decl.arg_types)
        kids = []
        for i, (arg, ety) in enumerate(zip(a.args, vec)):
            aty, kid = self.term(arg)
            self.constrain(aty, ety, i, a)
            kids.append(kid)
        return vec, _Pre("atom", a, None, cm, kids)

    def clause(self, c: Clause):
        hvec, hpre = self.atom(c.head)
        vecs = [hvec]
        bkids = []
        for a in c.body:
            vec, pre = self.atom(a)
            vecs.append(vec)
            bkids.append(pre)
        cpre = _Pre("clause", c, None, None,
                    (hpre, _Pre("query", c.body, None, None, tuple(bkids))))
        return vecs, cpre

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


def _finalize(pre: _Pre, theta, u=None) -> JudgementProof:
    kids = tuple(_finalize(k, theta) for k in pre.children)
    ty = theta.apply(pre.ty) if pre.ty is not None else None
    th = None
    if pre.copy_map is not None:
        th = {orig: theta.apply(copy) for orig, copy in pre.copy_map.items()}
    return JudgementProof(pre.rule, pre.subject, ty, th, kids, u)


def judge(u: Mapping[Var, Type] | None, obj, expected: Type | None = None,
          *, sig: Signature | None = None) -> JudgementProof:
    """Derive the typing judgement for obj (a Term with an expected type, or
    an Atom, Query, Clause, or Program) under the variable typing u.

    For a Program, u is ignored: each clause is checked under some variable
    typing of its own.  Raises UntypableError when no proof exists.
    """
    if isinstance(obj, Program):
        kids = []
        for c in obj.clauses:
            inf = _Infer(obj.signature if sig is None else sig)
            _, pre = inf.clause(c)
            theta = inf.solve()
            env = {v: theta.apply(t) for v, t in inf.env.items()}
            kids.append(_finalize(pre, theta, env))
        return JudgementProof("program", obj, children=tuple(kids))

    if sig is None:
        raise TypeError("judge needs a signature")
    u = dict(u or {})
    rigid = pars(tuple(u.values()))
    if expected is not None:
        rigid |= pars(expected)
    inf = _Infer(sig, fixed=u, rigid=rigid)
    if isinstance(obj, (Var, Fun)):
        if expected is None:
            raise ValueError("a term needs an expected type")
        ty, pre = inf.term(obj)
        inf.constrain(ty, expected, None, obj)
    elif isinstance(obj, Atom):
        _, pre = inf.atom(obj)
    elif isinstance(obj, Clause):
        _, pre = inf.clause(obj)
    elif isinstance(obj, tuple):
        kids = []
        for a in obj:
            _, apre = inf.atom(a)
            kids.append(apre)
        pre = _Pre("query", obj, None, None, tuple(kids))
    else:
        raise TypeError(f"cannot judge {obj!r}")
    theta = inf.solve()
    return _finalize(pre, theta, u)


def _clause_typing(c: Clause, sig: Signature,
                   fixed: Mapping[Var, Type] | None) -> ClauseTyping:
    rigid = pars(tuple(fixed.values())) if fixed is not None else set()
    inf = _Infer(sig, fixed=dict(fixed) if fixed is not None else None, rigid=rigid)
    vecs, _ = inf.clause(c)
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


def typable_by_atoms(q: Query, sig: Signature, memo: dict) -> bool:
    """The verdict of `is_typable`, joined from typings of the query's atoms.
    `memo` maps each atom typed so far to its most general variable typing,
    or to None when it has none; an atom not in it is typed and added.  The
    query's typing constraints are the union of its atoms', and parameters
    local to one atom never meet another atom's, so the query is typable
    exactly when each atom is and, with each atom's parameters renamed
    apart, the types its atoms give a shared variable unify."""
    ns = NameSource()
    first: dict[Var, Type] = {}
    eqs: list[tuple[Type, Type]] = []
    for a in q:
        if a not in memo:
            try:
                memo[a] = most_general_type(wrap_query((a,)), sig).variable_typing
            except UntypableError:
                memo[a] = None
        u = memo[a]
        if u is None:
            return False
        ren = {p: ns.fresh_param(p.name) for p in pars_in_order(tuple(u.values()))}
        for v, t in apply_subst(u, ren).items():
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
    clause `go :- query`.  Raises UntypableError naming the first untypable
    clause, or the query."""
    program.clause_typings  # raises on the first untypable clause
    try:
        return most_general_type(wrap_query(query), program.signature)
    except UntypableError as e:
        raise UntypableError(f"query is not typable: {render(query)}") from e
