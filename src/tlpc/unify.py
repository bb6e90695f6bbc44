"""First-order unification, one engine for terms and types.

A variable is a Var (term level) or a Param (type level); an application
decomposes by its functor (node type, name, arity).  The solver keeps
triangular bindings: a binding's value may mention variables bound later,
so adding a binding never rewrites the others, and variables are
dereferenced through the bindings when an equation is taken up (Martelli
& Montanari 1982), and returned as they are in a `Subst.triangular`, which
resolves each on first read.  The occur check is always on, and equations
are processed leftmost first, so results are deterministic.  Neither the
occur check nor the resolution looks inside ground subterms.
The paper's ordered sufficient unifiability test serves only the test
suite and lives in `tests/helpers.py`.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .core import Atom, Param, Subst, Var, apply_subst


class UnificationError(Exception):
    """Raised on a clash or a failed occur check; carries the offending
    equation (after the bindings accumulated so far were applied).  The
    bindings are applied to the two sides, and the message rendered, only
    when first read: a caller that just tests unifiability pays for neither."""

    def __init__(self, kind: str, left, right, index: int, bindings: Mapping | None = None):
        super().__init__()
        self.kind = kind
        self.index = index
        self._sides = (left, right)
        self._bindings = {} if bindings is None else bindings

    @cached_property
    def left(self):
        return apply_subst(self._sides[0], self._bindings)

    @cached_property
    def right(self):
        return apply_subst(self._sides[1], self._bindings)

    def __str__(self) -> str:
        return f"{self.kind}: {self.left!r} = {self.right!r} (equation {self.index + 1})"


def _is_var(x) -> bool:
    return type(x) is Var or type(x) is Param


def _functor(x) -> tuple:
    return type(x), x.pred if type(x) is Atom else x.name, len(x.args)


def _occurs(v, t, binding: dict) -> bool:
    """Does v occur in t once bound variables are replaced by their values?"""
    stack, seen = [t], set()
    while stack:
        x = stack.pop()
        if _is_var(x):
            if x == v:
                return True
            if x in binding and x not in seen:
                seen.add(x)
                stack.append(binding[x])
        elif not x.ground:
            stack.extend(x.args)
    return False


def _mgu(eqs: Sequence[tuple], rigid: frozenset) -> Subst:
    binding: dict = {}

    def walk(x):
        while _is_var(x) and x in binding:
            x = binding[x]
        return x

    work = [(l, r, i) for i, (l, r) in enumerate(eqs)]
    work.reverse()
    while work:
        left, right, i = work.pop()
        left, right = walk(left), walk(right)
        if left == right:
            continue
        if _is_var(left) or _is_var(right):
            if _is_var(right) and (not _is_var(left) or left in rigid):
                left, right = right, left
            if left in rigid:
                raise UnificationError("clash", left, right, i, Subst.triangular(binding))
            if _occurs(left, right, binding):
                raise UnificationError("occur", left, right, i, Subst.triangular(binding))
            binding[left] = right
            continue
        if _functor(left) != _functor(right):
            raise UnificationError("clash", left, right, i, Subst.triangular(binding))
        work.extend((l, r, i) for l, r in zip(reversed(left.args), reversed(right.args)))
    return Subst.triangular(binding)


def mgu_terms(eqs: Iterable[tuple]) -> Subst:
    """Most general unifier of term (or atom) equations.

    Raises UnificationError on clash or occur-check failure; the result is
    idempotent and binds only variables of the input.
    """
    return _mgu(list(eqs), frozenset())


def mgu_types(eqs: Iterable[tuple], rigid: Iterable[Param] = ()) -> Subst:
    """Most general unifier of type equations.  Parameters in `rigid` act
    as constants: binding one fails with a clash."""
    return _mgu(list(eqs), frozenset(rigid))


def _match(pattern, target, binding: dict) -> dict | None:
    if _is_var(pattern):
        bound = binding.get(pattern)
        if bound is None:
            binding[pattern] = target
            return binding
        return binding if bound == target else None
    if _is_var(target) or _functor(pattern) != _functor(target):
        return None
    for p, t in zip(pattern.args, target.args):
        if p.ground:
            if p != t:
                return None
        elif _match(p, t, binding) is None:
            return None
    return binding


def match_terms(pattern, target) -> dict | None:
    """One-sided unification of terms or types: a plain mapping m with
    pattern.m == target, or None.  (The mapping need not be idempotent:
    matching X against f(X) legitimately yields X -> f(X).)"""
    return _match(pattern, target, {})
