"""Syntax of typed logic programs.

Types are terms built from declared constructors and parameters; program
terms are built from declared functions and variables.  A type or term
application (TCon, Fun) is immutable and knows its hash, groundness and
depth.  A parameter is a type variable, and each operation on variables
serves both levels at once: one walk (`vars_in_order`), one `apply_subst`,
which returns ground subterms themselves (no caller may rely on a fresh
copy), one idempotent `Subst` class, one fresh copy (`rename_apart`) and
one test for equality up to renaming (`variant`).  A solver's `Subst`
resolves each binding on first read.  Renamings are plain dicts applied
simultaneously.  Variables and parameters carry a numeric index so
machine-made copies never collide with source names (index 0).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Union

from .reports import CheckReport, Finding

GO = "go"
EQ = "="
MINUS = "minus"
INT = "int"
NIL = "nil"
CONS = "cons"

_INT_LITERAL = re.compile(r"-?\d+\Z")


def is_int_literal(name: str) -> bool:
    return bool(_INT_LITERAL.match(name))


class _Rendered:
    """Shown as the parser's renderer prints it."""
    __slots__ = ()

    def __repr__(self) -> str:
        from .parser import render
        return render(self)


# ------------------------------------------------- variables, applications

class _Syntax:
    """An immutable, named node of a term or type that knows its hash."""
    __slots__ = ("name", "_hash")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.name, self.args if isinstance(self, _App) else self.idx)

    def __eq__(self, other) -> bool:
        """Identity, then the hashes, then structure, walked with an explicit
        stack.  Nodes of different classes (a Fun and a TCon) never match."""
        if self is other:
            return True
        if type(other) is not type(self) or self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b) or a._hash != b._hash or a.name != b.name:
                    return False
                if isinstance(a, _App) and len(a.args) == len(b.args):
                    stack.extend(zip(a.args, b.args))
                elif isinstance(a, _App) or a.idx != b.idx:
                    return False
        return True


class _Variable(_Syntax):
    """A variable of either level.  Machine-made copies have an index > 0."""
    __slots__ = ("idx",)
    ground, depth = False, 0

    def __init__(self, name: str, idx: int = 0):
        _put_name(self, name)
        _put_idx(self, idx)
        _put_hash(self, hash((name, idx)))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.idx == other.idx and self.name == other.name

    __hash__ = _Syntax.__hash__

    def printed(self) -> str:
        return self.name if self.idx == 0 else f"{self.name}_{self.idx}"

    def __repr__(self) -> str:
        return self.printed()


class _App(_Rendered, _Syntax):
    """An immutable application of a name to a tuple of arguments.  Its hash,
    `ground` (no variable below) and `depth` (0 for a constant, else one more
    than its deepest argument, a variable counting 0) are set once, when built."""
    __slots__ = ("args", "ground", "depth")

    def __init__(self, name: str, args: tuple = ()):
        ground, depth = True, 0
        for a in args:
            ground = ground and a.ground
            if a.depth >= depth:
                depth = a.depth + 1
        _put_name(self, name)
        _put_args(self, args)
        _put_ground(self, ground)
        _put_depth(self, depth)
        _put_hash(self, hash((name, args)))


# The slots' own setters, which the blocked __setattr__ does not reach.
_put_name, _put_hash = _Syntax.name.__set__, _Syntax._hash.__set__
_put_idx = _Variable.idx.__set__
_put_args, _put_ground, _put_depth = (getattr(_App, k).__set__ for k in _App.__slots__)


# ---------------------------------------------------------------- types

class Param(_Variable):
    """Type parameter (type-level variable)."""
    __slots__ = ()


class TCon(_App):
    """Constructor application, e.g. list(int)."""
    __slots__ = ()


Type = Union[Param, TCon]

INT_TYPE = TCon(INT)


# ---------------------------------------------------------------- terms

class Var(_Variable):
    """Program variable."""
    __slots__ = ()


class Fun(_App):
    """Function application.  Integer literals are 0-ary functions whose
    name is the decimal spelling."""
    __slots__ = ()


Term = Union[Var, Fun]


@dataclass(frozen=True, repr=False)
class Atom(_Rendered):
    pred: str
    args: tuple[Term, ...] = ()


Query = tuple[Atom, ...]


@dataclass(frozen=True, repr=False)
class Clause(_Rendered):
    head: Atom
    body: Query = ()

    def atoms(self) -> tuple[Atom, ...]:
        return (self.head,) + self.body


# ------------------------------------------------------- fresh names

class NameSource:
    """Monotone counter handing out variables/parameters never seen before."""

    def __init__(self):
        self._next = 1

    def _tick(self) -> int:
        n = self._next
        self._next += 1
        return n

    def fresh_param(self, base: str = "U") -> Param:
        return Param(base, self._tick())


# ------------------------------------------------------- walkers

def vars_in_order(obj) -> list:
    """Variables and parameters (type variables) of a syntax object, first
    occurrence first.  Walks terms, types, atoms, clauses, tuples, and the
    values of mappings; None has none."""
    seen: dict = {}
    stack = [obj]
    while stack:
        o = stack.pop()
        t = type(o)
        if t is Var or t is Param:
            seen[o] = None
        elif t is Fun or t is TCon:
            if not o.ground:
                stack.extend(reversed(o.args))
        elif t is tuple:
            stack.extend(reversed(o))
        elif t is Atom:
            stack.extend(reversed(o.args))
        elif t is Clause:
            stack.extend(reversed(o.body))
            stack.append(o.head)
        elif isinstance(o, Mapping):
            stack.extend(reversed(list(o.values())))
        elif o is not None:
            raise TypeError(f"not a syntax object: {o!r}")
    return list(seen)


def vars_of(obj) -> set:
    return set(vars_in_order(obj))


# ------------------------------------------------------- substitutions

def _apply_app(obj, theta: Mapping):
    """A non-ground application with theta applied, rebuilt from an explicit
    stack of frames (a node and its new arguments so far), so nesting depth
    is not bounded by the recursion limit.  Variables and ground arguments
    are put in place without a frame of their own."""
    stack = [(obj, [])]
    while True:
        node, done = stack[-1]
        for a in node.args[len(done):]:
            t = type(a)
            if t is Var or t is Param:
                done.append(theta.get(a, a))
            elif a.ground:
                done.append(a)
            else:
                stack.append((a, []))
                break
        else:
            stack.pop()
            new = type(node)(node.name, tuple(done))
            if not stack:
                return new
            stack[-1][1].append(new)


def apply_subst(obj, theta: Mapping):
    """Apply a substitution, any mapping from variables to terms or from
    parameters to types, to a term, type, atom, clause, tuple, or mapping of
    these.  All bindings apply at once: the range is not substituted again,
    so a plain dict may rename simultaneously (e.g. {B: A, A: B})."""
    t = type(obj)
    if t is Var or t is Param:
        return theta.get(obj, obj)
    if t is Fun or t is TCon:
        return obj if obj.ground else _apply_app(obj, theta)
    if t is Atom:
        return Atom(obj.pred, tuple([apply_subst(a, theta) for a in obj.args]))
    if t is tuple:
        return tuple([apply_subst(x, theta) for x in obj])
    if t is Clause:
        return Clause(apply_subst(obj.head, theta), apply_subst(obj.body, theta))
    if isinstance(obj, Mapping):
        return {k: apply_subst(v, theta) for k, v in obj.items()}
    raise TypeError(f"cannot substitute in {obj!r}")


class Subst(_Rendered, Mapping):
    """Finite idempotent map from variables to terms, or from parameters
    to types.

    Identity bindings are dropped; a domain variable occurring in the range
    is rejected (the substitution would not be idempotent).  Renamings are
    not substitutions in this sense: apply them as plain dicts.  A solver's
    bindings (`triangular`) are resolved in place, each on first read.
    """

    __slots__ = ("_m", "_done")

    def __init__(self, mapping=()):
        m = {v: t for v, t in dict(mapping).items() if t != v}
        hit = {x for t in m.values() for x in vars_in_order(t) if x in m}
        if hit:
            raise ValueError(f"not idempotent: {sorted(x.printed() for x in hit)} bound and in range")
        self._m, self._done = m, None  # _done: the keys resolved so far; None once all are

    @classmethod
    def triangular(cls, binding: dict) -> "Subst":
        """The Subst that acyclic triangular bindings without identity
        bindings resolve to, taken without checking; it owns `binding`."""
        s = cls.__new__(cls)
        s._m, s._done = binding, set() if binding else None
        return s

    def _resolve(self, keys) -> None:
        """Resolve each key after the unresolved bound variables its value
        mentions, from an explicit stack, so long chains cost no recursion."""
        m, done = self._m, self._done
        stack = list(keys)
        while stack:
            x = stack[-1]
            if x in done:
                stack.pop()
                continue
            t = m[x]
            pending, bound, todo = [], False, [t]
            while todo:
                y = todo.pop()
                if type(y) is Var or type(y) is Param:
                    if y in m:
                        bound = True
                        if y not in done:
                            pending.append(y)
                elif not y.ground:
                    todo.extend(y.args)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if bound:  # else the value is already resolved
                m[x] = apply_subst(t, m)
            done.add(x)
        if len(done) == len(m):
            self._done = None

    @property
    def bindings(self) -> dict:  # as held, not to change: acyclic, triangular, each resolved or not
        return self._m

    def _resolved(self) -> dict:
        if self._done is not None:
            self._resolve(self._m)
        return self._m

    def __getitem__(self, k):
        if self._done is not None and k not in self._done:
            self._resolve((k,))
        return self._m[k]

    def __contains__(self, k):
        return k in self._m

    def __iter__(self):
        return iter(self._m)

    def __len__(self):
        return len(self._m)

    def items(self):
        return self._resolved().items()

    def __eq__(self, other):
        if isinstance(other, Subst):
            return self._resolved() == other._resolved()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.items()))

    def apply(self, obj):
        return apply_subst(obj, self._resolved())


def rename_apart(obj, fresh: NameSource, order: list | None = None):
    """Copy of a syntax object whose variables and parameters are fresh
    (never issued before), drawn in first-occurrence order; each keeps its
    name.  `order`, when given, is `vars_in_order(obj)` worked out before."""
    order = vars_in_order(obj) if order is None else order
    return apply_subst(obj, {v: type(v)(v.name, fresh._tick()) for v in order}) if order else obj


def variant(a, b) -> bool:
    """Equality of syntax objects up to a bijective renaming of variables
    and parameters."""

    def canon(o):
        return apply_subst(o, {v: type(v)("V", i + 1) for i, v in enumerate(vars_in_order(o))})

    return canon(a) == canon(b)


# ------------------------------------------------------- canonical names

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _canonical_names(avoid: set[str]) -> Iterator[str]:
    rnd = 0
    while True:
        for ch in _LETTERS:
            name = ch if rnd == 0 else f"{ch}{rnd}"
            if name not in avoid:
                yield name
        rnd += 1


def canonical_param_map(obj, keep=()) -> dict[Param, Param]:
    """Left-to-right renaming of the parameters of a type-level object to
    A, B, C, ...

    Parameters in `keep` stay untouched; fresh canonical names avoid them.
    The renaming is a plain dict, to be applied with apply_subst.
    """
    keep = set(keep)
    names = _canonical_names({p.name for p in keep if p.idx == 0})
    return {p: Param(next(names)) for p in vars_in_order(obj) if p not in keep}


# ------------------------------------------------------- signatures

@dataclass(frozen=True)
class FuncDecl:
    name: str
    arg_types: tuple[Type, ...]
    result: Type

    @cached_property
    def params(self) -> list[Param]:  # of the argument and result types, first occurrence first
        return vars_in_order((self.arg_types, self.result))


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_types: tuple[Type, ...]

    @cached_property
    def params(self) -> list[Param]:  # of the argument types, first occurrence first
        return vars_in_order(self.arg_types)


_EQ_DECL = PredDecl(EQ, (Param("U"), Param("U")))
_GO_DECL = PredDecl(GO, ())
_MINUS_DECL = FuncDecl(MINUS, (INT_TYPE, INT_TYPE), INT_TYPE)


@dataclass
class Signature:
    """Declared constructors (kinds), functions, and predicates.

    `=`, `go`, integer literals, and `minus` are built in; the latter two
    need the kind int/0 to be declared.
    """
    kinds: dict[str, int] = field(default_factory=dict)
    funcs: dict[str, FuncDecl] = field(default_factory=dict)
    preds: dict[str, PredDecl] = field(default_factory=dict)

    def declare_kind(self, name: str, arity: int) -> None:
        if name in self.kinds:
            raise ValueError(f"kind {name} declared twice")
        self.kinds[name] = arity

    def declare_func(self, decl: FuncDecl) -> None:
        if decl.name in self.funcs or decl.name == MINUS or is_int_literal(decl.name):
            raise ValueError(f"function {decl.name} declared twice")
        self.funcs[decl.name] = decl

    def declare_pred(self, decl: PredDecl) -> None:
        if decl.name in self.preds or decl.name == EQ:
            raise ValueError(f"predicate {decl.name} declared twice")
        if decl.name == GO and decl.arg_types:
            raise ValueError("go must be 0-ary")
        self.preds[decl.name] = decl

    def has_int(self) -> bool:
        return self.kinds.get(INT) == 0

    def func_decl(self, name: str) -> FuncDecl | None:
        if name in self.funcs:
            return self.funcs[name]
        if self.has_int():
            if is_int_literal(name):
                return FuncDecl(name, (), INT_TYPE)
            if name == MINUS:
                return _MINUS_DECL
        return None

    def pred_decl(self, name: str) -> PredDecl | None:
        if name == EQ:
            return _EQ_DECL
        if name in self.preds:
            return self.preds[name]
        if name == GO:
            return _GO_DECL
        return None


@dataclass(frozen=True, repr=False)
class Program(_Rendered):
    signature: Signature
    clauses: tuple[Clause, ...]
    partitions: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @cached_property
    def clause_typings(self) -> tuple:
        """The most general type of each clause, worked out once, on first
        use.  Raises UntypableError naming the first untypable clause by
        number and text."""
        from .parser import render
        from .typecheck import UntypableError, most_general_type
        out = []
        for i, c in enumerate(self.clauses):
            try:
                out.append(most_general_type(c, self.signature))
            except UntypableError as e:
                raise UntypableError(f"clause {i + 1}: {render(c)} has no typing: {e}") from e
        return tuple(out)

    @cached_property
    def _other_typings(self) -> dict:
        # Per instance, so a `dataclasses.replace` copy starts empty.
        return {}

    def typing(self, index: int, clause: Clause) -> tuple:
        """The clause that a node with this clause index copies, and its most
        general type: program clause `index` with `clause_typings[index]`,
        the built-in `=` clause, or else (the query root) `clause` itself.
        A renamed copy has the same atom types.  The typings of clauses
        outside the program are memoised by clause on first use; failures
        are not.  Raises UntypableError when the clause has no typing."""
        if index >= 0:
            return self.clauses[index], self.clause_typings[index]
        c = EQ_CLAUSE if index == EQ_CLAUSE_INDEX else clause
        if c not in self._other_typings:
            from .typecheck import most_general_type
            self._other_typings[c] = most_general_type(c, self.signature)
        return c, self._other_typings[c]


# The built-in clause resolving equality atoms, and reserved clause indices.
EQ_CLAUSE = Clause(Atom(EQ, (Var("X"), Var("X"))))
EQ_CLAUSE_INDEX = -2
GO_CLAUSE_INDEX = -1


def wrap_query(q: Query) -> Clause:
    return Clause(Atom(GO), tuple(q))


def resolution_clauses(p: Program) -> list[tuple[int, Clause]]:
    """Program clauses plus the built-in equality clause, with indices."""
    out = list(enumerate(p.clauses))
    out.append((EQ_CLAUSE_INDEX, EQ_CLAUSE))
    return out


# ------------------------------------------------------- signature checks

def decl_problems(kinds: Mapping[str, int], decl: FuncDecl | PredDecl,
                  where: str = "") -> list[Finding]:
    """Ill-formed parts of one declaration: undeclared constructors and
    constructors used with the wrong arity (each type in prefix order), then,
    for a function, the parameters of its argument types missing from its
    result type (transparency).  `where` prefixes the constructor messages."""
    pre = f"{where}: " if where else ""
    is_func = isinstance(decl, FuncDecl)
    out: list[Finding] = []
    stack = list(reversed(decl.arg_types + ((decl.result,) if is_func else ())))
    while stack:
        t = stack.pop()
        if isinstance(t, Param):
            continue
        arity = kinds.get(t.name)
        if arity is None:
            out.append(Finding("unknown-constructor", f"{pre}constructor {t.name} not declared"))
        elif arity != len(t.args):
            out.append(Finding("constructor-arity",
                               f"{pre}constructor {t.name}/{arity} used with {len(t.args)} arguments"))
        stack.extend(reversed(t.args))
    if is_func:
        extra = vars_of(decl.arg_types) - vars_of(decl.result)
        if extra:
            names = ", ".join(sorted(p.printed() for p in extra))
            out.append(Finding("transparency",
                               f"func {decl.name} is not transparent: {names} missing from result type"))
    return out


HEAD_GENERIC = "h"
BODY_GENERIC = "b"


def partition_problem(sig: Signature, name: str, marks: tuple[str, ...]) -> str | None:
    """What is wrong with a partition giving `marks` for predicate `name`, or
    None: the predicate must be declared, with one mark per argument, each
    h or b."""
    decl = sig.preds.get(name)
    if decl is None:
        return f"partition for undeclared predicate {name}"
    if len(marks) != len(decl.arg_types):
        return f"partition for {name} has {len(marks)} marks, expected {len(decl.arg_types)}"
    bad = [m for m in marks if m not in (HEAD_GENERIC, BODY_GENERIC)]
    return f"partition marks must be h or b, got {bad[0]}" if bad else None


def validate_signature(sig: Signature) -> CheckReport:
    """Well-formedness of all declarations, including transparency: the
    parameters of a function's argument types must occur in its result type."""
    findings: list[Finding] = []
    for f in sig.funcs.values():
        findings.extend(decl_problems(sig.kinds, f, f"func {f.name}"))
    for pd in sig.preds.values():
        findings.extend(decl_problems(sig.kinds, pd, f"pred {pd.name}"))
    return CheckReport(tuple(findings))
