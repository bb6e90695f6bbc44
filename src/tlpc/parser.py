"""Reader and printer for the .tlp program format.

A program interleaves declarations and clauses::

    kind list/1.                     % type constructor
    func nil : list(U).              % constant
    func cons(U, list(U)) : list(U). % function with argument types
    pred app(list(U), list(U), list(U)).
    partition app(h, h, h).          % optional h/b position annotation

    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).

Identifiers starting with an uppercase letter are variables (in terms) or
parameters (in types).  `[a,b|T]` is sugar for cons/nil, infix `=` is the
built-in equality predicate, and infix `-` is the built-in integer
subtraction `minus`.  `%` starts a comment.  Declarations must appear
before their first use.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    CONS, EQ, MINUS, NIL,
    Atom, Clause, Fun, FuncDecl, Param, PredDecl, Program, Query, Signature,
    Subst, TCon, Type, Var, decl_problems, is_int_literal, partition_problem,
)

RESERVED = {"kind", "func", "pred", "partition", "true"}

_TOKEN = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<arrow>:-)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[().\[\],|=\-/:])
""", re.VERBOSE)


@dataclass(frozen=True)
class Diagnostic:
    """An error in the input text, at a line and column (both from 1)."""
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident | var | int | punct | arrow | eof
    text: str
    line: int
    col: int


def _tokenize(text: str, diags: list[Diagnostic]) -> list[_Tok]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            diags.append(Diagnostic(line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], diags: list[Diagnostic], sig: Signature):
        self.toks = toks
        self.i = 0
        self.diags = diags
        self.sig = sig

    def error(self, tok: _Tok, message: str) -> None:
        self.diags.append(Diagnostic(tok.line, tok.col, message))

    # -- token plumbing

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def eat(self, kind: str, text: str | None = None) -> _Tok | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if self.at(kind, text):
            return self.next()
        want = text or kind
        raise _Bail(t, f"expected {want!r}, found {t.text!r}" if t.kind != "eof"
                    else f"expected {want!r}, found end of input")

    def skip_to_dot(self) -> None:
        while not self.at("eof"):
            if self.next().text == ".":
                return

    def parse_args(self, item) -> tuple:
        """An optional parenthesised, comma-separated list of `item()`s."""
        out = []
        if self.eat("punct", "("):
            out.append(item())
            while self.eat("punct", ","):
                out.append(item())
            self.expect("punct", ")")
        return tuple(out)

    # -- types

    def parse_type(self) -> Type:
        t = self.peek()
        if t.kind == "var":
            self.next()
            return Param(t.text)
        if t.kind == "ident":
            self.next()
            return TCon(t.text, self.parse_args(self.parse_type))
        raise _Bail(t, f"expected a type, found {t.text!r}")

    # -- declarations

    def parse_kind(self) -> None:
        self.expect("ident", "kind")
        name = self.expect("ident")
        self.expect("punct", "/")
        arity = self.expect("int")
        self.expect("punct", ".")
        try:
            self.sig.declare_kind(name.text, int(arity.text))
        except ValueError as e:
            self.error(name, str(e))

    def parse_func(self) -> None:
        self.expect("ident", "func")
        name = self.expect("ident")
        args = self.parse_args(self.parse_type)
        self.expect("punct", ":")
        result = self.parse_type()
        self.expect("punct", ".")
        self.declare(name, FuncDecl(name.text, args, result), self.sig.declare_func)

    def declare(self, name: _Tok, decl, add) -> None:
        """Report the declaration's ill-formed types (and, for a function,
        transparency) at its name, then add it to the signature."""
        for f in decl_problems(self.sig.kinds, decl):
            self.error(name, f.witness)
        if name.text in RESERVED:
            self.error(name, f"{name.text} is reserved")
            return
        try:
            add(decl)
        except ValueError as e:
            self.error(name, str(e))

    def parse_pred(self) -> None:
        self.expect("ident", "pred")
        name = self.expect("ident")
        args = self.parse_args(self.parse_type)
        self.expect("punct", ".")
        self.declare(name, PredDecl(name.text, args), self.sig.declare_pred)

    def parse_partition(self, partitions: dict[str, tuple[str, ...]]) -> None:
        self.expect("ident", "partition")
        name = self.expect("ident")
        marks = self.parse_args(lambda: self.expect("ident").text)
        self.expect("punct", ".")
        problem = partition_problem(self.sig, name.text, marks)
        if problem is None and name.text in partitions:
            problem = f"partition for {name.text} given twice"
        if problem is not None:
            self.error(name, problem)
        else:
            partitions[name.text] = marks

    # -- terms

    def parse_term(self) -> Term:
        left = self.parse_primary()
        while self.at("punct", "-"):
            tok = self.next()
            right = self.parse_primary()
            self.check_minus(tok)
            left = Fun(MINUS, (left, right))
        return left

    def check_minus(self, tok: _Tok) -> None:
        if not self.sig.has_int():
            self.error(tok, "integer subtraction requires kind int/0")

    def parse_primary(self) -> Term:
        t = self.peek()
        if t.kind == "var":
            self.next()
            return Var(t.text)
        if t.kind == "int":
            self.next()
            self.check_int(t)
            return Fun(t.text)
        if t.text == "-":
            self.next()
            n = self.expect("int")
            self.check_int(n)
            return Fun(f"-{n.text}")
        if t.text == "(":
            self.next()
            inner = self.parse_term()
            self.expect("punct", ")")
            return inner
        if t.text == "[":
            return self.parse_list()
        if t.kind == "ident":
            self.next()
            return Fun(t.text, self.parse_args(self.parse_term))
        raise _Bail(t, f"expected a term, found {t.text!r}")

    def parse_list(self) -> Term:
        self.expect("punct", "[")
        if self.eat("punct", "]"):
            self.check_func_name(NIL, self.toks[self.i - 1])
            return Fun(NIL)
        items = [self.parse_term()]
        while self.eat("punct", ","):
            items.append(self.parse_term())
        tail: Term = Fun(NIL)
        if self.eat("punct", "|"):
            tail = self.parse_term()
        else:
            self.check_func_name(NIL, self.peek())
        close = self.expect("punct", "]")
        self.check_func_name(CONS, close)
        for item in reversed(items):
            tail = Fun(CONS, (item, tail))
        return tail

    def check_int(self, tok: _Tok) -> None:
        if not self.sig.has_int():
            self.error(tok, "integer literals require kind int/0")

    def check_func_name(self, name: str, tok: _Tok) -> None:
        if self.sig.func_decl(name) is None:
            self.error(tok, f"list syntax requires func {name} to be declared")

    def validate_term(self, t: Term, tok: _Tok) -> None:
        """Function symbols are only identifiable once the atom context is
        known, so terms are validated after atom construction.  The walk is
        prefix order on an explicit stack, so a long list literal (a deep
        `cons` chain built by a loop) is validated without recursion."""
        stack = [t]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                continue
            if not (is_int_literal(t.name) or t.name == MINUS):
                decl = self.sig.func_decl(t.name)
                if decl is None:
                    self.error(tok, f"function {t.name} not declared")
                elif len(decl.arg_types) != len(t.args):
                    self.error(tok, f"function {t.name}/{len(decl.arg_types)} "
                                    f"used with {len(t.args)} arguments")
            stack.extend(reversed(t.args))

    # -- atoms and clauses

    def parse_body_atom(self) -> Atom:
        start = self.peek()
        left = self.parse_term()
        if self.eat("punct", "="):
            right = self.parse_term()
            self.validate_term(left, start)
            self.validate_term(right, start)
            return Atom(EQ, (left, right))
        if isinstance(left, Fun) and not is_int_literal(left.name) and left.name != MINUS:
            return self.to_atom(left, start)
        raise _Bail(start, "a body atom must be a predicate call or an equation")

    def to_atom(self, f: Fun, tok: _Tok) -> Atom:
        decl = self.sig.pred_decl(f.name)
        if decl is None:
            self.error(tok, f"predicate {f.name} not declared")
        elif len(decl.arg_types) != len(f.args):
            self.error(tok, f"predicate {f.name}/{len(decl.arg_types)} "
                            f"used with {len(f.args)} arguments")
        for a in f.args:
            self.validate_term(a, tok)
        return Atom(f.name, f.args)

    def parse_head(self) -> Atom:
        tok = self.expect("ident")
        return self.to_atom(Fun(tok.text, self.parse_args(self.parse_term)), tok)

    def parse_conj(self) -> Query:
        if self.at("ident", "true"):
            self.next()
            return ()
        atoms = [self.parse_body_atom()]
        while self.eat("punct", ","):
            atoms.append(self.parse_body_atom())
        return tuple(atoms)

    def parse_clause(self) -> Clause:
        head = self.parse_head()
        body: Query = ()
        if self.eat("arrow"):
            body = self.parse_conj()
        self.expect("punct", ".")
        return Clause(head, body)


class _Bail(Exception):
    """Internal: abort the current item and resynchronise at the next dot."""

    def __init__(self, tok: _Tok, message: str):
        self.tok = tok
        self.message = message


def _report(p: _Parser, err: _Bail | RecursionError) -> None:
    """Record an aborted item.  The parser recurses once per nesting level,
    so a term nested past the recursion limit is reported at the token
    reached, as bad input."""
    tok, message = ((err.tok, err.message) if isinstance(err, _Bail)
                    else (p.peek(), "term nested too deeply"))
    p.error(tok, message)


def parse_program(text: str) -> Program:
    """Parse a .tlp source text.  Raises ParseError carrying its
    diagnostics when the text (or its signature) is ill-formed."""
    diags: list[Diagnostic] = []
    toks = _tokenize(text, diags)
    sig = Signature()
    partitions: dict[str, tuple[str, ...]] = {}
    clauses: list[Clause] = []
    p = _Parser(toks, diags, sig)
    while not p.at("eof"):
        try:
            if p.at("ident", "kind"):
                p.parse_kind()
            elif p.at("ident", "func"):
                p.parse_func()
            elif p.at("ident", "pred"):
                p.parse_pred()
            elif p.at("ident", "partition"):
                p.parse_partition(partitions)
            else:
                clauses.append(p.parse_clause())
        except (_Bail, RecursionError) as err:
            _report(p, err)
            p.skip_to_dot()
    if diags:
        raise ParseError(diags)
    return Program(sig, tuple(clauses), partitions)


def _parse_one(text: str, sig: Signature, item):
    """Parse the whole text as one item, `item(parser)`, against an existing
    signature."""
    diags: list[Diagnostic] = []
    p = _Parser(_tokenize(text, diags), diags, sig)
    try:
        got = item(p)
        p.expect("eof")
    except (_Bail, RecursionError) as err:
        _report(p, err)
        got = None
    if diags or got is None:
        raise ParseError(diags)
    return got


def parse_query(text: str, sig: Signature) -> Query:
    """Parse a query (a comma-separated conjunction, or `true`)."""
    return _parse_one(text, sig, _Parser.parse_conj)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a single term against an existing signature."""
    return _parse_one(text, sig, _Parser.parse_term)


def parse_clause(text: str, sig: Signature) -> Clause:
    """Parse a single clause against an existing signature."""
    return _parse_one(text, sig, _Parser.parse_clause)


# ---------------------------------------------------------------- printing

def _render_tree(t) -> str:
    """A term or a type as source text; list and minus sugar apply to terms
    (Fun) only.  One walk with an explicit stack of the nodes and the
    literal text still to print, so nesting costs no frames."""
    out: list[str] = []
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
            continue
        if type(x) is Var or type(x) is Param:
            out.append(x.printed())
            continue
        items = x.args
        if not items:
            out.append("[]" if x.name == NIL and type(x) is Fun else x.name)
            continue
        if type(x) is Fun and x.name == MINUS and len(items) == 2:
            left, right = items
            if isinstance(right, Fun) and (right.name == MINUS or right.name.startswith("-")):
                todo += (")", right, "-(", left)
            else:
                todo += (right, "-", left)
            continue
        if type(x) is Fun and x.name == CONS and len(items) == 2:
            items = []
            while type(x) is Fun and x.name == CONS and len(x.args) == 2:
                items.append(x.args[0])
                x = x.args[1]
            out.append("[")
            todo += ("]",) if type(x) is Fun and x.name == NIL and not x.args else ("]", x, "|")
        else:
            out.append(x.name + "(")
            todo.append(")")
        parts = [", "] * (2 * len(items) - 1)  # the items, comma-separated
        parts[::2] = items
        todo += parts[::-1]
    return "".join(out)


def render_types(types) -> str:
    """A tuple of types, e.g. `(list(A), list(A))`."""
    return f"({', '.join(_render_tree(t) for t in types)})"


def _render_atom(a: Atom) -> str:
    if a.pred == EQ and len(a.args) == 2:
        return f"{_render_tree(a.args[0])} = {_render_tree(a.args[1])}"
    if not a.args:
        return a.pred
    return f"{a.pred}({', '.join(_render_tree(x) for x in a.args)})"


def _render_query(q) -> str:
    if not q:
        return "true"
    return ", ".join(_render_atom(a) for a in q)


def _render_clause(c: Clause) -> str:
    if not c.body:
        return f"{_render_atom(c.head)}."
    return f"{_render_atom(c.head)} :- {_render_query(c.body)}."


def _render_program(p: Program) -> str:
    lines = []
    for name, arity in p.signature.kinds.items():
        lines.append(f"kind {name}/{arity}.")
    for f in p.signature.funcs.values():
        if f.arg_types:
            lines.append(f"func {f.name}({', '.join(_render_tree(t) for t in f.arg_types)}) : {_render_tree(f.result)}.")
        else:
            lines.append(f"func {f.name} : {_render_tree(f.result)}.")
    for pd in p.signature.preds.values():
        if pd.arg_types:
            lines.append(f"pred {pd.name}({', '.join(_render_tree(t) for t in pd.arg_types)}).")
        else:
            lines.append(f"pred {pd.name}.")
    for name, marks in p.partitions.items():
        lines.append(f"partition {name}({', '.join(marks)}).")
    if lines:
        lines.append("")
    for c in p.clauses:
        lines.append(_render_clause(c))
    return "\n".join(lines) + "\n"


def render(obj) -> str:
    """Source text for any syntax object.  Parsing the result of rendering
    a parsed object gives the object back."""
    if isinstance(obj, (Var, Fun, Param, TCon)):
        return _render_tree(obj)
    if isinstance(obj, Atom):
        return _render_atom(obj)
    if isinstance(obj, Clause):
        return _render_clause(obj)
    if isinstance(obj, Program):
        return _render_program(obj)
    if isinstance(obj, Subst):
        return "{" + ", ".join(f"{v.printed()}/{_render_tree(t)}"
                               for v, t in sorted(obj.items(), key=lambda kv: (kv[0].name, kv[0].idx))) + "}"
    if isinstance(obj, tuple):
        if obj and all(isinstance(x, (Param, TCon)) for x in obj):
            return render_types(obj)
        return _render_query(obj)
    raise TypeError(f"cannot render {obj!r}")
