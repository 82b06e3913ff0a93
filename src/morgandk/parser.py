"""Concrete syntax: tokenizer, declaration parser, pretty printer.

The surface language is a small Dedukti-style format:

    Lev : Type.                      static constant
    def eps : i : Lev -> T i -> Type.  definable constant (may get rules)
    def two := suc (suc zero).       definition, type inferred
    def f (x : A) : B := body.       parameterized definition sugar
    [x, y] plus (suc x) y --> suc (plus x y).   rewrite rule

Terms: `x : A -> B` (product), `A -> B` (non-dependent product),
`x : A => b` and `x => b` (abstraction), juxtaposition (application),
`Type` (the sort of types).  Comments are `(; ... ;)` and nest.

A token is a plain `(kind, text, line, col)` tuple, and the parser walks
the token list by index.

Scope is resolved here, once: binder-bound names become de Bruijn
indices (Bound), rule pattern variables become Var, names declared
earlier, in this file or an earlier one, become Const, a binder taking
precedence over a pattern variable and a pattern variable over a
constant.  In a file any other identifier is an error at its token, so
every declaration `parse_file` returns is closed but for its rule's
pattern variables, and the checker does not look again.  Only
`parse_term` keeps such an identifier as a free Var, for `reduce` and
the oracles.  The parser keeps scope only: a rule must be headed by a
declared constant, and whether that constant may take rules is the
checker's decision (`check.check_rule`).
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .terms import (App, Bound, Const, Lam, Pi, Record, Sort, Term, TYPE,
                    Var, fresh_name, spine, subterms)

__all__ = [
    "SourceSpan", "ParseError",
    "StaticConst", "DefinableConst", "Definition", "RuleDecl", "Declaration",
    "tokenize", "identifiers", "parse_file", "parse_term",
    "pretty", "print_declaration",
]


class SourceSpan(Record):
    __slots__ = __match_args__ = ("file", "line", "col")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, msg: str, span: SourceSpan):
        super().__init__(f"{span}: {msg}")
        self.msg = msg
        self.span = span


class StaticConst(Record):
    __slots__ = __match_args__ = ("name", "ty", "span")


class DefinableConst(Record):
    __slots__ = __match_args__ = ("name", "ty", "span")


class Definition(Record):
    # ty is None when the type is inferred from the body
    __slots__ = __match_args__ = ("name", "ty", "body", "span")


class RuleDecl(Record):
    __slots__ = __match_args__ = ("pat_vars", "lhs", "rhs", "span")


Declaration = Union[StaticConst, DefinableConst, Definition, RuleDecl]

# `\w` is exactly `str.isalnum()` or "_", and `\s` exactly
# `str.isspace()`, so a match is a maximal run of identifier characters
_IDENT_RUN = re.compile(r"[\w']+")
# the blanks before a token, then the token: a comment opener, a symbol
# (`:=` before `:`, `-->` before `->`), an identifier run, or any other
# character, which is an error.  No group matches at the end of the text.
_TOKEN = re.compile(r"\s*(?:(\(;)|(:=|-->|->|=>|[:()\[\],.])|([\w']+)"
                    r"|(.)|\Z)", re.DOTALL)
# inside a comment, what nests, closes or starts a line
_COMMENT = re.compile(r"\(;|;\)|\n")

# a token: (kind, text, line, col)
_Tok = tuple[str, str, int, int]


def identifiers(text: str) -> frozenset[str]:
    """Every maximal run of identifier characters in `text`, comments
    included.  A superset of the identifiers `tokenize` reads, so of
    every name a parse of `text` can look up in its namespace."""
    return frozenset(_IDENT_RUN.findall(text))


def tokenize(text: str, file: str = "<input>") -> list[_Tok]:
    """The tokens of `text`, each a plain tuple `(kind, text, line,
    col)`: kind "ident", "sym", or "eof" for the one empty token that
    ends the list.  Comments are skipped; an unterminated comment or a
    character that starts no token raises ParseError."""
    toks: list[_Tok] = []
    i, line, bol = 0, 1, 0  # bol: where the current line begins
    while True:
        m = _TOKEN.match(text, i)
        kind = m.lastindex
        start = m.start(kind) if kind else m.end()
        nl = text.rfind("\n", i, start)
        if nl >= 0:
            line += text.count("\n", i, start)
            bol = nl + 1
        col = start - bol + 1
        if kind is None:
            toks.append(("eof", "", line, col))
            return toks
        i = m.end()
        if kind == 1:
            opened, depth = SourceSpan(file, line, col), 1
            while depth:
                c = _COMMENT.search(text, i)
                if c is None:
                    raise ParseError("unterminated comment", opened)
                i = c.end()
                if c.group() == "\n":
                    line, bol = line + 1, i
                else:
                    depth += 1 if c.group() == "(;" else -1
        elif kind == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}",
                             SourceSpan(file, line, col))
        else:
            toks.append(("sym" if kind == 2 else "ident", m.group(kind),
                         line, col))


class _Parser:
    def __init__(self, toks: list[_Tok], file: str, consts: set[str]):
        # one more eof: looking one token past the end is a plain index
        self.toks = toks + toks[-1:]
        self.pos = 0
        self.file = file
        self.consts = consts
        # the pattern variables in scope, none outside a rule; None only
        # under `parse_term`, where an unbound identifier is a free Var
        self.pat_vars: Optional[frozenset[str]] = frozenset()
        # the scope: how many binders enclose the current position, and
        # for each name the depths of the enclosing binders of that name,
        # innermost last (a non-dependent arrow binds no name)
        self.depth = 0
        self.binders: dict[str, list[int]] = {}

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def span(self, tok: _Tok) -> SourceSpan:
        return SourceSpan(self.file, tok[2], tok[3])

    def fail(self, msg: str, tok: Optional[_Tok] = None):
        raise ParseError(msg, self.span(tok or self.peek()))

    def at_sym(self, s: str) -> bool:
        # no identifier and not eof spells a symbol
        return self.toks[self.pos][1] == s

    def expect_sym(self, s: str) -> _Tok:
        if not self.at_sym(s):
            self.fail(f"expected {s!r}, found {self.peek()[1]!r}")
        return self.next()

    def expect_name(self) -> _Tok:
        """An identifier that a declaration, a parameter or a pattern
        variable binds.  `Type` always reads as the sort, so it binds
        nothing."""
        t = self.peek()
        if t[0] != "ident":
            self.fail(f"expected an identifier, found {t[1]!r}")
        if t[1] == "Type":
            self.fail("'Type' is reserved", t)
        return self.next()

    # -- terms ------------------------------------------------------------

    def bind(self, name: str) -> None:
        """Open a binder of `name`."""
        self.binders.setdefault(name, []).append(self.depth)
        self.depth += 1

    def unbind(self, name: str) -> None:
        """Close the innermost binder, which `bind(name)` opened."""
        self.depth -= 1
        self.binders[name].pop()

    def term(self) -> Term:
        """Parse a term in the current scope.  Reads the tokens by index
        and works over an explicit stack of the constructions still
        open, innermost last, rather than by recursion, so nesting is
        not bounded by the interpreter's recursion limit:

            ("binder", name)  `name :` read; the domain is parsed
            ("arrow",)        an application is parsed; `->` may follow
            ("appl", fn)      an application so far (fn None: none yet)
            ("paren",)        `(` read
            ("pi" | "lam", name, dom)  the body is parsed in the scope
                              of a binder of `name` (None: an arrow)

        A symbol is told by its text alone: no identifier and not eof
        spells one."""
        toks, pos, depth = self.toks, self.pos, self.depth
        binders, consts, pat_vars = self.binders, self.consts, self.pat_vars
        stack: list[tuple] = []
        start: Optional[str] = "term"  # what to parse next
        done: Term  # the subterm just parsed, when `start` is None
        while True:
            if start == "term":
                kind, text, _, _ = toks[pos]
                if (kind == "ident" and text != "Type"
                        and toks[pos + 1][1] in (":", "=>")):
                    pos += 2
                    if toks[pos - 1][1] == "=>":
                        stack.append(("lam", text, None))
                        binders.setdefault(text, []).append(depth)
                        depth += 1
                        continue
                    stack.append(("binder", text))
                else:
                    stack.append(("arrow",))
                stack.append(("appl", None))
                start = "atom"
                continue
            if start == "atom":
                tok = toks[pos]
                kind, text, _, _ = tok
                if text == "(":
                    pos += 1
                    stack.append(("paren",))
                    start = "term"
                    continue
                if kind != "ident":
                    self.fail(f"expected a term, found {text!r}", tok)
                pos += 1
                # the term the identifier stands for in the current scope
                if text == "Type":
                    done = TYPE
                elif depths := binders.get(text):
                    done = Bound(depth - 1 - depths[-1])
                elif text in (pat_vars or ()):
                    done = Var(text)
                elif text in consts:
                    done = Const(text)
                elif pat_vars is not None:
                    self.fail(f"unbound identifier {text!r}", tok)
                else:
                    done = Var(text)
                start = None
            # hand the finished subterm to the innermost open construction
            if not stack:
                self.pos = pos
                return done
            frame = stack.pop()
            kind = frame[0]
            text = toks[pos][1]
            if kind == "appl":
                if frame[1] is not None:
                    done = App(frame[1], done)
                if text == "(" or (toks[pos][0] == "ident" and (
                        text == "Type" or toks[pos + 1][1] != ":")):
                    stack.append(("appl", done))
                    start = "atom"
            elif kind == "paren":
                if text != ")":
                    self.fail(f"expected ')', found {text!r}", toks[pos])
                pos += 1
            elif kind == "arrow":
                if text == "->":
                    pos += 1
                    stack.append(("pi", None, done))
                    depth += 1
                    start = "term"
            elif kind == "binder":
                if text != "->" and text != "=>":
                    self.fail("expected '->' or '=>' after binder", toks[pos])
                pos += 1
                name = frame[1]
                stack.append(("pi" if text == "->" else "lam", name, done))
                binders.setdefault(name, []).append(depth)
                depth += 1
                start = "term"
            else:
                _, name, dom = frame
                depth -= 1
                if name is not None:
                    binders[name].pop()
                done = (Pi if kind == "pi" else Lam)(name or "_", dom, done)

    # -- declarations -----------------------------------------------------

    def declare(self, name: str, tok: _Tok):
        if name in self.consts:
            self.fail(f"{name!r} is already declared", tok)
        self.consts.add(name)

    def declaration(self) -> Declaration:
        start = self.peek()
        if self.at_sym("["):
            return self.rule()
        if start[0] == "ident" and start[1] == "def":
            self.next()
            return self.definition()
        name_tok = self.expect_name()
        self.expect_sym(":")
        ty = self.term()
        self.expect_sym(".")
        self.declare(name_tok[1], name_tok)
        return StaticConst(name_tok[1], ty, self.span(name_tok))

    def definition(self) -> Declaration:
        name_tok = self.expect_name()
        name = name_tok[1]
        params: list[tuple[str, Term]] = []
        while self.at_sym("("):
            self.next()
            p = self.expect_name()[1]
            self.expect_sym(":")
            pty = self.term()
            self.expect_sym(")")
            params.append((p, pty))
            self.bind(p)
        ty: Optional[Term] = None
        if self.at_sym(":"):
            self.next()
            ty = self.term()
        if self.at_sym("."):
            self.next()
            if ty is None:
                self.fail("definition needs a type or a body", name_tok)
            if params:
                self.fail("a definable constant cannot take parameters",
                          name_tok)
            self.declare(name, name_tok)
            return DefinableConst(name, ty, self.span(name_tok))
        self.expect_sym(":=")
        body = self.term()
        self.expect_sym(".")
        for p, pty in reversed(params):
            self.unbind(p)
            body = Lam(p, pty, body)
            if ty is not None:
                ty = Pi(p, pty, ty)
        self.declare(name, name_tok)
        return Definition(name, ty, body, self.span(name_tok))

    def rule(self) -> RuleDecl:
        start = self.expect_sym("[")
        pat_vars: list[str] = []
        if not self.at_sym("]"):
            while True:
                v = self.expect_name()
                if v[1] in pat_vars:
                    self.fail(f"duplicate pattern variable {v[1]!r}", v)
                pat_vars.append(v[1])
                # an explicit arity annotation is tolerated and ignored
                if self.peek()[0] == "ident" and self.peek()[1].isdigit():
                    self.next()
                if self.at_sym(","):
                    self.next()
                else:
                    break
        self.expect_sym("]")
        # a parse error ends the parse, so nothing reads the scope after it
        self.pat_vars = frozenset(pat_vars)
        lhs = self.term()
        self.expect_sym("-->")
        rhs = self.term()
        self.pat_vars = frozenset()
        self.expect_sym(".")
        if not isinstance(spine(lhs)[0], Const):
            self.fail("rule left-hand side must be headed by a declared "
                      "constant", start)
        return RuleDecl(tuple(pat_vars), lhs, rhs, self.span(start))

    def file_decls(self) -> list[Declaration]:
        out = []
        while self.peek()[0] != "eof":
            out.append(self.declaration())
        return out


def parse_file(text: str, file: str = "<input>",
               consts: Optional[set[str]] = None) -> list[Declaration]:
    """Parse one file's declarations.  `consts` carries the names
    declared by earlier files and is updated in place.  An identifier
    that no binder, pattern variable or declaration binds raises
    ParseError at its token."""
    p = _Parser(tokenize(text, file), file,
                consts if consts is not None else set())
    return p.file_decls()


def parse_term(text: str, consts: set[str] | frozenset[str] = frozenset(),
               file: str = "<term>") -> Term:
    """Parse a term in the scope of `consts`, where an identifier that
    nothing binds is a free Var."""
    p = _Parser(tokenize(text, file), file, set(consts))
    p.pat_vars = None
    t = p.term()
    if p.peek()[0] != "eof":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return t


# -- printing -------------------------------------------------------------

def pretty(t: Term) -> str:
    """A term in the surface syntax.  Works over an explicit stack of
    what is left to print, rather than by recursion, and joins the
    printed pieces once.  No binder is opened: a bound index prints as
    its binder's name, read from a stack of the enclosing binders'."""
    out: list[str] = []
    names: list[str] = []  # the enclosing binders' names, outermost first
    # strings to emit and (term, level, depth, name) items to print, next
    # one last.  level 0: anything, 1: application, 2: atom; depth: the
    # binders above the term; name: on a binder's body, the binder's own
    todo: list = [(t, 0, 0, None)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, level, depth, name = item
        if name is not None:
            names[depth - 1:] = (name,)
        match t:
            case Sort(k):
                out.append("Type" if k == "TYPE" else "Kind")
                continue
            case Const(n) | Var(n):
                out.append(n)
                continue
            case Bound(i) if i < depth:
                out.append(names[depth - 1 - i])
                continue
            case App(f, a):
                pieces = [(f, 1, depth, None), " ", (a, 2, depth, None)]
                bracket = level > 1
            case Lam(hint, dom, body):
                v, _ = _binder_name(hint, body, names, depth)
                ann = [] if dom is None else [" : ", (dom, 1, depth, None)]
                pieces = [v, *ann, " => ", (body, 0, depth + 1, v)]
                bracket = level > 0
            case Pi(hint, dom, cod):
                v, bound = _binder_name(hint, cod, names, depth)
                pieces = [(dom, 1, depth, None), " -> ", (cod, 0, depth + 1, v)]
                if bound:  # else an arrow
                    pieces[:0] = (v, " : ")
                bracket = level > 0
            case _:
                raise TypeError(f"not a term: {t!r}")
        if bracket:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)


def _binder_name(hint: str, body: Term, names: list[str],
                 depth: int) -> tuple[str, bool]:
    """The name to print a binder over `body` with, and whether the
    binder occurs in `body`, from one walk of it: `hint` renamed apart
    from the constants and free variables of `body` and the enclosing
    binders' names (`names[:depth]`, outermost first) that it refers
    to, since re-parsing would read any of them as the binder."""
    avoid, bound = set(), False
    for s, k in subterms(body):
        if s.__class__ is Bound:
            j = s.index - k  # 0: the binder, j > 0: the j-th around it
            bound |= j == 0
            if 0 < j <= depth:
                avoid.add(names[depth - j])
        elif s.__class__ is Const or s.__class__ is Var:
            avoid.add(s.name)
    return fresh_name(hint, avoid), bound


def print_declaration(d: Declaration) -> str:
    match d:
        case StaticConst(name, ty, _):
            return f"{name} : {pretty(ty)}."
        case DefinableConst(name, ty, _):
            return f"def {name} : {pretty(ty)}."
        case Definition(name, None, body, _):
            return f"def {name} := {pretty(body)}."
        case Definition(name, ty, body, _):
            return f"def {name} : {pretty(ty)} := {pretty(body)}."
        case RuleDecl(pat_vars, lhs, rhs, _):
            return f"[{', '.join(pat_vars)}] {pretty(lhs)} --> {pretty(rhs)}."
    raise TypeError(f"not a declaration: {d!r}")
