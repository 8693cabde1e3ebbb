"""Tokenizer and recursive-descent parser for the source language.

Grammar (";" binds weakest and is right-associative; "fi"/"od" close blocks):

    command ::= atom (";" atom)*
    atom    ::= "skip"
              | ident ":=" "declass" "(" expr ")"
              | ident ":=" expr
              | "if" expr "then" command "else" command "fi"
              | "while" expr "do" command "od"
              | "input" "(" ident "," ident ")"
              | "output" "(" expr "," ident ")"

Expression operators, weakest first: "|", "&", comparisons (== != < <=),
additive (+ -), multiplicative (*).  "#" starts a comment until end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Assign,
    BinOp,
    Command,
    DeclassAssign,
    Expr,
    If,
    Input,
    Num,
    Output,
    Program,
    Seq,
    SiteLabel,
    Skip,
    Var,
    While,
    walk_commands,
)

KEYWORDS = {
    "skip",
    "if",
    "then",
    "else",
    "fi",
    "while",
    "do",
    "od",
    "declass",
    "input",
    "output",
}

_TOKEN_SPEC = [
    ("NUMBER", r"\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"==|!=|<=|:=|[+\-*<&|;(),]"),
    ("COMMENT", r"#[^\n]*"),
    ("NEWLINE", r"\n"),
    ("SKIPWS", r"[ \t\r]+"),
    ("MISMATCH", r"."),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _TOKEN_SPEC))


class ParseError(Exception):
    """Raised on malformed program text; carries a position message."""


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | KEYWORD | OP | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind in ("SKIPWS", "COMMENT"):
            continue
        elif kind == "MISMATCH":
            raise ParseError(f"line {line}:{col}: unexpected character {value!r}")
        elif kind == "IDENT" and value in KEYWORDS:
            tokens.append(Token("KEYWORD", value, line, col))
        else:
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_site = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind.lower()
            raise ParseError(
                f"line {tok.line}:{tok.col}: expected {want!r}, found {tok.text!r}"
            )
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.text == word

    def make_site(self) -> SiteLabel:
        site = SiteLabel(self.next_site)
        self.next_site += 1
        return site

    # -- commands -----------------------------------------------------------

    def parse_command(self) -> Command:
        first = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == ";":
            self.advance()
            # Tolerate a trailing ";" before a closing keyword or EOF.
            tok = self.peek()
            if tok.kind == "EOF" or (
                tok.kind == "KEYWORD" and tok.text in ("else", "fi", "od")
            ):
                return first
            return Seq(first, self.parse_command())
        return first

    def parse_atom(self) -> Command:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.text == "skip":
                self.advance()
                return Skip(self.make_site())
            if tok.text == "if":
                self.advance()
                site = self.make_site()
                guard = self.parse_expr()
                self.expect("KEYWORD", "then")
                then_branch = self.parse_command()
                self.expect("KEYWORD", "else")
                else_branch = self.parse_command()
                self.expect("KEYWORD", "fi")
                return If(site, guard, then_branch, else_branch)
            if tok.text == "while":
                self.advance()
                site = self.make_site()
                guard = self.parse_expr()
                self.expect("KEYWORD", "do")
                body = self.parse_command()
                self.expect("KEYWORD", "od")
                return While(site, guard, body)
            if tok.text == "input":
                self.advance()
                self.expect("OP", "(")
                target = self.expect("IDENT").text
                self.expect("OP", ",")
                channel = self.expect("IDENT").text
                self.expect("OP", ")")
                return Input(self.make_site(), target, channel)
            if tok.text == "output":
                self.advance()
                self.expect("OP", "(")
                expr = self.parse_expr()
                self.expect("OP", ",")
                channel = self.expect("IDENT").text
                self.expect("OP", ")")
                return Output(self.make_site(), expr, channel)
            raise ParseError(
                f"line {tok.line}:{tok.col}: unexpected keyword {tok.text!r}"
            )
        if tok.kind == "IDENT":
            target = self.advance().text
            self.expect("OP", ":=")
            if self.at_keyword("declass"):
                self.advance()
                self.expect("OP", "(")
                expr = self.parse_expr()
                self.expect("OP", ")")
                return DeclassAssign(self.make_site(), target, expr)
            return Assign(self.make_site(), target, self.parse_expr())
        raise ParseError(f"line {tok.line}:{tok.col}: expected a command, found {tok.text!r}")

    # -- expressions --------------------------------------------------------

    _LEVELS = [["|"], ["&"], ["==", "!=", "<", "<="], ["+", "-"], ["*"]]

    def parse_expr(self, level: int = 0) -> Expr:
        if level == len(self._LEVELS):
            return self.parse_primary()
        left = self.parse_expr(level + 1)
        ops = self._LEVELS[level]
        while self.peek().kind == "OP" and self.peek().text in ops:
            op = self.advance().text
            right = self.parse_expr(level + 1)
            left = BinOp(op, left, right)
        return left

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(int(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            return Var(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            e = self.parse_expr()
            self.expect("OP", ")")
            return e
        raise ParseError(
            f"line {tok.line}:{tok.col}: expected an expression, found {tok.text!r}"
        )


def _collect_sites(root: Command) -> tuple[SiteLabel, ...]:
    sites = [c.site for c in walk_commands(root) if not isinstance(c, Seq)]
    ids = [s.id for s in sites]
    assert ids == sorted(ids) == list(range(len(ids))), "site ids must be dense preorder"
    return tuple(sites)


def parse_program(text: str) -> Program:
    """Parse program text into a Program with dense preorder site labels."""
    parser = _Parser(tokenize(text))
    root = parser.parse_command()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"line {tok.line}:{tok.col}: trailing input {tok.text!r}")
    return Program(root=root, sites=_collect_sites(root))
