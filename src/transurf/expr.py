"""Tiny expression language for curve input.

Grammar (one variable per curve):

    tuple   := '(' expr ',' expr ',' expr ')'
    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: sin cos tan sqrt exp atan. Known constant: pi. Any other
identifier is a variable. A constant subexpression must evaluate to a
finite real number. Anything richer than this belongs in the curve catalog
as code.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import jets
from .errors import ParseError

FUNCTIONS = {
    "sin": (math.sin, jets.sin),
    "cos": (math.cos, jets.cos),
    "tan": (math.tan, jets.tan),
    "sqrt": (math.sqrt, jets.sqrt),
    "exp": (math.exp, jets.exp),
    "atan": (math.atan, jets.atan),
}
CONSTANTS = {"pi": math.pi}


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    raw: str

    @property
    def value(self) -> float:
        return float(self.raw)


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    x: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


Node = Num | Const | Var | Call | Neg | Bin


# -- tokenizer ---------------------------------------------------------------

_PUNCT = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(("punct", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < n and (src[j].isdigit() or src[j] == "."
                             or src[j] in "eE"
                             or (seen_e and src[j] in "+-" and src[j - 1] in "eE")):
                if src[j] in "eE":
                    if seen_e:
                        break
                    seen_e = True
                j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", i)
            toks.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("eof", "", n))
    return toks


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.next()
        if val != text:
            raise ParseError(f"expected {text!r}", pos)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(val, arg)
            if val in CONSTANTS:
                return Const(val)
            if self.peek()[1] == "(":
                raise ParseError(f"unknown function {val!r}", pos)
            return Var(val)
        if val == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError("expected expression", pos)


def parse_expression(src: str) -> Node:
    p = _Parser(src)
    node = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


def parse_tuple3(src: str) -> tuple[Node, Node, Node]:
    """Parse a parenthesized triple of expressions."""
    p = _Parser(src)
    p.expect("(")
    e1 = p.parse_expr()
    p.expect(",")
    e2 = p.parse_expr()
    p.expect(",")
    e3 = p.parse_expr()
    p.expect(")")
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return e1, e2, e3


# -- analysis / evaluation / serialization -----------------------------------

def variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Call):
        return variables(node.arg)
    if isinstance(node, Neg):
        return variables(node.x)
    if isinstance(node, Bin):
        return variables(node.left) | variables(node.right)
    return set()


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _real(fn, node: Node, *args) -> float:
    """``fn(*args)``, the value of ``node`` over floats, which must be a
    finite real number (not a float error, an infinity or a complex power)."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError):
        value = None
    if isinstance(value, (int, float)) and math.isfinite(value):
        return value
    raise ParseError(f"{serialize(node)} is not a finite real number")


def evaluate(node: Node, env: dict):
    """Evaluate over floats or Jets (whatever ``env`` supplies)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.x, env)
    if isinstance(node, Call):
        arg = evaluate(node.arg, env)
        plain, jet = FUNCTIONS[node.fn]
        if isinstance(arg, (int, float)):
            return _real(plain, node, arg)
        return jet(arg)
    if isinstance(node, Bin):
        lhs = evaluate(node.left, env)
        rhs = evaluate(node.right, env)
        scalar = isinstance(rhs, (int, float))
        if node.op == "^" and not scalar:
            raise ParseError("exponent must be constant")
        if scalar and isinstance(lhs, (int, float)):
            return _real(_BINARY[node.op], node, lhs, rhs)
        return _BINARY[node.op](lhs, rhs)
    raise TypeError(f"unknown node {node!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def serialize(node: Node) -> str:
    def emit(n: Node, parent_prec: int, right_side: bool = False) -> str:
        if isinstance(n, Num):
            return n.raw
        if isinstance(n, Const):
            return n.name
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Call):
            return f"{n.fn}({emit(n.arg, 0)})"
        if isinstance(n, Neg):
            inner = emit(n.x, 4)
            text = f"-{inner}"
            return f"({text})" if parent_prec >= 2 else text
        if isinstance(n, Bin):
            prec = _PREC[n.op]
            left = emit(n.left, prec if n.op != "^" else prec + 1)
            right = emit(n.right, prec + 1 if n.op in "+-*/" else prec, True)
            if n.op == "^":
                right = emit(n.right, 4)
            text = f"{left} {n.op} {right}" if n.op != "^" else f"{left}^{right}"
            needs = prec < parent_prec or (prec == parent_prec and right_side)
            return f"({text})" if needs else text
        raise TypeError(f"unknown node {n!r}")

    return emit(node, 0)


def serialize_tuple3(nodes: tuple[Node, Node, Node]) -> str:
    return "(" + ", ".join(serialize(n) for n in nodes) + ")"
