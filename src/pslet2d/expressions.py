"""Parsing, printing and evaluation of cylindrically symmetric potentials V(rho).

The grammar is plain infix arithmetic over numbers, the reserved radial
variable ``rho`` and free parameter names:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary '-'
    atom   := NUMBER | IDENT | '(' expr ')'

``rho`` is the only variable; every other identifier is a named parameter
that must be bound before evaluation.  There is no implicit multiplication.
Evaluation is generic: any scalar type supporting +, -, *, / and ** works,
which is how the Taylor-jet machinery reuses the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

__all__ = [
    "PotentialSyntaxError",
    "PotentialEvalError",
    "ConstantPotentialError",
    "PotentialSpec",
    "BoundPotential",
    "parse_potential",
    "bind_params",
]

RADIAL_NAME = "rho"


class PotentialSyntaxError(ValueError):
    """Malformed potential text; ``offset`` is the 0-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class PotentialEvalError(ArithmeticError):
    """Evaluation hit a pole or produced a non-finite value."""


class ConstantPotentialError(ValueError):
    """The expression does not depend on rho, so V' = 0 everywhere."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Rho:
    pass


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


Node = Union[Num, Rho, Param, Neg, BinOp]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'lparen', 'rparen', 'end'
    text: str
    offset: int  # byte offset into the utf-8 encoding of the input


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    boff = 0  # running byte offset
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            boff += len(c.encode("utf-8"))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            # scientific notation
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", text[i:j], boff))
            boff += len(text[i:j].encode("utf-8"))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], boff))
            boff += len(text[i:j].encode("utf-8"))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, boff))
            boff += 1
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, boff))
            boff += 1
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, boff))
            boff += 1
            i += 1
            continue
        raise PotentialSyntaxError(f"unknown character {c!r}", boff)
    tokens.append(_Token("end", "", boff))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise PotentialSyntaxError(f"unexpected {tok.text!r}", tok.offset)

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == RADIAL_NAME:
                return Rho()
            return Param(tok.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            closing = self.peek()
            if closing.kind != "rparen":
                raise PotentialSyntaxError("expected ')'", closing.offset)
            self.advance()
            return node
        if tok.kind == "end":
            raise PotentialSyntaxError("unexpected end of input", tok.offset)
        raise PotentialSyntaxError(f"unexpected {tok.text!r}", tok.offset)


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; round-trips to a structurally identical tree)

def _render(node: Node, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Num):
        v = node.value
        s = repr(v) if v != int(v) or abs(v) >= 1e16 else str(int(v))
        return s
    if isinstance(node, Rho):
        return RADIAL_NAME
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        inner = _render(node.arg, _PRECEDENCE["neg"], False)
        s = f"-{inner}"
        if parent_prec > _PRECEDENCE["neg"] or (right_side and parent_prec == _PRECEDENCE["neg"]):
            s = f"({s})"
        return s
    assert isinstance(node, BinOp)
    prec = _PRECEDENCE[node.op]
    if node.op == "^":
        # right-associative: parenthesize a '^' left child
        lhs = _render(node.lhs, prec + 1, False)
        rhs = _render(node.rhs, prec, True)
    else:
        lhs = _render(node.lhs, prec, False)
        rhs = _render(node.rhs, prec + 1, True)
    s = f"{lhs}{node.op}{rhs}"
    if prec < parent_prec:
        s = f"({s})"
    return s


def render(node: Node) -> str:
    return _render(node, 0, False)


# ---------------------------------------------------------------------------
# Public types

def _collect_params(node: Node, out: set[str]) -> bool:
    """Accumulate parameter names; return True iff the subtree mentions rho."""
    if isinstance(node, Rho):
        return True
    if isinstance(node, Param):
        out.add(node.name)
        return False
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return _collect_params(node.arg, out)
    assert isinstance(node, BinOp)
    a = _collect_params(node.lhs, out)
    b = _collect_params(node.rhs, out)
    return a or b


@dataclass(frozen=True)
class PotentialSpec:
    """Parsed expression tree for V(rho) plus its free parameter names."""

    tree: Node
    params: tuple[str, ...]

    def __str__(self) -> str:
        return render(self.tree)


@dataclass(frozen=True)
class BoundPotential:
    """A PotentialSpec with every parameter bound to a value; callable at rho."""

    spec: PotentialSpec
    values: Mapping[str, float]

    def __call__(self, rho):
        return evaluate(self.spec.tree, rho, self.values)

    def __str__(self) -> str:
        return str(self.spec)


def parse_potential(text: str) -> PotentialSpec:
    """Parse ``text`` into a PotentialSpec.

    Raises PotentialSyntaxError on malformed input and ConstantPotentialError
    when the expression never mentions rho (such a potential has V' = 0
    everywhere and admits no stable expansion frame).
    """
    if not text or not text.strip():
        raise PotentialSyntaxError("empty input", 0)
    parser = _Parser(_tokenize(text))
    tree = parser.expr()
    parser.expect_end()
    names: set[str] = set()
    has_rho = _collect_params(tree, names)
    if not has_rho:
        raise ConstantPotentialError(
            "potential does not depend on rho: no stable frame exists"
        )
    return PotentialSpec(tree=tree, params=tuple(sorted(names)))


def bind_params(spec: PotentialSpec, values: Mapping[str, float]) -> BoundPotential:
    """Bind every parameter of ``spec``; missing or extraneous names raise KeyError."""
    missing = [p for p in spec.params if p not in values]
    if missing:
        raise KeyError(f"missing parameter(s): {', '.join(missing)}")
    extra = [k for k in values if k not in spec.params]
    if extra:
        raise KeyError(f"extraneous parameter(s): {', '.join(sorted(extra))}")
    kept = {p: float(values[p]) for p in spec.params}
    return BoundPotential(spec=spec, values=kept)


# ---------------------------------------------------------------------------
# Evaluation

def _is_int(x: float) -> bool:
    return x == int(x) and abs(x) < 2**53


def evaluate(node: Node, rho, params: Mapping[str, float]):
    """Evaluate ``node`` with the radial variable set to ``rho``.

    ``rho`` may be a float, a numpy array, or any scalar-like object
    implementing the arithmetic protocol (e.g. a Taylor jet).  Integer
    exponents are dispatched to repeated multiplication so that exact jet
    arithmetic stays exact.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Rho):
        return rho
    if isinstance(node, Param):
        return params[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, rho, params)
    assert isinstance(node, BinOp)
    a = evaluate(node.lhs, rho, params)
    if node.op == "^":
        p = evaluate(node.rhs, rho, params)
        if not isinstance(p, (int, float)):
            raise PotentialEvalError("exponent must not depend on rho")
        if _is_int(p):
            return _int_pow(a, int(p))
        if isinstance(a, (int, float)) and a < 0.0:
            raise PotentialEvalError("negative number raised to a non-integer power")
        return a ** p
    b = evaluate(node.rhs, rho, params)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if isinstance(b, (int, float)) and b == 0.0:
            raise PotentialEvalError("division by zero (pole)")
        return a / b
    raise AssertionError(node.op)


def _int_pow(base, n: int):
    """base**n by binary exponentiation; works for jets and floats alike."""
    if n == 0:
        return 1.0
    if n < 0:
        if isinstance(base, (int, float)) and base == 0.0:
            raise PotentialEvalError("zero raised to a negative power (pole)")
        return 1.0 / _int_pow(base, -n)
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result
