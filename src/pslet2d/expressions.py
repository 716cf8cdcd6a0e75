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

import math
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Union

import numpy as np

__all__ = [
    "PotentialSyntaxError",
    "PotentialEvalError",
    "ConstantPotentialError",
    "PotentialSpec",
    "BoundPotential",
    "parse_potential",
    "bind_params",
    "float_pow",
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

class _Token(NamedTuple):
    kind: str  # 'num', 'ident', 'op' (operators and parentheses), 'end'
    text: str
    offset: int  # byte offset into the utf-8 encoding of the input


# \s is str.isspace() and \w is str.isalnum() plus '_'.  Numbers take ASCII
# digits only; a name may not start with a digit of any script (\w would take
# a superscript two), which _tokenize checks by hand.
_TOKEN = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>\w+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<other>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    boff = 0  # running byte offset
    for match in _TOKEN.finditer(text):
        kind, chunk = match.lastgroup, match.group()
        if kind == "other" or (kind == "ident" and not (chunk[0].isalpha() or chunk[0] == "_")):
            raise PotentialSyntaxError(f"unknown character {chunk[0]!r}", boff)
        if kind != "space":
            tokens.append(_Token(kind, chunk, boff))
        boff += len(chunk.encode("utf-8"))
    tokens.append(_Token("end", "", boff))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing over _PRECEDENCE, the printer's table)

# The deepest expression parse_potential accepts.  Each operator and each pair
# of parentheses is one level, and a number or a name is 1 deep.  The parser
# and the walks over the tree (evaluate, render, the parameter scans) recurse
# once per level, so this keeps them well inside Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expr(self, min_prec: int = 1, level: int = 0) -> tuple[Node, int]:
        """Parse operators that bind at least as tightly as ``min_prec``.

        A leading '-' takes everything above "neg" ('^' only) as its operand;
        '^' is right-associative, the other binary operators left-associative.
        ``level`` counts the levels around the expression; returns the node
        and its depth, and raises once the whole would be deeper than
        MAX_DEPTH.
        """
        tok = self.peek()
        if level >= MAX_DEPTH:
            raise PotentialSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                       tok.offset)
        if tok.text == "-":
            self.pos += 1
            arg, depth = self.expr(_PRECEDENCE["neg"], level + 1)
            node: Node = Neg(arg)
            depth += 1
        else:
            node, depth = self.atom(level)
        while self.peek().kind == "op" and _PRECEDENCE.get(self.peek().text, 0) >= min_prec:
            op = self.peek()
            self.pos += 1
            prec = _PRECEDENCE[op.text]
            rhs, rhs_depth = self.expr(prec if op.text == "^" else prec + 1, level + 1)
            node, depth = BinOp(op.text, node, rhs), max(depth, rhs_depth) + 1
            if level + depth > MAX_DEPTH:
                raise PotentialSyntaxError(
                    f"expression nested deeper than {MAX_DEPTH} levels", op.offset)
        return node, depth

    def atom(self, level: int) -> tuple[Node, int]:
        tok = self.peek()
        self.pos += 1
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise PotentialSyntaxError(f"number {tok.text} out of range", tok.offset)
            return Num(value), 1
        if tok.kind == "ident":
            return (Rho() if tok.text == RADIAL_NAME else Param(tok.text)), 1
        if tok.text == "(":
            node, depth = self.expr(level=level + 1)
            closing = self.peek()
            if closing.text != ")":
                raise PotentialSyntaxError("expected ')'", closing.offset)
            self.pos += 1
            return node, depth + 1
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

def _collect_params(node: Node, in_exponent: set[str],
                    raising: set[str]) -> tuple[set[str], bool]:
    """(parameter names, mentions rho) of the subtree.

    Adds to ``in_exponent`` the names inside an exponent, and to ``raising``
    those inside a divisor or inside a base raised to anything but a
    non-negative integer literal: the only operands at which ``evaluate``
    (a check, or a float power that overflows) can raise.
    """
    if isinstance(node, (Num, Rho, Param)):
        names = {node.name} if isinstance(node, Param) else set()
        return names, isinstance(node, Rho)
    if isinstance(node, Neg):
        return _collect_params(node.arg, in_exponent, raising)
    (na, ra), (nb, rb) = (_collect_params(n, in_exponent, raising) for n in (node.lhs, node.rhs))
    if node.op == "/":
        raising |= nb
    elif node.op == "^":
        in_exponent |= nb
        p = node.rhs.value if isinstance(node.rhs, Num) else -1.0
        if not (p >= 0.0 and _is_int(p)):
            raising |= na
    return na | nb, ra or rb


@dataclass(frozen=True)
class PotentialSpec:
    """Parsed expression tree for V(rho) and its free parameter names.

    ``exponent_params`` lie in an exponent, which ``evaluate`` needs as a
    float; ``raising_params`` are the others that can make a walk raise
    (see ``_collect_params``).
    """

    tree: Node
    params: tuple[str, ...]
    exponent_params: tuple[str, ...]
    raising_params: tuple[str, ...]

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

    Raises PotentialSyntaxError on malformed input or on an expression deeper
    than MAX_DEPTH, and ConstantPotentialError when the expression never
    mentions rho (such a potential has V' = 0 everywhere and admits no stable
    expansion frame).
    """
    if not text or not text.strip():
        raise PotentialSyntaxError("empty input", 0)
    parser = _Parser(_tokenize(text))
    tree, _ = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise PotentialSyntaxError(f"unexpected {tok.text!r}", tok.offset)
    in_exponent, raising = set(), set()
    names, has_rho = _collect_params(tree, in_exponent, raising)
    if not has_rho:
        raise ConstantPotentialError(
            "potential does not depend on rho: no stable frame exists"
        )
    return PotentialSpec(tree=tree, params=tuple(sorted(names)),
                         exponent_params=tuple(sorted(in_exponent)),
                         raising_params=tuple(sorted(raising - in_exponent)))


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
    if not isinstance(node, BinOp):
        if isinstance(node, Rho):
            return rho
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Param):
            return params[node.name]
        assert isinstance(node, Neg)
        return -evaluate(node.arg, rho, params)
    a = evaluate(node.lhs, rho, params)
    if node.op == "^":
        p = evaluate(node.rhs, rho, params)
        if not isinstance(p, (int, float)):
            raise PotentialEvalError("exponent must not depend on rho")
        if not math.isfinite(p):
            raise PotentialEvalError(f"non-finite exponent {p}")
        if _is_int(p):
            return _int_pow(a, int(p))
        if isinstance(a, (int, float)):
            if a < 0.0:
                raise PotentialEvalError("negative number raised to a non-integer power")
            if a == 0.0 and p < 0.0:
                raise PotentialEvalError("zero raised to a negative power (pole)")
            try:
                return a ** p
            except OverflowError:
                raise PotentialEvalError(f"{a!r}^{p!r} overflows") from None
        if isinstance(a, np.ndarray) and not isinstance(rho, np.ndarray):
            # a batch of parameter values: each row as its lone float gets
            # it; a rho mesh (the oracle's) keeps numpy's faster power
            return float_pow(a, p)
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


def float_pow(x, p):
    """x ** p entry by entry through the C library's pow, as a lone float gets it.

    ``p`` is a float, or a sequence of exponents: then the result is the
    table of shape ``np.shape(x) + (len(p),)`` with x ** p[j] at index j.
    numpy's vectorized power can differ from pow in the last bit, which would
    make an entry depend on the shape of the batch it was computed in.  A
    negative entry gives NaN, a zero entry under a negative power and an
    overflow give inf.
    """
    scalar = isinstance(p, (int, float))
    exponents = [p] if scalar else p
    flat = [x] if isinstance(x, float) else np.ravel(x).tolist()
    try:
        out = [math.pow(v, e) for v in flat for e in exponents]
    except (ValueError, OverflowError):  # negative base, pole or overflow
        with np.errstate(all="ignore"):
            out = [float(np.float64(v) ** e) for v in flat for e in exponents]
    if not scalar:
        return np.array(out).reshape(np.shape(x) + (len(p),))
    return out[0] if isinstance(x, float) else np.array(out).reshape(np.shape(x))


def _int_pow(base, n: int):
    """base**n by binary exponentiation; works for jets and floats alike."""
    if n == 0:
        return 1.0
    if n < 0:
        if isinstance(base, (int, float)) and base == 0.0:
            raise PotentialEvalError("zero raised to a negative power (pole)")
        try:
            return 1.0 / _int_pow(base, -n)
        except ZeroDivisionError:  # a float base's power underflowed to zero
            raise PotentialEvalError(f"{base!r}^{n} overflows") from None
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result
