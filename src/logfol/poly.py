"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[x0, ..., xn] and are stored sparsely as a mapping
from exponent vectors to nonzero ``Fraction`` coefficients.  All arithmetic
is exact; there is no floating point anywhere in this package.

The module also provides the three monomial orders used by the Groebner
engine (graded reverse lexicographic, lexicographic, and a block order for
elimination) and a small parser / printer for polynomial expressions in the
grammar ``x0..xn``, integer and ``a/b`` rational literals, ``+ - * / ^`` and
parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Monomial = tuple  # exponent vector, one non-negative integer per variable

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; assumes divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def mono_support(a: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(a) if e)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_revkey(m):
    return (-sum(m), tuple(reversed(m)))


@dataclass(frozen=True)
class GrevLex:
    """Graded reverse lexicographic order with x0 > x1 > ... > xn."""

    name = "grevlex"

    def key(self, m):
        """Sort key, monotone with the order (larger key = larger monomial)."""
        return _grevlex_key(m)

    def revkey(self, m):
        """Anti-monotone key, for min-heaps that must pop the largest first."""
        return _grevlex_revkey(m)


@dataclass(frozen=True)
class Lex:
    """Lexicographic order with x0 > x1 > ... > xn."""

    name = "lex"

    def key(self, m):
        return tuple(m)

    def revkey(self, m):
        return tuple(-e for e in m)


@dataclass(frozen=True)
class Block:
    """Elimination order: grevlex on the first ``prefix`` variables, then
    grevlex on the rest.  Any monomial involving a prefix variable is larger
    than any monomial free of them, so the prefix block is eliminated."""

    prefix: int

    @property
    def name(self):
        return f"block({self.prefix})"

    def key(self, m):
        return _grevlex_key(m[: self.prefix]) + _grevlex_key(m[self.prefix:])

    def revkey(self, m):
        return _grevlex_revkey(m[: self.prefix]) + _grevlex_revkey(m[self.prefix:])


GREVLEX = GrevLex()
LEX = Lex()

MonomialOrder = GrevLex | Lex | Block


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients must be exact rationals, got {type(c).__name__}")


class Poly:
    """A sparse polynomial with ``Fraction`` coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to nonzero
    coefficients.  Instances are treated as immutable: no method mutates
    ``self`` and the ``terms`` dict must not be modified by callers.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = _as_coeff(coeff)
            if len(mono) != arity:
                raise ValueError(f"exponent vector {mono} does not match arity {arity}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if coeff:
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Poly":
        return Poly(arity)

    @staticmethod
    def const(arity: int, value) -> "Poly":
        value = _as_coeff(value)
        if not value:
            return Poly(arity)
        return Poly(arity, {(0,) * arity: value})

    @staticmethod
    def one(arity: int) -> "Poly":
        return Poly.const(arity, 1)

    @staticmethod
    def variable(arity: int, index: int) -> "Poly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return Poly(arity, {mono: _ONE})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def constant_value(self):
        """The coefficient when the polynomial is constant, else None."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            if mono_degree(mono) == 0:
                return coeff
        return None

    def leading(self, order: MonomialOrder = GREVLEX):
        """Leading (monomial, coefficient) pair under ``order``."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        """Term list sorted with the largest monomial first."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check_arity(self, other: "Poly"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, _ZERO) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        out = Poly.__new__(Poly)
        out.arity = self.arity
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.arity = self.arity
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return Poly(self.arity)
            out = Poly.__new__(Poly)
            out.arity = self.arity
            out.terms = {m: co * c for m, co in self.terms.items()}
            return out
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_arity(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                acc = terms.get(mono, _ZERO) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        out = Poly.__new__(Poly)
        out.arity = self.arity
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Poly.one(self.arity)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and structure ----------------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise IndexError(f"variable index {index} out of range for arity {self.arity}")
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                new = mono[:index] + (e - 1,) + mono[index + 1:]
                terms[new] = terms.get(new, _ZERO) + coeff * e
        return Poly(self.arity, terms)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None when degrees are mixed.

        Raises ValueError on the zero polynomial, whose degree is a matter of
        convention left to the caller.
        """
        if not self.terms:
            raise ValueError("the zero polynomial has no homogeneous degree")
        degrees = {mono_degree(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def permuted(self, perm) -> "Poly":
        """Rename variables by ``perm``: x_i becomes x_{perm[i]}."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the variable indices")
        terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * self.arity
            for i, e in enumerate(mono):
                new[perm[i]] = e
            terms[tuple(new)] = coeff
        return Poly(self.arity, terms)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r}, arity={self.arity})"


def exact_div(p: Poly, g: Poly) -> Poly:
    """Quotient p / g when g divides p exactly; raises ValueError otherwise."""
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    p._check_arity(g)
    lm_g, lc_g = g.leading(GREVLEX)
    remainder = p
    quotient_terms = {}
    while not remainder.is_zero:
        lm_r, lc_r = remainder.leading(GREVLEX)
        if not mono_divides(lm_g, lm_r):
            raise ValueError("polynomial division is not exact")
        q_mono = mono_div(lm_r, lm_g)
        q_coeff = lc_r / lc_g
        quotient_terms[q_mono] = q_coeff
        remainder = remainder - Poly(p.arity, {q_mono: q_coeff}) * g
    return Poly(p.arity, quotient_terms)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Raised on malformed polynomial expressions."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise PolyParseError(f"unexpected character {tail[0]!r} at position {pos}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, arity, names):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        if names is None:
            self.var_index = {f"x{i}": i for i in range(arity)}
        else:
            if len(names) != arity:
                raise PolyParseError(f"expected {arity} variable names, got {len(names)}")
            self.var_index = {name: i for i, name in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value = self.take()
        if kind != "op" or value != symbol:
            raise PolyParseError(f"expected {symbol!r}, got {value!r}")

    def parse(self) -> Poly:
        poly = self.expression()
        if self.pos != len(self.tokens):
            raise PolyParseError(f"trailing input at token {self.peek()[1]!r}")
        return poly

    def expression(self) -> Poly:
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.unary()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "*/":
                self.take()
                rhs = self.unary()
                if op == "*":
                    value = value * rhs
                else:
                    c = rhs.constant_value()
                    if c is None:
                        raise PolyParseError("division is only allowed by nonzero constants")
                    if not c:
                        raise PolyParseError("division by zero")
                    value = value * (_ONE / c)
            else:
                return value

    def unary(self) -> Poly:
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.take()
            value = self.unary()
            return value if op == "+" else -value
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.take()
            kind, value = self.take()
            if kind == "op" and value == "-":
                raise PolyParseError("exponent must be a non-negative integer")
            if kind != "int":
                raise PolyParseError(f"expected integer exponent, got {value!r}")
            return base ** value
        return base

    def atom(self) -> Poly:
        kind, value = self.take()
        if kind is None:
            raise PolyParseError("unexpected end of input")
        if kind == "int":
            return Poly.const(self.arity, value)
        if kind == "name":
            if value not in self.var_index:
                raise PolyParseError(f"unknown variable {value!r}")
            return Poly.variable(self.arity, self.var_index[value])
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {value!r}")


def parse_poly(text: str, arity: int, names=None) -> Poly:
    """Parse a polynomial expression into expanded normal form.

    The default grammar uses variables ``x0`` .. ``x{arity-1}``; pass
    ``names`` to accept a different set of identifiers instead.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial expression")
    return _Parser(tokens, arity, names).parse()


def poly_to_str(p: Poly, names=None) -> str:
    """Canonical printed form: terms in decreasing grevlex order.

    ``parse_poly(poly_to_str(p), p.arity)`` reproduces ``p``.
    """
    if p.is_zero:
        return "0"
    if names is None:
        names = [f"x{i}" for i in range(p.arity)]
    pieces = []
    for mono, coeff in p.sorted_terms(GREVLEX):
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
