"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial of Q[x0, ..., xn] is a dict of integer numerators over one
positive common denominator, coprime to their content.  Its monomials are
packed into ints by the grevlex ``_Layout`` of its arity, at the narrowest
width of a fixed ladder that holds its degree, so ``==`` and ``hash`` are
structural.  Fields have guard bits (Monagan & Pearce, "Sparse polynomial
division using a heap", JSC 2011), so multiplying monomials adds ints; the
degree field is the most significant, so one degree check per product
decides whether it must be repacked wider.  The Groebner engine shares the
layouts.  All arithmetic is exact; there is no floating point anywhere in
this package.

Exponent tuples belong to the edge API only: the ``Poly(arity, {tuple:
rational})`` constructor and the ``terms`` view; the parser and printer of
expressions in ``x0..xn`` (integer and ``a/b`` literals, ``+ - * / ^``,
parentheses) work on packed monomials.  The module also names grevlex and
the position-over-term order on R*e1 + R*e0 that the Groebner engine runs.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

_BITS = 7  # value bits of a field at the narrowest width; wider ones double it


# ---------------------------------------------------------------------------
# monomial orders and packed monomials
# ---------------------------------------------------------------------------

# The two monomial orders, by the names their layouts carry.  Grevlex with
# x0 > x1 > ... > xn is the order of every Poly and of every ideal.  The
# Groebner engine alone uses position over term on R*e1 + R*e0: the
# position is compared first, with e1 > e0, then grevlex, so any term at e1
# is larger than any term at e0, and e1 is eliminated.
GREVLEX = "grevlex"
ELIMINATION = "block(1)"


class _Overflow(Exception):
    """A packed exponent or degree would not fit below its guard bit."""


class _Layout:
    """Packing of the exponent vectors of one (order, arity) into ints.

    Fields run from the most significant down: the position, 1 for e1 and
    0 for e0 (``ELIMINATION`` only, where ``arity`` counts it as the first
    entry of an exponent vector), the total degree of the variables, then
    their exponents from the last variable to the first.  So the terms at
    e0 pack exactly as grevlex monomials, and e1 adds ``weights[0]``.  The
    exponent fields below the degree field are compared in reverse, so
    ``flip`` holds their value bits, and ``p ^ flip`` is the order key.
    Every field holds values up to ``cap`` below a clear guard bit.
    x^a e_i divides x^b e_j exactly when ``(b - a) & divmask`` is zero:
    ``divmask`` is ``guard`` plus the value bits of the position field.
    """

    def __init__(self, order: str, arity: int, bits: int):
        self.name = order
        self.arity = arity
        self.bits = bits
        self.cap = cap = (1 << bits) - 1
        t = int(order == ELIMINATION)
        step = bits + 1
        # variable i >= t at step*(i - t), their degree above, the position on top
        self.degshift = degshift = step * (arity - t)
        self.shifts = [degshift + step] * t + [step * k for k in range(arity - t)]
        # packing is linear: an exponent adds to its own field and the degree field
        self.weights = [1 << s for s in self.shifts[:t]]
        self.weights += [(1 << s) + (1 << degshift) for s in self.shifts[t:]]
        self.guard = sum(1 << (s + bits) for s in self.shifts + [degshift])
        self.divmask = self.guard | sum(cap << s for s in self.shifts[:t])
        self.top = degshift + step  # lm >> top is the position
        self.positions = t + 1  # e1 and e0, or the one position of grevlex
        self.flip = sum(cap << s for s in self.shifts[t:])
        self.rev = ~self.flip  # p ^ rev decreases as the monomial grows
        # grevlex: a packed monomial below ``bound`` has degree at most cap
        self.bound = 1 << (degshift + bits)

    def pack(self, exps) -> int:
        """Packed monomial; the total degree bounds every field."""
        if sum(exps) > self.cap:
            raise _Overflow
        return sum(map(mul, exps, self.weights))

    def unpack(self, p: int) -> tuple:
        cap = self.cap
        return tuple([(p >> s) & cap for s in self.shifts])

    def lcm(self, a: int, b: int) -> tuple:
        """(lcm, its degree) of two packed monomials at the same position:
        the fieldwise maximum of the exponents, with the degree field summed
        again.  That sum is at most twice ``cap``, below 2**(bits + 1) - 1,
        so it is the exponents' packed value modulo 2**(bits + 1) - 1."""
        guard, bits, top = self.guard, self.bits, self.top
        ge = ((a | guard) - b) & guard     # guard bit set where a >= b
        keep = ge - (ge >> bits)           # the value bits of those fields
        exps = ((a & keep) | (b & ~keep)) & ((1 << self.degshift) - 1)
        degree = exps % ((2 << bits) - 1)
        if degree > self.cap:
            raise _Overflow
        return (a >> top << top) | (degree << self.degshift) | exps, degree

    def fieldmax(self, monomials) -> int:
        """Packed fieldwise maximum (0 for no monomials)."""
        guard, bits = self.guard, self.bits
        top = 0
        for m in monomials:
            ge = ((top | guard) - m) & guard   # guard bit set where top >= m
            keep = ge - (ge >> bits)           # the value bits of those fields
            top = (top & keep) | (m & ~keep)
        return top


@functools.lru_cache(maxsize=None)
def _layout(order: str, arity: int, bits: int) -> _Layout:
    return _Layout(order, arity, bits)


def _width(degree: int) -> int:
    """The narrowest field width of the ladder that holds ``degree``."""
    bits = _BITS
    while degree >> bits:
        bits *= 2
    return bits


def _repack(num: dict, src: _Layout, dst: _Layout) -> dict:
    """The same terms packed by another layout of the same arity."""
    unpack, pack = src.unpack, dst.pack
    return {pack(unpack(m)): c for m, c in num.items()}


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _make(layout: _Layout, num: dict, den: int = 1) -> "Poly":
    """The canonical polynomial num/den: content coprime to ``den`` and the
    narrowest width.  ``layout`` is a grevlex layout."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    if layout.bits > _BITS:  # zero too: its canonical layout is the narrowest
        bits = _width(max(num, default=0) >> layout.degshift)
        if bits < layout.bits:
            narrow = _layout(GREVLEX, layout.arity, bits)
            num, layout = _repack(num, layout, narrow), narrow
    out = object.__new__(Poly)
    out.arity, out.layout, out.num, out.den = layout.arity, layout, num, den
    return out


def _from_terms(layout: _Layout, terms: dict) -> "Poly":
    """The canonical polynomial of int or ``Fraction`` coefficients keyed by
    packed monomials of ``layout``; zero coefficients are dropped."""
    # from a list, not an iterator: CPython resizes a tuple built from an
    # iterator, and its free lists then keep one block per call
    den = lcm(*[c.denominator for c in terms.values()])
    return _make(layout, {m: c.numerator * (den // c.denominator)
                          for m, c in terms.items() if c}, den)


def _aligned(polys) -> tuple:
    """(layout, numerators) of polynomials of one arity at their widest width."""
    layout = max((p.layout for p in polys), key=lambda lay: lay.bits)
    return layout, [p.num if p.layout is layout else _repack(p.num, p.layout, layout)
                    for p in polys]


def _signed_sum(polys, signs) -> "Poly":
    """The sum of sign * p over the polynomials, in one pass."""
    layout, nums = _aligned(polys)
    den = lcm(*(p.den for p in polys))
    out = {}
    get = out.get
    for p, num, sign in zip(polys, nums, signs):
        f = den // p.den * sign
        for m, c in num.items():
            out[m] = get(m, 0) + c * f
    return _make(layout, {m: c for m, c in out.items() if c}, den)


def linear_substitution(polys, rows) -> list:
    """The polynomials with each variable x_i replaced by the linear form
    sum_j rows[i][j] x_j, for integer rows.

    The integer image of each packed monomial is memoised for the call, so
    a monomial is expanded once however many of the polynomials hold it.
    The image of a monomial is that of the monomial with one x_i fewer,
    times the form of x_i, for its first variable x_i."""
    if not polys:
        return []
    layout = _layout(GREVLEX, polys[0].arity, _width(max(p.total_degree() for p in polys)))
    shifts, weights, cap = layout.shifts, layout.weights, layout.cap
    forms = [{w: c for w, c in zip(weights, row) if c} for row in rows]
    memo = {0: {0: 1}}

    def image(m: int) -> dict:
        chain = []
        while m not in memo:
            i = next(i for i, s in enumerate(shifts) if (m >> s) & cap)
            chain.append((m, forms[i]))
            m -= weights[i]
        out = memo[m]
        for m, form in reversed(chain):
            product = {}
            get = product.get
            for w, c in form.items():
                for k, d in out.items():
                    k += w
                    product[k] = get(k, 0) + c * d
            out = memo[m] = {k: d for k, d in product.items() if d}
        return out

    out = []
    for p in polys:
        num = p.num if p.layout is layout else _repack(p.num, p.layout, layout)
        total = {}
        get = total.get
        for m, c in num.items():
            for k, d in image(m).items():
                total[k] = get(k, 0) + c * d
        out.append(_make(layout, {k: d for k, d in total.items() if d}, p.den))
    return out


class Poly:
    """A sparse polynomial with rational coefficients.

    ``num`` maps packed monomials (``layout``, grevlex at the narrowest
    width that holds the degree) to nonzero integer numerators over the
    common denominator ``den > 0``, whose gcd with the numerators is 1.
    Instances are treated as immutable: no method mutates ``self`` and the
    ``num`` dict must not be modified by callers.
    """

    __slots__ = ("arity", "layout", "num", "den")

    def __init__(self, arity: int, terms=None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        clean = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError("polynomial coefficients must be exact rationals, "
                                f"got {type(coeff).__name__}")
            if len(mono) != arity:
                raise ValueError(f"exponent vector {mono} does not match arity {arity}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if coeff:
                clean[tuple(mono)] = coeff
        layout = _layout(GREVLEX, arity, _width(max(map(sum, clean), default=0)))
        canon = _from_terms(layout, {layout.pack(m): c for m, c in clean.items()})
        self.arity, self.layout, self.num, self.den = arity, canon.layout, canon.num, canon.den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(arity: int, value) -> "Poly":
        return Poly(arity, {(0,) * arity: value})

    @staticmethod
    def one(arity: int) -> "Poly":
        return Poly.const(arity, 1)

    @staticmethod
    def variable(arity: int, index: int) -> "Poly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        layout = _layout(GREVLEX, arity, _BITS)
        return _make(layout, {layout.weights[index]: 1})

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def terms(self) -> dict:
        """A fresh dict of exponent tuples to ``Fraction`` coefficients."""
        unpack, den = self.layout.unpack, self.den
        return {unpack(m): Fraction(c, den) for m, c in self.num.items()}

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max(self.num) >> self.layout.degshift if self.num else -1

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.arity, other)
        if isinstance(other, Poly):
            if other.arity != self.arity:
                raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _signed_sum((self, other), (1, 1))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.layout, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _signed_sum((self, other), (1, -1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        layout, (a, b) = _aligned((self, other))
        if not a or not b:
            return Poly(self.arity)
        if max(a) + max(b) >= layout.bound:  # the product's degree needs a wider field
            wide = _layout(GREVLEX, self.arity,
                           _width((max(a) >> layout.degshift) + (max(b) >> layout.degshift)))
            a, b, layout = _repack(a, layout, wide), _repack(b, layout, wide), wide
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (m2, c2), = b.items()
            out = {m + m2: c * c2 for m, c in a.items()}
        else:
            out = {}
            get = out.get
            for m2, c2 in b.items():
                for m, c in a.items():
                    m += m2
                    out[m] = get(m, 0) + c * c2
            out = {m: c for m, c in out.items() if c}
        return _make(layout, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Poly.one(self.arity)
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.arity == other.arity and self.den == other.den
                and self.layout.bits == other.layout.bits and self.num == other.num)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.num.items())))

    def __bool__(self):
        return bool(self.num)

    # -- calculus and structure ----------------------------------------------

    def partial_derivative(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise IndexError(f"variable index {index} out of range for arity {self.arity}")
        layout = self.layout
        shift, weight, cap = layout.shifts[index], layout.weights[index], layout.cap
        out = {}
        for m, c in self.num.items():
            e = (m >> shift) & cap
            if e:
                out[m - weight] = c * e
        return _make(layout, out, self.den)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None when degrees are mixed.

        Raises ValueError on the zero polynomial, whose degree is a matter of
        convention left to the caller.
        """
        if not self.num:
            raise ValueError("the zero polynomial has no homogeneous degree")
        shift = self.layout.degshift
        degrees = {m >> shift for m in self.num}
        return degrees.pop() if len(degrees) == 1 else None

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r}, arity={self.arity})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Raised on malformed polynomial expressions."""


# Parentheses and unary signs nest at most this deep; each level costs the
# recursive-descent parser a few Python frames, so the bound keeps a deep
# expression a parse error instead of a RecursionError.
_MAX_DEPTH = 100

# A power of a T-term base to the k-th has at most C(k+T-1, T-1) terms; a
# power that could have more than this is a parse error, so that expanding
# it stays bounded work.
_MAX_POWER_TERMS = 1000

# One token per match: an integer literal, a name or an operator; any other
# character matches neither group.  A match starts where the last one ended.
_digit_limit = getattr(sys, "get_int_max_str_digits", int)  # 0: no limit
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*|[+\-*/^()])|\S)")


def _tokenize(text: str) -> list:
    """Integer literals as ints, names and operators as strings, then two
    Nones, so the parser can look one token past any token but the last."""
    try:
        tokens = [int(digits) if digits else word for digits, word in _TOKEN.findall(text)]
    except ValueError:  # past Python's limit on digits converted
        tokens = [""]
    if "" in tokens:  # scan again for the position of the first bad token
        for m in _TOKEN.finditer(text):
            if m[1] and len(m[1]) > _digit_limit() > 0:
                raise PolyParseError(f"integer literal of {len(m[1])} digits "
                                     f"at position {m.start(1)} is too long")
            if not (m[1] or m[2]):
                raise PolyParseError(f"unexpected character {m[0].lstrip()!r} "
                                     f"at position {m.start()}")
    tokens += (None, None)
    return tokens


class _Parser:
    """Recursive descent over the tokens.  A term or factor is a triple: (coeff,
    monomial packed at ``bits``, None), coeff 0 for zero, or (None, None, Poly)
    of several terms.  A degree too wide raises ``_Overflow(width)``."""

    def __init__(self, tokens, arity, names, bits):
        self.tokens, self.pos, self.depth = tokens, 0, 0
        if names is None:
            names = [f"x{i}" for i in range(arity)]
        elif len(names) != arity:
            raise PolyParseError(f"expected {arity} variable names, got {len(names)}")
        self.layout = layout = _layout(GREVLEX, arity, bits)
        self.weights = dict(zip(names, layout.weights))
        for token in (*"+-*/^()", None):  # never read as a name
            self.weights.pop(token, None)

    def check_digits(self, numerators, den: int = 1, what: str = "a coefficient"):
        """Raise if c/den in lowest terms has a part of 10^limit (> 3 * limit bits) or more."""
        limit = _digit_limit()
        if limit and max(den, max(map(abs, numerators), default=0)).bit_length() > 3 * limit:
            for c in numerators:  # max(|c|, den) / gcd(c, den): the larger part in lowest terms
                if max(abs(c), den) // gcd(c, den) >= 10 ** limit:
                    raise PolyParseError(f"{what} has more than {limit} digits")

    def triple(self, p: Poly) -> tuple:
        if len(p.num) > 1:
            return None, None, p
        if p.layout.bits > self.layout.bits:
            raise _Overflow(p.layout.bits)
        num = p.num if p.layout is self.layout else _repack(p.num, p.layout, self.layout)
        (mono, c), = num.items() or ((0, 0),)
        return Fraction(c, p.den), mono, None

    def expression(self) -> tuple:
        """Terms joined by '+' and '-', of factors multiplied left to right.  A
        product's digits are checked unless its side of fewer terms (the factor
        between monomials) is a monomial of coefficient 1 or -1."""
        tokens, value, polys, sign = self.tokens, {}, [], 1
        while True:
            coeff, mono, p = self.factor()
            while tokens[self.pos] == "*" or tokens[self.pos] == "/":
                op = tokens[self.pos]
                self.pos += 1
                c, m, q = self.factor()
                if op == "/":
                    if q is not None or m:
                        raise PolyParseError("division is only allowed by nonzero constants")
                    if not c:
                        raise PolyParseError("division by zero")
                    c = Fraction(1) / c
                if p is None and q is None:
                    coeff, mono = coeff * c, mono + m
                    if coeff and mono >= self.layout.bound:
                        raise _Overflow(_width(mono >> self.layout.degshift))
                    if c != 1 and c != -1:
                        self.check_digits([coeff.numerator], coeff.denominator)
                    continue
                side = coeff if p is None else c if q is None else None
                product = ((p or _from_terms(self.layout, {mono: coeff}))
                           * (q or _from_terms(self.layout, {m: c})))
                if side != 1 and side != -1:
                    self.check_digits(product.num.values(), product.den)
                coeff, mono, p = self.triple(product)
            if p is None:
                value[mono] = value.get(mono, 0) + sign * coeff
            else:
                polys.append(p if sign == 1 else -p)
            if tokens[self.pos] != "+" and tokens[self.pos] != "-":
                value = {m: c for m, c in value.items() if c}
                if polys or len(value) > 1:
                    return self.triple(sum(polys, _from_terms(self.layout, value)))
                return next(((c, m, None) for m, c in value.items()), (0, 0, None))
            sign = 1 if tokens[self.pos] == "+" else -1
            self.pos += 1

    def factor(self) -> tuple:
        """Signs, then an integer, a name or a parenthesized sum, then a power."""
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            coeff, mono, p = tok, 0, None
        elif tok in self.weights:
            coeff, mono, p = 1, self.weights[tok], None
        elif tok == "+" or tok == "-" or tok == "(":  # one level deeper
            if self.depth == _MAX_DEPTH:
                raise PolyParseError(f"expression nested deeper than {_MAX_DEPTH} levels")
            self.depth += 1
            coeff, mono, p = self.expression() if tok == "(" else self.factor()
            self.depth -= 1
            if tok == "-":
                coeff, p = (-coeff, None) if p is None else (None, -p)
            if tok != "(":
                return coeff, mono, p
            if tokens[self.pos] != ")":
                raise PolyParseError(f"expected ')', got {tokens[self.pos]!r}")
            self.pos += 1
        else:
            raise PolyParseError("unexpected end of input" if tok is None else
                                 f"unexpected token {tok!r}" if tok in "+-*/^)" else
                                 f"unknown variable {tok!r}")
        if tokens[self.pos] != "^":
            return coeff, mono, p
        k = tokens[self.pos + 1]
        self.pos += 2
        if k == "-":
            raise PolyParseError("exponent must be a non-negative integer")
        if type(k) is not int:
            raise PolyParseError(f"expected integer exponent, got {k!r}")
        # the base is (sum of N_i x^a_i) / den, so no part of a coefficient of
        # its k-th power exceeds height^k, formed only when below 2^(8 * limit)
        num, den = (p.num, p.den) if p is not None else ({0: coeff.numerator}, coeff.denominator)
        terms, height = len(num), max(den, sum(map(abs, num.values())))
        if terms > 1 and comb(k + terms - 1, terms - 1) > _MAX_POWER_TERMS:
            raise PolyParseError(f"a {terms}-term base to the power {k} can expand "
                                 f"to more than {_MAX_POWER_TERMS} terms")
        limit = _digit_limit()
        if limit and height > 1 and (k * (height.bit_length() - 1) > 4 * limit
                                     or height ** k >= 10 ** limit):
            raise PolyParseError(f"a {terms}-term base to the power {k} can have "
                                 f"coefficients of more than {limit} digits")
        if p is not None:
            return self.triple(p ** k)
        if (mono >> self.layout.degshift) * k > self.layout.cap:
            raise _Overflow(_width((mono >> self.layout.degshift) * k))
        return coeff ** k, mono * k, None  # 0^0 is 1


def parse_poly(text: str, arity: int, names=None) -> Poly:
    """Parse a polynomial expression into expanded normal form.

    The default grammar uses variables ``x0`` .. ``x{arity-1}``; pass
    ``names`` to accept a different set of identifiers instead.
    """
    tokens = _tokenize(text)
    if len(tokens) == 2:
        raise PolyParseError("empty polynomial expression")
    parser = _Parser(tokens, arity, names, _BITS)
    while True:  # at the narrowest width, then at the width a degree needs
        try:
            coeff, mono, p = parser.expression()
            break
        except _Overflow as wider:
            parser = _Parser(tokens, arity, names, wider.args[0])
    p = p or _from_terms(parser.layout, {mono: coeff})
    parser.check_digits(p.num.values(), p.den)
    if tokens[parser.pos] is not None:
        raise PolyParseError(f"trailing input at token {tokens[parser.pos]!r}")
    # the degree is printed too, so it obeys the digit limit of coefficients
    parser.check_digits([max(p.total_degree(), 0)], what="the total degree")
    return p


def poly_to_str(p: Poly, names=None) -> str:
    """Canonical printed form: terms in decreasing grevlex order.

    ``parse_poly(poly_to_str(p), p.arity)`` reproduces ``p``.
    """
    if p.is_zero:
        return "0"
    layout, den, pieces = p.layout, p.den, []
    step, cap, fields = layout.bits + 1, layout.cap, (1 << layout.degshift) - 1
    for m in sorted(p.num, key=layout.flip.__xor__, reverse=True):
        factors = []
        rest = m & fields  # the exponents, read from the lowest nonzero field up
        while rest:
            shift = ((rest & -rest).bit_length() - 1) // step * step
            e = rest >> shift & cap
            rest ^= e << shift
            name = f"x{shift // step}" if names is None else names[shift // step]
            factors.append(name if e == 1 else f"{name}^{e}")
        c = p.num[m]
        a, b = abs(c), den  # the coefficient c/den, as a/b in lowest terms
        if b != 1:
            g = gcd(a, b)
            a, b = a // g, b // g
        if a != 1 or b != 1 or not factors:
            factors.insert(0, str(a) if b == 1 else f"{a}/{b}")
        pieces.append((" - " if c < 0 else " + ") + "*".join(factors))
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]
