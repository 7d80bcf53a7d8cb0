import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logfol.poly import (
    ELIMINATION,
    GREVLEX,
    Poly,
    PolyParseError,
    _layout,
    _Overflow,
    parse_poly,
    poly_to_str,
)

from conftest import P, permuted_poly, random_homogeneous_poly, random_poly, variables


# -- parsing ------------------------------------------------------------------

def test_parse_basic():
    p = parse_poly("x0*x1 + 2*x2^2", 3)
    x0, x1, x2 = variables(3)
    assert p == x0 * x1 + 2 * x2 * x2


def test_parse_zero_and_cancellation():
    assert parse_poly("0", 3).is_zero
    assert parse_poly("x0 - x0", 2).is_zero


def test_parse_rationals_and_division():
    assert parse_poly("1/2", 2) == Poly.const(2, Fraction(1, 2))
    assert parse_poly("3/2*x0 - x0/2", 2) == P("x0", 2)
    assert parse_poly("(x0 + x1)/2", 2) == Fraction(1, 2) * (P("x0", 2) + P("x1", 2))


def test_parse_unary_and_parentheses():
    assert parse_poly("-x0 + (+x1)", 2) == P("x1", 2) - P("x0", 2)
    assert parse_poly("-(x0 - x1)^2", 2) == -(P("x0 - x1", 2) ** 2)


@pytest.mark.parametrize("text", [
    "y0 + 1",          # unknown variable
    "x0 +",            # truncated
    "x0 ^ -2",         # negative exponent
    "x0 x1",           # missing operator
    "(x0",             # unbalanced
    "x0 / x1",         # non-constant divisor
    "x0 / 0",          # zero divisor
    "",                # empty
])
def test_parse_errors(text):
    with pytest.raises(PolyParseError):
        parse_poly(text, 2)


def test_deep_nesting_is_a_parse_error():
    for depth in (200, 5000):
        with pytest.raises(PolyParseError, match="nested deeper"):
            parse_poly("(" * depth + "x0" + ")" * depth, 2)
        with pytest.raises(PolyParseError, match="nested deeper"):
            parse_poly("-" * depth + "x0", 2)
    assert parse_poly("(" * 50 + "x0 - x1" + ")" * 50, 2) == P("x0 - x1", 2)
    assert parse_poly("-(" * 25 + "x1" + ")" * 25, 2) == -P("x1", 2)
    assert parse_poly("-" * 50 + "x0", 2) == P("x0", 2)


def test_power_expansion_is_bounded():
    """A T-term base to the k-th can have C(k+T-1, T-1) terms; above 1000
    the power is refused before any expansion."""
    with pytest.raises(PolyParseError, match="can expand to more than 1000 terms"):
        parse_poly("(x0+2*x1+3*x2+5*x3)^50", 4)
    with pytest.raises(PolyParseError, match="more than 1000 terms"):
        parse_poly("(x0+x1)^1000", 2)
    assert parse_poly("x0^9000*x1^5000", 2).terms == {(9000, 5000): 1}
    assert len(parse_poly("(x0+x1)^20", 2).terms) == 21
    assert len(parse_poly("(x0+x1)^999", 2).terms) == 1000  # C(1000, 1), at the bound
    assert len(parse_poly("(x0+2*x1+3*x2+5*x3)^16", 4).terms) == 969
    assert parse_poly("(0*x0)^5000 + (3)^50", 2) == Poly.const(2, 3 ** 50)


def test_coefficient_size_is_bounded():
    """A power or product whose coefficients could need more digits than
    ``str`` converts (4300 by default) is refused before it is formed."""
    for text in ("2^20000*x0 + x1", "3^99999999", "(2*x0)^99999", "(x0 + 10^400*x1)^20"):
        with pytest.raises(PolyParseError, match="can have coefficients of more than 4300 digits"):
            parse_poly(text, 2)
    for text in ("9" * 3000 + "*" + "9" * 3000 + "*x0", "x0/" + "7" * 3000 + "/" + "7" * 3000,
                 "9" * 4300 + " + " + "9" * 4300):
        with pytest.raises(PolyParseError, match="a coefficient has more than 4300 digits"):
            parse_poly(text, 2)
    for text in ("9" * 4300, "3^9000*x0", "1/" + "7" * 4300 + "*x1", "(x0 + 2*x1)^999",
                 "x0^99999", "(x0^2)^99999999"):
        assert parse_poly(poly_to_str(parse_poly(text, 2)), 2) == parse_poly(text, 2)


def random_expression(rng, names, symbols):
    """(text, SymPy value) of a random expression over ``names``: integers,
    a/b rationals, variables, powers, parentheses, chains of unary signs,
    products with repeated factors such as ``2^3*x1^2*x1``, and quotients by
    nonzero constants."""
    def atom(depth):
        kind = rng.randrange(4 if depth < 2 else 3)
        if kind == 0:
            n = rng.randint(0, 12)
            return str(n), sympy.Integer(n)
        if kind == 1:
            i = rng.randrange(len(names))
            return names[i], symbols[i]
        if kind == 2:
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            return f"({a}/{b})", sympy.Rational(a, b)
        text, value = expression(depth + 1)
        return f"({text})", value

    def factor(depth):
        if rng.random() < 0.15:
            signs = "".join(rng.choice("+-") for _ in range(rng.randint(1, 4)))
            text, value = factor(depth)
            return signs + text, value * (-1) ** signs.count("-")
        text, value = atom(depth)
        if rng.random() < 0.3:
            k = rng.randint(0, 2 if text.startswith("(") else 4)
            return f"{text}^{k}", value ** k
        return text, value

    def term(depth):
        text, value = factor(depth)
        if rng.random() < 0.15:
            n, k, j = rng.randint(2, 5), rng.randint(0, 4), rng.randint(0, 3)
            i = rng.randrange(len(names))
            text = f"{text}*{n}^{k}*{names[i]}^{j}*{names[i]}"
            value = value * sympy.Integer(n) ** k * symbols[i] ** (j + 1)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.3:
                a, b = rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 4)
                if a > 0 and b == 1:
                    text, value = f"{text}/{a}", value / a
                else:
                    text, value = f"{text} / ({a}/{b})", value / sympy.Rational(a, b)
            else:
                other, v = factor(depth)
                text, value = f"{text}*{other}", value * v
        return text, value

    def expression(depth):
        text, value = term(depth)
        for _ in range(rng.randint(0, 3)):
            other, v = term(depth)
            op = rng.choice(["+", "-", " + ", " - "])
            text, value = text + op + other, value + v if "+" in op else value - v
        return text, value

    return expression(0)


# (variables, arity): the default names or custom ones; above arity 8 a
# packed monomial spans more than 64 bits
NAME_SETS = [(None, 3), (["u", "v", "w_2"], 3), (["x2", "x0", "x1"], 3), (["a", "b", "c", "d"], 4),
             (None, 10), ([f"y_{i}" for i in range(11)], 11)]


def test_parser_matches_sympy_expansion():
    """Random expressions parse to SymPy's expansion, rebuilt through the
    ``Poly`` constructor, at the same layout width."""
    rng = random.Random(2208)
    for case in range(300):
        names, arity = NAME_SETS[case % len(NAME_SETS)]
        shown = names or [f"x{i}" for i in range(arity)]
        symbols = sympy.symbols(f"s0:{arity}")
        text, value = random_expression(rng, shown, symbols)
        terms = sympy.Poly(sympy.expand(value), *symbols).terms()
        expected = Poly(arity, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})
        parsed = parse_poly(text, arity, names)
        assert parsed == expected, text
        assert parsed.layout is expected.layout, text


def test_parse_custom_names():
    p = parse_poly("u*v - w^2", 3, names=["u", "v", "w"])
    assert p == P("x0*x1 - x2^2", 3)
    with pytest.raises(PolyParseError):
        parse_poly("x0", 3, names=["u", "v", "w"])
    # a name the tokenizer reads as an operator never acts as a variable
    assert parse_poly("a*-b", 3, names=["a", "b", "-"]) == P("-x0*x1", 3)
    with pytest.raises(PolyParseError, match="unexpected token '\\*'"):
        parse_poly("a**b", 3, names=["a", "*", "b"])
    with pytest.raises(PolyParseError, match="unexpected token '\\^'"):
        parse_poly("a*^", 2, names=["a", "^"])


def test_print_parse_roundtrip_random():
    """Printing and parsing again give the polynomial back: random ones in 1
    to 12 variables, and random expressions, in the default or custom names."""
    rng = random.Random(20240811)
    for case in range(200):
        p = random_poly(rng, rng.randint(1, 12), 4, terms=5)
        names = None if case % 2 else [f"v{i}" for i in range(p.arity)]
        assert parse_poly(poly_to_str(p, names), p.arity, names) == p
    for case in range(120):
        names, arity = NAME_SETS[case % len(NAME_SETS)]
        shown = names or [f"x{i}" for i in range(arity)]
        text, _ = random_expression(rng, shown, sympy.symbols(f"s0:{arity}"))
        p = parse_poly(text, arity, names)
        assert parse_poly(poly_to_str(p, names), arity, names) == p
    assert poly_to_str(Poly(3)) == "0"
    assert poly_to_str(P("x0 + x1^2 + 1", 2)) == "x1^2 + x0 + 1"  # decreasing grevlex


def test_dense_form_in_2001_variables_parses_and_prints_in_time():
    """A dense linear form on P^2000, ``cli.MAX_N``: each of its packed
    monomials has one nonzero field, so reading and printing it cost about
    its number of terms; at terms times arity each takes over a second."""
    arity = 2001
    text = " + ".join(f"{i + 1}*x{i}" for i in range(arity))
    t0 = time.perf_counter()
    p = parse_poly(text, arity)
    t1 = time.perf_counter()
    printed = poly_to_str(p)
    t2 = time.perf_counter()
    assert len(p.num) == arity and printed == text[2:]  # "1*x0" prints as "x0"
    assert parse_poly(printed, arity) == p
    assert t1 - t0 < 0.5 and t2 - t1 < 0.5, (t1 - t0, t2 - t1)


# -- ring operations ----------------------------------------------------------

def test_product_difference_of_squares():
    assert P("(x0 + x1)*(x0 - x1)", 2) == P("x0^2 - x1^2", 2)


def test_multiplication_by_zero_annihilates():
    p = P("3*x0^2 - x1 + 7", 2)
    assert (p * Poly(2)).is_zero
    assert (p * 0).is_zero


def test_binomial_square():
    assert P("(x0 + x1)^2", 2) == P("x0^2 + 2*x0*x1 + x1^2", 2)


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        P("x0", 2) + P("x0", 3)
    with pytest.raises(ValueError):
        P("x0", 2) * P("x0", 3)


def test_ring_axioms_random():
    """Associativity, commutativity, distributivity on random triples."""
    rng = random.Random(99)
    for _ in range(60):
        arity = rng.randint(1, 3)
        a = random_poly(rng, arity, 3)
        b = random_poly(rng, arity, 3)
        c = random_poly(rng, arity, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exact_rational_arithmetic():
    third = Poly.const(1, Fraction(1, 3))
    assert third + third + third == Poly.one(1)
    p = Fraction(2, 7) * P("x0", 1)
    assert p * Fraction(7, 2) == P("x0", 1)


# -- degrees and derivatives ---------------------------------------------------

def test_homogeneous_degree():
    assert P("x0*x1 + x2^2", 3).homogeneous_degree() == 2
    assert P("x0 + x1^2", 2).homogeneous_degree() is None
    assert P("x0*x1*x2", 3).homogeneous_degree() == 3
    with pytest.raises(ValueError):
        Poly(2).homogeneous_degree()


def test_partial_derivative():
    assert P("x0^2*x1", 2).partial_derivative(0) == P("2*x0*x1", 2)
    assert P("x0*x1", 3).partial_derivative(2).is_zero
    assert P("x0*x1 + x1^2", 2).partial_derivative(1) == P("x0 + 2*x1", 2)
    with pytest.raises(IndexError):
        P("x0", 2).partial_derivative(5)


def test_euler_identity_random():
    """sum_i x_i d/dx_i p = deg(p) * p for homogeneous p."""
    rng = random.Random(7)
    for _ in range(50):
        arity = rng.randint(2, 4)
        degree = rng.randint(1, 5)
        p = random_homogeneous_poly(rng, arity, degree)
        if p.is_zero:
            continue
        total = Poly(arity)
        for i in range(arity):
            total = total + Poly.variable(arity, i) * p.partial_derivative(i)
        assert total == degree * p


def test_permuted():
    p = P("x0^2*x1 + x2", 3)
    assert permuted_poly(p, (2, 0, 1)) == P("x2^2*x0 + x1", 3)
    assert permuted_poly(p, (0, 1, 2)) == p


# -- monomial orders ------------------------------------------------------------

def order_key(order, mono):
    """Sort key of an exponent tuple under ``order``: its packed monomial
    with the reverse-compared fields flipped."""
    layout = _layout(order, len(mono), 7)
    return layout.pack(mono) ^ layout.flip


def test_grevlex_order():
    # degree first; ties broken against the *last* differing exponent
    key = lambda mono: order_key(GREVLEX, mono)
    m_x0, m_x1, m_x2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert key(m_x0) > key(m_x1) > key(m_x2)
    assert key((0, 1, 1)) > key(m_x0)
    # where grevlex and lex disagree: x0*x2^2 < x1^2*x2
    assert key((1, 0, 2)) < key((0, 2, 1))


def test_block_order_eliminates_prefix():
    order = ELIMINATION
    # anything with t (variable 0) beats anything without
    assert order_key(order, (1, 0, 0)) > order_key(order, (0, 7, 7))
    # within the t-free block it is grevlex
    assert order_key(order, (0, 1, 0)) > order_key(order, (0, 0, 1))


def test_leading_term_respects_order():
    assert poly_to_str(P("x0 + x1^2", 2)) == "x1^2 + x0"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda arity: st.tuples(
    st.sampled_from([7, 14, 28]),
    st.lists(st.integers(0, 9), min_size=arity, max_size=arity),
    st.integers(0, 9))))
def test_t_free_elimination_monomials_pack_as_grevlex(case):
    """Module runs put a grevlex monomial at e0 unchanged and add the
    position field's weight for e1, without repacking: this is what makes
    that sound."""
    bits, exps, e = case
    grevlex = _layout(GREVLEX, len(exps), bits)
    block = _layout(ELIMINATION, len(exps) + 1, bits)
    p = grevlex.pack(exps)
    assert block.pack([0] + exps) == p
    t = block.weights[0]
    assert block.pack([e] + exps) == p + e * t
    # t's field is its own and lies above the degree field of the rest
    assert t == 1 << block.shifts[0] == grevlex.bound << 1
    assert block.unpack(p + e * t) == (e, *exps)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda arity: st.tuples(
    st.sampled_from([GREVLEX, ELIMINATION]),
    st.lists(st.integers(0, 100), min_size=arity, max_size=arity),
    st.lists(st.integers(0, 100), min_size=arity, max_size=arity),
    st.integers(0, 1), st.integers(0, 1))))
def test_divisibility_and_lcm_of_packed_monomials(case):
    """x^a e_i divides x^b e_j exactly when i == j and a <= b, read off one
    mask; the packed lcm and its degree match the exponent tuples, and an
    lcm of degree above the field's cap is an overflow."""
    order, a, b, i, j = case
    layout = _layout(order, len(a) + (order == ELIMINATION), 7)
    cap = layout.cap
    a = [e * cap // max(cap, sum(a)) for e in a]  # each monomial fits the width
    b = [e * cap // max(cap, sum(b)) for e in b]
    if order == GREVLEX:
        i = j = 0
        pack = lambda k, exps: layout.pack(exps)
    else:
        pack = lambda k, exps: layout.pack([k] + exps)
    divides = i == j and all(x <= y for x, y in zip(a, b))
    assert (not (pack(j, b) - pack(i, a)) & layout.divmask) == divides
    top = [max(x, y) for x, y in zip(a, b)]
    if sum(top) > cap:
        with pytest.raises(_Overflow):
            layout.lcm(pack(i, a), pack(i, b))
    else:
        assert layout.lcm(pack(i, a), pack(i, b)) == (pack(i, top), sum(top))


# -- independent oracle: SymPy's polynomials over QQ ------------------------------

def _rational_poly(rng, arity, degree, terms, high=False):
    """A random polynomial with rational coefficients; with ``high``, about
    half of its terms get one exponent between 40 and 120: the polynomial
    fits the narrowest field width (degrees up to 127), and products and
    powers of such polynomials are repacked wider."""
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(arity)] += 1
        if high and rng.random() < 0.5:
            mono[rng.randrange(arity)] += rng.randint(40, 120)
        out[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Poly(arity, out)


def _oracle_cases(seed, count):
    """(arity, symbols, a, b) for random polynomials in 1-5 variables."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for case in range(count):
        arity = rng.randint(1, 5)
        high = case % 3 == 0
        yield (rng, sympy.symbols(f"x0:{arity}"),
               _rational_poly(rng, arity, 3, rng.randint(1, 5), high),
               _rational_poly(rng, arity, 3, rng.randint(1, 5), high))


def _to_sympy(p, xs):
    import sympy
    return sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                 for m, c in p.terms.items()}, *xs, domain="QQ")


def _terms_of(sp):
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sp.as_dict().items() if c}


def test_ring_operations_match_sympy():
    for rng, xs, a, b in _oracle_cases(6021, 90):
        A, B = _to_sympy(a, xs), _to_sympy(b, xs)
        assert (a + b).terms == _terms_of(A + B), (a, b)
        assert (a - b).terms == _terms_of(A - B), (a, b)
        assert (a * b).terms == _terms_of(A * B), (a, b)
        k = rng.randint(0, 3)
        assert (a ** k).terms == _terms_of(A ** k), (a, k)
        assert (a * Fraction(-3, 7)).terms == _terms_of(A * Fraction(-3, 7)), a


def test_partial_derivatives_match_sympy():
    for _, xs, a, _ in _oracle_cases(6022, 60):
        A = _to_sympy(a, xs)
        for i, x in enumerate(xs):
            assert a.partial_derivative(i).terms == _terms_of(A.diff(x)), (a, i)


def test_print_parse_round_trip_matches_sympy():
    for _, xs, a, _ in _oracle_cases(6024, 60):
        text = poly_to_str(a)
        back = parse_poly(text, a.arity)
        assert back == a and hash(back) == hash(a), text
        assert back.terms == _terms_of(_to_sympy(a, xs)), text


def test_equal_polynomials_from_different_routes_hash_equal():
    for rng, _, a, b in _oracle_cases(6025, 60):
        c = _rational_poly(rng, a.arity, 2, 3, high=True)
        routes = [(a + b) * c, a * c + b * c, c * (b + a),
                  (a * c * 2 + b * c * 2) * Fraction(1, 2), (a + c) * c + b * c - c * c]
        for other in routes[1:]:
            assert other == routes[0] and hash(other) == hash(routes[0]), (a, b, c)
    # a sum whose high-degree terms cancel is packed as its narrow self again
    x0, x1 = variables(2)
    high = x0 ** 300
    low = (high + x1 * Fraction(1, 2)) - high
    assert low == x1 * Fraction(1, 2) and hash(low) == hash(x1 * Fraction(1, 2))
    assert low.layout is (x1 * Fraction(1, 2)).layout


def test_zero_from_arithmetic_is_the_canonical_zero():
    """A difference that cancels every term of a wide polynomial is the
    narrow zero, equal to the zero of every other route."""
    p = parse_poly("x0^200", 2)
    zero = p - p
    assert zero == 0 and zero == Poly(2) and hash(zero) == hash(Poly(2))
    assert zero.layout is Poly(2).layout
    for other in (p * 0, -p + p, p + (-p), (p - p) * p):
        assert other == zero and other.layout is zero.layout
