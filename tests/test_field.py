import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from p1dyn.errors import DomainError, FieldMismatchError, MapSpecError
from p1dyn.quadfield import (
    QuadFieldElement as QF,
    cleared_pairs,
    format_element,
    integral_gcd,
    omega_flag,
    pair_divexact,
    pair_divmod,
    pair_normalize,
    parse_element,
    parse_rational,
)
from p1dyn import cli


def divmod_elements(x, y):
    """pair_divmod on two algebraic integers, as field elements."""
    q, r = pair_divmod(x.basis_pair(), y.basis_pair(), omega_flag(x.d))
    return QF.from_basis_pair(*q, x.d), QF.from_basis_pair(*r, x.d)


def normalize_element(x):
    """pair_normalize on den*x, divided by den again."""
    (p,), den = cleared_pairs([x])
    return QF.from_basis_pair(*pair_normalize(p, omega_flag(x.d)), x.d) / den


def gauss(a, b):
    return QF(a, b, 1)


def eis(a, b):
    return QF(a, b, 3)


# Oracle values below were derived by direct expansion before the
# arithmetic existed, then frozen.


class TestBasicArithmetic:
    def test_gauss_conjugate_product(self):
        assert gauss(1, 1) * gauss(1, -1) == gauss(2, 0)

    def test_sixth_root_powers(self):
        # rho = (1+sqrt(-3))/2: rho^2 = (-1+sqrt(-3))/2, rho^3 = -1
        rho = eis(Fraction(1, 2), Fraction(1, 2))
        assert rho * rho == eis(Fraction(-1, 2), Fraction(1, 2))
        assert rho ** 3 == eis(-1, 0)

    def test_cube_root_powers(self):
        # omega = (-1+sqrt(-3))/2 is a primitive cube root of unity
        omega = eis(Fraction(-1, 2), Fraction(1, 2))
        assert omega ** 3 == eis(1, 0)
        assert omega * omega + omega + 1 == eis(0, 0)

    def test_inverse_roundtrip(self):
        x = gauss(3, 2)
        assert x * x.inverse() == gauss(1, 0)
        assert (x / x) == gauss(1, 0)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            gauss(0, 0).inverse()

    def test_norms(self):
        assert gauss(1, 2).norm() == 5
        assert QF(0, 1, 3).norm() == 3
        assert QF(Fraction(3, 2), Fraction(-3, 2), 3).norm() == 9

    def test_conj_fixes_rationals(self):
        assert QF(7).conj() == QF(7)
        assert gauss(2, 5).conj() == gauss(2, -5)

    def test_mixed_field_tags_raise(self):
        with pytest.raises(FieldMismatchError):
            gauss(1, 0) + eis(1, 0)
        with pytest.raises(FieldMismatchError):
            QF(1, 0, 0) * gauss(0, 1)

    def test_python_scalars_coerce(self):
        assert 2 * gauss(1, 1) == gauss(2, 2)
        assert gauss(1, 1) + 1 == gauss(2, 1)
        assert Fraction(1, 2) * gauss(2, 4) == gauss(1, 2)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_hash_agrees_with_equal_rationals(self, d):
        for r in (3, -7, 0, Fraction(1, 2), Fraction(-5, 3)):
            x = QF(r, 0, d)
            assert x == r and hash(x) == hash(r)
            assert r in {x} and x in {r}
        assert {QF(3, 0, d): "three"}[3] == "three"
        if d:
            assert hash(QF(3, 1, d)) == hash(QF(3, 1, d))
            assert QF(3, 1, d) not in {QF(3, 0, d), 3}

    def test_d0_rejects_sqrt_part(self):
        with pytest.raises(DomainError):
            QF(1, 1, 0)

    def test_rational_parts_from_strings(self):
        assert QF("1/2", "-3", 1) == gauss(Fraction(1, 2), -3)

    def test_refused_parts_and_tags(self):
        with pytest.raises(TypeError, match="exact rational"):
            QF(1.5)
        with pytest.raises(DomainError, match="unsupported field tag d=2"):
            QF(1, 0, 2)


class TestIntegrality:
    def test_half_integers_d3(self):
        assert eis(Fraction(1, 2), Fraction(1, 2)).is_integral()
        assert not eis(Fraction(1, 2), Fraction(1, 3)).is_integral()
        assert not eis(Fraction(1, 2), 0).is_integral()
        assert eis(2, 1).is_integral()

    def test_half_integers_not_allowed_d1(self):
        assert not gauss(Fraction(1, 2), Fraction(1, 2)).is_integral()
        assert gauss(4, -7).is_integral()

    def test_basis_pair_roundtrip(self):
        x = eis(Fraction(5, 2), Fraction(-3, 2))
        u, v = x.basis_pair()
        assert QF.from_basis_pair(u, v, 3) == x


class TestEuclidean:
    def test_rounding_hexagonal(self):
        # the quotient of den*x by den rounds x to Z[omega]; the covering
        # radius of the hexagonal lattice is below 1 in the norm
        x = eis(Fraction(2, 5), Fraction(1, 5))
        (p,), den = cleared_pairs([x])
        q, _ = pair_divmod(p, (den, 0), omega_flag(3))
        assert (x - QF.from_basis_pair(*q, 3)).norm() < 1

    def test_divmod_example(self):
        q, r = divmod_elements(gauss(7, 1), gauss(2, 1))
        assert q * gauss(2, 1) + r == gauss(7, 1)
        assert r.norm() < gauss(2, 1).norm()

    def test_gcd_gaussian_two(self):
        # 2 = -i (1+i)^2, so gcd(1+i, 2) is 1+i up to units; the canonical
        # associate has argument in [0, pi/2)
        g = integral_gcd(gauss(1, 1), gauss(2, 0))
        assert g == gauss(1, 1)

    def test_gcd_plain_integers(self):
        assert integral_gcd(QF(12), QF(-18)) == QF(6)

    def test_gcd_with_zero(self):
        assert integral_gcd(QF(0, 0, 1), gauss(0, 3)) == gauss(3, 0)

    def test_gcd_zero_zero(self):
        with pytest.raises(DomainError):
            integral_gcd(QF(0), QF(0))

    def test_gcd_rejects_mixed_fields(self):
        with pytest.raises(FieldMismatchError):
            integral_gcd(gauss(1, 0), eis(1, 0))

    def test_divexact_refuses_a_remainder(self):
        assert pair_divexact((6, 0), (2, 0), 0) == (3, 0)
        with pytest.raises(DomainError, match="not exact"):
            pair_divexact((1, 0), (2, 0), 0)

    def test_gcd_rejects_non_integral(self):
        with pytest.raises(DomainError):
            integral_gcd(gauss(Fraction(1, 2), 0), gauss(1, 0))

    def test_normalize_unit_examples(self):
        assert normalize_element(gauss(0, 1)) == gauss(1, 0)
        assert normalize_element(gauss(-2, 0)) == gauss(2, 0)
        # sqrt(-3) rotates by -60 degrees to (3+sqrt(-3))/2
        assert normalize_element(eis(0, 1)) == eis(Fraction(3, 2), Fraction(1, 2))
        rho = eis(Fraction(1, 2), Fraction(1, 2))
        assert normalize_element(rho) == eis(1, 0)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,d,expect",
        [
            ("3", 0, QF(3)),
            ("-1/2+1/2*w", 3, eis(Fraction(-1, 2), Fraction(1, 2))),
            ("2*w", 1, gauss(0, 2)),
            ("w", 1, gauss(0, 1)),
            ("-w", 3, eis(0, -1)),
            (" 1 - 2*w ", 1, gauss(1, -2)),
            ("0", 1, gauss(0, 0)),
        ],
    )
    def test_parse(self, text, d, expect):
        assert parse_element(text, d) == expect

    def test_parse_rejects_w_over_q(self):
        with pytest.raises(MapSpecError):
            parse_element("1+w", 0)

    def test_parse_error_position(self):
        with pytest.raises(MapSpecError) as err:
            parse_element("1+2x*w", 1)
        assert err.value.position is not None

    def test_parse_empty(self):
        with pytest.raises(MapSpecError):
            parse_element("   ", 1)

    @pytest.mark.parametrize("text,d,error,message", [
        ("1", 2, DomainError, "unsupported field tag d=2"),
        ("1+", 0, MapSpecError, "empty term"),
        ("+", 1, MapSpecError, "empty term"),
        ("2w", 1, MapSpecError, "malformed term '2w'"),
    ])
    def test_parse_refuses(self, text, d, error, message):
        with pytest.raises(error, match=message):
            parse_element(text, d)

    @pytest.mark.parametrize(
        "x",
        [
            QF(Fraction(-5, 3)),
            gauss(Fraction(1, 2), Fraction(-7, 2)),
            eis(0, 1),
            eis(Fraction(3, 2), Fraction(1, 2)),
            gauss(0, -1),
            QF(0, 0, 1),
        ],
    )
    def test_format_parse_roundtrip(self, x):
        assert parse_element(format_element(x), x.d) == x


_small = st.integers(min_value=-30, max_value=30)


def _elements(d):
    if d == 3:
        return st.tuples(_small, _small).map(
            lambda uv: QF.from_basis_pair(uv[0], uv[1], 3)
        )
    return st.tuples(_small, _small).map(lambda ab: QF(ab[0], ab[1] if d else 0, d))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_norm_multiplicative(self, d, data):
        x = data.draw(_elements(d))
        y = data.draw(_elements(d))
        assert (x * y).norm() == x.norm() * y.norm()

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_conj_is_ring_map(self, d, data):
        x = data.draw(_elements(d))
        y = data.draw(_elements(d))
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_euclidean_division(self, d, data):
        x = data.draw(_elements(d))
        y = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        q, r = divmod_elements(x, y)
        assert q.is_integral()
        assert x == q * y + r
        assert r.norm() < y.norm()

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_gcd_divides_both(self, d, data):
        x = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        y = data.draw(_elements(d))
        g = integral_gcd(x, y)
        assert divmod_elements(x, g)[1].is_zero()
        if not y.is_zero():
            assert divmod_elements(y, g)[1].is_zero()

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_gcd_scales(self, d, data):
        g0 = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        x = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        y = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        lhs = integral_gcd(g0 * x, g0 * y)
        rhs = normalize_element(g0 * integral_gcd(x, y))
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1, 3]), data=st.data())
    def test_normalized_associate_unique(self, d, data):
        x = data.draw(_elements(d).filter(lambda e: not e.is_zero()))
        n = normalize_element(x)
        assert normalize_element(n) == n
        assert n.norm() == x.norm()


# ---------------------------------------------------------------------------
# Rationals without Fraction: quadfield parses and builds them on ints, and
# its public rational values stay Fractions
# ---------------------------------------------------------------------------

_P = sys.hash_info.modulus
_digits = st.text("0123456789", min_size=1, max_size=5)
# literals in Fraction's grammar and near it: signs, spaces, underscores,
# decimals and exponents, a non-ASCII digit, a superscript (no decimal
# digit), and stray characters
_literals = st.one_of(
    st.builds(
        lambda lead, sign, num, tail, trail: lead + sign + num + tail + trail,
        st.sampled_from(["", " ", "\t", "\u00a0"]),
        st.sampled_from(["", "+", "-", "--", "+-"]),
        st.one_of(_digits, st.builds("{}_{}".format, _digits, _digits),
                  st.just(""), st.just("\u0663")),
        st.one_of(
            st.just(""),
            st.builds("/{}".format, _digits),
            st.builds("{}/{}".format, st.sampled_from(["", " ", "  "]),
                      st.one_of(_digits, st.just(""), st.just("1_0"),
                                st.just(" 7"), st.just("0"))),
            st.builds("{}{}".format,
                      st.sampled_from(["", ".", "."]).flatmap(
                          lambda p: st.builds((p + "{}").format, st.one_of(
                              _digits, st.just(""), st.just("2_5"),
                              st.just("d")))),
                      st.sampled_from(["", "e", "E", "e-", "E+", "e1_0",
                                       "e+3", "e-2", "e"]).flatmap(
                          lambda e: st.builds((e + "{}").format, st.one_of(
                              st.just(""), st.text("0123", max_size=2))))),
        ),
        st.sampled_from(["", " ", "\x1c", "x", "\u00b2"]),
    ),
    st.text("0123456789+-/._eEdw \u0663", max_size=8),
)


# unsigned terms of parse_element, with no w: valid rationals and near
# misses, signed exponents among them, with spaces that parse_element
# drops; exponents stay below 1000, except where a term that ends in e
# or E takes the next term's digits as its exponent
_terms = st.one_of(
    st.builds("{}{}{}".format, _digits,
              st.sampled_from(["", "/", ".", "e", "E", "_", " / ", "e-",
                               "E+", "e+", "E-"]),
              st.text("0123456789", max_size=3)),
    st.text("0123456789/._ \u0663", min_size=1, max_size=6),
).filter(str.strip)


def fraction_reads(text):
    """(num, den) of Fraction(text), or the type of its exception."""
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return f.numerator, f.denominator


# the grammar of Fraction(str) on Python 3.12 and 3.13, which
# parse_rational reads on every supported Python: CPython's own pattern
_FRACTION_GRAMMAR = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*|\d+(_\d+)*)
    (?:(?:\s*/\s*(?P<denom>\d+(_\d+)*))?
     | (?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)


def grammar_reads(text):
    """(num, den) of text in that grammar, read from its groups as
    Fraction(text) reads them there, or the type of the exception that
    Fraction raises."""
    m = _FRACTION_GRAMMAR.match(text)
    if m is None:
        return ValueError
    num, den = int(m["num"] or "0"), 1
    if m["denom"]:
        den = int(m["denom"])
        if not den:
            return ZeroDivisionError
    if m["decimal"]:
        scale = 10 ** len(m["decimal"].replace("_", ""))
        num, den = num * scale + int(m["decimal"]), scale
    if m["exp"]:
        exp = int(m["exp"])
        if exp >= 0:
            num *= 10 ** exp
        else:
            den *= 10 ** -exp
    f = Fraction(-num if m["sign"] == "-" else num, den)
    return f.numerator, f.denominator


# the largest exponent, in magnitude, that parse_rational takes 10^k of
_EXP_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def parser_reads(text):
    """grammar_reads, but ValueError for an exponent past _EXP_CAP in
    magnitude, which parse_rational refuses where Fraction reads it."""
    m = _FRACTION_GRAMMAR.match(text)
    if m and m["exp"] and abs(int(m["exp"])) > _EXP_CAP:
        return ValueError
    return grammar_reads(text)


def int_parser_reads(text):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def format_reads(x):
    """format_element(x), or DomainError for a part too long to print."""
    try:
        return format_element(x)
    except DomainError as exc:
        return type(exc)


class TestRationalsWithoutFraction:
    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(-10**30, 10**30),
           q=st.one_of(st.integers(2, 10**6), st.integers(2, 2**400),
                       st.integers(1, 10**6).map(lambda k: k * _P)),
           d=st.sampled_from([0, 1, 3]))
    @example(p=-(_P + 3), q=3, d=0)  # |p|/q = 1 mod P: hash -1, read -2
    @example(p=-(_P + 3), q=3, d=3)
    @example(p=-1, q=_P, d=1)  # no inverse mod P: -inf's hash
    @example(p=5, q=2 * _P, d=0)
    @example(p=0, q=7, d=1)
    def test_hash_is_the_fractions_hash(self, p, q, d):
        r = Fraction(p, q)
        for x in (QF(r, 0, d), QF(f"{p}/{q}", 0, d), QF(p, 0, d) / q):
            assert x == r
            assert hash(x) == hash(r)

    def test_special_hashes_are_hit(self):
        assert hash(QF(Fraction(-(_P + 3), 3))) == -2
        assert hash(QF(Fraction(1, _P), 0, 1)) == sys.hash_info.inf
        assert hash(QF(Fraction(-1, 2 * _P), 0, 3)) == -sys.hash_info.inf

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_public_rational_values_stay_fractions(self, d):
        x = QF(Fraction(3, 4), Fraction(-5, 6) if d else 0, d)
        for value in (x.a, x.b, x.norm(), *x.basis_pair()):
            assert type(value) is Fraction
        assert x.a == Fraction(3, 4)
        assert x.b == (Fraction(-5, 6) if d else 0)
        # an integral element's basis pair stays a pair of ints
        y = QF.from_basis_pair(2, 3 if d else 0, d)
        assert all(type(c) is int for c in y.basis_pair())
        assert type(y.a) is type(y.b) is type(y.norm()) is Fraction

    @settings(max_examples=500, deadline=None)
    @given(text=_literals)
    @example(text="1_000/3")
    @example(text="1 / 2")
    @example(text=" -.5e-3 ")
    @example(text="\u0663/\u0664")
    @example(text="1/0")
    @example(text="1/")
    @example(text="1.d")
    @example(text="5.")
    @example(text="0E10000")
    def test_int_parser_reads_as_fraction(self, text):
        # one grammar on every Python; on 3.12 and 3.13 it is Fraction's,
        # but for the exponents past the cap
        assert int_parser_reads(text) == parser_reads(text)
        if sys.version_info[:2] in ((3, 12), (3, 13)):
            assert grammar_reads(text) == fraction_reads(text)

    @pytest.mark.parametrize("text, want", [
        ("1_000", (1000, 1)), ("1 / 2", (1, 2)), ("-3_0/ 4_0", (-3, 4)),
        ("1_0.2_5e1_0", (102500000000, 1)), (" +7 /\t14 ", (1, 2)),
    ])
    def test_one_grammar_on_every_python(self, text, want):
        # Python 3.10's Fraction refuses the underscores, and 3.10's and
        # 3.11's the spaces around the slash
        assert parse_rational(text) == want

    @settings(max_examples=300, deadline=None)
    @given(a=_terms, b=_terms, d=st.sampled_from([1, 3]),
           sign=st.sampled_from(["+", "-"]))
    @example(a="0e", b="0", d=1, sign="+")
    @example(a="1E", b="2", d=3, sign="-")
    @example(a="99999e", b="4299", d=1, sign="+")  # too long to print
    @example(a="0e", b="4301", d=1, sign="-")  # past the exponent cap
    def test_parse_element_reads_as_before(self, a, b, d, sign):
        # each term's rational as the fixed grammar reads it, whitespace
        # dropped first; a sign after an exponent's e or E stays in its
        # term, so where a ends in one, a, the sign and b are the one
        # rational of the w term
        text = f"{a}{sign}{b}*w"
        ra, rb = ("".join(t.split()) for t in (a, b))
        if ra[-1] in "eE":
            ra, rb, sign = "0", ra + sign + rb, "+"
        ra, rb = parser_reads(ra), parser_reads(rb)
        if isinstance(ra, type) or isinstance(rb, type):
            with pytest.raises(MapSpecError, match="bad rational"):
                parse_element(text, d)
            return
        want = QF(Fraction(*ra), (1 if sign == "+" else -1) * Fraction(*rb), d)
        got = parse_element(text, d)
        assert got == want and hash(got) == hash(want)
        assert format_reads(got) == format_reads(want)

    @settings(max_examples=300, deadline=None)
    @given(a=_literals, b=_literals, d=st.sampled_from(["0", "1", "3"]))
    def test_lambda_reads_as_before(self, a, b, d):
        text = f"{a},{b},{d}"
        ra, rb = parser_reads(a), parser_reads(b)
        if isinstance(ra, type) or isinstance(rb, type):
            with pytest.raises(MapSpecError, match="needs two rationals"):
                cli._parse_lambda(text)
        elif rb[0] and d == "0":
            with pytest.raises(MapSpecError, match="b must be 0"):
                cli._parse_lambda(text)
        else:
            assert cli._parse_lambda(text) == QF(
                Fraction(*ra), Fraction(*rb), int(d))

    def test_exponent_cap(self):
        # an exponent past Python's cap on int-string digits is refused
        # before 10^k is taken
        cap = _EXP_CAP
        assert parse_rational(f"1e+{cap}") == (10**cap, 1)
        assert parse_rational(f"-1e-{cap}") == (-1, 10**cap)
        for text in (f"1e+{cap + 1}", f"1E-{cap + 1}", "1e999999999",
                     "-1E-999999999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)
            with pytest.raises(MapSpecError, match="bad rational"):
                parse_element(f"1+{text}*w", 1)

    @pytest.mark.parametrize("text, want", [
        ("1e-5", QF(Fraction(1, 100000), 0, 1)),
        ("1E-2*w", QF(0, Fraction(1, 100), 1)),
        ("2.5e-1+w", QF(Fraction(1, 4), 1, 1)),
        ("1e+5", QF(100000, 0, 1)),
        ("-1e-3-2E+1*w", QF(Fraction(-1, 1000), -20, 1)),
    ])
    def test_signed_exponents_in_elements(self, text, want):
        # a sign after an exponent's e or E stays in its term
        assert parse_element(text, 1) == want

    @pytest.mark.parametrize("text", ["1/0", "1/", "0/0", "1/2/3"])
    def test_bad_rationals_are_map_spec_errors(self, text):
        with pytest.raises(MapSpecError, match=f"bad rational '{text}'"):
            parse_element(text, 1)
        with pytest.raises(MapSpecError, match=f"bad rational '{text}'"):
            parse_element(f"1+{text}*w", 1)

    def test_bad_lambda_is_a_usage_error(self, capsys):
        assert cli.main(["table-check", "--lambda", "1/0,1,1"]) == 2
        assert capsys.readouterr().err == (
            "error: --lambda '1/0,1,1' needs two rationals and an integer d\n")
