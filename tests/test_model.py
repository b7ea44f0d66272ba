"""Angles, programs, keys and their text formats."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqpverify.bitlin import BitMatrix, BitVector
from iqpverify.errors import ParseError, ValidationError
from iqpverify.model import (
    PI_OVER_8,
    Angle,
    IqpProgram,
    SecretKey,
    bias_from_correlation,
    parse_key,
    parse_program,
    serialize_key,
    serialize_program,
)


def two_row_program():
    return IqpProgram(
        BitMatrix.from_strings(["1100", "0101"]), (PI_OVER_8, PI_OVER_8)
    )


class TestAngle:
    def test_canonical_form(self):
        assert Angle(2, 16) == Angle(1, 8)
        assert Angle(-1, 8) == Angle(15, 8)  # reduced modulo 2*pi
        assert Angle(4, 2) == Angle(0, 1)
        assert Angle(0, 7) == Angle(0, 1)
        assert Angle(1, -8) == Angle(15, 8)  # the sign moves to the numerator

    def test_radians(self):
        assert Angle(1, 8).radians == pytest.approx(math.pi / 8)
        assert Angle(3, 2).radians == pytest.approx(3 * math.pi / 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            Angle(1, 0)

    def test_fraction_past_float_range_rejected(self):
        with pytest.raises(ValidationError, match="too large for a float"):
            Angle(10**400, 10**400 + 1)
        assert Angle(10**300, 10**300 + 1).radians == pytest.approx(math.pi)

    def test_multiple_of_pi8(self):
        assert Angle(1, 8).multiple_of_pi8() == 1
        assert Angle(1, 4).multiple_of_pi8() == 2
        assert Angle(3, 2).multiple_of_pi8() == 12
        assert Angle(1, 3).multiple_of_pi8() is None
        assert Angle(1, 16).multiple_of_pi8() is None

    def test_str(self):
        assert str(Angle(1, 8)) == "1/8"
        assert str(Angle(0, 1)) == "0/1"

    @given(st.integers(-64, 64), st.integers(1, 32))
    def test_canonicalization_preserves_radian_value_mod_2pi(self, num, den):
        a = Angle(num, den)
        expected = (num / den) % 2.0
        assert a.num / a.den == pytest.approx(expected)
        assert 0 <= a.num / a.den < 2

    @given(st.integers(-(2**100), 2**100), st.integers(-(2**100), 2**100).filter(bool))
    def test_canonical_form_is_the_folded_fraction(self, num, den):
        folded = Fraction(num % (2 * den), den)  # folded mod 2, then reduced
        a = Angle(num, den)
        assert (a.num, a.den) == (folded.numerator, folded.denominator)

    @given(st.integers(-64, 64), st.integers(1, 32))
    def test_equal_angles_hash_equal(self, num, den):
        assert hash(Angle(num, den)) == hash(Angle(num + 2 * den, den))


class TestProgram:
    def test_shape_and_accessors(self):
        p = two_row_program()
        assert p.n == 4 and p.m == 2
        assert p.chi.rows[0] == BitVector.from_string("1100")
        assert p.uniform_angle() == PI_OVER_8

    def test_mixed_angles_have_no_uniform_angle(self):
        p = IqpProgram(
            BitMatrix.from_strings(["10", "01"]), (Angle(1, 8), Angle(1, 4))
        )
        assert p.uniform_angle() is None

    @pytest.mark.parametrize(
        "rows, angles, shared",
        [
            (["1100", "0110", "0011"], (Angle(1, 3),) * 3, Angle(1, 3)),  # not a multiple of pi/8
            ([], (), None),  # no rows, no shared angle
        ],
    )
    def test_uniform_angle(self, rows, angles, shared):
        p = IqpProgram(BitMatrix([BitVector.from_string(r) for r in rows], cols=4), angles)
        assert p.uniform_angle() == shared

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError):
            IqpProgram(BitMatrix.from_strings(["00", "11"]), (PI_OVER_8,) * 2)

    def test_angle_count_must_match(self):
        with pytest.raises(ValidationError):
            IqpProgram(BitMatrix.from_strings(["11"]), (PI_OVER_8, PI_OVER_8))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_zero_row_from_ints_names_its_index(self, n):
        for i in range(3):
            rows = [(1 << n) - 1] * 4
            rows[i] = rows[3] = 0  # the first zero row is named
            with pytest.raises(ValidationError, match=f"^row {i} acts on no qubit$"):
                IqpProgram(BitMatrix.from_ints(rows, n), (PI_OVER_8,) * 4)


class TestBias:
    def test_quoted_benchmark_value(self):
        assert bias_from_correlation(2**-0.5) == pytest.approx(0.8536, abs=1e-4)

    def test_extremes(self):
        assert bias_from_correlation(1.0) == 1.0
        assert bias_from_correlation(-1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            bias_from_correlation(1.5)


class TestProgramFormat:
    def test_round_trip(self):
        p = two_row_program()
        assert parse_program(serialize_program(p)) == p

    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(1, (1 << n) - 1),
                    st.integers(-16, 16),
                    st.integers(1, 16),
                ),
                min_size=1,
                max_size=6,
            ).map(
                lambda rows: IqpProgram(
                    BitMatrix([BitVector(n, b) for b, _, _ in rows], cols=n),
                    tuple(Angle(num, den) for _, num, den in rows),
                )
            )
        )
    )
    def test_round_trip_random(self, program):
        assert parse_program(serialize_program(program)) == program

    def test_error_lines_are_reported(self):
        good = serialize_program(two_row_program())
        lines = good.splitlines()
        # corrupt the first row line
        idx = next(i for i, l in enumerate(lines) if l.startswith("row"))
        bad = "\n".join(lines[:idx] + ["row 11x0"] + lines[idx + 1 :])
        with pytest.raises(ParseError) as err:
            parse_program(bad)
        assert f"line {idx + 1}" in str(err.value)

    def test_missing_version(self):
        with pytest.raises(ParseError):
            parse_program("n 2\nm 1\nrow 11\nangle 1/8\n")

    def test_wrong_row_width(self):
        with pytest.raises(ParseError):
            parse_program("version 1\nn 3\nm 1\nrow 11\nangle 1/8\n")

    def test_zero_row_rejected_at_parse(self):
        with pytest.raises(ParseError):
            parse_program("version 1\nn 2\nm 1\nrow 00\nangle 1/8\n")

    def test_bad_angle(self):
        with pytest.raises(ParseError):
            parse_program("version 1\nn 2\nm 1\nrow 10\nangle 1|8\n")
        with pytest.raises(ParseError):
            parse_program("version 1\nn 2\nm 1\nrow 10\nangle 1/0\n")
        huge = f"angle {10**400}/{10**400 + 1}"
        with pytest.raises(ParseError, match="too large for a float") as err:
            parse_program(f"version 1\nn 2\nm 2\nrow 10\nrow 01\nangle 1/8\n{huge}\n")
        assert err.value.line == 7


class TestKeyFormat:
    def test_round_trip_with_meta(self):
        key = SecretKey(
            (BitVector.from_string("1100"), BitVector.from_string("0011")),
            (0.7071067811865476, -0.5),
            ("first window", "second window"),
        )
        back = parse_key(serialize_key(key))
        assert back == key
        assert back.expected[0] == key.expected[0]  # exact float round-trip

    def test_distinct_secrets_required(self):
        v = BitVector.from_string("11")
        with pytest.raises(ValidationError):
            SecretKey((v, v), (0.5, 0.5))

    def test_expected_range_checked(self):
        with pytest.raises(ValidationError):
            SecretKey((BitVector.from_string("11"),), (1.5,))

    def test_pairing_enforced_in_file(self):
        text = "version 1\nn 2\nsecret 11\nsecret 10\nexpected 0.5\n"
        with pytest.raises(ParseError):
            parse_key(text)

    def test_unknown_field(self):
        with pytest.raises(ParseError) as err:
            parse_key("version 1\nn 2\nsecret 11\nexpected 0.5\nbogus 3\n")
        assert "line 5" in str(err.value)


H = "version 1\nn 2\n"  # a valid header: the body starts on line 3

# (parser, text, line the error names, message): every refusal of the header,
# the program body and the key body that the format tests above do not reach
PARSE_REFUSALS = [
    (parse_program, "", 1, "empty program document"),
    (parse_key, "\n\n", 1, "empty key document"),
    (parse_program, "version x\n", 1, "version is not an integer: 'x'"),
    (parse_key, "version 2\nn 2\n", 1, "unsupported version '2'"),
    (parse_program, "version 1\n", 1, "expected 'n' after version"),
    (parse_key, "version 1\n\nm 2\n", 3, "expected 'n' after version"),
    (parse_program, "version 1\nn 0\n", 2, "n must be positive, got 0"),
    (parse_program, H, 1, "expected 'm' after n"),
    (parse_program, H + "row 11\n", 3, "expected 'm' after n"),
    (parse_program, H + "m -1\n", 3, "m must be non-negative, got -1"),
    (parse_program, H + "m 0\nrow 11\n", 4, "expected 0 row lines and 0 angle lines, found 1 field lines"),
    (parse_program, H + "m 1\n", 3, "expected 1 row lines and 1 angle lines, found 0 field lines"),
    (parse_program, H + "m 1\nangle 1/8\nrow 11\n", 4, "expected 'row', found 'angle'"),
    (parse_program, H + "m 1\nrow 11\nrow 10\n", 5, "expected 'angle', found 'row'"),
    (parse_key, H + "secret 1x\n", 3, "invalid bit character 'x' in '1x'"),
    (parse_key, H + "secret 110\nexpected 0.5\n", 3, "secret has 3 bits, expected 2"),
    (parse_key, H + "expected 0.5\n", 3, "expected value without a preceding secret"),
    (parse_key, H + "secret 11\nexpected half\n", 4, "expected value is not a number: 'half'"),
    (parse_key, H + "secret 11\nexpected 0.5\nsecret 10\n", 5, "secret without a following expected value"),
    (parse_key, H + "meta only a note\n", None, "a key needs at least one secret"),
]


@pytest.mark.parametrize("parser, text, line, message", PARSE_REFUSALS)
def test_parse_refusal_names_its_line(parser, text, line, message):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
