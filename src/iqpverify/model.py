"""IQP program and secret-key model plus the text file formats.

A program is an m-by-n GF(2) matrix whose rows name products of Pauli X
operators, one exact rational angle (a multiple of pi) per row.  A secret key
holds the verifier's hidden strings together with the correlation value
expected for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, pi

import numpy as np

from .bitlin import BitMatrix, BitVector, from01, to01
from .errors import ParseError, ValidationError

__all__ = [
    "Angle",
    "PI_OVER_8",
    "IqpProgram",
    "SecretKey",
    "bias_from_correlation",
    "seeded_rng",
    "serialize_program",
    "parse_program",
    "serialize_key",
    "parse_key",
]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Angle:
    """Exact rational multiple of pi, canonicalised into [0, 2pi).

    ``Angle(num, den)`` means (num/den) * pi.  Construction reduces the
    fraction and folds it mod 2, so equality is exact arithmetic.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ValidationError("angle denominator must be nonzero")
        num, den = (self.num, self.den) if self.den > 0 else (-self.num, -self.den)
        num %= 2 * den  # folded mod 2, then reduced
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)
        try:
            self.radians
        except OverflowError:
            raise ValidationError("angle fraction is too large for a float") from None

    @property
    def radians(self) -> float:
        return self.num * pi / self.den

    def multiple_of_pi8(self) -> int | None:
        """w such that the angle equals w*pi/8, or None if no integer works."""
        if 8 % self.den:
            return None
        return self.num * (8 // self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


PI_OVER_8 = Angle(1, 8)


@dataclass(frozen=True)
class IqpProgram:
    """An X-program: row p contributes a factor exp(i * angle_p * X-product)."""

    chi: BitMatrix
    angles: tuple[Angle, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(self.angles))
        if len(self.angles) != self.chi.num_rows:
            raise ValidationError(
                f"{self.chi.num_rows} rows but {len(self.angles)} angles"
            )
        if 0 in self.chi.ints:
            raise ValidationError(f"row {self.chi.ints.index(0)} acts on no qubit")

    @property
    def n(self) -> int:
        return self.chi.num_cols

    @property
    def m(self) -> int:
        return self.chi.num_rows

    def uniform_angle(self) -> Angle | None:
        """The shared angle if every row uses the same one, else None."""
        if not self.angles:
            return None
        first = self.angles[0]
        return first if all(a == first for a in self.angles) else None


@dataclass(frozen=True)
class SecretKey:
    """Hidden verification strings with their expected correlation values."""

    secrets: tuple[BitVector, ...]
    expected: tuple[float, ...]
    meta: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "secrets", tuple(self.secrets))
        object.__setattr__(self, "expected", tuple(float(e) for e in self.expected))
        object.__setattr__(self, "meta", tuple(self.meta))
        if not self.secrets:
            raise ValidationError("a key needs at least one secret")
        if len(self.expected) != len(self.secrets):
            raise ValidationError("one expected value per secret required")
        n = len(self.secrets[0])
        for s in self.secrets:
            if len(s) != n:
                raise ValidationError("secrets differ in length")
        if len(set(self.secrets)) != len(self.secrets):
            raise ValidationError("secrets must be pairwise distinct")
        for e in self.expected:
            if not -1.0 <= e <= 1.0:
                raise ValidationError(f"expected value {e} outside [-1, 1]")

    @property
    def n(self) -> int:
        return len(self.secrets[0])

    @property
    def count(self) -> int:
        return len(self.secrets)


def bias_from_correlation(value: float) -> float:
    """Map a correlation value in [-1, 1] to the matching probability bias.

    The bias is the probability that one output sample lands on the secret's
    orthogonal side, (1 + value) / 2.
    """
    if not -1.0 <= value <= 1.0:
        raise ValidationError(f"correlation {value} outside [-1, 1]")
    return (1.0 + value) / 2.0


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """The one generator for ``seed`` and a stream path; a negative seed is refused.

    Every seeded draw in the package starts here.  ``seeded_rng(s)`` equals
    ``default_rng(s)``: numpy reads a seed and its one-element list alike.
    """
    if seed < 0:  # numpy's seeds are non-negative
        raise ValidationError(f"seed {seed} is negative")
    return np.random.default_rng([seed, *stream])


# --------------------------------------------------------------------------
# Text formats.  Both documents are ASCII, one "<field> <value>" per line.
# Program (.iqp):   version, n, m, m row lines, m angle lines.
# Key (.iqpkey):    version, n, then secret/expected pairs, optional meta.
# --------------------------------------------------------------------------


def serialize_program(program: IqpProgram) -> str:
    lines = [
        f"version {_FORMAT_VERSION}",
        f"n {program.n}",
        f"m {program.m}",
    ]
    lines += [f"row {to01(row, program.n)}" for row in program.chi.ints]
    lines += [f"angle {angle}" for angle in program.angles]
    return "\n".join(lines) + "\n"


def serialize_key(key: SecretKey) -> str:
    lines = [
        f"version {_FORMAT_VERSION}",
        f"n {key.n}",
    ]
    for s, e in zip(key.secrets, key.expected):
        lines.append(f"secret {s.to01()}")
        lines.append(f"expected {e!r}")
    lines += [f"meta {note}" for note in key.meta]
    return "\n".join(lines) + "\n"


def _fields(text: str):
    """Yield (line_number, field, value) for non-empty lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        yield lineno, parts[0], parts[1] if len(parts) > 1 else ""


def _parse_int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {value!r}", lineno) from None


def _parse_header(fields, text_kind: str) -> tuple[int, list]:
    rest = list(fields)
    if not rest:
        raise ParseError(f"empty {text_kind} document", 1)
    lineno, name, value = rest[0]
    if name != "version":
        raise ParseError("expected 'version' first", lineno)
    if _parse_int(value, lineno, "version") != _FORMAT_VERSION:
        raise ParseError(f"unsupported version {value!r}", lineno)
    if len(rest) < 2 or rest[1][1] != "n":
        raise ParseError("expected 'n' after version", rest[1][0] if len(rest) > 1 else lineno)
    n = _parse_int(rest[1][2], rest[1][0], "n")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}", rest[1][0])
    return n, rest[2:]


def parse_program(text: str) -> IqpProgram:
    """Parse the .iqp format; errors carry the offending line number."""
    n, rest = _parse_header(_fields(text), "program")
    if not rest or rest[0][1] != "m":
        raise ParseError("expected 'm' after n", rest[0][0] if rest else 1)
    m = _parse_int(rest[0][2], rest[0][0], "m")
    if m < 0:
        raise ParseError(f"m must be non-negative, got {m}", rest[0][0])
    body = rest[1:]
    if len(body) != 2 * m:
        raise ParseError(
            f"expected {m} row lines and {m} angle lines, found {len(body)} field lines",
            body[-1][0] if body else rest[0][0],
        )
    rows: list[int] = []
    for lineno, name, value in body[:m]:
        if name != "row":
            raise ParseError(f"expected 'row', found {name!r}", lineno)
        try:
            row = from01(value)
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
        if len(value) != n:
            raise ParseError(f"row has {len(value)} bits, expected {n}", lineno)
        if not row:
            raise ParseError("row acts on no qubit", lineno)
        rows.append(row)
    angles: list[Angle] = []
    for lineno, name, value in body[m:]:
        if name != "angle":
            raise ParseError(f"expected 'angle', found {name!r}", lineno)
        num_s, sep, den_s = value.partition("/")
        if not sep:
            raise ParseError(f"angle must be '<num>/<den>', got {value!r}", lineno)
        num = _parse_int(num_s, lineno, "angle numerator")
        den = _parse_int(den_s, lineno, "angle denominator")
        if den <= 0:
            raise ParseError(f"angle denominator must be positive, got {den}", lineno)
        try:
            angles.append(Angle(num, den))
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
    return IqpProgram(BitMatrix.from_ints(rows, n), tuple(angles))


def parse_key(text: str) -> SecretKey:
    """Parse the .iqpkey format; errors carry the offending line number."""
    n, rest = _parse_header(_fields(text), "key")
    secrets: list[BitVector] = []
    expected: list[float] = []
    meta: list[str] = []
    pending_secret: BitVector | None = None
    for lineno, name, value in rest:
        if name == "secret":
            if pending_secret is not None:
                raise ParseError("secret without a following expected value", lineno)
            try:
                s = BitVector.from_string(value)
            except ValidationError as exc:
                raise ParseError(str(exc), lineno) from None
            if len(s) != n:
                raise ParseError(f"secret has {len(s)} bits, expected {n}", lineno)
            pending_secret = s
        elif name == "expected":
            if pending_secret is None:
                raise ParseError("expected value without a preceding secret", lineno)
            try:
                e = float(value)
            except ValueError:
                raise ParseError(f"expected value is not a number: {value!r}", lineno) from None
            secrets.append(pending_secret)
            expected.append(e)
            pending_secret = None
        elif name == "meta":
            meta.append(value)
        else:
            raise ParseError(f"unknown field {name!r}", lineno)
    if pending_secret is not None:
        raise ParseError("secret without a following expected value", len(text.splitlines()))
    try:
        return SecretKey(tuple(secrets), tuple(expected), tuple(meta))
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
