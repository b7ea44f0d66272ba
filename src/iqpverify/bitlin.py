"""Packed GF(2) linear algebra: bit vectors, bit matrices, spans, transforms.

Vectors are stored as Python ints (bit i of the int is coordinate i), so a
dot product is one AND plus one popcount.  String form puts coordinate 0
leftmost, matching the qubit-1-leftmost convention used in program files.

A batch of T n-bit strings (samples, Monte-Carlo points) is one uint64 array
of shape T x ceil(n/64) in the same bit order: coordinate i sits at bit
i % 64 of word i // 64.  Only this module knows that layout: pack_ints and
row_ints bridge ints and batches, and random_rows and random_bit_rows draw them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ValidationError

__all__ = [
    "BitVector",
    "BitMatrix",
    "from01",
    "to01",
    "dot",
    "echelon",
    "pivot_mask",
    "gather_bits",
    "scatter_bits",
    "rank",
    "nullspace_basis",
    "span_weights",
    "walsh_hadamard",
    "words_per_row",
    "pack_ints",
    "row_ints",
    "transpose_ints",
    "pack_rows",
    "pack_bits",
    "unpack_bits",
    "row_parities",
    "random_rows",
    "random_bit_rows",
    "xor_tables",
    "combine_rows",
]

def _check_fits(bits: int, length: int) -> None:
    if bits < 0 or bits >> length:
        raise ValidationError(f"bits 0x{bits:x} do not fit in {length} coordinates")


def from01(text: str) -> int:
    """The int of '0'/'1' text, coordinate 0 leftmost: the inverse of :func:`to01`."""
    bad = text.strip("01")  # starts at the first character that is not a bit
    if bad:
        raise ValidationError(f"invalid bit character {bad[0]!r} in {text!r}")
    return int(text[::-1] or "0", 2)


def to01(bits: int, length: int) -> str:
    """The ``length``-bit int as '0'/'1' text, coordinate 0 leftmost."""
    return bin(bits | 1 << length)[:2:-1]  # reversed, less the marker bit


class BitVector:
    """Immutable GF(2) vector of fixed length."""

    __slots__ = ("_length", "_bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 0:
            raise DimensionError("vector length must be non-negative")
        _check_fits(bits, length)
        self._length = length
        self._bits = bits

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse '1100' (leftmost character is coordinate 0)."""
        return cls(len(text), from01(text))

    @property
    def bits(self) -> int:
        return self._bits

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and other._length == self._length
            and other._bits == self._bits
        )

    def __hash__(self) -> int:
        return hash((self._length, self._bits))

    def to01(self) -> str:
        return to01(self._bits, self._length)

    def __repr__(self) -> str:
        return f"BitVector('{self.to01()}')"


def dot(u: BitVector, v: BitVector) -> int:
    """GF(2) inner product: parity of the AND of the two bit sets."""
    if len(u) != len(v):
        raise DimensionError(f"dot of lengths {len(u)} and {len(v)}")
    return (u.bits & v.bits).bit_count() & 1


class BitMatrix:
    """Immutable m-by-n GF(2) matrix stored as a tuple of row ints.

    Bit j of row int i is entry (i, j), as in :class:`BitVector`; ``ints``
    is that tuple.  ``rows`` builds BitVectors on each read.
    """

    __slots__ = ("_ints", "_cols")

    def __init__(self, rows: Iterable[BitVector], cols: int | None = None):
        rows = tuple(rows)
        if cols is None:
            if not rows:
                raise DimensionError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        if cols < 1:
            raise DimensionError("matrix must have at least one column")
        for r in rows:
            if len(r) != cols:
                raise DimensionError(f"row of length {len(r)} in matrix with {cols} columns")
        self._ints = tuple(r.bits for r in rows)
        self._cols = cols

    @classmethod
    def from_ints(cls, rows: Iterable[int], cols: int) -> BitMatrix:
        """The matrix of ``cols``-bit row ints, checked as :class:`BitVector` checks its bits."""
        matrix = cls((), cols)  # refuses cols < 1
        matrix._ints = tuple(rows)
        for bits in matrix._ints:
            _check_fits(bits, cols)
        return matrix

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> BitMatrix:
        return cls([BitVector.from_string(r) for r in rows])

    @property
    def ints(self) -> tuple[int, ...]:
        return self._ints

    @property
    def num_rows(self) -> int:
        return len(self._ints)

    @property
    def num_cols(self) -> int:
        return self._cols

    @property
    def rows(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(self._cols, r) for r in self._ints)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and other._cols == self._cols
            and other._ints == self._ints
        )

    def __hash__(self) -> int:
        return hash((self._ints, self._cols))

    def __repr__(self) -> str:
        body = ", ".join(f"'{to01(r, self._cols)}'" for r in self._ints)
        return f"BitMatrix([{body}], cols={self._cols})"


def _forward(rows: Iterable[int]) -> dict[int, int]:
    """One forward elimination pass over GF(2): {pivot bit (as 1 << p): row}, unsorted.

    Each kept row's pivot is its lowest set bit, and no two rows share one; a
    row is reduced only until its lowest bit is new, so it may still hold
    higher pivots.  Rows with distinct lowest bits are independent, so the
    pivots are the lowest bits of the row space's nonzero vectors, and
    :func:`echelon` has the same ones.
    """
    pivots: dict[int, int] = {}
    for work in rows:
        while work:  # clear the lowest bit while it is a pivot; else it is a new one
            low = work & -work
            row = pivots.get(low)
            if row is None:
                pivots[low] = work
                break
            work ^= row
    return pivots


def pivot_mask(rows: Iterable[int]) -> int:
    """The pivot bits of the rows' echelon form, as one int, from one forward pass."""
    return sum(_forward(rows))  # distinct bits: the sum is their OR


def _blocks(mask: int) -> list[tuple[int, int]]:
    """(block, shift) per run of set bits of ``mask``: shift counts the clear bits below it."""
    blocks, rest = [], mask
    while rest:
        block = rest & ~(rest + (rest & -rest))  # the carry of rest + low clears the lowest run
        rest ^= block
        blocks.append((block, (~mask & (block & -block) - 1).bit_count()))
    return blocks


def gather_bits(values: Iterable[int], mask: int) -> list[int]:
    """Each value's bits at the set bits of ``mask``, packed: bit k is its bit at mask's k-th."""
    blocks = _blocks(mask)
    return [sum((v & block) >> shift for block, shift in blocks) for v in values]


def scatter_bits(values: Iterable[int], mask: int) -> list[int]:
    """Inverse of :func:`gather_bits`: bit k of each value moves to mask's k-th set bit."""
    blocks = _blocks(mask)
    return [sum(v << shift & block for block, shift in blocks) for v in values]


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form over GF(2) of packed row ints, as {pivot: row}, sorted.

    Each row's pivot is its lowest set bit, and that bit is clear in every
    other row, so a full-rank square matrix reduces to the identity.  The
    :func:`_forward` rows are back-substituted from the highest pivot down, so
    each one is cleared of the higher pivots by rows that hold no other pivot.
    """
    forward = _forward(rows)
    reduced: dict[int, int] = {}  # pivot bit -> row, highest pivot first
    mask = 0  # the pivot bits reduced so far
    for low in sorted(forward, reverse=True):
        work = forward[low]
        hit = work & mask
        while hit:
            bit = hit & -hit
            work ^= reduced[bit]
            hit ^= bit
        reduced[low] = work
        mask |= low
    return {bit.bit_length() - 1: row for bit, row in reversed(reduced.items())}


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2): the number of :func:`pivot_mask` bits."""
    return pivot_mask(matrix.ints).bit_count()


def nullspace_basis(matrix: BitMatrix) -> list[BitVector]:
    """Basis of {v : row . v = 0 for every row}, as length-n vectors.

    Per free column f, in increasing f: e_f plus the pivots whose rows hold f.
    """
    n = matrix.num_cols
    pivots = echelon(matrix.ints)
    return [
        BitVector(n, (1 << f) | sum(1 << p for p, row in pivots.items() if (row >> f) & 1))
        for f in range(n)
        if f not in pivots
    ]


_CHUNK = 16  # doubling table size; offsets iterate over the remaining dims
_UNIFORM_DRAW = 1 << 16  # table entries per rng call in random_bit_rows


def span_weights(basis: Sequence[int], length: int) -> np.ndarray:
    """Hamming weights of all 2**d span elements of d ``length``-bit basis ints.

    The order is unspecified.  The span is built as word-packed numpy columns
    in chunks of 2**16 and popcounted in bulk.  It holds 2**d int64s, so the
    caller caps d.
    """
    d = len(basis)
    base_d = min(d, _CHUNK)
    table = np.zeros((1 << base_d, words_per_row(length)), dtype=np.uint64)
    for k, v in enumerate(basis[:base_d]):
        table[1 << k : 2 << k] = table[: 1 << k] ^ pack_ints([v], length)

    out = np.empty(1 << d, dtype=np.int64)
    rest = basis[base_d:]
    offset_bits = 0
    for k in range(1 << len(rest)):
        if k:  # Gray code: offset k differs from k-1 in basis vector ctz(k)
            offset_bits ^= rest[(k & -k).bit_length() - 1]
        chunk = np.bitwise_count(table ^ pack_ints([offset_bits], length))
        out[k << base_d : (k + 1) << base_d] = chunk.sum(axis=1, dtype=np.int64)
    return out


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform g[s] = sum_x f[x] * (-1)^(s.x) along the last axis.

    Accepts any real or complex array whose last axis has power-of-two length;
    leading axes are a stack of independent transforms, each row bitwise the
    one-row result.  Applying it twice multiplies the input by the length.
    Constant-geometry radix-2 passes alternate between a copy and a second
    buffer: y[i], y[i + N/2] = x[2i] +- x[2i+1].  Pass k thus adds the entries
    that differ in bit k of the original index in the radix-2 butterfly's
    order, and its sign ends in bit k: bitwise the same result.  A stack runs
    the passes over its rows as one flat array, which leaves the result with
    the row index below the entry index; one copy into the free buffer puts
    the rows back in order.
    """
    a = np.array(values, copy=True, order="C")
    if a.ndim == 0:
        raise DimensionError("walsh_hadamard expects an array with at least one axis")
    size = a.shape[-1]
    if size == 0 or size & (size - 1):
        raise DimensionError(f"length {size} is not a power of two")
    b = np.empty_like(a)
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    half = a.size // 2
    views = (
        (flat_a[0::2], flat_a[1::2], flat_b[:half], flat_b[half:]),
        (flat_b[0::2], flat_b[1::2], flat_a[:half], flat_a[half:]),
    )
    passes = size.bit_length() - 1
    for k in range(passes):
        even, odd, top, bottom = views[k & 1]
        np.add(even, odd, out=top)
        np.subtract(even, odd, out=bottom)
    out, free = (b, a) if passes & 1 else (a, b)
    if out.size == size:
        return out
    free.reshape(-1, size)[...] = out.reshape(size, -1).T
    return free


def words_per_row(n: int) -> int:
    """Words in one packed row of n bits."""
    return (n + 63) // 64


def pack_ints(values: Sequence[int], n: int) -> np.ndarray:
    """Pack n-bit ints (bit i is coordinate i) into a batch, one row per int.

    A negative int, or one past the row's ceil(n/64) words, raises OverflowError.
    """
    if words_per_row(n) == 1:  # one numpy conversion, no bytes per row
        return np.array(values, dtype=np.uint64).reshape(len(values), 1)
    data = b"".join(v.to_bytes(8 * words_per_row(n), "little") for v in values)
    return np.frombuffer(bytearray(data), dtype="<u8").reshape(len(values), words_per_row(n))


def row_ints(words: np.ndarray) -> list[int]:
    """Inverse of :func:`pack_ints`: the rows of a batch as ints."""
    words = np.ascontiguousarray(words, dtype="<u8")
    count, nwords = words.shape
    if nwords <= 1:  # one tolist, no bytes per row
        return words[:, 0].tolist() if nwords else [0] * count
    rows = words.view(f"V{8 * nwords}").reshape(count).tolist()  # one bytes object a row
    return [int.from_bytes(row, "little") for row in rows]


def transpose_ints(rows: Sequence[int], width: int) -> list[int]:
    """Column j of a len(rows) x width bit matrix of row ints, as an int whose bit i is row i."""
    return row_ints(pack_bits(unpack_bits(pack_ints(rows, width), width).T))


def pack_rows(rows: Sequence[str], n: int) -> np.ndarray:
    """Pack '0'/'1' strings of length n (leftmost is coordinate 0) into a batch."""
    if any(len(r) != n for r in rows):
        raise DimensionError(f"every row must have {n} characters")
    text = "".join(rows).encode("ascii", "replace")  # non-ASCII becomes '?'
    return pack_bits(np.frombuffer(text, dtype=np.uint8).reshape(len(rows), n), text=True)


def pack_bits(table: np.ndarray, text: bool = False) -> np.ndarray:
    """Pack a T x n table of 0/1, or with ``text`` of '0'/'1' bytes (column i is coordinate i)."""
    count, n = table.shape
    nwords = words_per_row(n)
    padded = np.full((count, 64 * nwords), ord("0") if text else 0, dtype=np.uint8)
    padded[:, :n] = table
    if text:  # checked; '0' off whole rows in place is far faster than off the n columns
        np.subtract(padded, ord("0"), out=padded)
        if padded.max(initial=0) > 1:  # bytes below '0' wrapped past 1 too
            raise ValidationError("rows hold characters other than '0' and '1'")
    # rows are whole words, so one flat pass packs them; axis=1 is about 2x slower
    return np.packbits(padded.reshape(-1), bitorder="little").view("<u8").reshape(count, nwords)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the batch as a T x n table of 0/1 uint8."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def row_parities(words: np.ndarray, v: BitVector) -> np.ndarray:
    """GF(2) inner product of ``v`` with every row of the batch, as 0/1."""
    if words.ndim != 2 or words.shape[1] != words_per_row(len(v)):
        raise DimensionError(f"batch of shape {words.shape} is not {len(v)} bits wide")
    columns = np.bitwise_and(words.T, pack_ints([v.bits], len(v)).T, order="C")  # reduce along T
    folded = np.bitwise_xor.reduce(columns, axis=0)
    return np.bitwise_count(folded) & 1


def random_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform n-bit rows, drawn one word column at a time, low words first."""
    out = np.empty((count, words_per_row(n)), dtype=np.uint64)
    for k in range(out.shape[1]):
        out[:, k] = rng.integers(0, 1 << min(64, n - 64 * k), size=count, dtype=np.uint64)
    return out


def random_bit_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform n-bit rows: one count x n ``rng.integers(0, 2)`` table, in row blocks."""
    batch = np.empty((count, words_per_row(n)), dtype=np.uint64)
    rows = max(1, _UNIFORM_DRAW // max(n, 1))
    for start in range(0, count, rows):
        block = min(rows, count - start)
        for col in range(0, n, _UNIFORM_DRAW):  # a row wider than a draw, in chunks of whole words
            bits = rng.integers(0, 2, size=(block, min(_UNIFORM_DRAW, n - col)))
            batch[start : start + block, col // 64 : (col + _UNIFORM_DRAW) // 64] = pack_bits(bits)
    return batch


def xor_tables(basis: Sequence[int], n: int) -> np.ndarray:
    """:func:`combine_rows`' lookups: entry k of table g XORs the basis ints 8g + (bits of k)."""
    words = pack_ints(list(basis) + [0] * (-len(basis) % 8), n)  # whole groups
    tables = np.zeros((len(words) // 8, 256, words_per_row(n)), dtype=np.uint64)
    for j in range(8):  # vector j of every group
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ words[j::8, None]
    return tables


def combine_rows(picks: np.ndarray, tables: np.ndarray, out: np.ndarray | None = None):
    """Row t XORs the lookups that the bytes of picks[t] (1-D ints) pick: byte g in table g.

    With a basis's :func:`xor_tables` it XORs the basis ints k with bit k of
    picks[t] set.  Lookups of any dtype work; with no groups, new rows are 0.
    """
    octets = np.ascontiguousarray(picks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = np.zeros((len(picks), *tables.shape[2:]), tables.dtype) if out is None else out
    for g, table in enumerate(tables):  # np.take: about 2x faster than fancy indexing
        if g:
            out ^= np.take(table, octets[:, g], axis=0)
        else:  # group 0 overwrites out; clip: no buffer
            np.take(table, octets[:, 0], axis=0, out=out, mode="clip")
    return out
