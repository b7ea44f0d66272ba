"""Packed GF(2) linear algebra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqpverify.bitlin import (
    BitMatrix,
    BitVector,
    combine_rows,
    dot,
    echelon,
    gather_bits,
    nullspace_basis,
    pack_bits,
    pack_ints,
    pack_rows,
    pivot_mask,
    random_bit_rows,
    random_rows,
    rank,
    row_ints,
    row_parities,
    scatter_bits,
    span_weights,
    transpose_ints,
    unpack_bits,
    walsh_hadamard,
    xor_tables,
)
from iqpverify.errors import DimensionError, ValidationError

from oracles import brute_force_span, direct_walsh_hadamard, radix2_walsh_hadamard


def bitvectors(lengths=st.integers(1, 24)):
    return lengths.flatmap(
        lambda n: st.builds(
            BitVector, st.just(n), st.integers(0, (1 << n) - 1)
        )
    )


def matrices(max_n=10, max_m=8):
    def build(n):
        rows = st.lists(
            st.integers(0, (1 << n) - 1).map(lambda b: BitVector(n, b)),
            min_size=1,
            max_size=max_m,
        )
        return rows.map(lambda rs: BitMatrix(rs, cols=n))

    return st.integers(1, max_n).flatmap(build)


class TestBitVector:
    def test_from_string_leftmost_is_coordinate_zero(self):
        v = BitVector.from_string("1100")
        assert [(v.bits >> i) & 1 for i in range(4)] == [1, 1, 0, 0]
        assert v.bits == 0b0011
        assert v.to01() == "1100"

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            BitVector(-1, 0)
        with pytest.raises(ValidationError):
            BitVector(2, 4)
        with pytest.raises(ValidationError, match="'x'"):
            BitVector.from_string("10x1y")
        for text in ("1_0", " 10", "10 ", "1\u0661"):  # int() would take some of these
            with pytest.raises(ValidationError):
                BitVector.from_string(text)
        assert BitVector.from_string("") == BitVector(0)

    @given(bitvectors())
    def test_round_trip_string(self, v):
        assert BitVector.from_string(v.to01()) == v

    @given(bitvectors(st.sampled_from([0, 1, 63, 64, 65, 200])))
    def test_to01_is_per_coordinate(self, v):
        # character i is coordinate i, at every length including 0
        assert v.to01() == "".join(str((v.bits >> i) & 1) for i in range(len(v)))

    @given(st.integers(1, 20), st.data())
    def test_dot_is_bilinear(self, n, data):
        draw = st.integers(0, (1 << n) - 1)
        u = BitVector(n, data.draw(draw))
        v = BitVector(n, data.draw(draw))
        w = BitVector(n, data.draw(draw))
        u_plus_v = BitVector(n, u.bits ^ v.bits)
        assert dot(u_plus_v, w) == dot(u, w) ^ dot(v, w)
        assert dot(w, u_plus_v) == dot(w, u) ^ dot(w, v)
        assert dot(u, v) == dot(v, u)

    def test_dot_example(self):
        assert dot(BitVector.from_string("1100"), BitVector.from_string("1000")) == 1
        assert dot(BitVector.from_string("1100"), BitVector.from_string("1100")) == 0


class TestBitMatrix:
    def test_from_strings_shape(self):
        m = BitMatrix.from_strings(["1100", "0101"])
        assert (m.num_rows, m.num_cols) == (2, 4)
        assert m.rows[1] == BitVector.from_string("0101")
        assert m.ints == (0b0011, 0b1010)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_from_ints_equals_vector_build(self, n):
        rng = np.random.default_rng([n, 7])
        ints = [int.from_bytes(rng.bytes(32), "little") >> (256 - n) for _ in range(9)]
        ints[-1] = (1 << n) - 1  # top coordinate set
        vectors = [BitVector(n, r) for r in ints]
        matrix = BitMatrix.from_ints(ints, n)
        built = BitMatrix(vectors, cols=n)
        assert matrix == built and hash(matrix) == hash(built) and repr(matrix) == repr(built)
        assert matrix.ints == tuple(ints) and (matrix.num_rows, matrix.num_cols) == (9, n)
        assert BitMatrix.from_ints([], n) == BitMatrix([], cols=n)
        # rows wraps the ints, and the ints come back from it
        assert matrix.rows == tuple(vectors)
        assert BitMatrix.from_ints((r.bits for r in matrix.rows), n) == matrix

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_from_ints_refuses_what_vectors_refuse(self, n):
        for bits in (-1, 1 << n, -(1 << n)):
            with pytest.raises(ValidationError) as via_vector:
                BitMatrix([BitVector(n, 1), BitVector(n, bits)], cols=n)
            with pytest.raises(ValidationError) as via_ints:
                BitMatrix.from_ints([1, bits], n)
            assert str(via_ints.value) == str(via_vector.value)
        with pytest.raises(DimensionError) as via_vector:
            BitMatrix([BitVector(0)] * n, cols=0)
        with pytest.raises(DimensionError) as via_ints:
            BitMatrix.from_ints([0] * n, 0)
        assert str(via_ints.value) == str(via_vector.value)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            BitMatrix([BitVector(2, 1), BitVector(3, 1)], cols=2)

    def test_rank_frozen_example(self):
        assert rank(BitMatrix.from_strings(["1100", "0101"])) == 2

    @given(matrices())
    def test_rank_equals_transpose_rank(self, m):
        columns = transpose_ints(m.ints, m.num_cols)
        assert rank(m) == rank(BitMatrix.from_ints(columns, m.num_rows))

    @given(matrices())
    def test_rank_bounds(self, m):
        r = rank(m)
        assert 0 <= r <= min(m.num_rows, m.num_cols)


def column_space_basis(m):
    """A basis of the column space: the echelon form of the columns."""
    columns = transpose_ints(m.ints, m.num_cols)
    return [BitVector(m.num_rows, c) for c in echelon(columns).values()]


def rank_d_matrix(d, extra=5):
    """d columns of column rank d: an identity block over ``extra`` random rows."""
    rng = np.random.default_rng(d)
    rows = [1 << i for i in range(d)] + rng.integers(1, 1 << d, size=extra).tolist()
    return BitMatrix.from_ints(rows, d)


class TestEchelon:
    def test_frozen_example(self):
        rows = [BitVector.from_string(r).bits for r in ("0110", "1100", "1010")]
        assert echelon(rows) == {0: 0b0101, 1: 0b0110}

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_full_rank_reduces_to_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = [1 << i for i in range(n)]
        for _ in range(4 * n):  # random row additions keep full rank
            i, j = rng.integers(0, n, size=2)
            if i != j:
                rows[i] ^= rows[j]
        assert echelon(rows) == {i: 1 << i for i in range(n)}

    @given(matrices(max_n=10, max_m=8))
    def test_reduced_echelon_property(self, m):
        pivots = echelon(r.bits for r in m.rows)
        assert list(pivots) == sorted(pivots)
        assert len(pivots) == rank(m)
        for p, row in pivots.items():
            assert row & -row == 1 << p  # the pivot is the lowest set bit
            for q in pivots:
                assert (row >> q) & 1 == (q == p)  # and no other pivot is set
        # the echelon rows span exactly the row space
        assert brute_force_span([BitVector(m.num_cols, r) for r in pivots.values()]) == (
            brute_force_span(list(m.rows))
        )

    @given(matrices(max_n=130, max_m=12))
    def test_forward_pass_has_the_echelon_pivots(self, m):
        # rank and pivot_mask read one forward pass, echelon back-substitutes it
        pivots = echelon(m.ints)
        assert rank(m) == len(pivots)
        assert pivot_mask(m.ints) == sum(1 << p for p in pivots)



def per_bit_gather(value, mask):
    """Bit k is the value's bit at the k-th set bit of ``mask``, one bit at a time."""
    places = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    return sum(((value >> p) & 1) << k for k, p in enumerate(places))


def per_bit_scatter(value, mask):
    """Bit k of the value moves to the k-th set bit of ``mask``, one bit at a time."""
    places = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    return sum(((value >> k) & 1) << p for k, p in enumerate(places))


def ones(n):
    return (1 << n) - 1


# 0, all-ones at and around the word edges, runs that stop or start there, and
# single bits on both sides of them
EDGE_MASKS = [0, 1, ones(63), ones(64), ones(65), ones(130), 1 << 63, 1 << 64, 1 << 65]
EDGE_MASKS += [ones(130) ^ ones(63), ones(130) ^ ones(64), ones(65) ^ ones(63), 0b101 << 62]
EDGE_MASKS += [sum(1 << i for i in range(0, 130, 2)), ones(130) ^ (1 << 64)]
MASKS = st.one_of(
    st.sampled_from(EDGE_MASKS),
    st.integers(0, ones(130)),
    st.tuples(st.integers(0, 130), st.integers(0, 130)).map(
        lambda ab: ones(max(ab)) ^ ones(min(ab))  # one run
    ),
)


class TestGatherScatter:
    @given(MASKS, st.lists(st.integers(0, ones(131)), max_size=6))
    @settings(max_examples=300)
    def test_gather_equals_a_per_bit_loop_and_scatter_undoes_it(self, mask, values):
        got = gather_bits(values, mask)
        assert got == [per_bit_gather(v, mask) for v in values]
        assert all(g >> mask.bit_count() == 0 for g in got)
        assert scatter_bits(got, mask) == [v & mask for v in values]

    @given(MASKS, st.lists(st.integers(0, ones(131)), max_size=6))
    @settings(max_examples=300)
    def test_scatter_equals_a_per_bit_loop_and_gather_undoes_it(self, mask, values):
        coeffs = [v & ones(mask.bit_count()) for v in values]
        got = scatter_bits(coeffs, mask)
        assert got == [per_bit_scatter(c, mask) for c in coeffs]
        assert all(g & ~mask == 0 for g in got)
        assert gather_bits(got, mask) == coeffs

    @pytest.mark.parametrize("mask", EDGE_MASKS)
    def test_edge_masks(self, mask):
        rng = np.random.default_rng(mask.bit_count())
        values = [0, ones(131)] + [int.from_bytes(rng.bytes(17), "little") for _ in range(8)]
        assert gather_bits(values, mask) == [per_bit_gather(v, mask) for v in values]
        coeffs = [v & ones(mask.bit_count()) for v in values]
        assert scatter_bits(coeffs, mask) == [per_bit_scatter(c, mask) for c in coeffs]

    def test_empty_values(self):
        assert gather_bits([], ones(70)) == scatter_bits([], ones(70)) == []


class TestSpans:
    @given(matrices(max_n=8, max_m=6))
    def test_column_space_basis_spans_columns(self, m):
        basis = column_space_basis(m)
        assert len(basis) == rank(m)
        span = brute_force_span(basis)
        for col in transpose_ints(m.ints, m.num_cols):
            assert col in span

    @given(matrices(max_n=8, max_m=6))
    def test_nullspace_is_the_whole_kernel(self, m):
        basis = nullspace_basis(m)
        assert len(basis) == m.num_cols - rank(m)
        span = brute_force_span(basis)
        # every span member is annihilated by every row
        for bits in span:
            v = BitVector(m.num_cols, bits)
            assert all(dot(row, v) == 0 for row in m.rows)
        # and the kernel is no bigger
        kernel = [
            x
            for x in range(1 << m.num_cols)
            if all((x & row.bits).bit_count() % 2 == 0 for row in m.rows)
        ]
        assert len(span) == len(kernel)

    @settings(deadline=None)  # the brute-force span of 2**18 takes about 0.2 s
    @given(matrices(max_n=8, max_m=6))
    @example(rank_d_matrix(17))  # past one 2**16 chunk: the Gray-code walk over the rest
    @example(rank_d_matrix(18))
    def test_span_weights_histogram(self, m):
        basis = column_space_basis(m)
        weights = span_weights([b.bits for b in basis], length=m.num_rows)
        expect = sorted(bin(v).count("1") for v in brute_force_span(basis))
        assert sorted(weights.tolist()) == expect

    def test_span_weights_empty_basis(self):
        assert span_weights([], length=4).tolist() == [0]


class TestWalshHadamard:
    def test_frozen_small_cases(self):
        assert walsh_hadamard(np.array([1.0, 0.0])).tolist() == [1.0, 1.0]
        assert walsh_hadamard(np.array([3.0, 5.0])).tolist() == [8.0, -2.0]
        assert walsh_hadamard(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [
            10.0,
            -2.0,
            -4.0,
            0.0,
        ]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            walsh_hadamard(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("values", [np.ones((2, 3)), np.ones((4, 0)), np.array(1.0)])
    def test_rejects_0d_and_a_last_axis_not_a_power_of_two(self, values):
        with pytest.raises(DimensionError):
            walsh_hadamard(values)

    @settings(max_examples=30)
    @given(st.integers(0, 6), st.data())
    def test_matches_direct_definition(self, n, data):
        size = 1 << n
        values = np.array(
            data.draw(
                st.lists(
                    st.floats(-8, 8, allow_nan=False),
                    min_size=size,
                    max_size=size,
                )
            )
        )
        got = walsh_hadamard(values)
        idx = np.arange(size)
        for s in range(size):
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & s) & 1)
            assert got[s] == pytest.approx(float(np.dot(values, signs)), abs=1e-9)

    @pytest.mark.parametrize("n", range(13))  # odd n end on the radix-2 pass
    def test_matches_direct_definition_real_and_complex(self, n):
        rng = np.random.default_rng([17, n])
        real = rng.standard_normal(1 << n)
        for values in (real, real + 1j * rng.standard_normal(1 << n)):
            got = walsh_hadamard(values)
            assert got.dtype == values.dtype
            assert np.allclose(got, direct_walsh_hadamard(values), rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("n", range(19))
    def test_bitwise_equal_to_radix2_butterfly(self, n):
        rng = np.random.default_rng([18, n])
        real = rng.standard_normal(1 << n)
        for values in (real, np.exp(1j * real)):
            got = walsh_hadamard(values)
            assert got.tobytes() == radix2_walsh_hadamard(values).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4, 5])
    def test_input_left_unmodified(self, n):
        values = np.exp(1j * np.arange(1 << n))
        before = values.copy()
        out = walsh_hadamard(values)
        assert values.tobytes() == before.tobytes()
        assert not np.shares_memory(out, values)

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 10])
    def test_strided_and_read_only_inputs(self, n):
        backing = np.exp(1j * np.random.default_rng([19, n]).standard_normal(3 << n))
        read_only = backing[: 1 << n].copy()
        read_only.flags.writeable = False
        for values in (backing[::3], backing[::-3], backing.real[1::3], read_only):
            before = values.copy()  # contiguous
            out = walsh_hadamard(values)
            assert out.tobytes() == walsh_hadamard(before).tobytes()
            assert values.tobytes() == before.tobytes()
            assert not np.shares_memory(out, backing) and not np.shares_memory(out, read_only)

    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("count", range(1, 6))
    def test_stack_rows_bitwise_equal_to_one_row(self, n, count):
        rng = np.random.default_rng([20, n, count])
        backing = rng.standard_normal((count, 3 << n)) + 1j * rng.standard_normal((count, 3 << n))
        read_only = backing[:, : 1 << n].copy()
        read_only.flags.writeable = False
        stacks = (
            backing.real[:, : 1 << n].copy(),  # real, contiguous
            read_only,  # complex, contiguous
            backing[:, ::3],  # complex, strided rows
            backing.imag[::-1, 1::3],  # real, strided and reversed
            np.asfortranarray(backing.real[:, ::-3]),  # real, column-major
        )
        for values in stacks:
            before = values.copy()
            out = walsh_hadamard(values)
            assert out.shape == values.shape and out.dtype == values.dtype
            for row, got in zip(values, out):
                assert got.tobytes() == walsh_hadamard(row).tobytes()
            assert values.tobytes() == before.tobytes()
            assert not np.shares_memory(out, backing)

    def test_leading_axes_are_one_stack(self):
        values = np.random.default_rng(21).standard_normal((2, 3, 16))
        flat = walsh_hadamard(values.reshape(6, 16))
        assert walsh_hadamard(values).tobytes() == flat.tobytes()

    def test_peak_memory_is_two_buffers(self):
        for shape in ((1 << 16,), (4, 1 << 14)):  # one row, then a stack
            values = np.exp(1j * np.arange(1 << 16)).reshape(shape)
            tracemalloc.start()
            try:
                walsh_hadamard(values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * values.nbytes + (64 << 10), (shape, peak)

    @given(st.integers(0, 8), st.data())
    def test_self_inverse_up_to_size(self, n, data):
        size = 1 << n
        values = np.array(
            data.draw(
                st.lists(
                    st.floats(-8, 8, allow_nan=False),
                    min_size=size,
                    max_size=size,
                )
            )
        )
        back = walsh_hadamard(walsh_hadamard(values)) / size
        assert np.allclose(back, values, atol=1e-9)


BOUNDARY_WIDTHS = [1, 63, 64, 65, 128, 200]


def table_strings(table):
    return ["".join(map(str, row)) for row in table]


def random_strings(n, count, seed):
    rng = np.random.default_rng([seed, n])
    return table_strings(rng.integers(0, 2, size=(count, n)))


class TestPackedBatch:
    def test_bit_order_matches_bitvector(self):
        words = pack_rows(["100", "011"], 3)
        assert words.shape == (2, 1) and words.dtype == np.uint64
        assert words[:, 0].tolist() == [
            BitVector.from_string("100").bits,
            BitVector.from_string("011").bits,
        ]

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_round_trip(self, n):
        rows = random_strings(n, 40, 1)
        words = pack_rows(rows, n)
        assert words.shape == (40, (n + 63) // 64)
        table = unpack_bits(words, n)
        assert table.shape == (40, n) and table.dtype == np.uint8
        assert table_strings(table) == rows
        assert np.array_equal(pack_bits(table), words)
        for row, text in zip(words, rows):
            assert int.from_bytes(row.tobytes(), "little") == BitVector.from_string(text).bits

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_parities_match_dot(self, n):
        rows = random_strings(n, 60, 2)
        words = pack_rows(rows, n)
        for secret in random_strings(n, 5, 3) + ["1" * n]:
            v = BitVector.from_string(secret)
            expected = [dot(v, BitVector.from_string(x)) for x in rows]
            assert row_parities(words, v).tolist() == expected

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_random_rows_stay_below_n(self, n):
        words = random_rows(n, 500, np.random.default_rng(n))
        assert words.shape == (500, (n + 63) // 64) and words.dtype == np.uint64
        for row in words:
            assert int.from_bytes(row.tobytes(), "little") >> n == 0
        # every coordinate is drawn, the top one included
        top = (words[:, -1] >> np.uint64((n - 1) % 64)) & np.uint64(1)
        assert 0 < int(top.sum()) < 500

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    # groups: none, partial, full, two, and each side of the byte-group edges
    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 13, 16, 17])
    def test_combine_rows_xors_the_picked_vectors(self, n, k):
        rng = np.random.default_rng([n, k])
        ints = [int.from_bytes(rng.bytes(32), "little") >> (256 - n) for _ in range(k)]
        coeffs = rng.integers(0, 2, size=(50, k))
        tables = xor_tables(ints, n)
        assert tables.shape == ((k + 7) // 8, 256, (n + 63) // 64)
        for g, table in enumerate(tables):  # entries at the byte's edges, a missing vector as 0
            for entry in (0, 1, 127, 128, 255):
                want = 0
                for j in range(8):
                    want ^= ints[8 * g + j] if (entry >> j) & 1 and 8 * g + j < k else 0
                assert row_ints(table[entry : entry + 1]) == [want]
        got = combine_rows(pack_bits(coeffs), tables)
        assert got.shape == (50, (n + 63) // 64) and got.dtype == np.uint64
        for row, c in zip(got, coeffs):
            want = 0
            for b, bit in zip(ints, c):
                want ^= b if bit else 0
            assert int.from_bytes(row.tobytes(), "little") == want

    def test_combine_rows_writes_any_dtype_into_out(self):
        # byte g of each 1-D pick picks a row of lookup g; group 0 overwrites
        # whatever out held, and with no groups new rows are zeros
        rng = np.random.default_rng(11)
        tables = rng.integers(0, 256, size=(3, 256, 5), dtype=np.uint8)
        picks = rng.integers(0, 1 << 24, size=40, dtype=np.uint64)
        octets = [(picks >> np.uint64(8 * g)) & np.uint64(255) for g in range(3)]
        want = tables[0][octets[0]] ^ tables[1][octets[1]] ^ tables[2][octets[2]]
        out = np.full((40, 5), 0xAA, dtype=np.uint8)
        assert combine_rows(picks, tables, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(combine_rows(picks, tables), want)
        assert combine_rows(picks, tables[:1]).tolist() == tables[0][octets[0]].tolist()
        assert combine_rows(picks, tables[:0]).tolist() == [[0] * 5] * 40
        assert combine_rows(picks[:0], tables).shape == (0, 5)

    @pytest.mark.parametrize(
        "n, count", [(0, 3), (1, 70_000), (3, 30_000), (65, 2_000), (70_001, 2)]
    )
    def test_random_bit_rows_is_one_table_draw(self, n, count):
        # row blocks of 2**16 // n rows (an odd entry count at n = 3), and a row
        # wider than 2**16 in chunks of whole words, draw the stream of one
        # whole-table rng.integers(0, 2) call and leave the generator as it does
        rng, whole = np.random.default_rng(5), np.random.default_rng(5)
        got = random_bit_rows(n, count, rng)
        assert np.array_equal(got, pack_bits(whole.integers(0, 2, size=(count, n))))
        assert rng.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_pack_ints_round_trip(self, n):
        rng = np.random.default_rng([n, 5])
        values = [0, (1 << n) - 1, 1 << (n - 1)]
        values += [int.from_bytes(rng.bytes(32), "little") >> (256 - n) for _ in range(20)]
        words = pack_ints(values, n)
        assert words.shape == (len(values), (n + 63) // 64) and words.dtype == np.uint64
        assert row_ints(words) == values
        strings = [BitVector(n, v).to01() for v in values]
        assert np.array_equal(words, pack_rows(strings, n))
        words[0] = 1  # a fresh, writable batch
        empty = pack_ints([], n)
        assert empty.shape == (0, (n + 63) // 64) and row_ints(empty) == []

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_pack_ints_matches_bytes_reference(self, n):
        words = (n + 63) // 64
        rng = np.random.default_rng([n, 7])
        values = [(1 << n) - 1] + [
            int.from_bytes(rng.bytes(32), "little") >> (256 - n) for _ in range(40)
        ]
        data = b"".join(v.to_bytes(8 * words, "little") for v in values)
        want = np.frombuffer(data, dtype="<u8").reshape(len(values), words)
        assert np.array_equal(pack_ints(values, n), want)
        assert pack_ints(tuple(values), n).tolist() == want.tolist()
        assert row_ints(want) == values
        strided = np.repeat(want, 2, axis=0)[::2]
        assert not strided.flags.c_contiguous
        for batch in (strided, np.ascontiguousarray(want.T).T):  # and a transposed view
            assert row_ints(batch) == values
        assert pack_ints([], n).shape == (0, words) and row_ints(want[:0]) == []
        for bad in (-1, 1 << 64 * words):
            with pytest.raises(OverflowError):
                pack_ints([0, bad], n)

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_transpose_ints_matches_columns(self, n):
        rng = np.random.default_rng([n, 6])
        for m in (1, 8, 13, 65):
            rows = [int.from_bytes(rng.bytes(32), "little") >> (256 - n) for _ in range(m)]
            columns = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]
            assert transpose_ints(rows, n) == columns
            assert transpose_ints(columns, m) == rows
        assert transpose_ints([], n) == [0] * n  # no rows: every column is empty
        assert transpose_ints([0] * n, 0) == []  # zero width: no columns

    def test_random_rows_narrow_stream(self):
        # below one word the batch is exactly one rng.integers call
        a = random_rows(10, 30, np.random.default_rng(4))
        b = np.random.default_rng(4).integers(0, 1 << 10, size=30, dtype=np.uint64)
        assert a[:, 0].tolist() == b.tolist()

    @pytest.mark.parametrize("n", [64, 65, 128, 200])
    def test_random_rows_wide_stream(self, n):
        # one rng.integers call per word column, low words first
        a = random_rows(n, 30, np.random.default_rng(4))
        ref = np.random.default_rng(4)
        columns = [
            ref.integers(0, 1 << min(64, n - 64 * k), size=30, dtype=np.uint64)
            for k in range((n + 63) // 64)
        ]
        assert np.array_equal(a, np.stack(columns, axis=1))

    def test_parities_of_zero_width_rows(self):
        words = np.zeros((7, 0), dtype=np.uint64)
        assert row_parities(words, BitVector(0)).tolist() == [0] * 7

    def test_pack_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            pack_rows(["0120"], 4)
        with pytest.raises(ValidationError):
            pack_rows(["01\u00e90"], 4)
        with pytest.raises(DimensionError):
            pack_rows(["0101", "010"], 4)

    def test_parities_check_width(self):
        words = pack_rows(["1" * 70], 70)
        with pytest.raises(DimensionError):
            row_parities(words, BitVector.from_string("11"))
