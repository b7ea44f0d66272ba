"""Correlation backends against an independent dense simulator.

Frozen single-instance values (worked out by hand before the backends were
written): a lone X row at pi/8 gives 0.70710678... against the all-ones
secret; duplicating the row gives exactly zero; three disjoint X rows give
2^(-3/2); a two-row program on four qubits gives 1/sqrt(2) and 0.5 for the
two secrets used below.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpverify import evaluators
from iqpverify.bitlin import BitMatrix, BitVector, combine_rows, dot, echelon, rank, xor_tables
from iqpverify.errors import AngleError, CapacityError, DimensionError, ValidationError
from iqpverify.evaluators import (
    STATEVECTOR_CAP,
    Backend,
    DistributionTable,
    all_correlations,
    correlation_clifford,
    correlation_diagonal,
    correlation_statevector,
    correlation_subspace,
    evaluate,
    mc_sample_count,
    output_distribution,
    sample_outputs,
)
from iqpverify.keygen import (
    ConstructionSpec,
    build_challenge,
    random_nonzero_bits,
    random_program,
)
from iqpverify.model import PI_OVER_8, Angle, IqpProgram, SecretKey
from iqpverify.protocol import acceptance_threshold

from oracles import brute_force_span, dense_correlation, dense_distribution

SQRT_HALF = 2**-0.5

ALL_EXACT = [
    Backend.STATEVECTOR,
    Backend.DIAGONAL_EXACT,
    Backend.SUBSPACE,
    Backend.CLIFFORD,
]


def main_rows(program, s):
    """Indices of the rows with odd parity against s, the only rows its value depends on."""
    return tuple(i for i, row in enumerate(program.chi.rows) if dot(row, s))


def program_of(rows, angle=PI_OVER_8):
    mat = BitMatrix.from_strings(rows)
    return IqpProgram(mat, (angle,) * mat.num_rows)


def rank_above_cap_program():
    """Rows e0 and e0+ei on 30 qubits: all main against e0, main-part rank 30."""
    n = STATEVECTOR_CAP + 6
    rows = [BitVector(n, 1)] + [BitVector(n, 1 | 1 << i) for i in range(1, n)]
    program = IqpProgram(BitMatrix(rows, cols=n), (PI_OVER_8,) * n)
    e0 = BitVector(n, 1)
    assert main_rows(program, e0) == tuple(range(n))
    assert rank(program.chi) == n > STATEVECTOR_CAP
    return program


def xor_of(basis, y):
    """y . B: the xor of the basis ints selected by the bits of y."""
    out = 0
    for k, b in enumerate(basis):
        if (y >> k) & 1:
            out ^= b
    return out


def random_uniform_program(n, m, rng, dens=(1, 2, 3, 4, 6, 8)):
    rows = [BitVector(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
    den = int(rng.choice(dens))
    angle = Angle(int(rng.integers(0, 2 * den)), den)
    return IqpProgram(BitMatrix(rows, cols=n), (angle,) * m)


class TestFrozenValues:
    @pytest.mark.parametrize("backend", ALL_EXACT)
    def test_single_row(self, backend):
        value = evaluate(
            program_of(["1"]), BitVector.from_string("1"), backend
        ).value
        assert value == pytest.approx(SQRT_HALF, abs=1e-12)

    @pytest.mark.parametrize("backend", ALL_EXACT)
    def test_duplicated_row_cancels(self, backend):
        value = evaluate(
            program_of(["1", "1"]), BitVector.from_string("1"), backend
        ).value
        assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("backend", ALL_EXACT)
    def test_three_disjoint_rows(self, backend):
        value = evaluate(
            program_of(["100", "010", "001"]), BitVector.from_string("111"), backend
        ).value
        assert value == pytest.approx(2**-1.5, abs=1e-12)

    @pytest.mark.parametrize("backend", ALL_EXACT)
    def test_two_row_program(self, backend):
        program = program_of(["1100", "0110"])
        v1 = evaluate(program, BitVector.from_string("1000"), backend).value
        v2 = evaluate(program, BitVector.from_string("0100"), backend).value
        assert v1 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert v2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("backend", ALL_EXACT)
    def test_zero_secret_is_one(self, backend):
        value = evaluate(
            program_of(["11"]), BitVector.from_string("00"), backend
        ).value
        assert value == 1.0

    def test_clifford_g_levels(self):
        r = correlation_clifford(program_of(["1"]), BitVector.from_string("1"))
        assert (r.value, r.g) == (pytest.approx(SQRT_HALF), 1)
        r = correlation_clifford(
            program_of(["100", "010", "001"]), BitVector.from_string("111")
        )
        assert (r.value, r.g) == (pytest.approx(2**-1.5), 3)
        r = correlation_clifford(program_of(["1", "1"]), BitVector.from_string("1"))
        assert r.value == 0.0 and r.g is None

    def test_quarter_angle_distribution(self):
        # e^{i pi/4 X}|0> measures uniformly
        table = output_distribution(program_of(["1"], angle=Angle(1, 4)))
        assert table.probs.tolist() == pytest.approx([0.5, 0.5])


class TestAgainstDenseOracle:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_distribution_matches(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rows = [BitVector(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
        angles = tuple(
            Angle(int(rng.integers(0, 32)), int(rng.integers(1, 16)))
            for _ in range(m)
        )
        program = IqpProgram(BitMatrix(rows, cols=n), angles)
        got = output_distribution(program).probs
        assert np.allclose(got, dense_distribution(program), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_statevector_correlation_matches(self, n, m, seed):
        rng = np.random.default_rng(seed)
        program = random_uniform_program(n, m, rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        got = correlation_statevector(program, s).value
        assert got == pytest.approx(dense_correlation(program, s), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_statevector_is_diagonal_average(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rows = [BitVector(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
        angles = tuple(
            Angle(int(rng.integers(0, 32)), int(rng.integers(1, 16)))
            for _ in range(m)
        )
        program = IqpProgram(BitMatrix(rows, cols=n), angles)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        sv = correlation_statevector(program, s)
        diag = correlation_diagonal(program, s)
        assert sv.value == diag.value  # bitwise: one average of one phase table
        main = BitMatrix([rows[i] for i in main_rows(program, s)], cols=n)
        assert sv.reduced_dim == diag.reduced_dim == rank(main)
        assert (sv.backend, diag.backend) == (Backend.STATEVECTOR, Backend.DIAGONAL_EXACT)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_all_correlations_match_per_secret(self, n, m, seed):
        rng = np.random.default_rng(seed)
        program = random_uniform_program(n, m, rng)
        table = all_correlations(program)
        for bits in range(1 << n):
            want = dense_correlation(program, BitVector(n, bits))
            assert table[bits] == pytest.approx(want, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_diagonal_exact_matches(self, n, m, seed):
        rng = np.random.default_rng(seed)
        program = random_uniform_program(n, m, rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        got = correlation_diagonal(program, s).value
        assert got == pytest.approx(dense_correlation(program, s), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_subspace_matches(self, n, m, seed):
        rng = np.random.default_rng(seed)
        program = random_uniform_program(n, m, rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        got = correlation_subspace(program, s).value
        assert got == pytest.approx(dense_correlation(program, s), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_clifford_matches_at_pi8_multiples(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rows = [BitVector(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
        angles = tuple(Angle(int(rng.integers(0, 16)), 8) for _ in range(m))
        program = IqpProgram(BitMatrix(rows, cols=n), angles)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        got = correlation_clifford(program, s)
        want = dense_correlation(program, s)
        assert got.value == pytest.approx(want, abs=1e-10)
        if got.g is not None:
            assert abs(got.value) == pytest.approx(2.0 ** (-got.g / 2), abs=1e-15)

    def test_subspace_matches_exact_diagonal_past_one_chunk(self):
        # main-part rank 17: the span of 2**17 is walked in two 2**16 chunks,
        # at a shared angle the Z4 sum cannot take; three even rows stay out
        n, rng = 17, np.random.default_rng(17)
        draws = rng.integers(1, 1 << n, size=200).tolist()
        odd, even = ([b for b in draws if b.bit_count() & 1 == p] for p in (1, 0))
        rows = odd[:23] + even[:3]
        program = IqpProgram(BitMatrix.from_ints(rows, n), (Angle(1, 24),) * len(rows))
        s = BitVector(n, (1 << n) - 1)
        got, want = correlation_subspace(program, s), correlation_diagonal(program, s)
        assert got.reduced_dim == want.reduced_dim == 17
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert abs(want.value) > 0.1

    def test_wide_low_rank_challenge(self):
        # n=200 but rank 12: every exact backend simulates 12 qubits
        program, key = build_challenge(
            ConstructionSpec(n=200, secrets=4, weight=3, seed=5)
        )
        assert rank(program.chi) == 12
        for s, expected in zip(key.secrets, key.expected):
            main = BitMatrix.from_ints(
                [program.chi.ints[i] for i in main_rows(program, s)], 200
            )
            for backend in ALL_EXACT:
                result = evaluate(program, s, backend)
                assert result.value == pytest.approx(expected, abs=1e-12), backend
                # only the main part is simulated: its rank, at most the window weight
                assert result.reduced_dim == rank(main) <= 3, backend

    def test_one_main_row_among_many(self):
        # 40 independent rows, only e0 main against e0: one simulated qubit,
        # while sampling the whole program stays refused at rank 40
        n = 40
        program = IqpProgram(
            BitMatrix([BitVector(n, 1 << i) for i in range(n)], cols=n),
            (PI_OVER_8,) * n,
        )
        e0 = BitVector(n, 1)
        for backend in ALL_EXACT:
            result = evaluate(program, e0, backend)
            assert result.value == pytest.approx(SQRT_HALF, abs=1e-12), backend
            assert result.reduced_dim == 1, backend
        with pytest.raises(CapacityError):
            sample_outputs(program, 5, np.random.default_rng(0))


def main_rank(program, s):
    """Rank of the secret's main rows, from the size of their brute-force span."""
    main = [BitVector(program.n, program.chi.ints[i]) for i in main_rows(program, s)]
    return len(brute_force_span(main)).bit_length() - 1


class TestReductionEdges:
    """The int-level reduction where it has nothing, or little, to keep."""

    def check(self, program, s, want, dim, backends=ALL_EXACT):
        for backend in backends:
            result = evaluate(program, s, backend)
            assert result.value == pytest.approx(want, abs=1e-10), backend
            assert result.reduced_dim == dim, backend
            if result.g is not None:
                assert abs(result.value) == pytest.approx(2.0 ** (-result.g / 2), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_program_without_rows(self, n):
        program = IqpProgram(BitMatrix([], cols=n), ())
        for bits in range(1 << n):
            s = BitVector(n, bits)
            self.check(program, s, dense_correlation(program, s), 0)
            assert evaluate(program, s, Backend.CLIFFORD).g == 0

    def test_secret_with_no_main_rows(self):
        program = program_of(["1001", "0110", "1111", "0100"], angle=Angle(3, 8))
        s = BitVector.from_string("1001")  # every row meets it an even number of times
        assert main_rows(program, s) == ()
        self.check(program, s, dense_correlation(program, s), 0)
        assert dense_correlation(program, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rows", [["1"], ["110", "011", "101"], ["1010", "0101", "1111"]])
    def test_secret_zero(self, rows):
        program = program_of(rows, angle=Angle(5, 8))
        s = BitVector(program.n, 0)
        self.check(program, s, dense_correlation(program, s), 0)

    @pytest.mark.parametrize("angle", [PI_OVER_8, Angle(3, 8), Angle(1, 4), Angle(1, 2)])
    def test_duplicate_main_rows(self, angle):
        # 110 twice and 111 three times are main against 100; 011 is redundant
        program = program_of(["110", "011", "111", "110", "111", "111"], angle=angle)
        s = BitVector.from_string("100")
        assert main_rows(program, s) == (0, 2, 3, 4, 5)
        self.check(program, s, dense_correlation(program, s), 2)

    def test_mixed_angles_diagonal_and_statevector(self):
        rng = np.random.default_rng(31)
        dense = (Backend.STATEVECTOR, Backend.DIAGONAL_EXACT)
        for _ in range(40):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            rows = [BitVector(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
            rows += rows[: int(rng.integers(0, m + 1))]  # duplicates with their own angles
            angles = tuple(
                Angle(int(rng.integers(0, 40)), int(rng.integers(1, 13))) for _ in rows
            )
            program = IqpProgram(BitMatrix(rows, cols=n), angles)
            for bits in range(1 << n):
                s = BitVector(n, bits)
                want = dense_correlation(program, s)
                self.check(program, s, want, main_rank(program, s), dense)

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_edges_low_rank(self, n):
        # a 4-qubit main part on basis vectors b_k = e_{pos_k} + free bits, so
        # chi_j = c_j . B straddles the word edge; s sits on pos only, hence
        # s . b_k = s'_k, and rows on free bits alone are redundant for every s
        rng = np.random.default_rng(n)
        pos = [0, 31, n - 2, n - 1]
        free = [i for i in range(n) if i not in pos]
        basis = [1 << p | sum(1 << i for i in free if rng.integers(0, 2)) for p in pos]
        small = random_program(4, 6, "pi8", rng)
        small = IqpProgram(small.chi, (Angle(3, 8),) * small.m)
        rows = [BitVector(n, xor_of(basis, row.bits)) for row in small.chi.rows]
        rows += [BitVector(n, sum(1 << i for i in free if rng.integers(0, 2))) for _ in range(8)]
        angles = small.angles + (Angle(1, 3),) * 8  # redundant rows: any angle
        program = IqpProgram(BitMatrix(rows, cols=n), angles)
        for bits in range(16):
            s = BitVector(n, sum(((bits >> k) & 1) << p for k, p in enumerate(pos)))
            small_s = BitVector(4, bits)
            want = dense_correlation(small, small_s)
            self.check(program, s, want, main_rank(small, small_s))


class TestCliffordOnPivotBits:
    """The Z4 sum on the main rows' pivot bits against the sum on _reduce's packed rows."""

    @staticmethod
    def packed(program, s):
        """(repr(value), g, d) of the Z4 sum over _reduce's d-bit rows, all d bits live."""
        rows, angles, d, _ = evaluators._reduce(program, s)
        exact = evaluators._z4_sum(rows, [a.multiple_of_pi8() for a in angles], (1 << d) - 1)
        if exact is None:
            return repr(0.0), None, d
        phase8, r2 = exact
        value = 2.0 ** (r2 / 2.0)
        return repr(value if phase8 == 0 else -value), -r2, d

    @pytest.mark.parametrize("n", [1, 2, 12, 63, 64, 65, 130])
    def test_matches_the_packed_sum_and_exact_diagonal(self, n):
        rng = np.random.default_rng(n)
        seen = set()
        for _ in range(30):
            # rows drawn from the span of a few basis ints, which may themselves be
            # dependent: dependent and duplicate rows with w * pi/8 angles, w in 0..15
            basis = [random_nonzero_bits(n, rng) for _ in range(int(rng.integers(0, 7)))]
            draws = [xor_of(basis, int(rng.integers(0, 1 << len(basis)))) for _ in range(8)]
            rows = [row for row in draws if row]  # a zero row acts on no qubit
            rows += rows[: int(rng.integers(0, 5))]
            angles = tuple(Angle(int(rng.integers(0, 16)), 8) for _ in rows)
            program = IqpProgram(BitMatrix.from_ints(rows, n), angles)
            secrets = [0, random_nonzero_bits(n, rng)] + [xor_of(basis, 1)] * bool(basis)
            for bits in secrets:
                s = BitVector(n, bits)
                got = correlation_clifford(program, s)
                assert (repr(got.value), got.g, got.reduced_dim) == self.packed(program, s)
                want = correlation_diagonal(program, s)
                assert got.value == pytest.approx(want.value, abs=1e-12)
                assert got.reduced_dim == want.reduced_dim
                main = [row for row in rows if (row & bits).bit_count() & 1]
                assert got.reduced_dim == len(echelon(main)) == rank(BitMatrix.from_ints(main, n))
                seen.add("d=0" if got.reduced_dim == 0 else "zero" if got.g is None else "g")
        assert seen == {"d=0", "zero", "g"}


class TestPhaseTable:
    """Rows that share an index, and no rows at all, in the one phase table."""

    def test_duplicate_rows_add_their_angles(self):
        # 110 three times and 011 twice: a scatter that keeps one angle per
        # index would drop four of these six rows
        chi = BitMatrix.from_strings(["110", "011", "110", "101", "011", "110"])
        angles = tuple(Angle(w, 8) for w in (1, 3, 2, 5, 1, 7))
        program = IqpProgram(chi, angles)
        got = output_distribution(program).probs
        assert np.allclose(got, dense_distribution(program), atol=1e-12)
        for bits in range(1, 8):
            s = BitVector(3, bits)
            want = dense_correlation(program, s)
            for backend in (Backend.STATEVECTOR, Backend.DIAGONAL_EXACT):
                assert evaluate(program, s, backend).value == pytest.approx(want, abs=1e-12)

    def test_program_without_rows(self):
        program = IqpProgram(BitMatrix([], cols=4), ())
        got = output_distribution(program).probs
        assert got.tolist() == dense_distribution(program).tolist() == [1.0] + [0.0] * 15
        s = BitVector.from_string("1010")
        assert correlation_diagonal(program, s).value == 1.0
        assert correlation_statevector(program, s).value == 1.0
        batch = sample_outputs(program, 5, np.random.default_rng(0))
        assert batch.tolist() == [[0]] * 5


class TestMonteCarlo:
    def test_sample_count_frozen(self):
        assert mc_sample_count(0.05, 0.05) == 2952
        assert mc_sample_count(1.0, 0.5) == 3
        assert mc_sample_count(0.1, 0.1) == 600

    def test_sample_count_validation(self):
        with pytest.raises(ValidationError):
            mc_sample_count(0.0, 0.05)
        with pytest.raises(ValidationError):
            mc_sample_count(0.1, 1.5)

    @pytest.mark.parametrize("epsilon", [0, math.inf, math.nan])
    def test_sample_count_needs_finite_positive_epsilon(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            mc_sample_count(epsilon, 0.05)

    @pytest.mark.parametrize("delta", [0, 1, 2, 3, -1, math.nan])
    def test_one_delta_rule_refused_before_any_draw(self, delta):
        program, s = program_of(["11", "10"]), BitVector.from_string("10")
        with pytest.raises(ValidationError, match="outside"):
            mc_sample_count(0.05, delta)
        with pytest.raises(ValidationError, match="outside"):
            acceptance_threshold(SecretKey((s,), (0.5,)), delta, 100)
        estimators = (
            lambda rng: correlation_diagonal(program, s, samples=100, rng=rng, delta=delta),
            lambda rng: evaluate(program, s, "diagonal_mc", samples=100, rng=rng, delta=delta),
        )
        for estimate in estimators:
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            with pytest.raises(ValidationError, match="outside"):
                estimate(rng)
            assert rng.bit_generator.state == before  # refused while the rng is untouched

    def test_mc_requires_rng(self):
        program = program_of(["11"])
        with pytest.raises(ValidationError):
            correlation_diagonal(program, BitVector.from_string("10"), samples=100)

    def test_mc_deterministic_for_seed(self):
        program = program_of(["1100", "0110", "1010"])
        s = BitVector.from_string("1000")
        a = correlation_diagonal(
            program, s, samples=500, rng=np.random.default_rng(42)
        )
        b = correlation_diagonal(
            program, s, samples=500, rng=np.random.default_rng(42)
        )
        assert a.value == b.value
        assert a.samples_used == b.samples_used == 500

    def test_mc_error_bound_formula(self):
        program = program_of(["11"])
        s = BitVector.from_string("10")
        r = correlation_diagonal(
            program, s, samples=600, rng=np.random.default_rng(0), delta=0.1
        )
        assert r.error_bound == pytest.approx(math.sqrt(2 * math.log(2 / 0.1) / 600))

    def test_mc_lands_near_exact(self):
        rng = np.random.default_rng(7)
        program = random_uniform_program(8, 12, rng)
        s = BitVector(8, int(rng.integers(1, 256)))
        exact = correlation_diagonal(program, s).value
        est = correlation_diagonal(program, s, samples=2952, rng=rng)
        assert abs(est.value - exact) <= est.error_bound

    def test_mc_wide_program_path(self):
        # n of one full word and of two words: Monte-Carlo points span words
        for n in (64, 70):
            rows = [BitVector(n, 0b11 << i) for i in range(0, 20, 2)]
            program = IqpProgram(BitMatrix(rows, cols=n), (PI_OVER_8,) * len(rows))
            s = BitVector(n, 1)
            r = correlation_diagonal(
                program, s, samples=400, rng=np.random.default_rng(3)
            )
            # single main row: every term is cos(pi/4) exactly
            assert r.value == pytest.approx(SQRT_HALF, abs=1e-12)
            # several main rows over the whole width: lands near the exact value
            program = random_program(n, 10, "pi8", np.random.default_rng(0))
            s = BitVector(n, sum(1 << i for i in {0, 5, 31, 62, 63, n - 1}))
            exact = correlation_clifford(program, s).value
            est = correlation_diagonal(
                program, s, samples=2952, rng=np.random.default_rng(4)
            )
            assert abs(est.value - exact) <= est.error_bound


class TestGuards:
    def test_statevector_cap(self):
        program = rank_above_cap_program()
        with pytest.raises(CapacityError):
            correlation_statevector(program, BitVector(program.n, 1))
        with pytest.raises(CapacityError):
            sample_outputs(program, 5, np.random.default_rng(0))
        n = STATEVECTOR_CAP + 1
        program = IqpProgram(
            BitMatrix([BitVector(n, 1)], cols=n), (PI_OVER_8,)
        )
        with pytest.raises(CapacityError):
            output_distribution(program)
        # rank 1: the cap applies to the simulated dimension, not to n
        value = correlation_statevector(program, BitVector(n, 1)).value
        assert value == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_diagonal_exact_cap(self):
        program = rank_above_cap_program()
        with pytest.raises(CapacityError):
            correlation_diagonal(program, BitVector(program.n, 1))

    def test_subspace_needs_uniform_angle(self):
        program = IqpProgram(
            BitMatrix.from_strings(["10", "01"]), (Angle(1, 8), Angle(1, 4))
        )
        with pytest.raises(AngleError):
            correlation_subspace(program, BitVector.from_string("11"))

    def test_span_cap_enforced(self, monkeypatch):
        # the one dense cap, on the reduced dimension, before any span is built
        n = STATEVECTOR_CAP + 1
        rows = [BitVector(n, 1 << i) for i in range(n)]
        program = IqpProgram(BitMatrix(rows, cols=n), (PI_OVER_8,) * n)

        def refuse(*args, **kwargs):
            raise AssertionError("span built above the cap")

        monkeypatch.setattr(evaluators, "span_weights", refuse)
        with pytest.raises(CapacityError, match=f"dimension {n} exceeds dense cap"):
            correlation_subspace(program, BitVector(n, (1 << n) - 1))

    def test_subspace_dimension_cap(self):
        n = STATEVECTOR_CAP + 1
        rows = [BitVector(n, 1 << i) for i in range(n)]
        program = IqpProgram(BitMatrix(rows, cols=n), (PI_OVER_8,) * n)
        with pytest.raises(CapacityError):
            correlation_subspace(program, BitVector(n, (1 << n) - 1))
        # d = rank(main rows), not n: one main row is far below the cap
        value = correlation_subspace(program, BitVector(n, 1)).value
        assert value == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_clifford_needs_eighth_multiples(self):
        program = program_of(["11"], angle=Angle(1, 3))
        with pytest.raises(AngleError):
            correlation_clifford(program, BitVector.from_string("10"))

    def test_clifford_ignores_redundant_row_angles(self):
        # only main rows must be pi/8 multiples
        program = IqpProgram(
            BitMatrix.from_strings(["10", "11"]), (Angle(1, 8), Angle(1, 3))
        )
        s = BitVector.from_string("11")  # second row has even overlap
        r = correlation_clifford(program, s)
        assert r.value == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_secret_length_checked(self):
        program = program_of(["11"])
        with pytest.raises(Exception):
            correlation_statevector(program, BitVector.from_string("111"))


class TestSampling:
    def test_deterministic(self):
        program = program_of(["1100", "0110"])
        a = sample_outputs(program, 20, np.random.default_rng(1))
        b = sample_outputs(program, 20, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert a.shape == (20, 1) and a.dtype == np.uint64
        assert int(a.max()) < 1 << 4

    def test_empirical_frequencies(self):
        program = program_of(["11"], angle=Angle(1, 4))
        draws = sample_outputs(program, 4000, np.random.default_rng(5))
        counts = np.bincount(draws[:, 0].astype(np.int64), minlength=4)
        table = output_distribution(program)
        assert np.allclose(counts / 4000, table.probs, atol=0.05)
        # a rank-4 program embedded at any width: x = y . B for a random basis B
        small = random_program(4, 6, "uniform-pi8", np.random.default_rng(8))
        assert rank(small.chi) == 4
        for n in (30, 64, 70):
            rng = np.random.default_rng(n)
            basis = [random_nonzero_bits(n, rng) for _ in range(4)]
            assert len(echelon(basis)) == 4
            rows = [BitVector(n, xor_of(basis, row.bits)) for row in small.chi.rows]
            program = IqpProgram(BitMatrix(rows, cols=n), small.angles)
            draws = sample_outputs(program, 4000, rng)
            coords = {xor_of(basis, y): y for y in range(16)}
            ys = [coords[int.from_bytes(x.tobytes(), "little")] for x in draws]
            counts = np.bincount(ys, minlength=16)
            assert np.allclose(counts / 4000, dense_distribution(small), atol=0.05)

    def test_count_validated(self):
        program = program_of(["11"])
        with pytest.raises(ValidationError):
            sample_outputs(program, 0, np.random.default_rng(0))


class _FixedDraws:
    """An rng stand-in whose ``random(count)`` returns crafted draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, count):
        assert count == len(self.draws)
        return self.draws.copy()


class TestSamplerLookup:
    """The sampler's sorted-key lookup equals one plain search over the draws."""

    # qubit 0 flips surely, qubit 1 half the time, qubit 2 never: two of the
    # eight table entries hold all the mass, so the cumulative table has flat runs
    PROGRAM = IqpProgram(
        BitMatrix.from_strings(["100", "010", "001"]), (Angle(1, 2), Angle(1, 4), Angle(0))
    )

    def table(self):
        rows, angles, d, basis = evaluators._reduce(self.PROGRAM)
        return np.cumsum(evaluators._distribution(rows, angles, d).probs), d, basis

    def crafted(self, case, cumulative):
        top = cumulative[-1]
        flat = [c for c, after in zip(cumulative, cumulative[1:]) if c == after]
        assert len(cumulative) == 8 and len(flat) >= 4
        return {
            "on-entries": cumulative[::-1],  # each draw on the side="right" boundary
            "repeated": [0.7, 0.2, 0.7, 0.7, 0.2, 0.0, 0.0, 0.7],
            "flat-runs": flat
            + [np.nextafter(c, 0) for c in flat]
            + [np.nextafter(c, 2) for c in flat],
            "clipped": [top, np.nextafter(top, 2), 1.0, 0.5, 2.0, top],
            "sorted": np.sort(np.concatenate([cumulative, np.linspace(0, 1, 9)])),
            "mixed": np.random.default_rng(3).choice(
                np.concatenate([cumulative, [0.0, 0.25, top, 1.0]]), size=200
            ),
        }[case]

    @pytest.mark.parametrize(
        "case", ["on-entries", "repeated", "flat-runs", "clipped", "sorted", "mixed"]
    )
    def test_batch_equals_plain_search(self, case):
        cumulative, d, basis = self.table()
        draws = np.asarray(self.crafted(case, cumulative), dtype=np.float64)
        batch = sample_outputs(self.PROGRAM, len(draws), _FixedDraws(draws))
        ys = np.clip(np.searchsorted(cumulative, draws, side="right"), 0, (1 << d) - 1)
        expect = combine_rows(ys.astype(np.uint64)[:, None], xor_tables(basis, self.PROGRAM.n))
        assert batch.dtype == expect.dtype and batch.shape == expect.shape
        assert batch.tobytes() == expect.tobytes()


class TestSamplingTable:
    def test_nbytes_counts_every_array_it_holds(self):
        # the server's keep-or-not budget reads nbytes, so a field it misses is unbudgeted memory
        program = program_of(["110", "011", "101", "111"])
        table = evaluators._sampling_table(program)
        held = [getattr(table, field.name) for field in dataclasses.fields(table)]
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in held)
        assert table.nbytes == sum(a.nbytes for a in held) > 0


class TestDistributionTable:
    def test_validates_shape(self):
        with pytest.raises(DimensionError):
            DistributionTable(2, np.array([0.5, 0.5]))

    def test_validates_negativity_and_norm(self):
        with pytest.raises(ValidationError):
            DistributionTable(1, np.array([-0.1, 1.1]))
        with pytest.raises(ValidationError):
            DistributionTable(1, np.array([0.6, 0.6]))


class TestDispatch:
    def test_unknown_options_rejected(self):
        program = program_of(["11"])
        s = BitVector.from_string("10")
        with pytest.raises(ValidationError):
            evaluate(program, s, Backend.STATEVECTOR, samples=10)

    def test_mc_backend_needs_samples(self):
        program = program_of(["11"])
        s = BitVector.from_string("10")
        with pytest.raises(ValidationError):
            evaluate(program, s, Backend.DIAGONAL_MC, rng=np.random.default_rng(0))

    def test_unknown_backend_rejected(self):
        program = program_of(["11"])
        s = BitVector.from_string("10")
        with pytest.raises(ValidationError, match="diagonal_mc"):
            evaluate(program, s, "mc")

    def test_backend_tags(self):
        program = program_of(["11"])
        s = BitVector.from_string("10")
        for backend in ALL_EXACT:
            assert evaluate(program, s, backend).backend is backend
