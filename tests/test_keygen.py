"""Challenge construction and scrambling."""

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpverify.bitlin import BitMatrix, BitVector, dot, nullspace_basis
from iqpverify.errors import CapacityError, ConstructionError, DimensionError, ValidationError
from iqpverify.evaluators import correlation_clifford, correlation_statevector
from iqpverify.keygen import (
    ConstructionSpec,
    _window_value,
    add_redundant_rows,
    build_challenge,
    random_2local,
    random_nonzero_bits,
    random_program,
    random_scramble_ops,
    scramble,
    search_main_part,
)
from iqpverify.model import PI_OVER_8, Angle, IqpProgram, serialize_key, serialize_program

SQRT_HALF = 2**-0.5


class TestRandomEnsembles:
    def test_random_program_shape_and_determinism(self):
        a = random_program(6, 9, "pi8", np.random.default_rng(3))
        b = random_program(6, 9, "pi8", np.random.default_rng(3))
        assert a == b
        assert a.n == 6 and a.m == 9
        assert a.uniform_angle() == PI_OVER_8

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 32, 33, 63, 64])
    def test_rows_equal_scalar_draws(self, n):
        # one batched draw up to n = 63: the rows and the final rng state of m
        # scalar random_nonzero_bits calls, m = 0 included
        for seed in range(20):
            batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            m = seed % 13
            program = random_program(n, m, "pi8", batch)
            expected = [random_nonzero_bits(n, scalar) for _ in range(m)]
            assert [row.bits for row in program.chi.rows] == expected
            assert batch.bit_generator.state == scalar.bit_generator.state

    def test_random_program_wide_rows(self):
        for n in (64, 65, 200):
            p = random_program(n, 30, "pi8", np.random.default_rng(n))
            assert p.n == n
            assert all(p.chi.ints)
            assert any(row >> (n - 1) for row in p.chi.ints)  # top coordinate drawn

    def test_uniform_pi8_policy(self):
        p = random_program(5, 40, "uniform-pi8", np.random.default_rng(0))
        assert all(a.multiple_of_pi8() is not None for a in p.angles)
        assert len({a.num for a in p.angles}) > 1  # actually varies

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            random_program(4, 3, "bogus", np.random.default_rng(0))

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            random_program(4, 3, "pi8")

    def test_two_local_rows(self):
        p = random_2local(6, np.random.default_rng(1))
        assert p.n == 6 and p.m >= 1
        for row, angle in zip(p.chi.ints, p.angles):
            assert row.bit_count() in (1, 2)
            assert angle.multiple_of_pi8() in range(1, 8)  # zero rows omitted
        assert p.m <= 6 * 7 // 2  # pairs plus singles

    def test_two_local_determinism(self):
        a = random_2local(5, np.random.default_rng(9))
        b = random_2local(5, np.random.default_rng(9))
        assert a == b


class TestSearch:
    def test_weight_one_hits_sqrt_half(self):
        out = search_main_part(1, 0.7, 10, np.random.default_rng(0))
        assert out.target_met
        assert out.result.value == pytest.approx(SQRT_HALF, abs=1e-12)
        assert out.result.g == 1
        assert out.rows == (BitVector.from_string("1"),)

    def test_weight_two_cannot_beat_sqrt_half(self):
        out = search_main_part(2, 0.99, 50, np.random.default_rng(0))
        assert not out.target_met
        assert abs(out.result.value) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_weight_two_meets_moderate_target(self):
        out = search_main_part(2, 0.7, 50, np.random.default_rng(0))
        assert out.target_met
        assert abs(out.result.value) >= 0.7

    def test_rows_have_odd_overlap_with_secret(self):
        out = search_main_part(3, 0.5, 30, np.random.default_rng(5))
        assert out.secret == BitVector.from_string("111")
        for row in out.rows:
            assert dot(row, out.secret) == 1

    def test_deterministic(self):
        a = search_main_part(3, 0.7, 30, np.random.default_rng(11))
        b = search_main_part(3, 0.7, 30, np.random.default_rng(11))
        assert a == b

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            search_main_part(0, 0.5, 10, rng)
        with pytest.raises(ValidationError):
            search_main_part(2, 0.0, 10, rng)
        with pytest.raises(ValidationError):
            search_main_part(2, 0.5, 0, rng)
        with pytest.raises(CapacityError, match="search weight 17 exceeds cap 16"):
            search_main_part(17, 0.5, 10, rng)


def window_program(weight, mask):
    """The window program of ``mask``'s picks, built afresh from an independent pool."""
    pool = [bits for bits in range(1, 1 << weight) if bin(bits).count("1") % 2]
    rows = [pool[i] for i in range(len(pool)) if mask >> i & 1]
    return IqpProgram(BitMatrix.from_ints(rows, weight), (PI_OVER_8,) * len(rows))


def challenge_bytes(spec):
    program, key = build_challenge(spec)
    return serialize_program(program), serialize_key(key)


# the keygen-wide benchmark's shape and every spec with frozen challenge bytes
MEMO_SPECS = [ConstructionSpec(n=200, secrets=4, weight=3, seed=s) for s in (1, 2, 3)] + [
    ConstructionSpec(n=10, secrets=2, weight=2, seed=3),
    ConstructionSpec(n=200, secrets=4, weight=3, seed=5),
    ConstructionSpec(n=200, secrets=4, weight=3, seed=5, redundant_rows=400),
    ConstructionSpec(n=1000, secrets=4, weight=3, seed=7),
    ConstructionSpec(n=64, secrets=8, weight=8, seed=2, redundant_rows=128),
]


class TestWindowMemo:
    @pytest.mark.parametrize("weight", range(1, 7))
    def test_cold_and_warm_searches_agree(self, weight):
        for seed in range(4):
            for target, budget in ((0.7, 30), (0.99, 40), (0.3, 3), (1.0, 60)):
                runs = []
                for clear in (True, False):
                    if clear:
                        _window_value.cache_clear()
                    rng = np.random.default_rng([seed, weight])
                    outcome = search_main_part(weight, target, budget, rng)
                    runs.append((outcome, rng.bit_generator.state))
                assert runs[0] == runs[1]

    @pytest.mark.parametrize("weight", range(1, 7))
    def test_memoised_values_equal_fresh_programs(self, weight):
        secret = BitVector(weight, (1 << weight) - 1)
        size = 1 << weight - 1  # odd-weight rows in the window
        masks = range(1, 1 << size) if size <= 8 else np.random.default_rng(weight).integers(
            1, 1 << size, size=200, dtype=np.uint64
        ).tolist()
        for mask in masks:
            assert _window_value(weight, mask) == correlation_clifford(
                window_program(weight, mask), secret
            )

    def test_search_outcome_matches_memoised_value(self):
        for seed in range(6):
            out = search_main_part(4, 0.7, 30, np.random.default_rng(seed))
            program = IqpProgram(
                BitMatrix.from_ints([r.bits for r in out.rows], 4), (PI_OVER_8,) * len(out.rows)
            )
            assert out.result == correlation_clifford(program, out.secret)

    def test_cold_and_warm_challenges_are_byte_identical(self):
        _window_value.cache_clear()
        cold = [challenge_bytes(spec) for spec in MEMO_SPECS]
        assert [challenge_bytes(spec) for spec in MEMO_SPECS] == cold

    def test_memo_stays_bounded(self):
        _window_value.cache_clear()
        maxsize = _window_value.cache_info().maxsize
        assert maxsize == 1024
        seeds = iter(range(50))
        while _window_value.cache_info().misses <= maxsize:  # 128 pool rows: nearly all misses
            search_main_part(8, 1.0, 500, np.random.default_rng(next(seeds)))
        info = _window_value.cache_info()
        assert info.misses > maxsize
        assert info.currsize <= maxsize

    def test_threads_build_the_bytes_of_serial_builds(self):
        serial = [challenge_bytes(spec) for spec in MEMO_SPECS]
        _window_value.cache_clear()
        orders, results = [MEMO_SPECS, MEMO_SPECS[::-1]] * 2, [None] * 4

        def build(i):
            results[i] = [challenge_bytes(spec) for spec in orders[i]]

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [serial, serial[::-1]] * 2


class TestRedundantRows:
    def test_appended_rows_are_orthogonal(self):
        rng = np.random.default_rng(4)
        program = random_program(6, 4, "pi8", rng)
        secrets = [BitVector.from_string("110000"), BitVector.from_string("001100")]
        grown = add_redundant_rows(program, secrets, 10, rng)
        assert grown.m == 14
        assert grown.chi.rows[:4] == program.chi.rows
        for row in grown.chi.rows[4:]:
            assert row.bits
            assert all(dot(row, s) == 0 for s in secrets)
            # angle matches the program's shared angle
        assert grown.angles[4:] == (PI_OVER_8,) * 10

    def test_values_do_not_move(self):
        rng = np.random.default_rng(8)
        program = random_program(7, 5, "uniform-pi8", rng)
        s = BitVector.from_string("1010000")
        before = correlation_statevector(program, s).value
        grown = add_redundant_rows(program, [s], 12, rng)
        after = correlation_statevector(grown, s).value
        assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize(
        "angles, padding",
        [((Angle(1, 3),) * 2, Angle(1, 3)), ((Angle(1, 3), PI_OVER_8), PI_OVER_8)],
        ids=["shared", "mixed"],
    )
    def test_padding_takes_the_shared_angle(self, angles, padding):
        program = IqpProgram(BitMatrix.from_strings(["1000", "0100"]), angles)
        secret = BitVector.from_string("1100")
        grown = add_redundant_rows(program, [secret], 3, np.random.default_rng(2))
        assert grown.angles == angles + (padding,) * 3

    @pytest.mark.parametrize(
        "secrets, count, message",
        [(["1100"], -1, "count must be non-negative"), ([], 1, "need at least one secret")],
    )
    def test_bad_request_refused(self, secrets, count, message):
        program = random_program(4, 2, "pi8", np.random.default_rng(0))
        secrets = [BitVector.from_string(s) for s in secrets]
        with pytest.raises(ValidationError, match=message):
            add_redundant_rows(program, secrets, count, np.random.default_rng(0))

    def test_full_rank_secrets_rejected(self):
        rng = np.random.default_rng(0)
        program = random_program(2, 2, "pi8", rng)
        secrets = [BitVector.from_string("10"), BitVector.from_string("01")]
        with pytest.raises(ConstructionError):
            add_redundant_rows(program, secrets, 1, rng)

    @pytest.mark.parametrize("n, secret", [(2, "11"), (3, "110"), (6, "101100")])
    def test_padding_follows_the_one_draw_per_row_stream(self, n, secret):
        # small bases draw all-zero coefficient rows often; each is redrawn
        # in place, so the rows and the final state match a per-row loop
        secrets = [BitVector.from_string(secret)]
        program = random_program(n, 3, "pi8", np.random.default_rng(5))
        basis = nullspace_basis(BitMatrix(secrets, cols=n))
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        grown = add_redundant_rows(program, secrets, 40, rng)
        rows = []
        while len(rows) < 40:
            coeffs = ref.integers(0, 2, size=len(basis))
            bits = 0
            for c, b in zip(coeffs, basis):
                bits ^= b.bits if c else 0
            if bits:
                rows.append(BitVector(n, bits))
        assert grown.chi.rows[3:] == tuple(rows)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_zero_count_is_identity(self):
        rng = np.random.default_rng(2)
        program = random_program(4, 2, "pi8", rng)
        assert add_redundant_rows(program, [BitVector(4, 3)], 0, rng) == program

    @staticmethod
    def secret_sets(n):
        # a, b, c leave column n-1 free; at n = 2 two pivots fill every column
        rng = np.random.default_rng(n)
        a, b, c = (random_nonzero_bits(n - 1, rng) for _ in range(3))
        f = n // 2
        return {
            "random": [a, b, c],
            "dependent and repeated": [a, b, a ^ b, a, b],
            "pivots at 0 and n-1": [1 << (n - 1), a | 1] if n > 2 else [1 << (n - 1)],
            "one free column": [1 << i | (i % 2 == 0) << f for i in range(n) if i != f],
        }

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
    @pytest.mark.parametrize(
        "case", ["random", "dependent and repeated", "pivots at 0 and n-1", "one free column"]
    )
    def test_padding_is_the_xor_of_the_picked_basis_vectors(self, n, case):
        secrets = [BitVector(n, bits) for bits in self.secret_sets(n)[case]]
        program = random_program(n, 2, "pi8", np.random.default_rng(1))
        basis = nullspace_basis(BitMatrix(secrets, cols=n))
        if case == "one free column":
            assert len(basis) == 1
        rng = np.random.default_rng([n, 7])
        ref = copy.deepcopy(rng)
        count = 3 * n
        grown = add_redundant_rows(program, secrets, count, rng)
        rows = []
        while len(rows) < count:  # the same draws, replayed
            draw = ref.integers(0, 2, size=(count - len(rows), len(basis)))
            for coeffs in draw[draw.any(axis=1)]:
                bits = 0
                for pick, v in zip(coeffs, basis):
                    bits ^= v.bits if pick else 0
                rows.append(BitVector(n, bits))
        assert grown.chi.rows[2:] == tuple(rows)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
    def test_secrets_spanning_every_column_rejected(self, n):
        rng = np.random.default_rng(n)
        program = random_program(n, 2, "pi8", rng)
        # the unit vectors, each hidden behind an XOR with its successor
        secrets = [BitVector(n, 3 << i & (1 << n) - 1) for i in range(n)]
        with pytest.raises(ConstructionError):
            add_redundant_rows(program, secrets, 1, rng)


def per_op_refusal(ops, n):
    """Class and text of the first bad op, as a check inside the op loop finds it."""
    for src, dst in ops:
        if src == dst or src < 0 or dst < 0:
            return ValidationError, f"op ({src}, {dst}) needs two distinct columns >= 0"
        if src >= n or dst >= n:
            return DimensionError, f"op ({src}, {dst}) outside {n} columns"
    return None


class TestScramble:
    def test_worked_example(self):
        program = IqpProgram(
            BitMatrix.from_strings(["1100", "0101"]), (PI_OVER_8,) * 2
        )
        scrambled, secrets = scramble(
            program, [BitVector.from_string("0010")], [(0, 2)]
        )
        assert scrambled.chi == BitMatrix.from_strings(["1110", "0101"])
        assert secrets == (BitVector.from_string("1010"),)

    @pytest.mark.parametrize("op", [(1, 1), (-1, 0), (0, -2)])
    def test_bad_pair_refused(self, op):
        program = IqpProgram(BitMatrix.from_strings(["110"]), (PI_OVER_8,))
        with pytest.raises(ValidationError):
            scramble(program, [BitVector(3, 1)], [(0, 1), op])

    @pytest.mark.parametrize("op", [(0, 3), (3, 1)])
    def test_pair_outside_columns_refused(self, op):
        program = IqpProgram(BitMatrix.from_strings(["110"]), (PI_OVER_8,))
        with pytest.raises(DimensionError):
            scramble(program, [BitVector(3, 1)], [op])

    def test_array_and_tuple_list_agree(self):
        rng = np.random.default_rng(8)
        program = random_program(70, 30, "pi8", rng)
        secrets = [BitVector(70, random_nonzero_bits(70, rng)) for _ in range(3)]
        ops = random_scramble_ops(70, 1400, rng)
        as_tuples = [tuple(op) for op in ops.tolist()]
        assert scramble(program, secrets, ops) == scramble(program, secrets, as_tuples)
        assert scramble(program, secrets, []) == (program, tuple(secrets))

    @pytest.mark.parametrize("index", [0, 2000, 3999])
    @pytest.mark.parametrize("op", [(1, 1), (-1, 0), (0, 3), (3, 1)])
    def test_first_bad_op_matches_per_op_check(self, op, index):
        program = IqpProgram(BitMatrix.from_strings(["110", "011"]), (PI_OVER_8,) * 2)
        ops = random_scramble_ops(3, 4000, np.random.default_rng(index))
        ops[index] = op
        if index < 3999:  # a later bad op of the other class must not win
            ops[-1] = (0, 5) if op in [(1, 1), (-1, 0)] else (2, 2)
        cls, text = per_op_refusal(ops.tolist(), 3)
        for given_ops in (ops, ops.tolist()):
            with pytest.raises((ValidationError, DimensionError)) as err:
                scramble(program, [BitVector(3, 1)], given_ops)
            assert type(err.value) is cls and str(err.value) == text

    @pytest.mark.parametrize(
        "ops",
        [
            [(0, 1.0)],  # float entries
            [(0, 1), (2.5, 0)],
            np.array([[0.0, 1.0]]),
            [(0, 2**70), (0.5, 1)],
            [(0, 1, 2)],  # not pairs
            np.array([0, 1]),
            np.zeros((2, 2, 2), int),
        ],
    )
    def test_not_integer_pairs_refused(self, ops):
        program = IqpProgram(BitMatrix.from_strings(["110"]), (PI_OVER_8,))
        with pytest.raises(ValidationError, match="k x 2 integer column pairs"):
            scramble(program, [BitVector(3, 1)], ops)

    @pytest.mark.parametrize(
        "ops", [[(0, 1), (0, 2**63)], [(2**70, 1)], [(-1, 2**64)], [(0, 1), (-(2**70), 1)]]
    )
    def test_int_past_int64_gets_per_op_refusal(self, ops):
        program = IqpProgram(BitMatrix.from_strings(["110"]), (PI_OVER_8,))
        cls, text = per_op_refusal(ops, 3)
        with pytest.raises((ValidationError, DimensionError)) as err:
            scramble(program, [BitVector(3, 1)], ops)
        assert type(err.value) is cls and str(err.value) == text

    def test_empty_program_and_no_secrets(self):
        program = IqpProgram(BitMatrix([], cols=4), ())
        assert scramble(program, [], [(0, 1), (3, 2)]) == (program, ())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 10),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_parities_preserved(self, n, m, k, op_count, seed):
        rng = np.random.default_rng(seed)
        program = random_program(n, m, "pi8", rng)
        secrets = [BitVector(n, int(rng.integers(0, 1 << n))) for _ in range(k)]
        ops = random_scramble_ops(n, op_count, rng)
        scrambled, new_secrets = scramble(program, secrets, ops)
        for s_old, s_new in zip(secrets, new_secrets):
            for r_old, r_new in zip(program.chi.rows, scrambled.chi.rows):
                assert dot(r_old, s_old) == dot(r_new, s_new)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_replay_is_involution(self, n, m, seed):
        rng = np.random.default_rng(seed)
        program = random_program(n, m, "pi8", rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        ops = random_scramble_ops(n, 15, rng)
        undo = np.concatenate((ops, ops[::-1]))  # on arrays, + would add elementwise
        back, secrets = scramble(program, [s], undo)
        assert back == program and secrets == (s,)

    def test_scramble_ops_need_two_columns(self):
        with pytest.raises(ValidationError):
            random_scramble_ops(1, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 3, 70])
    def test_default_count_is_twenty_n(self, n):
        default, explicit = np.random.default_rng(n), np.random.default_rng(n)
        ops = random_scramble_ops(n, None, default)
        assert ops.tolist() == random_scramble_ops(n, 20 * n, explicit).tolist()
        assert default.bit_generator.state == explicit.bit_generator.state

    @pytest.mark.parametrize("n, count", [(4, -5), (2**32 + 1, 1)])
    def test_bad_draw_refused(self, n, count):
        # past 2**32 columns numpy draws 64-bit words, which this map does not follow
        with pytest.raises(ValidationError):
            random_scramble_ops(n, count, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n, count",
        [(2, 300), (3, 300), (10, 300), (200, 300), (1000, 300), (2**31 + 1, 40), (2**32, 40)],
    )
    def test_draws_equal_scalar_loop(self, n, count):
        # at n = 2**31 + 1 about half the src words are rejected, so the
        # drop-and-top-up path runs many times
        for seed in range(3):
            batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = []
            for _ in range(count):
                src = int(scalar.integers(0, n))
                dst = int(scalar.integers(0, n - 1))
                expected.append((src, dst + (dst >= src)))
            assert random_scramble_ops(n, count, batch).tolist() == [list(p) for p in expected]
            assert batch.bit_generator.state == scalar.bit_generator.state


class TestBuildChallenge:
    def test_deterministic(self):
        spec = ConstructionSpec(n=9, secrets=2, weight=2, seed=13)
        a_prog, a_key = build_challenge(spec)
        b_prog, b_key = build_challenge(spec)
        assert a_prog == b_prog
        assert a_key == b_key

    def test_key_matches_program(self):
        spec = ConstructionSpec(n=8, secrets=2, weight=2, redundant_rows=5, seed=3)
        program, key = build_challenge(spec)
        assert key.count == 2
        for s, e in zip(key.secrets, key.expected):
            assert abs(e) >= spec.target
            got = correlation_statevector(program, s).value
            assert got == pytest.approx(e, abs=1e-9)

    def test_windows_must_fit(self):
        with pytest.raises(ConstructionError):
            build_challenge(ConstructionSpec(n=3, secrets=2, weight=2, seed=0))

    def test_unreachable_target_reports_best(self):
        spec = ConstructionSpec(n=4, secrets=1, weight=2, target=0.9, budget=25, seed=0)
        with pytest.raises(ConstructionError) as err:
            build_challenge(spec)
        best = err.value.best
        assert best is not None and not best.target_met
        assert abs(best.result.value) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_scramble_disabled(self):
        spec = ConstructionSpec(n=6, secrets=1, weight=2, scramble_ops=0, seed=5)
        program, key = build_challenge(spec)
        # without scrambling the secret is still the raw window
        assert key.secrets[0] == BitVector.from_string("110000")

    def test_secret_count_and_distinctness(self):
        spec = ConstructionSpec(n=12, secrets=3, weight=2, seed=21)
        _, key = build_challenge(spec)
        assert key.count == 3
        assert len(set(key.secrets)) == 3
        assert all(s.bits for s in key.secrets)

    def test_meta_records_backend(self):
        program, key = build_challenge(ConstructionSpec(n=6, seed=2))
        assert any("clifford" in line for line in key.meta)
        for k, (line, s) in enumerate(zip(key.meta, key.secrets)):
            d = correlation_clifford(program, s).reduced_dim
            assert line.startswith(f"secret {k}: backend=clifford g=")
            assert line.endswith(f" dim={d}")

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ConstructionSpec(n=0)
        with pytest.raises(ValidationError):
            ConstructionSpec(n=4, target=1.5)
        with pytest.raises(ValidationError):
            ConstructionSpec(n=4, scramble_ops=-1)
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            ConstructionSpec(n=4, seed=-1)
        with pytest.raises(ValidationError, match="need at least one secret"):
            ConstructionSpec(n=4, secrets=0)
        with pytest.raises(ValidationError, match="secret weight must be at least 1"):
            ConstructionSpec(n=4, weight=0)
        with pytest.raises(ValidationError, match="search budget must be at least 1"):
            ConstructionSpec(n=4, budget=0)
        with pytest.raises(ValidationError, match="redundant row count must be non-negative"):
            ConstructionSpec(n=4, redundant_rows=-1)
