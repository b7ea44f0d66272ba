"""Experiment drivers and their CSV report format."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from iqpverify import experiments
from iqpverify.bitlin import BitVector
from iqpverify.errors import ParseError, ValidationError
from iqpverify.evaluators import all_correlations, correlation_clifford
from iqpverify.experiments import (
    ExperimentReport,
    _quantized_one,
    exp_anticoncentration,
    exp_fig1a,
    exp_fig1b,
    exp_parseval,
)
from iqpverify.keygen import (
    random_2local,
    random_nonzero_bits,
    random_nonzero_rows,
    random_program,
)
from iqpverify.model import seeded_rng
from report_reader import parse_report


class TestReportFormat:
    def sample_report(self):
        return ExperimentReport(
            experiment="demo",
            params={"n": 6, "seed": 3, "label": "x"},
            columns=("a", "b"),
            rows=((1, 0.5), (2, -0.25), (3, 2.0**-0.5)),
            wall_clock=1.25,
        )

    def test_round_trip(self):
        report = self.sample_report()
        assert parse_report(report.to_csv()) == report

    def test_header_layout(self):
        text = self.sample_report().to_csv()
        lines = text.splitlines()
        assert lines[0] == "# experiment=demo"
        assert all(l.startswith("#") for l in lines[:5])
        assert lines[5] == "a,b"

    def test_cells_that_would_corrupt_are_rejected(self):
        report = ExperimentReport("demo", {}, ("a",), (("x,y",),), 0.0)
        with pytest.raises(ValidationError):
            report.to_csv()

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError):
            parse_report("a,b\n1,2\n")  # no experiment line
        text = "# experiment=demo\n# wall_clock=0.1\na,b\n1,2,3\n"
        with pytest.raises(ParseError) as err:
            parse_report(text)
        assert "line 4" in str(err.value)

    def test_empty_string_cells_survive(self):
        report = ExperimentReport(
            "demo", {}, ("a", "b"), ((1, ""), (2, "t")), 0.5
        )
        assert parse_report(report.to_csv()) == report


class TestFrozenRows:
    def test_report_rows_digest(self):
        # recorded while exact correlations still rebuilt a reduced IqpProgram
        # per evaluation and random_program drew one row per rng call;
        # wall_clock is left out
        digest = hashlib.sha256()
        for seed in (3, 21):
            digest.update(repr(exp_fig1b(100, 12, seed=seed).rows).encode())
            digest.update(repr(exp_anticoncentration([10], 16, seed=seed).rows).encode())
        assert digest.hexdigest() == (
            "3ead50009676a6b9e0707160da7bdfb17d09b894a932d4a53db2ec7f13619d02"
        )

    def test_fig1a_rows_digest(self):
        # recorded while correlation_clifford summed _reduce's packed d-bit rows;
        # n = 63, 64, 65 put the main rows on one, one and two words
        rows = exp_fig1a([12, 63, 64, 65], 30, seed=9).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "5b569f9f3160ee4628a40e2ce05ee00974f00a36c4408afcd3a20f0d73ffcedf"
        )


class TestQuantizationHistograms:
    def test_fig1b_counts_and_levels(self):
        report = exp_fig1b(80, 5, seed=4)
        assert report.columns == ("g", "value", "count")
        assert sum(row[2] for row in report.rows) == 80
        for g, value, count in report.rows:
            assert count > 0
            if g == -1:
                assert value == 0.0
            else:
                assert value == pytest.approx(2.0 ** (-g / 2))

    def test_fig1b_deterministic(self):
        assert exp_fig1b(25, 4, seed=2).rows == exp_fig1b(25, 4, seed=2).rows

    def test_fig1a_fractions(self):
        report = exp_fig1a([3, 5], 60, seed=1)
        by_n = {}
        for n, g, value, fraction in report.rows:
            assert 0.0 < fraction <= 1.0
            by_n.setdefault(n, 0.0)
            by_n[n] += fraction
        assert set(by_n) == {3, 5}
        for total in by_n.values():
            assert total == pytest.approx(1.0)

    def test_round_trips(self):
        report = exp_fig1a([3], 20, seed=0)
        assert parse_report(report.to_csv()) == report


class TestDrawsOnRowInts:
    """fig1a/fig1b score each draw on its row ints: the draws and g of the program path.

    The histogram digests above can agree for two different streams; these
    compare every draw, on one word (n <= 63) and on the per-row branch.
    """

    @pytest.mark.parametrize("n", [1, 2, 12, 63, 64, 65])
    def test_each_draw_matches_random_program_and_correlation_clifford(self, n):
        levels = set()
        for i in range(200):
            ints, twin, scalar = seeded_rng(5, i), seeded_rng(5, i), seeded_rng(5, i)
            program = random_program(n, n, "pi8", twin)
            rows = random_nonzero_rows(n, n, ints)
            assert rows == list(program.chi.ints)
            assert rows == [random_nonzero_bits(n, scalar) for _ in range(n)]  # one row per draw
            assert ints.bit_generator.state == twin.bit_generator.state == scalar.bit_generator.state
            want = correlation_clifford(program, BitVector(n, random_nonzero_bits(n, twin))).g
            assert _quantized_one(n, 5, i) == want
            levels.add(want)
        assert len(levels) > 1 or n == 1  # n = 1 has the one level g = 1


class TestAnticoncentration:
    def test_report_shape(self):
        report = exp_anticoncentration([4, 5], circuits=60, seed=3)
        metrics = {(row[0], row[1]) for row in report.rows}
        for n in (4, 5):
            assert (n, "mean_sq") in metrics
            assert (n, "stderr") in metrics
            assert (n, "bound") in metrics
            assert (n, "tail_empirical") in metrics
        for n, metric, a, value in report.rows:
            if metric == "bound":
                assert value == pytest.approx(3.0 / 2.0**n)
            if metric == "tail_empirical":
                assert 0.0 <= value <= 1.0

    def test_round_trip(self):
        report = exp_anticoncentration([4], circuits=30, seed=5)
        assert parse_report(report.to_csv()) == report
        assert exp_anticoncentration([4], circuits=30, seed=5).rows == report.rows

    def test_validation(self):
        for args, message in [
            (([4], 1), "^need at least two circuits, got 1$"),
            (([4], 5, 0), "^need at least one secret per circuit, got 0$"),
            (([], 5), "^need at least one n$"),
            (([4, 0], 5), "^n must be at least 1, got 0$"),
        ]:
            with pytest.raises(ValidationError, match=message):
                exp_anticoncentration(*args)


class TestStackedAnticoncentration:
    """exp_anticoncentration simulates its circuits in stacks; each circuit's
    squared correlations equal the per-circuit path of the public functions."""

    @staticmethod
    def reference(seed, n, circuits, secrets):
        """(values, final generator state per circuit) of random_2local, all_correlations, picks."""
        values, states = [], []
        for i in range(circuits):
            rng = seeded_rng(seed, n, i)
            correlations = all_correlations(random_2local(n, rng))
            picks = rng.integers(0, 1 << n, size=secrets)
            values += [float(correlations[int(p)]) ** 2 for p in picks]
            states.append(rng.bit_generator.state)
        return values, states

    @pytest.mark.parametrize("secrets", [1, 3])
    @pytest.mark.parametrize("n, circuits", [(1, 3), (2, 5), (4, 9), (10, 35), (12, 6), (14, 2)])
    def test_rows_equal_the_per_circuit_reference(self, n, circuits, secrets, monkeypatch):
        per_stack = max(1, experiments._STACK_ENTRIES >> n)
        assert circuits % per_stack or per_stack == 1  # a partial last stack where one can be
        drawn = []

        def recording(*key):
            drawn.append(seeded_rng(*key))
            return drawn[-1]

        monkeypatch.setattr(experiments, "seeded_rng", recording)
        report = exp_anticoncentration([n], circuits, secrets, seed=7)
        values, states = self.reference(7, n, circuits, secrets)
        assert [rng.bit_generator.state for rng in drawn] == states
        want = np.array(values)
        stats = {row[1]: row[3] for row in report.rows if row[2] == ""}
        assert stats["mean_sq"] == float(want.mean())
        assert stats["stderr"] == float(want.std(ddof=1) / np.sqrt(want.size))
        tails = [row[3] for row in report.rows if row[1] == "tail_empirical"]
        assert tails == [float((want >= a).mean()) for a in experiments._TAIL_GRID]

    def test_one_circuit_per_stack_at_n14(self):
        exp_anticoncentration([14], 2, seed=1)  # warm the mask memo and imports
        tracemalloc.start()
        try:
            exp_anticoncentration([14], 3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pipeline peaks near 56 bytes per table entry; two n = 14 circuits
        # in one stack would peak near 97 bytes per entry of one circuit
        assert peak <= 64 << 14, peak


@pytest.mark.parametrize(
    "run",
    [
        lambda: exp_fig1a([3], 2, seed=-1),
        lambda: exp_fig1b(3, 4, seed=-1),
        lambda: exp_anticoncentration([3], 2, seed=-1),
        lambda: exp_parseval(3, 2, seed=-1),
    ],
    ids=["fig1a", "fig1b", "anticoncentration", "parseval"],
)
def test_negative_seed_refused(run):
    with pytest.raises(ValidationError, match="^seed -1 is negative$"):
        run()


class TestParseval:
    def test_identity_holds(self):
        report = exp_parseval(6, 8, seed=7)
        for _, lhs, rhs, diff in report.rows:
            assert diff < 1e-9
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_round_trip_and_determinism(self):
        a = exp_parseval(5, 4, seed=1)
        b = exp_parseval(5, 4, seed=1)
        assert a.rows == b.rows
        assert parse_report(a.to_csv()) == a
