"""Tests for the benchmark's own helpers, plus a short smoke run of every workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import iqpverify  # noqa: E402
import run  # noqa: E402
from iqpverify import protocol  # noqa: E402
from metrics import END_TO_END, NAME_RE, PER_LAYER, beyond, costs, percentile  # noqa: E402
from spans import Target, Tracer, covered, summarize  # noqa: E402
from workloads import WORKLOADS, wire_leaks  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(reversed(values), 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_ten_samples_beyond_the_tail():
    assert beyond(100, 0.9) == 10
    assert beyond(99, 0.9) == 9
    assert beyond(55, 0.75) == 13
    assert beyond(1, 0.9) == 0


def test_cost_divides_by_the_median_of_nearby_reference_timings():
    refs = [1.0, 1.0, 100.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    got = costs([10.0] * 8, refs, window=5)
    assert got[0] == 10.0
    assert got[2] == 10.0  # one preempted reference loop is outvoted
    assert got[7] == 5.0
    with pytest.raises(ValueError):
        costs([1.0], [])


def test_reference_loop_takes_measurable_time():
    assert 0.0 < run.reference() < 1.0


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_children_only():
    spans = [
        (0, "a.outer", None, 0.0, 10.0),
        (1, "b.child", 0, 1.0, 4.0),
        (2, "b.child", 0, 3.0, 5.0),  # overlaps its sibling, as pool threads do
        (3, "c.grandchild", 1, 1.5, 2.0),
    ]
    by_name, by_parent = summarize(spans)
    assert by_name["a.outer"].self_time == pytest.approx(6.0)
    assert by_name["b.child"].calls == 2
    assert by_name["b.child"].total == pytest.approx(5.0)
    assert by_name["b.child"].self_time == pytest.approx(4.5)
    assert by_parent["c.grandchild", "b.child"].total == pytest.approx(0.5)
    assert by_parent["a.outer", None].calls == 1


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for table, key in ((END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert not NAME_RE.fullmatch("bad name")
    assert not NAME_RE.fullmatch("_leading")


def test_missing_target_is_reported_not_raised():
    original = protocol.judge
    tracer = Tracer().install(
        [
            Target("protocol", "no_such_function"),
            Target("protocol", "NoSuchClass.method"),
            Target("no_such_module", "anything"),
            Target("protocol", "judge"),
        ]
    )
    try:
        assert tracer.missing == [
            "protocol.no_such_function",
            "protocol.NoSuchClass.method",
            "no_such_module.anything",
        ]
        assert protocol.judge is not original
        assert iqpverify.judge is protocol.judge
    finally:
        tracer.uninstall()
    assert protocol.judge is original
    assert iqpverify.judge is original


def test_classmethod_targets_stay_classmethods():
    msg = protocol.SamplesMsg("s", ("01",))
    tracer = Tracer().install([Target("protocol", "SamplesMsg.from_payload")])
    try:
        assert protocol.SamplesMsg.from_payload(msg.to_payload()) == msg
    finally:
        tracer.uninstall()
    assert [s[1] for s in tracer.spans] == ["protocol.SamplesMsg.from_payload"]


def test_span_on_another_thread_is_parented_to_the_open_home_span():
    tracer = Tracer()
    worker = tracer.span("x.worker", lambda: None)

    def outer():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    tracer.span("x.outer", outer)()
    (child,) = [s for s in tracer.spans if s[1] == "x.worker"]
    (parent,) = [s for s in tracer.spans if s[1] == "x.outer"]
    assert child[2] == parent[0]


def test_wire_scan_finds_secrets_but_allows_public_rows():
    program, key = iqpverify.build_challenge(
        iqpverify.ConstructionSpec(n=10, secrets=2, weight=2, seed=3)
    )
    challenge = protocol.ChallengeMsg.from_program(program, 5, "ab" * 16).encode()
    assert wire_leaks(program, key, [("to_prover", challenge)]) == []
    secret = key.secrets[0].to01().encode()
    assert wire_leaks(program, key, [("to_prover", challenge + secret)])
    value = repr(key.expected[1]).encode()
    assert wire_leaks(program, key, [("to_verifier", b'{"x":' + value + b"}")])
    # a prover's sample that happens to equal a secret is not a leak
    assert wire_leaks(program, key, [("to_verifier", secret)]) == []
    row = program.chi.rows[0].to01()
    assert wire_leaks(program, _key_with_secret(key, row), [("to_prover", challenge)]) == []


def _key_with_secret(key, text):
    secret = iqpverify.BitVector.from_string(text)
    return iqpverify.SecretKey((secret,), (key.expected[0],))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
        )
    assert code == 0
    info_line, result_line = out.getvalue().splitlines()[-2:]
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    table = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert info["seed"] == 5 and info["machine"]["nproc"] >= 1
    if trace:
        assert info["missing_spans"] == []
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in END_TO_END)


def test_unknown_workload_exits_nonzero():
    with contextlib.redirect_stderr(io.StringIO()):
        assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
