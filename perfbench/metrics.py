"""Metric tables, the percentile rule, and the per-layer figures of a traced run.

The names and units here must match ``BENCHMARK.json``; the benchmark's own
tests check that they do.
"""

from __future__ import annotations

import math
import re
import statistics

from spans import Tracer, summarize

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Every workload reports every end-to-end metric (tracing off).  What an
# "operation" and an "item" are depends on the workload; see README.md.
# Operation times are in "ref", multiples of the reference loop timed just
# before each operation (``run.reference``), because the shared host's speed
# drifts by more than the largest bound a metric may have.  The raw
# milliseconds and the p90 go to the info line.
END_TO_END = {
    "op_cost_p50": "ref",
    "items_per_kref": "1/kref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("protocol", "evaluators", "bitlin", "keygen", "model", "chform", "experiments")

# Every workload reports every per-layer metric (tracing on); a layer the
# workload does not exercise reads 0.  Times are ms per operation.
PER_LAYER = {
    "protocol.challenge_encode_ms": "ms",
    "protocol.challenge_decode_ms": "ms",
    "protocol.prover_honest_self_ms": "ms",
    "protocol.prover_uniform_ms": "ms",
    "protocol.prover_leak_ms": "ms",
    "protocol.reply_encode_ms": "ms",
    "protocol.reply_decode_ms": "ms",
    "protocol.to_vectors_ms": "ms",
    "protocol.judge_ms": "ms",
    "protocol.run_verification_self_ms": "ms",
    "protocol.bytes_to_prover": "bytes",
    "protocol.bytes_to_verifier": "bytes",
    "protocol.errors": "count",
    "evaluators.output_distribution_self_ms": "ms",
    "evaluators.sample_outputs_self_ms": "ms",
    "evaluators.dense_entries": "count",
    "bitlin.walsh_hadamard_ms": "ms",
    "keygen.search_main_part_ms": "ms",
    "keygen.search_hit_ratio": "ratio",
    "keygen.add_redundant_rows_ms": "ms",
    "keygen.scramble_self_ms": "ms",
    "keygen.self_check_ms": "ms",
    "bitlin.add_column_ms": "ms",
    "bitlin.add_column_calls": "count",
    "evaluators.correlation_clifford_ms": "ms",
    "evaluators.correlation_subspace_ms": "ms",
    "evaluators.correlation_mc_ms": "ms",
    "evaluators.mc_outside_bound": "count",
    "model.partition_ms": "ms",
    "chform.apply_h_ms": "ms",
    "chform.h_gates": "count",
    "chform.cx_gates": "count",
    "experiments.threads": "count",
    "experiments.parallel_map_ms": "ms",
    "experiments.parallel_efficiency": "ratio",
    "evaluators.all_correlations_ms": "ms",
    **{f"{m}.self_ms": "ms" for m in MODULES},
    "trace.overhead_ms": "ms",
    "trace.spans_per_op": "count",
    "trace.missing_targets": "count",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the data at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


REF_WINDOW = 5


def costs(elapsed, refs, window: int = REF_WINDOW) -> list[float]:
    """Each operation's time in reference loops.

    ``elapsed[i]`` is divided by the median of the reference timings in a
    ``window`` centred on operation ``i``, so one reference loop that was
    preempted does not skew its operation.
    """
    if len(elapsed) != len(refs):
        raise ValueError("one reference timing per operation")
    half = window // 2
    return [
        t / statistics.median(refs[max(0, i - half): i + half + 1])
        for i, t in enumerate(elapsed)
    ]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-percentile."""
    return count - max(1, math.ceil(q * count))


def layer_metrics(tracer: Tracer, ops: int, notes: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced phase of ``ops`` operations.

    ``notes`` holds the counts the workload's checks kept during the phase.
    Times and per-op counts are per operation; ratios, thread counts and
    the workload's notes are not.
    """
    by_name, by_parent = summarize(tracer.spans)
    counts = tracer.counts

    def ms(*names: str, own: bool = False) -> float:
        total = sum(
            by_name[n].self_time if own else by_name[n].total
            for n in names
            if n in by_name
        )
        return 1e3 * total / ops

    def under(name: str, parent: str) -> float:
        stats = by_parent.get((name, parent))
        return 1e3 * stats.total / ops if stats else 0.0

    def calls(name: str) -> int:
        return by_name[name].calls if name in by_name else 0

    searches = calls("keygen.search_main_part")
    attempts = by_parent.get(("evaluators.correlation_clifford", "keygen.search_main_part"))
    wall = sum(m[0] for m in tracer.maps)
    busy = sum(m[1] for m in tracer.maps)
    threads = max((m[2] for m in tracer.maps), default=0)
    out = {
        "protocol.challenge_encode_ms": ms(
            "protocol.ChallengeMsg.from_program", "protocol.ChallengeMsg.encode"
        ),
        "protocol.challenge_decode_ms": ms("protocol.ChallengeMsg.from_payload"),
        "protocol.prover_honest_self_ms": ms("protocol.prover_honest", own=True),
        "protocol.prover_uniform_ms": ms("protocol.prover_uniform"),
        "protocol.prover_leak_ms": ms("protocol.prover_leak"),
        "protocol.reply_encode_ms": ms("protocol.SamplesMsg.encode"),
        "protocol.reply_decode_ms": ms(
            "protocol.SamplesMsg.from_payload", "protocol.SamplesMsg.check_against"
        ),
        "protocol.to_vectors_ms": ms("protocol.SamplesMsg.to_vectors"),
        "protocol.judge_ms": ms("protocol.judge"),
        "protocol.run_verification_self_ms": ms("protocol.run_verification", own=True),
        "protocol.bytes_to_prover": counts["bytes_to_prover"] / ops,
        "protocol.bytes_to_verifier": counts["bytes_to_verifier"] / ops,
        "protocol.errors": notes.get("protocol_errors", 0),
        "evaluators.output_distribution_self_ms": ms(
            "evaluators.output_distribution", own=True
        ),
        "evaluators.sample_outputs_self_ms": ms("evaluators.sample_outputs", own=True),
        "evaluators.dense_entries": counts["dense_entries"] / ops,
        "bitlin.walsh_hadamard_ms": ms("bitlin.walsh_hadamard"),
        "keygen.search_main_part_ms": ms("keygen.search_main_part"),
        "keygen.search_hit_ratio": searches / attempts.calls if attempts else 0.0,
        "keygen.add_redundant_rows_ms": ms("keygen.add_redundant_rows"),
        "keygen.scramble_self_ms": ms("keygen.scramble", own=True),
        "keygen.self_check_ms": under(
            "evaluators.correlation_clifford", "keygen.build_challenge"
        ),
        "bitlin.add_column_ms": ms("bitlin.add_column"),
        "bitlin.add_column_calls": calls("bitlin.add_column") / ops,
        "evaluators.correlation_clifford_ms": under(
            "evaluators.correlation_clifford", "evaluators.evaluate"
        ),
        "evaluators.correlation_subspace_ms": ms("evaluators.correlation_subspace"),
        "evaluators.correlation_mc_ms": ms("evaluators.correlation_diagonal"),
        "evaluators.mc_outside_bound": notes.get("mc_outside_bound", 0),
        "model.partition_ms": ms("model.partition"),
        "chform.apply_h_ms": ms("chform.CHForm.apply_h"),
        "chform.h_gates": calls("chform.CHForm.apply_h") / ops,
        "chform.cx_gates": counts["chform.CHForm.apply_cx"] / ops,
        "experiments.threads": threads,
        "experiments.parallel_map_ms": ms("experiments.parallel_map"),
        "experiments.parallel_efficiency": busy / (wall * threads) if wall and threads else 0.0,
        "evaluators.all_correlations_ms": ms("evaluators.all_correlations"),
        "trace.spans_per_op": len(tracer.spans) / ops,
        "trace.missing_targets": len(tracer.missing),
    }
    for module in MODULES:
        own = sum(s.self_time for n, s in by_name.items() if n.split(".")[0] == module)
        out[f"{module}.self_ms"] = 1e3 * own / ops
    return out
