"""The benchmark's workloads: set-up, one timed operation, and its output check.

Each workload is driven in a closed loop by one client: ``run(i)`` is timed,
``check(i, result)`` is not.  Latency percentiles cover the operations for
which ``primary(i)`` holds (honest rounds where provers are mixed);
throughput counts the ``items_per_op`` of every operation that passed.
Every seed the program sees is derived from the workload seed, so the same
seed gives the same inputs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# Calls go through the package namespace, which the traced run patches.
import iqpverify as iqp
from iqpverify import ConstructionSpec, ProverServer, ProtocolError, SecretKey

T = iqp.mc_sample_count(0.05, 0.05)  # 2952, the paper's sample budget
# The verifier's failure probability.  It only sets the judging threshold, so
# the work per round is the same as at 0.05; at 1e-6 an honest round is
# rejected with probability below 1e-6, where 0.05 gives about 6e-5 per n=10
# round, enough that "every honest round accepts" would fail now and then.
DELTA = 1e-6


def derive(seed: int, *labels: int) -> int:
    """A 32-bit seed for one consumer, fixed by the workload seed and labels."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def wire_leaks(program, key: SecretKey, wire) -> list[str]:
    """What of the key shows in the captured bytes (criterion 8's scan).

    Secret strings are looked for in the challenge only: the prover's samples
    are n-bit strings too and may equal a secret by chance.  A secret string
    may appear in a challenge as often as the public program itself has that
    row.  Expected values are looked for, as ``repr`` and ``%.6f``, in both
    directions.
    """
    rows = [row.to01() for row in program.chi.rows]
    leaks = []
    for direction, data in wire:
        if direction == "to_prover":
            for s in key.secrets:
                text = s.to01()
                if data.count(text.encode()) > rows.count(text):
                    leaks.append(f"secret {text} in challenge")
        for e in key.expected:
            for text in (repr(e), f"{e:.6f}"):
                if text.encode() in data:
                    leaks.append(f"expected value {text} sent {direction}")
    return leaks


class Rounds:
    """Verification rounds against in-process prover servers on loopback.

    ``cycle`` fixes the prover behind each round; the leak prover knows
    secret 0 only, so against the full key it must be rejected.
    """

    items_per_op = 1

    def __init__(self, seed: int, n: int, secrets: int, cycle: tuple[str, ...]):
        self.program, self.key = iqp.build_challenge(
            ConstructionSpec(n=n, secrets=secrets, weight=2, seed=derive(seed, 0))
        )
        leaked = SecretKey((self.key.secrets[0],), (self.key.expected[0],))
        self.cycle = cycle
        self.servers = {}
        for tag, kind in enumerate(sorted(set(cycle)), start=1):
            self.servers[kind] = ProverServer(
                prover=kind,
                leaked_key=leaked if kind == "leak" else None,
                seed=derive(seed, tag),
            ).start()
        self._sessions = np.random.default_rng(derive(seed, 9))
        self.notes: Counter = Counter()

    def primary(self, i: int) -> bool:
        return self.cycle[i % len(self.cycle)] == "honest"

    def run(self, i: int):
        prover = self.cycle[i % len(self.cycle)]
        session = self._sessions.bytes(16).hex()
        try:
            return iqp.run_verification(
                self.servers[prover].address,
                self.program,
                self.key,
                T,
                delta=DELTA,
                session=session,
            )
        except (ProtocolError, OSError) as exc:
            return exc

    def check(self, i: int, report, wire=()) -> bool:
        if isinstance(report, Exception):
            self.notes["protocol_errors"] += 1
            return False
        leaks = wire_leaks(self.program, self.key, wire)
        self.notes["wire_leaks"] += len(leaks)
        wrong = report.accept != self.primary(i)
        self.notes["wrong_verdicts"] += wrong
        return not (wrong or leaks)

    def close(self) -> None:
        for server in self.servers.values():
            server.close()


class KeygenWide:
    """Verifier-side issuance: build a wide challenge, then evaluate each secret."""

    N, SECRETS, WEIGHT = 200, 4, 3
    items_per_op = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.notes: Counter = Counter()

    def primary(self, i: int) -> bool:
        return True

    def run(self, i: int):
        spec = ConstructionSpec(
            n=self.N, secrets=self.SECRETS, weight=self.WEIGHT, seed=derive(self.seed, 1, i)
        )
        program, key = iqp.build_challenge(spec)
        rng = np.random.default_rng(derive(self.seed, 2, i))
        values = [
            (
                iqp.evaluate(program, s, "clifford"),
                iqp.evaluate(program, s, "subspace"),
                iqp.evaluate(program, s, "diagonal_mc", samples=T, rng=rng),
            )
            for s in key.secrets
        ]
        return key, values

    def check(self, i: int, result, wire=()) -> bool:
        key, values = result
        ok = len(values) == self.SECRETS
        for e, (clifford, subspace, mc) in zip(key.expected, values):
            ok &= abs(clifford.value - e) <= 1e-9 and abs(subspace.value - e) <= 1e-9
            if abs(mc.value - e) > mc.error_bound:
                self.notes["mc_outside_bound"] += 1
        return ok

    def close(self) -> None:
        pass


class Experiments:
    """One operation is an exp_fig1b run followed by an exp_anticoncentration run."""

    FIG_COUNT, FIG_N = 100, 12
    ANTI_CIRCUITS, ANTI_N = 16, 10
    items_per_op = FIG_COUNT + ANTI_CIRCUITS  # programs processed

    def __init__(self, seed: int):
        self.seed = seed
        self.notes: Counter = Counter()

    def primary(self, i: int) -> bool:
        return True

    def run(self, i: int):
        s = derive(self.seed, i)
        return (
            iqp.exp_fig1b(self.FIG_COUNT, self.FIG_N, seed=s),
            iqp.exp_anticoncentration([self.ANTI_N], self.ANTI_CIRCUITS, seed=s),
        )

    def check(self, i: int, result, wire=()) -> bool:
        fig, anti = result
        ok = sum(row[2] for row in fig.rows) == self.FIG_COUNT
        for g, value, _ in fig.rows:
            ok &= (g == -1 and value == 0.0) or (0 <= g <= self.FIG_N and value == 2.0 ** (-g / 2.0))
        stats = {row[1]: row[3] for row in anti.rows if row[2] == ""}
        ok &= stats["mean_sq"] <= 3.0 / 2**self.ANTI_N + 3.0 * stats["stderr"]
        return bool(ok)

    def close(self) -> None:
        pass


WORKLOADS = {
    "protocol-n10": lambda seed: Rounds(seed, 10, 2, ("honest", "uniform", "honest", "leak")),
    "round-n18": lambda seed: Rounds(seed, 18, 4, ("honest",)),
    "keygen-wide": KeygenWide,
    "experiments": Experiments,
}
