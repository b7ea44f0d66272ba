"""Frozen reply bytes and Monte-Carlo values for fixed seeds.

The digests below were recorded before sample batches were packed into
uint64 words.  For n <= 63 every random draw, and so every reply's wire
bytes, the judged statistics and every Monte-Carlo value, must stay exactly
as they were; challenge bytes must stay the same at any n.  The clifford
digest was recorded with the CH-form stabilizer simulator, before the
backend became an exponential sum: value, g and reduced_dim stay bitwise.
The challenge digest was recorded while the scramble still drew its column
ops one scalar ``rng.integers`` call at a time.  The reply digest was recorded
while replies still held one Python str per sample and were written by
``json.dumps``.  The ensemble digest was recorded while ``random_2local``
and the "uniform-pi8" policy still drew one scalar ``rng.integers`` per
coefficient.  The wide challenge texts and the word-edge Monte-Carlo values
were recorded while padding rows were still XORs of ``nullspace_basis``
vectors through ``combine_rows``, ``row_parities`` still summed one popcount
per word and ``random_rows`` still stacked its word columns.
"""

import hashlib

import numpy as np
import pytest

from iqpverify.bitlin import BitMatrix, BitVector
from iqpverify.cli import main
from iqpverify.evaluators import correlation_clifford, correlation_diagonal
from iqpverify.keygen import (
    ConstructionSpec,
    build_challenge,
    random_2local,
    random_nonzero_bits,
    random_program,
)
from iqpverify.model import (
    Angle,
    IqpProgram,
    SecretKey,
    serialize_key,
    serialize_program,
)
from iqpverify.protocol import (
    ChallengeMsg,
    SecretVerdict,
    acceptance_threshold,
    judge,
    prover_honest,
    prover_leak,
    prover_uniform,
)

T = 2952


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def round_n10():
    program, key = build_challenge(ConstructionSpec(n=10, secrets=2, weight=2, seed=3))
    return ChallengeMsg.from_program(program, T, session="frozen"), key


def test_challenge_bytes(round_n10):
    challenge, _ = round_n10
    assert sha(challenge.encode()) == (
        "3e85aeeb0e53213cbd8d9dd5d4beb6fd2bdcaccc8a6a9b85e4a2d50418656d8a"
    )


def test_wide_challenge_bytes():
    program, _ = build_challenge(ConstructionSpec(n=200, secrets=4, weight=3, seed=5))
    challenge = ChallengeMsg.from_program(program, T, session="frozen")
    assert sha(challenge.encode()) == (
        "f909a6f31fd269b44fd813f7f409ddd98d39ea676900e67c62ffaefbbaebb037"
    )


def test_honest_reply_bytes(round_n10):
    challenge, _ = round_n10
    reply = prover_honest(challenge, np.random.default_rng(11))
    assert sha(reply.encode()) == (
        "acde8043b01ffde1ae234ff959e1a8a278636cbf4bfa7925ee7c91784d076d62"
    )


def test_uniform_reply_bytes(round_n10):
    challenge, _ = round_n10
    reply = prover_uniform(challenge, np.random.default_rng(12))
    assert sha(reply.encode()) == (
        "6571519235fe4fff0dc095a991bd17a3b049fd6f22d6692de7642295df85b306"
    )


def test_leak_reply_bytes(round_n10):
    challenge, key = round_n10
    leaked = SecretKey((key.secrets[0],), (key.expected[0],))
    reply = prover_leak(challenge, leaked, np.random.default_rng(13))
    assert sha(reply.encode()) == (
        "e68247d988225e1821673ba7ad4c35655ee67ec0d47cc1431c3a82e2098fdd96"
    )


def test_honest_verdict(round_n10):
    challenge, key = round_n10
    reply = prover_honest(challenge, np.random.default_rng(11))
    epsilon = acceptance_threshold(key, 1e-6, T)
    report = judge(key, reply.batch, epsilon)
    assert report.per_secret == (
        SecretVerdict(0.7071067811865476, 0.7066395663956639, 0.00046721479088362994, True),
        SecretVerdict(0.7071067811865476, 0.6998644986449865, 0.007242282541561118, True),
    )
    assert report.accept and report.samples_used == T
    assert report.epsilon == 0.10148559417936016


def test_monte_carlo_value():
    program = random_program(10, 14, "uniform-pi8", np.random.default_rng(5))
    s = BitVector.from_string("1011001101")
    result = correlation_diagonal(program, s, samples=T, rng=np.random.default_rng(14))
    assert result.value == 0.023474412112561592


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            ConstructionSpec(n=200, secrets=4, weight=3, seed=5, redundant_rows=400),
            "bdc1e3404fe719be94dfb726dfeddeaa199847551a64ef9aaa649c52af2e55a5",
        ),
        (
            ConstructionSpec(n=1000, secrets=4, weight=3, seed=7),
            "b02e80745ada8397b1ff262d2b7b6732042abf4d89c2182f8d37d81fb6c6eb88",
        ),
        (
            ConstructionSpec(n=64, secrets=8, weight=8, seed=2, redundant_rows=128),
            "7a3bc19af13b3da9037b47d3f2a8f3867f1445b840259d42c2a7f73d7245f195",
        ),
    ],
)
def test_wide_challenge_text(spec, expected):
    program, key = build_challenge(spec)
    assert sha((serialize_program(program) + serialize_key(key)).encode()) == expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (63, -0.015809297953357684),
        (64, -0.009485094850948754),
        (65, -0.024432551382461955),
        (200, -0.020120924667909653),
    ],
)
def test_monte_carlo_word_edges(n, expected):
    # 12 uniform rows plus one main row on bits 0 and 62..65 (those below n)
    rng = np.random.default_rng(n)
    program = random_program(n, 12, "uniform-pi8", rng)
    s = BitVector(n, random_nonzero_bits(n, rng))
    edge = sum(1 << i for i in (0, 62, 63, 64, 65) if i < n)
    edge ^= 0 if (edge & s.bits).bit_count() & 1 else s.bits & -s.bits
    rows = program.chi.rows + (BitVector(n, edge),)
    program = IqpProgram(BitMatrix(rows, cols=n), program.angles + (Angle(3, 8),))
    result = correlation_diagonal(program, s, samples=T, rng=np.random.default_rng(n + 1))
    assert repr(result.value) == repr(expected)


def test_clifford_digest():
    # n in 1..16, and 60..130 for every tenth program; w*pi/8 with w in
    # 0..15; about one secret in eight is zero
    rng = np.random.default_rng(8)
    digest = hashlib.sha256()
    for i in range(3000):
        n = int(rng.integers(60, 131)) if i % 10 == 0 else int(rng.integers(1, 17))
        m = int(rng.integers(0, 21))
        rows = [BitVector(n, random_nonzero_bits(n, rng)) for _ in range(m)]
        angles = tuple(Angle(int(rng.integers(0, 16)), 8) for _ in range(m))
        program = IqpProgram(BitMatrix(rows, cols=n), angles)
        s = 0 if rng.integers(0, 8) == 0 else random_nonzero_bits(n, rng)
        r = correlation_clifford(program, BitVector(n, s))
        digest.update(f"{r.value!r} {r.g} {r.reduced_dim};".encode())
    assert digest.hexdigest() == (
        "cb83acbd6f38d6b1e069a72750f6fd7de16b947860515ff7b36e97023eda7851"
    )


def test_challenge_digest():
    # padding up to 2n rows; explicit op counts up to 25n, or the default
    # 20n; n = 2 scrambles with no dst draws
    rng = np.random.default_rng(9)
    digest = hashlib.sha256()
    for i in range(296):
        n = (2, 3, 6, 10, 18, 64, 65, 200)[i % 8]
        weight = int(rng.integers(1, min(3, n - 1) + 1))
        secrets = int(rng.integers(1, min(4, (n - 1) // weight) + 1))
        ops = None if rng.integers(0, 4) == 0 else int(rng.integers(0, 25 * n + 1))
        spec = ConstructionSpec(
            n=n,
            secrets=secrets,
            weight=weight,
            redundant_rows=int(rng.integers(0, 2 * n + 1)),
            scramble_ops=ops,
            seed=i,
        )
        program, key = build_challenge(spec)
        challenge = ChallengeMsg.from_program(program, T, session="frozen")
        digest.update(challenge.encode() + serialize_key(key).encode())
    assert digest.hexdigest() == (
        "b02a809ea7f8cfd328afee78cc487e7d6acfe9cc41b99bd5212897b092b41e1b"
    )


def test_ensemble_digest():
    # both random ensembles at the packed word edges, m = 0 included, then
    # the generator's final state
    rng = np.random.default_rng(16)
    digest = hashlib.sha256()
    for i in range(160):
        n = (1, 2, 5, 10, 31, 63, 64, 65)[i % 8]
        digest.update(serialize_program(random_2local(n, rng)).encode())
        m = int(rng.integers(0, 2 * n + 1))
        digest.update(serialize_program(random_program(n, m, "uniform-pi8", rng)).encode())
    digest.update(rng.bytes(8))
    assert digest.hexdigest() == (
        "0c2e758524fd9161530bfbc8acbc5dad5f796cf1ff435db64939f23aeb976b6f"
    )


def test_reply_digest(tmp_path):
    # all three provers at the packed word edges n = 1, 63, 64, 65 and on
    # the n=200 seed-5 challenge (rank 12); one session needing JSON escapes;
    # then the text `iqp-verify sample` writes
    rng = np.random.default_rng(15)
    digest = hashlib.sha256()
    rounds = []
    for n in (1, 63, 64, 65):
        program = random_program(n, 8, "uniform-pi8", rng)
        secret = BitVector(n, random_nonzero_bits(n, rng))
        rounds.append((program, SecretKey((secret,), (0.5,)), "frozen"))
    program, key = build_challenge(ConstructionSpec(n=200, secrets=4, weight=3, seed=5))
    rounds.append((program, SecretKey(key.secrets[:1], key.expected[:1]), "frozen"))
    rounds.append((rounds[0][0], rounds[0][1], 'é "x\\'))
    for program, leaked, session in rounds:
        challenge = ChallengeMsg.from_program(program, 300, session=session)
        digest.update(prover_honest(challenge, np.random.default_rng(21)).encode())
        digest.update(prover_uniform(challenge, np.random.default_rng(22)).encode())
        digest.update(prover_leak(challenge, leaked, np.random.default_rng(23)).encode())
    program, _ = build_challenge(ConstructionSpec(n=10, secrets=2, weight=2, seed=3))
    (tmp_path / "p.iqp").write_text(serialize_program(program))
    out = tmp_path / "s.txt"
    args = ["sample", "--program", tmp_path / "p.iqp", "--count", 50, "--seed", 3]
    assert main([str(a) for a in args + ["--out", out]]) == 0
    digest.update(out.read_bytes())
    assert digest.hexdigest() == (
        "07667bfb4bf770435cd98332aef3744cbc4bf8e375deb033380fb11b58725bd8"
    )
