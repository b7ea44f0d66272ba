"""Wire codec, judging rules, provers, and live loopback exchanges."""

import contextlib
import hashlib
import json
import logging
import math
import select
import socket
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpverify import evaluators, protocol
from iqpverify.bitlin import (
    BitMatrix,
    BitVector,
    pack_bits,
    pack_ints,
    pack_rows,
    random_rows,
    rank,
    row_ints,
    words_per_row,
)
from iqpverify.errors import CapacityError, ProtocolError, ValidationError
from iqpverify.keygen import ConstructionSpec, build_challenge
from iqpverify.evaluators import STATEVECTOR_CAP, _sampling_table
from iqpverify.model import PI_OVER_8, Angle, IqpProgram, SecretKey, seeded_rng
from iqpverify.protocol import (
    MAX_MESSAGE_BYTES,
    ChallengeMsg,
    ProverServer,
    SamplesMsg,
    WeakSignalWarning,
    _challenge_members,
    _decode_line,
    _encode,
    _recv_line,
    acceptance_threshold,
    judge,
    prover_honest,
    prover_leak,
    prover_uniform,
    request,
    run_verification,
)
from iqpverify.keygen import random_program


def small_program(seed=0, n=5, m=6):
    return random_program(n, m, "pi8", np.random.default_rng(seed))


def rank_above_cap_program(n=30):
    rows = [(1 << n) - (1 << i) for i in range(n)]  # coordinates i..n-1
    program = IqpProgram(BitMatrix.from_ints(rows, n), (PI_OVER_8,) * n)
    assert rank(program.chi) == n > STATEVECTOR_CAP
    return program


def rank_d_program(n, d, seed=0):
    """d rows with unit low parts and random bits above them, so rank d, then two repeats."""
    rng = np.random.default_rng(seed)
    high = row_ints(random_rows(n, d, rng))
    rows = [(1 << i) | (h >> d << d) for i, h in enumerate(high)]
    rows += rows[:2]
    angles = tuple(Angle(int(k), 16) for k in rng.integers(1, 32, size=len(rows)))
    return IqpProgram(BitMatrix.from_ints(rows, n), angles)


def wide_program(n=5_000_000):
    """One row on n qubits: rank 1, but 2 KiB of XOR lookups per 64 columns, 153 MiB at 5e6."""
    return IqpProgram(BitMatrix.from_ints([(1 << n) - 1], n), (PI_OVER_8,))


def challenge_payload(**overrides):
    base = json.loads(ChallengeMsg.from_program(small_program(), 10, session="abc").encode())
    base.update(overrides)
    return base


# (overrides of a valid n=5, m=6 challenge, code, detail), in from_payload's check order
CHALLENGE_REJECTIONS = [
    ({"type": "smaples"}, "bad-type", "expected challenge, got 'smaples'"),
    ({"session": ""}, "bad-session", "session must be a non-empty string"),
    ({"session": 7}, "bad-session", "session must be a non-empty string"),
    ({"n": 0}, "bad-n", "n must be a positive integer"),
    ({"n": "5"}, "bad-n", "n must be a positive integer"),
    ({"rows": []}, "bad-row", "rows must be a non-empty list"),
    ({"rows": ["11x01"]}, "bad-row", "bad row '11x01' for n=5"),
    ({"rows": ["110"]}, "bad-row", "bad row '110' for n=5"),
    ({"rows": ["00000"]}, "bad-row", "all-zero row"),
    ({"angles": [[1, 8]]}, "bad-angle", "need one [num, den] pair per row"),
    ({"angles": "x"}, "bad-angle", "need one [num, den] pair per row"),
    ({"t": 0}, "bad-count", "t must be a positive integer"),
    ({"t": 2.5}, "bad-count", "t must be a positive integer"),
    ({"t": 10**12}, "capacity", "t=1000000000000 at n=5 exceeds the reply limit of 8388602"),
    ({"n": True}, "bad-n", "n must be a positive integer"),
    ({"rows": "11011"}, "bad-row", "rows must be a non-empty list"),
    ({"rows": [11011]}, "bad-row", "bad row 11011 for n=5"),
    ({"rows": [" 1101"]}, "bad-row", "bad row ' 1101' for n=5"),
    ({"rows": ["1_101"]}, "bad-row", "bad row '1_101' for n=5"),
    # each row is checked whole, in order, and every row before any angle
    ({"rows": ["00000", "11x01"]}, "bad-row", "all-zero row"),
    ({"rows": ["11x01", "00000"]}, "bad-row", "bad row '11x01' for n=5"),
    ({"rows": ["00000"], "angles": "x"}, "bad-row", "all-zero row"),
    ({"angles": [[1, 8]] * 5 + [[1, 8, 1]]}, "bad-angle", "bad angle entry [1, 8, 1]"),
    ({"angles": [[1, 8]] * 5 + [[1, 8.0]]}, "bad-angle", "bad angle entry [1, 8.0]"),
    ({"angles": [[1, 8]] * 5 + [[True, 8]]}, "bad-angle", "bad angle entry [True, 8]"),
    ({"angles": [[1, 8]] * 5 + [(1, 8)]}, "bad-angle", "bad angle entry (1, 8)"),
    ({"angles": [[1, 8]] * 5 + [[1, -8]]}, "bad-angle", "denominator -8 not positive"),
    (
        {"angles": [[1, 8]] * 5 + [[10**400, 10**400 + 1]]},
        "bad-angle",
        "angle fraction is too large for a float",
    ),
    # every angle before the count
    ({"angles": [[1, 0]] * 6, "t": 0}, "bad-angle", "denominator 0 not positive"),
    ({"t": False}, "bad-count", "t must be a positive integer"),
]


class FakeSock:
    def __init__(self, chunks):
        self._chunks = iter(chunks)

    def gettimeout(self):
        return 5.0

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        return next(self._chunks, b"")

    def sendall(self, data):
        pass


def serve_one_reply(reply, gap=None):
    """A one-shot loopback prover that answers the first challenge line with ``reply``.

    With ``gap``, it sends the reply one byte every ``gap`` seconds and stops
    early once the verifier hangs up.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                _recv_line(conn, time.monotonic() + 5)
                if gap is None:
                    conn.sendall(reply)
                    return
                with contextlib.suppress(OSError):  # the verifier hung up
                    for k in range(len(reply)):
                        conn.sendall(reply[k : k + 1])
                        time.sleep(gap)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def ask_server(server, line):
    """Send one raw line to a running server and return its decoded reply."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(line)
        return json.loads(_recv_line(sock, time.monotonic() + 5))


def json_outcome(line, challenge):
    """The json path's reading of a reply line: its batch bytes, or (code, detail)."""
    try:
        return SamplesMsg.from_payload(_decode_line(line), challenge).batch.tobytes()
    except ProtocolError as exc:
        return exc.code, exc.detail


def exchange_outcome(line, challenge):
    """The same for what the verifier's exchange makes of the line."""
    try:
        sock = FakeSock([line + b"\n"])
        return protocol._exchange(sock, challenge, time.monotonic() + 5).batch.tobytes()
    except ProtocolError as exc:
        return exc.code, exc.detail


def assert_read_as_json_path(line, challenge):
    """The one-pass reader gives the json path's batch or None; the exchange agrees."""
    want = json_outcome(line, challenge)
    got = protocol._read_encoded_reply(line, challenge)
    if isinstance(want, tuple):
        assert got is None, (line, want)
    else:
        assert got is None or (got.dtype, got.tobytes()) == (np.uint64, want), line
    if b"\n" not in line:  # a newline would end the line early on the socket
        assert exchange_outcome(line, challenge) == want, line
    return got, want


class TestCodec:
    def test_challenge_round_trip(self):
        program = small_program()
        msg = ChallengeMsg.from_program(program, 25)
        back = ChallengeMsg.from_payload(_decode_line(msg.encode()))
        assert back == msg
        assert back.program == program

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_challenge_round_trip_random(self, n, m, seed):
        program = random_program(n, m, "uniform-pi8", np.random.default_rng(seed))
        msg = ChallengeMsg.from_program(program, 3)
        back = ChallengeMsg.from_payload(_decode_line(msg.encode()))
        assert back.program == program

    def test_decoded_program_across_word_boundaries(self):
        for n in (1, 63, 64, 65, 200):
            program = random_program(n, 2 * n + 3, "uniform-pi8", np.random.default_rng(n))
            msg = ChallengeMsg.from_program(program, 3)
            assert msg.n == n
            back = ChallengeMsg.from_payload(_decode_line(msg.encode()))
            assert back.program == program
            assert back.encode() == msg.encode()

    @pytest.mark.parametrize("session", ["abc", 'a"b\\c', "\u00e9", "\u2028"])
    def test_members_are_the_bytes_inside_the_frame_encode_writes(self, session):
        # sessions that JSON escapes: a quote and a backslash, non-ASCII, a line separator
        msg = ChallengeMsg.from_program(small_program(), 10, session=session)
        line = msg.encode()[:-1]
        payload = json.loads(line)
        assert payload["session"] == session
        members = {k: payload[k] for k in ("n", "rows", "angles")}
        assert _challenge_members(line, payload) == _encode(members)[1:-2]
        assert line == _encode(payload)[:-1]  # the frame round-trips as compact json
        spaced = json.dumps(json.loads(line)).encode()
        bare = _encode({"type": "challenge", "session": session, "t": 10})[:-1]  # halves overlap
        for other in (spaced, bare):
            assert _challenge_members(other, json.loads(other)) is None
        for other, t in ((7, 10), (session, "10"), (None, 10)):  # not a str session, an int t
            payload = {**json.loads(line), "session": other, "t": t}
            assert _challenge_members(_encode(payload)[:-1], payload) is None

    def test_noncanonical_angles_decode_to_canonical(self):
        # angles fold mod 2 pi and reduce: 25/8, 41/8 and -7/8 are 9/8; 2/16 and 17/8 are 1/8
        rows = ["11000", "00110", "01011"]
        canonical = challenge_payload(rows=rows, angles=[[9, 8], [1, 8], [9, 8]])
        msg = ChallengeMsg.from_payload(canonical)
        assert msg.program.angles == (Angle(9, 8), PI_OVER_8, Angle(9, 8))
        assert json.loads(msg.encode()) == canonical
        replies = {prover_honest(msg, np.random.default_rng(7)).encode()}
        for angles in ([[25, 8], [2, 16], [-7, 8]], [[9, 8], [17, 8], [41, 8]]):
            other = ChallengeMsg.from_payload(challenge_payload(rows=rows, angles=angles))
            assert other == msg
            assert json.loads(other.encode()) == canonical
            # every spelling of one program gets a byte-identical reply
            replies.add(prover_honest(other, np.random.default_rng(7)).encode())
        assert len(replies) == 1

    def test_samples_round_trip(self):
        program = IqpProgram(BitMatrix.from_strings(["11"]), (PI_OVER_8,))
        challenge = ChallengeMsg.from_program(program, 3, session="xyz")
        msg = SamplesMsg("xyz", 2, pack_rows(["01", "11", "00"], 2))
        back = SamplesMsg.from_payload(_decode_line(msg.encode()), challenge)
        assert back.encode() == msg.encode()
        # leftmost character is coordinate 0, the low bit of the packed word
        assert back.batch[:, 0].tolist() == [0b10, 0b11, 0b00]
        # the reply line is the compact json.dumps of its payload
        # (one sample has no comma; no sample, a SamplesMsg built directly, writes "[]")
        cases = [(1, "s", 5), (63, "s", 5), (64, "s", 5), (65, "s", 5), (200, 'é "x\\', 5)]
        for n, session, count in cases + [(3, "s", 1), (3, "s", 0)]:
            table = np.random.default_rng(n).integers(0, 2, size=(count, n))
            rows = ["".join(map(str, row)) for row in table]
            line = SamplesMsg(session, n, pack_rows(rows, n)).encode()
            payload = {"type": "samples", "session": session, "bits": rows}
            assert line == json.dumps(payload, separators=(",", ":")).encode() + b"\n"

    @pytest.mark.parametrize(
        "overrides, code, detail",
        CHALLENGE_REJECTIONS,
        ids=[f"overrides{i}-{code}" for i, (_, code, _) in enumerate(CHALLENGE_REJECTIONS)],
    )
    def test_challenge_rejections(self, overrides, code, detail):
        with pytest.raises(ProtocolError) as err:
            ChallengeMsg.from_payload(challenge_payload(**overrides))
        assert (err.value.code, err.value.detail) == (code, detail)

    def test_sample_count_bounded_by_reply_limit(self, monkeypatch):
        # a reply line is its head, n + 3 bytes per sample less one comma, and
        # ]} plus the newline, so n=5 allows (MAX - head - 2) // 8 samples
        head = len(b'{"type":"samples","session":"abc","bits":[')
        at_bound = (MAX_MESSAGE_BYTES - head - 2) // 8
        msg = ChallengeMsg.from_payload(challenge_payload(t=at_bound))
        assert msg.samples_requested == at_bound
        with pytest.raises(ProtocolError) as err:
            ChallengeMsg.from_payload(challenge_payload(t=at_bound + 1))
        assert err.value.code == "capacity"
        with pytest.raises(ValidationError, match="reply limit"):
            ChallengeMsg.from_program(small_program(), at_bound + 1, session="abc")
        # a round at the bound fills the line limit; one sample more is refused
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 8000)
        at_bound = (8000 - head - 2) // 8
        with ProverServer(seed=0) as server:
            msg = request(server.address, small_program(), at_bound, session="abc")
            assert len(msg.batch) == at_bound
            assert len(msg.encode()) <= 8000 < len(msg.encode()) + 8
            with pytest.raises(ValidationError, match="reply limit"):
                request(server.address, small_program(), at_bound + 1, session="abc")
            line = json.dumps(challenge_payload(t=at_bound + 1)).encode() + b"\n"
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(line)
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
        assert reply["code"] == "capacity"

    def test_angle_denominator_checked(self):
        payload = challenge_payload()
        payload["angles"] = [[1, 0]] * len(payload["rows"])
        with pytest.raises(ProtocolError) as err:
            ChallengeMsg.from_payload(payload)
        assert err.value.code == "bad-angle"

    def test_angle_too_large_for_a_float(self):
        payload = challenge_payload()
        payload["angles"][-1] = [10**400, 10**400 + 1]
        with pytest.raises(ProtocolError) as err:
            ChallengeMsg.from_payload(payload)
        assert err.value.code == "bad-angle"
        # a huge fraction that still fits a float is kept exactly, and sent back as it came
        program = small_program()
        angles = program.angles[:-1] + (Angle(10**300, 10**300 + 1),)
        program = IqpProgram(program.chi, angles)
        payload = json.loads(ChallengeMsg.from_program(program, 10, session="abc").encode())
        assert payload["angles"][-1] == [10**300, 10**300 + 1]
        msg = ChallengeMsg.from_payload(payload)
        assert msg.program == program
        assert json.loads(msg.encode()) == payload

    def test_samples_rejections(self):
        challenge = ChallengeMsg.from_program(small_program(), 2, session="s1")
        with pytest.raises(ProtocolError) as err:
            SamplesMsg.from_payload({"type": "samples", "session": "a", "bits": []}, challenge)
        assert err.value.code == "bad-bits"
        with pytest.raises(ProtocolError) as err:
            SamplesMsg.from_payload(
                {"type": "samples", "session": "a", "bits": ["012"]}, challenge
            )
        assert err.value.code == "bad-bits"
        # the detail names the first offending sample, wherever it sits
        for bad in (7, None, ["01"], "", "01\u00e9", "0 1", "2"):
            bits = ["0101", "1100", bad, "0011"]
            with pytest.raises(ProtocolError) as err:
                SamplesMsg.from_payload(
                    {"type": "samples", "session": "a", "bits": bits}, challenge
                )
            assert err.value.code == "bad-bits"
            assert err.value.detail == f"bad sample {bad!r}"
        # codes in order: characters, session, count, then lengths
        for session, bits, code in (
            ("s2", ["0x", "01"], "bad-bits"),
            ("s2", ["01"], "bad-session"),
            ("s1", ["01"], "count-mismatch"),
            ("s1", ["01", "01"], "bad-bits"),
        ):
            payload = {"type": "samples", "session": session, "bits": bits}
            with pytest.raises(ProtocolError) as err:
                SamplesMsg.from_payload(payload, challenge)
            assert err.value.code == code

    def test_check_against(self):
        # a well-formed reply is still held to its challenge's session, count and n
        challenge = ChallengeMsg.from_program(small_program(), 2, session="s1")
        for session, bits, code, detail in (
            ("s2", ["10000", "01000"], "bad-session", "reply session 's2' != 's1'"),
            ("s1", ["10000"], "count-mismatch", "got 1 samples, requested 2"),
            ("s1", ["100", "010"], "bad-bits", "sample length 3 != n=5"),
            ("s1", ["10000", "0100"], "bad-bits", "sample length 4 != n=5"),
        ):
            payload = {"type": "samples", "session": session, "bits": bits}
            with pytest.raises(ProtocolError) as err:
                SamplesMsg.from_payload(payload, challenge)
            assert err.value.code == code
            assert err.value.detail == detail
        payload = {"type": "samples", "session": "s1", "bits": ["10000", "01000"]}
        good = SamplesMsg.from_payload(payload, challenge)
        assert good.n == 5 and good.batch.tolist() == [[0b00001], [0b00010]]

    @pytest.mark.parametrize("prover", ["honest", "uniform", "leak"])
    def test_encoded_reply_read_in_one_pass(self, prover):
        for n in (1, 63, 64, 65, 200):
            program = small_program(n=n, m=4)
            key = SecretKey((BitVector(n, 1 << (n - 1)),), (0.5,))
            for t, session in ((1, "s"), (40, "s"), (40, 'é "x\\')):
                challenge = ChallengeMsg.from_program(program, t, session=session)
                rng = np.random.default_rng(n)
                if prover == "honest":
                    reply = prover_honest(challenge, rng)
                elif prover == "uniform":
                    reply = prover_uniform(challenge, rng)
                else:
                    reply = prover_leak(challenge, key, rng)
                line = reply.encode()[:-1]
                got = protocol._read_encoded_reply(line, challenge)
                want = SamplesMsg.from_payload(_decode_line(line), challenge).batch
                assert got is not None
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes() == reply.batch.tobytes()

    def test_encoded_reply_skips_json(self, monkeypatch):
        challenge = ChallengeMsg.from_program(small_program(), 3, session="s1")
        msg = SamplesMsg("s1", 5, pack_rows(["01101", "10110", "00011"], 5))

        def refuse(line):
            raise AssertionError("json path used for an encoded reply")

        monkeypatch.setattr(protocol, "_decode_line", refuse)
        assert exchange_outcome(msg.encode()[:-1], challenge) == msg.batch.tobytes()

    @pytest.mark.parametrize("session", ["s1", 'é "x\\'])
    def test_mutated_replies_read_as_json_path(self, session):
        # every one-byte replacement and deletion: the one-pass reader takes
        # exactly the lines whose only change is one flipped bit
        n, t = 4, 3
        challenge = ChallengeMsg.from_program(small_program(n=n), t, session=session)
        line = SamplesMsg(session, n, pack_rows(["0110", "1011", "0001"], n)).encode()[:-1]
        accepted = 0
        for i in range(len(line)):
            for byte in range(256):
                if byte != line[i]:
                    mutant = line[:i] + bytes([byte]) + line[i + 1 :]
                    accepted += assert_read_as_json_path(mutant, challenge)[0] is not None
            assert assert_read_as_json_path(line[:i] + line[i + 1 :], challenge)[0] is None
        assert accepted == n * t

    def test_reply_variants_read_as_json_path(self):
        rows = ["0110", "1011", "0001"]
        batch = pack_rows(rows, 4).tobytes()
        challenge = ChallengeMsg.from_program(small_program(n=4), 3, session="s1")
        line = SamplesMsg("s1", 4, pack_rows(rows, 4)).encode()[:-1]
        reordered = {"session": "s1", "type": "samples", "bits": rows}
        for variant, want in (
            (line.replace(b",", b", "), batch),
            (json.dumps(reordered, separators=(",", ":")).encode(), batch),
            (line.replace(b'["0', b'["\\u0030', 1), batch),
            (line + b" ", batch),
            (line + b"x", ("bad-json",)),
            (line[:-1], ("bad-json",)),
            (line[: len(line) // 2], ("bad-json",)),
            (
                SamplesMsg("s2", 4, pack_rows(rows, 4)).encode()[:-1],
                ("bad-session", "reply session 's2' != 's1'"),
            ),
            (
                SamplesMsg("s1", 4, pack_rows(rows[:2], 4)).encode()[:-1],
                ("count-mismatch", "got 2 samples, requested 3"),
            ),
            (
                SamplesMsg("s1", 3, pack_rows(["011"] * 3, 3)).encode()[:-1],
                ("bad-bits", "sample length 3 != n=4"),
            ),
        ):
            got, outcome = assert_read_as_json_path(variant, challenge)
            assert got is None
            assert outcome[: len(want)] == want
        assert assert_read_as_json_path(line, challenge)[0].tobytes() == batch

    def test_degenerate_challenges_left_to_json_path(self):
        # challenges from_program never builds: empty session, t=0
        program = small_program(n=4)
        for session, t, body, code in (
            ("", 1, b'"0110"]}', "bad-session"),
            ("s1", 0, b"}", "bad-json"),
            ("s1", 0, b"]}", "bad-bits"),
        ):
            challenge = ChallengeMsg(session, program, t)
            line = protocol._reply_head(session) + body
            got, want = assert_read_as_json_path(line, challenge)
            assert got is None and want[0] == code

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            _decode_line(b"{nope")
        assert err.value.code == "bad-json"
        with pytest.raises(ProtocolError) as err:
            _decode_line(b'["a", "list"]')
        assert err.value.code == "bad-json"
        with pytest.raises(ProtocolError) as err:  # past int()'s digit limit
            _decode_line(b'{"n":' + b"1" * 5000 + b"}")
        assert err.value.code == "bad-json"
        for deep in (b"[" * 100_000, b'{"a":' * 100_000):  # past the recursion limit
            with pytest.raises(ProtocolError) as err:
                _decode_line(deep)
            assert err.value.code == "bad-json"


class TestRecvLine:
    def test_reassembles_chunks(self):
        line = _recv_line(FakeSock([b"hel", b"lo wor", b"ld\nextra"]), time.monotonic() + 5)
        assert line == b"hello world"

    def test_eof_before_newline(self):
        with pytest.raises(ProtocolError) as err:
            _recv_line(FakeSock([b"partial"]), time.monotonic() + 5)
        assert err.value.code == "closed"

    def test_eof_before_data(self):
        with pytest.raises(ProtocolError) as err:
            _recv_line(FakeSock([]), time.monotonic() + 5)
        assert err.value.code == "closed"

    def test_oversize_line(self):
        chunk = b"x" * (1 << 20)
        chunks = [chunk] * (MAX_MESSAGE_BYTES // len(chunk) + 2)
        with pytest.raises(ProtocolError) as err:
            _recv_line(FakeSock(chunks), time.monotonic() + 5)
        assert err.value.code == "too-large"


class TestJudging:
    def key(self, secret="1100", expected=0.5):
        return SecretKey((BitVector.from_string(secret),), (expected,))

    def test_observed_statistic(self):
        # parities against 1100 of the four samples: 0, 0, 1, 1 -> mean 0
        samples = pack_rows(["0000", "1100", "1000", "0111"], 4)
        report = judge(self.key(expected=0.0), samples, epsilon=0.01)
        assert report.per_secret[0].observed == 0.0
        assert report.accept

    def test_rejects_outside_epsilon(self):
        samples = pack_rows(["0000"] * 10, 4)  # observed = +1
        report = judge(self.key(expected=0.5), samples, epsilon=0.2)
        assert not report.accept
        assert report.per_secret[0].deviation == pytest.approx(0.5)

    def test_multi_secret_all_must_pass(self):
        key = SecretKey(
            (BitVector.from_string("1000"), BitVector.from_string("0100")),
            (1.0, -1.0),
        )
        samples = pack_rows(["0000"] * 4, 4)  # observed +1 for both
        report = judge(key, samples, epsilon=0.1)
        assert report.per_secret[0].passed
        assert not report.per_secret[1].passed
        assert not report.accept

    def test_validation(self):
        with pytest.raises(ValidationError):
            judge(self.key(), pack_rows([], 4), epsilon=0.1)
        with pytest.raises(ValidationError):  # two words per row, key needs one
            judge(self.key(), pack_rows(["1" * 70], 70), epsilon=0.1)
        with pytest.raises(ValidationError):  # bit 4 set, key n=4
            judge(self.key(), pack_rows(["11001"], 5), epsilon=0.1)
        with pytest.raises(ValidationError):
            judge(self.key(), pack_rows(["1100"], 4).astype(np.int64), epsilon=0.1)
        with pytest.raises(ValidationError):
            judge(self.key(), pack_rows(["1100"], 4), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_epsilon_must_be_finite(self, epsilon):
        # an infinite epsilon would accept any batch, a NaN one reject every batch
        with pytest.raises(ValidationError, match="is not a finite number > 0"):
            judge(self.key(), pack_rows(["1100"], 4), epsilon=epsilon)

    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_bits_above_n_rejected_at_word_edges(self, n):
        key = SecretKey((BitVector(n, 1),), (-1.0,))
        full = pack_ints([(1 << n) - 1], n)  # every coordinate set: a full word at n = 64
        assert judge(key, full, epsilon=0.1).accept
        # bit n is padding, or at n = 64 and 128 the first bit of a word too many
        with pytest.raises(ValidationError, match="above key n" if n % 64 else "does not hold"):
            judge(key, pack_ints([1 << n], n + 1), epsilon=0.1)
        if n % 64:  # the last padding bit of the row
            with pytest.raises(ValidationError, match="above key n"):
                judge(key, pack_ints([1 << (64 * words_per_row(n) - 1)], n), epsilon=0.1)

    def test_threshold_value(self):
        key = self.key(expected=0.7)
        eps = acceptance_threshold(key, 0.05, 2952)
        assert eps == pytest.approx(math.sqrt(2 * math.log(2 / 0.05) / 2952))
        assert eps == pytest.approx(0.05, abs=1e-3)

    def test_threshold_union_bound_grows_with_secrets(self):
        two = SecretKey(
            (BitVector.from_string("10"), BitVector.from_string("01")), (0.9, 0.9)
        )
        one = SecretKey((BitVector.from_string("10"),), (0.9,))
        assert acceptance_threshold(two, 0.05, 600) > acceptance_threshold(
            one, 0.05, 600
        )
        assert acceptance_threshold(two, 0.05, 600) == math.sqrt(
            2.0 * math.log(2.0 * 2 / 0.05) / 600
        )

    def test_weak_signal_warning(self):
        key = self.key(expected=0.01)
        with pytest.warns(WeakSignalWarning):
            acceptance_threshold(key, 0.05, 600)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            acceptance_threshold(self.key(), 0.0, 100)
        with pytest.raises(ValidationError):
            acceptance_threshold(self.key(), 0.05, 0)


class TestProvers:
    def test_honest_shape_and_determinism(self):
        challenge = ChallengeMsg.from_program(small_program(), 40, session="s")
        a = prover_honest(challenge, np.random.default_rng(5))
        b = prover_honest(challenge, np.random.default_rng(5))
        assert a.encode() == b.encode()
        assert a.batch.shape == (40, 1) and a.n == 5
        assert not np.any(a.batch >> np.uint64(5))
        assert a.session == "s"

    def test_honest_capacity_refusal(self):
        program = rank_above_cap_program()
        challenge = ChallengeMsg.from_program(program, 5)
        with pytest.raises(ProtocolError) as err:
            prover_honest(challenge, np.random.default_rng(0))
        assert err.value.code == "capacity"

    def test_wide_lookups_refused_before_they_are_built(self):
        program = wide_program()
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="bytes of output lookups exceed 134217728"):
                _sampling_table(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        with pytest.raises(ProtocolError) as err:
            prover_honest(ChallengeMsg.from_program(program, 1), np.random.default_rng(0))
        assert err.value.code == "capacity"

    def test_lookup_bound_is_eight_bytes_per_dense_entry(self, monkeypatch):
        # at a cap of 8 the bound is 2 KiB: one table of one word per row
        monkeypatch.setattr(evaluators, "STATEVECTOR_CAP", 8)
        assert _sampling_table(wide_program(64)).xors.nbytes == 2048
        with pytest.raises(CapacityError, match="4096 bytes of output lookups exceed 2048"):
            _sampling_table(wide_program(65))

    def test_uniform_shape(self):
        challenge = ChallengeMsg.from_program(small_program(), 30)
        msg = prover_uniform(challenge, np.random.default_rng(2))
        assert msg.batch.shape == (30, 1) and msg.n == 5
        assert not np.any(msg.batch >> np.uint64(5))

    @pytest.mark.parametrize(
        "n, t", [(1, 70000), (10, 15000), (70, 2000), (65536, 3), (65537, 3), (130001, 2)]
    )
    def test_uniform_draws_one_table_stream(self, n, t):
        # drawn in blocks of rows, across several blocks at each width, and a
        # row wider than one draw in chunks of its columns, yet the samples are
        # those of one whole-table rng.integers call
        challenge = ChallengeMsg.from_program(small_program(n=n, m=2), t)
        msg = prover_uniform(challenge, np.random.default_rng(3))
        whole = np.random.default_rng(3).integers(0, 2, size=(t, n))
        assert np.array_equal(msg.batch, pack_bits(whole))

    def test_uniform_memory_bounded(self):
        # the encoded reply dominates; no per-sample object or full int64 table
        challenge = ChallengeMsg.from_program(small_program(n=10), 200_000)
        tracemalloc.start()
        try:
            line = prover_uniform(challenge, np.random.default_rng(4)).encode()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(line)

    def test_uniform_memory_bounded_at_any_width(self):
        # a 5,000,000-wide row as one int64 draw would take 38 MiB; in chunks the
        # packed batch, 610 KiB, dominates
        challenge = ChallengeMsg.from_program(wide_program(), 1)
        tracemalloc.start()
        try:
            msg = prover_uniform(challenge, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert msg.batch.shape == (1, words_per_row(5_000_000))
        assert peak < 8 << 20

    def test_leak_matches_single_secret_statistic(self):
        program, key = build_challenge(ConstructionSpec(n=8, seed=6))
        challenge = ChallengeMsg.from_program(program, 4000)
        msg = prover_leak(challenge, key, np.random.default_rng(1))
        eps = acceptance_threshold(key, 0.05, 4000)
        report = judge(key, msg.batch, eps)
        assert report.accept

    def test_leak_rejects_multi_secret_key(self):
        program, key = build_challenge(
            ConstructionSpec(n=8, secrets=2, weight=2, seed=6)
        )
        challenge = ChallengeMsg.from_program(program, 10)
        with pytest.raises(ProtocolError) as err:
            prover_leak(challenge, key, np.random.default_rng(0))
        assert err.value.code == "unsupported"

    @pytest.mark.parametrize(
        "secret, code, detail",
        [
            (BitVector(6, 0b11), "bad-n", "leaked secret has 6 bits, challenge n=5"),
            (BitVector(5, 0), "unsupported", "leaked secret has empty support"),
        ],
    )
    def test_leak_refuses_a_key_it_cannot_play(self, secret, code, detail):
        challenge = ChallengeMsg.from_program(small_program(), 10)
        with pytest.raises(ProtocolError) as err:
            prover_leak(challenge, SecretKey((secret,), (0.5,)), np.random.default_rng(0))
        assert (err.value.code, err.value.detail) == (code, detail)

    def test_leak_wide_secret_path(self):
        # a full word, rows of two words, and a fix-up bit in the second word
        for n, support in ((64, [0, 63]), (70, [0, 65]), (70, [66])):
            program = random_program(n, 4, "pi8", np.random.default_rng(3))
            secret = BitVector(n, sum(1 << i for i in support))
            key = SecretKey((secret,), (0.6,))
            challenge = ChallengeMsg.from_program(program, 3000)
            msg = prover_leak(challenge, key, np.random.default_rng(2))
            assert msg.batch.shape == (3000, words_per_row(n))
            obs = judge(key, msg.batch, 0.05).per_secret[0].observed
            assert obs == pytest.approx(0.6, abs=0.05)


class TestLoopback:
    @pytest.mark.parametrize("timeout", [0, -1, -0.5, math.nan, math.inf, -math.inf])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        # refused before any socket is made: no bind, no connect
        program, key = build_challenge(ConstructionSpec(n=5, seed=1))
        calls = (
            lambda: ProverServer(timeout=timeout),
            lambda: request(("127.0.0.1", 9), program, 10, timeout=timeout),
            lambda: run_verification(("127.0.0.1", 9), program, key, 10, timeout=timeout),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the timeout is refused before the threshold can warn
            for call in calls:
                with pytest.raises(ValidationError, match="is not a finite number > 0"):
                    call()

    def test_honest_round_accepts(self):
        program, key = build_challenge(ConstructionSpec(n=8, seed=1))
        with ProverServer(seed=2) as server:
            report = run_verification(server.address, program, key, 2952)
        assert report.accept
        assert report.samples_used == 2952

    def test_honest_wide_low_rank_round_accepts(self):
        # n=200 but rank(chi)=12: an exact classical simulation of 12 qubits
        # passes, so the accept of such a challenge proves nothing quantum.
        program, key = build_challenge(ConstructionSpec(n=200, secrets=4, weight=3, seed=5))
        assert rank(program.chi) == 12
        with ProverServer(seed=2) as server:
            report = run_verification(server.address, program, key, 2952, delta=1e-6)
        assert report.accept and report.samples_used == 2952

    def test_uniform_round_rejects(self):
        program, key = build_challenge(ConstructionSpec(n=8, seed=1))
        with ProverServer(prover="uniform", seed=2) as server:
            report = run_verification(server.address, program, key, 2952)
        assert not report.accept

    def test_request_returns_samples(self):
        program = small_program()
        with ProverServer(seed=0) as server:
            msg = request(server.address, program, 17)
        assert len(msg.batch) == 17 and msg.n == 5

    def test_server_streams_follow_session_not_arrival(self):
        program = small_program()
        batches = []
        for order in (("A", "B"), ("B", "A")):
            with ProverServer(seed=9) as server:
                got = {s: request(server.address, program, 12, session=s) for s in order}
            batches.append(got)
        line = {s: [got[s].encode() for got in batches] for s in "AB"}
        assert line["A"][0] == line["A"][1]
        assert line["B"][0] == line["B"][1]
        assert not np.array_equal(batches[0]["A"].batch, batches[0]["B"].batch)

    def test_server_streams_are_reproducible(self):
        program = small_program()
        with ProverServer(seed=9) as server:
            a = request(server.address, program, 12, session="fixed")
        with ProverServer(seed=9) as server:
            b = request(server.address, program, 12, session="fixed")
        assert a.encode() == b.encode()

    def test_capacity_error_propagates(self):
        program = rank_above_cap_program()
        with ProverServer(seed=0) as server:
            with pytest.raises(ProtocolError) as err:
                request(server.address, program, 5)
        assert err.value.code == "capacity"

    def test_oversized_count_gets_capacity_reply(self):
        # refused while parsing, before any prover allocates the batch
        line = json.dumps(challenge_payload(t=10**12)).encode() + b"\n"
        with ProverServer(seed=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(line)
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
        assert reply["type"] == "error"
        assert reply["code"] == "capacity"

    def test_malformed_line_gets_error_reply(self):
        with ProverServer(seed=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b"this is not json\n")
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
        assert reply["type"] == "error"
        assert reply["code"] == "bad-json"

    def test_overlong_int_gets_bad_json_on_both_sides(self):
        digits = b"1" * 5000  # Python refuses int literals over 4300 digits
        with ProverServer(seed=0) as server:
            reply = ask_server(server, b'{"type":"challenge","session":"s","n":' + digits + b"}\n")
        assert reply["code"] == "bad-json"
        address, thread = serve_one_reply(
            b'{"type":"samples","session":"s","bits":' + digits + b"}\n"
        )
        key = SecretKey((BitVector(5, 1),), (0.5,))
        with pytest.raises(ProtocolError) as err:
            run_verification(address, small_program(), key, 2000, session="s", timeout=5)
        thread.join(timeout=5)
        assert err.value.code == "bad-json"

    @pytest.mark.parametrize("call", ["request", "run_verification"])
    def test_trickled_reply_gets_the_timeout_at_the_total_deadline(self, call):
        # the head of a reply, one byte every 0.2 s and no newline: every recv returns
        # well inside the timeout, but the line is not whole by it
        address, thread = serve_one_reply(protocol._reply_head("s"), gap=0.2)
        key = SecretKey((BitVector(5, 1),), (0.5,))
        start = time.monotonic()
        with pytest.raises(ProtocolError) as err:
            if call == "request":
                request(address, small_program(), 10, timeout=1.0, session="s")
            else:
                run_verification(address, small_program(), key, 2000, timeout=1.0, session="s")
        elapsed = time.monotonic() - start
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert err.value.code == "timeout"
        assert 0.9 < elapsed < 2.5

    def test_deep_nesting_gets_bad_json_reply(self):
        with ProverServer(seed=0) as server:
            reply = ask_server(server, b"[" * 100_000 + b"\n")
        assert reply["type"] == "error" and reply["code"] == "bad-json"

    def test_overflowing_angle_gets_bad_angle_reply(self):
        payload = challenge_payload()
        payload["angles"][0] = [10**400, 10**400 + 1]
        with ProverServer(seed=0) as server:
            reply = ask_server(server, json.dumps(payload).encode() + b"\n")
        assert reply["type"] == "error" and reply["code"] == "bad-angle"

    def test_wrong_type_gets_error_reply(self):
        with ProverServer(seed=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b'{"type": "samples", "session": "x", "bits": ["1"]}\n')
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
        assert reply["code"] == "bad-type"

    @pytest.mark.parametrize("program_n, key_n", [(10, 12), (12, 10)])
    def test_key_width_must_match_program(self, program_n, key_n):
        # Both widths pack into one word, so only this check tells them apart.
        program, _ = build_challenge(ConstructionSpec(n=program_n, seed=1))
        _, key = build_challenge(ConstructionSpec(n=key_n, seed=1))
        with ProverServer(seed=2) as server:
            with pytest.raises(ValidationError, match="program n="):
                run_verification(server.address, program, key, 600)

    def test_verifier_sends_its_challenge_and_nothing_else(self):
        # everything the verifier writes, read until it closes: one line, no verdict after it
        program, key = build_challenge(ConstructionSpec(n=8, seed=1))
        challenge = ChallengeMsg.from_program(program, 600, session="s")
        reply = prover_honest(challenge, np.random.default_rng(0)).encode()
        listener = socket.create_server(("127.0.0.1", 0))
        sent = bytearray()

        def record():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5)
                    while b"\n" not in sent and (chunk := conn.recv(1 << 16)):
                        sent.extend(chunk)
                    conn.sendall(reply)
                    while chunk := conn.recv(1 << 16):  # until the verifier closes
                        sent.extend(chunk)

        thread = threading.Thread(target=record, daemon=True)
        thread.start()
        report = run_verification(listener.getsockname(), program, key, 600, session="s", timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert report.accept
        assert bytes(sent) == challenge.encode()

    def test_close_without_start_returns(self):
        # shutdown() alone would wait for a serve_forever loop that never ran
        server = ProverServer()
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert server.socket.fileno() == -1

    def test_negative_seed_refused_before_bind(self, monkeypatch):
        monkeypatch.setattr(ProverServer, "server_bind", lambda self: pytest.fail("bound"))
        with pytest.raises(ValidationError, match="seed -1 is negative"):
            ProverServer(seed=-1)

    def test_leak_server_needs_key(self):
        with pytest.raises(ValidationError):
            ProverServer(prover="leak")

    def test_unknown_prover_rejected(self):
        with pytest.raises(ValidationError):
            ProverServer(prover="quantum")


def server_rng(seed, session):
    """The stream a ProverServer with ``seed`` draws a session's reply from."""
    tag = int.from_bytes(hashlib.sha256(session.encode()).digest(), "little")
    return seeded_rng(seed, tag)


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def served_lines(caplog):
    return [r.getMessage() for r in caplog.records if ": served " in r.getMessage()]


class TestServerPool:
    def test_kept_tables_give_the_fresh_and_bare_replies(self):
        programs = {"a": small_program(seed=1), "b": small_program(seed=2, n=7, m=9)}
        sessions = "aabba"  # rounds 2 and 4 draw from the kept table
        with ProverServer(seed=9) as server:
            kept = [request(server.address, programs[s], 40, session=s).encode() for s in sessions]
            assert server._kept.program == programs["a"]
        for session, line in zip(sessions, kept):
            with ProverServer(seed=9) as server:
                fresh = request(server.address, programs[session], 40, session=session)
            challenge = ChallengeMsg.from_program(programs[session], 40, session=session)
            bare = prover_honest(challenge, server_rng(9, session))
            assert line == fresh.encode() == bare.encode()

    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (1, 8, 63, 64, 65, 130) for d in (1, 8, 9, 17) if d <= n]
    )
    def test_kept_reply_text_writes_the_packed_path_bytes(self, n, d):
        program = rank_d_program(n, d, seed=n + d)
        assert rank(program.chi) == d
        table = _sampling_table(program)
        text = protocol._reply_text(table.xors, n)
        assert text.shape == (-(-d // 8), 256, n + 3)
        for t in (1, 2, 2952):
            challenge = ChallengeMsg.from_program(program, t, session=f"s{t}")
            bare = prover_honest(challenge, np.random.default_rng(t)).encode()
            for kept_text in (text, None):
                line = protocol._honest_line(challenge, np.random.default_rng(t), table, kept_text)
                assert line == bare

    def test_a_kept_round_leaves_every_rejection_as_on_a_fresh_server(self):
        with ProverServer(seed=0) as kept, ProverServer(seed=0) as fresh:
            request(kept.address, small_program(), 10, session="abc")
            assert kept._kept is not None and fresh._kept is None
            reused = set()
            for overrides, code, detail in CHALLENGE_REJECTIONS:
                payload = challenge_payload(**overrides)
                line = _encode(payload)[:-1]  # laid out as request writes a challenge
                if json.loads(line) != payload:  # a tuple angle cannot come off the wire
                    continue
                if _challenge_members(line, payload) == kept._kept.members:
                    reused.add(code)
                for server in (kept, fresh):
                    with pytest.raises(ProtocolError) as err:
                        server._honest(line, payload)
                    assert (err.value.code, err.value.detail) == (code, detail)
        assert reused == {"bad-session", "bad-count", "capacity"}  # the kept path was taken

    @pytest.mark.parametrize(
        "overrides, code, detail",
        [
            ({"n": True}, "bad-n", "n must be a positive integer"),
            ({"n": 1.0}, "bad-n", "n must be a positive integer"),
            ({"angles": [[True, 8]]}, "bad-angle", "bad angle entry [True, 8]"),
            ({"angles": [[1, 8.0]]}, "bad-angle", "bad angle entry [1, 8.0]"),
            ({"angles": [[1.0, 8]]}, "bad-angle", "bad angle entry [1.0, 8]"),
        ],
    )
    def test_values_equal_to_the_kept_ones_but_not_ints_are_refused(self, overrides, code, detail):
        # True == 1 and 1.0 == 1 in Python, but their lines' bytes differ from the kept ones
        program = IqpProgram(BitMatrix.from_ints([1], 1), (PI_OVER_8,))
        payload = json.loads(ChallengeMsg.from_program(program, 10, session="s").encode())
        values = {k: payload[k] for k in ("n", "rows", "angles")}
        payload.update(overrides)
        assert all(payload[k] == values[k] for k in values)
        with ProverServer(seed=0) as server:
            request(server.address, program, 10, session="s")
            assert server._kept is not None
            reply = ask_server(server, _encode(payload))
        assert (reply["code"], reply["detail"]) == (code, detail)

    def test_kept_body_with_a_new_session_and_count_gets_that_sessions_batch(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(protocol, "_WORKERS", 1)  # one worker logs in request order
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        program = small_program(seed=2, n=7, m=9)
        decoded = []
        from_payload = ChallengeMsg.from_payload.__func__

        def recording(cls, payload):
            decoded.append(payload["session"])
            return from_payload(cls, payload)

        monkeypatch.setattr(ChallengeMsg, "from_payload", classmethod(recording))
        rounds = [("first", 40), ("second", 40), ("third", 3), ("first", 2952)]
        with ProverServer(seed=4) as server:
            for session, t in rounds:
                challenge = ChallengeMsg.from_program(program, t, session=session)
                with socket.create_connection(server.address, timeout=5) as sock:
                    sock.sendall(challenge.encode())
                    line = _recv_line(sock, time.monotonic() + 5)
                bare = prover_honest(challenge, server_rng(4, session)).encode()
                assert line + b"\n" == bare
        assert decoded == ["first"]  # later rounds reuse the kept program
        assert [line.endswith("table=hit)") for line in served_lines(caplog)] == [
            False, True, True, True
        ]

    @pytest.mark.parametrize("fits", ["table", "members", "text"])
    def test_slot_keeps_what_fits_the_budget_with_the_table(self, fits, monkeypatch, caplog):
        # the line bytes and the table are kept only if they fit together, the reply text
        # only if it fits with them.  Every round gets the bare prover's bytes
        monkeypatch.setattr(protocol, "_WORKERS", 1)  # one worker logs in request order
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        program = small_program(seed=2, n=7, m=9)
        table = _sampling_table(program)
        line = ChallengeMsg.from_program(program, 40, session="a").encode()[:-1]
        members = _challenge_members(line, json.loads(line))
        text_bytes = len(table.xors) * 256 * (program.n + 3)
        room = {"table": 0, "members": len(members), "text": len(members) + text_bytes}[fits]
        monkeypatch.setattr(protocol, "_TABLE_BUDGET", table.nbytes + room)
        with ProverServer(seed=4) as server:
            for session in ("a", "b", "c"):
                line = request(server.address, program, 40, session=session).encode()
                challenge = ChallengeMsg.from_program(program, 40, session=session)
                assert line == prover_honest(challenge, server_rng(4, session)).encode()
            kept = server._kept
        found = [line.rsplit("=", 1)[1] for line in served_lines(caplog)]
        if fits == "table":  # the bytes do not fit with the table: nothing is kept
            assert kept is None
            assert found == ["miss)", "miss)", "miss)"]
            return
        assert kept.members == members
        assert kept.program == program and kept.table.nbytes == table.nbytes
        assert (kept.text is not None) == (fits == "text")
        assert found == ["miss)", "hit)", "hit)"]

    def test_served_line_names_rank_and_table(self, monkeypatch, caplog):
        monkeypatch.setattr(protocol, "_WORKERS", 1)  # one worker logs in request order
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        program = small_program(seed=2, n=7, m=9)
        d = rank(program.chi)
        with ProverServer(seed=0) as server:
            for _ in range(2):
                request(server.address, program, 10)
        with ProverServer(prover="uniform", seed=0) as server:
            request(server.address, program, 10)
        lines = served_lines(caplog)
        assert [line.split("(", 1)[1] for line in lines] == [
            f"n=7 d={d} table=miss)",
            f"n=7 d={d} table=hit)",
            "n=7 d=- table=-)",
        ]

    def test_one_table_kept_and_the_newest_replaces_it(self):
        programs = [small_program(seed=s, n=6, m=14) for s in range(2)]
        server = ProverServer(seed=0)

        def found(k, session="s", t=10):
            line = ChallengeMsg.from_program(programs[k], t, session=session).encode()[:-1]
            return server._honest(line, json.loads(line))[-1]

        try:
            assert [found(k) for k in (0, 0, 1, 1, 0)] == ["miss", "hit", "miss", "hit", "miss"]
            assert server._kept.program == programs[0]
            # the key is the line's bytes inside its frame: another session and count still hit
            assert found(0, session="other", t=3) == "hit"
        finally:
            server.close()

    def test_a_line_in_another_layout_is_served_fresh_and_leaves_the_kept_entry(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(protocol, "_WORKERS", 1)  # one worker logs in request order
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        a, b = small_program(seed=1), small_program(seed=2, n=7, m=9)
        with ProverServer(seed=3) as server:
            request(server.address, a, 40, session="a1")
            challenge = ChallengeMsg.from_program(b, 40, session="b")
            spaced = json.dumps(json.loads(challenge.encode())).encode() + b"\n"
            assert spaced != challenge.encode()  # json.dumps' default separators
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(spaced)
                line = _recv_line(sock, time.monotonic() + 5)
            assert line + b"\n" == prover_honest(challenge, server_rng(3, "b")).encode()
            assert server._kept.program == a
            again = request(server.address, a, 40, session="a2").encode()
        bare = prover_honest(ChallengeMsg.from_program(a, 40, session="a2"), server_rng(3, "a2"))
        assert again == bare.encode()
        assert [line.rsplit("=", 1)[1] for line in served_lines(caplog)] == [
            "miss)", "miss)", "hit)"
        ]

    def test_table_over_budget_is_served_not_kept(self, monkeypatch, caplog):
        monkeypatch.setattr(protocol, "_WORKERS", 1)
        program = small_program()
        monkeypatch.setattr(protocol, "_TABLE_BUDGET", _sampling_table(program).nbytes - 1)
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        with ProverServer(seed=9) as server:
            replies = {request(server.address, program, 20, session="s").encode() for _ in range(2)}
            assert server._kept is None
        assert len(replies) == 1
        assert [line.endswith("table=miss)") for line in served_lines(caplog)] == [True, True]

    def test_capacity_build_is_not_kept(self):
        with ProverServer(seed=0) as server:
            for _ in range(2):
                with pytest.raises(ProtocolError) as err:
                    request(server.address, rank_above_cap_program(), 5)
                assert err.value.code == "capacity"
            assert server._kept is None

    def test_wide_lookups_get_capacity_and_the_next_round_accepts(self):
        program, key = build_challenge(ConstructionSpec(n=8, seed=6))
        with ProverServer(seed=0) as server:
            with pytest.raises(ProtocolError) as err:
                request(server.address, wide_program(), 1)
            assert err.value.code == "capacity"
            assert server._kept is None
            assert run_verification(server.address, program, key, 2952).accept

    def test_workers_sharing_the_kept_table_reply_as_bare_provers(self, monkeypatch):
        # more workers than cores and a short switch interval: a table of the
        # other program, read from the slot mid-replacement, would show here
        monkeypatch.setattr(protocol, "_WORKERS", 4)
        programs = [small_program(seed=1, n=6, m=10), small_program(seed=2, n=6, m=10)]
        sessions = [(f"s{i}", i % 2) for i in range(24)]
        replies = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ProverServer(seed=5) as server:

                def client(chunk):
                    for session, k in chunk:
                        replies[session] = request(server.address, programs[k], 50, session=session)

                clients = [threading.Thread(target=client, args=(sessions[i::6],)) for i in range(6)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == len(sessions)
        for session, k in sessions:
            challenge = ChallengeMsg.from_program(programs[k], 50, session=session)
            bare = prover_honest(challenge, server_rng(5, session))
            assert replies[session].encode() == bare.encode()

    def test_connections_are_served_on_the_fixed_workers(self, monkeypatch):
        served_on = set()
        finish = ProverServer.finish_request

        def recording(self, sock, client_address):
            served_on.add(threading.get_ident())
            finish(self, sock, client_address)

        monkeypatch.setattr(ProverServer, "finish_request", recording)
        program = small_program()
        results = []
        with ProverServer(seed=0) as server:
            clients = [
                threading.Thread(target=lambda: results.append(request(server.address, program, 10)))
                for _ in range(6)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=10)
                assert not client.is_alive()
            workers = {worker.ident for worker in server._workers}
        assert len(results) == 6 and all(len(msg.batch) == 10 for msg in results)
        assert served_on <= workers and len(workers) == protocol._WORKERS

    def test_overflow_past_the_queue_gets_capacity(self, monkeypatch):
        monkeypatch.setattr(protocol, "_WORKERS", 1)
        monkeypatch.setattr(protocol, "_QUEUED", 1)
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 10.0)  # the silent client holds the worker
        program = small_program()
        first = ChallengeMsg.from_program(program, 10, session="first")
        second = ChallengeMsg.from_program(program, 10, session="second")
        with ProverServer(seed=0, timeout=10) as server:
            with socket.create_connection(server.address, timeout=10) as held:
                assert wait_for(lambda: server._active)  # the one worker waits on this line
                with socket.create_connection(server.address, timeout=10) as queued:
                    queued.sendall(second.encode())
                    assert wait_for(lambda: server._queue.qsize() == 1)
                    with pytest.raises(ProtocolError) as err:
                        request(server.address, program, 10, timeout=10)
                    assert err.value.code == "capacity"
                    held.sendall(first.encode())
                    deadline = time.monotonic() + 5
                    replies = [json.loads(_recv_line(sock, deadline)) for sock in (held, queued)]
        assert [(r["type"], r["session"]) for r in replies] == [
            ("samples", "first"),
            ("samples", "second"),
        ]

    def test_close_joins_workers_and_closes_queued_sockets_without_start(self, monkeypatch):
        monkeypatch.setattr(protocol, "_WORKERS", 1)
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 30.0)
        server = ProverServer(seed=0, timeout=30)  # a worker left blocked would outlive the join
        with socket.create_connection(server.address, timeout=5) as held, \
                socket.create_connection(server.address, timeout=5) as queued:
            server.handle_request()
            assert wait_for(lambda: server._active)
            server.handle_request()
            closer = threading.Thread(target=server.close, daemon=True)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert not any(worker.is_alive() for worker in server._workers)
            assert held.recv(1) == b"" and queued.recv(1) == b""
        assert server.socket.fileno() == -1

    def test_silent_clients_free_the_workers_after_the_challenge_wait(self, monkeypatch, caplog):
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 0.2)
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        program = small_program()
        with ProverServer(seed=0, timeout=30) as server:
            silent = [socket.create_connection(server.address, timeout=5) for _ in range(2)]
            try:
                assert wait_for(lambda: len(server._active) == protocol._WORKERS)
                start = time.monotonic()
                msg = request(server.address, program, 10, timeout=5)
                assert time.monotonic() - start < 3
                for sock in silent:  # each got the timeout error line, then was closed
                    assert json.loads(_recv_line(sock, time.monotonic() + 5))["code"] == "timeout"
                    assert sock.recv(1) == b""
            finally:
                for sock in silent:
                    sock.close()
        assert len(msg.batch) == 10
        assert len(served_lines(caplog)) == 1

    def test_slow_challenge_gets_in_while_bytes_keep_arriving(self, monkeypatch):
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 0.3)
        line = ChallengeMsg.from_program(small_program(), 10, session="slow").encode()
        with ProverServer(seed=0, timeout=30) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                for k in range(0, len(line), len(line) // 4 + 1):  # longer in all than one wait
                    sock.sendall(line[k : k + len(line) // 4 + 1])
                    time.sleep(0.15)
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
        assert (reply["type"], reply["session"]) == ("samples", "slow")

    def test_trickled_challenge_gets_the_timeout_at_the_total_deadline(self, monkeypatch):
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 0.3)
        line = ChallengeMsg.from_program(small_program(), 10, session="drip").encode()
        with ProverServer(seed=0, timeout=1.0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                start = time.monotonic()
                time.sleep(0.1)  # the sends fall between the deadline's 0.2 s marks
                for byte in line:  # one byte every 0.2 s: each well inside the chunk wait
                    sock.sendall(bytes([byte]))
                    if select.select([sock], [], [], 0.2)[0]:  # the reply, at the deadline
                        break
                reply = json.loads(_recv_line(sock, time.monotonic() + 5))
                elapsed = time.monotonic() - start
        assert reply["code"] == "timeout"
        assert 0.9 < elapsed < 2.5

    def test_slow_reader_gets_a_reply_longer_than_the_challenge_wait(self, monkeypatch):
        monkeypatch.setattr(protocol, "_CHALLENGE_WAIT", 0.2)
        challenge = ChallengeMsg.from_program(small_program(n=10, m=12), 1_500_000, session="big")
        with ProverServer(seed=4, timeout=30) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(challenge.encode())
                time.sleep(0.6)  # ~20 MB: the server's sendall blocks past the challenge wait
                line = _recv_line(sock, time.monotonic() + 10)
        assert line + b"\n" == prover_honest(challenge, server_rng(4, "big")).encode()

    def test_client_left_open_reads_eof_after_its_reply(self, monkeypatch):
        monkeypatch.setattr(protocol, "_WORKERS", 1)
        program = small_program()
        challenge = ChallengeMsg.from_program(program, 10, session="open")
        with ProverServer(seed=0, timeout=30) as server:
            with socket.create_connection(server.address, timeout=5) as held:
                held.sendall(challenge.encode())
                _recv_line(held, time.monotonic() + 5)  # the reply; it stays connected, silent
                start = time.monotonic()
                assert held.recv(1) == b""  # closed by the worker, not by a wait running out
                msg = request(server.address, program, 10, timeout=5)  # the one worker is free
                assert time.monotonic() - start < 1
        assert len(msg.batch) == 10

    def test_verdict_line_after_the_reply_is_ignored(self, monkeypatch, caplog):
        # a verifier built when verdicts could be revealed sends one line after judging
        monkeypatch.setattr(protocol, "_WORKERS", 1)
        caplog.set_level(logging.INFO, logger=protocol.__name__)
        program, key = build_challenge(ConstructionSpec(n=8, seed=1))
        challenge = ChallengeMsg.from_program(program, 600, session="old")
        verdict = {"type": "verdict", "session": "old", "accept": True, "per_secret": []}
        with ProverServer(seed=2, timeout=30) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(challenge.encode())
                _recv_line(sock, time.monotonic() + 5)
                try:  # the worker may have closed its end already
                    sock.sendall(_encode(verdict))
                except OSError:
                    pass
            start = time.monotonic()
            assert run_verification(server.address, program, key, 600).accept
            assert time.monotonic() - start < 1
            assert all(worker.is_alive() for worker in server._workers)
        assert len(served_lines(caplog)) == 2
        assert not any("verdict" in r.getMessage() for r in caplog.records)
