"""Single-round verification over TCP.

One exchange per connection, newline-delimited JSON.  The verifier
(:func:`run_verification`, which is :func:`request` then :func:`judge`)
connects, sends a challenge (matrix rows, angles, sample count), reads back
sample bit strings and judges them locally against its secret key.  No secret
string, expected value or verdict ever goes on the wire: the verifier sends
one challenge line, and the prover closes the connection after its reply.
Each side's ``timeout`` bounds the whole line it reads, not each chunk: the
prover's the challenge, the verifier's the reply (counted from before it
connects), so a large reply over a slow link needs a larger one.  A challenge
is one :class:`IqpProgram` on both sides: written from it, validated and built
once when read.  A reply is one packed batch on both sides
(:mod:`iqpverify.bitlin`): written straight from it, packed once when read.  A
reply line in :meth:`SamplesMsg.encode`'s exact layout is read in one
``np.frombuffer`` pass; any other line goes through ``json.loads`` and
:meth:`SamplesMsg.from_payload`, so it gets the same batch or error code.

Message shapes::

    {"type": "challenge", "session": ..., "n": ..., "rows": [...],
     "angles": [[num, den], ...], "t": ...}
    {"type": "samples", "session": ..., "bits": ["0101...", ...]}
    {"type": "error", "code": ..., "detail": ...}
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import queue
import socket
import socketserver
import threading
import time
import uuid
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitlin import (
    BitMatrix,
    combine_rows,
    from01,
    pack_bits,
    pack_ints,
    pack_rows,
    random_bit_rows,
    random_rows,
    row_parities,
    to01,
    unpack_bits,
    words_per_row,
)
from .errors import CapacityError, DimensionError, ProtocolError, ValidationError
from .evaluators import (
    _draw,
    _finite_positive,
    _hoeffding_radius,
    _picks,
    _sampling_table,
    _SamplingTable,
)
from .model import Angle, IqpProgram, SecretKey, bias_from_correlation, seeded_rng

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ChallengeMsg",
    "SamplesMsg",
    "SecretVerdict",
    "VerdictReport",
    "WeakSignalWarning",
    "acceptance_threshold",
    "judge",
    "prover_honest",
    "prover_uniform",
    "prover_leak",
    "ProverServer",
    "request",
    "run_verification",
]

log = logging.getLogger(__name__)

MAX_MESSAGE_BYTES = 64 * 1024 * 1024
_RECV_CHUNK = 1 << 16
_GAP = np.frombuffer(b'","', np.uint8)  # closes one sample of a reply line, opens the next


def _reply_head(session: str) -> bytes:
    return b'{"type":"samples","session":' + json.dumps(session).encode("ascii") + b',"bits":['


def _challenge_frame(session: str, t: int) -> tuple[bytes, bytes]:
    """A challenge line's bytes before its "n" member and after its "angles" member."""
    head = b'{"type":"challenge","session":%b,' % json.dumps(session).encode("ascii")
    return head, b',"t":%d}' % t


def _max_samples(n: int, session: str) -> int:
    """Most n-bit samples whose reply line, head and newline included, fits the limit."""
    return (MAX_MESSAGE_BYTES - len(_reply_head(session)) - 2) // (n + 3)


class WeakSignalWarning(UserWarning):
    """An expected value sits too close to zero for the chosen threshold."""


# ---------------------------------------------------------------------------
# messages


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("ascii") + b"\n"


def _recv_line(sock: socket.socket, deadline: float) -> bytes:
    """Read one newline-terminated line, whole by ``deadline`` (``time.monotonic()``).

    Bytes past the newline are ignored; each recv also waits at most the socket's timeout.
    """
    buf = bytearray()
    wait = sock.gettimeout()
    while True:
        try:
            if (left := deadline - time.monotonic()) <= 0:
                raise TimeoutError
            sock.settimeout(min(wait, left))
            chunk = sock.recv(_RECV_CHUNK)
        except TimeoutError:
            raise ProtocolError("timeout", "peer sent no complete line in time")
        if not chunk:
            if buf:
                raise ProtocolError("closed", "connection closed mid-line")
            raise ProtocolError("closed", "connection closed before any data")
        buf += chunk
        if len(buf) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                "too-large", f"line exceeds {MAX_MESSAGE_BYTES} bytes"
            )
        if b"\n" in chunk:
            del buf[buf.index(b"\n", len(buf) - len(chunk)) :]
            return bytes(buf)  # the one copy


def _decode_line(line: bytes) -> dict:
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also: an int past the digit limit, deep nesting
        raise ProtocolError("bad-json", f"undecodable message: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad-json", "message is not a JSON object")
    return payload


def _require_session(payload: dict) -> str:
    session = payload.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError("bad-session", "session must be a non-empty string")
    return session


def _challenge_session(payload: dict) -> str:
    """A challenge's first checks, "type" then "session"; its program's come next."""
    if payload.get("type") != "challenge":
        raise ProtocolError("bad-type", f"expected challenge, got {payload.get('type')!r}")
    return _require_session(payload)


def _challenge_count(payload: dict, n: int, session: str) -> int:
    """A challenge's last check, "t": a positive count whose reply fits the line limit."""
    t = payload.get("t")
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ProtocolError("bad-count", "t must be a positive integer")
    limit = _max_samples(n, session)
    if t > limit:
        raise ProtocolError("capacity", f"t={t} at n={n} exceeds the reply limit of {limit}")
    return t


@dataclass(frozen=True)
class ChallengeMsg:
    """Verifier-to-prover challenge: the program plus a sample count."""

    session: str
    program: IqpProgram
    samples_requested: int

    @property
    def n(self) -> int:
        return self.program.n

    @classmethod
    def from_program(
        cls, program: IqpProgram, samples: int, session: str | None = None
    ) -> "ChallengeMsg":
        if samples < 1:
            raise ValidationError("must request at least one sample")
        session = session or uuid.uuid4().hex
        limit = _max_samples(program.n, session)
        if samples > limit:
            raise ValidationError(
                f"{samples} samples of n={program.n} exceed the reply limit of {limit}"
            )
        return cls(session, program, samples)

    @classmethod
    def from_payload(cls, payload: dict) -> "ChallengeMsg":
        """Validate a decoded challenge and build its program from row ints, each angle once."""
        session = _challenge_session(payload)
        n = payload.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ProtocolError("bad-n", "n must be a positive integer")
        rows = payload.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ProtocolError("bad-row", "rows must be a non-empty list")
        chi = []
        for r in rows:
            try:  # a non-str or wrong-length row is refused as a bad character is
                chi.append(from01(r if isinstance(r, str) and len(r) == n else "?"))
            except ValidationError:
                raise ProtocolError("bad-row", f"bad row {r!r} for n={n}") from None
            if not chi[-1]:
                raise ProtocolError("bad-row", "all-zero row")
        angles = payload.get("angles")
        if not isinstance(angles, list) or len(angles) != len(rows):
            raise ProtocolError("bad-angle", "need one [num, den] pair per row")
        thetas, built = [], {}  # each distinct (num, den) is built once
        for a in angles:
            if (
                not isinstance(a, list)
                or len(a) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in a)
            ):
                raise ProtocolError("bad-angle", f"bad angle entry {a!r}")
            theta = built.get(key := (a[0], a[1]))  # ints only here: True never meets 1
            if theta is None:
                if a[1] <= 0:
                    raise ProtocolError("bad-angle", f"denominator {a[1]} not positive")
                try:
                    theta = built[key] = Angle(*a)
                except ValidationError as exc:
                    raise ProtocolError("bad-angle", str(exc))
            thetas.append(theta)
        t = _challenge_count(payload, n, session)
        return cls(session, IqpProgram(BitMatrix.from_ints(chi, n), tuple(thetas)), t)

    def encode(self) -> bytes:
        """The compact JSON line: the program's members between the frame's two halves."""
        head, tail = _challenge_frame(self.session, self.samples_requested)
        members = {
            "n": self.n,
            "rows": [to01(row, self.n) for row in self.program.chi.ints],
            "angles": [[a.num, a.den] for a in self.program.angles],
        }
        return head + _encode(members)[1:-2] + tail + b"\n"  # the members without "{" and "}\n"


def _challenge_members(line: bytes, payload: dict) -> bytes | None:
    """A challenge line's bytes inside its frame, if laid out as encode's.

    ``payload`` is the line decoded.  Two such lines with the same bytes there
    carry the same "n", "rows" and "angles": nothing else in the line names them.
    """
    session, t = payload.get("session"), payload.get("t")
    if not isinstance(session, str) or not isinstance(t, int):
        return None
    head, tail = _challenge_frame(session, t)  # a bool t, written true or false, does not match
    if len(line) < len(head) + len(tail) or not (line.startswith(head) and line.endswith(tail)):
        return None
    return line[len(head) : -len(tail)]


@dataclass(frozen=True, eq=False)
class SamplesMsg:
    """Prover-to-verifier reply: the samples as one packed batch of n-bit rows."""

    session: str
    n: int
    batch: np.ndarray

    @classmethod
    def from_payload(cls, payload: dict, challenge: ChallengeMsg) -> "SamplesMsg":
        """Check a decoded reply against its challenge and pack its samples."""
        if payload.get("type") != "samples":
            raise ProtocolError("bad-type", f"expected samples, got {payload.get('type')!r}")
        session = _require_session(payload)
        bits = payload.get("bits")
        if not isinstance(bits, list) or not bits:
            raise ProtocolError("bad-bits", "bits must be a non-empty list")
        try:  # one check over the joined text; join refuses a non-str sample
            text = "".join(bits).encode("ascii", "replace")
        except TypeError:
            text = b"?"
        if not all(bits) or text.translate(None, b"01"):
            bad = next(b for b in bits if not isinstance(b, str) or not b or b.strip("01"))
            raise ProtocolError("bad-bits", f"bad sample {bad!r}")
        if session != challenge.session:
            raise ProtocolError(
                "bad-session", f"reply session {session!r} != {challenge.session!r}"
            )
        if len(bits) != challenge.samples_requested:
            raise ProtocolError(
                "count-mismatch",
                f"got {len(bits)} samples, requested {challenge.samples_requested}",
            )
        try:
            batch = pack_rows(bits, challenge.n)
        except DimensionError:
            bad = next(b for b in bits if len(b) != challenge.n)
            raise ProtocolError("bad-bits", f"sample length {len(bad)} != n={challenge.n}")
        return cls(session, challenge.n, batch)

    def encode(self) -> bytes:
        """The reply line, its sample rows written from the unpacked batch."""

        def fill(table: np.ndarray) -> None:
            table[:, 0] = table[:, -2] = ord('"')
            table[:, -1] = ord(",")
            np.add(unpack_bits(self.batch, self.n), ord("0"), out=table[:, 1:-2])

        return _reply_line(self.session, len(self.batch), self.n, fill)


def _reply_line(session: str, t: int, n: int, fill) -> bytes:
    """A reply line in one buffer: head, the T x (n+3) byte table of '"bits",' rows, "]}\\n".

    ``fill`` writes the table; the tail then goes over the last sample's comma.
    """
    head = _reply_head(session)
    line = np.empty(len(head) + max(t * (n + 3), 1) + 2, dtype=np.uint8)  # t=0: "[]}"
    line[: len(head)] = np.frombuffer(head, np.uint8)
    fill(line[len(head) : len(head) + t * (n + 3)].reshape(t, n + 3))
    line[-3:] = np.frombuffer(b"]}\n", np.uint8)
    return line.tobytes()


def _read_encoded_reply(line: bytes, challenge: ChallengeMsg) -> np.ndarray | None:
    """The batch of a reply line in exactly :meth:`SamplesMsg.encode`'s layout, else None.

    Reads the line as one T x (n+3) byte table.  It accepts only lines that
    ``from_payload`` accepts with the same batch and never raises, so every
    other line, and every error code and detail, is left to the json path.
    """
    n, t, session = challenge.n, challenge.samples_requested, challenge.session
    head = _reply_head(session)
    if not session or t < 1 or len(line) != len(head) + t * (n + 3) + 1:
        return None
    if not line.startswith(head + b'"') or not line.endswith(b'"]}'):
        return None
    # the body: one '"bits",' row per sample, "]" for the last comma
    body = np.frombuffer(line, np.uint8, t * (n + 3), len(head))
    # '","' from each sample to the next, gathered: a copy compares faster than the strided view
    gaps = body[n + 1 : -2].reshape(t - 1, n + 3)[:, np.arange(3)]
    if not (gaps == _GAP).all():
        return None
    try:
        return pack_bits(body.reshape(t, n + 3)[:, 1 : n + 1], text=True)
    except ValidationError:
        return None


def _encode_error(exc: ProtocolError) -> bytes:
    return _encode({"type": "error", "code": exc.code, "detail": exc.detail})


# ---------------------------------------------------------------------------
# judging


@dataclass(frozen=True)
class SecretVerdict:
    """Per-secret outcome of judging a batch of samples."""

    expected: float
    observed: float
    deviation: float
    passed: bool


@dataclass(frozen=True)
class VerdictReport:
    per_secret: tuple[SecretVerdict, ...]
    accept: bool
    samples_used: int
    epsilon: float


def acceptance_threshold(key: SecretKey, delta: float, samples: int) -> float:
    """Deviation allowance sqrt(2 ln(2K/delta) / T) for K secrets, T samples.

    A union bound over the K per-secret checks keeps the total false-reject
    probability of an honest device below delta.  Warns when an expected
    value is so small that the pass band around it covers zero twice over.
    """
    eps = _hoeffding_radius(samples, delta, key.count)
    for k, e in enumerate(key.expected):
        if abs(e) < 2.0 * eps:
            warnings.warn(
                f"secret {k}: |expected|={abs(e):.4f} is below twice the "
                f"threshold {eps:.4f}; the check has little power",
                WeakSignalWarning,
                stacklevel=2,
            )
    return eps


def judge(key: SecretKey, samples: np.ndarray, epsilon: float) -> VerdictReport:
    """Compare empirical parity correlations against the key's expectations.

    ``samples`` is a packed batch of key.n-bit rows (see
    :func:`iqpverify.bitlin.pack_rows`).  For each secret s the observed value
    is the sample mean of (-1)^(s.x); the batch is accepted only if every
    secret's deviation from its expected value is at most ``epsilon``.
    """
    if len(samples) == 0:
        raise ValidationError("cannot judge an empty batch")
    _finite_positive("epsilon", epsilon)
    n = key.n
    if samples.dtype != np.uint64 or samples.shape[1:] != (words_per_row(n),):
        raise ValidationError(f"batch of shape {samples.shape} does not hold {n}-bit rows")
    if np.any(samples & ~pack_ints([(1 << n) - 1], n)):
        raise ValidationError(f"sample bits set above key n={n}")
    total = len(samples)
    verdicts = []
    for s, expected in zip(key.secrets, key.expected):
        agree = total - int(row_parities(samples, s).sum())
        observed = (2 * agree - total) / total
        deviation = abs(observed - expected)
        verdicts.append(
            SecretVerdict(expected, observed, deviation, deviation <= epsilon)
        )
    return VerdictReport(
        per_secret=tuple(verdicts),
        accept=all(v.passed for v in verdicts),
        samples_used=total,
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# provers


def _honest_table(program: IqpProgram) -> _SamplingTable:
    """The program's sampling table; a rank above the dense cap is ``capacity``."""
    try:
        return _sampling_table(program)
    except CapacityError as exc:
        raise ProtocolError("capacity", f"cannot simulate: {exc}")


def prover_honest(challenge: ChallengeMsg, rng: np.random.Generator) -> SamplesMsg:
    """Sample the program exactly on rank(chi) qubits; a rank above the cap is ``capacity``."""
    draws = _draw(_honest_table(challenge.program), challenge.samples_requested, rng)
    return SamplesMsg(challenge.session, challenge.n, draws)


def prover_uniform(challenge: ChallengeMsg, rng: np.random.Generator) -> SamplesMsg:
    """Ignore the program: one T x n ``rng.integers(0, 2)`` table (``bitlin.random_bit_rows``)."""
    draws = random_bit_rows(challenge.n, challenge.samples_requested, rng)
    return SamplesMsg(challenge.session, challenge.n, draws)


def prover_leak(
    challenge: ChallengeMsg,
    leaked: SecretKey,
    rng: np.random.Generator,
) -> SamplesMsg:
    """Cheat using one leaked secret: match its parity bias and nothing else.

    Each sample is uniform conditioned on the parity against the leaked
    secret, taken orthogonal with probability (1 + expected) / 2.  With a
    single hidden secret this reproduces the judged statistic exactly; it
    cannot satisfy two independent secrets at once, which is what
    multi-secret challenges exploit.
    """
    if leaked.count != 1:
        raise ProtocolError("unsupported", "leak prover plays exactly one leaked secret")
    s = leaked.secrets[0]
    if len(s) != challenge.n:
        raise ProtocolError("bad-n", f"leaked secret has {len(s)} bits, challenge n={challenge.n}")
    if not s.bits:
        raise ProtocolError("unsupported", "leaked secret has empty support")
    p_orth = bias_from_correlation(leaked.expected[0])
    want_orth = rng.random(size=challenge.samples_requested) < p_orth
    draws = random_rows(challenge.n, challenge.samples_requested, rng)
    # Parity 1 where orthogonal was drawn, or 0 where not: flip one support bit.
    fix = row_parities(draws, s) == want_orth
    draws[fix] ^= pack_ints([s.bits & -s.bits], challenge.n)  # its lowest support bit
    return SamplesMsg(challenge.session, challenge.n, draws)


# ---------------------------------------------------------------------------
# transport

_PROVERS = {  # name -> (needs a leaked key, (challenge, rng, key) -> reply), looked up per call
    "honest": (False, None),  # ProverServer draws from its kept sampling table
    "uniform": (False, lambda challenge, rng, key: prover_uniform(challenge, rng)),
    "leak": (True, lambda challenge, rng, key: prover_leak(challenge, key, rng)),
}
PROVER_BUILTINS = tuple(_PROVERS)

_WORKERS = 2  # threads that serve connections, fixed for the server's life
_QUEUED = 16  # accepted connections waiting for a worker; past this, ``capacity``
_CHALLENGE_WAIT = 1.0  # seconds a worker waits for each next chunk of the challenge
_TABLE_BUDGET = 64 << 20  # bytes: bounds the slot, line bytes and table first, then the text


class _Kept(NamedTuple):
    """The honest server's slot, keyed by the bytes of a challenge line inside its frame.

    ``members`` are those bytes (:func:`_challenge_members`), ``program`` and
    ``table`` what they decode and simulate to, and ``text`` the table's
    reply-text lookups (:func:`_reply_text`), None unless they fit
    ``_TABLE_BUDGET`` with the bytes and the table.
    """

    members: bytes
    program: IqpProgram
    table: _SamplingTable
    text: np.ndarray | None = None


def _reply_text(xors: np.ndarray, n: int) -> np.ndarray:
    """Reply-text lookups: row k of group g is entry k of XOR lookup g as '"bits",' text.

    Every group holds its bits as 0/1 bytes in a zero frame, and group 0 also
    the constant '"' + '0' * n + '",' row, so the XOR of one row per group is
    one sample's text: '0' ^ 1 is '1'.
    """
    groups = len(xors)
    text = np.zeros((groups, 256, n + 3), dtype=np.uint8)
    text[:, :, 1:-2] = unpack_bits(xors.reshape(groups * 256, -1), n).reshape(groups, 256, n)
    text[0] ^= np.frombuffer(b'"' + b"0" * n + b'",', np.uint8)
    text.flags.writeable = False
    return text


def _honest_line(
    challenge: ChallengeMsg, rng: np.random.Generator, table: _SamplingTable, text: np.ndarray | None
) -> bytes:
    """The honest reply line: one reply-text gather per group, XORed by ``combine_rows``.

    Without text it writes a packed batch through :meth:`SamplesMsg.encode`.
    """
    session, t, n = challenge.session, challenge.samples_requested, challenge.n
    if text is None:
        return SamplesMsg(session, n, _draw(table, t, rng)).encode()
    picks = _picks(table, t, rng)
    return _reply_line(session, t, n, lambda body: combine_rows(picks, text, body))


class ProverServer(socketserver.TCPServer):
    """TCP prover served by a fixed pool of worker threads.  One challenge per connection.

    The accept loop queues each connection for one of ``_WORKERS`` threads,
    started with the server; past ``_QUEUED`` waiting connections it answers
    ``capacity`` and closes.  Each challenge gets its own rng stream derived
    from (seed, sha256 of its session), so a fixed seed gives every session
    the same batch regardless of arrival order.  The honest prover keeps one
    slot, keyed by a challenge line's bytes between its "session" and "t"
    members: those bytes, the program they decode to, its sampling table and,
    when they fit, the table's reply-text lookups (for each group of 8 basis
    ints, 256 rows of n+3 bytes).  A line with the kept bytes skips decoding
    its program and the simulation; only its "type", "session" and "t" are
    checked, in :meth:`ChallengeMsg.from_payload`'s order.  Any other line is
    decoded and simulated afresh, and replaces the slot only if it is laid out
    as :meth:`ChallengeMsg.encode` writes it and its bytes and table fit
    ``_TABLE_BUDGET``; the lookups are added if they fit as well.  A worker
    waits at most ``_CHALLENGE_WAIT`` seconds for each next chunk of the
    challenge, capped at ``timeout``, so a silent client frees it quickly; it
    closes the connection as soon as the reply is sent.
    :meth:`start` serves from a background thread; ``serve_forever()`` from
    the calling one.  :meth:`close` closes queued connections, wakes the
    workers and joins them.
    """

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        prover: str = "honest",
        leaked_key: SecretKey | None = None,
        seed: int = 0,
        timeout: float = 30.0,
    ):
        if prover not in _PROVERS:
            raise ValidationError(f"unknown prover {prover!r}")
        needs_key, self._prover = _PROVERS[prover]
        if needs_key and leaked_key is None:
            raise ValidationError(f"{prover} prover needs a leaked key")
        seeded_rng(seed)  # refuses a negative seed before the socket binds
        _finite_positive("timeout", timeout)
        self._leaked_key = leaked_key
        self._seed = seed
        self._timeout = timeout  # not ``timeout``: BaseServer.timeout is handle_request's
        self._lock = threading.Lock()  # active sockets, closing
        self._kept: _Kept | None = None  # replaced whole, never mutated
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._active: set[socket.socket] = set()
        self._closing = False
        self._thread: threading.Thread | None = None
        super().__init__(address, None)  # finish_request serves; no handler class
        self._workers = [threading.Thread(target=self._work, daemon=True) for _ in range(_WORKERS)]
        for worker in self._workers:
            worker.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def process_request(self, sock: socket.socket, client_address) -> None:
        """Queue the connection for a worker; a full queue gets ``capacity`` at once."""
        if self._queue.qsize() < _QUEUED:  # only this thread puts, so the check holds
            self._queue.put((sock, client_address))
            return
        log.info("connection %s:%s: refused, %d queued", *client_address[:2], _QUEUED)
        with contextlib.suppress(OSError):
            sock.sendall(_encode_error(ProtocolError("capacity", "every prover worker is busy")))
        self.shutdown_request(sock)

    def _work(self) -> None:
        while (item := self._queue.get()) is not None:
            sock, client_address = item
            with self._lock:
                if self._closing:  # queued before close(): closed unserved
                    self.shutdown_request(sock)
                    continue
                self._active.add(sock)
            try:
                self.finish_request(sock, client_address)
            except Exception:  # noqa: BLE001 - report, keep the worker
                self.handle_error(sock, client_address)
            finally:
                with self._lock:
                    self._active.discard(sock)
                self.shutdown_request(sock)

    def _honest(
        self, line: bytes, payload: dict
    ) -> tuple[ChallengeMsg, _SamplingTable, np.ndarray | None, str]:
        """The honest prover's challenge, table and reply text, kept ("hit") or new ("miss").

        ``payload`` is ``line`` decoded.  A line with the kept bytes inside its
        frame reuses the kept program, table and text; its "type", "session"
        and "t" are checked as :meth:`ChallengeMsg.from_payload` checks them,
        in its order.  Any other line is decoded and gets a new table, kept
        only if the line has the frame and its bytes and the table fit
        ``_TABLE_BUDGET``; the reply text is added if it fits as well.
        """
        kept = self._kept  # one read: another worker may replace the slot meanwhile
        members = _challenge_members(line, payload)
        if kept is not None and members == kept.members:
            session = _challenge_session(payload)
            t = _challenge_count(payload, kept.program.n, session)
            return ChallengeMsg(session, kept.program, t), kept.table, kept.text, "hit"
        challenge = ChallengeMsg.from_payload(payload)
        table = _honest_table(challenge.program)  # a capacity refusal leaves the slot as it was
        text = None
        if members is not None and (room := _TABLE_BUDGET - table.nbytes - len(members)) >= 0:
            if len(table.xors) * 256 * (challenge.n + 3) <= room:
                text = _reply_text(table.xors, challenge.n)
            self._kept = _Kept(members, challenge.program, table, text)
        return challenge, table, text, "miss"

    def finish_request(self, sock: socket.socket, client_address) -> None:
        """Serve one connection: challenge in, samples or error out."""
        peer = "%s:%s" % client_address[:2]
        sock.settimeout(min(_CHALLENGE_WAIT, self._timeout))  # per chunk: a long line still gets in
        try:
            try:
                line = _recv_line(sock, time.monotonic() + self._timeout)  # the whole line
                sock.settimeout(self._timeout)  # sendall's limit is for the whole reply
                table, text, found = None, None, "-"
                if self._prover is None:
                    challenge, table, text, found = self._honest(line, _decode_line(line))
                else:
                    challenge = ChallengeMsg.from_payload(_decode_line(line))
                session = challenge.session.encode("utf-8", "surrogatepass")
                tag = int.from_bytes(hashlib.sha256(session).digest(), "little")
                rng = seeded_rng(self._seed, tag)
                if table is None:
                    reply = self._prover(challenge, rng, self._leaked_key).encode()
                else:
                    reply = _honest_line(challenge, rng, table, text)
            except ProtocolError as exc:
                log.info("connection %s: %s (%s)", peer, exc.code, exc.detail)
                sock.sendall(_encode_error(exc))
                return
            except Exception as exc:  # noqa: BLE001 - report, never crash the server
                log.exception("connection %s: internal failure", peer)
                sock.sendall(_encode_error(ProtocolError("internal", str(exc))))
                return
            sock.sendall(reply)
        except OSError:
            log.info("connection %s: transport dropped", peer)
            return
        log.info(
            "connection %s: served %d samples (n=%d d=%s table=%s)",
            peer, challenge.samples_requested, challenge.n, table.d if table else "-", found,
        )

    def start(self) -> "ProverServer":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:  # shutdown() waits for serve_forever to return
            self.shutdown()
            self._thread.join(timeout=5.0)
        self.server_close()
        with self._lock:  # a worker closes its socket only after leaving ``_active``
            self._closing = True
            for sock in self._active:  # wakes a worker blocked in recv or send
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        for _ in self._workers:
            self._queue.put(None)  # queued after every waiting connection
        for worker in self._workers:
            worker.join(timeout=5.0)

    def __enter__(self) -> "ProverServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def _exchange(sock: socket.socket, challenge: ChallengeMsg, deadline: float) -> SamplesMsg:
    sock.sendall(challenge.encode())
    line = _recv_line(sock, deadline)
    batch = _read_encoded_reply(line, challenge)
    if batch is not None:
        return SamplesMsg(challenge.session, challenge.n, batch)
    payload = _decode_line(line)
    if payload.get("type") == "error":
        raise ProtocolError(
            str(payload.get("code", "unknown")), str(payload.get("detail", ""))
        )
    return SamplesMsg.from_payload(payload, challenge)


def request(
    address: tuple[str, int],
    program: IqpProgram,
    samples: int,
    timeout: float = 30.0,
    session: str | None = None,
) -> SamplesMsg:
    """Fetch one batch of samples for ``program``, its whole reply line within ``timeout``."""
    _finite_positive("timeout", timeout)
    challenge = ChallengeMsg.from_program(program, samples, session)
    deadline = time.monotonic() + timeout
    with socket.create_connection(address, timeout=timeout) as sock:
        return _exchange(sock, challenge, deadline)


def run_verification(
    address: tuple[str, int],
    program: IqpProgram,
    key: SecretKey,
    samples: int,
    delta: float = 0.05,
    timeout: float = 30.0,
    session: str | None = None,
) -> VerdictReport:
    """One full verification round against a remote prover: :func:`request`, then :func:`judge`.

    Sends the challenge and nothing else, validates the reply shape and judges
    locally with the union-bound threshold for ``delta``.  A key reused across
    rounds is still a linear oracle through the accept bit alone, which the
    prover learns out of band: n rounds recovered the secret of one-secret keys
    at n = 10, 64 and 200.  The paper's protocol issues a fresh challenge per
    round.
    """
    if key.n != program.n:  # a packed batch does not record its row width
        raise ValidationError(f"program n={program.n} != key n={key.n}")
    _finite_positive("timeout", timeout)  # before the threshold can warn about the key
    epsilon = acceptance_threshold(key, delta, samples)
    return judge(key, request(address, program, samples, timeout, session).batch, epsilon)
