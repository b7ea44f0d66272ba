"""Challenge construction: random ensembles, main-part search, scrambling.

A challenge hides one or more secret strings inside an X-program.  Rows with
odd parity against a secret pin its correlation value; extra rows orthogonal
to every secret pad the program; column additions then scramble matrix and
secrets together without moving any correlation value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bitlin import (
    BitMatrix,
    BitVector,
    echelon,
    pack_bits,
    random_rows,
    row_ints,
    scatter_bits,
    transpose_ints,
)
from .errors import CapacityError, ConstructionError, DimensionError, ValidationError
from .evaluators import CorrelationResult, _check_secret, correlation_clifford
from .model import Angle, IqpProgram, PI_OVER_8, SecretKey, seeded_rng

__all__ = [
    "ConstructionSpec",
    "SearchOutcome",
    "random_nonzero_bits",
    "random_nonzero_rows",
    "random_program",
    "random_2local",
    "search_main_part",
    "add_redundant_rows",
    "random_scramble_ops",
    "scramble",
    "build_challenge",
]

_SEARCH_WEIGHT_CAP = 16


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters for :func:`build_challenge`."""

    n: int
    secrets: int = 1
    weight: int = 2
    target: float = 0.7
    budget: int = 200
    redundant_rows: int = 8
    scramble_ops: int | None = None  # None means 20 * n
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.secrets < 1:
            raise ValidationError("need at least one secret")
        if self.weight < 1:
            raise ValidationError("secret weight must be at least 1")
        if not 0.0 < self.target <= 1.0:
            raise ValidationError(f"target {self.target} outside (0, 1]")
        if self.budget < 1:
            raise ValidationError("search budget must be at least 1")
        if self.redundant_rows < 0:
            raise ValidationError("redundant row count must be non-negative")
        if self.scramble_ops is not None and self.scramble_ops < 0:
            raise ValidationError("scramble op count must be non-negative")
        seeded_rng(self.seed)  # refuses a negative seed at construction


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a main-part search on a support window."""

    rows: tuple[BitVector, ...]
    secret: BitVector
    result: CorrelationResult
    target_met: bool


def random_nonzero_bits(n: int, rng: np.random.Generator) -> int:
    """A uniform nonzero n-bit string as an int (bit i is coordinate i)."""
    if n <= 63:
        return int(rng.integers(1, 1 << n, dtype=np.uint64))
    while True:
        bits = row_ints(random_rows(n, 1, rng))[0]
        if bits:
            return bits


def random_nonzero_rows(n: int, m: int, rng: np.random.Generator) -> list[int]:
    """m uniform nonzero n-bit strings as ints: the values and stream of m scalar draws."""
    if n <= 63:  # one draw for all rows: the same values and stream as m scalar draws
        return rng.integers(1, 1 << n, size=m, dtype=np.uint64).tolist()
    return [random_nonzero_bits(n, rng) for _ in range(m)]


_PI8_ANGLES = tuple(Angle(w, 8) for w in range(8))
_PI8_RADIANS = np.array([angle.radians for angle in _PI8_ANGLES])


def random_program(
    n: int,
    m: int,
    angle_policy: str,
    rng: np.random.Generator,
) -> IqpProgram:
    """Program with m rows drawn uniformly from the nonzero n-bit strings.

    ``angle_policy`` is "pi8" (every row pi/8) or "uniform-pi8" (independent
    uniform multiples w*pi/8, w in 0..7, drawn after the rows).
    """
    if n < 1 or m < 0:
        raise ValidationError(f"bad shape n={n}, m={m}")
    bits = random_nonzero_rows(n, m, rng)
    if angle_policy == "uniform-pi8":
        angles = tuple(_PI8_ANGLES[w] for w in rng.integers(0, 8, size=m).tolist())
    elif angle_policy == "pi8":
        angles = (PI_OVER_8,) * m
    else:
        raise ValidationError(f"unknown angle policy {angle_policy!r}")
    return IqpProgram(BitMatrix.from_ints(bits, n), angles)


@lru_cache(maxsize=8)
def _two_local_masks(n: int) -> np.ndarray:
    """Read-only row ints of X_iX_j (pairs i < j in lexicographic order), then of X_i.

    int64 while every row fits one, Python ints from n = 64, where
    :func:`_two_local_draw` builds them per call: n**2 / 2 wide ints are not kept.
    """
    masks = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    masks += [1 << i for i in range(n)]
    masks = np.array(masks, dtype=np.int64 if n < 64 else object)
    masks.flags.writeable = False
    return masks


def _two_local_draw(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The two-local draw on ints: (row ints, coefficients w in 1..7) of its acting rows.

    Coefficients w are uniform in 0..7, drawn in one call (pairs i < j in
    lexicographic order, then singles), and rows whose coefficient lands on
    0 are omitted; row j acts at angle w_j * pi/8.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    masks = _two_local_masks(n) if n < 64 else _two_local_masks.__wrapped__(n)
    ws = rng.integers(0, 8, size=len(masks))
    acting = ws != 0
    return masks[acting], ws[acting]


def random_2local(n: int, rng: np.random.Generator) -> IqpProgram:
    """Random two-local ensemble: X_iX_j and X_i rows with angles w*pi/8.

    The program of :func:`_two_local_draw`'s rows and coefficients, on the same
    stream: it is possibly empty and holds only acting rows.
    """
    rows, weights = _two_local_draw(n, rng)
    angles = tuple(_PI8_ANGLES[w] for w in weights.tolist())
    return IqpProgram(BitMatrix.from_ints(rows.tolist(), n), angles)


@lru_cache(maxsize=_SEARCH_WEIGHT_CAP)
def _window(weight: int) -> tuple[tuple[int, ...], BitVector]:
    """The odd-weight rows of a ``weight``-qubit window, ascending, and its all-ones secret."""
    pool = tuple(bits for bits in range(1, 1 << weight) if bits.bit_count() & 1)
    return pool, BitVector(weight, (1 << weight) - 1)


@lru_cache(maxsize=1024)
def _window_value(weight: int, mask: int) -> CorrelationResult:
    """Exact value of the pool rows of ``_window(weight)`` that ``mask`` picks, at pi/8.

    Bit i of ``mask`` picks pool row i; rows keep pool order.  The value is
    that of the window's all-ones secret, the same for every challenge, so
    the memo holds no challenge's program, secret or key.
    """
    pool, secret = _window(weight)
    rows = [pool[i] for i, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1"]
    program = IqpProgram(BitMatrix.from_ints(rows, weight), (PI_OVER_8,) * len(rows))
    return correlation_clifford(program, secret)


def search_main_part(
    weight: int, target: float, budget: int, rng: np.random.Generator
) -> SearchOutcome:
    """Search for a main part on ``weight`` qubits with a large exact value.

    Candidate rows live on the window and have odd parity against the
    window's all-ones secret, so every candidate row stays in the main part.
    Returns the first candidate set reaching ``target`` in absolute value,
    otherwise the best seen within ``budget`` attempts (``target_met`` False).
    """
    if weight < 1:
        raise ValidationError("weight must be at least 1")
    if weight > _SEARCH_WEIGHT_CAP:
        raise CapacityError(f"search weight {weight} exceeds cap {_SEARCH_WEIGHT_CAP}")
    if not 0.0 < target <= 1.0:
        raise ValidationError(f"target {target} outside (0, 1]")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    pool, secret = _window(weight)
    best: SearchOutcome | None = None
    for _ in range(budget):
        size = int(rng.integers(1, len(pool) + 1))
        picks = rng.choice(len(pool), size=size, replace=False).tolist()
        result = _window_value(weight, sum(1 << i for i in picks))  # picks are distinct
        if best is None or abs(result.value) > abs(best.result.value):
            vectors = tuple(BitVector(weight, pool[i]) for i in sorted(picks))
            best = SearchOutcome(vectors, secret, result, abs(result.value) >= target)
        if abs(result.value) >= target:
            return best
    return best


def add_redundant_rows(
    program: IqpProgram,
    secrets: Sequence[BitVector],
    count: int,
    rng: np.random.Generator,
) -> IqpProgram:
    """Append ``count`` random nonzero rows orthogonal to every secret.

    Each row draws one coefficient bit per free column of the secrets'
    reduced echelon form and equals the XOR of the ``nullspace_basis``
    vectors those bits pick: the bits land on the free columns, and pivot p
    takes the parity of its echelon row with them.  Appended rows take the
    program's shared angle (pi/8 when angles are mixed); either way they
    cannot move any secret's correlation value.
    """
    if count < 0:
        raise ValidationError("count must be non-negative")
    if not secrets:
        raise ValidationError("need at least one secret")
    n = program.n
    _check_secret(program, *secrets)
    if count == 0:
        return program
    pivots = echelon(s.bits for s in secrets)
    free = (1 << n) - 1 - sum(1 << p for p in pivots)  # the free columns
    if not free:
        raise ConstructionError("no nonzero row is orthogonal to every secret")
    coeffs, need = [], count
    while need:  # nonzero draws in stream order, as a redraw-per-row loop keeps them
        draw = rng.integers(0, 2, size=(need, free.bit_count()))
        coeffs.append(draw[draw.any(axis=1)])
        need -= len(coeffs[-1])
    new = [  # row p's only pivot bit is p, clear in bits: each pivot takes its row's parity
        bits | sum(((row & bits).bit_count() & 1) << p for p, row in pivots.items())
        for bits in scatter_bits(row_ints(pack_bits(np.concatenate(coeffs))), free)
    ]
    chi = BitMatrix.from_ints(program.chi.ints + tuple(new), n)
    return IqpProgram(chi, program.angles + (program.uniform_angle() or PI_OVER_8,) * count)


def random_scramble_ops(n: int, count: int | None, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform random column pairs (src, dst), src != dst, as a count x 2 array.

    A ``count`` of None means 20 * n, the default scramble depth of every challenge.

    numpy draws an array of bounds n, n - 1, n, n - 1, ... one element at a
    time (a bound of 1 draws nothing), so the pairs and the final ``rng``
    state equal the scalar loop src = rng.integers(0, n),
    dst = rng.integers(0, n - 1) moved past src.
    """
    count = 20 * n if count is None else count
    if not 2 <= n <= 1 << 32 or count < 0:
        raise ValidationError(f"{count} ops on {n} columns: need 2 <= n <= 2**32, count >= 0")
    ops = rng.integers(0, np.tile([n, n - 1], count)).reshape(count, 2)
    ops[:, 1] += ops[:, 1] >= ops[:, 0]
    return ops


def scramble(
    program: IqpProgram, secrets: Sequence[BitVector], ops: np.ndarray | Sequence[Sequence[int]]
) -> tuple[IqpProgram, tuple[BitVector, ...]]:
    """Apply column additions to the program and the matched secret updates.

    Op (src, dst) adds column src into column dst and adds secret entry dst
    into entry src, which preserves every row-secret parity -- and therefore
    every correlation value.  Applying the same ops twice is the identity.
    ``ops`` is k x 2 integer pairs, an array or a list, all checked before any
    op runs: the first pair with src == dst or a negative entry raises
    ValidationError, one past the columns DimensionError.  Chi and the secrets
    are transposed once into column ints, so each op is two int XORs: the
    cost is O(len(ops) + n*(m + K)), not O(len(ops) * (m + K)).
    """
    n = program.n
    _check_secret(program, *secrets)
    pairs = np.asarray(ops)
    if pairs.dtype.kind not in "iu":  # a list holding an int past int64 is float or object
        pairs = np.array(ops, dtype=object)
    ints = pairs.dtype != object or all(isinstance(v, (int, np.integer)) for v in pairs.flat)
    if not ints or pairs.size and pairs.shape[1:] != (2,):
        raise ValidationError("scramble ops must be k x 2 integer column pairs")
    srcs, dsts = pairs.reshape(-1, 2).T
    refused = (srcs == dsts) | (srcs < 0) | (dsts < 0)
    bad = np.flatnonzero(refused | (srcs >= n) | (dsts >= n))
    if bad.size:
        op = f"op ({srcs[bad[0]]}, {dsts[bad[0]]})"
        if refused[bad[0]]:
            raise ValidationError(f"{op} needs two distinct columns >= 0")
        raise DimensionError(f"{op} outside {n} columns")
    cols = transpose_ints(program.chi.ints, n)
    secret_cols = transpose_ints([s.bits for s in secrets], n)
    for src, dst in zip(srcs.tolist(), dsts.tolist()):
        cols[dst] ^= cols[src]
        secret_cols[src] ^= secret_cols[dst]
    chi = BitMatrix.from_ints(transpose_ints(cols, program.m), n)
    secrets = tuple(BitVector(n, s) for s in transpose_ints(secret_cols, len(secrets)))
    return IqpProgram(chi, program.angles), secrets


def build_challenge(spec: ConstructionSpec) -> tuple[IqpProgram, SecretKey]:
    """Assemble a scrambled challenge program and its secret key.

    Secrets sit on disjoint weight-w windows; each window gets a searched
    main part at angle pi/8, then orthogonal padding rows, a row shuffle and
    a column scramble.  Expected values are recorded exactly before the
    shuffling and re-checked afterwards.
    """
    rng = seeded_rng(spec.seed)
    if spec.secrets * spec.weight > spec.n:
        raise ConstructionError(
            f"{spec.secrets} disjoint windows of weight {spec.weight} "
            f"do not fit in {spec.n} qubits"
        )
    rows: list[int] = []
    angles: list[Angle] = []
    secrets: list[BitVector] = []
    expected: list[float] = []
    meta: list[str] = []
    for k in range(spec.secrets):
        outcome = search_main_part(spec.weight, spec.target, spec.budget, rng)
        if not outcome.target_met:
            raise ConstructionError(
                f"window {k}: best |value| {abs(outcome.result.value):.6f} "
                f"below target {spec.target} after {spec.budget} attempts",
                best=outcome,
            )
        offset = k * spec.weight
        for row in outcome.rows:
            rows.append(row.bits << offset)
            angles.append(PI_OVER_8)
        secrets.append(BitVector(spec.n, ((1 << spec.weight) - 1) << offset))
        expected.append(outcome.result.value)
        meta.append(
            f"secret {k}: backend=clifford g={outcome.result.g} "
            f"dim={outcome.result.reduced_dim}"
        )
    program = IqpProgram(BitMatrix.from_ints(rows, spec.n), tuple(angles))
    program = add_redundant_rows(program, secrets, spec.redundant_rows, rng)
    order = rng.permutation(program.m).tolist()
    program = IqpProgram(
        BitMatrix.from_ints([program.chi.ints[i] for i in order], spec.n),
        tuple(program.angles[i] for i in order),
    )
    if spec.n >= 2:
        ops = random_scramble_ops(spec.n, spec.scramble_ops, rng)
        program, secrets = scramble(program, secrets, ops)
    for k, (s, e) in enumerate(zip(secrets, expected)):
        check = correlation_clifford(program, s)
        if abs(check.value - e) > 1e-9:  # pragma: no cover - scramble is exact
            raise AssertionError(f"secret {k}: value moved {e} -> {check.value}")
    return program, SecretKey(tuple(secrets), tuple(expected), tuple(meta))
