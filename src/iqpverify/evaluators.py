"""Correlation-function evaluators for X-programs.

Every backend computes (or estimates) the same quantity for a program and a
secret string s: the expectation of the Z-product observable picked out by s
over the program's output distribution.  The redundant rows (even parity
against s) never contribute, which is what the faster backends exploit:

* statevector      exact, any angles, 2**d work (the diagonal exact value)
* diagonal exact   exact, any angles, 2**d work
* diagonal mc      unbiased estimate over uniform n-bit strings, polynomial work
* subspace         exact closed form when all main angles are equal
* clifford         exact Z4 exponential sum when main angles are w*pi/8, O(d**3) work

An exact correlation simulates only the secret's main rows, on d =
rank(main rows) qubits; sampling keeps all rows on rank(chi) qubits, as the
output lies in chi's row space.  The 2**d backends and sampling share one
reduction on plain ints, which rewrites the kept rows as d-bit ints: the
phase table and the subspace span read them directly.  The Z4 sum needs no
rewrite: it reads the main rows' bits at the d pivots of one forward
elimination pass, in place.  The dense paths share one phase
table sum_j theta_j (-1)^(chi_j . x), one Walsh-Hadamard transform of the row
angles: exact diagonal and statevector average cos(2 * table), the amplitudes
are a second transform of exp(i * table).  Only the 2**n tables of
output_distribution and all_correlations are n-wide.  One dense cap applies
to the simulated width, and to the subspace backend's 2**d span.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .bitlin import (
    BitVector,
    combine_rows,
    echelon,
    pivot_mask,
    random_rows,
    row_parities,
    span_weights,
    transpose_ints,
    walsh_hadamard,
    words_per_row,
    xor_tables,
)
from .errors import AngleError, CapacityError, DimensionError, ValidationError
from .model import IqpProgram

__all__ = [
    "Backend",
    "CorrelationResult",
    "DistributionTable",
    "STATEVECTOR_CAP",
    "output_distribution",
    "correlation_statevector",
    "all_correlations",
    "correlation_diagonal",
    "mc_sample_count",
    "correlation_subspace",
    "correlation_clifford",
    "sample_outputs",
    "evaluate",
]

# Dense 2**d arrays and subspace spans above this many simulated qubits d are refused.
STATEVECTOR_CAP = 24


class Backend(str, Enum):
    STATEVECTOR = "statevector"
    DIAGONAL_EXACT = "diagonal_exact"
    DIAGONAL_MC = "diagonal_mc"
    SUBSPACE = "subspace"
    CLIFFORD = "clifford"


@dataclass(frozen=True)
class CorrelationResult:
    """One evaluated correlation value plus how it was obtained.

    ``error_bound`` is 0 for the exact backends; for the Monte-Carlo backend
    it is the Hoeffding radius at the requested confidence.  ``g`` is only
    set by the clifford backend (|value| = 2**(-g/2)); ``samples_used`` only
    by the Monte-Carlo backend; ``reduced_dim`` only by the exact backends,
    as the rank d of the secret's main rows they simulated.
    """

    value: float
    backend: Backend
    error_bound: float = 0.0
    g: int | None = None
    samples_used: int | None = None
    reduced_dim: int | None = None


@dataclass(eq=False)
class DistributionTable:
    """Full output distribution of a program over all 2**n bit strings."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (1 << self.n,):
            raise DimensionError(
                f"distribution for n={self.n} needs {1 << self.n} entries"
            )
        if np.any(self.probs < -1e-12):
            raise ValidationError("negative probability entry")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {total}, not 1")


def _check_secret(program: IqpProgram, *secrets: BitVector) -> None:
    for s in secrets:
        if len(s) != program.n:
            raise DimensionError(f"secret has {len(s)} bits, program has {program.n}")


def _main_rows(rows: Sequence[int], angles: Sequence, s: int):
    """(row ints, angles) of the secret's main rows, those with (row & s) of odd weight."""
    main = [(row, angle) for row, angle in zip(rows, angles) if (row & s).bit_count() & 1]
    return tuple(zip(*main)) or ((), ())


def _reduce(program: IqpProgram, s: BitVector | None = None):
    """(reduced row ints, their angles, d, basis ints B), built on plain ints.

    Without a secret every row is kept and d = rank(chi).  With a secret only
    its main rows, (row & s) of odd weight, are kept, as the redundant ones
    never move the value, and d = rank(main rows).  ``bitlin.echelon`` gives B;
    row j becomes the d-bit int c_j of its bits at the pivots, so chi_j = c_j . B.
    With s'_k = b_k . s, p(y . B) = p'(y), s . (y . B) = s' . y and
    c_j . s' = chi_j . s = 1 on every main row, so no value needs s'.  The
    reduced rows have full column rank d; at full rank B is the identity.  A
    program without rows reduces to d = 0: a one-entry table.
    """
    rows, angles = program.chi.ints, program.angles
    if s is not None:
        _check_secret(program, s)
        rows, angles = _main_rows(rows, angles, s.bits)
    pivots = echelon(rows)
    runs: dict[int, int] = {}  # p - k -> the pivots p that move to bit k: one shift per run
    for k, p in enumerate(pivots):
        runs[p - k] = runs.get(p - k, 0) | 1 << p
    reduced = [sum((row & mask) >> shift for shift, mask in runs.items()) for row in rows]
    return reduced, angles, len(pivots), list(pivots.values())


def _check_cap(d: int) -> None:
    if d > STATEVECTOR_CAP:
        raise CapacityError(f"dimension {d} exceeds dense cap {STATEVECTOR_CAP}")


def _check_draws(count: int) -> None:
    """Refuse, before any draw, a count of 8-byte draws past the largest array numpy describes."""
    if count > sys.maxsize // 8:  # numpy's sizes are Py_ssize_t, as sys.maxsize is
        raise CapacityError(f"{count} draws exceed the largest array numpy can hold")


def _phase_table(rows: Sequence[int], angles, n: int) -> np.ndarray:
    """sum_j theta_j (-1)^(chi_j . x) at every x: one transform of the row angles."""
    _check_cap(n)
    bits = np.fromiter(rows, np.int64, len(rows))
    radians = np.fromiter((a.radians for a in angles), np.float64, len(rows))
    return walsh_hadamard(np.bincount(bits, radians, minlength=1 << n))  # duplicates add


def _distribution(rows: Sequence[int], angles, n: int) -> DistributionTable:
    """The table of n-bit rows: the transform of exp(i * phase table), scaled by 2**-n."""
    amplitudes = walsh_hadamard(np.exp(1j * _phase_table(rows, angles, n))) / (1 << n)
    return DistributionTable(n, np.abs(amplitudes) ** 2)


def output_distribution(program: IqpProgram) -> DistributionTable:
    """Exact output distribution from two Walsh-Hadamard transforms.

    In the X eigenbasis the program only attaches the phase table's phase to
    each basis state, so the amplitudes are the transform of those phases,
    scaled by 2**-n.
    """
    return _distribution(program.chi.ints, program.angles, program.n)


def correlation_statevector(program: IqpProgram, s: BitVector) -> CorrelationResult:
    """Exact correlation, equal to exact :func:`correlation_diagonal`'s value.

    sum_x p(x) (-1)^(s.x) over the main part's output distribution is the
    average of cos(2 * phase table) over its 2**d strings, so the value is
    that one average, reported under this backend.
    """
    return replace(correlation_diagonal(program, s), backend=Backend.STATEVECTOR)


def all_correlations(program: IqpProgram) -> np.ndarray:
    """Correlation values for every one of the 2**n secrets at once.

    Entry s of the result is the correlation for secret s; entry 0 is 1.
    """
    table = output_distribution(program)
    return walsh_hadamard(table.probs)


def mc_sample_count(epsilon: float, delta: float) -> int:
    """Samples needed so the Monte-Carlo mean is within epsilon w.p. 1-delta.

    Hoeffding for terms in [-1, 1]: T = ceil((2/epsilon^2) * ln(2/delta)).
    """
    _finite_positive("epsilon", epsilon)
    _hoeffding_radius(1, delta)  # refuses delta as every other budget does
    return math.ceil(2.0 / (epsilon * epsilon) * math.log(2.0 / delta))


def _finite_positive(name: str, value: float) -> None:
    """The one rule for epsilon and timeouts: a finite number > 0."""
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"{name} {value} is not a finite number > 0")


def _hoeffding_radius(samples: int, delta: float, count: int = 1) -> float:
    """sqrt(2 ln(2 count/delta) / samples): a union bound over ``count`` means of ±1 draws."""
    if not 0.0 < delta < 1.0:  # every budget's one delta rule; NaN fails both comparisons
        raise ValidationError(f"delta {delta} outside (0, 1)")
    if samples < 1:
        raise ValidationError(f"sample count must be positive, got {samples}")
    return math.sqrt(2.0 * math.log(2.0 * count / delta) / samples)


def correlation_diagonal(
    program: IqpProgram,
    s: BitVector,
    *,
    samples: int | None = None,
    rng: np.random.Generator | None = None,
    delta: float = 0.05,
) -> CorrelationResult:
    """Correlation via the diagonal picture: only main rows enter.

    Each output x contributes cos(sum over main rows of 2*theta*(-1)^(row.x)).
    With ``samples=None`` the average runs over all 2**d strings of the
    reduced main part, d = rank(main rows) (exact, cap applies).  With
    ``samples=T`` it is a Monte-Carlo average over T uniform n-bit strings;
    ``rng`` is then required and ``error_bound`` reports the Hoeffding radius
    at confidence 1-delta.
    """
    if samples is None:
        rows, angles, d, _ = _reduce(program, s)
        value = float(np.cos(2.0 * _phase_table(rows, angles, d)).mean())
        return CorrelationResult(value, Backend.DIAGONAL_EXACT, reduced_dim=d)
    _check_secret(program, s)
    radius = _hoeffding_radius(samples, delta)  # refused before the rng draws
    _check_draws(samples)
    if rng is None:
        raise ValidationError("monte-carlo mode needs an explicit rng")
    omega = np.zeros(samples, dtype=np.float64)
    xs = random_rows(program.n, samples, rng)
    for row, angle in zip(*_main_rows(program.chi.ints, program.angles, s.bits)):
        two_theta = 2.0 * angle.radians
        omega += np.where(row_parities(xs, BitVector(program.n, row)), -two_theta, two_theta)
    value = float(np.cos(omega).mean())
    return CorrelationResult(
        value,
        Backend.DIAGONAL_MC,
        error_bound=radius,
        samples_used=samples,
    )


def correlation_subspace(program: IqpProgram, s: BitVector) -> CorrelationResult:
    """Closed form when every main row shares one angle theta.

    With q main rows whose column space has dimension d, the value is
    2**-d * sum over the column-space elements c of cos(2*theta*(q - 2*|c|)).
    The reduced main rows have full column rank d, so their columns are a
    basis of that space.  Exact, and independent of the basis: only the
    weight histogram enters.
    """
    rows, angles, d, _ = _reduce(program, s)
    q = len(rows)
    _check_cap(d)
    if q == 0:
        return CorrelationResult(1.0, Backend.SUBSPACE, reduced_dim=d)
    theta = angles[0]
    if any(a != theta for a in angles):
        raise AngleError("subspace backend needs one shared main-part angle")
    weights = span_weights(transpose_ints(rows, d), length=q)
    hist = np.bincount(weights, minlength=q + 1)
    two_theta = 2.0 * theta.radians
    total = sum(float(h) * math.cos(two_theta * (q - 2 * k)) for k, h in enumerate(hist) if h)
    return CorrelationResult(total / (1 << d), Backend.SUBSPACE, reduced_dim=d)


def _add_parity(lin: list[int], pairs: list[int], k: int, mask: int):
    """q(x) += k * [mask . x] mod 4.

    [a . x] = sum_{i in a} x_i - 2 * sum_{i < i' in a} x_i x_i' (mod 4), so
    L_i += k on the mask and, for odd k, every pair inside the mask toggles.
    """
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        lin[i] = (lin[i] + k) & 3
        if k & 1:
            pairs[i] ^= mask ^ low


def _z4_sum(rows: Sequence[int], weights: Sequence[int], live: int) -> tuple[int, int] | None:
    """The main part's correlation as (phase8, r2), or None when it is 0.

    The d variables x_i are the set bits i of ``live``, the pivots of the main
    rows' echelon form, and row j enters as c_j = row & live: its bits at the
    pivots, which are _reduce's d-bit int c_j with the variables relabelled in
    order.  The value is omega**phase8 * 2**(r2/2), omega = e^(i*pi/4).  With
    row j at angle w_j * pi/8, k_j = -w_j mod 4 and W = sum_j w_j it equals
    omega**W * 2**-d * sum over the 2**d settings x of the live bits of i**q(x),
    q(x) = sum_j k_j * [c_j . x] mod 4 = L . x + 2 * sum over pairs in B of x_i x_i'.
    The sum drops the lowest live variable p at a time (Bravyi-Gosset,
    arXiv:1601.07601), with b = B[p] on the live variables:
    L_p odd gives sqrt2 * omega**(+-1) * i**(-+[b . x]); L_p even gives 2, or
    0 when also b = 0 and L_p = 2, or, when b != 0, fixes the lowest pivot r
    of b to x_r = L_p/2 xor (b minus r) . x.
    """
    lin, pairs = [0] * live.bit_length(), [0] * live.bit_length()  # indexed by bit
    phase8, r2 = 0, -2 * live.bit_count()
    for row, w in zip(rows, weights):
        phase8 += w
        _add_parity(lin, pairs, -w & 3, row & live)
    while live:
        low = live & -live
        live ^= low
        p = low.bit_length() - 1
        b, lp = pairs[p] & live, lin[p]
        if lp & 1:
            r2 += 1
            phase8 += 1 if lp == 1 else 7
            _add_parity(lin, pairs, -lp & 3, b)
        elif not b:
            if lp:
                return None
            r2 += 2
        else:
            r2 += 2
            low = b & -b
            live ^= low
            r, rest = low.bit_length() - 1, b ^ low
            u, lr = pairs[r] & live, lin[r]
            if lp:  # x_r = 1 xor y: L_r x_r = L_r - L_r y, 2 x_r u.x = 2 u.x + 2 y u.x
                phase8 += 2 * lr
                _add_parity(lin, pairs, -lr & 3, rest)
                _add_parity(lin, pairs, 2, u)
            else:
                _add_parity(lin, pairs, lr, rest)
            # 2 y u.x with y = rest . x: the pairs rest x u, and 2 x_i for i in both
            bits = rest
            while bits:
                low = bits & -bits
                bits ^= low
                pairs[low.bit_length() - 1] ^= u
            bits = u
            while bits:
                low = bits & -bits
                bits ^= low
                pairs[low.bit_length() - 1] ^= rest
            _add_parity(lin, pairs, 2, rest & u)
    return phase8 % 8, r2


def _clifford_level(rows: Sequence[int], weights: Sequence[int]) -> tuple[int | None, int, int]:
    """(g, sign, d) of main rows at angles w_j * pi/8: value sign * 2**(-g/2), or 0 (g None).

    The Z4 sum runs over d = rank(main rows) variables, the pivot bits of one
    forward elimination pass (``bitlin.pivot_mask``), in O(d**3) bit operations.
    """
    live = pivot_mask(rows)
    d = live.bit_count()
    exact = _z4_sum(rows, weights, live)
    if exact is None:
        return None, 1, d
    phase8, r2 = exact
    if phase8 not in (0, 4):  # pragma: no cover - the value is a real expectation
        raise AssertionError(f"non-real phase {phase8}")
    g = -r2
    assert 0 <= g <= d, g
    return g, -1 if phase8 else 1, d


def correlation_clifford(program: IqpProgram, s: BitVector) -> CorrelationResult:
    """Exact value when every main angle is a multiple of pi/8.

    |value| is exactly 0 or 2**(-g/2) (:func:`_clifford_level`), and g is reported.
    """
    _check_secret(program, s)
    rows, angles = _main_rows(program.chi.ints, program.angles, s.bits)
    weights = [angle.multiple_of_pi8() for angle in angles]
    if None in weights:
        raise AngleError(f"main-part angle {angles[weights.index(None)]} is not a multiple of pi/8")
    g, sign, d = _clifford_level(rows, weights)
    value = 0.0 if g is None else sign * 2.0 ** (-g / 2.0)
    return CorrelationResult(value, Backend.CLIFFORD, g=g, reduced_dim=d)


@dataclass(frozen=True, eq=False)
class _SamplingTable:
    """What sampling a program computes before its first draw; read-only, so threads share it.

    ``cumulative`` holds the 2**d running sums of the reduced rows' output
    table, d = rank(chi), and ``xors`` the ``bitlin.xor_tables`` of the d
    basis ints B of ``_reduce``, which map a drawn y to its output y . B.
    """

    cumulative: np.ndarray
    xors: np.ndarray

    @property
    def d(self) -> int:
        return len(self.cumulative).bit_length() - 1

    @property
    def nbytes(self) -> int:
        return self.cumulative.nbytes + self.xors.nbytes


def _sampling_table(program: IqpProgram) -> _SamplingTable:
    """The program's sampling table; a rank above the dense cap is a ``CapacityError``.

    So are XOR lookups larger than the cap's largest running sums, 8 * 2**cap
    bytes: they grow with n, 2 KiB per 8 basis ints per 64 columns.
    """
    rows, angles, d, basis = _reduce(program)
    lookups = 2048 * -(-d // 8) * words_per_row(program.n)  # bytes of xor_tables(basis, n)
    if lookups > 8 << STATEVECTOR_CAP:
        raise CapacityError(f"{lookups} bytes of output lookups exceed {8 << STATEVECTOR_CAP}")
    cumulative, xors = np.cumsum(_distribution(rows, angles, d).probs), xor_tables(basis, program.n)
    cumulative.flags.writeable = xors.flags.writeable = False
    return _SamplingTable(cumulative, xors)


def _picks(table: _SamplingTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` reduced outputs y < 2**d, drawn from the table by ``rng.random``, as uint64."""
    draws = rng.random(count)
    order = np.argsort(draws)  # sorted keys: the binary searches stop mispredicting
    ys = np.empty_like(order)
    ys[order] = np.searchsorted(table.cumulative, draws[order], side="right")
    np.minimum(ys, len(table.cumulative) - 1, out=ys)  # a draw past the last running sum
    return ys.view(np.uint64)


def _draw(table: _SamplingTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """A packed batch of ``count`` outputs x = y . B, y drawn by :func:`_picks`."""
    return combine_rows(_picks(table, count, rng)[:, None], table.xors)  # ys < 2**24: one word


def sample_outputs(program: IqpProgram, count: int, rng: np.random.Generator) -> np.ndarray:
    """A packed batch of outputs x = y . B, y drawn from the reduced rows' table."""
    if count < 1:
        raise ValidationError(f"sample count must be positive, got {count}")
    _check_draws(count)
    return _draw(_sampling_table(program), count, rng)


def evaluate(
    program: IqpProgram,
    s: BitVector,
    backend: Backend | str,
    *,
    samples: int | None = None,
    rng: np.random.Generator | None = None,
    delta: float = 0.05,
) -> CorrelationResult:
    """Dispatch to one backend by name."""
    try:
        backend = Backend(backend)
    except ValueError:
        valid = ", ".join(b.value for b in Backend)
        raise ValidationError(f"unknown backend {backend!r}; valid: {valid}") from None
    if backend is Backend.DIAGONAL_MC:
        if samples is None:
            raise ValidationError("the mc backend needs an explicit sample count")
        return correlation_diagonal(program, s, samples=samples, rng=rng, delta=delta)
    if samples is not None or rng is not None:
        raise ValidationError(
            f"samples/rng only apply to the mc backend, not {backend.value}"
        )
    if backend is Backend.STATEVECTOR:
        return correlation_statevector(program, s)
    if backend is Backend.DIAGONAL_EXACT:
        return correlation_diagonal(program, s)
    if backend is Backend.SUBSPACE:
        return correlation_subspace(program, s)
    return correlation_clifford(program, s)
