"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense vectors, explicit gate action,
no shared code paths with the package (no Walsh-Hadamard trick, no phase
tableau).  Values produced here were frozen first and the package is tested
against them, not the other way round.  The one exception is
``radix2_walsh_hadamard``: the package's earlier transform, kept verbatim so
that the current one can be checked to reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from iqpverify.bitlin import BitVector
from iqpverify.model import IqpProgram


def dense_program_state(program: IqpProgram) -> np.ndarray:
    """Amplitudes of prod_p e^{i theta_p X_p} |0...0> in the Z basis.

    Each factor is applied as cos(theta) I + i sin(theta) X_mask, pairing
    index z with z XOR mask.
    """
    n = program.n
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    idx = np.arange(1 << n)
    for row, angle in zip(program.chi.rows, program.angles):
        theta = angle.radians
        partner = idx ^ row.bits
        state = np.cos(theta) * state + 1j * np.sin(theta) * state[partner]
    return state


def dense_distribution(program: IqpProgram) -> np.ndarray:
    amps = dense_program_state(program)
    return np.abs(amps) ** 2


def dense_correlation(program: IqpProgram, s: BitVector) -> float:
    probs = dense_distribution(program)
    idx = np.arange(probs.size)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & s.bits) & 1)
    return float(np.dot(probs, signs))


def direct_walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """g[s] = sum_x f[x] * (-1)^(s.x), one explicit sign row per s."""
    idx = np.arange(values.size)
    out = np.empty(values.size, dtype=np.result_type(values, np.float64))
    for s in range(values.size):
        out[s] = np.sum(values * (1.0 - 2.0 * (np.bitwise_count(idx & s) & 1)))
    return out


def radix2_walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """The radix-2 butterfly, one concatenating level at a time."""
    a = np.array(values, copy=True)
    size = a.shape[0]
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        top = pairs[:, 0, :] + pairs[:, 1, :]
        bottom = pairs[:, 0, :] - pairs[:, 1, :]
        a = np.concatenate((top[:, None, :], bottom[:, None, :]), axis=1).reshape(size)
        h *= 2
    return a


def brute_force_span(basis: list[BitVector]) -> set[int]:
    """All XOR combinations of the basis vectors, as plain ints."""
    out = {0}
    for b in basis:
        out |= {v ^ b.bits for v in out}
    return out
