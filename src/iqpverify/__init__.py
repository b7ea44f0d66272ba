"""Cryptographic verification of sampling devices via hidden parities.

A verifier hides secret bit strings inside a diagonal X-basis program whose
output distribution carries a known parity bias for each secret.  A device
that truly runs the program reproduces those biases; the verifier checks
them from samples alone, and the secrets stay off the wire.
"""

from .bitlin import (
    BitMatrix,
    BitVector,
    dot,
    echelon,
    nullspace_basis,
    rank,
    span_weights,
    walsh_hadamard,
)
from .errors import (
    AngleError,
    CapacityError,
    ConstructionError,
    DimensionError,
    IqpError,
    ParseError,
    ProtocolError,
    ValidationError,
)
from .evaluators import (
    STATEVECTOR_CAP,
    Backend,
    CorrelationResult,
    DistributionTable,
    all_correlations,
    correlation_clifford,
    correlation_diagonal,
    correlation_statevector,
    correlation_subspace,
    evaluate,
    mc_sample_count,
    output_distribution,
    sample_outputs,
)
from .experiments import (
    ExperimentReport,
    exp_anticoncentration,
    exp_fig1a,
    exp_fig1b,
    exp_parseval,
)
from .keygen import (
    ConstructionSpec,
    SearchOutcome,
    add_redundant_rows,
    build_challenge,
    random_2local,
    random_program,
    random_scramble_ops,
    scramble,
    search_main_part,
)
from .model import (
    PI_OVER_8,
    Angle,
    IqpProgram,
    SecretKey,
    bias_from_correlation,
    parse_key,
    parse_program,
    serialize_key,
    serialize_program,
)
from .protocol import (
    MAX_MESSAGE_BYTES,
    ChallengeMsg,
    ProverServer,
    SamplesMsg,
    SecretVerdict,
    VerdictReport,
    WeakSignalWarning,
    acceptance_threshold,
    judge,
    prover_honest,
    prover_leak,
    prover_uniform,
    request,
    run_verification,
)

__version__ = "0.1.0"
