"""Command-line interface.

Exit codes: 0 success (verify: accept), 1 verify reject, 2 usage error,
3 runtime failure (bad file, unreachable prover, capacity, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

import numpy as np

from . import experiments
from .bitlin import BitVector, rank, unpack_bits
from .errors import IqpError, ParseError
from .evaluators import Backend, evaluate, sample_outputs
from .keygen import ConstructionSpec, build_challenge, random_scramble_ops, scramble
from .model import parse_key, parse_program, seeded_rng, serialize_key, serialize_program
from .protocol import PROVER_BUILTINS, ProverServer, run_verification

# The short CLI names ("diagonal", "mc") predate the Backend values and stay,
# so existing command lines keep working; each Backend has exactly one name.
_BACKENDS = {
    "statevector": Backend.STATEVECTOR,
    "diagonal": Backend.DIAGONAL_EXACT,
    "mc": Backend.DIAGONAL_MC,
    "subspace": Backend.SUBSPACE,
    "clifford": Backend.CLIFFORD,
}


def _seed_or_random(seed: int | None) -> int:
    """The given seed, or a fresh one when none was given; seeded_rng checks it."""
    return int.from_bytes(os.urandom(8), "little") if seed is None else seed


def _load(path: str, parse):
    """Parse a program or key file; a byte outside ASCII is a ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not ASCII", line) from None
    return parse(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise IqpError(f"address {text!r} is not host:port")
    try:
        number = int(port)
    except ValueError:
        raise IqpError(f"address {text!r} has a non-integer port")
    if not 0 <= number <= 65535:
        raise IqpError(f"address {text!r} has a port outside 0..65535")
    return host, number


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise IqpError(f"cannot parse n list {text!r}")
    if not values:
        raise IqpError("empty n list")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _cmd_keygen(args) -> int:
    spec = ConstructionSpec(
        n=args.n,
        secrets=args.secrets,
        weight=args.weight,
        target=args.target,
        budget=args.budget,
        redundant_rows=args.redundant,
        scramble_ops=args.scramble_ops,
        seed=_seed_or_random(args.seed),
    )
    program, key = build_challenge(spec)
    _write_text(args.out, serialize_program(program))
    _write_text(args.key_out, serialize_key(key))
    print(
        f"challenge: n={program.n} m={program.m} rank={rank(program.chi)} "
        f"secrets={key.count} "
        f"expected={' '.join(repr(e) for e in key.expected)}",
        file=sys.stderr,
    )
    return 0


def _cmd_scramble(args) -> int:
    program = _load(args.program, parse_program)
    key = _load(args.key, parse_key)
    rng = seeded_rng(_seed_or_random(args.seed))
    ops = random_scramble_ops(program.n, args.ops, rng)
    scrambled, secrets = scramble(program, key.secrets, ops)
    new_key = type(key)(secrets, key.expected, key.meta)
    _write_text(args.out, serialize_program(scrambled))
    _write_text(args.key_out, serialize_key(new_key))
    print(f"applied {len(ops)} column ops", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    program = _load(args.program, parse_program)
    if (args.secret is None) == (args.key is None):
        raise IqpError("give exactly one of --secret or --key")
    if args.secret is not None:
        secret = BitVector.from_string(args.secret)
    else:
        key = _load(args.key, parse_key)
        if not 0 <= args.index < key.count:
            raise IqpError(f"--index {args.index} outside 0..{key.count - 1}")
        secret = key.secrets[args.index]
    backend = _BACKENDS[args.backend]
    rng = seeded_rng(_seed_or_random(args.seed))  # built, so checked, for every backend
    result = evaluate(
        program, secret, backend, samples=args.samples, delta=args.delta,
        rng=rng if backend is Backend.DIAGONAL_MC else None,
    )
    print(f"value {result.value!r}")
    print(f"backend {result.backend.value}")
    print(f"error_bound {result.error_bound!r}")
    if result.g is not None:
        print(f"g {result.g}")
    if result.samples_used is not None:
        print(f"samples {result.samples_used}")
    if result.reduced_dim is not None:
        print(f"reduced_dim {result.reduced_dim}")
    return 0


def _cmd_sample(args) -> int:
    program = _load(args.program, parse_program)
    rng = seeded_rng(_seed_or_random(args.seed))
    draws = sample_outputs(program, args.count, rng)
    table = np.full((len(draws), program.n + 1), ord("\n"), dtype=np.uint8)
    np.add(unpack_bits(draws, program.n), ord("0"), out=table[:, :-1])
    _write_text(args.out, table.tobytes().decode("ascii"))
    return 0


def _cmd_serve(args) -> int:
    host, port = _parse_address(args.bind)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    leaked = _load(args.leak_key, parse_key) if args.leak_key else None
    server = ProverServer(
        address=(host, port),
        prover=args.prover,
        leaked_key=leaked,
        seed=_seed_or_random(args.seed),
        timeout=args.timeout,
    )
    try:  # a Ctrl-C right after the line below still closes the socket
        host, port = server.address
        print(f"serving {args.prover} prover on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_verify(args) -> int:
    program = _load(args.program, parse_program)
    key = _load(args.key, parse_key)
    report = run_verification(
        _parse_address(args.address),
        program,
        key,
        args.samples,
        delta=args.delta,
        timeout=args.timeout,
    )
    for k, v in enumerate(report.per_secret):
        status = "pass" if v.passed else "FAIL"
        print(
            f"secret {k}: expected={v.expected:+.6f} observed={v.observed:+.6f} "
            f"deviation={v.deviation:.6f} {status}"
        )
    print(f"threshold {report.epsilon:.6f} over {report.samples_used} samples")
    print(f"verdict {'accept' if report.accept else 'reject'}")
    return 0 if report.accept else 1


def _cmd_experiment(args) -> int:
    _write_text(args.out, args.run(args, _seed_or_random(args.seed)).to_csv())
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="rng seed (default: random)")


def _add_experiment(sub, name: str, help: str, run, *flags: tuple[str, dict]) -> None:
    """An exp-* command: its own flags, then --seed and --out; it writes run(args, seed) as CSV."""
    p = sub.add_parser(name, help=help)
    for flag, options in flags:
        p.add_argument(flag, **options)
    _add_seed(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_experiment, run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqp-verify",
        description="Hidden-parity verification of sampling devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="construct a scrambled challenge and key")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--secrets", type=int, default=1)
    p.add_argument("--weight", type=int, default=2, help="secret support weight")
    p.add_argument("--target", type=float, default=0.7, help="minimum |value|")
    p.add_argument("--budget", type=int, default=200, help="search attempts")
    p.add_argument("--redundant", type=int, default=8, help="padding row count")
    p.add_argument(
        "--scramble-ops", type=int, default=None, help="column ops (default 20*n)"
    )
    _add_seed(p)
    p.add_argument("--out", required=True, help="program file ('-' for stdout)")
    p.add_argument("--key-out", required=True, help="key file ('-' for stdout)")
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("scramble", help="re-scramble an existing challenge")
    p.add_argument("--program", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--ops", type=int, default=None, help="column ops (default 20*n)")
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.add_argument("--key-out", required=True)
    p.set_defaults(fn=_cmd_scramble)

    p = sub.add_parser("eval", help="compute one correlation value")
    p.add_argument("--program", required=True)
    p.add_argument("--secret", default=None, help="bit string, e.g. 1100")
    p.add_argument("--key", default=None, help="key file instead of --secret")
    p.add_argument("--index", type=int, default=0, help="secret index in the key")
    p.add_argument("--backend", choices=sorted(_BACKENDS), default="statevector")
    p.add_argument(
        "--samples", type=int, default=None, help="mc sample count (mc backend)"
    )
    p.add_argument("--delta", type=float, default=0.05, help="mc failure budget")
    _add_seed(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sample", help="draw output strings from a program")
    p.add_argument("--program", required=True)
    p.add_argument("--count", type=int, required=True)
    _add_seed(p)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("serve", help="run a prover server")
    p.add_argument("--bind", default="127.0.0.1:0", help="host:port (port 0 = any)")
    p.add_argument("--prover", choices=PROVER_BUILTINS, default="honest")
    p.add_argument("--leak-key", default=None, help="key file for the leak prover")
    p.add_argument("--timeout", type=float, default=30.0, help="seconds to read a whole challenge")
    _add_seed(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("verify", help="challenge a remote prover and judge")
    p.add_argument("--address", required=True, help="host:port of the prover")
    p.add_argument("--program", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--timeout", type=float, default=30.0, help="seconds until the reply is whole")
    p.set_defaults(fn=_cmd_verify)

    _add_experiment(
        sub,
        "exp-fig1a",
        "correlation level shares vs n (pi/8 ensemble)",
        lambda a, seed: experiments.exp_fig1a(_parse_n_list(a.n), a.count, seed),
        ("--n", dict(required=True, help="list, e.g. '2,3,4' or '2 3 4'")),
        ("--count", dict(type=int, default=1000)),
    )
    _add_experiment(
        sub,
        "exp-fig1b",
        "level histogram at fixed n",
        lambda a, seed: experiments.exp_fig1b(a.count, a.n, seed),
        ("--n", dict(type=int, default=6)),
        ("--count", dict(type=int, default=500)),
    )
    _add_experiment(
        sub,
        "exp-anticoncentration",
        "second moment and tails, two-local ensemble",
        lambda a, seed: experiments.exp_anticoncentration(
            _parse_n_list(a.n), a.circuits, a.secrets_per_circuit, seed
        ),
        ("--n", dict(required=True, help="list, e.g. '6,8,10'")),
        ("--circuits", dict(type=int, default=2000)),
        ("--secrets-per-circuit", dict(type=int, default=1)),
    )
    _add_experiment(
        sub,
        "exp-parseval",
        "collision identity check",
        lambda a, seed: experiments.exp_parseval(a.n, a.instances, seed),
        ("--n", dict(type=int, default=8)),
        ("--instances", dict(type=int, default=50)),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IqpError, OSError, MemoryError) as exc:  # a count too large to allocate included
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
