"""Command-line interface: workflows, exit codes, file handling."""

import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from iqpverify.bitlin import rank
from iqpverify.cli import _BACKENDS, build_parser, main
from iqpverify.evaluators import Backend
from iqpverify.experiments import (
    exp_anticoncentration,
    exp_fig1a,
    exp_fig1b,
    exp_parseval,
)
from iqpverify.model import parse_key, parse_program
from iqpverify.protocol import PROVER_BUILTINS, ProverServer, _reply_head
from report_reader import parse_report
from test_protocol import serve_one_reply


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def challenge_files(tmp_path):
    prog = tmp_path / "c.iqp"
    key = tmp_path / "c.iqpkey"
    code = run_cli(
        "keygen", "--n", 8, "--seed", 5, "--out", prog, "--key-out", key
    )
    assert code == 0
    return prog, key


class TestKeygenScramble:
    def test_keygen_writes_parsable_files(self, challenge_files):
        prog, key = challenge_files
        program = parse_program(prog.read_text())
        parsed = parse_key(key.read_text())
        assert program.n == 8
        assert parsed.n == 8 and parsed.count == 1

    def test_keygen_deterministic_with_seed(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            prog = tmp_path / f"{tag}.iqp"
            key = tmp_path / f"{tag}.iqpkey"
            assert (
                run_cli("keygen", "--n", 6, "--seed", 1, "--out", prog, "--key-out", key)
                == 0
            )
            outs.append((prog.read_text(), key.read_text()))
            # the summary names the dimension a prover must really simulate
            chi = parse_program(prog.read_text()).chi
            assert f" rank={rank(chi)} " in capsys.readouterr().err
        assert outs[0] == outs[1]

    def test_scramble_preserves_expected_values(self, challenge_files, tmp_path):
        prog, key = challenge_files
        sprog = tmp_path / "s.iqp"
        skey = tmp_path / "s.iqpkey"
        code = run_cli(
            "scramble",
            "--program", prog, "--key", key,
            "--ops", 60, "--seed", 3,
            "--out", sprog, "--key-out", skey,
        )
        assert code == 0
        old = parse_key(key.read_text())
        new = parse_key(skey.read_text())
        assert new.expected == old.expected
        assert new.secrets != old.secrets  # 60 ops on 8 columns will move it

    def test_scramble_refuses_negative_op_count(self, challenge_files, tmp_path, capsys):
        prog, key = challenge_files
        sprog = tmp_path / "s.iqp"
        code = run_cli(
            "scramble",
            "--program", prog, "--key", key,
            "--ops", -5, "--seed", 3,
            "--out", sprog, "--key-out", tmp_path / "s.iqpkey",
        )
        assert code == 3
        assert "count >= 0" in capsys.readouterr().err
        assert not sprog.exists()


class TestEval:
    def test_eval_with_key(self, challenge_files, capsys):
        prog, key = challenge_files
        assert run_cli("eval", "--program", prog, "--key", key, "--backend", "clifford") == 0
        out = capsys.readouterr().out
        assert "value 0.7071067811865476" in out
        assert "backend clifford" in out
        assert "g 1" in out
        assert "reduced_dim 1" in out

    def test_eval_with_explicit_secret(self, challenge_files, capsys):
        prog, key = challenge_files
        secret = parse_key(key.read_text()).secrets[0].to01()
        assert run_cli("eval", "--program", prog, "--secret", secret) == 0
        assert "value 0.70710678" in capsys.readouterr().out

    def test_eval_mc_reports_bound_and_count(self, challenge_files, capsys):
        prog, key = challenge_files
        code = run_cli(
            "eval", "--program", prog, "--key", key,
            "--backend", "mc", "--samples", 600, "--seed", 0,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples 600" in out
        assert "error_bound" in out

    def test_eval_refuses_samples_for_exact_backend(self, challenge_files, capsys):
        prog, key = challenge_files
        code = run_cli(
            "eval", "--program", prog, "--key", key,
            "--backend", "statevector", "--samples", 5,
        )
        assert code == 3
        assert "only apply to the mc backend" in capsys.readouterr().err

    def test_eval_needs_exactly_one_secret_source(self, challenge_files, capsys):
        prog, key = challenge_files
        assert run_cli("eval", "--program", prog) == 3
        assert (
            run_cli("eval", "--program", prog, "--key", key, "--secret", "10000000")
            == 3
        )

    def test_eval_index_out_of_range(self, challenge_files):
        prog, key = challenge_files
        assert run_cli("eval", "--program", prog, "--key", key, "--index", 5) == 3


class TestSample:
    def test_sample_writes_lines(self, challenge_files, tmp_path):
        prog, _ = challenge_files
        out = tmp_path / "samples.txt"
        assert run_cli("sample", "--program", prog, "--count", 9, "--seed", 2, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9
        assert all(len(l) == 8 and set(l) <= {"0", "1"} for l in lines)

    def test_sample_deterministic(self, challenge_files, capsys):
        prog, _ = challenge_files
        run_cli("sample", "--program", prog, "--count", 4, "--seed", 7)
        first = capsys.readouterr().out
        run_cli("sample", "--program", prog, "--count", 4, "--seed", 7)
        assert capsys.readouterr().out == first

    def test_sample_past_the_lookup_bound_is_runtime_error(self, tmp_path, capsys):
        # one 5,000,000-wide row: 153 MiB of output lookups, refused before they are built
        wide = tmp_path / "wide.iqp"
        wide.write_text(f"version 1\nn 5000000\nm 1\nrow {'1' * 5_000_000}\nangle 1/8\n")
        assert run_cli("sample", "--program", wide, "--count", 1) == 3
        assert "bytes of output lookups exceed" in capsys.readouterr().err


class TestVerify:
    def test_accepts_honest_prover(self, challenge_files, capsys):
        prog, key = challenge_files
        with ProverServer(seed=3) as server:
            host, port = server.address
            code = run_cli(
                "verify",
                "--address", f"{host}:{port}",
                "--program", prog, "--key", key,
                "--samples", 2952,
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict accept" in out
        assert "secret 0" in out

    def test_rejects_uniform_prover(self, challenge_files, capsys):
        prog, key = challenge_files
        with ProverServer(prover="uniform", seed=3) as server:
            host, port = server.address
            code = run_cli(
                "verify",
                "--address", f"{host}:{port}",
                "--program", prog, "--key", key,
                "--samples", 2952,
            )
        assert code == 1
        assert "verdict reject" in capsys.readouterr().out

    def test_unreachable_prover_is_runtime_error(self, challenge_files):
        prog, key = challenge_files
        code = run_cli(
            "verify",
            "--address", "127.0.0.1:1",  # nothing listens there
            "--program", prog, "--key", key,
            "--samples", 2952, "--timeout", 2,
        )
        assert code == 3

    def test_trickled_reply_exits_3_at_the_timeout(self, challenge_files, capsys):
        # one byte of a reply every 0.2 s, never a newline
        prog, key = challenge_files
        (host, port), thread = serve_one_reply(_reply_head("s"), gap=0.2)
        start = time.monotonic()
        code = run_cli(
            "verify",
            "--address", f"{host}:{port}",
            "--program", prog, "--key", key,
            "--samples", 600, "--timeout", 1,
        )
        elapsed = time.monotonic() - start
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert code == 3 and 0.9 < elapsed < 2.5
        assert capsys.readouterr().err == "error: timeout: peer sent no complete line in time\n"

    def test_key_wider_than_program_is_rejected(self, challenge_files, tmp_path):
        prog, _ = challenge_files
        wide_prog, wide_key = tmp_path / "w.iqp", tmp_path / "w.iqpkey"
        run_cli("keygen", "--n", 12, "--seed", 5, "--out", wide_prog, "--key-out", wide_key)
        with ProverServer(seed=3) as server:
            host, port = server.address
            code = run_cli(
                "verify",
                "--address", f"{host}:{port}",
                "--program", prog, "--key", wide_key,
                "--samples", 600,
            )
        assert code == 3

    def test_bad_address_format(self, challenge_files):
        prog, key = challenge_files
        assert (
            run_cli(
                "verify", "--address", "nonsense",
                "--program", prog, "--key", key, "--samples", 10,
            )
            == 3
        )

    @pytest.mark.parametrize("which", ["program", "key"])
    def test_non_ascii_file_is_runtime_error(self, challenge_files, tmp_path, capsys, which):
        files = dict(zip(("program", "key"), challenge_files))
        text = files[which].read_bytes()
        files[which] = tmp_path / "bad"
        files[which].write_bytes(text + "meta café\n".encode())  # UTF-8, not ASCII
        code = run_cli(
            "verify", "--address", "127.0.0.1:1",
            "--program", files["program"], "--key", files["key"], "--samples", 10,
        )
        assert code == 3
        line = text.count(b"\n") + 1
        assert f"error: line {line}: byte 0xc3 is not ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_port_out_of_range_is_runtime_error(self, challenge_files, capsys, port):
        prog, key = challenge_files
        assert run_cli("serve", "--bind", f"127.0.0.1:{port}") == 3
        assert "port outside 0..65535" in capsys.readouterr().err
        code = run_cli(
            "verify", "--address", f"127.0.0.1:{port}",
            "--program", prog, "--key", key, "--samples", 10,
        )
        assert code == 3


class TestExperimentsCli:
    def test_parseval_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("exp-parseval", "--n", 5, "--instances", 4, "--seed", 0, "--out", out) == 0
        report = parse_report(out.read_text())
        assert report.experiment == "parseval"
        assert len(report.rows) == 4

    def test_fig1b_to_stdout(self, capsys):
        assert run_cli("exp-fig1b", "--n", 4, "--count", 20, "--seed", 1) == 0
        out = capsys.readouterr().out
        assert out.startswith("# experiment=fig1b")
        assert "g,value,count" in out

    def test_fig1a_n_list_forms(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("exp-fig1a", "--n", "3,4", "--count", 10, "--seed", 2, "--out", a) == 0
        assert run_cli("exp-fig1a", "--n", "3 4", "--count", 10, "--seed", 2, "--out", b) == 0
        assert a.read_text() .split("wall_clock")[1].split("\n", 1)[1] == \
            b.read_text().split("wall_clock")[1].split("\n", 1)[1]

    def test_anticoncentration(self, capsys):
        assert (
            run_cli(
                "exp-anticoncentration", "--n", "4",
                "--circuits", 30, "--seed", 0,
            )
            == 0
        )
        assert "mean_sq" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, args, library",
        [
            ("exp-fig1a", ["--n", "3,4", "--count", 6], lambda: exp_fig1a([3, 4], 6, 9)),
            ("exp-fig1b", ["--n", 4, "--count", 8], lambda: exp_fig1b(8, 4, 9)),
            (
                "exp-anticoncentration",
                ["--n", "3 4", "--circuits", 5, "--secrets-per-circuit", 2],
                lambda: exp_anticoncentration([3, 4], 5, 2, 9),
            ),
            ("exp-parseval", ["--n", 4, "--instances", 3], lambda: exp_parseval(4, 3, 9)),
        ],
    )
    def test_csv_equals_library_report(self, command, args, library, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(command, *args, "--seed", 9, "--out", out) == 0

        def body(text):
            return [line for line in text.splitlines() if not line.startswith("# wall_clock=")]

        assert body(out.read_text()) == body(library().to_csv())


def test_backend_names_map_onto_every_backend_once():
    assert sorted(_BACKENDS.values()) == sorted(Backend)


def test_serve_choices_are_the_server_provers(challenge_files):
    (serve,) = [
        a.choices["serve"] for a in build_parser()._actions if a.dest == "command"
    ]
    (choices,) = [a.choices for a in serve._actions if a.dest == "prover"]
    assert tuple(choices) == PROVER_BUILTINS  # the tuple ProverServer checks against
    key = parse_key(challenge_files[1].read_text())
    for name in choices:
        ProverServer(prover=name, leaked_key=key).close()


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            run_cli("keygen", "--n", 8)  # missing --out/--key-out
        assert err.value.code == 2

    def test_reveal_verdict_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:  # refused before any file is read
            run_cli(
                "verify", "--address", "127.0.0.1:9", "--program", "c.iqp", "--key", "c.iqpkey",
                "--samples", 10, "--reveal-verdict",
            )
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--help")
        assert err.value.code == 0
        assert "reveal" not in capsys.readouterr().out

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run_cli("eval", "--program", tmp_path / "nope.iqp", "--secret", "1") == 3

    def test_angle_past_float_range_is_runtime_error(self, tmp_path, capsys):
        prog = tmp_path / "huge.iqp"
        prog.write_text(f"version 1\nn 2\nm 1\nrow 11\nangle {10**400}/{10**400 + 1}\n")
        assert run_cli("eval", "--program", prog, "--secret", "10") == 3
        assert "line 5: angle fraction is too large" in capsys.readouterr().err


def _seed_commands():
    (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    return sorted(
        name for name, p in commands.items() if any(a.dest == "seed" for a in p._actions)
    )


# every subcommand that takes --seed, with its other required arguments
SEED_COMMANDS = {
    "keygen": ["--n", 10, "--out", "{tmp}/o.iqp", "--key-out", "{tmp}/o.iqpkey"],
    "scramble": [
        "--program", "{prog}", "--key", "{key}",
        "--out", "{tmp}/o.iqp", "--key-out", "{tmp}/o.iqpkey",
    ],
    "eval": ["--program", "{prog}", "--key", "{key}"],
    "sample": ["--program", "{prog}", "--count", 3],
    "serve": ["--bind", "127.0.0.1:0"],
    "exp-fig1a": ["--n", "3", "--count", 2],
    "exp-fig1b": ["--n", 3, "--count", 2],
    "exp-anticoncentration": ["--n", "3", "--circuits", 2],
    "exp-parseval": ["--n", 3, "--instances", 2],
}


class TestRefusedSettings:
    def test_seed_command_table_is_complete(self):
        assert sorted(SEED_COMMANDS) == _seed_commands()

    @pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
    def test_negative_seed_exits_3(self, command, challenge_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ProverServer, "serve_forever", lambda self: pytest.fail("served"))
        prog, key = challenge_files
        fill = {"tmp": tmp_path, "prog": prog, "key": key}
        args = [str(a).format(**fill) for a in SEED_COMMANDS[command]]
        assert run_cli(command, *args, "--seed", -1) == 3
        out, err = capsys.readouterr()
        assert err == "error: seed -1 is negative\n" and out == ""
        assert not (tmp_path / "o.iqp").exists()

    @pytest.mark.parametrize("delta", ["0", "2", "nan"])
    def test_mc_delta_outside_unit_interval_exits_3(self, delta, challenge_files, capsys):
        prog, key = challenge_files
        args = ["--program", prog, "--key", key, "--backend", "mc", "--samples", 100]
        assert run_cli("eval", *args, "--delta", delta) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: delta {float(delta)!r} outside (0, 1)\n"

    @pytest.mark.parametrize(
        "command, args",
        [("sample", ["--count"]), ("eval", ["--key", "{key}", "--backend", "mc", "--samples"])],
    )
    def test_count_too_large_to_allocate_exits_3(self, command, args, challenge_files, capsys):
        # 2**45 draws: 256 TiB, past any address space, so numpy refuses before touching memory
        prog, key = challenge_files
        args = [a.format(key=key) for a in args]
        assert run_cli(command, "--program", prog, *args, 2**45, "--seed", 1) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, args",
        [("sample", ["--count"]), ("eval", ["--key", "{key}", "--backend", "mc", "--samples"])],
    )
    def test_count_past_the_array_limit_exits_3(self, command, args, challenge_files, capsys):
        # 2**62 draws: numpy cannot describe the array at all (ValueError, not MemoryError)
        prog, key = challenge_files
        args = [a.format(key=key) for a in args]
        assert run_cli(command, "--program", prog, *args, 2**62, "--seed", 1) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {2**62} draws exceed the largest array numpy can hold\n"

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_timeout_not_finite_positive_exits_3(self, timeout, challenge_files, capsys, monkeypatch):
        monkeypatch.setattr(ProverServer, "serve_forever", lambda self: pytest.fail("served"))
        prog, key = challenge_files
        assert run_cli("serve", "--timeout", timeout) == 3
        verify = ["--address", "127.0.0.1:9", "--program", prog, "--key", key, "--samples", 10]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the threshold can warn
            assert run_cli("verify", *verify, "--timeout", timeout) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count(f"error: timeout {float(timeout)!r} is not a finite number > 0\n") == 2


class TestModuleInvocation:
    def test_help_via_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iqpverify", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "keygen" in proc.stdout and "verify" in proc.stdout

    def test_serve_subprocess_round(self, challenge_files):
        prog, key = challenge_files
        proc = subprocess.Popen(
            [sys.executable, "-m", "iqpverify", "serve",
             "--bind", "127.0.0.1:0", "--prover", "honest", "--seed", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving honest prover on " in line
            address = line.rsplit(" ", 1)[-1].strip()
            code = run_cli(
                "verify", "--address", address,
                "--program", prog, "--key", key, "--samples", 2952,
            )
            assert code == 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_serve_port_out_of_range_exits_3(self):
        proc = subprocess.run(
            [sys.executable, "-m", "iqpverify", "serve", "--bind", "127.0.0.1:70000"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_serve_exits_cleanly_on_ctrl_c(self):
        # SIGINT as soon as the "serving" line is read; repeated, because a
        # signal that lands between the line and the serve loop is a narrow race.
        # The child runs with faulthandler on: if it hangs, SIGABRT makes it print
        # every thread's stack, and the failure shows where it was stuck
        for _ in range(10):
            proc = subprocess.Popen(
                [sys.executable, "-X", "faulthandler", "-m", "iqpverify", "serve",
                 "--bind", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            try:
                assert "serving honest prover on " in proc.stdout.readline()
                proc.send_signal(signal.SIGINT)
                try:
                    rest = proc.communicate(timeout=30)[0]
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGABRT)
                    dump = proc.communicate(timeout=10)[0]
                    pytest.fail(f"serve still running 30 s after SIGINT; its threads:\n{dump}")
            finally:
                proc.kill()
                proc.wait(timeout=10)
                proc.stdout.close()
            assert proc.returncode == 0
            assert "Traceback" not in rest
