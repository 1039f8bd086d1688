"""CLI contracts: payload values, exit codes, config parsing, reproducibility."""

import argparse
import dataclasses
import errno
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from coherence_lab import bounds, cli, ensembles
from coherence_lab.cli import canonical_json, main
from coherence_lab.errors import ConsistencyError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- demo ---------------------------------------------------------------------


def test_demo_reports_both_examples(tmp_path):
    out = tmp_path / "demo.json"
    assert run_cli(["demo", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["command"] == "demo"
    assert report["violations"] == 0
    omega_1, omega_2 = report["results"]

    assert omega_1["id"] == "omega_1"
    assert omega_1["term_coherences"] == [0.0, 0.0]
    assert abs(omega_1["superposition_coherence"] - 1.0) < 1e-12
    equality = [r for r in omega_1["reports"] if r["bound_id"] == "T1_EQUALITY"]
    assert len(equality) == 1 and equality[0]["slack"] <= 1e-12

    assert omega_2["id"] == "omega_2"
    assert abs(omega_2["superposition_coherence"]) < 1e-12
    assert abs(omega_2["term_coherences"][0] - 1.0) < 1e-12
    assert abs(omega_2["term_coherences"][1] - 1.0) < 1e-12
    assert omega_2["pair_class"] == "OrthogonalSameSpace"


# --- verify --------------------------------------------------------------------


def test_verify_zero_trials_exits_clean(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--trials", "0", "--dim", "2", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["violations"] == 0
    assert all(e["trials"] == 0 for e in report["results"]["ensembles"])


def test_verify_small_run_exits_clean(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--trials", "25", "--dim", "3", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    assert report["violations"] == 0
    assert len(report["results"]["ensembles"]) == 4


def test_verify_reports_violations_with_exit_one(tmp_path):
    # An impossible tolerance turns the equality's round-off residual into a
    # violation, exercising the exit-code contract without breaking math.
    out = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--trials", "5", "--dim", "2", "--seed", "5",
         "--tolerance", "1e-30", "--out", str(out)]
    )
    assert code == 1
    report = read_json(out)
    assert report["violations"] > 0
    disjoint = report["results"]["ensembles"][0]
    assert disjoint["violating_trials"]


def test_verify_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials = 5\nbogus_key = 1\n", encoding="utf-8")
    code = run_cli(["verify", "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err and ":2:" in err


def test_verify_rejects_bad_config_value(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials = minus-five\n", encoding="utf-8")
    code = run_cli(["verify", "--config", str(config)])
    assert code == 2
    assert "trials" in capsys.readouterr().err


# A value each setting's parser rejects, and a command with its flag (None: a
# config key only).  ``out`` takes any path, so it has no entry; every other
# key of ``cli._SETTINGS`` needs one.
BAD_VALUES = {
    "seed": ("-1", "verify"),
    "trials": ("-1", "verify"),
    "dims": ("2,1", None),
    "dim": ("1", "saturate"),
    "pair_kinds": ("Arbitrary,Bogus", None),
    "pair_kind": ("Bogus", "saturate"),
    "tolerance": ("nan", "demo"),
    "workers": ("0", "verify"),
    "bound": ("NOT_A_BOUND", "sweep"),
    "split": ("0,4", None),
    "restarts": ("0", "saturate"),
    "iterations": ("0", "saturate"),
    "grid": ("0.5,1.5", "sweep"),
    "format": ("xml", "sweep"),
}


@pytest.mark.parametrize("key", [key for key in cli._SETTINGS if key != "out"])
def test_a_bad_value_is_rejected_from_a_file_and_a_flag_alike(tmp_path, capsys, key):
    # Every key in a file is checked, whichever command reads it.
    value, command = BAD_VALUES[key]
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert run_cli(["verify", "--trials", "1", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}:1: bad value for key '{key}'" in err and "Traceback" not in err
    if command is None:
        return
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as excinfo:
        run_cli([command, flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err


def test_verify_rejects_missing_config_file():
    assert run_cli(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_verify_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfetrials = 5\n")
    assert run_cli(["verify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "Traceback" not in err


def test_readme_key_list_is_the_settings_table():
    text = " ".join(README.read_text(encoding="utf-8").split())
    (sentence,) = re.findall(r"Keys: ([^.]*)\.", text)
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(cli._SETTINGS)


def test_verify_is_byte_reproducible(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "seed = 31\ntrials = 20\ndims = 2,3\n"
        "pair_kinds = DisjointSupport,Arbitrary\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    assert run_cli(["verify", "--config", str(config), "--out", str(out_a)]) == 0
    assert run_cli(["verify", "--config", str(config), "--out", str(out_b)]) == 0
    assert run_cli(
        ["verify", "--config", str(config), "--workers", "4", "--out", str(out_c)]
    ) == 0
    assert out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()


def test_verify_report_is_the_per_ensemble_summaries(monkeypatch, capsys):
    # At d = 2 three of the four ensembles share one Philox call.
    argv = ["verify", "--trials", "30", "--dim", "2", "--seed", "8"]
    assert run_cli(argv) == 0
    together = capsys.readouterr().out

    def one_by_one(configs, *, tolerance):
        return [ensembles.summarize_ensembles([c], tolerance=tolerance)[0] for c in configs]

    monkeypatch.setattr(cli, "summarize_ensembles", one_by_one)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == together


# Run in a fresh interpreter: the modules loaded after each command and each
# public sampler call, by name.
FOOTPRINT = """
import contextlib, io, json, sys
from coherence_lab import cli, haar_random_state, random_coefficients, random_orthogonal_pair
HEAVY = ("hashlib", "_hashlib", "numpy.random", "secrets", "numpy.ma")
steps = []
for argv in (["verify", "--trials", "125", "--seed", "3"],
             ["saturate", "--bound", "GAIN_LE_1", "--restarts", "2", "--iterations", "50"],
             ["demo"], ["sweep", "--bound", "T2_UPPER", "--grid", "0.5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, [name for name in HEAVY if name in sys.modules]])
haar_random_state(4, 1), random_orthogonal_pair(4, 2), random_coefficients(3)
steps.append([0, [name for name in HEAVY if name in sys.modules]])
print(json.dumps(steps))
"""


def test_no_command_or_sampler_loads_openssl_or_numpy_random():
    # At seeds 0-31 this shape runs every trial on the batched path.  Every
    # draw, the scalar path's, sweep's and the public samplers' included,
    # reads the package's own Philox, and demo's cases are fixed, so nothing
    # loads numpy.random, which brings in hashlib and so OpenSSL; nor
    # numpy.ma (1.4 MB), which a numpy set operation such as np.union1d loads.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    verify, saturate, demo, sweep, samplers = json.loads(run.stdout)
    assert verify == [0, []]
    assert saturate == [0, []]
    assert demo == [0, []]
    assert sweep == [0, []]
    assert samplers == [0, []]


@pytest.mark.parametrize("flag, config", [([], "dim = 3\ndims = 2,4\n"),
                                          (["--dim", "3"], "dims = 2,4\n")],
                         ids=["config-key", "flag"])
def test_verify_dim_wins_over_dims(tmp_path, flag, config):
    path = tmp_path / "run.cfg"
    path.write_text("trials = 1\n" + config, encoding="utf-8")
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--config", str(path), *flag, "--out", str(out)]) == 0
    report = read_json(out)
    assert report["config"]["dims"] == [3]
    assert [e["dim"] for e in report["results"]["ensembles"]] == [3] * 4


def test_verify_flag_overrides_config(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 31\ntrials = 10\ndims = 2\n", encoding="utf-8")
    out = tmp_path / "r.json"
    run_cli(["verify", "--config", str(config), "--trials", "3", "--out", str(out)])
    report = read_json(out)
    assert report["config"]["trials"] == 3
    assert report["config"]["seed"] == 31


@pytest.mark.parametrize(
    "argv, config",
    [
        (["verify", "--dim", "1", "--trials", "1"], None),
        (["verify", "--trials", "-1"], None),
        (["sweep", "--bound", "T2_UPPER", "--dim", "1", "--grid", "0.5"], None),
        (["verify", "--trials", "1"], "dim = 1\n"),
        (["verify", "--trials", "1", "--tolerance", "-1"], None),
        (["verify", "--trials", "1", "--tolerance", "nan"], None),
        (["verify", "--trials", "1", "--workers", "0"], None),
        (["verify", "--trials", "1"], "workers = 0\n"),
        (["verify", "--trials", "1", "--seed", str(2**64)], None),
        (["verify", "--dim", str(10**12), "--trials", "1"], None),
        (["verify", "--dim", str(2**16 + 1), "--trials", "1"], None),
        (["saturate", "--bound", "T3_UPPER", "--dim", str(10**12)], None),
        (["verify", "--trials", "1"], f"dim = {10**12}\n"),
        (["verify", "--trials", "1"], f"dims = 2,{2**16 + 1}\n"),
        (["saturate", "--bound", "T3_UPPER", "--dim", "1025"], None),
        (["saturate", "--bound", "T3_UPPER"], "dim = 1025\n"),
        (["saturate", "--bound", "T3_UPPER", "--pair-kind", "Bogus"], None),
        (["saturate", "--bound", "T3_UPPER"], "pair_kind = Bogus\n"),
        (["saturate", "--bound", "T1_EQUALITY"], "pair_kind = Arbitrary\n"),
        (["verify", "--trials", "1"], "permute = true\n"),
    ],
    ids=[
        "verify-dim-1", "verify-trials-negative", "sweep-dim-1", "config-dim-1",
        "tolerance-negative", "tolerance-nan", "workers-0", "config-workers-0",
        "seed-too-large", "verify-dim-1e12", "verify-dim-above-ceiling",
        "saturate-dim-1e12", "config-dim-1e12", "config-dims-above-ceiling",
        "saturate-dim-above-search-ceiling", "config-saturate-dim-above-search-ceiling",
        "saturate-pair-kind-unknown", "config-pair-kind-unknown",
        "config-pair-kind-incompatible", "config-key-unknown",
    ],
)
def test_bad_flag_or_config_value_is_a_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    try:
        code = run_cli(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects a bad flag value this way
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_dim_ceiling_is_accepted(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--dim", str(2**16), "--trials", "1", "--out", str(out)]) == 0
    assert read_json(out)["config"]["dims"] == [2**16]
    config = tmp_path / "run.cfg"
    config.write_text(f"trials = 0\ndims = 2,{2**16}\n", encoding="utf-8")
    assert run_cli(["verify", "--config", str(config), "--out", str(out)]) == 0
    assert read_json(out)["config"]["dims"] == [2, 2**16]


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "demo.json"
    assert run_cli(["demo", "--out", str(out)]) == 2
    assert "error: cannot write" in capsys.readouterr().err


def test_unwritable_stdout_is_a_usage_error(monkeypatch, capsys):
    # Exit 1 would claim a violated bound; a stdout with no file descriptor
    # must still reach exit 2.
    class Unwritable:
        def write(self, text):
            raise OSError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Unwritable())
    assert run_cli(["demo"]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: cannot write the report to stdout: Broken pipe"]
    assert "Traceback" not in err


def _run_child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, close_stdout=False,
               close_stderr=False):
    # Buffered streams, as a user's are by default: a buffered stream keeps
    # what a failed write could not take, so the interpreter's flush at exit
    # fails again unless the CLI prevents it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    command = [sys.executable, "-m", "coherence_lab", *argv]
    if close_stdout:  # sh closes file descriptor 1 first, so the child's sys.stdout is None
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    if close_stderr:  # likewise, the child's sys.stderr is None
        command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=stderr, env=env, text=True)


def _assert_clean_usage_error(run):
    assert run.returncode == 2, run.stderr
    assert "error: cannot write the report to stdout" in run.stderr
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_is_a_usage_error():
    with open("/dev/full", "w") as full:
        _assert_clean_usage_error(_run_child(["demo"], full))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stderr_drops_log_lines_and_keeps_the_exit_code():
    # Exit 1 claims an unsatisfied report: a log line that cannot be written
    # is dropped, and stdout and the exit code are those of a writable stderr.
    # verify --dim 1 is an argparse error, whose usage lines argparse writes itself.
    for argv, code in ((["demo"], 0), (["verify", "--trials", "2"], 0), (["verify", "--dim", "1"], 2)):
        expected = _run_child(argv)
        with open("/dev/full", "w") as full:
            run = _run_child(argv, stderr=full)
        assert expected.stderr and expected.returncode == code, argv
        assert (run.returncode, run.stdout) == (code, expected.stdout), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "-h"]])
def test_help_and_version_into_a_full_stdout_are_usage_errors(argv):
    # argparse writes these to a buffered stdout and raises SystemExit(0):
    # the text reaches the device only at the flush, which fails.
    with open("/dev/full", "w") as full:
        _assert_clean_usage_error(_run_child(argv, full))


@pytest.mark.skipif(os.name != "posix", reason="closes stdout with sh")
@pytest.mark.parametrize("argv", [["demo"], ["verify", "--trials", "5"]])
def test_a_closed_stdout_is_a_usage_error(argv):
    _assert_clean_usage_error(_run_child(argv, close_stdout=True))


@pytest.mark.skipif(os.name != "posix", reason="closes stdout with sh")
@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "-h"]])
def test_help_and_version_to_a_closed_stdout_are_usage_errors(argv):
    # With sys.stdout None, argparse would print the text to stderr and exit 0.
    run = _run_child(argv, close_stdout=True)
    _assert_clean_usage_error(run)
    assert run.stderr.splitlines() == ["error: cannot write the report to stdout: it is closed"]


def test_a_closed_stdout_fails_only_a_run_that_writes_to_it(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "demo.json"
    assert run_cli(["demo", "--out", str(out)]) == 0 and out.exists()
    assert run_cli(["demo"]) == 2
    assert "error: cannot write the report to stdout: it is closed" in capsys.readouterr().err


def test_stdout_into_a_closed_pipe_is_a_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _run_child(["verify", "--trials", "1", "--dim", "2"], write_end)
    finally:
        os.close(write_end)
    _assert_clean_usage_error(run)


# Every command against every stream failure: README's exit code, and no
# "Traceback" or "Exception ignored".  Its 42 child processes take about
# 7 s, so tier-1 skips the matrix and CI runs it as a step of its own.
STREAM_MATRIX_COMMANDS = {
    "demo": ["demo"],
    "verify": ["verify", "--trials", "2"],
    "sweep": ["sweep", "--bound", "T2_UPPER", "--grid", "0.25,0.5"],
    "saturate": ["saturate", "--bound", "GAIN_LE_1", "--restarts", "2"],
    "help": ["--help"],
    "version": ["--version"],
    "usage-error": ["verify", "--dim", "1"],
}


def _closed_pipe_run(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_child(argv, write_end)
    finally:
        os.close(write_end)


def _full_device_run(argv, stream):
    with open("/dev/full", "w") as full:
        return _run_child(argv, **{stream: full})


STREAM_FAILURES = {
    "stdout-full": lambda argv: _full_device_run(argv, "stdout"),
    "stdout-closed": lambda argv: _run_child(argv, close_stdout=True),
    "stdout-closed-pipe": _closed_pipe_run,
    "stderr-full": lambda argv: _full_device_run(argv, "stderr"),
    "stderr-closed": lambda argv: _run_child(argv, close_stderr=True),
}


@pytest.mark.skipif(not os.environ.get("COHERENCE_LAB_STREAM_MATRIX"),
                    reason="the stream matrix takes about 7 s: set COHERENCE_LAB_STREAM_MATRIX=1")
@pytest.mark.skipif(os.name != "posix" or not os.path.exists("/dev/full"),
                    reason="needs sh and /dev/full")
@pytest.mark.parametrize("command", STREAM_MATRIX_COMMANDS)
def test_every_stream_failure_exits_with_readmes_code(command):
    argv = STREAM_MATRIX_COMMANDS[command]
    clean = _run_child(argv)
    assert clean.returncode == (2 if command == "usage-error" else 0), clean.stderr
    for failure, run_with in STREAM_FAILURES.items():
        run = run_with(argv)
        if failure.startswith("stdout"):
            # A report, help or version text that cannot be written is a usage
            # error; a usage error writes nothing to stdout and stays one.
            assert run.returncode == 2, (failure, run.stderr)
            assert "Traceback" not in run.stderr, failure
            assert "Exception ignored" not in run.stderr, failure
        else:
            # stderr cannot be read back here: its failure changes no exit
            # code and no byte of stdout.
            assert (run.returncode, run.stdout) == (clean.returncode, clean.stdout), failure


class _FailingStream:
    """A stream whose ``write`` or ``flush`` raises ``OSError(code)``."""

    def __init__(self, method, code):
        self.method, self.code = method, code

    def _fail(self, method):
        if method == self.method:
            raise OSError(self.code, os.strerror(self.code))

    def write(self, text):
        self._fail("write")
        return len(text)

    def flush(self):
        self._fail("flush")


# The matrix's failures as the process sees them: (stream, replacement, the
# reason of a stdout failure's error line).
IN_PROCESS_FAILURES = {
    "stdout-none": ("stdout", None, "it is closed"),
    "stdout-write-epipe": ("stdout", _FailingStream("write", errno.EPIPE),
                           os.strerror(errno.EPIPE)),
    "stdout-flush-enospc": ("stdout", _FailingStream("flush", errno.ENOSPC),
                            os.strerror(errno.ENOSPC)),
    "stderr-none": ("stderr", None, None),
    "stderr-raises": ("stderr", _FailingStream("write", errno.EIO), None),
}


def _exit_code(argv):
    """``main``'s exit code, returned or carried by ``SystemExit``."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("failure", IN_PROCESS_FAILURES)
@pytest.mark.parametrize("command", STREAM_MATRIX_COMMANDS)
def test_stream_failures_in_process_keep_readmes_rule(capsys, monkeypatch, command, failure):
    # The child-process matrix's rule in tier-1: a stdout that cannot take the
    # run's text gives 2; a stderr failure changes no code and no stdout byte.
    argv = STREAM_MATRIX_COMMANDS[command]
    clean_code = _exit_code(argv)
    clean = capsys.readouterr()
    assert clean_code == (2 if command == "usage-error" else 0), clean.err
    stream, replacement, reason = IN_PROCESS_FAILURES[failure]
    monkeypatch.setattr(sys, stream, replacement)
    code = _exit_code(argv)
    run = capsys.readouterr()
    if stream == "stdout":
        assert code == 2
        if command != "usage-error":  # the one run that writes nothing to stdout
            assert run.err.splitlines()[-1] == f"error: cannot write the report to stdout: {reason}"
    else:
        assert (code, run.out) == (clean_code, clean.out)


def test_a_crash_keeps_the_log_lines_written_before_it(monkeypatch, capsys):
    # A bug propagates, but only after stderr has taken what the run logged.
    calls = []

    def evaluate_all(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("a bug in the second case")
        return bounds.evaluate_all(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_all", evaluate_all)
    with pytest.raises(RuntimeError, match="a bug in the second case"):
        run_cli(["demo"])
    run = capsys.readouterr()
    assert run.out == ""
    assert [line.split(":")[0] for line in run.err.splitlines()] == ["omega_1"]


# --- seed resolution --------------------------------------------------------------


def test_env_seed_is_default_and_flag_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("COHERENCE_LAB_SEED", "777")
    out = tmp_path / "r.json"
    run_cli(["verify", "--trials", "0", "--dim", "2", "--out", str(out)])
    assert read_json(out)["config"]["seed"] == 777
    run_cli(["verify", "--trials", "0", "--dim", "2", "--seed", "9", "--out", str(out)])
    assert read_json(out)["config"]["seed"] == 9


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("COHERENCE_LAB_SEED", "not-a-number")
    assert run_cli(["verify", "--trials", "0", "--dim", "2"]) == 2


# --- one parser per process ------------------------------------------------------


def test_parser_reuse_keeps_no_state_across_calls(monkeypatch, capsys):
    # The payload a valid call writes in a fresh interpreter is what it writes
    # in this one: twice in a row, and after a usage error that had already
    # parsed a seed and after --help, both of which leave through SystemExit.
    monkeypatch.delenv("COHERENCE_LAB_SEED", raising=False)
    argv = ["verify", "--trials", "5", "--dim", "2"]
    env = {k: v for k, v in os.environ.items() if k != "COHERENCE_LAB_SEED"}
    env["PYTHONPATH"] = str(SRC)
    fresh = subprocess.run([sys.executable, "-m", "coherence_lab", *argv], env=env,
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == fresh.stdout
    for bad, code in ((["verify", "--seed", "9", "--trials", "-1"], 2), (["verify", "--help"], 0)):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(bad)
        assert excinfo.value.code == code
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == fresh.stdout


def test_env_seed_is_read_on_every_call(monkeypatch, capsys):
    seeds = []
    for value in ("777", None, "778"):
        if value is None:
            monkeypatch.delenv("COHERENCE_LAB_SEED")
        else:
            monkeypatch.setenv("COHERENCE_LAB_SEED", value)
        assert run_cli(["verify", "--trials", "0", "--dim", "2"]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["config"]["seed"])
    assert seeds == [777, cli._SETTINGS["seed"][1], 778]


def test_second_call_builds_no_parser(monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli._parser.cache_clear()
    assert run_cli(["demo"]) == 0
    assert calls  # the first call built the command tree
    calls.clear()
    assert run_cli(["demo"]) == 0
    assert calls == []


# --- sweep ---------------------------------------------------------------------------


def test_sweep_equality_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--bound", "T1_EQUALITY", "--dim", "2", "--seed", "5",
         "--grid", "0.1:0.9:0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha_sq,lhs,rhs,slack"
    assert len(lines) == 10
    for line in lines[1:]:
        alpha_sq, lhs, rhs, slack = (float(f) for f in line.split(","))
        assert float(slack) <= 1e-12
    mid = [l for l in lines[1:] if l.startswith("0.5,")]
    assert len(mid) == 1
    assert abs(float(mid[0].split(",")[1]) - 1.0) < 1e-12


def test_sweep_upper_bound_grid_is_satisfied(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--bound", "T3_UPPER", "--dim", "4", "--seed", "11",
         "--grid", "0.05:0.95:0.05", "--out", str(out)]
    )
    assert code == 0
    for line in out.read_text(encoding="utf-8").strip().splitlines()[1:]:
        assert float(line.split(",")[3]) >= -1e-9


def test_sweep_single_point_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(
        ["sweep", "--bound", "T2_UPPER", "--dim", "2", "--seed", "3",
         "--grid", "0.5", "--out", str(out)]
    )
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2


def test_sweep_rejects_out_of_range_grid(capsys):
    with pytest.raises(SystemExit) as excinfo:  # argparse rejects a bad flag value this way
        run_cli(["sweep", "--bound", "T2_UPPER", "--dim", "2", "--grid", "0.5,1.5"])
    assert excinfo.value.code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-300", "1e-320"])
def test_sweep_rejects_range_grid_with_too_many_points(capsys, step):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["sweep", "--bound", "T2_UPPER", "--grid", f"0.1:0.9:{step}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "more than" in err and "Traceback" not in err


def test_sweep_requires_bound_and_grid():
    assert run_cli(["sweep", "--grid", "0.5"]) == 2
    assert run_cli(["sweep", "--bound", "T2_UPPER"]) == 2


def test_sweep_json_format_round_trips(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli(
        ["sweep", "--bound", "T2_UPPER", "--dim", "2", "--seed", "3",
         "--grid", "0.25,0.5,0.75", "--format", "json", "--out", str(out)]
    ) == 0
    raw = out.read_text(encoding="utf-8")
    assert canonical_json(json.loads(raw)) == raw


# --- saturate ---------------------------------------------------------------------------


def test_saturate_gain_finds_saturation(tmp_path):
    out = tmp_path / "sat.json"
    code = run_cli(
        ["saturate", "--bound", "GAIN_LE_1", "--dim", "2", "--seed", "3",
         "--restarts", "4", "--iterations", "400", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    payload = report["results"]
    assert payload["best_slack"] <= 1e-6
    assert payload["report"]["satisfied"]
    assert len(payload["restart_best"]) == 4


def test_saturate_is_byte_reproducible(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["saturate", "--bound", "T1_EQUALITY", "--dim", "2", "--seed", "7",
            "--restarts", "2", "--iterations", "100"]
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_saturate_reads_settings_from_config(tmp_path, monkeypatch):
    monkeypatch.delenv("COHERENCE_LAB_SEED", raising=False)
    config = tmp_path / "sat.cfg"
    config.write_text(
        "bound = GAIN_LE_1\ndim = 4\nrestarts = 1\niterations = 20\n", encoding="utf-8"
    )
    out = tmp_path / "sat.json"
    code = run_cli(
        ["saturate", "--config", str(config), "--dim", "3", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    assert report["config"] == {
        "bound": "GAIN_LE_1",
        "pair_kind": "DisjointSupport",
        "dim": 3,
        "seed": 42,
        "restarts": 1,
        "iterations": 20,
        "tolerance": 1e-9,
    }
    assert len(report["results"]["restart_best"]) == 1


def test_saturate_pair_kind_config_key_equals_the_flag(tmp_path):
    args = ["saturate", "--bound", "T4_LOWER_A", "--dim", "3", "--restarts", "2",
            "--iterations", "40"]
    config = tmp_path / "sat.cfg"
    config.write_text("pair_kind = NonOrthogonal\n", encoding="utf-8")
    by_flag, by_key, natural = (tmp_path / name for name in ("flag", "key", "natural"))
    assert run_cli(args + ["--pair-kind", "NonOrthogonal", "--out", str(by_flag)]) == 0
    assert run_cli(args + ["--config", str(config), "--out", str(by_key)]) == 0
    assert run_cli(args + ["--out", str(natural)]) == 0
    assert by_key.read_bytes() == by_flag.read_bytes()
    assert read_json(by_key)["config"]["pair_kind"] == "NonOrthogonal"
    assert read_json(natural)["config"]["pair_kind"] == "Arbitrary"


def test_saturate_reports_the_search_results_final_report(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("saturate must not evaluate the best point again")

    monkeypatch.setattr(cli, "evaluate_bound", fail)
    out = tmp_path / "sat.json"
    code = run_cli(
        ["saturate", "--bound", "T4_LOWER_A", "--dim", "2", "--restarts", "1",
         "--iterations", "50", "--tolerance", "1e-8", "--out", str(out)]
    )
    assert code == 0
    payload = read_json(out)["results"]
    assert payload["report"]["slack"] == payload["best_slack"]
    assert payload["report"]["tolerance"] == 1e-8


def test_internal_invariant_failure_exits_three(monkeypatch, capsys):
    def fail(spec, tolerance):
        raise ConsistencyError("simulated invariant failure")

    monkeypatch.setattr(cli, "minimize_slack", fail)
    code = run_cli(
        ["saturate", "--bound", "GAIN_LE_1", "--restarts", "1", "--iterations", "10"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "ConsistencyError" in err and "Traceback" not in err


def test_invariant_failure_inside_a_restart_exits_three(monkeypatch, capsys):
    calls = []
    gain = bounds.BOUNDS["GAIN_LE_1"]

    def failing(q, entropy):
        calls.append(q)
        if len(calls) == 25:  # after the three restarts' initial simplices (4 points each)
            raise ConsistencyError("simulated invariant failure in a restart")
        return gain.sides(q, entropy)

    replaced = dataclasses.replace(gain, sides=failing)
    monkeypatch.setattr(bounds, "BOUNDS", {**bounds.BOUNDS, "GAIN_LE_1": replaced})
    code = run_cli(
        ["saturate", "--bound", "GAIN_LE_1", "--restarts", "3", "--iterations", "50"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "ConsistencyError" in err and "in a restart" in err and "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: ConsistencyError: simulated invariant failure in a restart"]
    assert len(calls) == 25  # the search stopped at that call


def test_saturate_finds_an_equality_that_is_off_by_a_millionth(monkeypatch, capsys):
    # The search seeks the equality's largest residual, so a rhs scaled by
    # 1 + 1e-6, patched in here only, is a violation it must report.
    t1 = bounds.BOUNDS[bounds.T1_EQUALITY]

    def loosened(q, entropy):
        lhs, rhs = t1.sides(q, entropy)
        return lhs, rhs * (1.0 + 1e-6)

    monkeypatch.setitem(bounds.BOUNDS, bounds.T1_EQUALITY, dataclasses.replace(t1, sides=loosened))
    argv = ["saturate", "--bound", "T1_EQUALITY", "--restarts", "2", "--iterations", "200"]
    assert run_cli(argv) == 1
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["best_slack"] > 1e-9 and not payload["report"]["satisfied"]
    assert payload["best_slack"] == max(payload["restart_best"])


def test_saturate_rejects_incompatible_pair_kind():
    code = run_cli(
        ["saturate", "--bound", "T1_EQUALITY", "--pair-kind", "Arbitrary",
         "--restarts", "1", "--iterations", "10"]
    )
    assert code == 2


# --- argparse / canonical JSON -----------------------------------------------------------


def test_unknown_bound_id_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["sweep", "--bound", "NOT_A_BOUND", "--grid", "0.5"])
    assert excinfo.value.code == 2


def test_csv_format_rejected_where_unsupported():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["demo", "--format", "csv"])
    assert excinfo.value.code == 2


def test_canonical_json_round_trips_parsed_reports(tmp_path):
    commands = {
        "demo": ["demo"],
        "verify": ["verify", "--dim", "4", "--trials", "40", "--seed", "3"],
        "sweep": ["sweep", "--bound", "T2_UPPER", "--grid", "0.5", "--format", "json"],
        "saturate": ["saturate", "--bound", "GAIN_LE_1", "--restarts", "1",
                     "--iterations", "20"],
    }
    for name, args in commands.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(args + ["--out", str(out)]) == 0, name
        raw = out.read_text(encoding="utf-8")
        assert canonical_json(json.loads(raw)) == raw, name
        # A report holds no wall-clock time: the envelope is these five keys.
        assert sorted(json.loads(raw)) == ["command", "config", "results", "version",
                                           "violations"], name


@pytest.mark.parametrize("command", [["demo"], ["verify"], ["sweep"], ["saturate"]])
def test_no_command_reads_the_clock(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command + ["--timestamps"])
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert not re.search(r"\bdatetime\b|\b_now\b", source)


@pytest.mark.parametrize(
    "value", [0.1, 1.0, -0.0, 1e-300, 5e-324, 123456.789, 2.0 / 3.0, 1e22, 1e-9]
)
def test_canonical_json_writes_each_float_as_its_repr(value):
    text = canonical_json({"x": value})
    assert text == f'{{\n  "x": {value!r}\n}}\n'
    parsed = json.loads(text)["x"]
    assert struct.pack("<d", parsed) == struct.pack("<d", value)


def test_canonical_json_rejects_non_finite():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_json({"bad": value})


# --- reports across CPU classes ----------------------------------------------------------

# ROADMAP's "The bytes depend on the CPU" measured floats moving by at most
# 1.4e-15 of max(1, |x|) between the AVX-512, AVX2 and x86-64-v2 classes;
# this bound gives that a margin of 4x.
CROSS_CLASS_BOUND = 4 * 1.4e-15
# Older CPU classes, each emulated in a child's environment only: numpy's
# runtime dispatch narrowed (its newer targets off) and, for two of them, an
# older OpenBLAS kernel.  The kernel that runs is the OpenBLAS build's choice
# (numpy 2.4.6's reports Katmai for Prescott), so the test reads it from the
# child's verbose "Core:" line and names it in its messages.
CPU_CLASSES = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "avx2-haswell-blas": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                          "OPENBLAS_CORETYPE": "Haswell"},
    "x86-64-v2-prescott-blas": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
                                "OPENBLAS_CORETYPE": "Prescott"},
}


def report_differences(a, b, path="report"):
    """Where two parsed reports differ: a non-float that is not equal, or a
    float that moved by more than ``CROSS_CLASS_BOUND`` of max(1, |x|)."""
    if type(a) is float and type(b) is float:
        if not abs(a - b) <= CROSS_CLASS_BOUND * max(1.0, abs(a)):
            yield path
    elif type(a) is dict and type(b) is dict and a.keys() == b.keys():
        for key in a:
            yield from report_differences(a[key], b[key], f"{path}.{key}")
    elif type(a) is list and type(b) is list and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from report_differences(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield path


def test_report_differences_finds_each_kind():
    report = {"n": 3, "ok": True, "x": [1.0, 250.0], "id": "T1"}
    close = {"n": 3, "ok": True, "x": [1.0 + 4e-15, 250.0 * (1 + 4e-15)], "id": "T1"}
    assert list(report_differences(report, close)) == []
    far = {"n": 4, "ok": 1, "x": [1.0 + 8e-15, 250.0], "id": "T1", "extra": 0}
    assert list(report_differences(report, far)) == ["report"]
    del far["extra"]
    assert list(report_differences(report, far)) == ["report.n", "report.ok", "report.x[0]"]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the CPU classes emulated here are x86-64's")
@pytest.mark.parametrize("cpu_class", CPU_CLASSES)
def test_reports_within_the_stated_bound_under_an_emulated_cpu_class(capsys, cpu_class):
    # README: verdicts, counts, key sets and exit codes hold on every host,
    # and a float moves by about 1e-15 of max(1, |x|) from one class to another.
    env = {k: v for k, v in os.environ.items() if k != "COHERENCE_LAB_SEED"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_VERBOSE="2", **CPU_CLASSES[cpu_class])
    verify = ["verify", "--trials", "125", "--seed", "1"]
    # This sweep's bytes differ under each class (ROADMAP item 17).
    sweep = ["sweep", "--bound", "T2_UPPER", "--grid", "0.1:0.9:0.1", "--format", "json"]
    saturate = ["saturate", "--bound", "GAIN_LE_1", "--restarts", "2"]
    for argv in (verify, sweep, saturate):
        # numpy warns (an ImportWarning) of a feature it cannot disable and
        # raises for one of its baseline; a verbose OpenBLAS names a kernel
        # it does not know.
        child = subprocess.run([sys.executable, "-W", "always::ImportWarning", "-m",
                                "coherence_lab", *argv], env=env, capture_output=True, text=True)
        core = re.search(r"^Core: (.*)$", child.stderr, re.M)
        ran = f"OpenBLAS kernel {core.group(1) if core else 'not reported'}"
        for rejected in ("cannot disable", "Core not found"):
            if rejected in child.stderr:
                pytest.skip(f"this host cannot emulate {CPU_CLASSES[cpu_class]} ({ran}): "
                            f"{' '.join(child.stderr.split())}")
        assert child.returncode == run_cli(argv) == 0, (ran, child.stderr)
        here, there = json.loads(capsys.readouterr().out), json.loads(child.stdout)
        if argv is not saturate:
            assert list(report_differences(here, there)) == [], ran
            continue
        # A search may fork across classes, so saturate's floats are not
        # compared: its exit code, its violations and its best slack's verdict are.
        assert here["violations"] == there["violations"] == 0, ran
        for report in (here, there):
            assert report["results"]["best_slack"] >= -report["config"]["tolerance"], ran
