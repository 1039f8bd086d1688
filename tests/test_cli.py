"""CLI contracts: payload values, exit codes, config parsing, reproducibility."""

import json
import math
from datetime import datetime, timedelta

import pytest

from coherence_lab import cli
from coherence_lab.cli import canonical_json, format_float, main
from coherence_lab.errors import ConsistencyError

INV_SQRT2 = 1.0 / math.sqrt(2.0)


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


def test_demo_timestamps_are_null_by_default(tmp_path):
    out = tmp_path / "demo.json"
    run_cli(["demo", "--out", str(out)])
    report = read_json(out)
    assert report["started_at"] is None and report["finished_at"] is None
    run_cli(["demo", "--out", str(out), "--timestamps"])
    report = read_json(out)
    assert report["started_at"] is not None


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


def test_verify_rejects_missing_config_file():
    assert run_cli(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_verify_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfetrials = 5\n")
    assert run_cli(["verify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "Traceback" not in err


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
    ],
    ids=[
        "verify-dim-1", "verify-trials-negative", "sweep-dim-1", "config-dim-1",
        "tolerance-negative", "tolerance-nan", "workers-0", "config-workers-0",
        "seed-too-large",
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


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "demo.json"
    assert run_cli(["demo", "--out", str(out)]) == 2
    assert "error: cannot write" in capsys.readouterr().err


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
    assert run_cli(
        ["sweep", "--bound", "T2_UPPER", "--dim", "2", "--grid", "0.5,1.5"]
    ) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-300", "1e-320"])
def test_sweep_rejects_range_grid_with_too_many_points(capsys, step):
    argv = ["sweep", "--bound", "T2_UPPER", "--grid", f"0.1:0.9:{step}"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "more than" in err and "Traceback" not in err


def test_sweep_json_timestamps_bracket_the_work(tmp_path, monkeypatch):
    ticks = iter(range(100))

    class Clock:
        @staticmethod
        def now(tz):
            return datetime(2000, 1, 1, tzinfo=tz) + timedelta(seconds=next(ticks))

    monkeypatch.setattr(cli, "datetime", Clock)
    out = tmp_path / "sweep.json"
    run_cli(
        ["sweep", "--bound", "T2_UPPER", "--grid", "0.5", "--format", "json",
         "--timestamps", "--out", str(out)]
    )
    report = read_json(out)
    assert report["started_at"] < report["finished_at"]


def test_sweep_requires_bound_and_grid():
    assert run_cli(["sweep", "--grid", "0.5"]) == 2
    assert run_cli(["sweep", "--bound", "T2_UPPER"]) == 2


def test_sweep_json_format_round_trips(tmp_path):
    out = tmp_path / "sweep.json"
    run_cli(
        ["sweep", "--bound", "T2_UPPER", "--dim", "2", "--seed", "3",
         "--grid", "0.25,0.5,0.75", "--format", "json", "--out", str(out)]
    )
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
    out = tmp_path / "demo.json"
    run_cli(["demo", "--out", str(out)])
    raw = out.read_text(encoding="utf-8")
    assert canonical_json(json.loads(raw)) == raw


def test_format_float_is_reparse_stable():
    for value in (0.1, 1.0, -0.0, 1e-300, 123456.789, 2.0 / 3.0, 1e22):
        text = format_float(value)
        assert float(text) == value or (value == -0.0 and float(text) == 0.0)
        assert format_float(float(text)) == text


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})
