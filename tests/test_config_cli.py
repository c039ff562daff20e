"""Tests for config loading, report rendering, and the CLI contract."""

import csv
import dataclasses
import io
import json

import pytest

from irribot import cli
from irribot.cli import main
from irribot.config import (
    ConfigError,
    ConfigParseError,
    default_config,
    dump_config,
    environment_for,
    gains_for,
    load_config,
)
from irribot.mission import TrialReport, run_trial
from irribot.report import (
    TABLE_COLUMNS,
    build_results,
    render_report,
    render_summary_table,
    results_to_json,
    summarize_env,
    trace_csv_text,
    trials_csv_text,
)


def parse_trials_csv(text):
    """Inverse of trials_csv_text: typed rows, empty cells back to None."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, val in raw.items():
            if val == "":
                row[key] = None
            elif key in ("env", "abort_cause"):
                row[key] = val
            elif key == "aborted":
                row[key] = val == "True"
            elif key in ("trial", "seed", "pots", "serviced"):
                row[key] = int(val)
            else:
                row[key] = float(val)
        rows.append(row)
    return rows


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ config

def test_defaults_are_self_consistent():
    cfg = default_config()
    assert cfg.env_names() == [
        "standard_greenhouse", "hilly_terrain", "complex_lighting"]
    assert dataclasses.replace(cfg, env="hilly_terrain").env_names() == ["hilly_terrain"]


def test_dump_load_round_trip_is_identity(tmp_path):
    cfg = default_config()
    path = write(tmp_path, dump_config(cfg))
    assert load_config(path) == cfg
    # normalization is idempotent: dump(load(dump(x))) == dump(x)
    assert dump_config(load_config(path)) == dump_config(cfg)


def test_minimal_file_fills_defaults(tmp_path):
    path = write(tmp_path, "env: standard_greenhouse\n")
    cfg = load_config(path)
    assert cfg == dataclasses.replace(default_config(), env="standard_greenhouse")


def test_partial_env_override_keeps_other_fields(tmp_path):
    path = write(tmp_path, "environments:\n  hilly_terrain:\n    drive_speed: 250.0\n")
    cfg = load_config(path)
    tuning = cfg.environments["hilly_terrain"]
    assert tuning.drive_speed == 250.0
    assert tuning.dispense_overshoot == 0.08  # untouched default
    assert cfg.environments["complex_lighting"].drive_speed == 241.0


@pytest.mark.parametrize("text,frag", [
    ("bogus: 1\n", "bogus"),
    ("arm:\n  l9: 3\n", "arm.'l9'"),
    ("environments:\n  mars_dome: {drive_speed: 1}\n", "mars_dome"),
    ("environments:\n  hilly_terrain: {warp: 9}\n", "warp"),
    ("1: 2\nb: 3\n", "unknown key 1"),
])
def test_unknown_keys_fail_with_path(tmp_path, text, frag):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert frag in str(err.value)


@pytest.mark.parametrize("text,frag", [
    ("trials: 0\n", "trials"),
    ("environments:\n  hilly_terrain: {accuracy: 1.5}\n", "accuracy"),
    ("pump: {flow_rate: -3}\n", "flow_rate"),
    ("battery: {voltage_cutoff: 13.0}\n", "voltage_full"),
    ("detection: {conf_threshold: 2.0}\n", "conf_threshold"),
    ("leveling: {kp: 1.0}\n", "kp, ki and kd"),
    ("leveling: {shielding_factor: 1.0}\n", "shielding_factor"),
    ("leveling: {filter_window: 2.5}\n", "filter_window"),
    ("seed: abc\n", "seed"),
    ("trials: 2.5\n", "trials"),
    ("pot_count: true\n", "pot_count"),
    ("leveling: {noise_std: abc}\n", "leveling.noise_std must be float, got str"),
    ("leveling: {shielded: 1}\n", "leveling.shielded must be bool, got int"),
    ("leveling: {kp: [5.0]}\n", "leveling.kp must be float | None, got list"),
    ("environments:\n  hilly_terrain: {accuracy: high}\n",
     "environments.hilly_terrain.accuracy must be float"),
    ("env: 3\n", "env must be str, got int"),
    ("calibration: {u0: .nan}\n", "calibration.u0 must be a finite float, got nan"),
    ("timing: {arm_move: .inf}\n", "timing.arm_move must be a finite float, got inf"),
    ("leveling: {kp: -.inf, ki: 1.0, kd: 1.0}\n", "leveling.kp must be a finite float"),
    pytest.param("pump: {flow_rate: 1" + "0" * 400 + "}\n",
                 "pump.flow_rate must be a finite float", id="int-beyond-float-range"),
])
def test_bounds_violations_name_the_field(tmp_path, text, frag):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert frag in str(err.value)


def leaf_fields(obj, path=""):
    """(dotted path, value) of every scalar field under a config dataclass."""
    items = obj.items() if isinstance(obj, dict) else (
        (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    for key, value in items:
        where = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(value) or isinstance(value, dict):
            yield from leaf_fields(value, where)
        else:
            yield where, value


def test_every_scalar_field_checks_its_type(tmp_path):
    leaves = list(leaf_fields(default_config()))
    assert len(leaves) > 50
    for where, value in leaves:
        wrong = 7 if isinstance(value, str) else "seven"
        *sections, key = where.split(".")
        text = "".join(f"{'  ' * d}{s}:\n" for d, s in enumerate(sections))
        text += f"{'  ' * len(sections)}{key}: {json.dumps(wrong)}\n"
        with pytest.raises(ConfigError, match=f"^{where} must be "):
            load_config(write(tmp_path, text))


def test_integers_are_accepted_as_floats(tmp_path):
    cfg = load_config(write(tmp_path, "pump: {flow_rate: 30}\nleveling: {kp: 5, ki: 0, kd: 0}\n"))
    assert cfg.pump.flow_rate == 30
    assert (cfg.leveling.kp, cfg.leveling.ki) == (5, 0)


def test_yaml_exponent_floats_load_as_floats(tmp_path):
    cfg = load_config(write(tmp_path, (
        "env: hilly_terrain\n"
        "pump: {flow_rate: 1e3, spray_radius: 1.0e1, target_volume: 2.5E+2}\n"
        "calibration: {delta_x: .5e1, delta_y: -2E-4}\n"
        "leveling: {rule: classic}\n")))
    got = (cfg.pump.flow_rate, cfg.pump.spray_radius, cfg.pump.target_volume,
           cfg.calibration.delta_x, cfg.calibration.delta_y)
    assert got == (1000.0, 10.0, 250.0, 5.0, -2e-4)
    assert all(type(v) is float for v in got)
    assert (cfg.env, cfg.leveling.rule) == ("hilly_terrain", "classic")
    # str fields keep quoted numbers and exponent-like words as strings
    for text, want in (("'1e3'", "1e3"), ("e3", "e3"), ("1e", "1e"), ("1.e", "1.e")):
        cfg = load_config(write(tmp_path, f"leveling: {{rule: {text}}}\n", name="r.yaml"))
        assert cfg.leveling.rule == want


def test_yaml_syntax_error_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "arm: [unclosed\n"))


def test_manual_gains_bypass_tuning(tmp_path):
    path = write(tmp_path, "leveling: {kp: 5.0, ki: 2.0, kd: 0.5}\n")
    gains = gains_for(load_config(path))
    assert (gains.kp, gains.ki, gains.kd) == (5.0, 2.0, 0.5)
    assert gains.integral_limit == pytest.approx(8.0 / 2.0)


def test_resolved_params_carry_env_operating_point():
    cfg = default_config()
    hilly = environment_for(cfg, "hilly_terrain")
    complex_ = environment_for(cfg, "complex_lighting")
    assert hilly.pump.dispense_overshoot == 0.08
    assert hilly.drive_speed == 300.0
    assert complex_.drive_speed == 241.0
    assert complex_.pump.spray_efficiency == 0.935
    assert (hilly.pump.flow_rate, hilly.pump.spray_radius) == (30.0, 20.0)


def test_environment_for_applies_profile_and_pot_count(tmp_path):
    path = write(
        tmp_path,
        "pot_count: 8\npump: {flow_rate: 40}\nenvironments:\n"
        "  complex_lighting: {accuracy: 0.5, drive_speed: 200.0}\n",
    )
    cfg = load_config(path)
    env = environment_for(cfg, "complex_lighting")
    assert env.detector_profile.accuracy == 0.5
    assert env.layout.count == 8
    assert env.pump.flow_rate == 40
    assert env.drive_speed == 200.0
    # the other environments keep their defaults
    assert environment_for(cfg, "hilly_terrain").drive_speed == 300.0


# ------------------------------------------------------------------ report

def test_summary_means_skip_trials_without_a_value():
    row = dict.fromkeys(f.name for f in dataclasses.fields(TrialReport))
    row.update(env="x", trial=0, seed=0, pots=1, serviced=0, accuracy_pct=50.0,
               frame_accuracy_pct=50.0, fp_pct=0.0, mean_inference_ms=30.0,
               elapsed_s=1.0, battery_voltage_end=12.0, aborted=False)
    reports = [TrialReport(**{**row, "mean_positioning_error_mm": v}) for v in (2.0, None, 5.0)]
    summary = summarize_env(reports)
    assert summary["mean_positioning_error_mm"] == 3.5
    assert summary["accuracy_pct"] == 50.0
    assert summary["leveling_mean_s"] is None


@pytest.fixture(scope="module")
def two_env_payload():
    cfg = default_config()
    gains = gains_for(cfg)
    env_reports = {}
    for name in ("standard_greenhouse", "hilly_terrain"):
        env = environment_for(cfg, name)
        env_reports[name] = [run_trial(env, cfg, gains, 30 + i, trial=i)[0]
                             for i in range(3)]
    payload = build_results(dataclasses.asdict(cfg), env_reports, {"hilly_terrain": 20.1})
    return payload, env_reports


def test_summary_is_column_means(two_env_payload):
    payload, env_reports = two_env_payload
    reports = env_reports["hilly_terrain"]
    summary = payload["environments"]["hilly_terrain"]["summary"]
    assert summary["accuracy_pct"] == pytest.approx(
        sum(r.accuracy_pct for r in reports) / len(reports))
    assert summary["trials"] == 3


def test_flat_env_summary_has_null_leveling(two_env_payload):
    payload, _ = two_env_payload
    summary = payload["environments"]["standard_greenhouse"]["summary"]
    assert summary["leveling_mean_s"] is None
    assert summary["sse_mean_deg"] is None


def test_results_json_is_deterministic_text(two_env_payload):
    payload, _ = two_env_payload
    text = results_to_json(payload)
    assert text == results_to_json(json.loads(text))
    assert text.endswith("\n")


def test_table_renders_na_for_flat_leveling(two_env_payload):
    payload, _ = two_env_payload
    table = render_summary_table(payload)
    lines = table.splitlines()
    assert lines[0].startswith("Environment")
    for column in TABLE_COLUMNS:
        assert column in lines[0]
    flat_row = next(l for l in lines if l.startswith("standard_greenhouse"))
    assert flat_row.count("N/A") == 2
    sloped_row = next(l for l in lines if l.startswith("hilly_terrain"))
    assert "N/A" not in sloped_row


def test_report_quotes_savings_and_endurance(two_env_payload):
    payload, _ = two_env_payload
    text = render_report(payload)
    assert "Water savings vs flood baseline:" in text
    assert "20.1 min" in text


def test_table_matches_csv_recomputation(two_env_payload):
    # the rendered numbers must equal recomputation from trials.csv
    payload, env_reports = two_env_payload
    rows = parse_trials_csv(trials_csv_text(env_reports))
    for name in env_reports:
        mine = [r for r in rows if r["env"] == name]
        summary = payload["environments"][name]["summary"]
        for key in ("accuracy_pct", "fp_pct", "mean_positioning_error_mm",
                    "efficiency_pct", "mean_volume_ml"):
            recomputed = sum(r[key] for r in mine) / len(mine)
            assert recomputed == pytest.approx(summary[key], abs=1e-12)


def test_csv_round_trip_preserves_nulls(two_env_payload):
    _, env_reports = two_env_payload
    rows = parse_trials_csv(trials_csv_text(env_reports))
    flat = [r for r in rows if r["env"] == "standard_greenhouse"]
    assert all(r["leveling_mean_s"] is None for r in flat)
    assert all(isinstance(r["seed"], int) for r in rows)


# ------------------------------------------------------------------ CLI

def run_cli(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["run", "--env", "standard_greenhouse", "--trials", "2",
                 "--seed", "5", "--out-dir", str(out), *extra])
    return code, out


def test_cli_run_writes_outputs(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    assert code == 0
    assert (out / "results.json").exists()
    assert (out / "trials.csv").exists()
    table = capsys.readouterr().out
    assert "standard_greenhouse" in table
    assert "hilly_terrain" not in table


def test_cli_run_is_byte_deterministic(tmp_path):
    _, out_a = run_cli(tmp_path)
    (tmp_path / "out").rename(tmp_path / "a")
    _, out_b = run_cli(tmp_path)
    a = (tmp_path / "a" / "results.json").read_bytes()
    b = (out_b / "results.json").read_bytes()
    assert a == b


def test_cli_replay_reproduces_run_stdout(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    run_text = capsys.readouterr().out
    assert main(["replay", str(out / "results.json")]) == 0
    assert capsys.readouterr().out == run_text


def test_cli_trace_flag_writes_tick_trace(tmp_path):
    _, out = run_cli(tmp_path, "--trace")
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[0] == "env,trial,t,phase,pot,tilt_deg,voltage"
    assert "Sensing" in trace


def csv_writer_trace_text(traces):
    """trace.csv as the csv.writer-based writer produced it, kept as the oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["env", "trial", "t", "phase", "pot", "tilt_deg", "voltage"])
    for (env, trial), rows in traces.items():
        for t, phase, pot, tilt, volts in rows:
            writer.writerow([env, trial, f"{t:.2f}", phase, pot,
                             f"{tilt:.4f}", f"{volts:.4f}"])
    return buf.getvalue()


def test_trace_csv_matches_csv_writer_oracle(tmp_path, monkeypatch):
    seen = []

    def spy(traces):
        seen.append(traces)
        return trace_csv_text(traces)

    monkeypatch.setattr(cli, "trace_csv_text", spy)
    out = tmp_path / "out"
    assert main(["run", "--env", "all", "--trials", "1", "--trace",
                 "--out-dir", str(out)]) == 0
    [traces] = seen
    assert [env for env, _ in traces] == list(default_config().env_names())
    assert sum(map(len, traces.values())) > 1000
    got = (out / "trace.csv").read_text().splitlines(keepends=True)
    want = csv_writer_trace_text(traces).splitlines(keepends=True)
    # name the first differing rows; a diff of the whole ~10,000-row file is slow
    assert [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w][:3] == []
    assert len(got) == len(want)


def test_cli_tune_prints_gain_set(capsys):
    assert main(["tune"]) == 0
    text = capsys.readouterr().out
    for token in ("Ku", "Tu", "Kp", "Ki", "Kd"):
        assert token in text


def test_cli_calibrate_arm_prints_state(capsys):
    assert main(["calibrate-arm", "1200", "900", "70", "-60"]) == 0
    lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
    assert float(lines["delta_x"]) == pytest.approx(150.0)
    assert float(lines["delta_y"]) == pytest.approx(0.0)


@pytest.mark.parametrize("text,env,where", [
    # a pack this large never depletes inside the 3 h endurance guard
    ("battery: {capacity_mah: 100000}\n", "standard_greenhouse", "endurance run, seed 42"),
    # random placement gives up near 985 pots
    ("pot_count: 2000\n", "complex_lighting", "trial 0, seed 42"),
])
def test_cli_simulation_failures_exit_4_naming_the_trial(tmp_path, capsys, text, env, where):
    cfg = write(tmp_path, text)
    code = main(["run", "--config", cfg, "--env", env, "--trials", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 4
    assert f"env {env}, {where}:" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == 2
    bad_yaml = write(tmp_path, "arm: [unclosed\n")
    assert main(["run", "--config", bad_yaml]) == 3
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"a: \xff\n")
    for argv in (["run", "--config", str(not_utf8)], ["replay", str(not_utf8)]):
        capsys.readouterr()
        assert main(argv) == 3
        assert str(not_utf8) in capsys.readouterr().err
    bad_value = write(tmp_path, "trials: 0\n", name="v.yaml")
    assert main(["run", "--config", bad_value]) == 4
    bad_type = write(tmp_path, "trials: ten\n", name="t.yaml")
    assert main(["run", "--config", bad_type]) == 4
    for text, key in (("seed: abc\n", "seed"), ("trials: 2.5\n", "trials"),
                      ("leveling: {noise_std: abc}\n", "leveling.noise_std must be float")):
        capsys.readouterr()
        assert main(["run", "--config", write(tmp_path, text, name="s.yaml")]) == 4
        assert key in capsys.readouterr().err
    assert main(["run", "--env", "mars_dome"]) == 4
    capsys.readouterr()
    assert main(["run", "--config", write(tmp_path, "arm: {l1: -1}\n", name="a.yaml")]) == 4
    assert capsys.readouterr().err == (
        "irribot: validation error: bad value in arm: arm link lengths must be positive\n")
    for text, key in (("calibration: {u0: .nan}\n", "calibration.u0"),
                      ("timing: {arm_move: .inf}\n", "timing.arm_move")):
        assert main(["run", "--config", write(tmp_path, text, name="f.yaml")]) == 4
        assert f"{key} must be a finite float" in capsys.readouterr().err
    assert main(["replay", str(tmp_path / "missing.json")]) == 5
    for text, what in (("nul", "not JSON: Expecting value: line 1 column 1 (char 0)"),
                       ("{}", "schema_version is None"), ("[1]", "top level is a list"),
                       ('{"schema_version": 2, "environments": {}}', "schema_version is 2"),
                       ('{"schema_version": 1, "environments": {"x": 3}}',
                        "environment 'x' has no 'summary' mapping"),
                       ('{"schema_version": 1, "environments": {"x": {"summary": {"fp_pct": [1]}}}}',
                        "environment 'x': fp_pct is not a number")):
        path = write(tmp_path, text, name="r.json")
        capsys.readouterr()
        assert main(["replay", path]) == 3
        assert capsys.readouterr().err == (
            f"irribot: parse error: {path} is not a schema-1 irribot results file: {what}\n")
