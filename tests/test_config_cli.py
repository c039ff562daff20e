"""Tests for config loading, report rendering, and the CLI contract."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml

from irribot import cli
from irribot import config as config_module
from irribot.cli import main
from irribot.config import (
    ENV_NAMES,
    MAX_TRIALS,
    ConfigError,
    ConfigParseError,
    RunConfig,
    default_config,
    environment_for,
    gains_for,
    load_config,
)
from irribot import mission as mission_module
from irribot.leveling import integral_clamp
from irribot.mission import MissionTimeout, TrialReport, run_mission, run_trial, segment_ticks
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


def dump(cfg):  # README's "print the defaults" one-liner
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=False)


def test_dump_load_round_trip_is_identity(tmp_path):
    cfg = default_config()
    path = write(tmp_path, dump(cfg))
    assert load_config(path) == cfg
    # normalization is idempotent: dump(load(dump(x))) == dump(x)
    assert dump(load_config(path)) == dump(cfg)


def test_defaults_dump_is_pinned():
    digest = hashlib.sha256(dump(default_config()).encode()).hexdigest()
    assert digest == "b31d59df78b4433db8e9ff085250cf8935139de03a22c7e86cbe859c8ca16ded"


def test_config_tree_is_records_over_scalar_leaves():
    # _overlay recurses into dataclass values and type-checks every other
    # value by its annotation, so the tree must hold nothing else
    def walk(node, path):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if dataclasses.is_dataclass(value):
                walk(value, f"{path}{f.name}.")
            else:
                kind, _, rest = f.type.partition(" | ")
                assert kind in config_module._SCALAR_CHECKS and rest in ("", "None"), (
                    f"{path}{f.name}: {f.type}")

    walk(default_config(), "")
    names = [f.name for f in dataclasses.fields(config_module.Environments)]
    assert names == list(ENV_NAMES) == list(config_module._TERRAIN)


def test_minimal_file_fills_defaults(tmp_path):
    path = write(tmp_path, "env: standard_greenhouse\n")
    cfg = load_config(path)
    assert cfg == dataclasses.replace(default_config(), env="standard_greenhouse")


def test_partial_env_override_keeps_other_fields(tmp_path):
    path = write(tmp_path, "environments:\n  hilly_terrain:\n    drive_speed: 250.0\n")
    cfg = load_config(path)
    defaults = default_config().environments
    assert cfg.environments.hilly_terrain == dataclasses.replace(
        defaults.hilly_terrain, drive_speed=250.0)
    assert cfg.environments.standard_greenhouse == defaults.standard_greenhouse
    assert cfg.environments.complex_lighting == defaults.complex_lighting


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


@pytest.mark.parametrize("text,message", [
    ("environments: {bogus: {drive_speed: 1.0}}\n", "unknown key environments.'bogus'"),
    ("environments: {standard_greenhouse: 3}\n",
     "environments.standard_greenhouse must be a mapping, got int"),
    ("environments: 3\n", "environments must be a mapping, got int"),
    ("environments: {hilly_terrain: {accuracy: 1.5}}\n",
     "bad value in environments.hilly_terrain: accuracy must be in [0, 1]"),
])
def test_environments_errors_exit_4_with_their_full_message(tmp_path, capsys, text, message):
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"irribot: validation error: {message}\n"


@pytest.mark.parametrize("text,frag", [
    ("trials: 0\n", "trials"),
    ("environments:\n  hilly_terrain: {accuracy: 1.5}\n", "accuracy"),
    ("pump: {flow_rate: -3}\n", "flow_rate"),
    ("battery: {voltage_cutoff: 13.0}\n", "voltage_full"),
    ("detection: {conf_threshold: 2.0}\n", "conf_threshold"),
    ("leveling: {kp: 1.0}\n", "kp, ki and kd"),
    ("leveling: {shielding_factor: 1.0}\n", "shielding_factor"),
    ("leveling: {filter_window: 2.5}\n", "filter_window"),
    ("leveling: {rule: bogus}\n", "bad value in leveling: unknown tuning rule 'bogus'"),
    ("leveling: {integral_authority: 0.0}\n",
     "bad value in leveling: integral_authority must be positive"),
    ("leveling: {episode_window: 1.0e9}\n",
     "bad value in leveling: episode_window / episode_tick must be at most 100000 ticks"),
    ("arm: {l1: 1.0e200}\n", "bad value in arm: arm link lengths must keep"),
    ("arm: {l1: 1.0e-170, l2: 1.0e-170}\n", "bad value in arm: arm link lengths must keep"),
    ("plant: {max_rate: fast}\n", "plant.max_rate must be float, got str"),
    ("plant: {max_rate: 0}\n", "bad value in plant: max_rate must be positive"),
    ("plant: {delay: -0.01}\n", "bad value in plant: delay must be finite"),
    ("plant: {tau: 0.0}\n", "bad value in plant: tau must be positive"),
    ("seed: abc\n", "seed"),
    ("seed: -1\n", "bad value in top level: seed must be non-negative"),
    ("trials: 2.5\n", "trials"),
    ("trials: 1001\n", "bad value in top level: trials must be at most 1000"),
    ("pot_count: true\n", "pot_count"),
    ("timing: {mission_tick: 1.0e-300}\n",
     "bad value in timing: 3 h / mission_tick must be at most 10800000 ticks"),
    ("leveling: {noise_std: abc}\n", "leveling.noise_std must be float, got str"),
    ("leveling: {shielded: 1}\n", "leveling.shielded must be bool, got int"),
    ("leveling: {kp: [5.0]}\n", "leveling.kp must be float | None, got list"),
    ("environments:\n  hilly_terrain: {accuracy: high}\n",
     "environments.hilly_terrain.accuracy must be float"),
    ("env: 3\n", "env must be str, got int"),
    ("calibration: {u0: .nan}\n", "calibration.u0 must be a finite float, got nan"),
    ("calibration: {z_const: 0}\n", "bad value in calibration: z_const must be positive"),
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
    # str fields keep quoted numbers and exponent-like words as strings; a
    # float would fail as "leveling.rule must be str", and the rule check
    # quotes back the string it read
    for text, want in (("'1e3'", "1e3"), ("e3", "e3"), ("1e", "1e"), ("1.e", "1.e")):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, f"leveling: {{rule: {text}}}\n", name="r.yaml"))
        assert str(err.value) == f"bad value in leveling: unknown tuning rule {want!r}"


def test_importing_the_cli_does_not_import_yaml():
    # a run without --config never needs yaml; a fresh interpreter shows
    # what the import alone pulls in
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, irribot.cli; print('yaml' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def test_yaml_syntax_error_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "arm: [unclosed\n"))


def test_manual_gains_bypass_tuning(tmp_path):
    path = write(tmp_path, "leveling: {kp: 5.0, ki: 2.0, kd: 0.5}\n")
    gains = gains_for(load_config(path))
    assert (gains.kp, gains.ki, gains.kd) == (5.0, 2.0, 0.5)
    assert gains.integral_limit == pytest.approx(8.0 / 2.0)


@pytest.mark.parametrize("ki,limit", [(2.0, 8.0 / 2.0), (0.0, None)])
def test_manual_gains_clamp_the_integral_as_the_tuner_does(tmp_path, ki, limit):
    # tune_leveling applies the same integral_clamp to the tuned gains
    cfg = load_config(write(tmp_path, f"leveling: {{kp: 5.0, ki: {ki}, kd: 0.5}}\n"))
    authority = cfg.leveling.integral_authority
    assert gains_for(cfg).integral_limit == limit == integral_clamp(ki, authority)


def test_resolved_params_carry_env_operating_point():
    cfg = default_config()
    hilly = environment_for(cfg, "hilly_terrain")
    complex_ = environment_for(cfg, "complex_lighting")
    assert hilly.tuning.dispense_overshoot == 0.08
    assert hilly.tuning.drive_speed == 300.0
    assert complex_.tuning.drive_speed == 241.0
    assert complex_.tuning.spray_efficiency == 0.935
    assert (cfg.pump.flow_rate, cfg.pump.spray_radius) == (30.0, 20.0)


def test_environment_for_applies_profile_and_pot_count(tmp_path):
    path = write(
        tmp_path,
        "pot_count: 8\npump: {flow_rate: 40}\nenvironments:\n"
        "  complex_lighting: {accuracy: 0.5, drive_speed: 200.0}\n",
    )
    cfg = load_config(path)
    env = environment_for(cfg, "complex_lighting")
    assert env.tuning.accuracy == 0.5
    assert env.layout.count == 8
    assert cfg.pump.flow_rate == 40
    assert env.tuning.drive_speed == 200.0
    # the other environments keep their defaults
    assert environment_for(cfg, "hilly_terrain").tuning.drive_speed == 300.0


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


def test_cli_replay_reads_results_that_echo_theta_offset(tmp_path, capsys):
    # results.json files written before arm.theta_offset was deleted still
    # replay: replay renders the summaries and never rebuilds the config
    code, out = run_cli(tmp_path)
    run_text = capsys.readouterr().out
    payload = json.loads((out / "results.json").read_text())
    assert "theta_offset" not in payload["config"]["arm"]
    payload["config"]["arm"]["theta_offset"] = 15.0
    older = write(tmp_path, json.dumps(payload, indent=2), name="older.json")
    assert main(["replay", older]) == 0
    assert capsys.readouterr().out == run_text


def test_arm_theta_offset_is_an_unknown_key(tmp_path, capsys):
    cfg = write(tmp_path, "arm: {theta_offset: 15.0}\n")
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == (
        "irribot: validation error: unknown key arm.'theta_offset'\n")


def test_cli_trace_flag_writes_tick_trace(tmp_path):
    _, out = run_cli(tmp_path, "--trace")
    trace = (out / "trace.csv").read_text()
    assert trace.splitlines()[0] == "env,trial,t,phase,pot,tilt_deg,voltage"
    assert "Sensing" in trace
    # trial 0's ticks only: not trial 1's, nor those of the endurance run
    # that continues trial 0's mission
    cfg = default_config()
    m = run_mission(environment_for(cfg, "standard_greenhouse"), cfg, gains_for(cfg), 5)
    rows = list(csv.DictReader(io.StringIO(trace)))
    assert {row["trial"] for row in rows} == {"0"}
    assert len(rows) == m.ticks
    assert rows[-1]["t"] == f"{m.ticks * cfg.timing.mission_tick:.2f}"


def csv_writer_trace_text(traces):
    """trace.csv as the csv.writer-based writer produced it, kept as the oracle;
    traces maps (env, trial) to rows (t, phase, pot, tilt, voltage)."""
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

    def spy(traces, battery, dt, fh):
        seen.append((traces, battery, dt))
        return trace_csv_text(traces, battery, dt, fh)

    monkeypatch.setattr(cli, "trace_csv_text", spy)
    out = tmp_path / "out"
    assert main(["run", "--env", "all", "--trials", "1", "--trace",
                 "--out-dir", str(out)]) == 0
    [(traces, battery, dt)] = seen
    assert [env for env, _ in traces] == list(default_config().env_names())
    rows = {key: [(t, entry.phase, entry.pot, entry.tilt, volts) for entry in log
                  for t, volts in segment_ticks(entry, battery, dt)]
            for key, log in traces.items()}
    assert sum(map(len, rows.values())) > 1000
    got = (out / "trace.csv").read_text().splitlines(keepends=True)
    want = csv_writer_trace_text(rows).splitlines(keepends=True)
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


@pytest.mark.parametrize("argv,frag", [
    (["nan", "100", "10", "20"], "u0, v0, delta_x and delta_y must be finite"),
    (["100", "100", "10", "20", "0"], "z_const must be positive"),
])
def test_cli_calibrate_arm_rejects_what_run_would(capsys, argv, frag):
    # a calibration `run` would reject is never printed
    assert main(["calibrate-arm", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == "" and frag in err


@pytest.mark.parametrize("text,env,where", [
    # a pack this large never depletes inside the 3 h endurance guard
    ("battery: {capacity_mah: 100000}\n", "standard_greenhouse", "endurance run, seed 42"),
    # random placement gives up near 985 pots
    ("pot_count: 2000\n", "complex_lighting", "trial 0, seed 42"),
    # finite calibrations whose boxes come out degenerate
    ("calibration: {s: 1.0e308}\n", "standard_greenhouse", "trial 0, seed 42"),
    ("calibration: {u0: 1.0e308}\n", "standard_greenhouse", "trial 0, seed 42"),
    # a drift that overflows the tilt reading within the first episode
    ("leveling: {drift_rate: 1.0e308, shielded: false, reset_threshold: 1.0e308}\n",
     "hilly_terrain", "trial 0, seed 42"),
    # an endless arm move on a pack that never depletes runs into the guard
    ("{timing: {arm_move: 1.0e308}, battery: {capacity_mah: 1.0e12}}\n",
     "standard_greenhouse", "trial 0, seed 42"),
])
def test_cli_simulation_failures_exit_4_naming_the_trial(tmp_path, capsys, text, env, where):
    cfg = write(tmp_path, text)
    code = main(["run", "--config", cfg, "--env", env, "--trials", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 4
    assert f"env {env}, {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    # each makes one phase's seconds / mission_tick overflow to inf
    "timing: {arm_move: 1.0e308}\n",
    "timing: {sense_settle: 1.0e308}\n",
    "pump: {flow_rate: 5.0e-324}\n",
    "environments: {standard_greenhouse: {drive_speed: 5.0e-324}}\n",
])
def test_cli_endless_phase_depletes_the_battery(tmp_path, capsys, text):
    code = main(["run", "--config", write(tmp_path, text), "--env", "standard_greenhouse",
                 "--trials", "1", "--out-dir", str(tmp_path)])
    assert code == 0 and capsys.readouterr().err == ""
    [row] = parse_trials_csv((tmp_path / "trials.csv").read_text())
    assert row["aborted"] and row["abort_cause"] == "Depleted"


def test_cli_endurance_value_error_is_named(tmp_path, capsys, monkeypatch):
    def failing_endurance(mission):
        raise ValueError("non-finite IMU reading")

    monkeypatch.setattr(cli, "run_until_depleted", failing_endurance)
    code = main(["run", "--env", "standard_greenhouse", "--trials", "2",
                 "--out-dir", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err == ("irribot: validation error: env standard_greenhouse, "
                                       "endurance run, seed 42: non-finite IMU reading\n")


@pytest.mark.parametrize("endurance_fails", [False, True])
def test_cli_holds_one_trial_mission_at_a_time(tmp_path, monkeypatch, endurance_fails):
    # with the collector off, a mission kept alive by a reference cycle stays too
    real_run_trial = cli.run_trial
    missions = []
    alive_at_start = []

    def tracking_run_trial(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in missions])
        report, mission = real_run_trial(*args, **kwargs)
        missions.append(weakref.ref(mission))
        return report, mission

    def failing_endurance(mission):
        # the deferred failure's traceback would hold this frame, and the mission
        raise MissionTimeout("stalled")

    monkeypatch.setattr(cli, "run_trial", tracking_run_trial)
    if endurance_fails:
        monkeypatch.setattr(cli, "run_until_depleted", failing_endurance)
    gc.disable()
    try:
        code = main(["run", "--env", "hilly_terrain", "--trials", "3",
                     "--out-dir", str(tmp_path)])
        alive_at_end = [ref() is not None for ref in missions]
    finally:
        gc.enable()
    assert code == (4 if endurance_fails else 0)
    assert alive_at_start == [[], [False], [False, False]]
    assert alive_at_end == [False, False, False]


def test_cli_later_trial_failure_is_named_before_the_endurance_run(
        tmp_path, capsys, monkeypatch):
    real_run_trial = cli.run_trial
    tried = []

    def failing_trial_1(env, cfg, gains, seed, *, trial):
        tried.append(trial)
        if trial == 1:
            raise MissionTimeout("stalled")
        return real_run_trial(env, cfg, gains, seed, trial=trial)

    monkeypatch.setattr(cli, "run_trial", failing_trial_1)
    # the endurance run, which continues trial 0, outlasts its guard too
    cfg = write(tmp_path, "battery: {capacity_mah: 100000}\n")
    code = main(["run", "--config", cfg, "--env", "standard_greenhouse", "--trials", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 4 and tried == [0, 1]
    assert capsys.readouterr().err == (
        "irribot: validation error: env standard_greenhouse, trial 1, seed 43: stalled\n")


def test_cli_pot_count_above_the_bound_exits_4_before_any_layout(
        tmp_path, capsys, monkeypatch):
    def no_layout(*args):
        raise AssertionError("a layout was built")

    monkeypatch.setattr(mission_module, "realize_layout", no_layout)
    cfg = write(tmp_path, "pot_count: 20001\n")
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "irribot: validation error: bad value in top level: pot_count must be at most 20000\n")


def test_cli_trials_above_the_bound_exits_4_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    assert main(["run", "--env", "all", "--trials", "1001", "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "irribot: validation error: trials must be at most 1000\n"
    assert not (tmp_path / "results.json").exists()


def test_cli_out_dir_naming_a_file_exits_5_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    assert main(["run", "--env", "all", "--trials", "300", "--out-dir", str(afile)]) == 5
    assert capsys.readouterr().err.startswith("irribot: i/o error: ")
    assert afile.read_text() == "not a directory\n"


# no transport delay and a rate limit no command reaches: proportional
# feedback never sustains an oscillation, so the tuner rejects the plant
UNTUNABLE_PLANT = "plant: {max_rate: 1.0e300, delay: 0.0}\n"


def test_cli_tune_rejects_a_plant_that_never_oscillates(tmp_path, capsys):
    assert main(["tune", "--config", write(tmp_path, UNTUNABLE_PLANT)]) == 4
    assert capsys.readouterr().err == (
        "irribot: validation error: no sustained oscillation up to gain 10000.0\n")


@pytest.mark.parametrize("env,tuned", [("standard_greenhouse", False),
                                       ("complex_lighting", False),
                                       ("hilly_terrain", True), ("all", True)])
def test_cli_run_tunes_only_when_an_environment_has_a_slope(
        tmp_path, capsys, monkeypatch, env, tuned):
    # a flat mission never levels, so a plant the tuner rejects fails only
    # runs that include a sloped environment
    calls = []
    monkeypatch.setattr(cli, "gains_for", lambda cfg: calls.append(cfg) or gains_for(cfg))
    cfg = write(tmp_path, UNTUNABLE_PLANT)
    code = main(["run", "--env", env, "--trials", "1", "--config", cfg,
                 "--out-dir", str(tmp_path)])
    assert len(calls) == tuned
    if tuned:
        assert code == 4
        assert capsys.readouterr().err == (
            "irribot: validation error: no sustained oscillation up to gain 10000.0\n")
    else:
        assert code == 0 and (tmp_path / "results.json").exists()


@pytest.mark.parametrize("gate,code", [(119.9, 0), (120.0, 4), (300.0, 4)])
def test_cli_match_gate_stays_inside_the_spurious_box_keepout(tmp_path, capsys, gate, code):
    # a spurious box lies at least 1200 px, 120 mm at the default 0.1 mm/px,
    # from the pot in service; a gate that reaches it could match one as the pot
    cfg = write(tmp_path, f"scoring: {{match_gate: {gate}}}\n")
    assert main(["run", "--env", "standard_greenhouse", "--trials", "1", "--config", cfg,
                 "--out-dir", str(tmp_path)]) == code
    if code:
        assert capsys.readouterr().err == (
            f"irribot: validation error: bad value in top level: scoring.match_gate "
            f"({gate:g} mm) must be below 1200 px x calibration.s (0.1 mm/px) = 120 mm\n")


def test_match_gate_keepout_scales_with_calibration():
    # a 0.3 mm/px camera puts the keep-out at 360 mm, so a 300 mm gate loads
    cfg = default_config()
    wide = dataclasses.replace(cfg.scoring, match_gate=300.0)
    coarse = dataclasses.replace(cfg.calibration, s=0.3)
    assert dataclasses.replace(cfg, scoring=wide, calibration=coarse).scoring.match_gate == 300.0


def test_trials_bound_admits_max_trials_and_no_more():
    assert RunConfig(trials=MAX_TRIALS).trials == MAX_TRIALS == 1000
    with pytest.raises(ConfigError, match="trials must be at most 1000"):
        RunConfig(trials=MAX_TRIALS + 1)


def test_mission_tick_bound_admits_the_guard_at_1_ms_and_no_finer():
    timing = default_config().timing
    assert dataclasses.replace(timing, mission_tick=0.001).mission_tick == 0.001
    with pytest.raises(ConfigError, match="must be at most 10800000 ticks"):
        dataclasses.replace(timing, mission_tick=math.nextafter(0.001, 0.0))


def test_cli_negative_seed_exits_4_naming_the_seed(tmp_path, capsys):
    # numpy's own message ("expected non-negative integer") names neither
    assert main(["run", "--seed", "-1", "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "irribot: validation error: seed must be non-negative\n"
    assert not (tmp_path / "results.json").exists()


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
                      ("leveling: {noise_std: abc}\n", "leveling.noise_std must be float"),
                      # beyond what the models' float arithmetic carries
                      ("arm: {l1: 1.0e200}\n", "bad value in arm: "),
                      ("arm: {l1: 1.0e-170, l2: 1.0e-170}\n", "bad value in arm: "),
                      ("leveling: {episode_window: 1.0e9}\n", "bad value in leveling: ")):
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
