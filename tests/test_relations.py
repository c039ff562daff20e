"""Metamorphic relations: checks between runs that need no expected values.

Each relation ties two or more runs of the model at fixed configs: an
environment's trials do not depend on the others run beside it, trial i of
seed s is trial 0 of seed s + i, a larger pack never shortens the endurance
run, and a perfect detector leaves no pot undetected.
"""

import csv
import dataclasses
import json

import pytest

from irribot.cli import main
from irribot.config import ENV_NAMES, default_config, environment_for, gains_for
from irribot.mission import CAUSE_UNDETECTED, run_trial


def run_outputs(out_dir, *args, config=None):
    """Run `irribot run` in-process; returns (trials.csv rows, results.json)."""
    argv = ["run", *args, "--out-dir", str(out_dir)]
    if config is not None:
        out_dir.mkdir()
        (out_dir / "config.yaml").write_text(config)
        argv += ["--config", str(out_dir / "config.yaml")]
    assert main(argv) == 0
    with open(out_dir / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, json.loads((out_dir / "results.json").read_text())


@pytest.fixture(scope="module")
def all_envs_seed_42(tmp_path_factory):
    rows, _ = run_outputs(tmp_path_factory.mktemp("all"),
                          "--env", "all", "--trials", "4", "--seed", "42")
    return rows


@pytest.mark.parametrize("env", ENV_NAMES)
def test_environment_rows_do_not_depend_on_the_other_environments(
        env, all_envs_seed_42, tmp_path):
    alone, _ = run_outputs(tmp_path, "--env", env, "--trials", "4", "--seed", "42")
    assert len(alone) == 4
    assert [row for row in all_envs_seed_42 if row["env"] == env] == alone


@pytest.mark.parametrize("env", ENV_NAMES)
def test_trial_i_of_seed_s_is_trial_0_of_seed_s_plus_i(env, all_envs_seed_42, tmp_path):
    [shifted], _ = run_outputs(tmp_path, "--env", env, "--trials", "1", "--seed", "45")
    [trial_3] = [row for row in all_envs_seed_42 if row["env"] == env and row["trial"] == "3"]
    assert (shifted["trial"], trial_3["trial"]) == ("0", "3")
    assert {**shifted, "trial": None} == {**trial_3, "trial": None}


def test_endurance_never_falls_as_the_pack_grows(tmp_path):
    minutes = {env: [] for env in ENV_NAMES}
    for capacity in (600, 1200, 2400, 4800):
        _, results = run_outputs(tmp_path / str(capacity), "--env", "all", "--trials", "1",
                                 config=f"battery: {{capacity_mah: {capacity}}}\n")
        for env in ENV_NAMES:
            minutes[env].append(results["environments"][env]["endurance_runtime_min"])
    for env, runtimes in minutes.items():
        assert runtimes == sorted(runtimes), env


def test_perfect_detector_leaves_no_pot_undetected():
    # at the default config; a large center_noise_px or match_gate can break it
    cfg = default_config()
    envs = cfg.environments
    perfect = {name: dataclasses.replace(getattr(envs, name), accuracy=1.0, fp_rate=0.0)
               for name in ENV_NAMES}
    cfg = dataclasses.replace(cfg, environments=dataclasses.replace(envs, **perfect))
    gains = gains_for(cfg)
    for name in ENV_NAMES:
        env = environment_for(cfg, name)
        for i in range(10):
            report, mission = run_trial(env, cfg, gains, cfg.seed + i, trial=i)
            assert report.fp_pct == 0.0, (name, i)
            assert not any(r.cause == CAUSE_UNDETECTED for r in mission.records), (name, i)
