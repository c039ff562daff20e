"""Output digests: every file `irribot run --trace` writes, pinned byte for byte.

Criterion 8 pins the seed-42 canonical `results.json`, `trials.csv` and
stdout. These cases pin the rest: a trace, another seed, an 800-pot random
layout, a config overriding defaults in every section the environments read,
and an unshielded drift that resets inside leveling episodes. A refactor
keeps every digest; an intended output change updates the table and says
why in CHANGES.md.
"""

import hashlib

import pytest

from irribot.cli import main

OUTPUT_FILES = ("results.json", "trials.csv", "trace.csv")

# case: (config YAML or None, run arguments; every case adds --trace)
CASES = {
    "seed_1042": (None, ["--env", "all", "--trials", "10", "--seed", "1042"]),
    "pots_800": ("pot_count: 800\n",
                 ["--env", "complex_lighting", "--trials", "3", "--seed", "42"]),
    "overrides": (
        "pot_count: 30\n"
        "pump: {flow_rate: 40.0, spray_radius: 15.0, target_volume: 120.0}\n"
        "environments:\n"
        "  complex_lighting: {drive_speed: 200.0, spray_efficiency: 0.9, accuracy: 0.9}\n"
        "  hilly_terrain: {dispense_overshoot: 0.1, center_noise_px: 20.0}\n",
        ["--env", "all", "--trials", "3", "--seed", "7"],
    ),
    # pins the drift bias the mission carries out of episodes that reset
    "unshielded_hilly": (
        "leveling: {drift_rate: 2.0, shielded: false, reset_threshold: 1.0}\n",
        ["--env", "hilly_terrain", "--trials", "3", "--seed", "42"],
    ),
}

DIGESTS = {
    "seed_1042": {
        "results.json": "6246f9188da9dc928e1088026893a29c9ebbcbebe61f468d9efae2e3043eab6a",
        "trials.csv": "6b3269c008a1154c29096669c4c3fde0cc4c86023759a9daccc6310c017f4dcd",
        "trace.csv": "8e76bbd1dea46f5dcf6a71a78d7cc439c5fe21c5cbfe044e50cafa24f2a160ab",
        "stdout": "4d3d6aa46572a46e0697380a1c5cd7ad48bb2af40892e59008edf4f7134361ba",
    },
    "pots_800": {
        "results.json": "4faf5834c45bd23092f1420922c6602c1ae601d564a3e9061f5b5b76514c1866",
        "trials.csv": "8a0eff83e43935bf50ce601bfca2fd286f42f74550ad56c2a63c807be6e4a501",
        "trace.csv": "2e0311e919e4b59581ec2f56fff6861b658b2cdd42d8c91bbb62d762a8816ec7",
        "stdout": "4471d6e572d69ce3f0dd31e2cbbb8a2ad7b7b8a4e9f586fd27c3fd9863c1500d",
    },
    "overrides": {
        "results.json": "43456f3954d48f7c292a2afbe8ec81a370c4b4c6989dba8b540a0f3fc5b56230",
        "trials.csv": "27a3c55ee98578621d3e4e9671ad77f1ebaba7dd5cae229fa1072aa79c69b868",
        "trace.csv": "bb9a8cffeba5d79c0b061af96f0a86410f2b47308974f5ba22864ebf6647d363",
        "stdout": "6af3ac13a8fd62cf3be4c7fa695ef8a185f381480b66a06b32f369b124f23bd2",
    },
    "unshielded_hilly": {
        "results.json": "82e032174f920effb28f9443984e945a3bd1abd132595e815f4f5905ac263d5e",
        "trials.csv": "c4e1d5bc5d69c061b15bde3e77428892cc22573f23baf05ed1abb82c0beab9c8",
        "trace.csv": "1515356749860c4e154bf0f115d3b9b221b5ff5f2ba1adf9af6002ab25184556",
        "stdout": "b947cfce495c09846f2025afc24c639dec0229e6934595951cfcfd6f0227da87",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_outputs_match_pinned_digests(case, tmp_path, capsys):
    yaml_text, args = CASES[case]
    argv = ["run", *args, "--trace", "--out-dir", str(tmp_path)]
    if yaml_text is not None:
        (tmp_path / "config.yaml").write_text(yaml_text)
        argv += ["--config", str(tmp_path / "config.yaml")]
    assert main(argv) == 0
    outputs = {f: (tmp_path / f).read_bytes() for f in OUTPUT_FILES}
    outputs["stdout"] = capsys.readouterr().out.encode()
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
    assert digests == DIGESTS[case]
