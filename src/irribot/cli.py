"""Command-line entry point.

    irribot run [--env E] [--trials N] [--seed S] [--config F] [--out-dir D] [--trace]
    irribot calibrate-arm U V X Y [Z] [--config F]
    irribot tune [--config F]
    irribot replay RESULTS

Exit codes: 0 success, 2 usage, 3 file parse error, 4 validation error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from pathlib import Path

from irribot.config import (
    ConfigError,
    ConfigParseError,
    default_config,
    environment_for,
    gains_for,
    load_config,
    tuned_gains,
)
from irribot.fieldsim import LayoutError
from irribot.kinematics import ArmTarget, calibrate_single_reference
from irribot.leveling import NoOscillation
from irribot.mission import MissionTimeout, run_trial, run_until_depleted
from irribot.report import (
    MalformedResults,
    build_results,
    load_results,
    render_report,
    results_to_json,
    trace_csv_text,
    trials_csv_text,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irribot",
        description="Closed-loop field simulator for a precision-irrigation robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute trials and write reports")
    run_p.add_argument("--env", help="environment name or 'all'")
    run_p.add_argument("--trials", type=int, help="trials per environment")
    run_p.add_argument("--seed", type=int, help="base seed; trial i uses seed+i")
    run_p.add_argument("--config", help="YAML config overriding the defaults")
    run_p.add_argument("--out-dir", default=".", help="where to write results")
    run_p.add_argument("--trace", action="store_true",
                       help="also write a tick-level trace.csv of trial 0")

    cal_p = sub.add_parser(
        "calibrate-arm",
        help="solve hand-eye offsets from one pixel/target correspondence",
    )
    cal_p.add_argument("u", type=float, help="observed pixel column")
    cal_p.add_argument("v", type=float, help="observed pixel row")
    cal_p.add_argument("x", type=float, help="known arm-frame x of the reference, mm")
    cal_p.add_argument("y", type=float, help="known arm-frame y of the reference, mm")
    cal_p.add_argument("z", type=float, nargs="?",
                       help="reference height, mm (default: configured z_const)")
    cal_p.add_argument("--config", help="YAML config overriding the defaults")

    tune_p = sub.add_parser("tune", help="auto-tune leveling gains for the plant")
    tune_p.add_argument("--config", help="YAML config overriding the defaults")

    replay_p = sub.add_parser("replay", help="re-render reports from results.json")
    replay_p.add_argument("results", help="path to a results.json")

    return parser


def _load(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


@contextmanager
def _naming_trial(env_name, trial, seed):
    """Re-raise a failure the config can trigger mid-run (a layout, a guard,
    a degenerate box or a non-finite reading) as a ConfigError naming the
    env, the trial ("trial 3", "endurance run") and the seed."""
    try:
        yield
    except (LayoutError, MissionTimeout, ValueError) as exc:
        raise ConfigError(f"env {env_name}, {trial}, seed {seed}: {exc}") from None


def _run_env(cfg, env, gains, trace, traces):
    """One environment's trials and endurance run; returns (trial reports,
    endurance minutes) and, when tracing, files the log entries of trial 0's
    lap in traces; the endurance run's entries are not traced.

    The endurance run continues trial 0's mission past its last pot. Its
    failure is raised after the other trials, so a later trial's is named
    first. At most one trial's mission is alive at a time: each is dropped
    before the next trial lays out its field.
    """
    name = env.name
    reports = []
    minutes = failure = None
    for i in range(cfg.trials):
        with _naming_trial(name, f"trial {i}", cfg.seed + i):
            report, mission = run_trial(env, cfg, gains, cfg.seed + i, trial=i)
        reports.append(report)
        if i == 0:
            if trace:
                traces[(name, 0)] = mission.log[:]  # the endurance run appends on
            try:
                minutes = run_until_depleted(mission)
            except (MissionTimeout, ValueError) as exc:
                failure = exc.with_traceback(None)  # its frames hold the mission
        del mission
    if failure is not None:
        with _naming_trial(name, "endurance run", cfg.seed):
            raise failure
    return reports, minutes


def _cmd_run(args):
    cfg = _load(args)
    overrides = {}
    if args.env is not None:
        overrides["env"] = args.env
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    # an unusable --out-dir fails before any trial runs
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    envs = [environment_for(cfg, name) for name in cfg.env_names()]
    # only a sloped environment runs leveling episodes, so only it needs gains
    gains = gains_for(cfg) if any(env.slope > 0 for env in envs) else None
    env_reports = {}
    endurance = {}
    traces = {}
    for env in envs:
        reports, minutes = _run_env(cfg, env, gains, args.trace, traces)
        env_reports[env.name], endurance[env.name] = reports, minutes

    payload = build_results(dataclasses.asdict(cfg), env_reports, endurance)
    (out_dir / "results.json").write_text(results_to_json(payload))
    (out_dir / "trials.csv").write_text(trials_csv_text(env_reports))
    if args.trace:
        with open(out_dir / "trace.csv", "w") as fh:
            trace_csv_text(traces, cfg.battery, cfg.timing.mission_tick, fh)
    sys.stdout.write(render_report(payload))
    return EXIT_OK


def _cmd_calibrate_arm(args):
    cfg = _load(args)
    c = cfg.calibration
    z = c.z_const if args.z is None else args.z
    state = calibrate_single_reference(
        (args.u, args.v), ArmTarget(args.x, args.y, z), c.s, c.u0, c.v0
    )
    for name in ("s", "u0", "v0", "delta_x", "delta_y", "z_const"):
        print(f"{name} {getattr(state, name):.6f}")
    return EXIT_OK


def _cmd_tune(args):
    cfg = _load(args)
    gains, ku, tu = tuned_gains(cfg)
    print(f"Ku {ku:.6f}")
    print(f"Tu {tu:.6f}")
    print(f"rule {cfg.leveling.rule}")
    print(f"Kp {gains.kp:.6f}")
    print(f"Ki {gains.ki:.6f}")
    print(f"Kd {gains.kd:.6f}")
    if gains.integral_limit is not None:
        print(f"integral_limit {gains.integral_limit:.6f}")
    return EXIT_OK


def _cmd_replay(args):
    payload = load_results(args.results)
    sys.stdout.write(render_report(payload))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "calibrate-arm": _cmd_calibrate_arm,
        "tune": _cmd_tune,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except (ConfigParseError, MalformedResults) as exc:
        print(f"irribot: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, NoOscillation, ValueError) as exc:
        print(f"irribot: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"irribot: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
