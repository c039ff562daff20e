"""One benchmark repetition, run in a fresh interpreter.

    python3 child.py SPAWN_T RECORD_JSON TRACE [CLI ARGS...]

SPAWN_T is the parent's CLOCK_MONOTONIC reading taken just before it started
this process; setup_s runs from there until `import irribot.cli` returns.
With no CLI args the child only imports, which is a set-up probe. Otherwise it
calls `irribot.cli.main(CLI ARGS)` once, timed, and writes its measurements to
RECORD_JSON. TRACE=1 first wraps each layer's entry points (see LAYERS) to
count calls and time spent; nothing inside the package is changed.

The child exits with the CLI's exit code. An exception from the CLI escapes
with its traceback, so the parent counts the repetition as failed.
"""

import importlib
import json
import resource
import sys
import time

# (layer metric prefix, module whose namespace the caller looks the name up
# in, attribute). mission.py and cli.py bind these with `from ... import`, so
# the wrapper must replace the caller's binding: patching the defining module
# would count nothing.
LAYERS = (
    ("mission.run_trial", "irribot.cli", "run_trial"),
    ("mission.run_until_depleted", "irribot.cli", "run_until_depleted"),
    ("mission.step_mission", "irribot.mission", "step_mission"),
    ("mission.plan_pot_service", "irribot.mission", "plan_pot_service"),
    ("leveling.run_leveling_episode", "irribot.mission", "run_leveling_episode"),
    ("leveling.drift_update", "irribot.mission", "drift_update"),
    ("fieldsim.realize_layout", "irribot.mission", "realize_layout"),
    ("fieldsim.battery_step", "irribot.mission", "battery_step"),
    ("fieldsim.simulate_detection", "irribot.mission", "simulate_detection"),
    ("fieldsim.dispense", "irribot.mission", "dispense"),
    ("detect.enhanced_detection", "irribot.mission", "enhanced_detection"),
    ("kinematics.pixel_to_arm", "irribot.mission", "pixel_to_arm"),
    ("kinematics.inverse_kinematics", "irribot.mission", "inverse_kinematics"),
    ("config.gains_for", "irribot.cli", "gains_for"),
    ("report.results_to_json", "irribot.cli", "results_to_json"),
    ("report.trials_csv_text", "irribot.cli", "trials_csv_text"),
    ("report.trace_csv_text", "irribot.cli", "trace_csv_text"),
    ("report.render_report", "irribot.cli", "render_report"),
)


def _timed(fn, stat, stack):
    """Wrap fn so each call adds to stat = [calls, ns, child ns, raised].

    stack holds one accumulator per open span; a span adds its duration to
    its parent's entry, which is how self time (ns - child ns) is found.
    Exceptions are counted and re-raised unchanged: the mission uses
    UnreachableTarget and SingularBase for control flow.
    """
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        stack.append(0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat[3] += 1
            raise
        finally:
            dur = clock() - t0
            stat[2] += stack.pop()
            stack[-1] += dur
            stat[0] += 1
            stat[1] += dur

    return wrapper


def _counting_boxes(fn, boxes):
    """Wrap enhanced_detection so boxes = [boxes in, boxes kept]."""

    def wrapper(raw, *args, **kwargs):
        kept = fn(raw, *args, **kwargs)
        boxes[0] += len(raw)
        boxes[1] += len(kept)
        return kept

    return wrapper


def install_tracer():
    """Wrap every layer in LAYERS; returns (stats, boxes).

    A caller module that no longer binds a layer's name raises
    AttributeError, which fails the repetition: a layer read as 0 calls
    would look like a saving.
    """
    stack = [0]
    stats, boxes = {}, [0, 0]
    for name, module_name, attr in LAYERS:
        stat = stats[name] = [0, 0, 0, 0]
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if name == "detect.enhanced_detection":
            fn = _counting_boxes(fn, boxes)
        setattr(module, attr, _timed(fn, stat, stack))
    return stats, boxes


def main(argv):
    import irribot.cli  # set-up ends when this returns

    record = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - float(argv[1])}
    record_path, trace, cli_args = argv[2], argv[3] == "1", argv[4:]
    rc = 0
    if cli_args:
        if trace:
            stats, boxes = install_tracer()
        t0 = time.perf_counter()
        rc = irribot.cli.main(cli_args)
        record["campaign_s"] = time.perf_counter() - t0
        record["exit_code"] = rc
        if trace:
            record["layers"] = stats
            record["boxes"] = boxes
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["numpy"] = sys.modules["numpy"].__version__
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
