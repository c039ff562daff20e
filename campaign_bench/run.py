"""Campaign benchmark for irribot; see README.md in this directory.

    python3 campaign_bench/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace 0|1]

Runs one workload's campaign (or all three, the default) through
`irribot.cli.main(["run", ...])`, one fresh child interpreter per repetition
and one repetition at a time, until --seconds have passed. --seconds defaults
to `run_seconds` of BENCHMARK.json, the run length its bounds were measured
at. Every repetition's outputs are checked. It prints each
metric with its unit, writes a full record to
campaign_bench/out/result-<workload>-seed<N>-trace<T>.json and prints, as
the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json and
--trace 1 its per-layer metrics, from repetitions that alternate untraced and
traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK = BENCH_DIR / "out"

# argv after `run` and the YAML config the program is given, per workload;
# the benchmark adds --seed, --out-dir and --config. Why each exists is in
# README.md and BENCHMARK.json.
WORKLOADS = {
    "canonical": (("--env", "all", "--trials", "10"), None),
    "slope_leveling": (("--env", "hilly_terrain", "--trials", "20"), None),
    # random_layout raises LayoutError above ~985 pots; 800 places cleanly
    "dense_field": (("--env", "complex_lighting", "--trials", "3", "--trace"),
                    "pot_count: 800\n"),
}

# A repetition must end by this many seconds after the workload's run starts,
# so a hung child cannot keep the run past its 180 s limit.
DEADLINE_S = 170.0
# A repetition takes at most ~6 s, so a run of up to this many seconds ends
# well before DEADLINE_S.
MAX_SECONDS = 60


class BenchError(Exception):
    """The benchmark cannot run here at all (no source tree, no import)."""


def _now():
    # system-wide on Linux, so the child can subtract the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spawn(cli_args, trace, out_dir, timeout):
    """Run child.py once; returns (record, None) or (None, error message)."""
    record_path = out_dir / "record.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        cmd = [sys.executable, str(CHILD), repr(_now()), str(record_path), str(int(trace)),
               *cli_args]
        try:
            rc = subprocess.run(cmd, stdout=out, stderr=err, cwd=out_dir, env=env,
                                timeout=max(timeout, 1.0)).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None, f"no exit within {timeout:.0f} s"
    if rc != 0:
        stderr = (out_dir / "stderr.txt").read_text(errors="replace").strip()
        return None, f"exit {rc}: {stderr.splitlines()[-1] if stderr else 'no message'}"
    return json.loads(record_path.read_text()), None


def _probe_setup(timeout):
    """One import-only child; returns its set-up seconds and numpy version."""
    out_dir = WORK / "probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    record, error = _spawn([], False, out_dir, timeout)
    if error is not None:
        raise BenchError(f"`import irribot.cli` failed: {error}")
    return record["setup_s"], record["numpy"]


def _simulated_seconds(results):
    """Sum of trial elapsed_s plus endurance runtime, from results.json."""
    total = 0.0
    for env in results["environments"].values():
        total += sum(t["elapsed_s"] for t in env["trials"])
        total += 60.0 * env["endurance_runtime_min"]
    return total


def _run_rep(name, seed, trace, timeout):
    """One repetition. Returns its measurements, or {"error": ...}."""
    argv, config = WORKLOADS[name]
    base = WORK / name
    out_dir = base / "rep"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cli = ["run", *argv, "--seed", str(seed), "--out-dir", str(out_dir)]
    if config is not None:
        (base / "config.yaml").write_text(config)
        cli += ["--config", str(base / "config.yaml")]
    record, error = _spawn(cli, trace, out_dir, timeout)
    if error is not None:
        return {"error": error}
    files = ["stdout.txt", "results.json", "trials.csv"]
    if "--trace" in argv:
        files.append("trace.csv")
    missing = [f for f in files if not (out_dir / f).is_file()]
    if missing:
        return {"error": f"missing outputs: {', '.join(missing)}"}
    results = json.loads((out_dir / "results.json").read_text())
    record["sim_speed"] = _simulated_seconds(results) / record["campaign_s"]
    record["digests"] = {f: _sha256(out_dir / f) for f in files}
    return record


def _check_rep(rep, pinned, first, first_traced):
    """Output check; returns an error message or None.

    Pinned digests (seed-42 stdout and trace.csv) must match, every output
    must be byte-identical to the run's first repetition, and traced
    repetitions must agree on every call count.
    """
    for fname, digest in rep["digests"].items():
        if fname in pinned and digest != pinned[fname]:
            return f"{fname} differs from the pinned seed-42 digest"
        if first is not None and digest != first["digests"][fname]:
            return f"{fname} differs from the first repetition of this run"
    if first_traced is not None and "layers" in rep:
        if _calls(rep) != _calls(first_traced):
            return "work counts differ from the first traced repetition"
    return None


def _calls(rep):
    return {layer: stat[0] for layer, stat in rep["layers"].items()}


def _summary(values):
    """Median with quartiles (statistics.quantiles, n=4) and sample count."""
    values = sorted(values)
    if values[0] == values[-1]:  # keeps exact counts as integers
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _layer_values(traced):
    """Per-layer metric samples, one list per metric name."""
    samples = {}
    for rep in traced:
        for layer, (calls, ns, child_ns, raised) in rep["layers"].items():
            for stat, value in (
                ("calls", calls),
                ("s", ns / 1e9),
                ("self_s", (ns - child_ns) / 1e9),
                ("us_per_call", ns / calls / 1e3 if calls else 0.0),
                ("failed", raised),
            ):
                samples.setdefault(f"{layer}.{stat}", []).append(value)
        boxes_in, boxes_kept = rep["boxes"]
        samples.setdefault("detect.enhanced_detection.kept_ratio", []).append(
            boxes_kept / boxes_in if boxes_in else 0.0)
    return samples


def run_workload(name, seed, seconds, trace, spec, golden_all):
    """All repetitions of one workload; returns (result record, metrics)."""
    golden = golden_all["workloads"][name] if seed == golden_all["seed"] else {}
    pinned = {k: v for k, v in golden.items() if k != "counters"}
    start = time.monotonic()
    _, numpy_version = _probe_setup(DEADLINE_S)  # warm: the first import writes __pycache__
    setups, untraced, traced, failures = [], [], [], []
    first = None
    while True:
        for traced_rep in ((False, True) if trace else (False,)):
            rep = _run_rep(name, seed, traced_rep, DEADLINE_S - (time.monotonic() - start))
            error = rep.get("error") or _check_rep(rep, pinned, first,
                                                   traced[0] if traced else None)
            if error is not None:
                failures.append({"traced": traced_rep, "error": error})
                continue
            first = first or rep
            setups.append(rep["setup_s"])
            (traced if traced_rep else untraced).append(rep)
        if time.monotonic() - start >= seconds:
            break

    samples = {"setup_s": setups}
    for key in ("campaign_s", "sim_speed", "peak_rss_mb"):
        samples[key] = [rep[key] for rep in untraced]
    if traced:
        samples.update(_layer_values(traced))
        samples["traced_campaign_s"] = [rep["campaign_s"] for rep in traced]
    stats = {k: _summary(v) for k, v in samples.items() if v}
    if untraced and traced:
        ratio = stats["traced_campaign_s"]["median"] / stats["campaign_s"]["median"]
        stats["trace_overhead_pct"] = {"median": 100.0 * (ratio - 1.0), "n": 1}

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted if m["name"] in stats}
    counters = _calls(traced[0]) if traced else {}
    expected = golden.get("counters", {})
    attempted = len(untraced) + len(traced) + len(failures)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "argv": ["run", *WORKLOADS[name][0]],
        "config_yaml": WORKLOADS[name][1],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
        },
        "seconds": seconds,
        "repetitions": {"untraced": len(untraced), "traced": len(traced),
                        "setup_samples": len(setups)},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "correct": not failures and len(metrics) == len(wanted),
        "digests": first["digests"] if first else {},
        "pinned_digests": pinned,
        "work_counts": counters,
        "work_counts_match_seed42": (
            {k: counters.get(k) == v for k, v in expected.items()} if traced and expected
            else None),
        "stats": stats,
    }
    return result, metrics


def _print_result(result, spec):
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  trace {result['trace']}  "
          f"untraced reps {result['repetitions']['untraced']}  "
          f"traced reps {result['repetitions']['traced']}  "
          f"failed {result['failed']}/{result['attempted']}")
    stats = result["stats"]
    shown = spec["end_to_end"]
    if result["trace"]:
        shown = shown + [{"name": "traced_campaign_s", "unit": "s"},
                         {"name": "trace_overhead_pct", "unit": "%"},
                         {"name": "detect.enhanced_detection.kept_ratio", "unit": "ratio"}]
    for metric in shown:
        st = stats.get(metric["name"])
        if st is None:
            continue
        quart = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}" if "q1" in st else ""
        print(f"  {metric['name']:<38} {st['median']:>12.6g} {metric['unit']:<8}"
              f"{quart}  n={st['n']}")
    if result["work_counts"]:
        print(f"  {'layer (traced medians)':<32} {'calls':>9} {'s':>9} {'self_s':>9}"
              f" {'us/call':>10} {'failed':>6}")
    for layer in result["work_counts"]:
        calls, total, own, per_call, failed = (
            stats[f"{layer}.{stat}"]["median"]
            for stat in ("calls", "s", "self_s", "us_per_call", "failed"))
        print(f"  {layer:<32} {calls:>9.0f} {total:>9.4f} {own:>9.4f} {per_call:>10.2f}"
              f" {failed:>6.0f}")
    for fname, digest in result["digests"].items():
        tag = " (pinned)" if fname in result["pinned_digests"] else ""
        print(f"  sha256 {fname:<12} {digest}{tag}")
    match = result["work_counts_match_seed42"]
    if match is not None:
        verdict = "match" if all(match.values()) else "DIFFER from"
        print(f"  work counts {verdict} the seed-42 reference: "
              + ", ".join(f"{k}={result['work_counts'].get(k)}" for k in match))
    for failure in result["failures"]:
        print(f"  FAILED repetition (traced={failure['traced']}): {failure['error']}")


def _seconds(text):
    seconds = int(text)
    if not 1 <= seconds <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be 1 to {MAX_SECONDS}")
    return seconds


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "irribot" / "cli.py").is_file() or not spec_path.is_file():
        print(f"campaign_bench: no irribot source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=_seconds, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(parents=True, exist_ok=True)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                           spec, golden)
        except BenchError as exc:
            print(f"campaign_bench: {exc}", file=sys.stderr)
            return 1
        path = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        _print_result(result, spec)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["attempted"] > summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
