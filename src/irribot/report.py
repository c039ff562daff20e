"""Rendering and serialization of trial results.

The summary table mirrors the field-results layout: one row per environment,
eight fixed metric columns, literal N/A for leveling columns on flat terrain.
results.json carries the full config echo plus every per-trial report, so a
stored file can be re-rendered byte-identically without re-simulating.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields

from irribot.fieldsim import ENV_NAMES
from irribot.mission import TrialReport, mean_or_none, segment_ticks

SCHEMA_VERSION = 1

# header, summary key and rendering precision per column, in column order
_COLUMNS = (
    ("Acc %", "accuracy_pct", 1),
    ("Time ms", "mean_inference_ms", 0),
    ("FP %", "fp_pct", 1),
    ("Error mm", "mean_positioning_error_mm", 1),
    ("Leveling s", "leveling_mean_s", 2),
    ("SSE °", "sse_mean_deg", 2),
    ("Volume mL", "mean_volume_ml", 1),
    ("Eff %", "efficiency_pct", 1),
)

TABLE_COLUMNS = tuple(header for header, _, _ in _COLUMNS)

# every summary value render_report formats
_RENDERED_SUMMARY_KEYS = (*(key for _, key, _ in _COLUMNS), "water_savings_pct")

_CSV_FIELDS = tuple(f.name for f in fields(TrialReport))


def summarize_env(reports):
    """Column means over one environment's trials, plus derived aggregates.

    A column a trial reports as None (nothing serviced, nothing leveled) is
    averaged over the trials that report it.
    """
    def present(key):
        return [v for r in reports if (v := getattr(r, key)) is not None]

    return {
        "trials": len(reports),
        **{key: mean_or_none(present(key))
           for key in (*_RENDERED_SUMMARY_KEYS, "frame_accuracy_pct")},
        "serviced_total": sum(r.serviced for r in reports),
        "pots_total": sum(r.pots for r in reports),
        "aborted_trials": sum(1 for r in reports if r.aborted),
    }


def build_results(cfg_dict, env_reports, endurance_min=None):
    """Assemble the results payload.

    cfg_dict: plain-dict echo of the run configuration.
    env_reports: {env_name: [TrialReport, ...]} in trial order.
    endurance_min: optional {env_name: minutes} from looping endurance runs.
    """
    environments = {}
    for name, reports in env_reports.items():
        environments[name] = {
            "summary": summarize_env(reports),
            "trials": [asdict(r) for r in reports],
        }
        if endurance_min and name in endurance_min:
            environments[name]["endurance_runtime_min"] = endurance_min[name]
    return {"schema_version": SCHEMA_VERSION, "config": cfg_dict,
            "environments": environments}


def results_to_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class MalformedResults(ValueError):
    """A file that is not a results payload of this schema."""


def load_results(path):
    """Read a results.json, checking the structure the renderers read."""
    def malformed(what):
        return MalformedResults(f"{path} is not a schema-{SCHEMA_VERSION} "
                                f"irribot results file: {what}")

    def require(cond, what):
        if not cond:
            raise malformed(what)

    with open(path) as fh:
        try:
            payload = json.load(fh)
        except UnicodeDecodeError as exc:
            raise MalformedResults(f"could not read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise malformed(f"not JSON: {exc}") from None
    require(isinstance(payload, dict), f"top level is a {type(payload).__name__}")
    version = payload.get("schema_version")
    require(version == SCHEMA_VERSION, f"schema_version is {version!r}")
    envs = payload.get("environments")
    require(isinstance(envs, dict), "no 'environments' mapping")
    for name, entry in envs.items():
        require(isinstance(entry, dict) and isinstance(entry.get("summary"), dict),
                f"environment {name!r} has no 'summary' mapping")
        checked = [(key, entry["summary"].get(key)) for key in _RENDERED_SUMMARY_KEYS]
        checked.append(("endurance_runtime_min", entry.get("endurance_runtime_min")))
        for key, value in checked:
            require(value is None or isinstance(value, (int, float)),
                    f"environment {name!r}: {key} is not a number")
    return payload


# --------------------------------------------------------------------------
# text rendering


def _cell(value, digits):
    if value is None:
        return "N/A"
    return f"{value:.{digits}f}"


def _env_order(payload):
    """The payload's environments, the standard ones first in ENV_NAMES order."""
    names = [n for n in ENV_NAMES if n in payload["environments"]]
    return names + [n for n in payload["environments"] if n not in ENV_NAMES]


def render_summary_table(payload):
    """Fixed-column table, one row per environment present in the payload."""
    rows = []
    for name in _env_order(payload):
        summary = payload["environments"][name]["summary"]
        rows.append([name] + [_cell(summary.get(key), d) for _, key, d in _COLUMNS])
    headers = ["Environment", *TABLE_COLUMNS]
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
              for c in range(len(headers))]
    def fmt(cells):
        first = cells[0].ljust(widths[0])
        rest = [cells[c].rjust(widths[c]) for c in range(1, len(cells))]
        return "  ".join([first, *rest]).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"


def render_report(payload):
    """Table plus the derived lines a field report would quote."""
    out = [render_summary_table(payload)]
    names = _env_order(payload)
    savings = []
    for name in names:
        s = payload["environments"][name]["summary"].get("water_savings_pct")
        if s is not None:
            savings.append(f"  {name}: {s:.1f}%")
    if savings:
        out.append("\nWater savings vs flood baseline:\n" + "\n".join(savings) + "\n")
    runtimes = []
    for name in names:
        m = payload["environments"][name].get("endurance_runtime_min")
        if m is not None:
            runtimes.append(f"  {name}: {m:.1f} min")
    if runtimes:
        out.append("\nBattery endurance (looping missions to cutoff):\n"
                   + "\n".join(runtimes) + "\n")
    return "".join(out)


# --------------------------------------------------------------------------
# CSV


def trials_csv_text(env_reports):
    """One row per trial across all environments, full float precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for name in env_reports:
        for r in env_reports[name]:
            writer.writerow(
                ["" if (v := getattr(r, f)) is None else v for f in _CSV_FIELDS]
            )
    return buf.getvalue()


def trace_csv_text(traces, battery, dt, fh):
    """Write {(env, trial): mission log entries} to the text file fh as trace.csv."""
    # env and phase names are fixed identifiers: no field ever needs CSV quoting
    fh.write("env,trial,t,phase,pot,tilt_deg,voltage\n")
    for (env, trial), log in traces.items():
        head = f"{env},{trial},"
        for entry in log:
            mid = f",{entry.phase},{entry.pot},{entry.tilt:.4f},"
            fh.write("".join([f"{head}{t:.2f}{mid}{volts:.4f}\n"
                              for t, volts in segment_ticks(entry, battery, dt)]))
