"""Calibrate subsystem current draws against the endurance targets.

Bisects one knob per environment, in dependency order, until looping
endurance missions deplete the 2400 mAh pack at the target runtime:

  1. drive_ma       -> standard greenhouse runtime 30 min
  2. leveling_ma    -> hilly terrain runtime 20 min (slope hold duty)
  3. drive speed    -> complex lighting runtime 26 min (scatter traverse)

Draw changes never touch the random stream, so detection and positioning
statistics are invariant to whatever this prints. Run from the repo root:

    python3 scripts/calibrate_battery.py
"""

from dataclasses import replace

from irribot.config import ENV_NAMES, default_config, environment_for, gains_for
from irribot.mission import run_mission, run_until_depleted

SEED = 42
CFG = default_config()


def runtime_minutes(env_name, battery, speed, gains, seed=SEED):
    cfg = replace(CFG, battery=battery)
    env = environment_for(cfg, env_name)
    env = replace(env, tuning=replace(env.tuning, drive_speed=speed))
    return run_until_depleted(run_mission(env, cfg, gains, seed))


def bisect(lo, hi, target_min, evaluate, *, increasing, tol=0.02, iters=40):
    """Find the knob value where evaluate() hits target_min minutes."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        got = evaluate(mid)
        if abs(got - target_min) <= tol:
            return mid, got
        high_side = got > target_min
        if increasing == high_side:
            hi = mid
        else:
            lo = mid
    return mid, got


def main():
    gains = gains_for(CFG)
    battery = CFG.battery
    speeds = {name: getattr(CFG.environments, name).drive_speed for name in ENV_NAMES}

    drive, got = bisect(
        6000.0, 16000.0, 30.0,
        lambda v: runtime_minutes("standard_greenhouse",
                                  replace(battery, drive_ma=v),
                                  speeds["standard_greenhouse"], gains),
        increasing=False,
    )
    battery = replace(battery, drive_ma=round(drive))
    print(f"drive_ma      -> {battery.drive_ma:8.1f}   (standard runtime {got:.2f} min)")

    leveling, got = bisect(
        1500.0, 6000.0, 20.0,
        lambda v: runtime_minutes("hilly_terrain",
                                  replace(battery, leveling_ma=v),
                                  speeds["hilly_terrain"], gains),
        increasing=False,
    )
    battery = replace(battery, leveling_ma=round(leveling))
    print(f"leveling_ma   -> {battery.leveling_ma:8.1f}   (hilly runtime {got:.2f} min)")

    speed, got = bisect(
        150.0, 300.0, 26.0,
        lambda v: runtime_minutes("complex_lighting", battery, v, gains),
        increasing=True,
    )
    speeds["complex_lighting"] = round(speed)
    print(f"complex speed -> {speeds['complex_lighting']:8.1f}   (complex runtime {got:.2f} min)")

    print("\nverification at nearby seeds:")
    for name in ("standard_greenhouse", "hilly_terrain", "complex_lighting"):
        runs = [runtime_minutes(name, battery, speeds[name], gains, s)
                for s in (SEED, SEED + 1, SEED + 2)]
        print(f"  {name:22s} " + "  ".join(f"{m:6.2f}" for m in runs) + " min")

    print("\nfrozen battery model:")
    print(f"  {battery!r}")
    print(f"  complex drive speed: {speeds['complex_lighting']} mm/s")


if __name__ == "__main__":
    main()
