"""Command-line front end: simulate, fit, predict, anneal.

Exit codes: 0 success, 2 input/validation problems, 3 from ``fit`` when a
fit did not converge or converged on a bound of its box (the report is
still written).  Every subcommand is reproducible from its arguments plus
--seed; summaries embed a digest of the resolved configuration.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dataio import (
    MAX_SAMPLES,
    build_fit_report,
    load_events,
    load_measurements,
    load_schedule,
    read_report,
    save_measurements,
    write_report,
    TOOL_VERSION,
    _read_json,
    _write_json,
)
from .ensemble import (
    _ENV_CODE,
    FLAG_OK,
    OPEN_RESISTANCE_THRESHOLD_OHM,
    ChipDataset,
    ChipSpec,
    _check_event_junctions,
    _id_runs,
    _junction_events,
    aggregate_series,
    draw_chip,
    simulate_chip,
)
from .errors import JJAgingError, ValidationError
from .fitting import _SHORT_SPAN, FitOptions, fit_chip
from .model import (
    AMBIENT,
    ELECTRON_CHARGE_C,
    AgingParams,
    EnvironmentKind,
    TwoLogParams,
    critical_current_from_resistance,
    effective_tau,
    eval_single_log,
    qubit_frequency_shift,
)
from .presets import PRESET_NAMES, chip_preset
from .trajectory import (
    DAY_S,
    SimConfig,
    StorageSchedule,
    ThermalAnneal,
    VoltageAnneal,
    _run_from,
    _tau_scale,
)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _checked_section(section, name: str, known) -> dict:
    """Return a spec-file section after checking it is an object with known keys."""
    if not isinstance(section, dict):
        raise ValidationError(f"spec section {name!r} must be a JSON object")
    for key in section:
        if key not in known:
            raise ValidationError(f"unknown {name} key {key!r}")
    return section


def _sim_config_from_dict(d) -> SimConfig:
    kwargs = dict(_checked_section(d, "sim", {f.name for f in fields(SimConfig)}))
    try:
        if "env_tau_s" in kwargs:
            kwargs["env_tau_s"] = {
                EnvironmentKind(k): float(v) for k, v in dict(kwargs["env_tau_s"]).items()
            }
        if "thermal_response" in kwargs:
            table = {}
            for key, v in dict(kwargs["thermal_response"]).items():
                temp, env = key.split(",")
                table[(float(temp), EnvironmentKind(env.strip()))] = float(v)
            kwargs["thermal_response"] = table
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad sim value: {exc}") from exc


def _resolve_chip(args):
    """Preset or spec file -> (ChipSpec, SimConfig, default schedule, config dict)."""
    if args.preset:
        p = chip_preset(args.preset)
        cfg_desc = {"preset": p.name}
        return p.spec, p.sim, p.schedule, cfg_desc
    if not args.spec:
        raise ValidationError("either --preset or --spec is required")
    d = _read_json(args.spec, "spec")
    _checked_section(d, "spec", ("chip", "sim", "environment"))
    if "chip" not in d:
        raise ValidationError(f"{args.spec}: spec file needs a 'chip' section")
    try:
        spec = ChipSpec(**_checked_section(d["chip"], "chip",
                                           {f.name for f in fields(ChipSpec)}))
    except TypeError as exc:
        raise ValidationError(f"bad chip value: {exc}") from exc
    sim = _sim_config_from_dict(d.get("sim", {}))
    env_name = d.get("environment", "ambient")
    if env_name not in [k.value for k in EnvironmentKind]:
        raise ValidationError(f"unknown environment {env_name!r}")
    return spec, sim, StorageSchedule.single(EnvironmentKind(env_name)), {"spec_file": d}


def _day_seconds(flag: str, days: float, positive: bool = False) -> float:
    """``days`` in seconds, refused unless finite and >= 0 (> 0 with
    ``positive``), in days and in seconds."""
    if not (math.isfinite(days) and (days > 0 if positive else days >= 0)):
        raise ValidationError(f"{flag} must be finite and {'>' if positive else '>='} 0, "
                              f"got {days}")
    seconds = days * DAY_S
    if not math.isfinite(seconds):
        raise ValidationError(f"{flag} {days:g} days is not finite in seconds")
    return seconds


def cmd_simulate(args) -> int:
    target_s = _day_seconds("--target-days", args.target_days)
    step_s = _day_seconds("--sample-days", args.sample_days, positive=True)
    # np.arange makes ceil((target_s + 1e-9) / step_s) samples; one more may follow.
    if (target_s + 1e-9) / step_s > MAX_SAMPLES - 1:
        raise ValidationError(f"--target-days/--sample-days make more than {MAX_SAMPLES} samples")
    spec, cfg, schedule, cfg_desc = _resolve_chip(args)
    events = []
    if args.schedule:
        schedule, events = load_schedule(args.schedule)
    if args.events:
        # Extra events join the schedule's own; the sort is stable, so at
        # equal times the schedule's events come first.
        events = sorted([*events, *load_events(args.events)], key=lambda ev: ev.t_s)
    samples = list(np.arange(0.0, target_s + 1e-9, step_s))
    if samples[-1] < target_s:
        samples.append(target_s)

    chip = draw_chip(spec, args.seed)
    ds = simulate_chip(chip, schedule, events, samples, cfg, args.seed,
                       chip_id=args.chip_id)
    # Refuses a chip with no usable record, before any file is written.
    agg = aggregate_series(ds)
    save_measurements(ds, args.out)
    t_f, mean_f, cv_f, n_f = agg[-1]
    frac = []
    ok = ds.flag == FLAG_OK
    for j, lo, hi in ds.junction_rows():
        rows = np.flatnonzero(ok[lo:hi])
        if rows.size:
            # fractional aging against the drawn reference resistance
            frac.append(ds.r_ohm[lo + rows[-1]] / chip.junctions[j][0].r0_ohm)
    summary = {
        "config_digest": _digest({**cfg_desc, "seed": args.seed,
                                  "target_days": args.target_days,
                                  "sample_days": args.sample_days}),
        "final_t_days": t_f / DAY_S,
        "final_mean_r_ohm": mean_f,
        "final_cv": None if math.isnan(cv_f) else cv_f,
        "final_mean_fractional_aging": float(np.mean(frac)) if frac else None,
        "n_junctions": spec.n_junctions,
        "n_used_final": n_f,
        "seed": args.seed,
        "tool_version": TOOL_VERSION,
    }
    summary_path = Path(args.out).with_suffix(".summary.json")
    _write_json(summary, summary_path)
    print(
        f"simulated {spec.n_junctions} junctions to day {t_f / DAY_S:g}: "
        f"mean R = {mean_f:.1f} ohm, CV = {cv_f if not math.isnan(cv_f) else float('nan'):.4f}, "
        f"mean R/R0 = {summary['final_mean_fractional_aging']:.4f}"
    )
    print(f"wrote {args.out} and {summary_path}")
    return 0


def cmd_fit(args) -> int:
    digest = hashlib.sha256()
    ds = load_measurements(args.data, digest=digest)
    opts = FitOptions(model=args.model)
    with warnings.catch_warnings():
        # The short-span caveat is printed below as one line for all fits.
        warnings.filterwarnings("ignore", re.escape(_SHORT_SPAN), UserWarning)
        chip_fit = fit_chip(ds, opts, share_b=args.share_b, window_s=args.window_s)
    provenance = {
        "input_sha256": digest.hexdigest(),
        "tool_version": TOOL_VERSION,
        "seed": args.seed,
        "config_digest": _digest({"model": args.model, "share_b": args.share_b,
                                  "window_s": args.window_s}),
    }
    report = build_fit_report(ds, chip_fit, provenance)
    write_report(report, args.out)

    fits = [chip_fit.average, *chip_fit.per_junction.values()]
    n_bad = sum(not r.converged for r in fits)
    pinned = [r.at_bounds for r in fits if r.converged and r.at_bounds]
    p = chip_fit.average.params
    print(
        f"fitted {len(chip_fit.per_junction)} junctions "
        f"(skipped {len(chip_fit.skipped)}); average: "
        + (
            f"a={p.a:.4f} tau={p.tau_s:.4g} s b={p.b:.4f}"
            if isinstance(p, AgingParams)
            else f"a_int={p.a_int:.4f} tau_int={p.tau_int_s:.4g} s "
                 f"a_ext={p.a_ext:.4f} tau_ext={p.tau_ext_s:.4g} s"
        )
    )
    print(f"wrote {args.out}")
    n_short = sum(_SHORT_SPAN in r.messages for r in fits)
    if n_short:
        print(f"warning: {n_short} fit(s): {_SHORT_SPAN}", file=sys.stderr)
    if n_bad:
        print(f"warning: {n_bad} fit(s) did not converge", file=sys.stderr)
    if pinned:
        names = sorted({name for at in pinned for name in at})
        print(f"warning: {len(pinned)} fit(s) converged on a bound of their box "
              f"({', '.join(names)})", file=sys.stderr)
    return 3 if n_bad or pinned else 0


def _warn_if_pinned(average) -> None:
    """One stderr line when the average fit that ``predict`` extrapolates did
    not converge or ended on a bound of its box (a flat a = 0 fit of falling
    data, say).  The exit code stays 0."""
    faults = [] if average.converged else ["did not converge"]
    if average.at_bounds:
        faults.append(f"ended at a bound of {', '.join(average.at_bounds)}")
    if faults:
        print(f"warning: the report's average fit {' and '.join(faults)}; "
              "the prediction extrapolates it as it is", file=sys.stderr)


def cmd_predict(args) -> int:
    for flag, days in (("--target-days", args.target_days), ("--from-days", args.from_days)):
        if days is not None:
            _day_seconds(flag, days)
    if args.report:
        report = read_report(args.report)
        _warn_if_pinned(report.average)
        params = report.average.params
        if isinstance(params, TwoLogParams):
            # Two-channel fits predict through their equivalent single-log
            # curve; one with no amplitude is flat at any timescale.
            a = params.a_int + params.a_ext
            tau_s = effective_tau(params) if a > 0 else params.tau_int_s
            params = AgingParams(a=a, tau_s=tau_s, b=1.0)
        params = replace(params, r0_ohm=report.average_r0_ohm)
        from_days = args.from_days if args.from_days is not None else report.last_t_s / DAY_S
        # Data from an unknown environment predicts as ambient.
        home = EnvironmentKind("ambient" if report.last_env == "unknown" else report.last_env)
        cfg = SimConfig()
    elif args.preset:
        p = chip_preset(args.preset)
        params = p.aging
        from_days = args.from_days if args.from_days is not None else 0.0
        home = p.home_env
        cfg = p.sim
    else:
        raise ValidationError("predict needs --report or --preset")

    if args.target_days <= from_days:
        raise ValidationError(
            f"target day {args.target_days} is not after the last measurement "
            f"(day {from_days:g})"
        )

    if args.schedule:
        schedule, events = load_schedule(args.schedule)
        if events:
            # predict has no draw seed of its own (--seed is only recorded).
            raise ValidationError(
                f"{args.schedule}: predict does not apply anneal events; the first "
                f"is at day {events[0].t_s / DAY_S:g}"
            )
    else:
        schedule = StorageSchedule.single(home)

    t_from = from_days * DAY_S
    # The fitted timescale belongs to the environment the data came from;
    # anchor the per-junction scale there, not to the future schedule.
    tau_scale = _tau_scale(params, home, cfg)
    y_from = float(eval_single_log(params, t_from)) - 1.0
    r_pred = float(_run_from(t_from, y_from, schedule, (), 0, np.array([args.target_days * DAY_S]),
                             params, tau_scale, cfg)[0])

    r_from = params.r0_ohm * (1.0 + y_from)
    dr_over_r = r_pred / r_from - 1.0
    ic = critical_current_from_resistance(r_pred, args.delta_uev * 1e-6 * ELECTRON_CHARGE_C)
    shift = qubit_frequency_shift(dr_over_r)

    result = {
        "from_days": from_days,
        "target_days": args.target_days,
        "r_from_ohm": r_from,
        "r_predicted_ohm": r_pred,
        "dr_over_r": dr_over_r,
        "critical_current_a": ic,
        "freq_shift_fraction": shift,
        "delta_uev": args.delta_uev,
        "config_digest": _digest({"params": repr(params), "target": args.target_days,
                                  "from": from_days, "seed": args.seed}),
        "tool_version": TOOL_VERSION,
    }
    if args.out:
        _write_json(result, args.out)
    print(
        f"day {from_days:g} -> {args.target_days:g}: R {r_from:.1f} -> {r_pred:.1f} ohm "
        f"({dr_over_r * 100:+.2f}%), I_c = {ic * 1e9:.2f} nA, df/f = {shift * 100:+.3f}%"
    )
    return 0


def cmd_anneal(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    ds = load_measurements(args.data)
    events = load_events(args.events)
    _check_event_junctions(events, set(ds.junction_ids()))
    p = chip_preset(args.preset) if args.preset else None
    cfg = p.sim if p else SimConfig()
    if args.no_floor:
        cfg = replace(cfg, floor_at_r0=False)
    if any(isinstance(ev.kind, VoltageAnneal) for ev in events) and args.seed is None:
        raise ValidationError("--seed is required when the event list contains "
                              "voltage anneals")
    seed = args.seed if args.seed is not None else 0

    tau_amb = cfg.env_tau_s[EnvironmentKind.AMBIENT]
    ok = ds.flag == FLAG_OK
    usable, first, last = [], [], []   # junctions with usable rows; their first and last
    t_rows = 0.0   # latest row of any usable junction, whatever its flag
    for j, lo, hi in ds.junction_rows():
        rows = lo + np.flatnonzero(ok[lo:hi])
        if not rows.size:
            continue
        if ds.t_s[rows[0]] > 0:
            # The floor is the initial-time resistance, which a later row
            # overstates.
            raise ValidationError(
                f"junction {j}'s first usable row is at day {ds.t_s[rows[0]] / DAY_S:g}, "
                f"not at t = 0, so its initial-time resistance is unknown"
            )
        usable.append(j)
        first.append(rows[0])
        last.append(rows[-1])
        t_rows = max(t_rows, float(ds.t_s[hi - 1]))
    if not usable:
        raise ValidationError("dataset has no usable junctions")
    # An event that touches no usable junction would credit the wait's aging
    # to an anneal.
    for ev in events:
        if ev.junction_ids is not None and set(usable).isdisjoint(ev.junction_ids):
            raise ValidationError(f"event at day {ev.t_s / DAY_S:g} names no junction with "
                                  f"usable rows: {_id_runs(ev.junction_ids)}")
    r0, t_last, r_last = ds.r_ohm[first], ds.t_s[last], ds.r_ohm[last]

    # Each step records every junction once, at ev.t_s plus the oven hold.
    # A step may not start before the previous measurement, and its record
    # must come strictly after every row the junction already has.
    t_prev = float(t_last.max())
    t_meas_of = []
    for ev in events:
        hold_s = ev.kind.hold_min * 60.0 if isinstance(ev.kind, ThermalAnneal) else 0.0
        t_meas = ev.t_s + hold_s
        if ev.t_s < t_prev:
            raise ValidationError(
                f"event at day {ev.t_s / DAY_S:g} precedes the last measurement "
                f"(day {t_prev / DAY_S:g})"
            )
        if not math.isfinite(t_meas):
            raise ValidationError(
                f"event at day {ev.t_s / DAY_S:g} would record at a time that is not finite "
                f"(a {ev.kind.hold_min:g} min hold)"
            )
        if not t_meas > t_rows:
            raise ValidationError(
                f"event at day {ev.t_s / DAY_S:g} would record at day {t_meas / DAY_S:g}, "
                f"not after the record at day {t_rows / DAY_S:g}"
            )
        t_prev = t_rows = t_meas
        t_meas_of.append(t_meas)

    # Row i of ``r_hist`` is junction usable[i]'s last measured resistance
    # followed by its record of each step.  Step k's record comes after
    # event k and before event k + 1, even at its time, so event k cuts at sample k.
    t_meas = np.array(t_meas_of, dtype=float)
    ambient = StorageSchedule.single(AMBIENT)
    r_hist = np.empty((len(usable), len(events) + 1))
    r_hist[:, 0] = r_last
    for i, (j, r0_j, t_j, r_j) in enumerate(zip(usable, r0.tolist(), t_last.tolist(),
                                                 r_last.tolist())):
        y0 = r_j / r0_j - 1.0
        # Each junction continues its own aging trend during session waits:
        # amplitude inferred from its current state, state placed on that
        # curve so waits add pure (strictly positive) aging increments.  A
        # junction with y0 > 0 has a last row at t_j > 0 (its first is at 0).
        a_eff = 0.0
        if y0 > 0:
            span = math.log(t_j / tau_amb + 1.0)
            if not span:
                raise ValidationError(
                    f"junction {j}'s last usable row, at t = {t_j!r} s, is too close to "
                    f"t = 0 to infer its aging trend"
                )
            a_eff = y0 / span
        # Seeded as simulate seeds it, from the junction's anneal seed.
        steps_j, anneal_seed = _junction_events(events, seed, j)
        r_hist[i, 1:] = _run_from(
            t_j, y0, ambient, [events[k] for k in steps_j], anneal_seed, t_meas,
            AgingParams(a=a_eff, tau_s=tau_amb, r0_ohm=r0_j), 1.0, cfg, cuts=steps_j,
        )
    # A record that load_measurements would read back as open (an aging
    # trend inferred from a row near t = 0 can reach 1e13 ohm) is refused.
    too_high = ~(r_hist[:, 1:] <= OPEN_RESISTANCE_THRESHOLD_OHM)
    if too_high.any():
        i, k = np.argwhere(too_high)[0].tolist()
        raise ValidationError(
            f"step {k + 1} would record junction {usable[i]} at {r_hist[i, k + 1]:.4g} ohm, "
            f"which reads back as open (above {OPEN_RESISTANCE_THRESHOLD_OHM:g} ohm)"
        )
    min_r_over_r0 = float((r_hist / r0[:, None]).min())
    changes = r_hist[:, 1:] / r_hist[:, :-1] - 1.0
    steps = []
    for k, ev in enumerate(events):
        kind_name = "thermal" if isinstance(ev.kind, ThermalAnneal) else "voltage"
        # The step's change is the mean over the junctions its event touches:
        # the others only aged through the wait.
        touched = slice(None) if ev.junction_ids is None else np.isin(usable, ev.junction_ids)
        mean_change = np.mean(changes[touched, k])
        steps.append({
            "step": k + 1,
            "t_days": ev.t_s / DAY_S,
            "kind": kind_name,
            "mean_fractional_change": float(mean_change),
        })
        print(f"step {k + 1} ({kind_name} @ day {ev.t_s / DAY_S:g}): "
              f"mean change {mean_change * 100:+.3f}%")

    n_new = r_hist[:, 1:].size
    out_ds = ChipDataset(
        junction_id=np.concatenate([ds.junction_id,
                                    np.repeat(np.array(usable, np.int64), len(events))]),
        t_s=np.concatenate([ds.t_s, np.tile(t_meas, len(usable))]),
        r_ohm=np.concatenate([ds.r_ohm, r_hist[:, 1:].ravel()]),
        env=np.concatenate([ds.env, np.full(n_new, _ENV_CODE["ambient"], np.int8)]),
        flag=np.concatenate([ds.flag, np.full(n_new, FLAG_OK, np.int8)]),
        chip_id=ds.chip_id,
    )
    save_measurements(out_ds, args.out)
    steps_path = Path(args.out).with_suffix(".steps.json")
    _write_json({
        "steps": steps,
        "min_r_over_r0": min_r_over_r0,
        "floor_at_r0": cfg.floor_at_r0,
        "seed": seed,
        "tool_version": TOOL_VERSION,
    }, steps_path)
    print(f"min R/R0 across the sequence: {min_r_over_r0:.4f}")
    print(f"wrote {args.out} and {steps_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjaging",
        description="Josephson junction aging simulation, fitting, and prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a chip through a storage schedule")
    sim.add_argument("--preset", choices=PRESET_NAMES)
    sim.add_argument("--spec", help="chip spec JSON file")
    sim.add_argument("--schedule", help="schedule file (segments + events)")
    sim.add_argument("--events", help="extra events file")
    sim.add_argument("--target-days", type=float, default=56.0)
    sim.add_argument("--sample-days", type=float, default=2.0)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--chip-id", default="chip")
    sim.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="fit measurement CSV to the aging models")
    fit.add_argument("data", help="measurement CSV")
    fit.add_argument("--model", choices=("single-log", "two-log"), default="single-log")
    fit.add_argument("--share-b", action="store_true",
                     help="fix every junction's b at the average-curve value "
                          "(single-log only)")
    fit.add_argument("--window-s", type=float, default=600.0)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True)

    pred = sub.add_parser("predict", help="predict R, I_c, and df/f at a future time")
    pred.add_argument("--report", help="fit report JSON")
    pred.add_argument("--preset", choices=PRESET_NAMES)
    pred.add_argument("--schedule", help="future storage schedule file")
    pred.add_argument("--from-days", type=float, default=None)
    pred.add_argument("--target-days", type=float, required=True)
    pred.add_argument("--delta-uev", type=float, default=180.0,
                      help="superconducting gap in micro-eV")
    pred.add_argument("--seed", type=int, default=0)
    pred.add_argument("--out")

    ann = sub.add_parser("anneal", help="apply an anneal event sequence to a dataset")
    ann.add_argument("data", help="measurement CSV")
    ann.add_argument("--events", required=True, help="event list file")
    ann.add_argument("--preset", choices=PRESET_NAMES)
    ann.add_argument("--no-floor", action="store_true",
                     help="disable the initial-resistance floor")
    ann.add_argument("--seed", type=int, default=None)
    ann.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Looked up at call time, so a rebound module attribute is the one called.
    command = {"simulate": cmd_simulate, "fit": cmd_fit, "predict": cmd_predict,
               "anneal": cmd_anneal}[args.command]
    try:
        return command(args)
    except (JJAgingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
