import copy
import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jjaging import (
    AgingParams,
    ChipDataset,
    aggregate_series,
    chip_preset,
    draw_chip,
    eval_single_log,
    load_events,
    load_measurements,
    load_schedule,
    save_measurements,
    simulate_chip,
)
from jjaging import cli
from jjaging.cli import build_parser, main
from jjaging.dataio import MAX_SAMPLES, read_report
from jjaging.ensemble import ENV_LABELS
from reference_report import v1_report

DAY = 86400.0


def run(*argv):
    return main(list(argv))


def write_flat_spec(tmp_path, n_junctions=16, env="ambient"):
    spec = {
        "chip": {
            "r0_mean_ohm": 22_800.0, "r0_cv": 0.0, "a_mean": 0.21, "a_sd": 0.0,
            "log_tau_mean": math.log(1.2e4), "log_tau_sd": 0.0,
            "b_mean": 1.01, "b_sd": 0.0, "n_junctions": n_junctions,
            "noise_sigma": 0.0,
        },
        "sim": {},
        "environment": env,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestSimulate:
    def test_flat_chip_matches_closed_form(self, tmp_path, capsys):
        spec = write_flat_spec(tmp_path)
        out = tmp_path / "data.csv"
        code = run("simulate", "--spec", str(spec), "--target-days", "56",
                   "--seed", "1", "--out", str(out))
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        expected = float(eval_single_log(AgingParams(a=0.21, tau_s=1.2e4, b=1.01), 56 * DAY))
        assert summary["final_mean_fractional_aging"] == pytest.approx(expected, rel=1e-6)
        assert "config_digest" in summary

    def test_zero_junction_spec_exits_2(self, tmp_path, capsys):
        spec = write_flat_spec(tmp_path, n_junctions=0)
        code = run("simulate", "--spec", str(spec), "--seed", "1",
                   "--out", str(tmp_path / "d.csv"))
        assert code == 2

    def test_all_open_chip_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Every junction is open, so there is no record to summarize; the
        # command refuses before it writes the CSV or the summary.
        path = write_flat_spec(tmp_path, n_junctions=2)
        sp = json.loads(path.read_text())
        sp["chip"]["open_prob"] = 0.99
        path.write_text(json.dumps(sp))
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(path), "--seed", "1", "--out", str(out)) == 2
        assert "error: dataset has no usable records" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    @pytest.mark.parametrize("n", [True, 2.5])
    def test_non_integer_junction_count_exits_2(self, tmp_path, capsys, n):
        spec = write_flat_spec(tmp_path, n_junctions=n)
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(spec), "--seed", "1", "--out", str(out)) == 2
        assert f"n_junctions must be an integer >= 1, got {n!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [2**16 + 1, 10**9])
    def test_oversized_junction_count_exits_2(self, tmp_path, capsys, n):
        # Refused by ChipSpec before any junction is drawn.
        spec = write_flat_spec(tmp_path, n_junctions=n)
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(spec), "--seed", "1", "--out", str(out)) == 2
        assert f"n_junctions must be <= {2**16}, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, named", [
        ("sim", "integration_dt_s", 600.0, "unknown sim key 'integration_dt_s'"),
        ("chip", "r0_mean", 22_800.0, "unknown chip key 'r0_mean'"),
        (None, "environment", "mars", "unknown environment 'mars'"),
        (None, "enviroment", "glovebox", "unknown spec key 'enviroment'"),
        (None, "sim", [0.21], "spec section 'sim' must be a JSON object"),
        ("sim", "voltage_jump_mean", "0.16", "bad sim value"),
        # JSON has no NaN or infinity: the reader refuses Python's tokens for them.
        ("sim", "relax_gas_to_gas_s", math.nan, "invalid spec JSON (NaN is not a JSON number)"),
        ("sim", "env_tau_s", {"mars": 1e4}, "bad sim value"),
        ("chip", "r0_mean_ohm", "big", "bad chip value"),
        ("chip", "a_mean", math.inf, "invalid spec JSON (Infinity is not a JSON number)"),
        # ChipSpec takes these; the drawn tau used to escape as an OverflowError.
        ("chip", "log_tau_mean", 800.0, "error: drawn tau_s = exp(800) s overflows a float"),
        ("chip", "log_tau_sd", 1000.0, "error: drawn tau_s = exp(914.749) s overflows a float"),
        # The amplitude is drawn per junction from the chip section; the sim
        # section has none.
        ("sim", "fab_a", 0.21, "unknown sim key 'fab_a'"),
        # A string is truthy, so "false" used to keep the R0 floor on.
        ("sim", "floor_at_r0", "false", "bad sim value: floor_at_r0 must be a bool, got 'false'"),
        # float() reads "inf", and no oven event can match that temperature.
        ("sim", "thermal_response", {"inf,ambient": 0.1},
         "bad sim value: thermal response temperature inf C in 'ambient' is not a finite number"),
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, section, key, value, named):
        path = write_flat_spec(tmp_path)
        sp = json.loads(path.read_text())
        (sp if section is None else sp[section])[key] = value
        path.write_text(json.dumps(sp))
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(path), "--seed", "1", "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("chip", "r0_mean_ohm"),
                                              ("sim", "voltage_jump_mean"),
                                              ("chip", "n_junctions")])
    def test_spec_number_too_large_for_a_float_exits_2(self, tmp_path, capsys, section, key):
        # A float field used to escape as an OverflowError traceback.
        path = write_flat_spec(tmp_path)
        sp = json.loads(path.read_text())
        sp[section][key] = 10**400
        path.write_text(json.dumps(sp))
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(path), "--seed", "1", "--out", str(out)) == 2
        assert f"error: {path}: invalid spec JSON (1000" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_spec_exits_2_naming_the_file(self, tmp_path, capsys):
        path = write_flat_spec(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        out = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(path), "--seed", "1", "--out", str(out)) == 2
        assert f"error: {path}: invalid spec JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_schedule_argument_exits_2(self, tmp_path, capsys):
        # amplitude for amplitude_v used to run the default 0.9 V pulses.
        sched = tmp_path / "sched.txt"
        sched.write_text("0,ambient\nevent,1,voltage,amplitude=2.0\n")
        out = tmp_path / "d.csv"
        assert run("simulate", "--preset", "chip1", "--schedule", str(sched),
                   "--target-days", "4", "--seed", "1", "--out", str(out)) == 2
        assert "line 2: unknown voltage argument 'amplitude'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--target-days", "nan"), ("--target-days", "inf"), ("--target-days", "-5"),
        ("--sample-days", "nan"), ("--sample-days", "0"), ("--sample-days", "-1"),
        # Finite in days, infinite in seconds.
        ("--target-days", "1e308"), ("--sample-days", "1e307"),
    ])
    def test_bad_step_arguments_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d.csv"
        code = run("simulate", "--preset", "chip1", flag, value, "--seed", "1",
                   "--out", str(out))
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run("simulate", "--preset", "chip1", "--target-days", "4", "--seed", "-1",
                   "--out", str(out))
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_exabyte_sample_count_exits_2(self, tmp_path, capsys):
        # 1e18 samples: numpy used to raise MemoryError asking for 6.94 EiB.
        out = tmp_path / "d.csv"
        code = run("simulate", "--preset", "chip1", "--target-days", "1e15",
                   "--sample-days", "1e-3", "--seed", "1", "--out", str(out))
        assert code == 2
        assert f"more than {MAX_SAMPLES} samples" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_cap_is_checked_before_allocating(self, tmp_path, capsys, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("allocated samples")

        monkeypatch.setattr(cli.np, "arange", allocate)
        out = tmp_path / "d.csv"
        argv = ["simulate", "--preset", "chip1", "--sample-days", "1", "--seed", "1",
                "--out", str(out)]
        # Days 0 to MAX_SAMPLES are one sample over the cap ...
        assert run(*argv, "--target-days", str(MAX_SAMPLES)) == 2
        assert f"more than {MAX_SAMPLES} samples" in capsys.readouterr().err
        # ... and days 0 to MAX_SAMPLES - 1 are exactly the cap, which passes.
        with pytest.raises(AssertionError, match="allocated samples"):
            run(*argv, "--target-days", str(MAX_SAMPLES - 1))
        assert not out.exists()

    def test_zero_target_days_gives_one_sample(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("simulate", "--preset", "chip1", "--target-days", "0", "--seed", "1",
                   "--out", str(out)) == 0
        assert set(load_measurements(out).t_s) == {0.0}

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        o1, o2, o3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        for o in (o1, o2):
            assert run("simulate", "--preset", "chip1", "--target-days", "20",
                       "--seed", "7", "--out", str(o)) == 0
        assert run("simulate", "--preset", "chip1", "--target-days", "20",
                   "--seed", "8", "--out", str(o3)) == 0
        assert o1.read_bytes() == o2.read_bytes()
        assert o1.read_bytes() != o3.read_bytes()
        s1 = o1.with_suffix(".summary.json").read_bytes()
        s2 = o2.with_suffix(".summary.json").read_bytes()
        assert s1 == s2

    def test_chip1_preset_final_aging_near_oracle(self, tmp_path, capsys):
        # With device spread the 16-junction mean lands near the closed form.
        out = tmp_path / "c1.csv"
        assert run("simulate", "--preset", "chip1", "--target-days", "56",
                   "--seed", "2", "--out", str(out)) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["final_mean_fractional_aging"] == pytest.approx(2.26, abs=0.1)

    def test_preset_with_schedule_file(self, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("0,ambient\n4,glovebox\n")
        out = tmp_path / "d.csv"
        code = run("simulate", "--preset", "chip3", "--schedule", str(sched),
                   "--target-days", "10", "--seed", "3", "--out", str(out))
        assert code == 0
        ds = load_measurements(out)
        labels = {ENV_LABELS[e] for e in ds.env.tolist()}
        assert labels == {"ambient", "glovebox"}

    def test_event_on_absent_junctions_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # chip1 has junctions 0-15; the event used to change nothing, silently.
        sched = tmp_path / "sched.txt"
        sched.write_text("0,ambient\nevent,10,voltage,junctions=3+16-31+40\n")
        out = tmp_path / "d.csv"
        assert run("simulate", "--preset", "chip1", "--schedule", str(sched),
                   "--target-days", "14", "--seed", "1", "--out", str(out)) == 2
        assert ("event at day 10 names junctions the chip does not have: 16-31+40"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    def test_events_file_adds_to_schedule_events(self, tmp_path, capsys):
        sched = tmp_path / "sched.txt"
        sched.write_text("0,ambient\nevent,10,voltage,junctions=0-3\n")
        extra = tmp_path / "extra.txt"
        extra.write_text("event,6,thermal,temp_c=200,env=ambient,hold_min=10\n"
                         "event,10,voltage,junctions=8\n")
        out, want = tmp_path / "d.csv", tmp_path / "want.csv"
        assert run("simulate", "--preset", "chip1", "--schedule", str(sched),
                   "--events", str(extra), "--target-days", "14", "--sample-days", "1",
                   "--seed", "5", "--out", str(out)) == 0
        # The same chip through the merged, time-sorted list, schedule first.
        p = chip_preset("chip1")
        (schedule, own), more = load_schedule(sched), load_events(extra)
        events = [more[0], own[0], more[1]]
        ds = simulate_chip(draw_chip(p.spec, 5), schedule, events,
                           list(np.arange(0.0, 14 * DAY + 1e-9, DAY)), p.sim, 5)
        save_measurements(ds, want)
        assert out.read_bytes() == want.read_bytes()
        # The schedule's day-10 voltage anneal survives: junctions 0-3 jump.
        got = load_measurements(out)
        r = got.r_ohm.reshape(16, 15)
        jump = r[:, 10] / r[:, 9]
        assert (jump[:4] > 1.1).all() and jump[8] > 1.1
        assert (jump[4:8] < 1.05).all() and (jump[9:] < 1.05).all()


class TestFit:
    def _simulate(self, tmp_path, preset="chip2", days="56"):
        out = tmp_path / "data.csv"
        assert run("simulate", "--preset", preset, "--target-days", days,
                   "--seed", "11", "--out", str(out)) == 0
        return out

    def test_fit_chip2_recovers_amplitude(self, tmp_path, capsys):
        data = self._simulate(tmp_path)
        report_path = tmp_path / "report.json"
        code = run("fit", str(data), "--model", "single-log", "--out", str(report_path))
        assert code in (0, 3)
        report = json.loads(report_path.read_text())
        a = report["average"]["params"]["a"]
        assert abs(a - 0.15) <= 0.02
        assert report["provenance"]["tool_version"]
        assert report["schema_version"] == 2 and "histograms" not in report
        fits = [report["average"], *report["per_junction"].values()]
        assert {f["stop_reason"] for f in fits} <= {"step_tol", "rss_tol", "no_descent",
                                                   "max_iter"}
        assert all((f["stop_reason"] == "max_iter") != f["converged"] for f in fits)

    @pytest.mark.parametrize("window", ["nan", "inf", "-5"])
    def test_bad_window_exits_2(self, tmp_path, capsys, window):
        data = self._simulate(tmp_path)
        code = run("fit", str(data), f"--window-s={window}", "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "window_s" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_window_sets_the_cv_series(self, tmp_path, capsys):
        # Each junction is measured 15 minutes after the one before it, so
        # the default 600 s window gives one group per row time and 3600 s
        # one group per day.
        t = np.add.outer(np.arange(4) * 900.0, np.arange(12) * DAY).ravel()
        ds = ChipDataset(np.repeat(np.arange(4), 12), t, 1e4 * (1.2 + 0.2 * np.log1p(t / 1e4)),
                         [0] * t.size, [0] * t.size, "c")
        data, out = tmp_path / "data.csv", tmp_path / "r.json"
        save_measurements(ds, data)
        assert run("fit", str(data), "--window-s", "3600", "--out", str(out)) in (0, 3)
        agg = aggregate_series(ds, 3600.0)
        assert len(agg) == 12 and len(aggregate_series(ds)) == 48
        assert json.loads(out.read_text())["cv_series"] == [
            [t_s / DAY, None if math.isnan(cv) else cv, n] for t_s, _, cv, n in agg]

    def test_too_few_time_points_exits_2(self, tmp_path, capsys):
        out = tmp_path / "short.csv"
        assert run("simulate", "--preset", "chip1", "--target-days", "4",
                   "--sample-days", "2", "--seed", "1", "--out", str(out)) == 0
        code = run("fit", str(out), "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_two_log_model_canonical_order(self, tmp_path, capsys):
        # Synthetic two-channel data fit through the CLI: channels come back
        # in canonical (slow, fast) order.
        from jjaging import TwoLogParams, eval_two_log

        gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e5, a_ext=0.11, tau_ext_s=1.2e3)
        t = np.logspace(2.5, 7, 30)
        rows = ["chip_id,junction_id,t_seconds,resistance_ohms,environment,flag"]
        for j in range(2):
            for tt in t:
                rows.append(
                    f"twolog,{j},{float(tt)!r},{8000.0 * float(eval_two_log(gen, tt))!r},ambient,ok"
                )
        data = tmp_path / "twolog.csv"
        data.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "r2.json"
        code = run("fit", str(data), "--model", "two-log", "--out", str(report_path))
        assert code in (0, 3)
        p = json.loads(report_path.read_text())["average"]["params"]
        assert p["kind"] == "two-log"
        assert p["tau_int_s"] >= p["tau_ext_s"]
        assert p["a_int"] + p["a_ext"] == pytest.approx(0.21, abs=0.02)

    def test_two_log_channel_at_zero_keeps_the_other_stderrs(self, tmp_path, capsys):
        # chip4's two-log fits each end with one amplitude at 0, whose tau
        # column of J is zero: only that tau's stderr is null.
        data, report = tmp_path / "d.csv", tmp_path / "r.json"
        assert run("simulate", "--preset", "chip4", "--target-days", "56", "--seed", "1",
                   "--out", str(data)) == 0
        assert run("fit", str(data), "--model", "two-log", "--out", str(report)) == 3
        d = json.loads(report.read_text())
        for fit in (d["average"], *d["per_junction"].values()):
            p, se = fit["params"], fit["stderr"]
            dead, live = ("int", "ext") if p["a_int"] == 0.0 else ("ext", "int")
            assert p[f"a_{dead}"] == 0.0 < p[f"a_{live}"]
            assert se[f"tau_{dead}_s"] is None
            assert all(math.isfinite(se[k]) and se[k] > 0
                       for k in ("a_int", "a_ext", f"tau_{live}_s"))

    @pytest.mark.parametrize("rows", [
        "c,0,0,10000,ambient,ok\nc,0,nan,11000,ambient,ok\n",
        "c,0,0,10000,ambient,ok\nc,0,inf,11000,ambient,ok\n",
        "c,0,86400,10000,ambient,ok\nc,0,86400,11000,ambient,ok\n",
    ])
    def test_non_finite_or_duplicate_times_exit_2(self, tmp_path, capsys, rows):
        data = tmp_path / "bad.csv"
        data.write_text("chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
                        + rows)
        assert run("fit", str(data), "--out", str(tmp_path / "r.json")) == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_two_log_with_share_b_exits_2(self, tmp_path, capsys):
        data = self._simulate(tmp_path, preset="chip1", days="20")
        out = tmp_path / "r.json"
        assert run("fit", str(data), "--model", "two-log", "--share-b", "--out", str(out)) == 2
        assert "share_b applies to the single-log model only" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,measurement\n")
        assert run("fit", str(bad), "--out", str(tmp_path / "r.json")) == 2


    def test_mixed_chip_ids_exit_2(self, tmp_path, capsys):
        data = tmp_path / "mixed.csv"
        rows = [f"A,{j},0.0,10000.0,ambient,ok\nA,{j},86400.0,10100.0,ambient,ok\n"
                for j in range(4)]
        rows += [f"B,{j},3600.0,13000.0,ambient,ok\n" for j in range(4)]
        data.write_text("chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
                        + "".join(rows))
        out = tmp_path / "r.json"
        assert run("fit", str(data), "--out", str(out)) == 2
        assert "line 10: chip_id 'B' differs from 'A'" in capsys.readouterr().err
        assert not out.exists()

    def test_field_past_the_csv_limit_exits_2_naming_the_line(self, tmp_path, capsys):
        # csv.reader refuses a field longer than csv.field_size_limit()
        # (131072 characters); it used to escape as a traceback.
        data = self._simulate(tmp_path, "chip1", "14")
        lines = data.read_text().splitlines(keepends=True)
        lines[3] = "x" * 200_000 + lines[3][lines[3].index(","):]
        data.write_text("".join(lines))
        out = tmp_path / "r.json"
        assert run("fit", str(data), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 4: field larger than field limit" in err
        assert not out.exists()

    def test_long_fields_are_echoed_cut(self, tmp_path, capsys):
        # A quote that opens line 4's environment field swallows the rest of
        # the file into it; the message echoes 24 characters of it.
        data = self._simulate(tmp_path, "chip1", "14")
        lines = data.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("ambient", '"ambient', 1)
        data.write_text("".join(lines))
        assert run("fit", str(data), "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        field = "".join(lines[3:]).split(',"', 1)[1].lower()
        assert f"line 4: unknown environment {field[:24]!r}...\n" in err
        assert len(err) < 200
        # Each capped message: flag, resistance and chip_id.
        rows = "".join(f"A,{j},{t},10000.0,ambient,ok\n" for j in range(4) for t in (0.0, 86400.0))
        long = "z" * 30
        for row, want in [
            (f"A,0,7200.0,10000.0,ambient,{long}\n", f"unknown flag {long[:24]!r}...\n"),
            (f"A,0,7200.0,{long},ambient,ok\n", f"bad resistance {long[:24]!r}...\n"),
            (f"{long},0,7200.0,10000.0,ambient,ok\n",
             f"chip_id {long[:24]!r}... differs from 'A' on line 2"),
        ]:
            data.write_text(
                "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n" + rows + row)
            assert run("fit", str(data), "--out", str(tmp_path / "r.json")) == 2
            assert f"line 10: {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("faults, code, lines", [
        ({}, 0, []),
        ({"average": {"converged": False}}, 3, ["warning: 1 fit(s) did not converge"]),
        ({0: {"at_bounds": ("tau_s",)}, 1: {"at_bounds": ("a", "b")}}, 3,
         ["warning: 2 fit(s) converged on a bound of their box (a, b, tau_s)"]),
        # A fit that did not converge counts once, whatever its bounds.
        ({"average": {"converged": False, "at_bounds": ("a",)}, 2: {"at_bounds": ("a",)}}, 3,
         ["warning: 1 fit(s) did not converge",
          "warning: 1 fit(s) converged on a bound of their box (a)"]),
    ], ids=["clean", "not-converged", "on-a-bound", "both"])
    def test_fit_exits_3_with_one_warning_per_fault(self, tmp_path, capsys, monkeypatch,
                                                     faults, code, lines):
        def faulty_fit_chip(*args, **kwargs):
            res = real_fit_chip(*args, **kwargs)
            per = {j: replace(f, **faults.get(j, {})) for j, f in res.per_junction.items()}
            return replace(res, per_junction=per,
                           average=replace(res.average, **faults.get("average", {})))

        data = self._simulate(tmp_path, preset="chip1", days="20")
        real_fit_chip = cli.fit_chip
        monkeypatch.setattr(cli, "fit_chip", faulty_fit_chip)
        capsys.readouterr()
        assert run("fit", str(data), "--out", str(tmp_path / "r.json")) == code
        assert capsys.readouterr().err.splitlines() == lines

    def test_an_overflowing_junction_is_skipped_and_an_overflowing_average_exits_2(
            self, tmp_path, capsys):
        # Junction 0 reads 1e-150 ohm on day 0, so its ratios square past
        # the largest float; every row passes load_measurements.
        data = self._simulate(tmp_path, preset="chip1", days="20")
        lines = data.read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        assert row[1:3] == ["0", "0.0"]
        lines[1] = ",".join([*row[:3], "1e-150", *row[4:]])
        data.write_text("".join(lines))
        report = tmp_path / "r.json"
        assert run("fit", str(data), "--out", str(report)) in (0, 3)
        skipped = json.loads(report.read_text())["skipped"]
        assert list(skipped) == ["0"] and "residual sum of squares is not finite" in skipped["0"]

        # With junction 0 alone, its series is the average curve.
        alone = tmp_path / "alone.csv"
        alone.write_text("".join(line for line in lines if line.split(",")[1] in
                                 ("junction_id", "0")))
        capsys.readouterr()
        assert run("fit", str(alone), "--out", str(tmp_path / "alone.json")) == 2
        assert "residual sum of squares is not finite" in capsys.readouterr().err
        assert not (tmp_path / "alone.json").exists()

    def test_short_span_is_one_warning_line(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        assert run("simulate", "--preset", "chip1", "--target-days", "6", "--sample-days", "1",
                   "--seed", "1", "--out", str(data)) == 0
        # Twice in one process: each run prints its line, naming no source file.
        for _ in range(2):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("fit", str(data), "--out", str(tmp_path / "r.json")) == 0
            assert capsys.readouterr().err.splitlines() == [
                "warning: 17 fit(s): time span below one decade; timescale is weakly "
                "constrained"]
        report = read_report(tmp_path / "r.json")
        assert all("time span below one decade; timescale is weakly constrained" in f.messages
                   for f in [report.average, *report.per_junction.values()])

    def test_negative_seed_is_only_recorded(self, tmp_path, capsys):
        data = self._simulate(tmp_path, days="20")
        out = tmp_path / "r.json"
        assert run("fit", str(data), "--seed", "-1", "--out", str(out)) in (0, 3)
        assert json.loads(out.read_text())["provenance"]["seed"] == -1


@pytest.fixture(scope="module")
def fit_report(tmp_path_factory):
    """A real report's JSON: chip1 simulated for 20 days and fitted."""
    d = tmp_path_factory.mktemp("fit")
    assert run("simulate", "--preset", "chip1", "--target-days", "20", "--seed", "3",
               "--out", str(d / "data.csv")) == 0
    assert run("fit", str(d / "data.csv"), "--out", str(d / "report.json")) in (0, 3)
    return json.loads((d / "report.json").read_text())


@pytest.fixture(scope="module")
def fit_report_v1(tmp_path_factory, fit_report):
    """``fit_report`` in the version 1 layout: with histograms, no stop_reason."""
    path = tmp_path_factory.mktemp("fit_v1") / "report.json"
    path.write_text(json.dumps(fit_report))
    return v1_report(read_report(path))


# Each of these used to escape as a traceback or to predict with exit 0.
_malformed = pytest.mark.parametrize("mutate", [
        lambda d: d.update(per_junction=[]),
        lambda d: d.update(cv_series=[[1, 2]]),
        lambda d: d.update(last_t_s="x"),
        lambda d: d.update(average_r0_ohm="x"),
        lambda d: d.update(average={"params": {"kind": "two-log"}}),
        lambda d: d.update(last_env=5),
        lambda d: d.update(schema_version=3),
        lambda d: d.update(junction_ids=5),
        lambda d: d.update(unknown=1),
        lambda d: d["average"].update(unknown=1),
    ], ids=["per_junction-list", "cv_series-pair", "last_t_s-string",
            "average_r0_ohm-string", "two-log-without-params", "last_env-number",
            "schema_version-3", "junction_ids-number", "unknown-key", "unknown-fit-key"])


def assert_refused(tmp_path, capsys, d):
    """``predict --report`` on the JSON ``d`` exits 2, naming the file."""
    path, out = tmp_path / "bad.json", tmp_path / "p.json"
    path.write_text(json.dumps(d))
    code = run("predict", "--report", str(path), "--target-days", "30", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed report")
    assert not out.exists()


class TestPredict:
    @pytest.mark.parametrize("delta", ["0", "-180", "nan", "inf"])
    def test_gap_not_finite_and_positive_exits_2(self, tmp_path, capsys, delta):
        out = tmp_path / "p.json"
        assert run("predict", "--preset", "chip1", "--target-days", "7",
                   "--delta-uev", delta, "--out", str(out)) == 2
        assert "gap_delta_J must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @_malformed
    def test_malformed_report_exits_2_naming_the_file(self, tmp_path, capsys, fit_report,
                                                      mutate):
        d = copy.deepcopy(fit_report)
        mutate(d)
        assert_refused(tmp_path, capsys, d)

    @_malformed
    def test_malformed_version_1_report_exits_2(self, tmp_path, capsys, fit_report_v1,
                                                mutate):
        d = copy.deepcopy(fit_report_v1)
        mutate(d)
        assert_refused(tmp_path, capsys, d)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("histograms"),
        lambda d: d["per_junction"]["3"].update(stop_reason="step_tol"),
    ], ids=["without-histograms", "with-stop_reason"])
    def test_version_1_report_in_another_layout_exits_2(self, tmp_path, capsys,
                                                       fit_report_v1, mutate):
        d = copy.deepcopy(fit_report_v1)
        mutate(d)
        assert_refused(tmp_path, capsys, d)

    def test_version_1_report_predicts_like_version_2(self, tmp_path, capsys, fit_report,
                                                     fit_report_v1):
        runs = []
        for d in (fit_report, fit_report_v1):
            work = tmp_path / f"v{d['schema_version']}"
            work.mkdir()
            (work / "report.json").write_text(json.dumps(d, sort_keys=True, indent=2) + "\n")
            code = run("predict", "--report", str(work / "report.json"), "--target-days", "30",
                       "--out", str(work / "pred.json"))
            runs.append((code, capsys.readouterr(), (work / "pred.json").read_bytes()))
        assert [r[0] for r in runs] == [0, 0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: d.update(junction_ids=5),
         "bad 'junction_ids' (TypeError: 'int' object is not iterable)"),
        (lambda d: d["average"]["params"].update(kind="three-log"),
         "bad 'average.params.kind' (ValueError: 'three-log' is not one of"),
        (lambda d: d["per_junction"]["3"].update(n_points="x"),
         "bad 'per_junction.3.n_points' (ValueError:"),
        (lambda d: d["average"]["params"].pop("a"), "bad 'average.params' (TypeError:"),
        (lambda d: d["average"].pop("rss"), "missing 'average.rss'"),
        (lambda d: d.update(last_env="mars"), "bad 'last_env' (ValueError: 'mars' is not one of"),
        (lambda d: d["average"].update(rss=math.nan), "invalid report JSON (NaN is not"),
        (lambda d: d["r0_ohm"].update({"0": -math.inf}), "invalid report JSON (-Infinity is not"),
        (lambda d: d["average"].update(stop_reason="banana"),
         "bad 'average.stop_reason' (ValueError: 'banana' is not one of"),
        (lambda d: d["average"].update(converged=True, stop_reason="max_iter"),
         "bad 'average.stop_reason' ('max_iter' on a fit with converged True)"),
        # JSON types that Python compares equal to the right ones.
        (lambda d: d["average"].update(converged=1),
         "bad 'average.converged' (ValueError: 1 is not a JSON boolean)"),
        (lambda d: d["per_junction"]["3"].update(degenerate_timescales=0),
         "bad 'per_junction.3.degenerate_timescales' (ValueError: 0 is not a JSON boolean)"),
        (lambda d: d["average"].update(iterations=6.0),
         "bad 'average.iterations' (ValueError: 6.0 is not a JSON integer)"),
        (lambda d: d["per_junction"]["3"].update(n_points=31.0),
         "bad 'per_junction.3.n_points' (ValueError: 31.0 is not a JSON integer)"),
        (lambda d: d.update(schema_version=2.0),
         "bad 'schema_version' (ValueError: 2.0 is not a JSON integer)"),
        (lambda d: d.update(junction_ids=[0, True]),
         "bad 'junction_ids' (ValueError: True is not a JSON integer)"),
        (lambda d: d["average"].update(rss=True),
         "bad 'average.rss' (ValueError: True is not a JSON number)"),
        (lambda d: d["per_junction"]["3"]["params"].update(b=False),
         "bad 'per_junction.3.params.b' (ValueError: False is not a JSON number)"),
    ], ids=["junction_ids-number", "three-log", "n_points-string", "params-without-a",
            "fit-without-rss", "last_env-unknown", "rss-nan", "r0-minus-infinity",
            "stop_reason-unknown", "converged-max_iter", "converged-integer",
            "degenerate-integer", "iterations-float", "n_points-float",
            "schema_version-float", "junction_ids-bool", "rss-bool", "params-bool"])
    def test_malformed_report_message_names_the_field(self, tmp_path, capsys, fit_report,
                                                      mutate, named):
        d = copy.deepcopy(fit_report)
        mutate(d)
        path, out = tmp_path / "bad.json", tmp_path / "p.json"
        path.write_text(json.dumps(d))
        code = run("predict", "--report", str(path), "--target-days", "30", "--out", str(out))
        assert code == 2
        assert f"error: {path}: " in (err := capsys.readouterr().err) and named in err
        assert not out.exists()

    def test_flat_amplitude_prediction_equals_last_resistance(self, tmp_path, capsys):
        spec = write_flat_spec(tmp_path)
        # a = 0: no aging; prediction equals the reference resistance
        sp = json.loads(spec.read_text())
        sp["chip"]["a_mean"] = 0.0
        sp["chip"]["b_mean"] = 1.0
        spec.write_text(json.dumps(sp))
        data = tmp_path / "d.csv"
        assert run("simulate", "--spec", str(spec), "--target-days", "30",
                   "--seed", "2", "--out", str(data)) == 0
        report = tmp_path / "r.json"
        assert run("fit", str(data), "--out", str(report)) in (0, 3)
        pred = tmp_path / "p.json"
        code = run("predict", "--report", str(report), "--target-days", "60",
                   "--out", str(pred))
        assert code == 0
        p = json.loads(pred.read_text())
        assert p["r_predicted_ohm"] == pytest.approx(p["r_from_ohm"], rel=1e-9)
        assert p["dr_over_r"] == pytest.approx(0.0, abs=1e-9)
        assert p["freq_shift_fraction"] == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def deaging_csv(tmp_path):
        """Glovebox junctions falling as 1 - 0.001 ln(1 + t/1e4) for 30 days."""
        t = np.arange(0.0, 30 * DAY + 1.0, DAY)
        r0 = np.array([22_000.0, 23_000.0, 24_000.0])
        n = r0.size * t.size
        data = tmp_path / "deage.csv"
        save_measurements(ChipDataset(
            np.repeat(np.arange(r0.size), t.size), np.tile(t, r0.size),
            (r0[:, None] * (1.0 - 0.001 * np.log1p(t / 1e4))).ravel(),
            [ENV_LABELS.index("glovebox")] * n, [0] * n, "deage"), data)
        return data

    def test_flat_two_log_report_predicts_no_drift(self, tmp_path, capsys):
        # Deaging glovebox junctions: the two-log fit, whose amplitudes are
        # >= 0, ends at a_int = a_ext = 0.  That curve is flat at any
        # timescale, so predict must not need an effective timescale.
        data = self.deaging_csv(tmp_path)
        report = tmp_path / "r.json"
        # The fit ends on a bound, so fit exits 3 (the report is written).
        assert run("fit", str(data), "--model", "two-log", "--out", str(report)) == 3
        params = json.loads(report.read_text())["average"]["params"]
        assert params["kind"] == "two-log" and params["a_int"] == params["a_ext"] == 0.0
        pred = tmp_path / "p.json"
        code = run("predict", "--report", str(report), "--target-days", "60",
                   "--out", str(pred))
        assert code == 0
        p = json.loads(pred.read_text())
        assert p["dr_over_r"] == 0.0
        assert p["r_predicted_ohm"] == p["r_from_ohm"]

    def test_pinned_average_fit_warns_before_predicting(self, tmp_path, capsys, fit_report):
        # The single-log fit of deaging data ends flat, at its bound a = 0.
        report = tmp_path / "r.json"
        assert run("fit", str(self.deaging_csv(tmp_path)), "--out", str(report)) == 3
        assert json.loads(report.read_text())["average"]["at_bounds"] == ["a"]
        clean = copy.deepcopy(fit_report)
        assert clean["average"]["converged"] and clean["average"]["at_bounds"] == []
        stuck = copy.deepcopy(clean)
        stuck["average"].update(converged=False, stop_reason="max_iter")
        for name, d in (("clean", clean), ("stuck", stuck)):
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
        capsys.readouterr()
        for path, warning in (
            (report, "warning: the report's average fit ended at a bound of a; "),
            (tmp_path / "stuck.json", "warning: the report's average fit did not converge; "),
            (tmp_path / "clean.json", None),
        ):
            code = run("predict", "--report", str(path), "--target-days", "60",
                       "--out", str(tmp_path / "p.json"))
            assert code == 0  # tests/test_forecast.py pins exit 0 (ROADMAP item 9)
            err = capsys.readouterr().err
            if warning is None:
                assert err == ""
            else:
                assert err.startswith(warning) and err.count("\n") == 1

    def test_chip1_week_ahead_matches_closed_form_increment(self, tmp_path, capsys):
        pred = tmp_path / "p.json"
        code = run("predict", "--preset", "chip1", "--from-days", "56",
                   "--target-days", "63", "--out", str(pred))
        assert code == 0
        p = json.loads(pred.read_text())
        params = AgingParams(a=0.21, tau_s=1.2e4, b=1.01, r0_ohm=22_800.0)
        want = float(eval_single_log(params, 63 * DAY)) / float(eval_single_log(params, 56 * DAY)) - 1
        assert p["dr_over_r"] == pytest.approx(want, rel=1e-6)
        # critical current and frequency shift come along
        assert p["critical_current_a"] > 0
        assert p["freq_shift_fraction"] < 0

    def test_ambient_forward_larger_than_glovebox(self, tmp_path, capsys):
        outs = {}
        for env in ("ambient", "glovebox"):
            sched = tmp_path / f"{env}.txt"
            sched.write_text(f"0,{env}\n")
            out = tmp_path / f"{env}.json"
            assert run("predict", "--preset", "chip1", "--from-days", "56",
                       "--target-days", "70", "--schedule", str(sched),
                       "--out", str(out)) == 0
            outs[env] = json.loads(out.read_text())["r_predicted_ohm"]
        assert outs["ambient"] > outs["glovebox"]

    def test_target_before_last_measurement_exits_2(self, tmp_path, capsys):
        code = run("predict", "--preset", "chip1", "--from-days", "56",
                   "--target-days", "40")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--target-days", "--from-days"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "1e308"])
    def test_bad_days_exit_2(self, tmp_path, capsys, flag, value):
        days = {"--from-days": "1", "--target-days": "10", flag: value}
        out = tmp_path / "p.json"
        code = run("predict", "--preset", "chip1", *(x for kv in days.items() for x in kv),
                   "--out", str(out))
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_resuming_at_a_vacuum_exit_is_continuous(self, tmp_path, capsys):
        # Leaving vacuum at day 60 relaxes with the vacuum-to-gas time, also
        # when the prediction starts at the swap or just after it.
        sched = tmp_path / "exit.txt"
        sched.write_text("0,vacuum\n60,ambient\n")
        drift = {}
        for from_days in ("59.9999", "60", "60.0001"):
            out = tmp_path / f"{from_days}.json"
            assert run("predict", "--preset", "chip4", "--schedule", str(sched),
                       "--from-days", from_days, "--target-days", "61",
                       "--out", str(out)) == 0
            drift[from_days] = json.loads(out.read_text())["dr_over_r"]
        assert drift["59.9999"] == pytest.approx(0.045, abs=5e-4)
        assert drift["60"] == pytest.approx(drift["59.9999"], abs=1e-5)
        assert drift["60.0001"] == pytest.approx(drift["59.9999"], abs=1e-5)

    def test_start_below_minus_one_exits_2(self, tmp_path, capsys, fit_report):
        # a ln(b) = ln(1e-6) at day 0: the start state has a negative
        # resistance, which the engine refuses before it advances it.
        d = copy.deepcopy(fit_report)
        d["average"]["params"].update(a=1.0, b=1e-6, tau_s=1e8)
        report, out = tmp_path / "r.json", tmp_path / "p.json"
        report.write_text(json.dumps(d))
        code = run("predict", "--report", str(report), "--from-days", "0",
                   "--target-days", "30", "--out", str(out))
        assert code == 2
        assert "fractional aging cannot go below -1" in capsys.readouterr().err
        assert not out.exists()

    # The fitter's box for a timescale, exp(ln 1e2) to exp(ln 1e8) seconds:
    # every timescale a fit writes lies in it.
    TAU_BOX = (100.00000000000004, 100000000.00000018)

    @staticmethod
    def predict_with_params(tmp_path, fit_report, params):
        """``predict --report`` to day 30 on ``fit_report`` with its average
        fit's ``params`` replaced: (exit code, path of the output)."""
        d = copy.deepcopy(fit_report)
        d["average"]["params"] = params
        report, out = tmp_path / "r.json", tmp_path / "p.json"
        report.write_text(json.dumps(d))
        return run("predict", "--report", str(report), "--target-days", "30",
                   "--out", str(out)), out

    @pytest.mark.parametrize("a", [0.21, 0.0])
    @pytest.mark.parametrize("model, name, tau", [
        *(("single-log", "tau_s", tau) for tau in (
            1e-305, 5e-324, 1e-300, 1e9, math.nextafter(TAU_BOX[0], 0.0),
            math.nextafter(TAU_BOX[1], math.inf))),
        ("two-log", "tau_int_s", 1e9),
        ("two-log", "tau_ext_s", 1e-305),
    ])
    def test_timescale_outside_the_fitters_box_exits_2(self, tmp_path, capsys, fit_report,
                                                       a, model, name, tau):
        # Hand-edited timescales that no fit writes: at 1e-305 and 5e-324 s
        # numpy used to warn of an overflow before the exit 2, and 1e-300 s
        # predicted 3.47 Mohm with exit 0 on a 56-day chip1 report whose own
        # fit predicts 53 kohm at day 63.
        if model == "single-log":
            params = {"kind": model, "a": a, "tau_s": tau, "b": 1.0, "r0_ohm": 1.0}
        else:
            params = {"kind": model, "a_int": a, "tau_int_s": 1e6, "a_ext": a,
                      "tau_ext_s": 1e4, "r0_ohm": 1.0, name: tau}
        code, out = self.predict_with_params(tmp_path, fit_report, params)
        assert code == 2
        lo, hi = self.TAU_BOX
        assert capsys.readouterr().err == (f"error: the report's average {name} {tau!r} s is "
                                           f"outside the fitter's box [{lo!r}, {hi!r}] s\n")
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"kind": "single-log", "a": 0.21, "tau_s": TAU_BOX[0], "b": 1.0, "r0_ohm": 1.0},
        {"kind": "single-log", "a": 0.21, "tau_s": TAU_BOX[1], "b": 1.0, "r0_ohm": 1.0},
        {"kind": "two-log", "a_int": 0.1, "tau_int_s": TAU_BOX[1], "a_ext": 0.1,
         "tau_ext_s": 1e4, "r0_ohm": 1.0},
    ], ids=["single-log-lower-edge", "single-log-upper-edge", "two-log-upper-edge"])
    def test_timescale_on_the_edge_of_the_box_predicts(self, tmp_path, capsys, fit_report,
                                                        params):
        code, out = self.predict_with_params(tmp_path, fit_report, params)
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads(out.read_text())["r_predicted_ohm"] > 0

    def test_schedule_with_events_exits_2(self, tmp_path, capsys):
        # The events used to be dropped without a word, giving the drift of
        # the schedule without them.
        sched = tmp_path / "events.txt"
        sched.write_text("0,ambient\nevent,12,thermal,temp_c=250,env=glovebox\n"
                         "event,10,voltage\n")
        out = tmp_path / "p.json"
        code = run("predict", "--preset", "chip1", "--from-days", "5", "--target-days", "20",
                   "--schedule", str(sched), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert str(sched) in err and "day 10" in err
        assert not out.exists()


OVEN_SEQUENCE = (
    "event,85.0,thermal,temp_c=200,env=glovebox,hold_min=10\n"
    "event,85.2,thermal,temp_c=250,env=glovebox,hold_min=10\n"
    "event,85.4,thermal,temp_c=200,env=ambient,hold_min=40\n"
    "event,85.6,thermal,temp_c=250,env=ambient,hold_min=10\n"
    "event,85.8,thermal,temp_c=200,env=ambient,hold_min=10\n"
)


class TestAnneal:
    def _dataset(self, tmp_path, preset="chip3", days="85"):
        out = tmp_path / "aged.csv"
        assert run("simulate", "--preset", preset, "--target-days", days,
                   "--seed", "5", "--out", str(out)) == 0
        return out

    def test_five_step_sign_pattern(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        events = tmp_path / "steps.txt"
        events.write_text(OVEN_SEQUENCE)
        out = tmp_path / "annealed.csv"
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out))
        assert code == 0
        steps = json.loads(out.with_suffix(".steps.json").read_text())["steps"]
        signs = [math.copysign(1, s["mean_fractional_change"]) for s in steps]
        assert signs == [-1, -1, +1, -1, +1]
        assert steps[4]["mean_fractional_change"] < steps[2]["mean_fractional_change"]

    def test_floor_keeps_ratio_at_least_one(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "steps.txt"
        events.write_text(
            "event,20.5,thermal,temp_c=250,env=glovebox,hold_min=10\n"
            "event,20.7,thermal,temp_c=250,env=glovebox,hold_min=10\n"
            "event,20.9,thermal,temp_c=250,env=glovebox,hold_min=10\n"
        )
        out = tmp_path / "annealed.csv"
        assert run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out)) == 0
        info = json.loads(out.with_suffix(".steps.json").read_text())
        assert info["min_r_over_r0"] >= 1.0 - 1e-12

    def test_first_row_after_t0_exits_2(self, tmp_path, capsys):
        # Without its t = 0 row a junction's R0 is unknown; flooring at its
        # first row would put the floor too high.
        data = self._dataset(tmp_path, days="20")
        lines = data.read_text().splitlines(keepends=True)
        data.write_text(lines[0] + "".join(
            row for row in lines[1:] if float(row.split(",")[2]) >= 2 * DAY))
        events = tmp_path / "steps.txt"
        events.write_text(
            "event,20.5,thermal,temp_c=250,env=glovebox,hold_min=10\n"
            "event,20.7,thermal,temp_c=250,env=glovebox,hold_min=10\n"
            "event,20.9,thermal,temp_c=250,env=glovebox,hold_min=10\n"
        )
        out = tmp_path / "annealed.csv"
        assert run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out)) == 2
        assert "junction 0's first usable row is at day 2" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_event_list_is_identity(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "none.txt"
        events.write_text("# nothing here\n")
        out = tmp_path / "same.csv"
        assert run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out)) == 0
        assert out.read_bytes() == data.read_bytes()

    def test_waits_in_the_last_environment_and_keeps_its_label(self, tmp_path, capsys):
        # chip2's rows are all glovebox.  Relabelled, the same rows wait in
        # the new label's environment, unknown in ambient air, and the step
        # rows keep the label.
        data = self._dataset(tmp_path, preset="chip2", days="20")
        events = tmp_path / "t.txt"
        events.write_text("event,21,thermal,temp_c=200,env=glovebox,hold_min=10\n")
        r = {}
        for label in ("glovebox", "ambient", "unknown"):
            relabelled, out = tmp_path / f"{label}.csv", tmp_path / f"{label}-annealed.csv"
            relabelled.write_text(data.read_text().replace(",glovebox,", f",{label},"))
            assert run("anneal", str(relabelled), "--events", str(events), "--preset", "chip2",
                       "--out", str(out)) == 0
            ds = load_measurements(out)
            assert {ENV_LABELS[e] for e in ds.env.tolist()} == {label}
            r[label] = ds.r_ohm.tolist()
        assert r["unknown"] == r["ambient"] != r["glovebox"]

    def test_unknown_thermal_entry_exits_2(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "steps.txt"
        events.write_text("event,20.5,thermal,temp_c=300,env=ambient,hold_min=10\n")
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("args", ["amplitude_v=nan", "pulse_duration_s=inf",
                                      "n_pulses=2.5"])
    def test_bad_voltage_arguments_exit_2(self, tmp_path, capsys, args):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "v.txt"
        events.write_text(f"event,20.5,voltage,{args}\n")
        out = tmp_path / "x.csv"
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--seed", "4", "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_misspelt_thermal_argument_exits_2(self, tmp_path, capsys):
        # hold for hold_min used to record at the default 10-minute hold.
        data = self._dataset(tmp_path, days="2")
        events = tmp_path / "t.txt"
        events.write_text("event,2,thermal,temp_c=250,env=glovebox,hold=30\n")
        out = tmp_path / "x.csv"
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out))
        assert code == 2
        assert "line 1: unknown thermal argument 'hold'" in capsys.readouterr().err
        assert not out.exists()

    def test_event_on_absent_junctions_exits_2(self, tmp_path, capsys):
        # The step used to report the wait's aging as its own change.
        data = self._dataset(tmp_path, preset="chip1", days="14")
        events = tmp_path / "v.txt"
        events.write_text("event,20,voltage,junctions=40\n")
        out = tmp_path / "x.csv"
        assert run("anneal", str(data), "--events", str(events), "--seed", "1",
                   "--out", str(out)) == 2
        assert ("event at day 20 names junctions the chip does not have: 40"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not out.with_suffix(".steps.json").exists()

    def test_event_on_open_junctions_only_exits_2(self, tmp_path, capsys):
        # The step used to credit the wait's aging to an anneal that touched
        # no usable junction.  This chip has open junctions 1, 7 and 10.
        data = tmp_path / "open.csv"
        assert run("simulate", "--preset", "chip6", "--target-days", "14", "--seed", "1",
                   "--out", str(data)) == 0
        ds = load_measurements(data)
        assert sorted(set(ds.junction_id[ds.flag != 0].tolist())) == [1, 7, 10]
        events, out = tmp_path / "v.txt", tmp_path / "x.csv"
        for ids, want in (("7", "7"), ("10+1+7", "1+7+10")):
            events.write_text(f"event,20,voltage,junctions={ids}\n")
            capsys.readouterr()
            assert run("anneal", str(data), "--events", str(events), "--seed", "1",
                       "--out", str(out)) == 2
            assert capsys.readouterr().err == (
                f"error: event at day 20 names no junction with usable rows: {want}\n")
            assert not out.exists() and not out.with_suffix(".steps.json").exists()
        # One usable junction among them is enough.
        events.write_text("event,20,voltage,junctions=7-8\n")
        assert run("anneal", str(data), "--events", str(events), "--seed", "1",
                   "--out", str(out)) == 0

    def test_step_change_is_the_mean_over_the_touched_junctions(self, tmp_path, capsys):
        # An oven step on junction 8 alone: the step reports that junction's
        # change, not a mean that is mostly the wait's aging of the others.
        data = tmp_path / "aged.csv"
        assert run("simulate", "--preset", "chip6", "--target-days", "14", "--seed", "1",
                   "--out", str(data)) == 0
        events, out = tmp_path / "e.txt", tmp_path / "x.csv"
        for ids, touched in (("8", [8]), ("7-9", [8, 9]), (None, None)):
            events.write_text("event,20,thermal,temp_c=200,env=ambient,hold_min=0"
                              + (f",junctions={ids}\n" if ids else "\n"))
            assert run("anneal", str(data), "--events", str(events), "--seed", "1",
                       "--out", str(out)) == 0
            ds = load_measurements(out)
            change = {}
            for j, lo, hi in ds.junction_rows():
                r = ds.r_ohm[lo:hi][ds.flag[lo:hi] == 0]
                if r.size:
                    change[j] = r[-1] / r[-2] - 1.0
            want = float(np.mean([change[j] for j in (touched or sorted(change))]))
            step = json.loads(out.with_suffix(".steps.json").read_text())["steps"][0]
            assert step["mean_fractional_change"] == pytest.approx(want, rel=1e-12)
            assert f"mean change {want * 100:+.3f}%" in capsys.readouterr().out

    def test_inverted_junction_range_exits_2(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "v.txt"
        events.write_text("event,20.5,voltage,junctions=5-2\n")
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--seed", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_huge_junction_range_exits_2(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "v.txt"
        events.write_text("event,20.5,voltage,junctions=0-10000000000\n")
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--seed", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "spans more than 65536 ids" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "v.txt"
        events.write_text("event,20.5,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n")
        out = tmp_path / "x.csv"
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--seed", seed, "--out", str(out))
        assert code == 2
        assert f"--seed must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_chip_ids_exit_2(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        text = data.read_text()
        data.write_text(text + text.splitlines()[1].replace("chip,", "other,", 1)
                        .replace(",0.0,", ",3600.0,", 1) + "\n")
        events = tmp_path / "t.txt"
        events.write_text("event,20.5,thermal,temp_c=200,env=glovebox,hold_min=10\n")
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "chip_id 'other' differs from 'chip'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        # The second event starts inside the first one's 60-minute hold.
        "event,30.5,thermal,temp_c=200,env=glovebox,hold_min=60\n"
        "event,30.52,thermal,temp_c=250,env=glovebox,hold_min=10\n",
        # Recorded at the last measurement's time (day 30).
        "event,30,voltage\n",
        # Recorded at the previous step's measurement time.
        "event,30.5,voltage\nevent,30.5,thermal,temp_c=200,env=glovebox,hold_min=0\n",
        # Recorded at a time that is not finite: ev.t_s + hold overflows.
        "event,40,thermal,temp_c=200,hold_min=1e308\n",
    ])
    def test_unplaceable_event_exits_2(self, tmp_path, capsys, lines):
        data = self._dataset(tmp_path, days="30")
        events = tmp_path / "steps.txt"
        events.write_text(lines)
        out = tmp_path / "x.csv"
        capsys.readouterr()
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--seed", "4", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().out == ""   # refused before any step is printed
        assert not out.exists() and not out.with_suffix(".steps.json").exists()

    def test_back_to_back_steps_reload(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="30")
        events = tmp_path / "steps.txt"
        events.write_text("event,30.5,thermal,temp_c=200,env=glovebox,hold_min=60\n"
                          "event,30.5416666666667,thermal,temp_c=250,env=glovebox,hold_min=10\n")
        out = tmp_path / "x.csv"
        assert run("anneal", str(data), "--events", str(events), "--preset", "chip3",
                   "--out", str(out)) == 0
        ds = load_measurements(out)
        assert len(ds) == len(load_measurements(data)) + 2 * 16
        assert (np.diff(ds.t_s.reshape(16, -1), axis=1) > 0).all()

    @pytest.mark.parametrize("t_last, err", [
        # The amplitude inferred from this row divided by ln(t/tau + 1) == 0.0.
        ("5e-324", "junction 0's last usable row, at t = 5e-324 s, is too close to t = 0 "
                   "to infer its aging trend"),
        # It used to write a 2.7e15 ohm row flagged ok, which reads back as open.
        ("1e-09", "step 1 would record junction 0 at 2.686e+15 ohm, which reads back as "
                  "open (above 1e+06 ohm)"),
    ], ids=["zero-span", "reads-back-open"])
    def test_last_row_near_t0_exits_2(self, tmp_path, capsys, t_last, err):
        data = tmp_path / "early.csv"
        data.write_text("chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
                        f"c,0,0.0,10000.0,ambient,ok\nc,0,{t_last},10100.0,ambient,ok\n")
        events, out = tmp_path / "t.txt", tmp_path / "x.csv"
        events.write_text("event,1,thermal,temp_c=200,env=ambient,hold_min=10\n")
        assert run("anneal", str(data), "--events", str(events), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists() and not out.with_suffix(".steps.json").exists()

    def test_voltage_events_require_seed(self, tmp_path, capsys):
        data = self._dataset(tmp_path, days="20")
        events = tmp_path / "v.txt"
        events.write_text("event,20.5,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n")
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        code = run("anneal", str(data), "--events", str(events), "--preset", "chip1",
                   "--seed", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 0


class TestNonUtf8Input:
    """Every file the CLI reads refuses a non-UTF-8 byte with exit 2 and the
    line it sits on, and writes no output."""

    BAD = b"0,ambient\n\xff\xfe,glovebox\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "chip1", "--target-days", "4", "--seed", "1",
         "--schedule", "BAD", "--out", "OUT"],
        ["simulate", "--spec", "BAD", "--target-days", "4", "--seed", "1", "--out", "OUT"],
        ["fit", "BAD", "--out", "OUT"],
        ["predict", "--report", "BAD", "--target-days", "10", "--out", "OUT"],
        ["anneal", "DATA", "--events", "BAD", "--seed", "1", "--out", "OUT"],
    ], ids=["schedule", "spec", "measurements", "report", "events"])
    def test_exits_2_naming_the_line(self, tmp_path, capsys, argv):
        bad, out, data = tmp_path / "bad.txt", tmp_path / "out", tmp_path / "data.csv"
        bad.write_bytes(self.BAD)
        assert run("simulate", "--preset", "chip1", "--target-days", "4", "--seed", "1",
                   "--out", str(data)) == 0
        capsys.readouterr()
        names = {"BAD": str(bad), "OUT": str(out), "DATA": str(data)}
        assert run(*[names.get(a, a) for a in argv]) == 2
        assert f"error: {bad}: line 2: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()


class TestByteOrderMark:
    """Every file the CLI reads may start with a UTF-8 byte-order mark and
    then gives the same exit code, stdout and outputs as without it; only a
    digest of the input file's own bytes differs."""

    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        data, report = tmp_path / "data.csv", tmp_path / "report.json"
        assert run("simulate", "--preset", "chip1", "--target-days", "10", "--sample-days",
                   "1", "--seed", "1", "--out", str(data)) == 0
        assert run("fit", str(data), "--out", str(report)) == 0
        capsys.readouterr()
        return {
            "schedule": b"0,ambient\n4,glovebox\nevent,6,voltage,n_pulses=30\n",
            "spec": write_flat_spec(tmp_path, n_junctions=4).read_bytes(),
            "data": data.read_bytes(),
            "report": report.read_bytes(),
            "events": b"event,11,thermal,temp_c=200,env=glovebox,hold_min=10\n",
            "DATA": str(data),
        }

    @pytest.mark.parametrize("kind, argv", [
        ("schedule", ["simulate", "--preset", "chip1", "--target-days", "8", "--seed", "1",
                      "--schedule", "IN", "--out", "out.csv"]),
        ("spec", ["simulate", "--spec", "IN", "--target-days", "8", "--seed", "1",
                  "--out", "out.csv"]),
        ("data", ["fit", "IN", "--out", "out.json"]),
        ("report", ["predict", "--report", "IN", "--target-days", "12", "--out", "out.json"]),
        ("events", ["anneal", "DATA", "--events", "IN", "--seed", "1", "--out", "out.csv"]),
    ], ids=["schedule", "spec", "measurements", "report", "events"])
    def test_reads_like_the_file_without_it(self, tmp_path, capsys, monkeypatch, inputs,
                                            kind, argv):
        runs = []
        for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            Path("in.txt").write_bytes(prefix + inputs[kind])
            names = {"IN": "in.txt", "DATA": inputs["DATA"]}
            code = run(*[names.get(a, a) for a in argv])
            outs = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "in.txt"}
            digest = hashlib.sha256(Path("in.txt").read_bytes()).hexdigest().encode()
            runs.append((code, capsys.readouterr(), outs, digest))
        (code, std, outs, digest), (code_b, std_b, outs_b, digest_b) = runs
        assert code == code_b == 0
        assert (std.out, std.err) == (std_b.out, std_b.err)
        assert outs and outs == {n: b.replace(digest_b, digest) for n, b in outs_b.items()}


class TestParser:
    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_required(self, capsys):
        assert run("simulate", "--preset", "chip1") == 2

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_one_parser_per_process_gives_the_same_outputs(self, tmp_path, monkeypatch,
                                                          capsys):
        # simulate, two failing fits (an unknown option, a bad CSV flag), fit,
        # predict and anneal, once through main's one cached parser and once
        # with a fresh parser for every call; run from equal relative paths.
        def session(workdir):
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            Path("events.txt").write_text(
                "event,21,thermal,temp_c=200,env=glovebox,hold_min=10\n"
                "event,22,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n")
            Path("bad.csv").write_text(
                "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
                "c,0,0.0,10000.0,ambient,broken\n")
            argvs = [
                ["simulate", "--preset", "chip2", "--target-days", "20", "--seed", "3",
                 "--chip-id", 'lot "7", wafer 2', "--out", "data.csv"],
                ["fit", "data.csv", "--no-such-flag", "--out", "bad.json"],
                ["fit", "bad.csv", "--out", "bad.json"],
                ["fit", "data.csv", "--share-b", "--out", "report.json"],
                ["predict", "--report", "report.json", "--target-days", "27",
                 "--out", "pred.json"],
                ["anneal", "data.csv", "--events", "events.txt", "--preset", "chip2",
                 "--seed", "3", "--out", "annealed.csv"],
            ]
            calls = []
            for argv in argvs:
                code = main(argv)
                calls.append((code, *capsys.readouterr()))
            files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
            return calls, files

        builds = []
        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
        cli._parser.cache_clear()
        cached = session(tmp_path / "cached")
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", real_build)
        fresh = session(tmp_path / "fresh")
        assert [c[0] for c in cached[0]] == [0, 2, 2, 0, 0, 0]
        assert "unrecognized arguments: --no-such-flag" in cached[0][1][2]
        assert "unknown flag 'broken'" in cached[0][2][2]
        assert cached == fresh


def _canonical(data: bytes) -> bytes:
    return (json.dumps(json.loads(data), sort_keys=True, allow_nan=False) + "\n").encode()


class TestJsonFiles:
    def test_every_json_file_is_one_line_of_canonical_json(self, tmp_path, capsys):
        (tmp_path / "steps.txt").write_text(
            "event,21,thermal,temp_c=200,env=glovebox,hold_min=10\n"
            "event,22,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n")
        w = str(tmp_path)
        assert run("simulate", "--preset", "chip2", "--target-days", "20", "--seed", "3",
                   "--out", f"{w}/data.csv") == 0
        assert run("fit", f"{w}/data.csv", "--out", f"{w}/report.json") in (0, 3)
        assert run("predict", "--report", f"{w}/report.json", "--target-days", "27",
                   "--out", f"{w}/pred.json") == 0
        assert run("predict", "--preset", "chip2", "--from-days", "5", "--target-days", "20",
                   "--out", f"{w}/preset-pred.json") == 0
        assert run("anneal", f"{w}/data.csv", "--events", f"{w}/steps.txt", "--preset",
                   "chip2", "--seed", "3", "--out", f"{w}/annealed.csv") == 0
        written = sorted(p.name for p in tmp_path.glob("*.json"))
        assert written == ["annealed.steps.json", "data.summary.json", "pred.json",
                           "preset-pred.json", "report.json"]
        for name in written:
            data = (tmp_path / name).read_bytes()
            assert data == _canonical(data), name
            assert data.count(b"\n") == 1, name

    def test_reports_in_the_earlier_indented_layout_read_alike(self, tmp_path, capsys,
                                                              fit_report, fit_report_v1):
        # Until schema 2's layout went compact, reports were written with
        # indent=2; the schema did not change, so those files still read.
        runs, reports = [], []
        for d in (fit_report, fit_report_v1):
            compact = json.dumps(d, sort_keys=True, allow_nan=False) + "\n"
            for layout, text in (("compact", compact), ("indented", json.dumps(
                    d, sort_keys=True, indent=2, allow_nan=False) + "\n")):
                work = tmp_path / f"v{d['schema_version']}-{layout}"
                work.mkdir()
                (work / "report.json").write_text(text)
                reports.append(read_report(work / "report.json"))
                code = run("predict", "--report", str(work / "report.json"),
                           "--target-days", "30", "--out", str(work / "pred.json"))
                runs.append((code, capsys.readouterr(), (work / "pred.json").read_bytes()))
            assert text.count("\n") > 1 and compact.count("\n") == 1
        assert reports[0] == reports[1] and reports[2] == reports[3]
        assert runs[0][0] == 0 and runs.count(runs[0]) == 4
