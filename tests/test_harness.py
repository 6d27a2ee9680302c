import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfjump
import mfjump.cli as cli
import mfjump.harness as harness
from mfjump.cli import main as cli_main
from mfjump.drivers import PICARD_REPLICA
from mfjump.harness import (
    ConfigError,
    SimConfig,
    SweepError,
    run_chaos_sweep,
    run_diagnostics,
    run_validate,
)
from mfjump.metrics import fit_rate
from mfjump.particle import NumericalBlowupError


def _config_dict(out_dir, **run_kw):
    run = {"T": 0.5, "dt": 0.05, "Ns": [4, 8, 16], "replicas": 3, "seed": 99, "workers": 0}
    run.update(run_kw)
    return {
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {"collateral_amp": 0.0}},
        "run": run,
        "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
        "limit": {"ensemble": 128, "picard_tol": 1e-3, "picard_max_iter": 4},
        "output": {"dir": str(out_dir)},
    }


def test_config_roundtrip(tmp_path):
    d = _config_dict(tmp_path / "run")
    cfg = SimConfig.from_dict(d)
    assert cfg.run.T == 0.5
    assert list(cfg.run.Ns) == [4, 8, 16]
    # to_dict -> from_dict is stable
    again = SimConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys(tmp_path):
    d = _config_dict(tmp_path)
    d["run"]["dtt"] = 0.1
    with pytest.raises(ConfigError, match="dtt"):
        SimConfig.from_dict(d)
    d = _config_dict(tmp_path)
    d["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        SimConfig.from_dict(d)


def test_config_requires_schema(tmp_path):
    d = _config_dict(tmp_path)
    del d["schema"]
    with pytest.raises(ConfigError, match="schema"):
        SimConfig.from_dict(d)
    d = _config_dict(tmp_path)
    d["schema"] = 99
    with pytest.raises(ConfigError):
        SimConfig.from_dict(d)


def test_config_invariants(tmp_path):
    with pytest.raises(ConfigError):
        SimConfig.from_dict(_config_dict(tmp_path, T=-1.0))
    with pytest.raises(ConfigError):
        SimConfig.from_dict(_config_dict(tmp_path, Ns=[8, 8]))
    with pytest.raises(ConfigError):
        SimConfig.from_dict(_config_dict(tmp_path, Ns=[16, 8]))
    # the exact scheme parses for a model that allows it
    d = _config_dict(tmp_path, scheme="exact")
    d["model"] = {"id": "neuronal", "params": {}}
    d["init"] = {"kind": "uniform"}
    assert SimConfig.from_dict(d).run.scheme == "exact"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("stepping", "candidate_cap", 0),  # was a ZeroDivisionError mid-run
        ("stepping", "candidate_cap", -1.0),  # ran one sub-step per cell
        ("stepping", "candidate_cap", float("nan")),  # was a bare ValueError mid-run
        ("stepping", "candidate_cap", float("inf")),
        ("stepping", "max_retries", -1),
        ("run", "Ns", [0, 8, 16]),
        ("run", "Ns", [-4, 8, 16]),
        ("run", "Ns", [1.5, 8, 16]),
        ("limit", "ensemble", -1),
        ("run", "replicas", 1.5),  # was a raw TypeError in run_diagnostics
        ("run", "replicas", 0),
        ("run", "replicas", 2**20 + 1),  # replica_stream_key(0, 2**20) was replica_stream_key(1, 0)
        ("stepping", "bound_mult", -1.0),  # every cell failed
        ("stepping", "bound_mult", float("inf")),
        ("stepping", "bound_add", float("nan")),  # was "thresholds must be positive"
        ("limit", "picard_tol", 0),  # was "tol must be positive" after validate_model and config.echo
        ("limit", "picard_tol", float("nan")),
        ("limit", "picard_max_iter", 1.5),  # was a raw TypeError
        ("run", "workers", 1.5),  # was a raw TypeError
        ("run", "scheme", "bogus"),  # failed inside solve_limit
        ("init", "kind", "bogus"),  # failed inside solve_limit
        ("init", "mean", [0, 1]),  # d=1 model: was a raw reshape ValueError
        ("limit", "picard_tol", float("inf")),
        ("limit", "picard_max_iter", 0),
        ("run", "workers", -1),
        ("run", "scheme", "exact"),  # lipschitz-demo has diffusion: failed inside solve_limit
        ("model", "params", {"jump_scale": 2.0}),
        ("run", "T", "abc"),  # was a raw TypeError from RunSection
        ("diagnostics", "moment_powers", [7]),  # every cell failed
        ("diagnostics", "moment_powers", 4),  # every cell failed
        ("diagnostics", "moment_powers", [4, 4]),  # diagnostics.csv got the m4 columns twice
        ("diagnostics", "jump_thresholds", [-1]),  # rejected only after every cell ran
        ("limit", "ensemble", 1.5),
        ("limit", "ensemble", 1001),  # the noise floor's halves differ: failed after every sweep
        ("limit", "ensemble", 1),
        ("run", "seed", "abc"),  # every cell failed
        ("stepping", "candidate_cap", "abc"),  # was a raw TypeError at parse time
        ("stepping", "max_retries", "abc"),
        ("stepping", "max_retries", 1.5),
        ("init", "std", "abc"),  # parsed, then every cell failed
        ("init", "low", "abc"),
        ("init", "point", ["a"]),
        ("init", "mean", 5),
        ("output", "dir", 5),  # every cell ran, then a raw TypeError from Path(5)
        ("output", "dir", None),
        ("run", "Ns", 5),  # was a raw TypeError from list(5)
        ("run", "Ns", None),
        # an integer above the largest float: run.T parsed, then chaos-sweep ended in an OverflowError traceback
        *(pytest.param(section, key, value, id=f"{section}-{key}-above-floats") for section, key, value in (
            ("run", "T", 10**400), ("run", "dt", 10**400), ("init", "std", 10**400),
            ("stepping", "candidate_cap", 10**400), ("limit", "picard_tol", 10**400),
            ("diagnostics", "jump_thresholds", [10**400]),
        )),
    ],
)
def test_config_rejects_values_that_would_fail_mid_run(tmp_path, section, key, value):
    d = _config_dict(tmp_path)
    d.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        SimConfig.from_dict(d)


def test_config_rejects_more_Ns_than_the_stream_keys_hold(tmp_path):
    # the keys of 2**20 replicas of 2**20 Ns stay below the limit solve's streams; one more N reaches them
    assert harness.replica_stream_key(2**20 - 1, 2**20 - 1) < PICARD_REPLICA == harness.replica_stream_key(2**20, 0)
    d = _config_dict(tmp_path, Ns=list(range(1, 2**20 + 2)))
    with pytest.raises(ConfigError, match=r"^run.Ns must have at most 1048576 entries, got 1048577$"):
        SimConfig.from_dict(d)



def test_config_file_reads_an_exponent_without_a_dot_as_a_number(tmp_path):
    # YAML 1.1 reads 1e-3 as the string '1e-3', which limit.picard_tol rejected
    d = _config_dict(tmp_path / "out")
    del d["limit"]
    base = yaml.safe_dump(d)
    configs = {}
    for name, tol in (("plain", "1e-3"), ("dotted", "1.0e-3"), ("quoted", "'1e-3'")):
        path = tmp_path / f"{name}.yaml"
        path.write_text(base + f"limit: {{picard_tol: {tol}}}\n")
        configs[name] = path
    cfg = SimConfig.from_file(configs["plain"])
    assert cfg.limit.picard_tol == 0.001
    assert cfg.to_dict() == SimConfig.from_file(configs["dotted"]).to_dict()
    with pytest.raises(ConfigError, match="^limit.picard_tol must be a finite number > 0, got '1e-3'$"):
        SimConfig.from_file(configs["quoted"])
    assert yaml.safe_load("a: 1e-3") == {"a": "1e-3"}  # the global loader is left as it is

def test_default_config_dict_is_pinned():
    # the shape of config.echo and of the report.json manifest: sections, keys, order, defaults
    # (json.dumps keeps insertion order, so equal strings mean equal order)
    assert json.dumps(SimConfig().to_dict()) == json.dumps({
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {}},
        "run": {"T": 1.0, "dt": 0.01, "scheme": "auto", "Ns": [64], "replicas": 4, "seed": 0, "workers": 0},
        "init": {"kind": "gauss", "mean": [0.0], "std": 1.0, "low": 0.0, "high": 1.0, "point": [0.0]},
        "limit": {"ensemble": 0, "picard_tol": 1e-3, "picard_max_iter": 10},
        "stepping": {"bound_mult": 2.0, "bound_add": 1.0, "candidate_cap": 1.0, "max_retries": 8},
        "diagnostics": {"moment_powers": [4], "jump_thresholds": []},
        "output": {"dir": "runs/out"},
    })


def test_config_checks_the_init_vector_its_kind_reads(tmp_path):
    # only the vector the init kind reads must match the model's dim
    d = _config_dict(tmp_path)
    d["model"]["params"]["dim"] = 2
    d["init"] = {"kind": "gauss", "mean": [0.5, 0.5]}  # point keeps its 1-d default
    assert SimConfig.from_dict(d).init.point == (0.0,)
    d["init"] = {"kind": "point", "point": [0.5]}
    with pytest.raises(ConfigError, match=r"init.point must hold 2 coordinates"):
        SimConfig.from_dict(d)
    d["model"]["id"] = "no-such-model"
    with pytest.raises(ConfigError, match="model.id"):
        SimConfig.from_dict(d)


def test_sweep_zero_collateral_and_rerun_identical(tmp_path):
    cfg = SimConfig.from_dict(_config_dict(tmp_path / "a"))
    report = run_chaos_sweep(cfg)
    # collateral switched off: the interacting and intermediate systems agree
    for row in report.distances["d_xy"]["per_replica"]:
        assert all(v == 0.0 for v in row)
    csv_a = (tmp_path / "a" / "distances.csv").read_bytes()
    assert csv_a.startswith(b"# mfjump-distances-v1")

    cfg_b = SimConfig.from_dict(_config_dict(tmp_path / "b"))
    run_chaos_sweep(cfg_b)
    csv_b = (tmp_path / "b" / "distances.csv").read_bytes()
    assert csv_a == csv_b

    # reports agree but for the output dir they record
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra["report"]["manifest"]["config"]["output"] = rb["report"]["manifest"]["config"]["output"] = None
    assert ra == rb


def test_sweep_worker_count_does_not_change_bytes(tmp_path):
    # in-process cells use the solved flow and cache no copy of its file;
    # pool workers load the file, and the bytes agree
    harness._load_flow.cache_clear()
    cfg1 = SimConfig.from_dict(_config_dict(tmp_path / "w1", workers=0))
    run_chaos_sweep(cfg1)
    assert harness._load_flow.cache_info().currsize == 0
    cfg2 = SimConfig.from_dict(_config_dict(tmp_path / "w2", workers=2))
    run_chaos_sweep(cfg2)
    assert multiprocessing.active_children() == []
    w1, w2 = tmp_path / "w1", tmp_path / "w2"
    plots = sorted(p.name for p in (w1 / "plotdata").glob("*.dat"))
    assert plots and plots == sorted(p.name for p in (w2 / "plotdata").glob("*.dat"))
    for rel in ["distances.csv", "flow.npz", *(f"plotdata/{p}" for p in plots)]:
        assert (w1 / rel).read_bytes() == (w2 / rel).read_bytes(), rel


def test_sweep_report_regenerates_from_manifest(tmp_path):
    cfg = SimConfig.from_dict(_config_dict(tmp_path / "orig"))
    run_chaos_sweep(cfg)
    payload = json.loads((tmp_path / "orig" / "report.json").read_text())
    manifest_cfg = payload["report"]["manifest"]["config"]
    manifest_cfg["output"]["dir"] = str(tmp_path / "regen")
    run_chaos_sweep(SimConfig.from_dict(manifest_cfg))
    orig, regen = tmp_path / "orig", tmp_path / "regen"
    plots = sorted(p.name for p in (orig / "plotdata").glob("*.dat"))
    assert plots and plots == sorted(p.name for p in (regen / "plotdata").glob("*.dat"))
    for rel in ["distances.csv", "flow.npz", *(f"plotdata/{p}" for p in plots)]:
        assert (orig / rel).read_bytes() == (regen / rel).read_bytes(), rel


def test_sweep_partial_failure_persists_other_cells(tmp_path, monkeypatch):
    real = harness.simulate_coupled

    def flaky(systems, spec, T, dt, drivers, **kw):
        if drivers.n == 8 and drivers.replica == harness.replica_stream_key(1, 1):
            raise RuntimeError("injected cell failure")
        return real(systems, spec, T, dt, drivers, **kw)

    monkeypatch.setattr(harness, "simulate_coupled", flaky)
    cfg = SimConfig.from_dict(_config_dict(tmp_path / "p"))
    with pytest.raises(SweepError) as err:
        run_chaos_sweep(cfg)
    assert len(err.value.failures) == 1
    assert str(err.value).startswith("1 of 9 cells failed, first N=8 replica 1: RuntimeError: injected cell failure;")

    text = (tmp_path / "p" / "distances.csv").read_text()
    lines = text.strip().splitlines()
    assert sum("error" in ln for ln in lines) == 1
    assert len(lines) == 2 + 9  # header + column row + 9 cells
    payload = json.loads((tmp_path / "p" / "report.json").read_text())
    assert payload["report"]["manifest"]["status"] == "partial"
    assert payload["report"]["manifest"]["failures"]


def test_sweep_outputs_layout(tmp_path):
    out = tmp_path / "layout"
    cfg = SimConfig.from_dict(_config_dict(out))
    run_chaos_sweep(cfg)
    for name in ("config.echo", "report.json", "distances.csv", "flow.npz"):
        assert (out / name).exists()
    assert (out / "plotdata" / "xlimit.dat").exists()
    echoed = yaml.safe_load((out / "config.echo").read_text())
    assert SimConfig.from_dict(echoed).to_dict() == cfg.to_dict()


def test_diagnostics_constant_rate_mean_jumps(tmp_path):
    # rate identically 1: mean jumps per particle matches T within 3 SE
    d = {
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {"rate_slope": 0.0, "rate_base": 1.0}},
        "run": {"T": 2.0, "dt": 0.05, "Ns": [64], "replicas": 8, "seed": 5, "workers": 0},
        "init": {"kind": "gauss", "mean": [0.5], "std": 0.5},
        "diagnostics": {"moment_powers": [1, 4]},
        "output": {"dir": str(tmp_path / "diag")},
    }
    bundle = run_diagnostics(SimConfig.from_dict(d))
    ratios = np.asarray([c["jumps_per_particle"] for c in bundle.cells])
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    assert abs(ratios.mean() - 2.0) < 3 * se + 1e-9
    # constant rate: the moment series is exactly 1, slope 0
    v = bundle.moment_verdicts[(64, 1)]
    assert v["series_mean"] == pytest.approx(1.0, abs=1e-12)
    assert v["verdict"] == "bounded"
    assert (tmp_path / "diag" / "diagnostics.csv").exists()
    assert (tmp_path / "diag" / "diagnostics.json").exists()


def test_moment_verdict_is_bounded_growing_or_indeterminate(tmp_path, monkeypatch, capsys):
    # canned slopes of two replicas per N against a threshold of 0.05 (5% of
    # a series mean of 1): the slope CI lies below it at N=4, above it at
    # N=8, and holds it at N=16, whose mean slope is negative
    slopes = {4: (0.0, 0.002), 8: (0.2, 0.202), 16: (-0.02, 0.0)}
    replica = {harness.replica_stream_key(ni, r): r for ni in range(3) for r in range(2)}

    def canned(config, spec, bundle, flow):
        slope = slopes[bundle.n][replica[bundle.replica]]
        moment = {"mean": 1.0, "second_half_mean": 1.0, "trend_slope": slope, "trend_se": 0.01}
        return {"jump_count": bundle.n, "jumps_per_particle": 1.0, "moments": {4: moment}}

    monkeypatch.setattr(harness, "_diag_values", canned)
    d = _diag_config(tmp_path / "diag")
    d["run"].update(Ns=[4, 8, 16], replicas=2)
    d["diagnostics"] = {"moment_powers": [4]}
    (tmp_path / "diag.yaml").write_text(yaml.safe_dump(d))
    assert cli_main(["diagnostics", "--config", str(tmp_path / "diag.yaml")]) == 0
    payload = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())["moment_verdicts"]
    verdicts = {"N4_p4": "bounded", "N8_p4": "growing", "N16_p4": "indeterminate"}
    assert {k: v["verdict"] for k, v in payload.items()} == verdicts
    lo, hi = payload["N16_p4"]["slope_ci"]
    assert payload["N16_p4"]["slope_mean"] < 0 and lo < payload["N16_p4"]["threshold"] < hi
    printed = [ln for ln in capsys.readouterr().out.splitlines() if " moment p=4: " in ln]
    assert [ln.rsplit(" -> ", 1)[1] for ln in printed] == list(verdicts.values())


def _diag_config(out_dir):
    return {
        "schema": 1,
        "model": {"id": "neuronal", "params": {}},
        "run": {"T": 0.5, "dt": 0.05, "Ns": [8, 32], "replicas": 3, "seed": 7, "workers": 0},
        "init": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "output": {"dir": str(out_dir)},
    }


def _fail_diag_cells(monkeypatch, cells):
    """``simulate`` raises in the given (N index, replica) cells."""
    real = harness.simulate
    keys = {harness.replica_stream_key(ni, r) for ni, r in cells}

    def flaky(system, spec, T, dt, drivers, **kw):
        if drivers.replica in keys:
            raise RuntimeError("injected cell failure")
        return real(system, spec, T, dt, drivers, **kw)

    monkeypatch.setattr(harness, "simulate", flaky)


def test_diagnostics_partial_failure_writes_other_cells(tmp_path, monkeypatch):
    full = run_diagnostics(SimConfig.from_dict(_diag_config(tmp_path / "full")))
    _fail_diag_cells(monkeypatch, [(1, 1)])
    with pytest.raises(SweepError) as err:
        run_diagnostics(SimConfig.from_dict(_diag_config(tmp_path / "p")))
    assert len(err.value.failures) == 1
    assert str(err.value).startswith("1 of 6 cells failed, first N=32 replica 1: RuntimeError: injected cell failure;")

    lines = (tmp_path / "p" / "diagnostics.csv").read_text().splitlines()
    full_lines = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2 + 5  # header + column row + the 5 good cells
    assert lines == [ln for ln in full_lines if not ln.startswith("32,1,")]
    payload = json.loads((tmp_path / "p" / "diagnostics.json").read_text())
    assert payload["manifest"]["status"] == "partial"
    assert payload["manifest"]["failures"] == [
        {"N": 32, "replica": 1, "error": "RuntimeError: injected cell failure"}
    ]
    # N=8 is untouched; N=32 is aggregated over its two good cells
    assert payload["moment_verdicts"]["N8_p4"] == json.loads(
        json.dumps(full.moment_verdicts[(8, 4)])
    )
    assert set(payload["jump_tails"]) == {"8", "32"}
    assert full.manifest["status"] == "complete" and full.manifest["failures"] == []


def test_diagnostics_without_good_cells_for_an_n(tmp_path, monkeypatch):
    # an N with no good cell gets no verdict and no tail row; the default
    # jump threshold comes from the largest N that has good cells
    full = run_diagnostics(SimConfig.from_dict(_diag_config(tmp_path / "full")))
    _fail_diag_cells(monkeypatch, [(1, r) for r in range(3)])
    with pytest.raises(SweepError, match="^3 of 6 cells failed, first N=32 replica 0: "):
        run_diagnostics(SimConfig.from_dict(_diag_config(tmp_path / "p")))
    payload = json.loads((tmp_path / "p" / "diagnostics.json").read_text())
    assert sorted(payload["moment_verdicts"]) == ["N8_p4"]
    assert sorted(payload["jump_tails"]) == ["8"]
    ratios_8 = [c["jumps_per_particle"] for c in full.cells if c["N"] == 8]
    assert payload["jump_tails"]["8"]["thresholds"] == [2.0 * float(np.mean(ratios_8))]
    assert len((tmp_path / "p" / "diagnostics.csv").read_text().splitlines()) == 2 + 3


def _printed_jump_sd(out: str) -> dict:
    """The sd lines that ``mfjump diagnostics`` prints, in the form of diagnostics.json's ``jump_sd``."""
    per_n = {m[1]: float(m[2]) for m in re.finditer(r"^N=(\d+) sd\(jumps/N\) = (\S+)$", out, re.M)}
    fit = re.search(r"^sd\(jumps/N\) rate: (?:null|slope=(\S+) CI=\((\S+), (\S+)\))$", out, re.M)
    return {"per_N": per_n, "fit": fit[1] and {"slope": float(fit[1]), "slope_ci": [float(fit[2]), float(fit[3])]}}


def test_diagnostics_report_the_jump_count_sd_and_its_rate(tmp_path, monkeypatch, capsys):
    # beside the jump tails, which read 0 when no replica reaches the threshold, diagnostics.json holds the
    # cross-replica sd of jumps per particle at each N with 2 good replicas and, given 3 such Ns, its fit in N;
    # the console report prints the same values
    d = _diag_config(tmp_path / "full")
    d["run"].update(T=1.0, Ns=[8, 16, 32])
    (tmp_path / "full.yaml").write_text(yaml.safe_dump(d))
    assert cli_main(["diagnostics", "--config", str(tmp_path / "full.yaml")]) == 0
    printed = _printed_jump_sd(capsys.readouterr().out)
    rows = [r.split(",") for r in (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()[2:]]
    sds = {N: float(np.std([float(r[2]) for r in rows if r[0] == str(N)], ddof=1)) for N in (8, 16, 32)}
    fit = fit_rate(list(sds), list(sds.values()))
    payload = json.loads((tmp_path / "full" / "diagnostics.json").read_text())["jump_sd"]
    assert payload["per_N"] == {str(N): sd for N, sd in sds.items()}
    assert payload["fit"] == json.loads(json.dumps(dataclasses.asdict(fit)))
    assert all(sd > 0 for sd in sds.values()) and -2.0 < fit.slope < 0.0
    assert printed == {"per_N": payload["per_N"], "fit": {k: payload["fit"][k] for k in ("slope", "slope_ci")}}
    # two good replicas left at N=16 still count; one left at N=32 drops it, and two Ns get no fit
    _fail_diag_cells(monkeypatch, [(1, 0), (2, 0), (2, 1)])
    with pytest.raises(SweepError):
        run_diagnostics(SimConfig.from_dict(dict(d, output={"dir": str(tmp_path / "p")})))
    payload = json.loads((tmp_path / "p" / "diagnostics.json").read_text())["jump_sd"]
    assert sorted(payload["per_N"]) == ["16", "8"] and payload["per_N"]["8"] == sds[8]
    assert payload["fit"] is None


def test_diagnostics_without_jumps_sets_no_default_threshold(tmp_path, capsys):
    # no cell of the largest N jumps: 2x its mean ratio would be 0, so no
    # default threshold is set, the tail rows are empty and the files are written
    d = {
        "schema": 1,
        "model": {"id": "neuronal", "params": {}},
        "run": {"T": 0.01, "dt": 0.01, "Ns": [4], "replicas": 2, "seed": 0, "workers": 0},
        "init": {"kind": "uniform"},
        "output": {"dir": str(tmp_path / "quiet")},
    }
    path = tmp_path / "quiet.yaml"
    path.write_text(yaml.safe_dump(d))
    assert cli_main(["diagnostics", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "P(jumps/N" not in out
    payload = json.loads((tmp_path / "quiet" / "diagnostics.json").read_text())
    # one N whose replicas made no jump: its sd is 0 and there is no fit
    assert _printed_jump_sd(out) == payload["jump_sd"] == {"per_N": {"4": 0.0}, "fit": None}
    assert payload["jump_tails"] == {"4": {"thresholds": [], "tail_prob": [], "wilson_lo": [], "wilson_hi": []}}
    rows = (tmp_path / "quiet" / "diagnostics.csv").read_text().splitlines()[2:]
    assert [r.split(",")[2] for r in rows] == ["0.0", "0.0"]


def test_diagnostics_csv_without_moment_powers_has_three_columns(tmp_path):
    d = _diag_config(tmp_path / "plain")
    d["run"].update(Ns=[4], replicas=2)
    d["diagnostics"] = {"moment_powers": []}
    run_diagnostics(SimConfig.from_dict(d))
    lines = (tmp_path / "plain" / "diagnostics.csv").read_text().splitlines()
    assert lines[1] == "N,replica,jumps_per_particle"
    assert [len(row.split(",")) for row in lines[2:]] == [3, 3]


def test_diagnostics_single_particle_warns(tmp_path):
    d = {
        "schema": 1,
        "model": {"id": "lipschitz-demo", "params": {}},
        "run": {"T": 0.2, "dt": 0.05, "Ns": [1], "replicas": 2, "seed": 5, "workers": 0},
        "output": {"dir": str(tmp_path / "n1")},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_diagnostics(SimConfig.from_dict(d))
    assert any("degenerate" in str(w.message) for w in caught)


def test_run_validate_wrapper():
    report = run_validate("lipschitz-demo", {})
    assert report.verdict == "pass"


@pytest.fixture
def forked_pool(monkeypatch):
    # the pool tests patch harness functions; forked workers see the patches
    # under any default start method
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


def _failed_verdict():
    from mfjump.models import AssumptionReport, ConditionResult

    return AssumptionReport(
        model_class="lipschitz",
        conditions=(ConditionResult("drift-lipschitz", "fail"),),
        probe_budget=1,
    )


def test_sweep_force_gates_failed_validation(tmp_path, monkeypatch, forked_pool):
    # with a pool the probes run in a worker beside the limit solve; either
    # way the verdict gates the sweep before any file is written
    from mfjump.drivers import InvalidInputError

    canned = _failed_verdict()
    monkeypatch.setattr(harness, "validate_model", lambda *a, **k: canned)
    for workers in (0, 2):
        out = tmp_path / f"f{workers}"
        cfg = SimConfig.from_dict(_config_dict(out, workers=workers))
        with pytest.raises(InvalidInputError, match="force"):
            run_chaos_sweep(cfg)
        assert not (out / "config.echo").exists()
        assert not (out / "flow.npz").exists()
        assert multiprocessing.active_children() == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_chaos_sweep(cfg, force=True)
        assert any("failed assumption validation" in str(w.message) for w in caught)
        assert (out / "distances.csv").exists()
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, 2])
def test_failed_verdict_wins_over_failed_limit_solve(tmp_path, monkeypatch, forked_pool, workers):
    from mfjump.drivers import InvalidInputError

    def broken_solve(*a, **k):
        raise RuntimeError("injected solve failure")

    monkeypatch.setattr(harness, "solve_limit", broken_solve)
    cfg = SimConfig.from_dict(_config_dict(tmp_path / "s", workers=workers))
    with pytest.raises(RuntimeError, match="injected solve failure"):
        run_chaos_sweep(cfg)  # the model passes: the solve's own error surfaces
    canned = _failed_verdict()
    monkeypatch.setattr(harness, "validate_model", lambda *a, **k: canned)
    with pytest.raises(InvalidInputError, match="force"):
        run_chaos_sweep(cfg)
    assert not (tmp_path / "s" / "config.echo").exists()
    assert multiprocessing.active_children() == []


def test_map_cells_submits_largest_n_first_and_returns_cell_order():
    class RecordingPool:
        def __init__(self):
            self.submitted = []

        def submit(self, fn, arg):
            self.submitted.append(arg)
            future = Future()
            future.set_result(fn(arg))
            return future

    args = [("cfg", ni, N, r) for ni, N in enumerate([4, 8, 16]) for r in range(2)]
    pool = RecordingPool()
    out = harness._map_cells(lambda a: a[2:], args, pool)
    assert [a[2:] for a in pool.submitted] == [(16, 0), (16, 1), (8, 0), (8, 1), (4, 0), (4, 1)]
    assert out == [(4, 0), (4, 1), (8, 0), (8, 1), (16, 0), (16, 1)]
    assert harness._map_cells(lambda a: a[2:], args) == out  # no pool: in process, in cell order


def test_diagnostics_worker_count_does_not_change_bytes(tmp_path):
    outs = []
    for workers in (0, 2):
        d = {
            "schema": 1,
            "model": {"id": "neuronal", "params": {}},
            "run": {"T": 0.5, "dt": 0.05, "Ns": [8, 32], "replicas": 3, "seed": 7, "workers": workers},
            "init": {"kind": "uniform", "low": 0.0, "high": 1.0},
            "output": {"dir": str(tmp_path / f"w{workers}")},
        }
        run_diagnostics(SimConfig.from_dict(d))
        outs.append((tmp_path / f"w{workers}" / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]
    assert multiprocessing.active_children() == []


# -- CLI ---------------------------------------------------------------------


def test_cli_validate_exit_codes(monkeypatch):
    assert cli_main(["validate", "--model", "lipschitz-demo"]) == 0
    # zoo models pass by construction; exercise the fail/indeterminate exit
    # codes through the verdict mapping itself
    import mfjump.cli as cli
    from mfjump.models import AssumptionReport, ConditionResult

    for verdict, code in (("fail", 2), ("indeterminate", 3)):
        canned = AssumptionReport(
            model_class="lipschitz",
            conditions=(ConditionResult("drift-lipschitz", verdict),),
            probe_budget=1,
        )
        monkeypatch.setattr(cli, "run_validate", lambda *a, canned=canned, **k: canned)
        assert cli_main(["validate", "--model", "lipschitz-demo"]) == code


def test_cli_wasserstein(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x\n0.0\n0.0\n3.0\n")
    b.write_text("x\n1.0\n1.0\n1.0\n")
    assert cli_main(["wasserstein", str(a), str(b)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(4.0 / 3.0)
    # only the first row may be a header: a later unparseable row or a
    # ragged row is an error naming the file and line, never skipped
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n0.1\n0.5\nabc\n0.9\n")
    with pytest.raises(SystemExit, match=r"bad\.csv, line 4"):
        cli_main(["wasserstein", str(bad), str(b)])
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.1,0.2\n0.3\n")
    with pytest.raises(SystemExit, match=r"ragged\.csv, line 2"):
        cli_main(["wasserstein", str(ragged), str(b)])
    # samples the library rejects exit with the command and its reason
    big_a, big_b = tmp_path / "big_a.csv", tmp_path / "big_b.csv"
    big_a.write_text("0.0 1.0\n" * 600)
    big_b.write_text("1.0 0.0\n" * 600)
    capsys.readouterr()
    assert cli_main(["wasserstein", str(big_a), str(big_b)]) == 1
    assert capsys.readouterr().err.startswith("mfjump wasserstein: n=600 exceeds assignment cap 512")
    # 1-D samples above the cap need no assignment
    big_a.write_text("0.0\n" * 600)
    big_b.write_text("1.0\n" * 600)
    assert cli_main(["wasserstein", str(big_a), str(big_b)]) == 0
    assert capsys.readouterr().out == "1.0\n"
    nan = tmp_path / "nan.csv"
    nan.write_text("x\nnan\n0.0\n3.0\n")
    assert cli_main(["wasserstein", str(nan), str(b)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mfjump wasserstein: ") and "1 rows of a and 0 rows of b hold NaN or inf" in err


def test_cli_validate_rejected_input_exits_with_one_line():
    # input the library rejects ends the installed command with its reason
    # and exit status 1, not a traceback
    src = str(Path(mfjump.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mfjump.cli", "validate", "--model", "neuronal", "--budget", "-3"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == "mfjump validate: probe budget must be at least 1, got -3\n"



def test_cli_diagnostics_with_an_infinite_start_rate_exits_with_one_line(tmp_path):
    # neuronal's rate at a 1e160 point init overflows to inf; every cell used to end in an OverflowError
    d = _diag_config(tmp_path / "out")
    d["run"].update(T=0.1, Ns=[8], replicas=2)
    d["init"] = {"kind": "point", "point": [1.0e160]}
    (tmp_path / "big.yaml").write_text(yaml.safe_dump(d))
    src = str(Path(mfjump.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mfjump.cli", "diagnostics", "--config", str(tmp_path / "big.yaml")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "mfjump diagnostics: 2 of 2 cells failed, first N=8 replica 0: RateBoundViolation: "
        f"rate inf for particle 0 at t=0 is not finite; partial results in {tmp_path / 'out'}\n"
    )


@pytest.mark.parametrize("command", ["simulate", "chaos-sweep"])
def test_cli_engine_error_outside_a_cell_exits_with_one_line(tmp_path, command):
    # simulate steps outside any sweep cell, and chaos-sweep's limit solve raises before one runs;
    # both used to end in a traceback
    d = _diag_config(tmp_path / "out")
    d["run"].update(T=0.1, Ns=[8], replicas=2)
    d["init"] = {"kind": "point", "point": [1.0e160]}
    (tmp_path / "big.yaml").write_text(yaml.safe_dump(d))
    src = str(Path(mfjump.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mfjump.cli", command, "--config", str(tmp_path / "big.yaml")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == f"mfjump {command}: RateBoundViolation: rate inf for particle 0 at t=0 is not finite\n"


def test_cli_blowup_outside_a_cell_exits_with_one_line(tmp_path, monkeypatch, capsys):
    cfg = _diag_config(tmp_path / "out")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    def blowup(*args, **kwargs):
        raise NumericalBlowupError(0.25, np.full((8, 1), np.inf), "X")

    monkeypatch.setattr(cli, "simulate", blowup)
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "mfjump simulate: NumericalBlowupError: non-finite positions in system X at t=0.25\n"


def test_cli_validate_reads_an_exponent_param_as_a_number(capsys):
    # --param rate_gamma=2e-1 used to end in a TypeError traceback
    reports = []
    for value in ("2e-1", "0.2"):
        assert cli_main(["validate", "--model", "neuronal", "--budget", "20", "--param", f"rate_gamma={value}"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["neuronal", "--param", "rate_gamma=abc"],
    ["neuronal", "--param", "reset_max=abc"],  # used to print "overall: pass"
    ["lipschitz-demo", "--param", "interaction=abc"],
    ["lipschitz-demo", "--param", "jump_scale=abc"],
])
def test_cli_validate_rejects_a_param_that_is_not_a_number(argv, capsys):
    key = argv[2].partition("=")[0]
    assert cli_main(["validate", "--model", *argv]) == 1
    assert capsys.readouterr().err == f"mfjump validate: {key} must be a number, got 'abc'\n"

def test_cli_chaos_sweep_bad_config_exits_with_its_reason(tmp_path, capsys):
    cfg = _config_dict(tmp_path / "out")
    cfg["run"]["dtt"] = 0.1
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["chaos-sweep", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "mfjump chaos-sweep: unknown keys in config section 'run': ['dtt']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["chaos-sweep", "diagnostics"])
def test_cli_partial_sweep_exits_1_with_one_line(tmp_path, monkeypatch, capsys, command):
    # a failed cell: the good cells' outputs are written, and the command
    # ends with status 1 and one stderr line naming the first failure
    if command == "chaos-sweep":
        cfg = _config_dict(tmp_path / "out")
        real = harness.simulate_coupled

        def flaky(systems, spec, T, dt, drivers, **kw):
            if drivers.replica == harness.replica_stream_key(1, 1):
                raise RuntimeError("injected cell failure")
            return real(systems, spec, T, dt, drivers, **kw)

        monkeypatch.setattr(harness, "simulate_coupled", flaky)
        written = "distances.csv"
    else:
        cfg = _diag_config(tmp_path / "out")
        _fail_diag_cells(monkeypatch, [(1, 1)])
        written = "diagnostics.csv"
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli_main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(f"mfjump {command}: 1 of ")
    assert "replica 1: RuntimeError: injected cell failure" in err
    assert (tmp_path / "out" / written).exists()


def test_cli_simulate_writes_versioned_files(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(_config_dict(tmp_path / "sim", Ns=[8])))
    assert cli_main(["simulate", "--config", str(cfg_path), "--system", "X"]) == 0
    paths_file = tmp_path / "sim" / "paths_X.csv"
    jump_file = tmp_path / "sim" / "jumplog_X.csv"
    assert paths_file.read_text().startswith("# mfjump-paths-v1\n")
    assert jump_file.read_text().startswith("# mfjump-jumplog-v1\n")


def test_cli_chaos_sweep_and_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(_config_dict(tmp_path / "c1")))
    assert cli_main(["chaos-sweep", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "slope" in out
    # a different seed changes the distances file
    assert cli_main(["chaos-sweep", "--config", str(cfg_path), "--seed", "123",
                     "--out", str(tmp_path / "c2")]) == 0
    assert (tmp_path / "c1" / "distances.csv").read_bytes() != (
        tmp_path / "c2" / "distances.csv"
    ).read_bytes()


def test_stdtrit_equals_scipy_stats_t_ppf():
    # the moment verdict's Student t quantile is scipy.special's compiled
    # stdtrit, which avoids importing scipy.stats; it must keep the bits of
    # the ppf it replaced
    from scipy.stats import t as student_t

    from mfjump.harness import stdtrit

    for df in range(1, 200):
        for level in (0.9, 0.95, 0.975, 0.995):
            assert float(stdtrit(df, level)) == float(student_t.ppf(level, df))
