"""Experiment orchestration: config, sweeps, persistence.

Configs are strict YAML trees with a schema version; unknown keys are
errors, because silent config drift is the main reproducibility hazard.
With ``run.workers > 1`` a sweep opens one process pool: the assumption
probes run in it beside the limit solve, then the work cells (N, replica)
are handed out one at a time, largest N first, and merged in cell order,
so worker count never changes any output byte.  Every report embeds the
full config and seed it was run with and can be regenerated from that
manifest alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .drivers import InvalidInputError, make_driver_bundle, scipy_extension
from .limit import FlowApproximation, coupled_chaos_run, solve_limit
from .metrics import ChaosReport, fit_rate, jump_count_stats, moment_diagnostics
from .models import AssumptionReport, ProbeConfig, validate_model
from .particle import InitSampler, StepPolicy, _integer, _positive, simulate
from .zoo import build, model_ids

PKG_VERSION = "0.1.0"
SCHEMA_VERSION = 1
DISTANCES_HEADER = "# mfjump-distances-v1"
DIAGNOSTICS_HEADER = "# mfjump-diagnostics-v1"
PATHS_HEADER = "# mfjump-paths-v1"
JUMPLOG_HEADER = "# mfjump-jumplog-v1"

stdtrit = scipy_extension("scipy.special._ufuncs").stdtrit


class ConfigError(InvalidInputError):
    pass


class SweepError(RuntimeError):
    """Sweep cells failed; the other cells' results were persisted and flagged partial."""

    def __init__(self, failures: list[dict], n_cells: int, outdir):
        first = failures[0]
        super().__init__(
            f"{len(failures)} of {n_cells} cells failed, first N={first['N']} replica {first['replica']}: "
            f"{first['error']}; partial results in {outdir}"
        )
        self.failures = failures


def _parse_section(cls, data: dict, path: str):
    """Section ``path`` as ``cls``, whose constructor checks it; its ``InvalidInputError`` names ``path.key``."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{path}' must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in config section '{path}': {sorted(unknown)}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except InvalidInputError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


@dataclass(frozen=True)
class ModelSection:
    id: str = "lipschitz-demo"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunSection:
    T: float = 1.0
    dt: float = 0.01
    scheme: str = "auto"
    Ns: tuple = (64,)
    replicas: int = 4
    seed: int = 0
    workers: int = 0

    def __post_init__(self):
        if not _positive(self.T):
            raise ConfigError(f"run.T must be a finite number > 0, got {self.T!r}")
        if not _positive(self.dt):
            raise ConfigError(f"run.dt must be a finite number > 0, got {self.dt!r}")
        if self.scheme not in ("auto", "euler", "exact"):
            raise ConfigError(f"run.scheme must be auto, euler or exact, got {self.scheme!r}")
        if not isinstance(self.Ns, (list, tuple)):
            raise ConfigError(f"run.Ns must be a list of integers, got {self.Ns!r}")
        ns = list(self.Ns)
        if not all(_integer(n) and n >= 1 for n in ns):
            raise ConfigError(f"run.Ns entries must be integers >= 1, got {ns}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("run.Ns must be strictly increasing")
        if not _integer(self.replicas) or self.replicas < 1:
            raise ConfigError(f"run.replicas must be an integer >= 1, got {self.replicas!r}")
        if not _integer(self.seed):
            raise ConfigError(f"run.seed must be an integer, got {self.seed!r}")
        if not _integer(self.workers) or self.workers < 0:
            raise ConfigError(f"run.workers must be an integer >= 0, got {self.workers!r}")


@dataclass(frozen=True)
class LimitSection:
    ensemble: int = 0  # 0 = automatic (16 x largest N)
    picard_tol: float = 1e-3
    picard_max_iter: int = 10

    def __post_init__(self):
        if not _integer(self.ensemble) or self.ensemble < 0:
            raise ConfigError(f"limit.ensemble must be an integer >= 0 (0 = automatic), got {self.ensemble!r}")
        if not _positive(self.picard_tol):
            raise ConfigError(f"limit.picard_tol must be a finite number > 0, got {self.picard_tol!r}")
        if not _integer(self.picard_max_iter) or self.picard_max_iter < 1:
            raise ConfigError(f"limit.picard_max_iter must be an integer >= 1, got {self.picard_max_iter!r}")


@dataclass(frozen=True)
class DiagnosticsSection:
    moment_powers: tuple = (4,)
    jump_thresholds: tuple = ()  # empty = 2x the largest-N mean ratio

    def __post_init__(self):
        powers = self.moment_powers
        if not isinstance(powers, (list, tuple)) or not all(_integer(p) and 1 <= p <= 4 for p in powers):
            raise ConfigError(f"diagnostics.moment_powers must be a list of integers in 1..4, got {powers!r}")
        hs = self.jump_thresholds
        if not isinstance(hs, (list, tuple)) or not all(_positive(h) for h in hs):
            raise ConfigError(f"diagnostics.jump_thresholds must be a list of finite numbers > 0, got {hs!r}")


@dataclass(frozen=True)
class OutputSection:
    dir: str = "runs/out"

    def __post_init__(self):
        if not isinstance(self.dir, str):
            raise ConfigError(f"output.dir must be a string, got {self.dir!r}")


@dataclass(frozen=True)
class SimConfig:
    model: ModelSection = field(default_factory=ModelSection)
    run: RunSection = field(default_factory=RunSection)
    init: InitSampler = field(default_factory=InitSampler)
    limit: LimitSection = field(default_factory=LimitSection)
    stepping: StepPolicy = field(default_factory=StepPolicy)
    diagnostics: DiagnosticsSection = field(default_factory=DiagnosticsSection)
    output: OutputSection = field(default_factory=OutputSection)

    def __post_init__(self):
        try:
            spec = build(self.model.id, self.model.params)
        except (TypeError, ValueError) as exc:  # InvalidInputError is a ValueError
            where = "model.params" if self.model.id in model_ids() else "model.id"
            raise ConfigError(f"{where}: {exc}") from exc
        if self.run.scheme == "exact" and not spec.exact_linear_ok:
            raise ConfigError(f"run.scheme: exact needs a pull-to-origin, diffusion-free model; {self.model.id} is not one")
        key = {"gauss": "mean", "point": "point"}.get(self.init.kind)
        if key and np.shape(getattr(self.init, key)) != (spec.dim,):
            raise ConfigError(f"init.{key} must hold {spec.dim} coordinates (model dim), got {getattr(self.init, key)!r}")

    @staticmethod
    def from_dict(data: dict) -> "SimConfig":
        data = dict(data)
        schema = data.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        sections = {f.name: f.default_factory for f in dataclasses.fields(SimConfig)}
        unknown = set(data) - set(sections)
        if unknown:
            raise ConfigError(f"unknown top-level config sections: {sorted(unknown)}")
        return SimConfig(**{
            name: _parse_section(cls, data[name], name) for name, cls in sections.items() if name in data
        })

    @staticmethod
    def from_file(path) -> "SimConfig":
        with open(path) as fh:
            data = yaml.safe_load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        return SimConfig.from_dict(data)

    def to_dict(self) -> dict:
        out = {"schema": SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            section = dataclasses.asdict(getattr(self, f.name))
            for k, v in list(section.items()):
                if isinstance(v, tuple):
                    section[k] = list(v)
            out[f.name] = section
        return out

    def with_overrides(self, seed=None, workers=None, out=None) -> "SimConfig":
        cfg = self
        if seed is not None:
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=int(seed)))
        if workers is not None:
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, workers=int(workers)))
        if out is not None:
            cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, dir=str(out)))
        return cfg


# -- persistence helpers ----------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def save_paths_csv(paths, fh) -> None:
    """Columnar path record: one row per (grid time, particle)."""
    d = paths.positions.shape[2]
    cols = ",".join(f"x{k+1}" for k in range(d))
    fh.write(f"{PATHS_HEADER}\nt,particle,{cols}\n")
    for gi, t in enumerate(paths.times):
        for i in range(paths.n_particles):
            vals = ",".join(_fmt(v) for v in paths.positions[gi, i])
            fh.write(f"{_fmt(t)},{i},{vals}\n")


def save_jumplog_csv(paths, fh) -> None:
    fh.write(f"{JUMPLOG_HEADER}\nt,jumper,amp_norm\n")
    for t, j, pre, post in zip(paths.jump_times, paths.jump_particles, paths.jump_pre, paths.jump_post):
        amp = float(np.linalg.norm(post - pre))
        fh.write(f"{_fmt(t)},{int(j)},{_fmt(amp)}\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- chaos sweep ------------------------------------------------------------

_FLOW_CACHE: dict[tuple, FlowApproximation] = {}


def _load_flow_cached(path: str) -> FlowApproximation:
    # keyed by (path, mtime) so a rewritten flow file is never served stale
    key = (path, Path(path).stat().st_mtime_ns)
    if key not in _FLOW_CACHE:
        _FLOW_CACHE.clear()
        _FLOW_CACHE[key] = FlowApproximation.load(path)
    return _FLOW_CACHE[key]


def replica_stream_key(n_index: int, replica: int) -> int:
    """Distinct stream namespace per sweep cell (no reuse across N values)."""
    return (n_index << 20) | replica


def _cell(values, args: tuple) -> dict:
    """One (N, replica) cell of the parsed config: ``values(config, spec, bundle, flow)`` on its own streams."""
    config, flow, n_index, N, replica = args  # flow: the solved flow, its file in a pool worker, or None
    try:
        spec = build(config.model.id, config.model.params)
        if isinstance(flow, str):
            flow = _load_flow_cached(flow)
        bundle = make_driver_bundle(config.run.seed, replica_stream_key(n_index, replica), N)
        return {"N": N, "replica": replica, **values(config, spec, bundle, flow)}
    except Exception as exc:  # noqa: BLE001 - cell failures are data, not crashes
        return {"N": N, "replica": replica, "error": f"{type(exc).__name__}: {exc}"}


def _manifest(config: SimConfig, failures: list[dict]) -> dict:
    """What a sweep ran with, and whether every cell succeeded."""
    return {
        "config": config.to_dict(), "seed": config.run.seed, "package_version": PKG_VERSION,
        "status": "partial" if failures else "complete", "failures": failures,
    }


def _pool(workers: int):
    """The sweep's process pool, or no pool (``None``) for ``workers <= 1``."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()


def _map_cells(fn, args: list, pool=None) -> list:
    """``fn`` over cell args ``(..., N, replica)``, results in args order.

    A pool gets one cell at a time, largest N first (ties in args order),
    so the long cells do not end up last on one worker.
    """
    if pool is None:
        return [fn(a) for a in args]
    futures = {i: pool.submit(fn, args[i]) for i in sorted(range(len(args)), key=lambda i: -args[i][-2])}
    return [futures[i].result() for i in range(len(args))]


def _run_cells(values, config: SimConfig, pool, flow=None) -> tuple[list[dict], list[dict]]:
    """Every (N, replica) cell of ``config`` through ``values``; returns the cells in order and the failed ones."""
    args = [
        (config, flow, ni, int(N), r) for ni, N in enumerate(config.run.Ns) for r in range(config.run.replicas)
    ]
    cells = _map_cells(functools.partial(_cell, values), args, pool)
    return cells, [c for c in cells if "error" in c]


def _gate(report: AssumptionReport, force: bool) -> None:
    if report.verdict == "fail":
        if not force:
            raise InvalidInputError(
                "model failed assumption validation (pass force=True to run anyway):\n"
                + report.summary()
            )
        warnings.warn("running a model that failed assumption validation", stacklevel=3)


def _aggregate_distances(Ns: list[int], cells: list[dict]) -> dict:
    pairs = ("d_xy", "d_ylimit", "d_xlimit")
    out = {p: {"mean": [], "se": [], "per_replica": []} for p in pairs}
    for N in Ns:
        rows = [c for c in cells if c["N"] == N and "error" not in c]
        for p in pairs:
            vals = np.asarray([r[p] for r in rows])
            out[p]["per_replica"].append(vals.tolist())
            if len(vals) == 0:
                out[p]["mean"].append(float("nan"))
                out[p]["se"].append(float("nan"))
            else:
                out[p]["mean"].append(float(vals.mean()))
                se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
                out[p]["se"].append(se)
    return out


def _write_distances_csv(path: Path, cells: list[dict]) -> None:
    lines = [DISTANCES_HEADER, "N,replica,d_xy,d_ylimit,d_xlimit,jumps_per_particle"]
    for c in cells:
        if "error" in c:
            lines.append(f"{c['N']},{c['replica']},error,error,error,error")
        else:
            lines.append(
                f"{c['N']},{c['replica']},{_fmt(c['d_xy'])},{_fmt(c['d_ylimit'])},"
                f"{_fmt(c['d_xlimit'])},{_fmt(c['jumps_per_particle'])}"
            )
    path.write_text("\n".join(lines) + "\n")


def _write_plotdata(plot_dir: Path, Ns: list[int], distances: dict) -> None:
    plot_dir.mkdir(parents=True, exist_ok=True)
    for pair, stats in distances.items():
        lines = ["# log2N log_err log_err_se"]
        for N, mean, se in zip(Ns, stats["mean"], stats["se"]):
            if not np.isfinite(mean) or mean <= 0:
                continue
            yerr = se / mean if mean > 0 else 0.0
            lines.append(f"{_fmt(np.log2(N))} {_fmt(np.log(mean))} {_fmt(yerr)}")
        (plot_dir / f"{pair[2:]}.dat").write_text("\n".join(lines) + "\n")


def _chaos_values(config: SimConfig, spec, bundle, flow) -> dict:
    sample = coupled_chaos_run(
        spec, bundle.n, config.run.T, config.run.dt, bundle, flow,
        init=config.init, scheme=config.run.scheme,
        policy=config.stepping,
    )
    return {
        "d_xy": float(np.mean(sample.sup_xy)),
        "d_ylimit": float(np.mean(sample.sup_ylimit)),
        "d_xlimit": float(np.mean(sample.sup_xlimit)),
        "jumps_per_particle": sample.jump_count_x / bundle.n,
    }


def run_chaos_sweep(config: SimConfig, force: bool = False) -> ChaosReport:
    """Solve the limit once, run every (N, replica) coupled cell, fit rates.

    Deterministic given the config (including worker count).  A model
    that fails assumption validation raises ``InvalidInputError`` before
    any file is written, unless ``force``.  A failing cell persists all
    other cells' outputs and raises ``SweepError`` with the report flagged
    partial.
    """
    spec = build(config.model.id, config.model.params)
    Ns = [int(n) for n in config.run.Ns]
    outdir = Path(config.output.dir)
    with _pool(config.run.workers) as pool:
        if pool is None:
            _gate(validate_model(spec), force)
        else:  # the probes run in a worker beside the limit solve
            verdict = pool.submit(run_validate, config.model.id, config.model.params)
        try:
            flow = solve_limit(
                spec, config.limit.ensemble or 16 * max(Ns), config.run.T, config.run.dt,
                seed=config.run.seed, tol=config.limit.picard_tol,
                max_iter=config.limit.picard_max_iter, scheme=config.run.scheme,
                policy=config.stepping, init=config.init,
            )
        finally:  # a failed verdict wins over a failed solve
            if pool is not None:
                _gate(verdict.result(), force)

        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config.echo").write_text(yaml.safe_dump(config.to_dict(), sort_keys=True))
        flow.save(outdir / "flow.npz")
        # in-process cells share the solved flow; pool workers load its file
        flow_ref = flow if pool is None else str(outdir / "flow.npz")
        cells, failures = _run_cells(_chaos_values, config, pool, flow_ref)

    distances = _aggregate_distances(Ns, cells)
    fits = {}
    for pair, stats in distances.items():
        ok = [
            i for i, N in enumerate(Ns)
            if len(stats["per_replica"][i]) >= 2 and np.isfinite(stats["mean"][i]) and stats["mean"][i] > 0
        ]
        if len({Ns[i] for i in ok}) >= 3:
            fits[pair] = fit_rate(
                [Ns[i] for i in ok],
                [stats["mean"][i] for i in ok],
                [stats["se"][i] for i in ok],
            )

    jumps_by_n = {
        str(N): [c["jumps_per_particle"] for c in cells if c["N"] == N and "error" not in c]
        for N in Ns
    }
    chaos = ChaosReport(
        model_id=config.model.id,
        Ns=Ns,
        replica_count=config.run.replicas,
        distances=distances,
        fits=fits,
        diagnostics={
            "limit_meta": flow.meta,
            "jumps_per_particle": {k: float(np.mean(v)) if v else float("nan") for k, v in jumps_by_n.items()},
        },
        manifest=_manifest(config, failures),
    )

    _write_distances_csv(outdir / "distances.csv", cells)
    _write_plotdata(outdir / "plotdata", Ns, distances)
    _write_json(outdir / "report.json", {"format": "mfjump-report-v1", "report": dataclasses.asdict(chaos)})
    if failures:
        raise SweepError(failures, len(cells), outdir)
    return chaos


# -- diagnostics ------------------------------------------------------------


def _diag_values(config: SimConfig, spec, bundle, flow) -> dict:
    paths = simulate(
        "X", spec, bundle.n, config.run.T, config.run.dt, bundle,
        init=config.init, scheme=config.run.scheme,
        policy=config.stepping,
    )
    moments = {}
    for p in config.diagnostics.moment_powers:
        series = moment_diagnostics(paths, spec, p)
        moments[p] = {
            "mean": float(series.values.mean()),
            "second_half_mean": float(series.values[series.times >= config.run.T / 2].mean()),
            "trend_slope": series.trend_slope,
            "trend_se": series.trend_se,
        }
    return {"jump_count": paths.jump_count, "jumps_per_particle": paths.jump_count / bundle.n, "moments": moments}


@dataclass
class DiagnosticsBundle:
    Ns: list[int]
    cells: list[dict]
    moment_verdicts: dict  # (N, p) -> dict with slope CI and verdict
    jump_tails: dict  # N -> JumpTailTable
    thresholds: list[float]
    manifest: dict


def run_diagnostics(config: SimConfig) -> DiagnosticsBundle:
    """Moment series and jump-count tails for the interacting system.

    The moment verdict is 'bounded' when the cross-replica CI of the
    second-half trend slope excludes growth faster than 5% of the series
    mean per unit time.  A failing cell is left out of every table (an N
    with no good cell gets no verdict and no tail row); the other cells'
    outputs are written, the manifest is flagged partial and names the
    failures, and then ``SweepError`` is raised.
    """
    Ns = [int(n) for n in config.run.Ns]
    if min(Ns) == 1:
        warnings.warn("N=1 runs: mean-field quantities are degenerate", stacklevel=2)
    powers = config.diagnostics.moment_powers
    with _pool(config.run.workers) as pool:
        cells, failures = _run_cells(_diag_values, config, pool)
    good = [c for c in cells if "error" not in c]
    rows_by_n = {N: rows for N in Ns if (rows := [c for c in good if c["N"] == N])}

    moment_verdicts = {}
    for N, rows in rows_by_n.items():
        for p in powers:
            slopes = np.asarray([r["moments"][p]["trend_slope"] for r in rows])
            means = np.asarray([r["moments"][p]["second_half_mean"] for r in rows])
            mean_slope = float(slopes.mean())
            if len(slopes) > 1:
                se = float(slopes.std(ddof=1) / np.sqrt(len(slopes)))
                half = float(stdtrit(len(slopes) - 1, 0.975)) * se  # Student t quantile
            else:
                se = float(rows[0]["moments"][p]["trend_se"])
                half = 1.96 * se
            hi = mean_slope + half
            lo = mean_slope - half
            threshold = 0.05 * float(means.mean())
            verdict = "bounded" if hi < threshold else "growing"
            moment_verdicts[(N, p)] = {
                "slope_mean": mean_slope,
                "slope_ci": (lo, hi),
                "series_mean": float(means.mean()),
                "threshold": threshold,
                "verdict": verdict,
            }

    thresholds = [float(h) for h in config.diagnostics.jump_thresholds]
    if not thresholds and rows_by_n:  # 2x the mean ratio of the largest N with good cells; none if it did not jump
        mean_ratio = float(np.mean([c["jumps_per_particle"] for c in rows_by_n[max(rows_by_n)]]))
        thresholds = [2.0 * mean_ratio] if mean_ratio > 0 else []
    jump_tails = {
        N: jump_count_stats([c["jump_count"] for c in rows], N, config.run.T, thresholds)
        for N, rows in rows_by_n.items()
    }

    bundle = DiagnosticsBundle(
        Ns=Ns,
        cells=cells,
        moment_verdicts=moment_verdicts,
        jump_tails=jump_tails,
        thresholds=thresholds,
        manifest=_manifest(config, failures),
    )

    outdir = Path(config.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [DIAGNOSTICS_HEADER, "N,replica,jumps_per_particle," + ",".join(
        f"m{p}_mean,m{p}_slope" for p in powers
    )]
    for c in good:
        row = [str(c["N"]), str(c["replica"]), _fmt(c["jumps_per_particle"])]
        for p in powers:
            row += [_fmt(c["moments"][p]["mean"]), _fmt(c["moments"][p]["trend_slope"])]
        lines.append(",".join(row))
    (outdir / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        outdir / "diagnostics.json",
        {
            "format": "mfjump-diagnostics-v1",
            "moment_verdicts": {
                f"N{N}_p{p}": v for (N, p), v in moment_verdicts.items()
            },
            "jump_tails": {
                str(N): {
                    "thresholds": t.thresholds.tolist(),
                    "tail_prob": t.tail_prob.tolist(),
                    "wilson_lo": t.wilson_lo.tolist(),
                    "wilson_hi": t.wilson_hi.tolist(),
                }
                for N, t in jump_tails.items()
            },
            "manifest": bundle.manifest,
        },
    )
    if failures:
        raise SweepError(failures, len(cells), outdir)
    return bundle


def run_validate(model_id: str, params: dict | None = None, probe: ProbeConfig | None = None) -> AssumptionReport:
    """Build a zoo model and probe its declared assumptions."""
    spec = build(model_id, params or {})
    return validate_model(spec, probe)
