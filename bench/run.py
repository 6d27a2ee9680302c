"""mfjump benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload chaos-d1 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
its times are scaled to a reference host speed (see REFERENCE_SAMPLE_S);
``--trace 1`` prints the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads, the metrics and the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chaos-d1", "limit-d2", "diag-neuronal")
SETUP_SAMPLES = 7  # fresh processes per run; setup_s is their median
# Configs a timed run cycles through, made from its seed: instance k has
# run.seed = seed * INSTANCES + k.  The work of limit-d2 depends on the seed
# (the assignment solves take up to 22% longer on some seeds), and a mean
# over calls of several instances evens that out.
INSTANCES = 4
MAX_CALLS = 15  # bounds a run's length when calls are short: each call is a fresh process
DEADLINE_S = 170.0  # the whole run must end within 180 s
# A shared host's speed drifts by up to 1.9x over minutes.  Each timed call
# samples it (session.HostSampler), and its wall time is multiplied by
# REFERENCE_SAMPLE_S / (its mean sample): the program's time at the
# reference speed, whatever the speed of the moment.  REFERENCE_SAMPLE_S is
# a sample's time on the reference host (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4) at its fast speed.  Changing it rescales every timed metric.
REFERENCE_SAMPLE_S = 0.0015


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over src/ (paths and bytes): identifies the code when git cannot."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _session(mode: str, workload: str, config: Path, outdir: Path, deadline: float) -> dict:
    """Run bench/session.py in a fresh process; kill its process group on timeout."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "session.py"), "--mode", mode, "--workload", workload,
        "--config", str(config), "--outdir", str(outdir), "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} session passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} session exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure calls for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for bench/selftest.py")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mfjump" / "__init__.py").is_file():
        print(f"error: no mfjump sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    rundir = ROOT / ".bench_runs" / f"{tag}-{os.getpid()}"
    rundir.mkdir(parents=True)
    # a timed run cycles through INSTANCES configs made from the seed; a traced
    # run makes the first one only
    seeds = [args.seed * INSTANCES + k for k in range(1 if args.trace else INSTANCES)]
    cfgs = [workloads.make_config(args.workload, s, traced=bool(args.trace), toy=args.toy) for s in seeds]
    configs = [rundir / f"config-{s}.yaml" for s in seeds]
    for cfg, path in zip(cfgs, configs):
        workloads.write_config(cfg, path)

    def call(mode: str) -> dict:
        k = len(calls) % len(configs)
        return {"instance": k, **_session(mode, args.workload, configs[k], rundir / f"call{len(calls)}", deadline)}

    calls: list[dict] = []
    if args.trace:
        # the same call untraced, then traced: their difference is the tracing overhead
        calls.append(call("call"))
        calls.append(call("traced"))
    else:
        # closed loop: the next call starts when the previous one has ended;
        # every instance once and the first twice at least, so that every run
        # compares repeats of a config
        while len(calls) <= INSTANCES or (
            sum(c["wall_s"] for c in calls) < args.seconds and len(calls) < MAX_CALLS
        ):
            calls.append(call("call"))
    setups = [c["setup_s"] for c in calls]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_session("setup", args.workload, configs[0], rundir, deadline)["setup_s"])

    # repeats of one config must reproduce its first call's outputs byte for byte
    firsts = calls[:len(configs)]
    for c in calls[len(configs):]:
        c["checks"]["outputs_identical_to_first_call"] = c["digests"] == firsts[c["instance"]]["digests"]
    attempted = sum(c["cells"] + len(c["checks"]) for c in calls)
    failed = sum(c["failed_cells"] + sum(not ok for ok in c["checks"].values()) for c in calls)
    failed_checks = sorted({name for c in calls for name, ok in c["checks"].items() if not ok})
    walls = [c["wall_s"] for c in calls]
    samples = [x for c in calls for x in c["host_samples_s"]]

    if args.trace:
        layer = dict(calls[1]["layer"])
        layer["trace.wall_s"] = (walls[1], "s")
        layer["trace.overhead_s"] = (walls[1] - walls[0], "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        # the mean over the calls evens out how much work an instance's seed
        # makes; the fastest and the slowest call are left out, as a call the
        # samples did not follow
        scaled = sorted(REFERENCE_SAMPLE_S * c["wall_s"] / statistics.fmean(c["host_samples_s"])
                        for c in calls)
        # set-up comes before a call's samples: it is scaled by the whole run's
        scale = REFERENCE_SAMPLE_S / statistics.fmean(samples)
        metrics = {
            "wall_s": {"value": statistics.fmean(scaled[1:-1]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in calls), "unit": "MB"},
        }
        for path in configs:
            path.unlink()
        rundir.rmdir()

    env = {"git_sha": _git_sha(), "src_sha256": _source_digest(), "nproc": os.cpu_count(),
           **calls[0]["environment"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "configs": cfgs, "environment": env,
        "instances": [c["instance"] for c in calls], "walls_s": walls, "setups_s": setups,
        "host_samples_s": [c["host_samples_s"] for c in calls],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failed_checks": failed_checks,
        "output_sha256": {s: c["digests"] for s, c in zip(seeds, firsts)},
        "notes": {s: c["notes"] for s, c in zip(seeds, firsts)}, "metrics": metrics,
    }
    results = ROOT / ".bench_runs" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}-{int(time.time())}-{os.getpid()}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(calls)} call(s), "
          f"walls {', '.join(f'{w:.3f}' for w in walls)} s, "
          f"{len(samples)} host-speed samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"  as measured: median wall {statistics.median(walls)!r} s, median set-up "
              f"{statistics.median(setups)!r} s, mean host-speed scale {scale!r}")
    print(f"  failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)"
          + (f"; failed checks: {', '.join(failed_checks)}" if failed_checks else ""))
    for s, c in zip(seeds, firsts):
        for name, digest in c["digests"].items():
            print(f"  sha256 {name} (run.seed {s}) = {digest}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print(f"  spans: {(rundir / 'spans.csv.gz').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
