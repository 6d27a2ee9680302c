"""One fresh benchmark process: set up, then make at most one top-level call.

Started by ``run.py``; not meant to be run by hand.  Each call gets a fresh
process, as a command-line user's run does, so every call pays the same
lazy imports and no call finds caches left by another.  Modes:

- ``setup``: set up and exit (one ``setup_s`` sample);
- ``call``: set up, then make the call with tracing off, sampling the
  host's speed during it;
- ``traced``: set up, then make the call under ``spans.Tracer`` and write
  the spans to ``<rundir>/spans.csv.gz``.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _setup(config_path: Path):
    """What a user's process does before its first call: import, load, build."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from mfjump.harness import SimConfig
    from mfjump.zoo import build

    config = SimConfig.from_file(config_path)
    build(config.model.id, config.model.params)


class HostSampler:
    """Samples the host's speed while this process works.

    A sample is the time of one fixed unit of work, a pure-Python loop and a
    numpy sort, the two kinds of work mfjump does.  Entering ``with sampler:``
    takes one; inside, one is taken every ``PERIOD_CPU_S`` of this process's
    CPU time (an ``ITIMER_VIRTUAL`` signal), so the samples follow the speed
    through the call.  None is taken while the process waits for its pool
    workers.  ``run.py`` scales the call's wall time by the mean sample (see
    ``run.REFERENCE_SAMPLE_S``).
    """

    PERIOD_CPU_S = 0.2

    def __init__(self):
        import numpy as np

        self.samples: list[float] = []
        self._data = np.random.default_rng(0).random(20_000)
        self._unit()  # warm-up, not a sample

    def _unit(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i % 7
        self._data.copy().sort()
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.samples.append(self._unit())

    def __enter__(self):
        self.samples.append(self._unit())
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.PERIOD_CPU_S, self.PERIOD_CPU_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the joined pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "call", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args()

    _setup(args.config)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import yaml

    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    cfg = yaml.safe_load(args.config.read_text())
    tracer = spans.Tracer() if args.mode == "traced" else None
    args.outdir.mkdir(parents=True)
    sampler = HostSampler()
    if tracer is not None:
        tracer.install()
        root = tracer.open(f"bench.{args.workload}")
    t0 = time.perf_counter()
    try:
        if tracer is None:
            with sampler:
                returned = workloads.run_call(args.workload, args.config, args.outdir)
        else:
            returned = workloads.run_call(args.workload, args.config, args.outdir)
    except Exception as exc:  # noqa: BLE001 - a call that raises is a measured failure
        returned = exc
    finally:
        # the samples' own time is not the call's
        wall = time.perf_counter() - t0 - sum(sampler.samples)
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    result = workloads.check_call(args.workload, cfg, returned, args.outdir)
    layer = {}
    if tracer is not None:
        layer = spans.layer_metrics(tracer)
        layer["harness.output_bytes"] = (workloads.output_bytes(args.outdir), "bytes")
        tracer.write(args.outdir.parent / "spans.csv.gz")
    shutil.rmtree(args.outdir)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall,
        "host_samples_s": sampler.samples,
        "peak_rss_mb": _peak_rss_mb(),
        "cells": result.cells,
        "failed_cells": result.failed_cells,
        "checks": result.checks,
        "digests": result.digests,
        "notes": result.notes,
        "environment": _environment(),
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
