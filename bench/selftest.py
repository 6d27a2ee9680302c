"""Self-test of the benchmark at toy sizes (about a minute).

    python3 bench/selftest.py

For every workload it runs ``run.py --toy`` timed and traced and checks
that the result line holds exactly the metrics BENCHMARK.json names, with
their units, and that the run was correct.  For every traced run it reads
the written spans back and checks that their self times add up to the
root span's duration.  Last, it checks that the benchmark exits non-zero
without a result line in a directory holding only BENCHMARK.json and
bench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import read_spans, self_times  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_self_times(path: Path) -> None:
    names, starts, ends, parents = zip(*read_spans(path))
    label = path.parent.name
    roots = [i for i, p in enumerate(parents) if p < 0]
    _check(len(roots) == 1, f"{label}: one root span ({len(names)} spans)")
    _check(all(starts[p] <= starts[i] and ends[i] <= ends[p] for i, p in enumerate(parents) if p >= 0),
           f"{label}: every span lies inside its parent")
    selfs = self_times(starts, ends, parents)
    root_s = ends[roots[0]] - starts[roots[0]]
    _check(abs(sum(selfs) - root_s) <= 1e-9 * max(1.0, root_s) * len(names),
           f"{label}: self times sum to {sum(selfs)!r} s, root span {root_s!r} s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--toy")
            label = f"{workload} --trace {trace}"
            _check(out.returncode == 0, f"{label}: exit status {out.returncode}")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            _check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            _check(units == expected[trace], f"{label}: every metric emitted with its unit")
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} failed")
            _check(any(line.strip().startswith("failed_frac = 0.0 ") for line in lines),
                   f"{label}: failed_frac printed")
            if trace:
                spans_line = next(line for line in lines if line.strip().startswith("spans:"))
                check_self_times(ROOT / spans_line.split(":", 1)[1].strip())

    bare = ROOT / ".bench_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(bare, "--workload", "chaos-d1", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    _check(out.returncode != 0 and '"metrics"' not in out.stdout,
           f"without sources: exit status {out.returncode}, no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
