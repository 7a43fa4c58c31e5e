"""Benchmark for qcorr: run one workload and print its metrics.

    python3 bench/run.py --workload oracle-bd --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
Everything runs in this one process, except the fresh interpreters that
time start-up.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON report
with the machine, the sample counts and the diagnostics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is split into an
untraced and a traced half and the metrics are the per-layer ones.
bench/README.md defines every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-bd", "dense-analyze", "evolve-long")
# What every CLI call pays before it does any work.
READY = "import qcorr.cli; qcorr.cli.build_parser()"
# A launch that no change to qcorr can speed up or slow down: the
# interpreter with the libraries qcorr imports.  It sets the reference speed
# of setup_s.  It is close in kind to the qcorr launch on purpose: a shorter
# one (numpy alone) slowed down more than the qcorr launch when the machine
# was busy, and the scaled figure then fell by up to a third.
BASELINE = "import numpy, scipy.optimize"
BASELINE_REF_S = 0.8
SETUP_LAUNCHES = 5
# Reference speed: a machine that runs the calibration block in 10 ms.
CAL_REF_S = 0.010
# Calibration time after an item, as a share of the item's time.  One block
# is too short a sample next to a 2 s item: with one block per item the
# spread of evolve-long items_per_s between runs was 18%.
CAL_SHARE = 0.05
_CAL_MATRIX = np.eye(4) + 0.1
IMPORTTIME_LAUNCHES = 3
MAX_REPORTED_FAILURES = 20


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _launch(args) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr


def setup_seconds(launches: int) -> tuple[list[float], list[float], list[float]]:
    """Start-up time of fresh interpreters that import qcorr.cli and build its parser.

    Returns (scaled, raw, baseline) seconds.  Each timed launch sits between
    two BASELINE launches, and its time is scaled by BASELINE_REF_S over
    their mean: the time at the reference launch speed.  The benchmark
    process has imported qcorr before this, so the bytecode caches a user
    would already have are written.
    """
    baseline = [_launch(["-c", BASELINE])[0]]
    raw = []
    for _ in range(launches):
        raw.append(_launch(["-c", READY])[0])
        baseline.append(_launch(["-c", BASELINE])[0])
    scaled = [t * 2 * BASELINE_REF_S / (before + after)
              for t, before, after in zip(raw, baseline, baseline[1:])]
    return scaled, raw, baseline


def _importtime(stderr: str) -> tuple[float, float]:
    """(qcorr, scipy.optimize) cumulative import seconds from -X importtime output."""
    qcorr_us = scipy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.strip()
        top_level = not field.startswith(" ")
        if top_level and (name == "qcorr" or name.startswith("qcorr.")):
            qcorr_us += int(parts[1])
        elif name == "scipy.optimize":
            scipy_us = int(parts[1])
    return qcorr_us / 1e6, scipy_us / 1e6


def import_seconds(launches: int) -> tuple[float, float]:
    samples = [_importtime(_launch(["-X", "importtime", "-c", READY])[1]) for _ in range(launches)]
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info(loadavg) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qcorr_commit": _git_commit(),
        "qcorr_src_sha256": digest.hexdigest(),
        "loadavg_at_start": list(loadavg),
    }


class Phase:
    """Items run back to back, with calibration blocks timed before and after each."""

    def __init__(self, item_s: float):
        self.raw = []  # wall seconds per item
        self.cal = [calibrate(CAL_SHARE * item_s)]  # cal[i] and cal[i + 1] bracket item i
        self.units = 0  # units of the items that passed their check
        self.failures = []

    @property
    def scaled(self) -> list[float]:
        """Item times at the reference speed."""
        return [t * 2 * CAL_REF_S / (before + after)
                for t, before, after in zip(self.raw, self.cal, self.cal[1:])]

    def rate(self) -> float:
        return self.units / sum(self.scaled)


def calibrate(min_seconds: float) -> float:
    """Wall seconds of a fixed block of the small numpy calls qcorr is made of.

    The block repeats until min_seconds have passed; the result is the mean
    time of one block.

    On a shared 2-vCPU x86_64 virtual machine a vCPU runs at anywhere from
    full to half speed, in stretches of seconds to minutes.  Scaling each
    item by the calibration blocks timed right before and after it removes
    most of that drift: between 30 s windows it cut the spread of oracle-bd item times
    from about 14% to 6%, and of evolve-long items from 13% to 2%.
    """
    h = _CAL_MATRIX
    blocks = 0
    start = time.perf_counter()
    while True:
        for _ in range(300):
            np.linalg.eigvalsh(h)
            np.kron(h[:2, :2], h[2:, 2:])
            np.einsum("abcb->ac", h.reshape(2, 2, 2, 2))
        blocks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / blocks


def attempt(workload, i, tamper=None):
    """Run and check item i; returns (seconds, error or None)."""
    workload.prepare(i)
    start = time.perf_counter()
    try:
        out = workload.run(i)
    except Exception as exc:  # a raising item is a failed item, not a failed benchmark
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tamper is not None:
        tamper(workload, i, out)
    try:
        return elapsed, workload.check(i, out)
    except Exception as exc:  # unparsable output
        return elapsed, f"output check raised {type(exc).__name__}: {exc}"


def run_phase(workload, seconds: float, item_s: float, tamper=None) -> Phase:
    """Run items until their summed time reaches seconds; item_s is a typical item time."""
    phase = Phase(item_s)
    i = 0
    while i == 0 or sum(phase.raw) < seconds:
        elapsed, error = attempt(workload, i, tamper)
        phase.raw.append(elapsed)
        phase.cal.append(calibrate(CAL_SHARE * elapsed))
        if error is None:
            phase.units += workload.units(i)
        else:
            phase.failures.append({"item": i, "input": workload.describe(i), "error": error})
        i += 1
    return phase


def _use_source_tree():
    if not (SRC / "qcorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcorr sources under {SRC}; run from the root of a qcorr checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qcorr

    if Path(qcorr.__file__).resolve().parent != (SRC / "qcorr").resolve():
        raise SystemExit(f"error: imported qcorr from {qcorr.__file__}, not from {SRC}")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tamper=None,
                  setup_launches: int = SETUP_LAUNCHES, import_launches: int = IMPORTTIME_LAUNCHES):
    """Run one workload; returns (result, report) as printed by main."""
    loadavg = os.getloadavg()
    _use_source_tree()
    import spans
    import workloads

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info(loadavg)}
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        # One untimed item first, so lazy set-up in the program is not timed.
        warm_s, error = attempt(workload, 0, tamper)
        failures = [] if error is None else [{"item": 0, "input": workload.describe(0), "error": error}]
        if trace:
            phases, metrics = _traced_run(workload, seconds, warm_s, tamper, spans, import_launches)
        else:
            setup, setup_raw, baseline = setup_seconds(setup_launches)
            phases = [run_phase(workload, seconds, warm_s, tamper)]
            phase = phases[0]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "items_per_s": (phase.rate(), "items/s"),
                "item_p50_ms": (statistics.median(phase.scaled) * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            report["setup_s"] = {"scaled": setup, "raw": setup_raw, "baseline": baseline}
        diagnostics = workload.diagnostics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += [f for p in phases for f in p.failures]
    for failure in failures:
        print(json.dumps({"failure": failure}), file=sys.stderr)
    attempted = 1 + sum(len(p.raw) for p in phases)
    report["item_ms"] = [_timing_summary(p) for p in phases]
    report["failures"] = failures[:MAX_REPORTED_FAILURES]
    report["diagnostics"] = diagnostics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": float(value), "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, report


def _timing_summary(phase) -> dict:
    """Item times at the reference speed and as measured, with the sample count."""
    ms = sorted(t * 1e3 for t in phase.scaled)
    summary = {
        "n": len(ms), "p50": statistics.median(ms), "max": ms[-1],
        "raw_p50": statistics.median(phase.raw) * 1e3,
        "raw_items_per_s": phase.units / sum(phase.raw),
        "calibration_ms": statistics.median(phase.cal) * 1e3,
    }
    if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
        summary["p90"] = statistics.quantiles(ms, n=10)[-1]
    return summary


def _traced_run(workload, seconds, warm_s, tamper, spans, import_launches):
    half = seconds / 2
    untraced = run_phase(workload, half, warm_s, tamper)
    bytes_before = workload.bytes_out
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, half, warm_s, tamper)
    finally:
        tracer.uninstall()
    items = len(traced.raw)
    metrics = tracer.metrics(items)
    metrics["cli.bytes_out"] = ((workload.bytes_out - bytes_before) / items, "bytes/item")
    qcorr_s, scipy_s = import_seconds(import_launches)
    metrics["import.qcorr_s"] = (qcorr_s, "s")
    metrics["import.scipy_optimize_s"] = (scipy_s, "s")
    metrics["trace.items_per_s"] = (traced.rate(), "items/s")
    metrics["trace.untraced_items_per_s"] = (untraced.rate(), "items/s")
    overhead = (untraced.rate() / traced.rate() - 1.0) * 100.0 if traced.units else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="picks the inputs, nothing else")
    parser.add_argument("--seconds", type=float, required=True, help="measured item time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
