"""The simulator benchmark: host cost of simulating a fixed window.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mixed_gc --seed 1 --seconds 30 \
        --trace 0

Each sample is one fresh process (``child.py``) that imports ``repro``,
builds and prefills the workload's device and simulates its fixed
window; samples run one at a time.  ``--trace 0`` repeats samples for
``--seconds`` (at least three), tops the set-up times up to nine with
set-up-only samples, and reports the end-to-end metrics as medians.
``--trace 1`` runs one untraced sample and one sample under cProfile
and reports the per-layer metrics.  ``wall_s`` and ``setup_s`` are
scaled to a fixed host speed by a reference loop that each sample
times beside its own work (see ``child.py``).  The simulated outputs
are checked (``workloads.py``) and fingerprinted; a failed check, a
crash or two samples that disagree on the fingerprint count as failed
operations and make the exit code 1.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full record (per-sample values, simulated outputs, digest,
provenance).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: The keys of ``workloads.WORKLOADS``, repeated here because this
#: process never imports ``repro``.
WORKLOADS = ("mixed_gc", "tenants_qos", "reliability_wear")

#: Window samples taken even when ``--seconds`` is too short for them.
MIN_SAMPLES = 3
#: Set-up times per untraced invocation (window samples included).
SETUP_SAMPLES = 9
#: Wall-clock cap on one invocation; it must end within three minutes.
HARD_LIMIT_S = 165.0
#: Host speed that ``wall_s`` and ``setup_s`` are scaled to:
#: ``child.reference_s()`` takes this long on it (about the tuning
#: host in its fast state).
REF_NOMINAL_S = 0.0005

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "host_us_per_request": "us"}

#: Simulated activity copied from the child's observed stats, with units.
ACTIVITY_UNITS = {
    "sim.events": "count",
    "noc.packets": "count",
    "noc.util": "ratio",
    "ftl.gc_pages_moved": "count",
    "core.copybacks": "count",
    "controller.bus_util": "ratio",
    "controller.dram_util": "ratio",
    "controller.ecc_pages": "count",
    "flash.plane_util": "ratio",
    "host.sq_wait_mean_us": "us",
    "reliability.ladder_retries": "count",
    "reliability.copy_errors_scrubbed": "count",
}


@dataclass
class Sample:
    """One child process: its record, or why it failed."""

    kind: str  # "window", "traced" or "setup"
    record: Optional[dict]
    error: Optional[str]
    elapsed: float


def run_child(workload: str, seed: int, kind: str,
              timeout: float) -> Sample:
    """Run one sample in a fresh interpreter and parse its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_DSSD_BACKEND", None)  # the config default decides
    # The simulator does no BLAS work, but importing numpy starts one
    # OpenBLAS thread per CPU, and how long that takes depends on what
    # else the host runs: set-up time flipped between two modes 0.07 s
    # apart without this.
    env["OPENBLAS_NUM_THREADS"] = "1"
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if kind != "window":
        command.append(f"--{kind}")
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Sample(kind, None, f"timed out after {timeout:.0f} s",
                      time.perf_counter() - started)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return Sample(kind, None, f"exit {proc.returncode}: {tail[0]}",
                      elapsed)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    error = None
    if record.get("check_failures"):
        error = "output check: " + "; ".join(record["check_failures"])
    return Sample(kind, record, error, elapsed)


def collect(workload: str, seed: int, seconds: float,
            trace: bool) -> List[Sample]:
    """Run the samples of one invocation, one at a time."""
    samples: List[Sample] = []
    start = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - start)

    if trace:
        for kind in ("window", "traced"):
            samples.append(run_child(workload, seed, kind, remaining()))
        return samples
    while True:
        elapsed = time.perf_counter() - start
        estimate = max((s.elapsed for s in samples), default=0.0)
        if len(samples) >= MIN_SAMPLES and elapsed + estimate > seconds:
            break
        if samples and estimate > remaining():
            break
        samples.append(run_child(workload, seed, "window", remaining()))
    # Set-up is short and noisy: top its samples up with set-up-only runs.
    while len(samples) < SETUP_SAMPLES and remaining() > 10.0:
        samples.append(run_child(workload, seed, "setup", remaining()))
    return samples


def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def provenance() -> Dict[str, object]:
    return {"git_sha": _git_sha(), "cpu": _cpu_model(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def scaled_slices(record: dict) -> List[float]:
    """A window sample's slice times at the host speed ``REF_NOMINAL_S``.

    Each slice is divided by the reference time taken right after it,
    so a stretch in which the shared host ran slow does not count as
    simulator time.
    """
    return [slice_s * REF_NOMINAL_S / ref_s for slice_s, ref_s
            in zip(record["slices_s"], record["slice_refs_s"])]


def scaled_setup(record: dict) -> float:
    """A sample's set-up time at the host speed ``REF_NOMINAL_S``.

    Each phase is divided by the mean of the references timed at its
    two ends.
    """
    refs = record["setup_refs_s"]
    phases = (record["import_s"], record["build_s"], record["prefill_s"])
    return sum(phase_s * 2 * REF_NOMINAL_S / (before + after)
               for phase_s, before, after in zip(phases, refs, refs[1:]))


def slice_medians(samples: List[List[float]]) -> float:
    """Host time of the window: the sum of each slice's median sample.

    Every sample of one seed does the same simulated work slice by
    slice, so a burst of host interference in one sample moves only
    the slices it hit, and a slice's median drops it.
    """
    return sum(statistics.median(column) for column in zip(*samples))


def summarize(workload: str, seed: int, trace: bool,
              samples: List[Sample]) -> dict:
    """The full record and the contract's result object."""
    simulated = [s for s in samples
                 if s.record and not s.error and s.kind != "setup"]
    if len({s.record["digest"] for s in simulated}) > 1:
        reference = simulated[0].record["digest"]
        for sample in simulated:
            if sample.record["digest"] != reference:
                sample.error = (f"digest {sample.record['digest']} != "
                                f"{reference}: simulated outputs differ "
                                f"between runs of one seed")
    failures = [s.error for s in samples if s.error]
    good = [s for s in samples if s.record and not s.error]
    windows = [s.record for s in good if s.kind == "window"]
    traced = [s.record for s in good if s.kind == "traced"]
    setup_records = [s.record for s in good if s.kind != "traced"]
    setups = [scaled_setup(r) for r in setup_records]

    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": len(windows), "setup_samples": len(setups),
        "provenance": provenance(), "failures": failures,
        "digest": windows[0]["digest"] if windows else None,
    }
    metrics: Dict[str, Dict[str, object]] = {}
    if windows:
        stats = windows[0]["stats"]
        wall = slice_medians([scaled_slices(r) for r in windows])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in windows),
            "host_us_per_request": wall / max(stats["requests"], 1) * 1e6,
        }
        record.update({
            "end_to_end": values,
            "kernel_backend": windows[0]["kernel_backend"],
            "wall_s_unscaled": slice_medians([r["slices_s"]
                                              for r in windows]),
            "wall_s_samples": [r["wall_s"] for r in windows],
            "setup_s_samples": setups,
            "setup_s_unscaled_samples": [
                r["import_s"] + r["build_s"] + r["prefill_s"]
                for r in setup_records],
            "setup_refs_s_samples": [r["setup_refs_s"]
                                     for r in setup_records],
            "slices_s_samples": [r["slices_s"] for r in windows],
            "slice_refs_s_samples": [r["slice_refs_s"] for r in windows],
            "simulated": stats,
        })
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    record["provenance"]["trace.overhead"] = None
    if trace:
        metrics = {}
        if windows and traced:
            metrics = per_layer(windows[0], traced[0])
            overhead = metrics["trace.overhead"]["value"]
            record["provenance"]["trace.overhead"] = overhead
            record["per_layer"] = {name: metric["value"]
                                   for name, metric in metrics.items()}
    return {
        "record": record,
        "result": {
            "correct": not failures and bool(metrics),
            "attempted": len(samples),
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def per_layer(window: dict, traced: dict) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics from one untraced and one traced sample."""
    metrics = {name: {"value": value,
                      "unit": "s" if name.endswith("_s") else "count"}
               for name, value in traced["profile"].items()}
    for name, unit in ACTIVITY_UNITS.items():
        metrics[name] = {"value": window["stats"][name], "unit": unit}
    extra = {
        "sim.events_per_s": (window["stats"]["sim.events"]
                             / window["wall_s"], "1/s"),
        "trace.overhead": (traced["wall_s"] / window["wall_s"], "ratio"),
        "setup.import_s": (window["import_s"], "s"),
        "setup.build_s": (window["build_s"], "s"),
        "setup.prefill_s": (window["prefill_s"], "s"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host cost of simulating each workload's fixed window")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep taking untraced samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a "
                             "cProfile run instead")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              f"of a checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile up front so no sample pays it inside its import time.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    samples = collect(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    out = summarize(args.workload, args.seed, bool(args.trace), samples)
    for error in out["record"]["failures"]:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    for name, metric in out["result"]["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
