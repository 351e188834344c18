"""One measured simulation, in a fresh process.

Usage::

    python3 perfbench/child.py --workload NAME --seed N [--traced|--setup]

with ``src`` on ``PYTHONPATH``.  Prints one JSON object: the set-up
split (import, build, prefill), the host time of the simulated window
and of each of its slices, peak RSS, the simulated outputs and their
digest, the output-check failures and, with ``--traced``, the per-layer
profile of the window.  ``--setup`` stops after set-up and prints only
its split.  ``run.py`` starts one of these per sample, one at a time.

Slices: a no-op callback scheduled every :data:`SLICE_US` of simulated
time reads the host clock, so the window's host time splits into
slices that do the same simulated work in every sample of one seed.
The callbacks change no simulated state; they are left out of
``sim.events``.

Host speed: a shared host runs the same code up to 1.5x slower for
seconds at a time.  So a sample also times a fixed :func:`reference_s`
loop at each set-up boundary and, untraced, at every probe and once
after the window.  ``run.py`` divides each slice by the reference time
taken right after it, and each set-up phase by the mean of the two
around it.  The reference is this file's own code, so a change to
``repro`` does not move it.
"""

import argparse
import json
import os
import resource
import sys
import time

#: Simulated time between host-clock probes (one slice).
SLICE_US = 1000.0

#: Loop length and repeats of one reference timing (about 1 ms in all).
REF_ITERS = 2000
REF_REPEATS = 2
#: Reference timings per set-up boundary; their median counts.
SETUP_REFS = 3


def reference_s() -> float:
    """Host seconds of a fixed pure-Python loop of dict work.

    The faster of two repeats counts, so an interrupt or a garbage
    collection inside one does not.
    """
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        table: dict = {}
        for i in range(REF_ITERS):
            table[i * 31 % 1009] = table.get(i % 977, 0) + i
        sorted(table.values())
        best = min(best, time.perf_counter() - start)
    return best


def setup_reference_s() -> float:
    """The median of a few reference timings, at a set-up boundary."""
    return sorted(reference_s() for _ in range(SETUP_REFS))[SETUP_REFS // 2]


def arm_probes(sim, window_us: float, probe) -> int:
    """Schedule *probe* every slice; returns how many were scheduled."""
    count = 0
    while (count + 1) * SLICE_US < window_us:
        count += 1
        sim.schedule(count * SLICE_US, probe)
    return count


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup", action="store_true")
    args = parser.parse_args()

    # Set-up has three phases: import, build and prefill.  A reference
    # is timed at each boundary, outside the phases' clocks.
    setup_refs = [setup_reference_s()]
    start = time.perf_counter()
    import repro  # timed: the import is part of set-up
    import workloads
    import_s = time.perf_counter() - start
    setup_refs.append(setup_reference_s())
    workload = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    ssd = workload.build(args.seed)
    build_s = time.perf_counter() - start
    setup_refs.append(setup_reference_s())
    start = time.perf_counter()
    ssd.prefill()
    prefill_s = time.perf_counter() - start
    setup_refs.append(setup_reference_s())
    record = {
        "import_s": import_s,
        "build_s": build_s,
        "prefill_s": prefill_s,
        "setup_refs_s": setup_refs,
    }
    if args.setup:
        print(json.dumps(record))
        return 0

    # A probe brackets its reference timing, so no slice contains it.
    marks: list = []
    refs: list = []

    def probe() -> None:
        marks.append(time.perf_counter())
        if not args.traced:
            refs.append(reference_s())
        marks.append(time.perf_counter())

    probes = arm_probes(ssd.sim, workload.window_us, probe)
    profile = None
    if args.traced:
        import cProfile
        import pstats

        import layers

        profiler = cProfile.Profile()
        t_run = time.perf_counter()
        profiler.enable()
        outcome = workload.drive(ssd, args.seed)
        profiler.disable()
        t_end = time.perf_counter()
        profile = layers.layer_profile(pstats.Stats(profiler),
                                       os.path.dirname(repro.__file__))
    else:
        t_run = time.perf_counter()
        outcome = workload.drive(ssd, args.seed)
        t_end = time.perf_counter()
        refs.append(reference_s())

    bounds = [t_run] + marks + [t_end]
    stats = workloads.observe(ssd, outcome, probes)
    failures = workload.check(stats)
    if profile is not None:
        failures += workloads.check_trace(args.workload, stats, profile)
    slices = [b - a for a, b in zip(bounds[::2], bounds[1::2])]
    record.update({
        "wall_s": sum(slices),
        "slices_s": slices,
        "slice_refs_s": refs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_backend": ssd.kernel_backend,
        "stats": stats,
        "digest": workloads.digest(stats),
        "check_failures": failures,
        "profile": profile,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
