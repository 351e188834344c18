"""Golden schedule digests: the pinned reference behaviour of the kernel.

Every scenario here runs on the DES kernel and hashes what it observed
-- the event-ordering trace plus the final ``sim.now`` and sequence
counter, or a whole-device fingerprint -- with SHA-256 over canonical
JSON.  The digests are committed in ``golden_schedules.json`` and cover
kernel primitives (tie ordering, conditions, interrupts, late waiters),
the contention layer (resources, token pools, links, stores), fault
retries, the datapath under GC, copyback, fault retries and ECC
ladders, and one end-to-end dSSD_f point.  Unlike a same-process A/B,
they hold from one change to the next: any change to a digest moves a
simulated schedule, so it must be deliberate and explained in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.controller import FlashController
from repro.flash import FlashBackend, FlashChannel, FlashGeometry
from repro.flash.timing import ULL_TIMING
from repro.flash.geometry import PhysAddr
from repro.core.checkpoint import fastforward_wear
from repro.reliability import FaultInjector, ReliabilityConfig
from repro.sim import Interrupt, Link, Resource, Simulator, Store, TokenPool
from repro.sim.kernel import SimulationError

#: Committed SHA-256 digests of every pinned schedule in this file.
GOLDEN_FILE = Path(__file__).with_name("golden_schedules.json")
GOLDEN = json.loads(GOLDEN_FILE.read_text())


def schedule_digest(value):
    """SHA-256 over the canonical JSON of a trace or fingerprint."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_golden(key, value):
    """*value* must hash to the committed digest stored under *key*."""
    digest = schedule_digest(value)
    assert digest == GOLDEN[key], (
        f"schedule digest for {key!r} moved: {digest} != {GOLDEN[key]}")


def assert_golden(scenario, key):
    """Run *scenario* to completion; its schedule must match *key*."""
    sim = Simulator()
    trace = []
    scenario(sim, trace)
    sim.run()
    check_golden(key, (trace, sim.now, sim._seq))


# ---------------------------------------------------------------------------
# Kernel-level scenarios.
# ---------------------------------------------------------------------------

def test_timeout_tie_ordering():
    """Same-timestamp wakeups must dispatch in identical order."""

    def scenario(sim, trace):
        def worker(name, delay, steps):
            for step in range(steps):
                yield sim.timeout(delay)
                trace.append((sim.now, name, step))

        # Delays chosen so many workers collide on the same timestamps.
        for index in range(12):
            sim.process(worker(f"w{index}", 0.5 * (1 + index % 3), 20))

    assert_golden(scenario, "kernel/timeout_tie_ordering")


def test_event_trigger_values_and_fail():
    def scenario(sim, trace):
        evt = sim.event()
        boom = sim.event()

        def waiter(name, event):
            try:
                value = yield event
                trace.append((sim.now, name, "ok", value))
            except RuntimeError as exc:
                trace.append((sim.now, name, "err", str(exc)))

        def firer():
            yield sim.timeout(1.0)
            evt.trigger("payload")
            yield sim.timeout(1.0)
            boom.fail(RuntimeError("deliberate"))

        sim.process(waiter("a", evt))
        sim.process(waiter("b", boom))
        sim.process(firer())

    assert_golden(scenario, "kernel/event_trigger_values_and_fail")


def test_multiple_waiters_one_event():
    """A second waiter moves the event onto its callbacks list."""

    def scenario(sim, trace):
        evt = sim.event()

        def waiter(name):
            value = yield evt
            trace.append((sim.now, name, value))

        for index in range(5):
            sim.process(waiter(f"w{index}"))

        def firer():
            yield sim.timeout(2.0)
            evt.trigger(42)

        sim.process(firer())

    assert_golden(scenario, "kernel/multiple_waiters_one_event")


def test_late_add_callback_after_dispatch():
    """Waiting on an already-fired event resumes at the current time."""

    def scenario(sim, trace):
        evt = sim.event()

        def firer():
            yield sim.timeout(1.0)
            evt.trigger("early")

        def late():
            yield sim.timeout(5.0)
            value = yield evt  # fired 4us ago
            trace.append((sim.now, "late", value))

        sim.process(firer())
        sim.process(late())

    assert_golden(scenario, "kernel/late_add_callback_after_dispatch")


def test_process_join_and_return_value():
    def scenario(sim, trace):
        def child(delay, result):
            yield sim.timeout(delay)
            return result

        def parent():
            first = sim.process(child(3.0, "slow"))
            second = sim.process(child(1.0, "quick"))
            value = yield first
            trace.append((sim.now, "joined-first", value))
            value = yield second  # already finished: post-dispatch wait
            trace.append((sim.now, "joined-second", value))

        sim.process(parent())

    assert_golden(scenario, "kernel/process_join_and_return_value")


def test_allof_anyof_conditions():
    def scenario(sim, trace):
        def child(delay, result):
            yield sim.timeout(delay)
            return result

        def coordinator():
            procs = [sim.process(child(1.0 + i * 0.5, i)) for i in range(4)]
            values = yield sim.all_of(procs)
            trace.append((sim.now, "all", tuple(values)))
            racers = [sim.process(child(2.0 + i, 10 + i)) for i in range(4)]
            winner, value = yield sim.any_of(racers)
            trace.append((sim.now, "any", value, winner is racers[0]))
            yield sim.all_of(racers)
            trace.append((sim.now, "drained"))

        sim.process(coordinator())

    assert_golden(scenario, "kernel/allof_anyof_conditions")


def test_condition_failure_paths():
    def scenario(sim, trace):
        doomed = sim.event()

        def ok(delay):
            yield sim.timeout(delay)
            return delay

        def firer():
            yield sim.timeout(2.0)
            doomed.fail(RuntimeError("child failed"))

        def coordinator():
            survivor = sim.process(ok(3.0))
            events = [sim.process(ok(1.0)), doomed, survivor]
            try:
                yield sim.all_of(events)
            except RuntimeError as exc:
                trace.append((sim.now, "allof-failed", str(exc)))
            # Let the survivor finish so the queue drains.
            yield survivor
            trace.append((sim.now, "survivor-done"))

        sim.process(firer())
        sim.process(coordinator())

    assert_golden(scenario, "kernel/condition_failure_paths")


# ---------------------------------------------------------------------------
# Interrupt / preemption semantics.
# ---------------------------------------------------------------------------

def test_interrupt_waiting_process():
    def scenario(sim, trace):
        def sleeper():
            try:
                yield sim.timeout(100.0)
                trace.append((sim.now, "slept"))
            except Interrupt as intr:
                trace.append((sim.now, "interrupted", intr.cause))
                yield sim.timeout(1.0)
                trace.append((sim.now, "recovered"))

        victim = sim.process(sleeper())

        def gc_like():
            yield sim.timeout(5.0)
            victim.interrupt("preempt")

        sim.process(gc_like())

    assert_golden(scenario, "kernel/interrupt_waiting_process")


def test_interrupt_resource_holder_releases_in_finally():
    """Preemptive-GC pattern: the held slot must not leak on interrupt."""

    def scenario(sim, trace):
        resource = Resource(sim, capacity=1)

        def holder():
            grant = resource.request()
            try:
                yield grant
                trace.append((sim.now, "holder-granted"))
                yield sim.timeout(50.0)
                trace.append((sim.now, "holder-finished"))
            except Interrupt:
                trace.append((sim.now, "holder-preempted"))
            finally:
                resource.cancel(grant)

        def contender():
            yield sim.timeout(1.0)
            grant = resource.request()
            yield grant
            trace.append((sim.now, "contender-granted"))
            resource.release()

        victim = sim.process(holder())
        sim.process(contender())

        def preemptor():
            yield sim.timeout(10.0)
            victim.interrupt()

        sim.process(preemptor())

    assert_golden(scenario,
                      "kernel/interrupt_resource_holder_releases_in_finally")


def test_interrupt_finished_process_is_noop():
    def scenario(sim, trace):
        def quick():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(quick())

        def late_interrupter():
            yield sim.timeout(5.0)
            proc.interrupt("too late")
            value = yield proc
            trace.append((sim.now, "joined", value))

        sim.process(late_interrupter())

    assert_golden(scenario, "kernel/interrupt_finished_process_is_noop")


def test_fault_injection_retry_semantics():
    """Seeded channel/die faults must replay the pinned schedule."""

    def scenario(sim, trace):
        geometry = FlashGeometry(channels=1, ways=1, dies=1, planes=2,
                                 blocks_per_plane=8, pages_per_block=8)
        backend = FlashBackend(sim, geometry, ULL_TIMING)
        channel = FlashChannel(sim, 0, 1000.0)
        controller = FlashController(sim, 0, channel, backend)
        controller.fault_injector = FaultInjector(
            sim, channel_fault_rate=0.4, die_fault_rate=0.3, seed=7)

        def io():
            for page in range(6):
                addr = PhysAddr(0, 0, 0, 0, 0, page)
                breakdown = yield from controller.program_page(addr)
                trace.append((sim.now, "programmed", page,
                              round(breakdown.total, 9)))
            for page in range(6):
                addr = PhysAddr(0, 0, 0, 0, 0, page)
                breakdown = yield from controller.read_page(addr)
                trace.append((sim.now, "read", page,
                              round(breakdown.total, 9)))

        sim.process(io())

    assert_golden(scenario, "kernel/fault_injection_retry_semantics")


# ---------------------------------------------------------------------------
# Resource-layer scenarios.
# ---------------------------------------------------------------------------

def test_resource_priority_scheduling():
    def scenario(sim, trace):
        resource = Resource(sim, capacity=2)

        def user(name, priority, hold):
            grant = resource.request(priority)
            yield grant
            trace.append((sim.now, name, "granted"))
            yield sim.timeout(hold)
            resource.release()
            trace.append((sim.now, name, "released"))

        for index in range(8):
            sim.process(user(f"u{index}", priority=index % 3,
                             hold=1.0 + index * 0.25))

    assert_golden(scenario, "kernel/resource_priority_scheduling")


def test_tokenpool_credit_flow():
    def scenario(sim, trace):
        pool = TokenPool(sim, capacity=4)

        def borrower(name, count, hold):
            grant = pool.acquire(count)
            yield grant
            trace.append((sim.now, name, "got", count))
            yield sim.timeout(hold)
            pool.release(count)

        sim.process(borrower("a", 3, 2.0))
        sim.process(borrower("b", 2, 1.0))
        sim.process(borrower("c", 4, 0.5))
        sim.process(borrower("d", 1, 1.5))

    assert_golden(scenario, "kernel/tokenpool_credit_flow")


def test_link_serialization_and_start_events():
    def scenario(sim, trace):
        link = Link(sim, bandwidth=100.0)

        def sender(name, nbytes, when):
            yield sim.timeout(when)
            start, done = link.transfer_with_start(nbytes, "io")
            yield start
            trace.append((sim.now, name, "start"))
            wait = yield done
            trace.append((sim.now, name, "done", wait))

        sim.process(sender("x", 500, 0.0))
        sim.process(sender("y", 300, 1.0))
        sim.process(sender("z", 700, 1.0))

    assert_golden(scenario, "kernel/link_serialization_and_start_events")


def test_store_fifo_handoff():
    def scenario(sim, trace):
        store = Store(sim)

        def producer():
            for index in range(6):
                yield sim.timeout(1.0)
                store.put(index)

        def consumer(name):
            for _ in range(3):
                item = yield store.get()
                trace.append((sim.now, name, item))

        sim.process(producer())
        sim.process(consumer("c0"))
        sim.process(consumer("c1"))

    assert_golden(scenario, "kernel/store_fifo_handoff")


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


# ---------------------------------------------------------------------------
# Datapath scenarios: whole-device fingerprints under contention.
#
# Each public datapath op is one generator frame with ``is None``-guarded
# hook points.  The scenarios pin that path where the case is anything
# but common: operations blocking mid-op on busy planes/links, preemptive
# GC interrupting in-flight page moves, GC copybacks over every
# transport, and every hook -- the reliability engine's ECC ladder and
# copy bookkeeping (checked and unchecked copyback), fault retries, and
# the wear model's re-reads.  The digests were recorded while a second,
# layered implementation of the same ops still existed and matched it
# event for event.
# ---------------------------------------------------------------------------

def _tiny_geometry():
    """Small enough that a 3 ms write-leaning mix fills it and GC runs."""
    from repro.flash import FlashGeometry

    return FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                         blocks_per_plane=12, pages_per_block=16)


def _datapath_fingerprint(arch, duration, **overrides):
    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    pattern = overrides.pop("pattern", "mixed")
    read_fraction = overrides.pop("read_fraction", 0.3)
    working_set = overrides.pop("working_set", 1.0)
    prefill = overrides.pop("prefill", False)
    wear = overrides.pop("wear", None)
    if overrides.pop("tiny", False):
        overrides.update(geometry=_tiny_geometry(), prefill_fraction=0.92)
    ssd = build_ssd(arch, **overrides)
    if prefill:
        ssd.prefill()
    if wear is not None:
        fastforward_wear(ssd, wear)
    workload = SyntheticWorkload(pattern=pattern, io_size=4096,
                                 read_fraction=read_fraction,
                                 working_set_fraction=working_set)
    ssd.run(workload, duration_us=duration)
    ftl = ssd.ftl
    fingerprint = {
        "now": ssd.sim.now,
        "seq": ssd.sim._seq,
        "requests": ftl.requests_completed,
        "read_latency": ftl.read_latency.summary(),
        "write_latency": ftl.write_latency.summary(),
        "io_latency": ftl.io_latency.summary(),
        "breakdown": ftl.mean_io_breakdown().as_dict(),
        "copybacks": ssd.datapath.copybacks_completed,
        "gc_episodes": ssd.gc.stats.episodes,
        "gc_pages_moved": ssd.gc.stats.pages_moved,
        "pages_read": sum(c.pages_read for c in ssd.controllers),
        "pages_programmed": sum(c.pages_programmed
                                for c in ssd.controllers),
    }
    if ssd.reliability is not None:
        fingerprint["reliability"] = ssd.reliability.stats_dict()
    if wear is not None:
        fingerprint["read_retries"] = ssd.datapath.read_retries_performed
    return fingerprint


#: Reliability stack of the hook-path scenarios: an RBER at which fresh
#: pages already climb the ECC ladder, retention aging (so the program
#: timestamps ``on_program`` records move later reads), a P/E budget
#: small enough that GC erases wear blocks out onto the spare, and
#: transient channel/die faults frequent enough to retry within a few
#: milliseconds.
_RELIABILITY = ReliabilityConfig(base_rber=1e-3, retention_per_ms=0.1,
                                 pe_mean=4.0, pe_sigma=1.0,
                                 spare_blocks_per_channel=1,
                                 channel_fault_rate=2e-2,
                                 die_fault_rate=2e-2)


#: (scenario id, arch, duration_us, overrides).  The ``tiny`` scenarios
#: use a near-full small device so GC actually runs: page moves and
#: copybacks then contend with host I/O mid-operation.
_DATAPATH_SCENARIOS = [
    ("midop_blocking", "baseline", 2500.0, {"read_fraction": 0.2}),
    ("midop_blocking_dssd", "dssd_f", 2000.0, {"read_fraction": 0.3}),
    ("ecc_retry_ladder", "baseline", 2000.0,
     {"read_fraction": 0.7, "read_retry": True}),
    ("gc_page_moves", "baseline", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    ("gc_copybacks_fnoc", "dssd_f", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    ("gc_copybacks_dedicated_bus", "dssd_b", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    # The raised hard floor makes preemptive GC move pages *under* live
    # host I/O (its quiet-wait would otherwise stall all run long), so
    # page moves get preempt-polled and interleaved with host ops.
    ("preemptive_gc", "bw", 3000.0,
     {"read_fraction": 0.2, "gc_policy": "preemptive", "tiny": True,
      "prefill": True, "gc_hard_floor_fraction": 0.25}),
    # Hook paths: the ECC ladder, fault retries and checked/unchecked
    # copy bookkeeping of the reliability stack.  The baseline one writes
    # through, so host programs take ``io_program``, over a small working
    # set, so host reads meet pages that ``on_program`` stamped.
    ("reliability_checked_copyback", "dssd_f", 8000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True,
      "reliability": _RELIABILITY, "copyback_ecc": True}),
    ("reliability_unchecked_copyback", "dssd_f", 8000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True,
      "reliability": _RELIABILITY, "copyback_ecc": False}),
    ("reliability_baseline", "baseline", 8000.0,
     {"read_fraction": 0.5, "working_set": 0.05, "tiny": True,
      "prefill": True, "reliability": _RELIABILITY,
      "write_policy": "writethrough"}),
    # Wear-model re-reads: fast-forwarded to 90 % of the P/E budget, so
    # worn blocks need one or two read-retry passes.
    ("wear_read_retries", "baseline", 2000.0,
     {"read_fraction": 0.7, "read_retry": True, "prefill": True,
      "wear": 0.9}),
]


@pytest.mark.parametrize(
    "name,arch,duration,overrides", _DATAPATH_SCENARIOS,
    ids=[s[0] for s in _DATAPATH_SCENARIOS])
def test_datapath_scenario_matches_golden(name, arch, duration, overrides):
    check_golden(f"datapath/{name}",
                 _datapath_fingerprint(arch, duration, **dict(overrides)))


def test_flat_scenarios_exercise_their_features():
    """The scenarios must actually hit GC/retry/copyback machinery and
    every datapath hook, or their digests pin nothing."""
    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    ssd = build_ssd("baseline", read_retry=True)
    workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                 read_fraction=0.7)
    ssd.run(workload, duration_us=2000.0)
    assert ssd.datapath.wear_model is not None

    for name, arch, duration, overrides in _DATAPATH_SCENARIOS:
        if not (overrides.get("tiny") or "wear" in overrides):
            continue
        fp = _datapath_fingerprint(arch, duration, **dict(overrides))
        if "wear" in overrides:
            assert fp["read_retries"] > 0, name
            continue
        assert fp["gc_pages_moved"] > 0, name
        if arch.startswith("dssd"):
            assert fp["copybacks"] > 0, name
        if "reliability" in overrides:
            stats = fp["reliability"]
            assert stats["ladder_retries"] > 0, name
            assert stats["fault_retries"] > 0, name
            copy_errors = ("copy_errors_propagated"
                           if overrides.get("copyback_ecc") is False
                           else "copy_errors_scrubbed")
            assert stats[copy_errors] > 0, name


# ---------------------------------------------------------------------------
# End-to-end: one full SSD point.
# ---------------------------------------------------------------------------

def test_end_to_end_ssd_point_matches_golden():
    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    ssd = build_ssd("dssd_f")
    workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                 read_fraction=0.5)
    ssd.run(workload, duration_us=3000.0)
    ftl = ssd.ftl
    check_golden("ssd_point/dssd_f_3ms", {
        "now": ssd.sim.now,
        "seq": ssd.sim._seq,
        "requests": ftl.requests_completed,
        "read_latency": ftl.read_latency.summary(),
        "write_latency": ftl.write_latency.summary(),
        "fnoc_packets": ssd.fnoc.packets_sent,
        "fnoc_bytes": ssd.fnoc.bytes_sent,
        "copybacks": ssd.datapath.copybacks_completed,
    })
