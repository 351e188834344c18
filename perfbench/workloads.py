"""The benchmark's three workloads: build, drive, observe and check.

Each workload simulates a fixed window of simulated time, so the work a
run does is set by the workload and the seed alone; only the host time
it takes varies.  Importing this module imports :mod:`repro`, so the
child process imports it after it has started the set-up clock.

* ``mixed_gc`` -- the canonical ``ssd_point``: dSSD_f, default
  geometry, 4 KiB random 50/50 read/write at QD64, prefill 0.85.  GC,
  global copyback and the fNoC do heavy work; ops take the flat
  datapath.
* ``tenants_qos`` -- baseline arch, WRR arbiter, prefill 0.5 (below the
  GC trigger).  An open-loop Poisson 4 KiB reader beside a closed-loop
  32 KiB writer at QD28, each with its own QoS policy (shaped like
  Fig 17).  Only this workload drives ``repro.host``.
* ``reliability_wear`` -- the ``fig_reliability`` point: dSSD_f with
  checked copyback on a small worn device, RBER 1e-4, rand_write over
  a 50 % working set.  Reliability configs force the layered datapath.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, NamedTuple

from repro.core import build_ssd, sim_geometry
from repro.host import QosPolicy, TenantSpec
from repro.reliability import ReliabilityConfig
from repro.workloads import SyntheticWorkload


class Workload(NamedTuple):
    """How to build one device and drive it for the fixed window."""

    window_us: float
    build: Callable[[int], object]
    drive: Callable[[object, int], object]
    check: Callable[[Dict[str, float]], List[str]]


# -- mixed_gc -----------------------------------------------------------------

MIXED_GC_WINDOW_US = 40_000.0


def _build_mixed_gc(seed: int):
    return build_ssd("dssd_f", seed=seed, prefill_fraction=0.85)


def _drive_mixed_gc(ssd, seed: int):
    workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                 read_fraction=0.5)
    return ssd.run(workload, duration_us=MIXED_GC_WINDOW_US)


def _check_mixed_gc(stats: Dict[str, float]) -> List[str]:
    return _require(stats, positive=("ftl.gc_pages_moved", "core.copybacks",
                                     "noc.packets"))


# -- tenants_qos --------------------------------------------------------------

TENANTS_QOS_WINDOW_US = 30_000.0
READER_RATE_IOPS = 20_000.0
READER_LIMIT_IOPS = 25_000.0
WRITER_QD = 28


def _build_tenants_qos(seed: int):
    return build_ssd("baseline", geometry=sim_geometry(), arbiter="wrr",
                     prefill_fraction=0.5, seed=seed)


def _drive_tenants_qos(ssd, seed: int):
    tenants = [
        TenantSpec(
            name="reader",
            workload=SyntheticWorkload(pattern="rand_read", io_size=4096),
            driver="poisson",
            rate_iops=READER_RATE_IOPS,
            qos=QosPolicy(rate_iops=READER_LIMIT_IOPS, burst_ops=4.0,
                          weight=4, priority=0),
            seed=2 * seed + 1,
        ),
        TenantSpec(
            name="writer",
            workload=SyntheticWorkload(pattern="rand_write", io_size=32768),
            driver="closed",
            queue_depth=WRITER_QD,
            qos=QosPolicy(weight=1, priority=4),
            seed=2 * seed + 2,
        ),
    ]
    return ssd.run_tenants(tenants, duration_us=TENANTS_QOS_WINDOW_US)


def _check_tenants_qos(stats: Dict[str, float]) -> List[str]:
    failures = _require(stats, positive=("tenant.reader.completed",
                                         "tenant.writer.completed"),
                        zero=("ftl.gc_pages_moved",))
    for name in ("reader", "writer"):
        prefix = f"tenant.{name}."
        accounted = stats[prefix + "admitted"] + stats[prefix + "dropped"]
        if stats[prefix + "arrivals"] != accounted:
            failures.append(f"{name}: arrivals {stats[prefix + 'arrivals']}"
                            f" != admitted + dropped {accounted}")
    return failures


# -- reliability_wear ---------------------------------------------------------

RELIABILITY_WINDOW_US = 60_000.0


def _build_reliability_wear(seed: int):
    geometry = sim_geometry(channels=4, ways=2, planes=2,
                            blocks_per_plane=12, pages_per_block=16)
    rel = ReliabilityConfig(
        base_rber=1e-4,
        rber_growth=8.0,
        pe_mean=4.0,
        pe_sigma=1.0,
        spare_blocks_per_channel=2,
        channel_fault_rate=1e-3,
        die_fault_rate=1e-3,
    )
    return build_ssd("dssd_f", geometry=geometry, reliability=rel,
                     copyback_ecc=True, seed=seed)


def _drive_reliability_wear(ssd, seed: int):
    workload = SyntheticWorkload(pattern="rand_write",
                                 working_set_fraction=0.5)
    return ssd.run(workload, duration_us=RELIABILITY_WINDOW_US)


def _check_reliability_wear(stats: Dict[str, float]) -> List[str]:
    return _require(stats, positive=("reliability.ladder_retries",
                                     "reliability.copy_errors_scrubbed"),
                    zero=("reliability.survivors_ge2",))


WORKLOADS: Dict[str, Workload] = {
    "mixed_gc": Workload(MIXED_GC_WINDOW_US, _build_mixed_gc,
                         _drive_mixed_gc, _check_mixed_gc),
    "tenants_qos": Workload(TENANTS_QOS_WINDOW_US, _build_tenants_qos,
                            _drive_tenants_qos, _check_tenants_qos),
    "reliability_wear": Workload(RELIABILITY_WINDOW_US,
                                 _build_reliability_wear,
                                 _drive_reliability_wear,
                                 _check_reliability_wear),
}


#: Layer predictions a traced run must bear out: layers that stay idle
#: and layers that must do work on each workload.
TRACE_EXPECTATIONS = {
    "mixed_gc": {"zero": ("host.calls", "reliability.calls")},
    "tenants_qos": {"positive": ("host.calls",),
                    "zero": ("noc.packets", "ftl.gc_pages_moved",
                             "reliability.calls")},
    "reliability_wear": {"positive": ("reliability.calls",),
                         "zero": ("host.calls",)},
}


def check_trace(name: str, stats: Dict[str, float],
                profile: Dict[str, float]) -> List[str]:
    """Failures of the layer predictions in a traced run of *name*."""
    return _require({**stats, **profile}, **TRACE_EXPECTATIONS[name])


def _require(stats: Dict[str, float], positive=(), zero=()) -> List[str]:
    failures = [f"{key} is {stats[key]}, expected > 0"
                for key in positive if not stats[key] > 0]
    failures += [f"{key} is {stats[key]}, expected 0"
                 for key in zero if stats[key] != 0]
    return failures


# -- observation --------------------------------------------------------------


def observe(ssd, outcome, probe_events: int = 0) -> Dict[str, float]:
    """The simulated outputs of one run, from the simulator's public stats.

    *outcome* is a ``RunResult`` or a ``MultiTenantResult``.  Every key
    is present for every workload (0 where a layer is idle), so records
    of different workloads share one schema.  *probe_events* callbacks
    the benchmark scheduled itself are left out of ``sim.events``.
    """
    tenants = getattr(outcome, "tenants", [])
    result = getattr(outcome, "device", outcome)
    datapath = ssd.datapath
    engines = getattr(datapath, "ecc_engines", None) or [datapath.ecc]
    extras = result.extras
    sq_waits = [tenant.sq_wait for tenant in tenants]
    sq_count = sum(wait.count for wait in sq_waits)
    stats = {
        "requests": result.requests_completed,
        # Scheduled callbacks; ``repro bench`` reads the same counter.
        "sim.events": ssd.sim._seq - probe_events,
        "noc.packets": result.fnoc_packets,
        "noc.util": result.fnoc_mean_utilization,
        "ftl.gc_pages_moved": result.gc.pages_moved,
        "core.copybacks": result.copybacks,
        "controller.bus_util": result.bus_utilization,
        "controller.dram_util": result.dram_utilization,
        "controller.ecc_pages": sum(e.pages_checked for e in engines),
        "flash.plane_util": result.mean_plane_utilization,
        "host.sq_wait_mean_us": (sum(wait.total for wait in sq_waits)
                                 / sq_count if sq_count else 0.0),
        "reliability.ladder_retries": extras.get("rel_ladder_retries", 0.0),
        "reliability.copy_errors_scrubbed": extras.get(
            "rel_copy_errors_scrubbed", 0.0),
        "reliability.survivors_ge2": extras.get("rel_survivors_ge2", 0.0),
    }
    for key, value in result.summary().items():
        stats[f"result.{key}"] = value
    for key, value in extras.items():
        stats[f"extras.{key}"] = value
    for tenant in tenants:
        prefix = f"tenant.{tenant.name}."
        stats[prefix + "admitted"] = tenant.admitted
        stats[prefix + "dispatched"] = tenant.dispatched
        for key, value in tenant.summary().items():
            stats[prefix + key] = value
    return stats


def digest(stats: Dict[str, float]) -> str:
    """A short, exact fingerprint of the simulated outputs."""
    text = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
