"""The simulation run path must not import numpy.

numpy is needed only by the endurance and WAS models behind Figs 14-16.
Importing the simulator, building and prefilling a device and running
it must leave numpy unloaded, so no run-path module may import it at
module level.  The check runs in a fresh interpreter, because the test
process itself may already have numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import repro.core
import repro.host
import repro.reliability
import repro.workloads
from repro.core import build_ssd, sim_geometry
from repro.host import QosPolicy, TenantSpec
from repro.reliability import ReliabilityConfig
from repro.workloads import SyntheticWorkload

reliable = build_ssd(
    "dssd_f",
    geometry=sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=12,
                          pages_per_block=16),
    reliability=ReliabilityConfig(base_rber=1e-4, pe_mean=4.0, pe_sigma=1.0,
                                  channel_fault_rate=1e-3),
    copyback_ecc=True)
reliable.prefill()
result = reliable.run(SyntheticWorkload(pattern="rand_write"),
                      duration_us=1000.0)
assert result.requests_completed > 0, result

tenants = build_ssd("baseline", geometry=sim_geometry(), arbiter="wrr",
                    prefill_fraction=0.5)
tenants.prefill()
result = tenants.run_tenants([
    TenantSpec(name="reader",
               workload=SyntheticWorkload(pattern="rand_read"),
               driver="poisson", rate_iops=20_000.0,
               qos=QosPolicy(rate_iops=25_000.0, weight=4)),
    TenantSpec(name="writer",
               workload=SyntheticWorkload(pattern="rand_write",
                                          io_size=32768),
               driver="closed", queue_depth=8, qos=QosPolicy(weight=1)),
], duration_us=1000.0)
assert result.device.requests_completed > 0, result

assert "numpy" not in sys.modules, "the run path imported numpy"
print("ok")
"""


def test_run_path_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
