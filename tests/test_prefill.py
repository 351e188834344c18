"""Device pre-conditioning: pinned prefill state and the one-shot contract.

Every configuration below is built and prefilled, then hashed: SHA-256
over the canonical JSON of ``(lpn_space, ftl.state_dict(),
backend.state_dict())``.  The digests are committed in
``golden_prefill.json``; a mismatch means prefill placed data, drew
random offsets or marked flash differently, so it must be deliberate
and explained in CHANGES.md.  The configurations cover the three
benchmark devices, a default-geometry baseline, a fill capped by the GC
reserve, an SRT-remapped dynamic-superblock device and a reliability
device whose bad-block remapper redirects blocks at prefill time.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import build_ssd, sim_geometry
from repro.errors import MappingError
from repro.flash import PhysAddr
from repro.reliability import ReliabilityConfig
from repro.superblock import LiveDynamicSuperblocks, SrtRemapper

GOLDEN_FILE = Path(__file__).with_name("golden_prefill.json")
GOLDEN = json.loads(GOLDEN_FILE.read_text())


def prefill_digest(ssd, lpn_space):
    """SHA-256 over the canonical JSON of the prefilled device state."""
    value = (lpn_space, ssd.ftl.state_dict(),
             ssd.datapath.backend.state_dict())
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _small_geometry():
    return sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=12,
                        pages_per_block=16)


def _reliability_config(**overrides):
    params = dict(base_rber=1e-4, rber_growth=8.0, pe_mean=4.0,
                  pe_sigma=1.0, spare_blocks_per_channel=2,
                  channel_fault_rate=1e-3, die_fault_rate=1e-3)
    params.update(overrides)
    return ReliabilityConfig(**params)


def _mixed_gc():
    return build_ssd("dssd_f", seed=1, prefill_fraction=0.85)


def _tenants_qos():
    return build_ssd("baseline", geometry=sim_geometry(), arbiter="wrr",
                     prefill_fraction=0.5, seed=1)


def _reliability_wear():
    return build_ssd("dssd_f", geometry=_small_geometry(),
                     reliability=_reliability_config(), copyback_ecc=True,
                     seed=1)


def _baseline_default():
    return build_ssd("baseline", prefill_fraction=0.9)


def _dssd_b_full():
    return build_ssd("dssd_b", prefill_fraction=1.0, seed=2)


def _srt_live_superblocks():
    geometry = _small_geometry()
    ssd = build_ssd("dssd_f", geometry=geometry, seed=3,
                    remapper=SrtRemapper(geometry, 6, seed=13))
    LiveDynamicSuperblocks(ssd, srt_capacity=64, reserved_superblocks=2)
    return ssd


def _reliability_remapped():
    ssd = build_ssd("dssd_f", geometry=_small_geometry(),
                    reliability=_reliability_config(
                        spare_blocks_per_channel=3),
                    seed=5)
    # Retire a few block positions onto spares before the fill, so the
    # bad-block remapper redirects where prefill marks flash programmed.
    badblocks = ssd.reliability.badblocks
    for channel in range(ssd.config.geometry.channels):
        assert badblocks.retire(PhysAddr(channel, 0, 0, 1, channel, 0)) \
            == "remapped"
    return ssd


PREFILL_CONFIGS = {
    "perfbench/mixed_gc": _mixed_gc,
    "perfbench/tenants_qos": _tenants_qos,
    "perfbench/reliability_wear": _reliability_wear,
    "baseline_default_0.9": _baseline_default,
    "dssd_b_reserve_capped_1.0": _dssd_b_full,
    "srt_live_superblocks": _srt_live_superblocks,
    "reliability_badblock_remapped": _reliability_remapped,
}


@pytest.mark.parametrize("name", sorted(PREFILL_CONFIGS))
def test_prefill_state_matches_golden(name):
    ssd = PREFILL_CONFIGS[name]()
    lpn_space = ssd.prefill()
    assert lpn_space > 0
    assert ssd.ftl.audit() == []
    digest = prefill_digest(ssd, lpn_space)
    assert digest == GOLDEN[name], (
        f"prefill digest for {name!r} moved: {digest} != {GOLDEN[name]}")


def test_prefill_configs_exercise_their_features():
    """The reserve cap and both remappers must really act during the
    fill, or their golden digests pin nothing beyond the plain path."""
    ssd = _dssd_b_full()
    ssd.prefill()
    geometry = ssd.config.geometry
    per_plane = sum(info.state == "full"
                    for info in ssd.blocks.blocks.values()) \
        // geometry.planes_total
    assert per_plane == (geometry.blocks_per_plane
                         - ssd.config.gc_reserve_blocks)

    for build in (_srt_live_superblocks, _reliability_remapped):
        ssd = build()
        ssd.prefill()
        full = [info.addr for info in ssd.blocks.blocks.values()
                if info.state == "full"]
        assert any(ssd.datapath.remap(addr) != addr for addr in full), \
            build.__name__
        skipped = [info for info in ssd.blocks.blocks.values()
                   if info.state in ("bad", "spare")]
        assert skipped, build.__name__


def test_second_prefill_is_rejected():
    """A second fill would restart LPNs at 0 over a mapped device."""
    ssd = build_ssd("baseline", geometry=sim_geometry())
    ftl = ssd.ftl
    first = ftl.prefill(0.5)
    before = (ftl.state_dict(), ssd.datapath.backend.state_dict())
    with pytest.raises(MappingError, match="already mapped"):
        ftl.prefill(0.9)
    assert ftl.audit() == []
    assert (ftl.state_dict(), ssd.datapath.backend.state_dict()) == before
    assert len(ftl.mapping) == first

    # The device-level entry point stays idempotent.
    ssd = build_ssd("baseline", geometry=sim_geometry())
    assert ssd.prefill() == ssd.prefill()
