"""Architecture datapaths: who moves the bytes, over which resources.

:class:`BaselineDatapath` is the conventional coupled SSD -- every GC
page copy bounces through the front-end (system bus -> DRAM -> system
bus).  :class:`DecoupledDatapath` implements the paper's contribution:
the decoupled flash controller executes a *global copyback* entirely in
the back-end, staging the page in its dBUF, checking it with its
integrated ECC engine, and handing it to a controller-to-controller
transport (shared bus, dedicated bus, or fNoC).

Host I/O takes the identical path on every architecture (paper Sec 4.1:
"the datapath used for the I/O commands is the same as the conventional
SSD").

Hot-path layout: each public datapath op (``io_read_flash``,
``io_flush_write``, ``io_program``, ``io_dram_rw``, ``gc_move``) is a
dispatcher.  When no reliability engine, wear model, or fault injector
is attached (the common case), it returns a *flat* generator that walks
the whole resource chain -- plane grant, array timeout, channel/bus/DRAM
link transfers, ECC lane -- in one frame.  The flat twins push the exact
same events into the kernel as the layered ``yield from`` chains (same
order, times, and sequence numbers), so all timing stays byte-identical;
only the 4-6 intermediate Python generator frames per page op are gone.
Setting ``use_flat_path = False`` forces the layered chain everywhere
(the equivalence suite diffs both paths event-for-event).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..controller import Breakdown, Dram, EccEngine, FlashController, SystemBus
from ..errors import ConfigError, FlashError
from ..flash import PhysAddr
from ..sim import Simulator, TokenPool
from .copyback import CopybackCommand, CopybackStatus
from .transport import CopybackTransport

__all__ = ["BaselineDatapath", "DecoupledDatapath"]

#: Type of the optional physical-address remap hook (SRT layer).
Remapper = Callable[[PhysAddr], PhysAddr]


class BaselineDatapath:
    """Conventional coupled SSD datapath."""

    #: Route ops through the single-frame fast path when eligible.
    #: Class-level switch so tests can force the layered generator
    #: chain and assert byte-identical traces against it.
    use_flat_path = True

    def __init__(self, sim: Simulator, bus: SystemBus, dram: Dram,
                 ecc: EccEngine, controllers: List[FlashController],
                 remapper: Optional[Remapper] = None,
                 staging_pages: int = 16):
        self.sim = sim
        self.bus = bus
        self.dram = dram
        self.ecc = ecc
        self.controllers = controllers
        self.remapper = remapper
        self.backend = controllers[0].backend
        self.page_size = controllers[0].page_size
        self.copybacks_completed = 0
        #: Optional :class:`~repro.flash.WearModel`: when set, reads to
        #: worn blocks pay read-retry passes (extra array read + ECC).
        self.wear_model = None
        self.read_retries_performed = 0
        #: Optional :class:`~repro.reliability.ReliabilityEngine`.  When
        #: attached it owns the read-verify path (RBER sampling + ECC
        #: read-retry ladder) and the copy error-propagation bookkeeping.
        self.reliability = None
        # GC copies stage through each controller's page buffers; the
        # buffer capacity bounds in-flight GC pages per channel exactly
        # as the dBUF does in the decoupled architectures (keeping the
        # comparison's staging capacity equal across Table 2 configs).
        self.gc_staging = [
            TokenPool(sim, staging_pages, name=f"staging{c.controller_id}")
            for c in controllers
        ]

    # -- shared helpers ------------------------------------------------------

    def remap(self, addr: PhysAddr) -> PhysAddr:
        """Apply the hardware remap layer (dynamic superblocks), if any."""
        return self.remapper(addr) if self.remapper is not None else addr

    def controller_for(self, addr: PhysAddr) -> FlashController:
        """The flash controller owning *addr*'s channel."""
        return self.controllers[addr.channel]

    def _bus(self, nbytes: int, traffic_class: str,
             breakdown: Breakdown, priority: int = 0) -> Generator:
        t0 = self.sim.now
        yield from self.bus.transfer(nbytes, traffic_class, priority)
        breakdown.add("system_bus", self.sim.now - t0)

    def _dram(self, nbytes: int, traffic_class: str,
              breakdown: Breakdown, direction: str = "write",
              priority: int = 0) -> Generator:
        t0 = self.sim.now
        yield from self.dram.access(nbytes, traffic_class,
                                    priority=priority, direction=direction)
        breakdown.add("dram", self.sim.now - t0)

    def _ecc(self, engine: EccEngine, nbytes: int,
             breakdown: Breakdown, priority: int = 0) -> Generator:
        t0 = self.sim.now
        yield from engine.check(nbytes, priority)
        breakdown.add("ecc", self.sim.now - t0)

    def ecc_for(self, channel: int) -> EccEngine:
        """ECC engine used for traffic on *channel* (shared front pool)."""
        return self.ecc

    # -- host I/O paths ----------------------------------------------------------

    def io_dram_rw(self, nbytes: int, breakdown: Breakdown,
                   direction: str = "write",
                   priority: int = 0) -> Generator:
        """DRAM-serviced I/O: one bus traversal plus one DRAM access."""
        if self.use_flat_path:
            return self._io_dram_rw_flat(nbytes, breakdown, direction,
                                         priority)
        return self._io_dram_rw_gen(nbytes, breakdown, direction, priority)

    def _io_dram_rw_flat(self, nbytes: int, breakdown: Breakdown,
                         direction: str, priority: int) -> Generator:
        """Single-frame bus + DRAM access (no helper-generator hops)."""
        sim = self.sim
        t0 = sim.now
        yield self.bus.link.transfer(nbytes, "io", priority)
        breakdown.add("system_bus", sim.now - t0)
        t0 = sim.now
        link = (self.dram.read_link if direction == "read"
                else self.dram.write_link)
        yield link.transfer(nbytes, "io", priority)
        breakdown.add("dram", sim.now - t0)

    def _io_dram_rw_gen(self, nbytes: int, breakdown: Breakdown,
                        direction: str, priority: int) -> Generator:
        """Layered bus + DRAM chain (flat-path equivalence reference)."""
        yield from self._bus(nbytes, "io", breakdown, priority)
        yield from self._dram(nbytes, "io", breakdown, direction, priority)

    def _read_retries(self, addr: PhysAddr) -> int:
        if self.wear_model is None:
            return 0
        block_index = self.backend.geometry.block_index(addr)
        erase_count = self.backend.erase_count(addr)
        return self.wear_model.read_retries(erase_count, block_index)

    def io_read_flash(self, addr: PhysAddr, breakdown: Breakdown,
                      priority: int = 0) -> Generator:
        """Flash read: array -> flash bus -> ECC -> system bus.

        Worn blocks may need read-retry passes: each retry repeats the
        array read and the ECC decode before the data is trusted.
        """
        if (self.use_flat_path and self.reliability is None
                and self.wear_model is None):
            r_addr = self.remapper(addr) if self.remapper is not None else addr
            if self.controllers[r_addr.channel].fault_injector is None:
                return self._io_read_flash_flat(r_addr, breakdown, priority)
        return self._io_read_flash_gen(addr, breakdown, priority)

    def _io_read_flash_flat(self, addr: PhysAddr, breakdown: Breakdown,
                            priority: int) -> Generator:
        """Single-frame flash read; *addr* is already remapped.

        Pushes the exact events of the layered chain (plane grant, array
        timeout, flash-bus transfer, ECC lane grant + decode timeout,
        system-bus transfer) from one generator frame.
        """
        sim = self.sim
        page_size = self.page_size
        backend = self.backend
        controller = self.controllers[addr.channel]
        # Array read (backend.read + plane.occupy, inlined).
        backend.geometry.validate(addr)
        plane_id = backend._plane_id(addr)
        if backend.enforce_discipline:
            state = backend._block_state_at(
                plane_id * backend._blocks_per_plane + addr[4])
            if addr[5] not in state.programmed:
                raise FlashError(f"read of unwritten page {addr}")
        duration = (backend._read_mid if backend.deterministic_timing
                    else backend.timing.sample_read(backend._rng))
        plane = backend.planes[plane_id]
        t_request = sim.now
        grant = plane.resource.request()
        service_start = None
        try:
            yield grant
            service_start = sim.now
            yield sim.timeout(duration)
        finally:
            if service_start is not None:
                plane.busy_time += sim.now - service_start
                plane.op_counts["read"] = plane.op_counts.get("read", 0) + 1
            plane.resource.cancel(grant)
        breakdown.add("flash_chip", (service_start - t_request) + duration)
        # Flash-bus transfer out of the page register.
        channel = controller.channel
        t0 = sim.now
        yield channel.link.transfer(page_size + channel._overhead_bytes,
                                    "io", priority if priority is not None
                                    else 0)
        breakdown.add("flash_bus", sim.now - t0)
        controller.pages_read += 1
        # ECC decode (front-end pool or integrated engine).
        engine = self.ecc_for(addr.channel)
        t0 = sim.now
        grant = engine._lanes.request(priority, owner=engine.name or "ecc")
        service_start = None
        try:
            yield grant
            service_start = sim.now
            yield sim.timeout(engine.decode_time(page_size))
        finally:
            if service_start is not None:
                engine.busy_time += sim.now - service_start
                engine.pages_checked += 1
            engine._lanes.cancel(grant)
        breakdown.add("ecc", sim.now - t0)
        # System bus to the host interface.
        t0 = sim.now
        yield self.bus.link.transfer(page_size, "io", priority)
        breakdown.add("system_bus", sim.now - t0)

    def _io_read_flash_gen(self, addr: PhysAddr, breakdown: Breakdown,
                           priority: int) -> Generator:
        """Layered read chain (reliability / wear-retry capable)."""
        addr = self.remap(addr)
        controller = self.controller_for(addr)
        yield from controller.read_page(addr, "io", breakdown, priority)
        if self.reliability is not None:
            yield from self.reliability.post_read(addr, breakdown,
                                                  priority, "io")
        else:
            yield from self._ecc(self.ecc_for(addr.channel), self.page_size,
                                 breakdown, priority)
            for _retry in range(self._read_retries(addr)):
                self.read_retries_performed += 1
                yield from controller.read_page(addr, "io", breakdown,
                                                priority)
                yield from self._ecc(self.ecc_for(addr.channel),
                                     self.page_size, breakdown, priority)
        yield from self._bus(self.page_size, "io", breakdown, priority)

    def _program_inline(self, addr: PhysAddr) -> tuple:
        """Resolve the array-program state for an inlined program segment.

        Returns ``(plane, duration)`` after the validate/discipline steps
        the layered ``backend.program`` would run at the same point.
        """
        backend = self.backend
        backend.geometry.validate(addr)
        plane_id = backend._plane_id(addr)
        if backend.enforce_discipline:
            state = backend._block_state_at(
                plane_id * backend._blocks_per_plane + addr[4])
            if addr[5] in state.programmed:
                raise FlashError(f"reprogram of page {addr} without erase")
            state.programmed.add(addr[5])
        duration = (backend._program_mid if backend.deterministic_timing
                    else backend.timing.sample_program(backend._rng))
        return backend.planes[plane_id], duration

    def io_flush_write(self, addr: PhysAddr,
                       breakdown: Breakdown) -> Generator:
        """Write-back flush: DRAM read -> system bus -> flash program."""
        if self.use_flat_path and self.reliability is None:
            r_addr = self.remapper(addr) if self.remapper is not None else addr
            if self.controllers[r_addr.channel].fault_injector is None:
                return self._io_flush_write_flat(r_addr, breakdown)
        return self._io_flush_write_gen(addr, breakdown)

    def _io_flush_write_flat(self, addr: PhysAddr,
                             breakdown: Breakdown) -> Generator:
        """Single-frame flush; *addr* is already remapped."""
        sim = self.sim
        page_size = self.page_size
        controller = self.controllers[addr.channel]
        t0 = sim.now
        yield self.dram.read_link.transfer(page_size, "io", 0)
        breakdown.add("dram", sim.now - t0)
        t0 = sim.now
        yield self.bus.link.transfer(page_size, "io", 0)
        breakdown.add("system_bus", sim.now - t0)
        # Program (channel register load, then array), inlined.
        channel = controller.channel
        t0 = sim.now
        yield channel.link.transfer(page_size + channel._overhead_bytes,
                                    "io", 0)
        breakdown.add("flash_bus", sim.now - t0)
        plane, duration = self._program_inline(addr)
        t_request = sim.now
        grant = plane.resource.request()
        service_start = None
        try:
            yield grant
            service_start = sim.now
            yield sim.timeout(duration)
        finally:
            if service_start is not None:
                plane.busy_time += sim.now - service_start
                plane.op_counts["program"] = (
                    plane.op_counts.get("program", 0) + 1)
            plane.resource.cancel(grant)
        breakdown.add("flash_chip", (service_start - t_request) + duration)
        controller.pages_programmed += 1

    def _io_flush_write_gen(self, addr: PhysAddr,
                            breakdown: Breakdown) -> Generator:
        """Layered flush chain (reliability-capable slow path)."""
        addr = self.remap(addr)
        yield from self._dram(self.page_size, "io", breakdown, "read")
        yield from self._bus(self.page_size, "io", breakdown)
        yield from self.controller_for(addr).program_page(addr, "io",
                                                          breakdown)
        if self.reliability is not None:
            self.reliability.on_program(addr)

    def io_program(self, addr: PhysAddr, breakdown: Breakdown,
                   priority: int = 0) -> Generator:
        """Write-through program: system bus -> flash program."""
        if self.use_flat_path and self.reliability is None:
            r_addr = self.remapper(addr) if self.remapper is not None else addr
            if self.controllers[r_addr.channel].fault_injector is None:
                return self._io_program_flat(r_addr, breakdown, priority)
        return self._io_program_gen(addr, breakdown, priority)

    def _io_program_flat(self, addr: PhysAddr, breakdown: Breakdown,
                         priority: int) -> Generator:
        """Single-frame write-through program; *addr* already remapped."""
        sim = self.sim
        page_size = self.page_size
        controller = self.controllers[addr.channel]
        t0 = sim.now
        yield self.bus.link.transfer(page_size, "io", priority)
        breakdown.add("system_bus", sim.now - t0)
        channel = controller.channel
        t0 = sim.now
        yield channel.link.transfer(page_size + channel._overhead_bytes,
                                    "io", priority if priority is not None
                                    else 0)
        breakdown.add("flash_bus", sim.now - t0)
        plane, duration = self._program_inline(addr)
        t_request = sim.now
        grant = plane.resource.request()
        service_start = None
        try:
            yield grant
            service_start = sim.now
            yield sim.timeout(duration)
        finally:
            if service_start is not None:
                plane.busy_time += sim.now - service_start
                plane.op_counts["program"] = (
                    plane.op_counts.get("program", 0) + 1)
            plane.resource.cancel(grant)
        breakdown.add("flash_chip", (service_start - t_request) + duration)
        controller.pages_programmed += 1

    def _io_program_gen(self, addr: PhysAddr, breakdown: Breakdown,
                        priority: int) -> Generator:
        """Layered write-through chain (reliability-capable slow path)."""
        addr = self.remap(addr)
        yield from self._bus(self.page_size, "io", breakdown, priority)
        yield from self.controller_for(addr).program_page(addr, "io",
                                                          breakdown,
                                                          priority)
        if self.reliability is not None:
            self.reliability.on_program(addr)

    # -- garbage-collection paths ---------------------------------------------------

    def gc_move(self, src: PhysAddr, dst: PhysAddr,
                apply_remap: bool = True) -> Generator:
        """Conventional GC copy: the page crosses the front-end twice.

        flash read -> system bus -> ECC -> DRAM write -> DRAM read ->
        system bus -> flash program (paper Fig 1).  ``apply_remap=False``
        addresses raw physical blocks -- used by the dynamic-superblock
        recycling copy, which itself installs the remap entries.
        """
        if self.use_flat_path and self.reliability is None:
            r_src = self.remap(src) if apply_remap else src
            r_dst = self.remap(dst) if apply_remap else dst
            if (self.controllers[r_src.channel].fault_injector is None
                    and self.controllers[r_dst.channel].fault_injector
                    is None):
                return self._gc_move_flat(r_src, r_dst)
        return self._gc_move_gen(src, dst, apply_remap)

    def _read_inline(self, addr: PhysAddr) -> tuple:
        """Resolve the array-read state for an inlined read segment.

        Returns ``(plane, duration)`` after the validate/discipline steps
        the layered ``backend.read`` would run at the same point.
        """
        backend = self.backend
        backend.geometry.validate(addr)
        plane_id = backend._plane_id(addr)
        if backend.enforce_discipline:
            state = backend._block_state_at(
                plane_id * backend._blocks_per_plane + addr[4])
            if addr[5] not in state.programmed:
                raise FlashError(f"read of unwritten page {addr}")
        duration = (backend._read_mid if backend.deterministic_timing
                    else backend.timing.sample_read(backend._rng))
        return backend.planes[plane_id], duration

    def _gc_move_flat(self, src: PhysAddr, dst: PhysAddr) -> Generator:
        """Single-frame conventional GC copy; addresses already remapped."""
        sim = self.sim
        page_size = self.page_size
        breakdown = Breakdown()
        src_pool = self.gc_staging[src.channel]
        src_grant = src_pool.acquire(1)
        try:
            yield src_grant
            # Flash read out of the victim (read_page inlined, gc class).
            controller = self.controllers[src.channel]
            plane, duration = self._read_inline(src)
            t_request = sim.now
            grant = plane.resource.request()
            service_start = None
            try:
                yield grant
                service_start = sim.now
                yield sim.timeout(duration)
            finally:
                if service_start is not None:
                    plane.busy_time += sim.now - service_start
                    plane.op_counts["read"] = (
                        plane.op_counts.get("read", 0) + 1)
                plane.resource.cancel(grant)
            breakdown.add("flash_chip",
                          (service_start - t_request) + duration)
            channel = controller.channel
            t0 = sim.now
            yield channel.link.transfer(page_size + channel._overhead_bytes,
                                        "gc", -1)
            breakdown.add("flash_bus", sim.now - t0)
            controller.pages_read += 1
            # System bus into the front end.
            t0 = sim.now
            yield self.bus.link.transfer(page_size, "gc", 0)
            breakdown.add("system_bus", sim.now - t0)
            # Front-end ECC (conventional copies are always checked).
            engine = self.ecc_for(src.channel)
            t0 = sim.now
            grant = engine._lanes.request(0, owner=engine.name or "ecc")
            service_start = None
            try:
                yield grant
                service_start = sim.now
                yield sim.timeout(engine.decode_time(page_size))
            finally:
                if service_start is not None:
                    engine.busy_time += sim.now - service_start
                    engine.pages_checked += 1
                engine._lanes.cancel(grant)
            breakdown.add("ecc", sim.now - t0)
            # Stage in DRAM.
            t0 = sim.now
            yield self.dram.write_link.transfer(page_size, "gc", 0)
            breakdown.add("dram", sim.now - t0)
        finally:
            src_pool.cancel(src_grant)
        dst_pool = self.gc_staging[dst.channel]
        dst_grant = dst_pool.acquire(1)
        try:
            yield dst_grant
            t0 = sim.now
            yield self.dram.read_link.transfer(page_size, "gc", 0)
            breakdown.add("dram", sim.now - t0)
            t0 = sim.now
            yield self.bus.link.transfer(page_size, "gc", 0)
            breakdown.add("system_bus", sim.now - t0)
            # Program into the destination (program_page inlined).
            controller = self.controllers[dst.channel]
            channel = controller.channel
            t0 = sim.now
            yield channel.link.transfer(page_size + channel._overhead_bytes,
                                        "gc", -1)
            breakdown.add("flash_bus", sim.now - t0)
            plane, duration = self._program_inline(dst)
            t_request = sim.now
            grant = plane.resource.request()
            service_start = None
            try:
                yield grant
                service_start = sim.now
                yield sim.timeout(duration)
            finally:
                if service_start is not None:
                    plane.busy_time += sim.now - service_start
                    plane.op_counts["program"] = (
                        plane.op_counts.get("program", 0) + 1)
                plane.resource.cancel(grant)
            breakdown.add("flash_chip",
                          (service_start - t_request) + duration)
            controller.pages_programmed += 1
        finally:
            dst_pool.cancel(dst_grant)
        return breakdown

    def _gc_move_gen(self, src: PhysAddr, dst: PhysAddr,
                     apply_remap: bool) -> Generator:
        """Layered conventional GC chain (reliability-capable)."""
        if apply_remap:
            src = self.remap(src)
            dst = self.remap(dst)
        breakdown = Breakdown()
        outcome = None
        src_pool = self.gc_staging[src.channel]
        src_grant = src_pool.acquire(1)
        try:
            yield src_grant
            yield from self.controller_for(src).read_page(src, "gc",
                                                          breakdown)
            yield from self._bus(self.page_size, "gc", breakdown)
            # The conventional GC copy always passes the front-end ECC,
            # so errors never propagate -- at the price of crossing the
            # whole front-end (the paper's Fig 1 argument).
            if self.reliability is not None:
                outcome = yield from self.reliability.post_read(
                    src, breakdown, 0, "gc")
            else:
                yield from self._ecc(self.ecc_for(src.channel),
                                     self.page_size, breakdown)
            yield from self._dram(self.page_size, "gc", breakdown, "write")
        finally:
            src_pool.cancel(src_grant)
        dst_pool = self.gc_staging[dst.channel]
        dst_grant = dst_pool.acquire(1)
        try:
            yield dst_grant
            yield from self._dram(self.page_size, "gc", breakdown, "read")
            yield from self._bus(self.page_size, "gc", breakdown)
            yield from self.controller_for(dst).program_page(dst, "gc",
                                                             breakdown)
            if self.reliability is not None:
                self.reliability.commit_copy(src, dst, checked=True,
                                             outcome=outcome)
        finally:
            dst_pool.cancel(dst_grant)
        return breakdown

    def gc_erase(self, addr: PhysAddr, apply_remap: bool = True) -> Generator:
        """Erase a victim block."""
        if apply_remap:
            addr = self.remap(addr)
        breakdown = Breakdown()
        yield from self.controller_for(addr).erase_block(addr, "gc",
                                                         breakdown)
        if self.reliability is not None:
            self.reliability.on_erase_block(addr)
        return breakdown


class DecoupledDatapath(BaselineDatapath):
    """dSSD / dSSD_b / dSSD_f datapath: back-end global copyback.

    Each decoupled controller has its own integrated ECC engine and a
    dBUF of ``dbuf_pages`` page slots.  GC copies never touch the DRAM,
    and cross the system bus only in the plain-``dSSD`` configuration
    (whose transport *is* the shared bus, one traversal, no DRAM).
    """

    def __init__(self, sim: Simulator, bus: SystemBus, dram: Dram,
                 ecc_engines: List[EccEngine],
                 controllers: List[FlashController],
                 transport: CopybackTransport,
                 dbuf_pages: int = 16,
                 remapper: Optional[Remapper] = None,
                 check_ecc: bool = True):
        if len(ecc_engines) != len(controllers):
            raise ConfigError(
                "decoupled datapath needs one ECC engine per controller"
            )
        if dbuf_pages < 2:
            raise ConfigError(f"dbuf_pages must be >= 2: {dbuf_pages}")
        super().__init__(sim, bus, dram, ecc_engines[0], controllers,
                         remapper, staging_pages=dbuf_pages)
        self.ecc_engines = ecc_engines
        self.transport = transport
        # check_ecc=False models *legacy* copyback semantics: the page is
        # copied without error check/correction, so bit errors propagate
        # silently -- the very reason copyback is unusable in
        # conventional SSDs (Sec 4.2).  Kept as an ablation knob.
        self.check_ecc = check_ecc
        self.unchecked_copies = 0
        self.dbufs = [
            TokenPool(sim, dbuf_pages, name=f"dbuf{c.controller_id}")
            for c in controllers
        ]
        self.copyback_log: List[CopybackCommand] = []
        self.copyback_log_limit = 1024

    def ecc_for(self, channel: int) -> EccEngine:
        """The integrated ECC engine of *channel*'s decoupled controller."""
        return self.ecc_engines[channel]

    def _gc_move_flat(self, src: PhysAddr, dst: PhysAddr) -> Generator:
        """Single-frame global copyback; addresses already remapped.

        The transport hop (fNoC packet walk / dedicated bus) stays a
        ``yield from`` -- it is one sub-generator, not the 4-6 frame
        read/program chains this flattening removes.
        """
        sim = self.sim
        page_size = self.page_size
        if len(self.copyback_log) < self.copyback_log_limit:
            command = CopybackCommand(src=src, dst=dst)
            self.copyback_log.append(command)
        else:
            command = None
        breakdown = Breakdown()

        src_dbuf = self.dbufs[src.channel]
        src_grant = src_dbuf.acquire(1)
        src_held = True
        try:
            yield src_grant
            # (2,3) read into the source controller's dBUF (inlined).
            controller = self.controllers[src.channel]
            plane, duration = self._read_inline(src)
            t_request = sim.now
            grant = plane.resource.request()
            service_start = None
            try:
                yield grant
                service_start = sim.now
                yield sim.timeout(duration)
            finally:
                if service_start is not None:
                    plane.busy_time += sim.now - service_start
                    plane.op_counts["read"] = (
                        plane.op_counts.get("read", 0) + 1)
                plane.resource.cancel(grant)
            breakdown.add("flash_chip",
                          (service_start - t_request) + duration)
            channel = controller.channel
            t0 = sim.now
            yield channel.link.transfer(page_size + channel._overhead_bytes,
                                        "gc", -1)
            breakdown.add("flash_bus", sim.now - t0)
            controller.pages_read += 1
            if command is not None:
                command.advance(CopybackStatus.READ, sim.now)

            # (4) error check with the integrated ECC engine.
            if self.check_ecc:
                engine = self.ecc_engines[src.channel]
                t0 = sim.now
                grant = engine._lanes.request(0, owner=engine.name or "ecc")
                service_start = None
                try:
                    yield grant
                    service_start = sim.now
                    yield sim.timeout(engine.decode_time(page_size))
                finally:
                    if service_start is not None:
                        engine.busy_time += sim.now - service_start
                        engine.pages_checked += 1
                    engine._lanes.cancel(grant)
                breakdown.add("ecc", sim.now - t0)
            else:
                self.unchecked_copies += 1
            if command is not None:
                command.advance(CopybackStatus.READ_ECC, sim.now)

            if src.channel == dst.channel:
                # Same channel: program straight from the source dBUF.
                controller = self.controllers[dst.channel]
                channel = controller.channel
                t0 = sim.now
                yield channel.link.transfer(
                    page_size + channel._overhead_bytes, "gc", -1)
                breakdown.add("flash_bus", sim.now - t0)
                plane, duration = self._program_inline(dst)
                t_request = sim.now
                grant = plane.resource.request()
                service_start = None
                try:
                    yield grant
                    service_start = sim.now
                    yield sim.timeout(duration)
                finally:
                    if service_start is not None:
                        plane.busy_time += sim.now - service_start
                        plane.op_counts["program"] = (
                            plane.op_counts.get("program", 0) + 1)
                    plane.resource.cancel(grant)
                breakdown.add("flash_chip",
                              (service_start - t_request) + duration)
                controller.pages_programmed += 1
                if command is not None:
                    command.advance(CopybackStatus.WRITTEN, sim.now)
            else:
                # (5-8) hand the page to the interconnect, then (9,10)
                # program at the destination; the source slot is released
                # at the network interface exactly as in the layered path.
                if command is not None:
                    command.advance(CopybackStatus.PACKETIZED, sim.now)
                src_dbuf.cancel(src_grant)
                src_held = False
                dst_dbuf = self.dbufs[dst.channel]
                dst_grant = dst_dbuf.acquire(1)
                try:
                    yield dst_grant
                    yield from self.transport.move(src.channel, dst.channel,
                                                   page_size, breakdown)
                    if command is not None:
                        command.advance(CopybackStatus.TRANSFERRED,
                                        sim.now)
                    controller = self.controllers[dst.channel]
                    channel = controller.channel
                    t0 = sim.now
                    yield channel.link.transfer(
                        page_size + channel._overhead_bytes, "gc", -1)
                    breakdown.add("flash_bus", sim.now - t0)
                    plane, duration = self._program_inline(dst)
                    t_request = sim.now
                    grant = plane.resource.request()
                    service_start = None
                    try:
                        yield grant
                        service_start = sim.now
                        yield sim.timeout(duration)
                    finally:
                        if service_start is not None:
                            plane.busy_time += sim.now - service_start
                            plane.op_counts["program"] = (
                                plane.op_counts.get("program", 0) + 1)
                        plane.resource.cancel(grant)
                    breakdown.add("flash_chip",
                                  (service_start - t_request) + duration)
                    controller.pages_programmed += 1
                    if command is not None:
                        command.advance(CopybackStatus.WRITTEN, sim.now)
                finally:
                    dst_dbuf.cancel(dst_grant)
        finally:
            if src_held:
                src_dbuf.cancel(src_grant)

        self.copybacks_completed += 1
        return breakdown

    def _gc_move_gen(self, src: PhysAddr, dst: PhysAddr,
                     apply_remap: bool) -> Generator:
        """Layered global copyback (paper Fig 4), reliability-capable."""
        if apply_remap:
            src = self.remap(src)
            dst = self.remap(dst)
        # Command bookkeeping exists only to feed the copyback log; once
        # the log is full the per-stage status tracking is dead work on
        # the hottest GC path, so skip it entirely (timing unchanged).
        if len(self.copyback_log) < self.copyback_log_limit:
            command = CopybackCommand(src=src, dst=dst)
            self.copyback_log.append(command)
        else:
            command = None
        breakdown = Breakdown()
        outcome = None

        # (2,3) read the page into the source controller's dBUF.
        src_dbuf = self.dbufs[src.channel]
        src_grant = src_dbuf.acquire(1)
        src_held = True
        try:
            yield src_grant
            yield from self.controller_for(src).read_page(src, "gc",
                                                          breakdown)
            if command is not None:
                command.advance(CopybackStatus.READ, self.sim.now)

            # (4) error check with the integrated ECC engine.
            if self.check_ecc:
                if self.reliability is not None:
                    outcome = yield from self.reliability.post_read(
                        src, breakdown, 0, "gc")
                else:
                    yield from self._ecc(self.ecc_for(src.channel),
                                         self.page_size, breakdown)
            else:
                self.unchecked_copies += 1
            if command is not None:
                command.advance(CopybackStatus.READ_ECC, self.sim.now)

            if src.channel == dst.channel:
                # Same channel: program straight from the source dBUF.
                yield from self.controller_for(dst).program_page(dst, "gc",
                                                                 breakdown)
                if command is not None:
                    command.advance(CopybackStatus.WRITTEN, self.sim.now)
            else:
                # (5-8) packetize, traverse the interconnect into the
                # destination dBUF, then (9,10) program at the
                # destination.  The source slot is released once the page
                # is handed to the network interface -- holding both
                # slots while waiting for the destination could deadlock
                # opposing copyback streams.
                if command is not None:
                    command.advance(CopybackStatus.PACKETIZED, self.sim.now)
                src_dbuf.cancel(src_grant)
                src_held = False
                dst_dbuf = self.dbufs[dst.channel]
                dst_grant = dst_dbuf.acquire(1)
                try:
                    yield dst_grant
                    yield from self.transport.move(src.channel, dst.channel,
                                                   self.page_size, breakdown)
                    if command is not None:
                        command.advance(CopybackStatus.TRANSFERRED,
                                        self.sim.now)
                    yield from self.controller_for(dst).program_page(
                        dst, "gc", breakdown)
                    if command is not None:
                        command.advance(CopybackStatus.WRITTEN, self.sim.now)
                finally:
                    dst_dbuf.cancel(dst_grant)
        finally:
            if src_held:
                src_dbuf.cancel(src_grant)

        if self.reliability is not None:
            self.reliability.commit_copy(src, dst, checked=self.check_ecc,
                                         outcome=outcome)
        self.copybacks_completed += 1
        return breakdown
