"""Unit tests for the DES kernel (events, processes, conditions)."""

import pytest

from repro.sim import (Interrupt, Link, Resource, SimulationError, Simulator,
                       Transfer)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(7.5)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    handle = sim.process(proc(sim))
    sim.run()
    assert handle.triggered
    assert handle.value == 42


def test_process_join():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(10.0)
        return "child-done"

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(10.0, "child-done")]


def test_event_trigger_value_delivery():
    sim = Simulator()
    evt = sim.event()
    received = []

    def waiter(sim):
        value = yield evt
        received.append(value)

    def firer(sim):
        yield sim.timeout(3.0)
        evt.trigger("payload")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert received == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(1)
    with pytest.raises(SimulationError):
        evt.trigger(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def worker(sim, delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent(sim):
        procs = [
            sim.process(worker(sim, 5.0, "a")),
            sim.process(worker(sim, 2.0, "b")),
            sim.process(worker(sim, 8.0, "c")),
        ]
        values = yield sim.all_of(procs)
        results.append((sim.now, values))

    sim.process(parent(sim))
    sim.run()
    assert results == [(8.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def parent(sim):
        values = yield sim.all_of([])
        done.append(values)

    sim.process(parent(sim))
    sim.run()
    assert done == [[]]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def parent(sim):
        slow = sim.timeout(10.0, "slow")
        fast = sim.timeout(1.0, "fast")
        event, value = yield sim.any_of([slow, fast])
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(1.0, "fast")]
    assert sim.now == 10.0  # the slow timeout still drains


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    def attacker(sim, victim_proc):
        yield sim.timeout(4.0)
        victim_proc.interrupt("preempt")

    proc = sim.process(victim(sim))
    sim.process(attacker(sim, proc))
    sim.run()
    assert caught == [(4.0, "preempt")]


def test_interrupt_detaches_waited_event():
    """The original timeout firing later must not resume the process."""
    sim = Simulator()
    resumptions = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
            resumptions.append("timeout")
        except Interrupt:
            resumptions.append("interrupt")
            yield sim.timeout(500.0)
            resumptions.append("after-sleep")

    proc = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert resumptions == ["interrupt", "after-sleep"]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_uncaught_interrupt_terminates_process():
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(100.0)

    proc = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(2.0)
        proc.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert proc.triggered
    assert not proc.is_alive


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    end = sim.run(until=35.0)
    assert end == pytest.approx(35.0)
    assert sim.now == pytest.approx(35.0)


def test_run_until_beyond_queue_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    sim.process(proc(sim))
    sim.run(until=100.0)
    assert sim.now == pytest.approx(100.0)


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_step_and_peek():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.schedule(7.0, lambda: None)
    assert sim.peek() == pytest.approx(3.0)
    assert sim.step()
    assert sim.now == pytest.approx(3.0)
    assert sim.peek() == pytest.approx(7.0)
    assert sim.step()
    assert not sim.step()


def test_failed_event_propagates_into_process():
    sim = Simulator()
    caught = []

    def waiter(sim, evt):
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    evt = sim.event()
    sim.process(waiter(sim, evt))
    sim.schedule(1.0, lambda: evt.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    seen = []
    evt = sim.event()
    evt.trigger("x")
    sim.run()
    evt.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


# -- the now-lane: same-time work keeps (time, seq) order -------------------

def test_heap_entry_due_now_runs_before_lane_entries():
    """Entries pushed before the clock reached T precede those pushed at T."""
    for drive in ("run", "step"):
        sim = Simulator()
        log = []

        def first():
            log.append("heap-1")
            sim.schedule(0.0, log.append, "lane")
            sim.event().trigger()

        sim.schedule(5.0, first)
        sim.schedule(5.0, log.append, "heap-2")
        assert sim.step()  # runs first() at t=5; heap-2 is still due now
        assert sim.peek() == 5.0
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert log == ["heap-1", "heap-2", "lane"], drive
        assert sim.now == 5.0


def _same_time_makers(sim, log):
    """Ways to queue work at the current time, each logging its name."""
    fired = sim.event()
    fired.trigger()
    pending = sim.event()
    pending.add_callback(lambda e: log.append("trigger"))

    def victim():
        try:
            yield sim.event()
        except Interrupt:
            log.append("interrupt")

    def starter():
        log.append("process-start")
        yield sim.timeout(0)

    proc = sim.process(victim())
    sim.run()  # dispatch `fired` and park the victim
    return {
        "trigger": lambda: pending.trigger(),
        "timeout0": lambda: sim.timeout(0).add_callback(
            lambda e: log.append("timeout0")),
        "schedule0": lambda: sim.schedule(0.0, log.append, "schedule0"),
        "late-callback": lambda: fired.add_callback(
            lambda e: log.append("late-callback")),
        "process-start": lambda: sim.process(starter()),
        "interrupt": lambda: proc.interrupt("stop"),
    }


@pytest.mark.parametrize("reverse", [False, True])
def test_same_time_work_interleaves_in_sequence_order(reverse):
    sim = Simulator()
    log = []
    makers = _same_time_makers(sim, log)
    order = list(makers)[::-1] if reverse else list(makers)

    def at_t3():
        for name in order:
            makers[name]()

    sim.schedule(3.0, at_t3)
    seq_before = sim._seq
    sim.run()
    assert log == order
    assert sim.now == 3.0
    # One sequence number per queued callback: the six makers, the
    # starter's Timeout(0) and both processes' completions.
    assert sim._seq - seq_before == len(order) + 3


def test_timeout_absorbed_by_float_rounding_keeps_its_place():
    """``now + delay == now`` is due now, so it queues behind earlier work."""
    sim = Simulator()
    sim.restore_state({"now": 1e17, "seq": 0})
    log = []
    sim.schedule(0.0, log.append, "before")
    assert sim.now + 1.0 == sim.now
    sim.timeout(1.0).add_callback(lambda e: log.append("absorbed"))
    sim.schedule(0.0, log.append, "after")
    sim.run()
    assert log == ["before", "absorbed", "after"]
    assert sim.now == 1e17

    # A link transfer whose service time is absorbed completes in place,
    # also when it starts while the instant is already dispatching.
    log.clear()
    link = Link(sim, bandwidth=1000.0)

    def start_transfer():
        sim.schedule(0.0, log.append, "before")
        link.transfer(1).add_callback(lambda e: log.append("transfer"))
        sim.schedule(0.0, lambda: sim.schedule(0.0, log.append, "after-2"))

    sim.schedule(0.0, start_transfer)
    sim.run()
    assert log == ["before", "transfer", "after-2"]
    assert sim.now == 1e17 and not link.is_busy


def test_raising_callback_leaves_the_rest_of_the_lane_queued():
    sim = Simulator()
    log = []

    def boom():
        log.append("boom")
        raise RuntimeError("boom")

    sim.schedule(0.0, log.append, "a")
    sim.schedule(0.0, boom)
    sim.schedule(0.0, log.append, "b")
    sim.schedule(0.0, log.append, "c")
    sim.schedule(1.0, log.append, "later")
    with pytest.raises(RuntimeError):
        sim.run()
    assert log == ["a", "boom"]
    assert sim.pending == 3
    assert sim.peek() == 0.0
    sim.run()
    assert log == ["a", "boom", "b", "c", "later"]
    assert sim.pending == 0 and sim.now == 1.0


def _contended_scenario(sim, log):
    """Processes contending on a resource and a link, with joins and
    interrupts, logging every resumption."""
    die = Resource(sim, capacity=1, name="die")
    link = Link(sim, bandwidth=1000.0, name="bus")

    def worker(index):
        try:
            yield die.request(priority=index % 2)
            log.append((sim.now, "grant", index))
            yield sim.timeout(1.5 * index)
            die.release()
            wait = yield link.transfer(500 * (index + 1), "io", index % 3)
            log.append((sim.now, "sent", index, wait))
            start, done = link.transfer_with_start(250)
            log.append((sim.now, "started", index, (yield start)))
            log.append((sim.now, "done", index, (yield done)))
        except Interrupt as exc:
            log.append((sim.now, "interrupted", index, exc.cause))
        return index

    procs = [sim.process(worker(i), name=f"w{i}") for i in range(6)]

    def joiner():
        values = yield sim.all_of(procs[:3])
        log.append((sim.now, "joined", values))

    sim.process(joiner())
    sim.schedule(2.0, procs[5].interrupt, "preempt")


def test_step_driven_run_matches_run_driven_run():
    ran, stepped = Simulator(), Simulator()
    ran_log, step_log = [], []
    _contended_scenario(ran, ran_log)
    _contended_scenario(stepped, step_log)
    ran.run()
    while True:
        due = stepped.peek()
        if due is None:
            break
        assert stepped.step()
        assert stepped.now == due
    assert not stepped.step()
    assert step_log == ran_log
    assert (stepped.now, stepped._seq) == (ran.now, ran._seq)
    assert any(entry[1] == "interrupted" for entry in ran_log)


def test_snapshot_refuses_when_only_lane_entries_are_pending():
    sim = Simulator()

    def parked():
        yield sim.event()

    sim.process(parked(), name="parked")
    assert sim.pending == 1 and sim.peek() == 0.0
    with pytest.raises(SimulationError, match="process 'parked' resume"):
        sim.snapshot_state()
    with pytest.raises(SimulationError):
        sim.restore_state({"now": 0.0, "seq": 0})
    sim.run()
    assert sim.pending == 0 and sim.peek() is None
    assert sim.snapshot_state() == {"now": 0.0, "seq": 1}


def test_link_transfer_is_its_own_event_valued_with_the_queueing_delay():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    first = link.transfer(1000)
    start, second = link.transfer_with_start(2000)
    assert isinstance(first, Transfer) and isinstance(second, Transfer)
    assert not first.triggered and not start.triggered
    sim.run()
    assert first.value == 0.0
    assert start.value == pytest.approx(1.0)
    assert second.value == pytest.approx(1.0)
    assert sim.now == pytest.approx(3.0)
