"""Unit and property tests for the page mapping table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.ftl import PageMappingTable


def test_bind_and_lookup():
    table = PageMappingTable()
    assert table.lookup(5) is None
    table.bind(5, 100)
    assert table.lookup(5) == 100
    assert table.reverse_lookup(100) == 5
    assert len(table) == 1


def test_rebind_invalidates_old_ppn():
    table = PageMappingTable()
    table.bind(5, 100)
    old = table.bind(5, 200)
    assert old == 100
    assert table.reverse_lookup(100) is None
    assert table.lookup(5) == 200


def test_bind_to_occupied_ppn_rejected():
    table = PageMappingTable()
    table.bind(1, 100)
    with pytest.raises(MappingError):
        table.bind(2, 100)


def test_rebind_same_pair_is_noop_like():
    table = PageMappingTable()
    table.bind(1, 100)
    old = table.bind(1, 100)
    assert old == 100
    assert table.lookup(1) == 100
    table.check_consistency()


def test_move_rebinds_lpn():
    table = PageMappingTable()
    table.bind(7, 100)
    lpn = table.move(100, 300)
    assert lpn == 7
    assert table.lookup(7) == 300
    assert table.reverse_lookup(100) is None
    table.check_consistency()


def test_move_from_invalid_ppn_rejected():
    table = PageMappingTable()
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_move_to_occupied_ppn_rejected():
    table = PageMappingTable()
    table.bind(1, 100)
    table.bind(2, 200)
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_fill_binds_lpns_in_order():
    table = PageMappingTable()
    assert table.fill([40, 7, 13]) == 3
    assert [table.lookup(lpn) for lpn in range(3)] == [40, 7, 13]
    assert table.reverse_lookup(7) == 1
    table.check_consistency()
    # Only an empty table can be bulk-filled.
    with pytest.raises(MappingError):
        table.fill([99])
    assert len(table) == 3


def test_fill_rejects_repeated_ppn():
    table = PageMappingTable()
    with pytest.raises(MappingError):
        table.fill([5, 6, 5])
    assert len(table) == 0


def test_unbind():
    table = PageMappingTable()
    table.bind(1, 100)
    assert table.unbind(1) == 100
    assert table.lookup(1) is None
    assert table.reverse_lookup(100) is None
    assert table.unbind(99) is None


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100)),
                min_size=1, max_size=200))
def test_mirror_invariant_under_random_binds(operations):
    """Property: forward and reverse maps stay exact mirrors."""
    table = PageMappingTable()
    used_ppns = {}
    for lpn, ppn in operations:
        holder = table.reverse_lookup(ppn)
        if holder is not None and holder != lpn:
            with pytest.raises(MappingError):
                table.bind(lpn, ppn)
        else:
            table.bind(lpn, ppn)
        table.check_consistency()


@given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
def test_sequential_moves_preserve_lpn_set(lpns):
    table = PageMappingTable()
    next_ppn = 0
    for lpn in set(lpns):
        table.bind(lpn, next_ppn)
        next_ppn += 1
    original = {lpn: table.lookup(lpn) for lpn in set(lpns)}
    for lpn, ppn in original.items():
        table.move(ppn, next_ppn)
        next_ppn += 1
    for lpn in original:
        assert table.lookup(lpn) is not None
    table.check_consistency()
