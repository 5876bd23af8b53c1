"""Unit tests for the phase-3c register manager (section 5.3.3)."""

import pytest

from repro.ir import MachineType
from repro.matcher import DKind, Descriptor, mem, regdesc
from repro.targets.registers import RegisterManager, RegisterPressureError
from repro.vax import VAX

L = MachineType.LONG
Q = MachineType.QUAD


def make_manager():
    emitted = []
    temps = iter(f"-{3588 + 4 * i}(fp)" for i in range(100))
    manager = RegisterManager(VAX, emit=emitted.append,
                              new_temp=lambda: next(temps))
    return manager, emitted


class TestAllocation:
    def test_allocation_order(self):
        manager, _ = make_manager()
        assert manager.allocate(L) == "r0"
        assert manager.allocate(L) == "r1"

    def test_free_returns_to_pool_in_order(self):
        manager, _ = make_manager()
        r0 = manager.allocate(L)
        manager.allocate(L)
        manager.free(r0)
        assert manager.allocate(L) == "r0"

    def test_free_unknown_is_noop(self):
        manager, _ = make_manager()
        manager.free("r9")  # dedicated: never managed

    def test_reclaim_reuses_source(self):
        manager, _ = make_manager()
        d = Descriptor(DKind.REG, L)
        register = manager.allocate(L, d)
        d.register = register
        result = manager.allocate(L, reclaim_from=(d,))
        assert result == register

    def test_reclaim_frees_other_sources(self):
        manager, _ = make_manager()
        d1 = Descriptor(DKind.REG, L)
        d1.register = manager.allocate(L, d1)
        d2 = Descriptor(DKind.REG, L)
        d2.register = manager.allocate(L, d2)
        manager.allocate(L, reclaim_from=(d1, d2))
        # one reclaimed as dest, the other freed
        assert manager.free_count == len(VAX.allocatable) - 1

    def test_avoid(self):
        manager, _ = make_manager()
        assert manager.allocate(L, avoid=("r0",)) == "r1"


class TestPairs:
    def test_quad_takes_consecutive(self):
        manager, _ = make_manager()
        register = manager.allocate(Q)
        assert register == "r0"
        # r1 is consumed as the pair half
        assert manager.allocate(L) == "r2"

    def test_quad_free_releases_both(self):
        manager, _ = make_manager()
        register = manager.allocate(Q)
        manager.free(register)
        assert manager.free_count == len(VAX.allocatable)


class TestSpilling:
    def test_spill_when_exhausted(self):
        manager, emitted = make_manager()
        descriptors = []
        for _ in VAX.allocatable:
            d = Descriptor(DKind.REG, L)
            d.register = manager.allocate(L, d)
            d.text = d.register
            descriptors.append(d)
        extra = manager.allocate(L)
        assert extra == "r0"  # bottom of stack was spilled and reused
        assert manager.spill_count == 1
        assert emitted and emitted[0].startswith("movl r0,")
        # the spilled descriptor was patched to its virtual register
        assert descriptors[0].kind is DKind.MEM
        assert descriptors[0].spilled
        assert "(fp)" in descriptors[0].text

    def test_reload_before_use(self):
        manager, emitted = make_manager()
        d = Descriptor(DKind.REG, L)
        d.register = manager.allocate(L, d)
        d.text = d.register
        # force a spill of d
        for _ in VAX.allocatable:
            manager.allocate(L, Descriptor(DKind.REG, L))
        assert d.spilled
        # now ensure_register reloads it
        manager.free("r3")
        register = manager.ensure_register(d, L)
        assert register == "r3"
        assert d.kind is DKind.REG
        assert not d.spilled
        assert manager.reload_count == 1
        assert any("movl" in line and ",r3" in line for line in emitted)

    def test_held_registers_not_spilled(self):
        manager, _ = make_manager()
        first = manager.allocate(L, Descriptor(DKind.REG, L))
        manager.hold(first)
        for _ in range(len(VAX.allocatable) - 1):
            manager.allocate(L, Descriptor(DKind.REG, L))
        # next allocation must spill something that is NOT held
        register = manager.allocate(L, Descriptor(DKind.REG, L))
        assert register != first

    def test_all_pinned_raises(self):
        manager, _ = make_manager()
        for register in VAX.allocatable:
            manager.reserve(register)
        with pytest.raises(RegisterPressureError):
            manager.allocate(L)


class TestPhase1Reservations:
    def test_reserve_blocks_allocation(self):
        manager, _ = make_manager()
        manager.reserve("r5")
        taken = {manager.allocate(L) for _ in range(5)}
        assert "r5" not in taken

    def test_release_reservation(self):
        manager, _ = make_manager()
        manager.reserve("r5")
        manager.release_reservation("r5")
        taken = {manager.allocate(L) for _ in range(6)}
        assert "r5" in taken

    def test_free_does_not_release_pinned(self):
        manager, _ = make_manager()
        manager.reserve("r5")
        manager.free("r5")
        taken = {manager.allocate(L) for _ in range(5)}
        assert "r5" not in taken


class TestStats:
    def test_high_water(self):
        manager, _ = make_manager()
        a = manager.allocate(L)
        b = manager.allocate(L)
        manager.free(a)
        manager.free(b)
        assert manager.high_water == 2
        assert manager.live_count == 0
