"""Allocation-failure injection for tests, through a fault plan."""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import SITE_FRAME_ALLOC, FaultPlan, FaultSpec


def arm_oom(
    frames,
    after: int,
    only: Optional[Callable[[str], bool]] = None,
) -> None:
    """Let ``after`` allocations succeed, then fail every later one.

    ``only`` narrows the failures (and the count) to allocations whose
    purpose tag it accepts.  Disarm with
    ``frames.attach_fault_plan(None)``.
    """
    match = None if only is None else lambda d: only(d["purpose"])
    plan = FaultPlan(seed=0)
    plan.add(
        FaultSpec(
            site=SITE_FRAME_ALLOC,
            kind="oom",
            after=after,
            count=None,
            match=match,
        )
    )
    frames.attach_fault_plan(plan)


def pte_table_failures(frames, after: int) -> None:
    """Fail PTE-table/directory allocations after ``after`` of them."""
    arm_oom(frames, after, only=lambda p: p.endswith("-table") or p == "pgd")
