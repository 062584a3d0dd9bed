"""How much of the machine's busy CPU time the hypervisor stole.

On a virtual machine, the host can take a virtual CPU away while it has
work to run.  The guest sees that as *steal* time in ``/proc/stat``, and
every wall-clock figure measured meanwhile grows by it, whatever the
program does.  The benchmark reports times net of it: a time measured
over an interval is multiplied by the share of that interval's busy CPU
time that was not stolen (``unstolen_share``), and a rate is divided by
it.  A program that does more work raises its busy time, not the steal,
so the correction never hides a slowdown of the program itself.
"""

from __future__ import annotations

#: ``/proc/stat`` ``cpu`` line fields: user nice system idle iowait irq
#: softirq steal ...; guest time is already counted in user.
_BUSY = (0, 1, 2, 5, 6)
_STEAL = 7


def cpu_times() -> tuple[int, ...]:
    """The machine-wide ``cpu`` line of /proc/stat, in clock ticks
    (empty where there is none)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return tuple(int(field) for field in handle.readline().split()[1:])
    except OSError:
        return ()


def unstolen_share(before: tuple[int, ...], after: tuple[int, ...]) -> float:
    """Busy CPU time over busy plus stolen time between two readings;
    1.0 when nothing was busy or the kernel reports no steal."""
    if len(before) <= _STEAL or len(after) <= _STEAL:
        return 1.0
    busy = sum(after[i] - before[i] for i in _BUSY)
    steal = after[_STEAL] - before[_STEAL]
    if busy <= 0 or steal <= 0:
        return 1.0
    return busy / (busy + steal)


def steal_share(before: tuple[int, ...], after: tuple[int, ...]) -> float:
    """Stolen ticks over all ticks between two readings."""
    if len(before) <= _STEAL or len(after) <= _STEAL:
        return 0.0
    total = sum(b - a for a, b in zip(before, after))
    return (after[_STEAL] - before[_STEAL]) / max(1, total)
