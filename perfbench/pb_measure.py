"""Whole-process accounting and the summary statistics the benchmark reports.

The parent's own ``process_time`` and ``ru_maxrss`` miss the sharded
executor's worker processes and the prefetcher's assembler process, so CPU
and peak memory are read for the parent *and* every live child from
``/proc``; children that already exited are covered by ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from typing import Dict, List

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: str) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2 :].split()


def child_pids() -> List[int]:
    """Pids whose parent is this process (workers, prefetch assemblers)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) == me:
                found.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return found


def reap_children(grace_s: float = 5.0) -> int:
    """Wait for every child to exit, terminating stragglers; returns how many
    had to be terminated."""
    deadline = time.monotonic() + grace_s
    while child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    stragglers = child_pids()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(stragglers)


def _hwm_kb(pid: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Reset the high-water mark of this process and its live children to
    their current RSS, so a later ``sample_tree`` peak covers only what ran
    after this call (set-up passes and their garbage stay out of it)."""
    for pid in ["self", *map(str, child_pids())]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            continue  # exited while we looked


def sample_tree() -> Dict[str, float]:
    """CPU seconds and summed peak RSS (MB) of this process and its children.

    ``cpu_s`` is cumulative: the parent (all threads), every exited and
    reaped child, and the live children.  ``rss_mb`` sums the high-water
    marks of the parent and the children alive right now.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    rss_kb = _hwm_kb("self")
    for pid in child_pids():
        try:
            fields = _stat_fields(str(pid))
            cpu += (int(fields[11]) + int(fields[12])) / _TICKS
            rss_kb += _hwm_kb(str(pid))
        except (OSError, ValueError, IndexError):
            continue
    return {"cpu_s": cpu, "rss_mb": rss_kb / 1024.0}


def host_cpu_ticks() -> Dict[str, int]:
    """System-wide CPU ticks from ``/proc/stat``: total and stolen.

    Steal is time the hypervisor ran something else while a vCPU of this
    machine wanted to run; the benchmark reports its share of each run as
    a noise indicator it cannot control.
    """
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return {"total": sum(fields[:8]), "steal": fields[7] if len(fields) > 7 else 0}


def mean(values) -> float:
    """Mean of an iterable; 0.0 when it is empty (a layer that never ran)."""
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


class UnitMeter:
    """Per-unit throughput and CPU over equal units of work.

    A *unit* is one repeat of the workload's basic cycle (a training epoch
    of fixed steps plus its evaluation; a group of serving ticks), so every
    unit does the same work and the median over units shrugs off a short
    burst of interference from other tenants of the host.
    """

    def __init__(self) -> None:
        self.marks: List[tuple] = []  # (time, samples_done, cpu_s)
        self.peak_rss_mb = 0.0

    def mark(self, samples_done: int) -> None:
        now = time.perf_counter()
        tree = sample_tree()
        self.peak_rss_mb = max(self.peak_rss_mb, tree["rss_mb"])
        self.marks.append((now, samples_done, tree["cpu_s"]))

    @property
    def units(self) -> int:
        return max(0, len(self.marks) - 1)

    def _per_unit(self):
        for (t0, n0, c0), (t1, n1, c1) in zip(self.marks, self.marks[1:]):
            if n1 > n0 and t1 > t0:
                yield (n1 - n0) / (t1 - t0), 1e3 * (c1 - c0) / (n1 - n0)

    def unit_rates(self) -> List[float]:
        return [rate for rate, _ in self._per_unit()]

    def samples_per_s(self) -> float:
        return statistics.median(rate for rate, _ in self._per_unit())

    def cpu_ms_per_sample(self) -> float:
        return statistics.median(cpu for _, cpu in self._per_unit())
