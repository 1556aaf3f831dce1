"""Host speed sampling: fixed calibration kernels, timed from a timer signal.

The host this benchmark was built on runs the same Python code at speeds
up to 2x apart, switching every fraction of a second and drifting for
minutes at a time; other tenants' processes also take turns on its two
CPUs, and its file-system calls slow down on a schedule of their own. Raw
wall times of the same work spread by 20-40% between runs. While a
``SpeedSampler`` is entered, a timer signal runs ``cpu_kernel`` and
``io_kernel`` every ``INTERVAL_S`` seconds and records the CPU time each
took and the wall time of both, so the host's state is sampled uniformly
over the same time as the work.

``Phase`` records one phase of the work: its wall, user and system times,
all net of the sampler; each kernel's mean speed while it ran (its
reference CPU time over its CPU time, averaged over the samples); and the
share of the kernels' wall time spent off the CPU. Work done at speed v(t)
takes the integral of v(t) / v_ref seconds at the reference speed, and the
samples are uniform in time, so ``calibrated_s`` scales user time by the
CPU kernel's mean speed and system time by the I/O kernel's, drops the
off-CPU share the kernels saw (waiting for a CPU or a contended file
system), and keeps any further time off the CPU unscaled (the program's
own blocking). The result is the phase's time on a host where the kernels
take ``REF_CPU_MS`` and ``REF_IO_MS`` and nothing waits.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

INTERVAL_S = 0.025
# the kernels' times at the host's faster speed, so calibrated times read as
# wall times there
REF_CPU_MS = 0.25
REF_IO_MS = 0.2
_EVENT_LINES = [
    json.dumps(
        {"ts": f"t{i}", "run_id": "r", "event": "lean_check", "data": {"size": i, "ok": True}}
    )
    for i in range(60)
]
_SOURCE = "\n".join(f"theorem t{i} : T{i} := by exact x{i} -- note {i}" for i in range(40))


def cpu_kernel() -> int:
    """Fixed pure-Python work (about 0.25 ms) shaped like the program's: decode
    metrics-like JSON lines, then scan source text character by character
    for comments. Its slowdown under the host's contention tracks that of
    parsing and accounting more closely than a cache-resident string loop."""
    total = sum(json.loads(line)["data"]["size"] for line in _EVENT_LINES)
    i, n = 0, len(_SOURCE)
    while i < n:
        if _SOURCE[i] == "-" and _SOURCE.startswith("--", i):
            j = _SOURCE.find("\n", i)
            i = n if j == -1 else j
            total += 1
        else:
            i += 1
    return total


def io_kernel(directory: Path) -> None:
    """Fixed file-system work (about 0.3 ms): the write patterns of a run
    (replace a small file through a temporary, append a line)."""
    tmp = directory / "f.tmp"
    tmp.write_text("x" * 300, encoding="utf-8")
    os.replace(tmp, directory / "f")
    with (directory / "log").open("a", encoding="utf-8") as fh:
        fh.write("y" * 100 + "\n")
    (directory / "log").unlink()


def _cpu_times() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


@dataclass
class Phase:
    wall: list[float] = field(default_factory=list)
    user: float = 0.0
    sys: float = 0.0
    cpu_speed: float | None = None
    io_speed: float | None = None
    wait_share: float = 0.0

    def calibrated_s(self) -> float:
        """The mean time of one pass, scaled as the module docstring says.

        The scale is an integral over the whole phase, so it applies to the
        phase's total; a median pass would mix the speed of some passes
        with the scale of all of them."""
        wall = sum(self.wall)
        user = min(self.user, wall)
        sys = min(self.sys, wall - user)
        blocked = max(wall - user - sys - self.wait_share * wall, 0.0)
        total = user * self.cpu_speed + sys * self.io_speed + blocked
        return total / len(self.wall)


class SpeedSampler:
    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.ticks: list[tuple[float, float, float]] = []  # cpu kernel, io kernel, wall
        self.spent = 0.0
        self.spent_user = 0.0
        self.spent_sys = 0.0
        self.error: str | None = None
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the sampler."""
        return perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        # the handler runs inside the measured program: a tick that fires
        # during a slow one returns at once, and an I/O error is recorded,
        # never raised into the program
        if self._busy or self.error:
            return
        self._busy = True
        u0, s0 = _cpu_times()
        t0, c0 = perf_counter(), process_time()
        try:
            cpu_kernel()
            c1 = process_time()
            io_kernel(self.directory)
            self.ticks.append((c1 - c0, process_time() - c1, perf_counter() - t0))
        except OSError as exc:
            self.error = f"speed sampler: {exc}"
        finally:
            u1, s1 = _cpu_times()
            self.spent_user += u1 - u0
            self.spent_sys += s1 - s0
            self.spent += perf_counter() - t0
            self._busy = False

    def start_phase(self) -> tuple[int, float, float, float, float]:
        return (len(self.ticks), *_cpu_times(), self.spent_user, self.spent_sys)

    def end_phase(self, start: tuple[int, float, float, float, float], phase: Phase) -> Phase:
        """Fill ``phase`` with its CPU times and the host's speed since ``start``."""
        n, user0, sys0, spent_user0, spent_sys0 = start
        user1, sys1 = _cpu_times()
        phase.user = (user1 - user0) - (self.spent_user - spent_user0)
        phase.sys = (sys1 - sys0) - (self.spent_sys - spent_sys0)
        # a phase too short for a sample takes the samples of the whole repetition
        ticks = self.ticks[n:] if len(self.ticks) > n else self.ticks
        if ticks:
            phase.cpu_speed = statistics.fmean(REF_CPU_MS / (1000.0 * c) for c, _, _ in ticks)
            phase.io_speed = statistics.fmean(REF_IO_MS / (1000.0 * i) for _, i, _ in ticks)
            wall = sum(w for _, _, w in ticks)
            phase.wait_share = max(wall - sum(c + i for c, i, _ in ticks), 0.0) / wall
        return phase

    def __enter__(self) -> "SpeedSampler":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
