"""Host speed against a fixed reference, sampled while the timed processes run.

The benchmark's VM shares its cores with other tenants, and the same op can
take twice as long from one half-minute to the next: on a 2-vCPU Intel Xeon
VM a fixed pure-Python loop took from 1.6 to 3.7 ms within one run, and each
vCPU's speed flips within a second or two, independently of the other's.
Medians over a run do not remove that. So while an op runs, a thread of the
benchmark times a short burst of reference work every INTERVAL_S: a
pure-Python loop and a memory-bound loop that do not involve the program.
The benchmark and its children are pinned to one vCPU, so the bursts run on
the vCPU the op runs on. A burst's CPU time (not its wall time, which
includes the slices the op gets in between) over its time on an uncontended
vCPU of that VM is the host's slowness factor at that moment (1.0 at reference
speed, 2.0 at half of it); an op's wall time divided by the mean factor of
the bursts inside it is its time at reference speed.

A slower program still reads slower, since the reference work never changes;
what the factor removes is the share of the time that the host took. The
bursts take about 4% of the vCPU, the same share in every run.
"""

from __future__ import annotations

import threading
import time

INTERVAL_S = 0.25          # one burst per this many seconds
REFERENCE_BURST_S = 0.0095  # one burst on an uncontended vCPU (Intel Xeon, 2-vCPU VM)


def _python() -> int:
    table: dict[str, int] = {}
    total = 0
    for i in range(6000):
        key = "w" + str(i % 731)
        table[key] = table.get(key, 0) + i
        total += len(key) * (i & 15)
    return total + len(sorted(table, key=table.__getitem__))


def _memory() -> int:
    values = [i * 3 for i in range(60000)]
    by_index = {i: value for i, value in enumerate(values[::3])}
    return sum(values) + len(by_index)


def burst() -> None:
    _python()
    _memory()


class Sampler:
    """Times a burst every INTERVAL_S on a thread, between `with` entry and exit.

    Only bursts that fall wholly inside a child process's span are used: the
    main thread then waits in `wait4` and leaves the interpreter to the burst.
    """

    def __init__(self, interval: float = INTERVAL_S, work=burst):
        self.interval = interval
        self.work = work
        self.samples: list[tuple[float, float, float]] = []  # (start, end, factor)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            started = time.perf_counter()
            cpu = time.thread_time()
            self.work()
            cpu = time.thread_time() - cpu
            self.samples.append((started, time.perf_counter(), cpu / REFERENCE_BURST_S))

    def inside(self, spans: list[tuple[float, float]]) -> list[float]:
        """Factors of the bursts that lie wholly inside one of `spans`."""
        return [f for start, end, f in list(self.samples)
                if any(lo <= start and end <= hi for lo, hi in spans)]
