"""Host time measured against a reference loop run beside the program.

The benchmark's host is a share of a machine: from second to second, and
for minutes at a time, other tenants slow every instruction it runs by up
to about 1.9x. A fixed pure-Python loop slows with the program, so the
program's time divided by the loop's time, measured side by side, holds
steady where the raw time does not. Multiplied by the loop's time on an
idle host (:data:`REFERENCE_LOOP_S`), that ratio reads as the seconds an
idle host of the reference machine would take: "reference seconds".

This module imports nothing from the program, so ``worker.py`` can time
the loop before ``import repro``.
"""

from __future__ import annotations

from array import array
from time import perf_counter, process_time

#: Iterations of the reference loop: about a millisecond.
REFERENCE_ITERATIONS = 10_000
#: The reference loop's wall (and CPU) seconds on an idle host of the
#: machine the benchmark was defined on: a 2-vCPU KVM guest on an Intel
#: Xeon at 2.1 GHz, CPython 3. Its fastest repetitions took 0.62 ms; most
#: took 0.75 to 1.0 ms while other tenants were busy.
REFERENCE_LOOP_S = 0.00062


def reference_loop() -> tuple[float, float]:
    """Run the reference loop once: its (wall, CPU) seconds."""
    wall, cpu = perf_counter(), process_time()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value * value % 7
    return perf_counter() - wall, process_time() - cpu


class SpanClock:
    """Host time of the simulation phase in spans of client replies.

    A span closes every ``every`` replies and the reference loop runs
    between spans, outside them, so each span has a loop timed just
    before and just after it. The same simulated work lies in span ``i``
    in every repetition of a workload at a given seed.
    """

    def __init__(self) -> None:
        self.every = 1
        self.replies = 0
        self.span_wall = array("d")
        self.span_cpu = array("d")
        #: One more loop than spans: before the first, after every span.
        self.loop_wall = array("d")
        self.loop_cpu = array("d")
        self._wall = self._cpu = 0.0

    def start(self, planned_replies: int, spans: int) -> None:
        self.every = max(1, planned_replies // spans)
        self._loop()

    def mark(self, _record=None) -> None:
        """Count one client reply (an invoker observer)."""
        self.replies += 1
        if self.replies % self.every == 0:
            self._close()

    def stop(self) -> None:
        if self.replies % self.every:
            self._close()

    def _close(self) -> None:
        self.span_wall.append(perf_counter() - self._wall)
        self.span_cpu.append(process_time() - self._cpu)
        self._loop()

    def _loop(self) -> None:
        wall, cpu = reference_loop()
        self.loop_wall.append(wall)
        self.loop_cpu.append(cpu)
        self._wall, self._cpu = perf_counter(), process_time()

    def in_loops(self, spans, loops) -> list[float]:
        """Each span's time in reference loops (the mean of its two)."""
        return [span * 2 / (loops[index] + loops[index + 1]) for index, span in enumerate(spans)]
