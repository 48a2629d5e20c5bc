"""Op times reported at a fixed reference speed of the machine.

On a shared host the speed of one vCPU is not steady.  On a 2-vCPU VM
(Intel Xeon, 2.0 GHz, Python 3.11) a fixed loop of Fraction work ran
238–427 ms per 300-ms chunk within ninety seconds, switching state every
second or so and drifting by a third over minutes, and the speed of the
other vCPU barely tracked it (correlation 0.2–0.5).  Raw op times therefore move with the neighbours, not with
the program.

``SpeedProbe`` times a fixed stdlib-only kernel on the same CPU right
before and right after every op, and inside an op every INTERVAL_S of
process CPU time (from a SIGPROF handler, which runs between bytecodes
of the op itself).  An op's time is its wall time minus the time spent
in those in-op samples, scaled by REFERENCE_S over the mean kernel time
of those samples: the time it would have taken at the speed where the
kernel takes REFERENCE_S.  The kernel uses nothing from ``apparent``,
so a change to the package moves the op time and not the scale.

Child processes run on the CPU their parent waits on only when both are
pinned to it, so ``pin_to_one_cpu`` restricts this process, and every
process it starts, to one CPU of those it is allowed.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.5e-3  # the kernel's time at the reference speed; 1.1–2.2 ms seen
INTERVAL_S = 0.1  # process CPU time between samples inside an op
REPS = 3  # kernel runs per sample
_MASK = (1 << 384) - 1


def kernel() -> tuple[Fraction, int, int]:
    """Small-rational arithmetic and dict building, like the exact layers,
    then 384-bit integer products, like mpmath's pure-Python backend.

    Either part alone tracks one kind of op and misses the other.  Over
    150 s of single-process passes, fitting log op time on log kernel
    time gave slopes of 0.87 (family_roundtrip) and 1.16
    (polymer_spectrum) for the rational part alone and 0.72 and 0.81
    for the integer part alone; with the integer part weighted twice, as
    here, 0.89 and 1.04, and the polymer residual fell from 0.096 to
    0.034.
    """
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i * 7919 + 1, i * i + 3)
    table = {}
    for i in range(500):
        table[str(i)] = [i, i * i]
    big = 0
    for _ in range(2):
        x = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95 << 130
        for i in range(400):
            y = (x * (x >> 7 | i)) >> 384
            big = (big + y) & _MASK
            x = (x ^ y) | 1
        acc += sum(Fraction(i, 7) for i in range(40))
    return acc, len(table), big


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


Span = tuple[int, int, float]  # (opening sample, closing sample, raw seconds)


class SpeedProbe:
    """Kernel samples around and inside timed spans; see the module notes."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds per run
        self._in_span = 0.0  # wall time of samples taken inside the span
        self._armed = False  # a late SIGPROF after end() must not sample
        self._opening = 0
        self._t0 = 0.0
        signal.signal(signal.SIGPROF, self._on_sigprof)

    def sample(self) -> float:
        # wall time: the process CPU clock was seen not to advance inside
        # a SIGPROF handler (Linux 6.18)
        t0 = time.perf_counter()
        for _ in range(REPS):
            kernel()
        spent = time.perf_counter() - t0
        self.samples.append(spent / REPS)
        return spent

    def _on_sigprof(self, _signum, _frame) -> None:
        if self._armed:
            self._in_span += self.sample()

    def start(self) -> None:
        self._opening = len(self.samples)
        self.sample()
        self._in_span = 0.0
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()

    def end(self) -> Span:
        """Ends the span; the next `sample`, taken once the CPU is free, closes it."""
        self._armed = False
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        raw = time.perf_counter() - self._t0 - self._in_span
        return self._opening, len(self.samples), raw

    def stop(self) -> Span:
        span = self.end()
        self.sample()
        return span

    def scale(self, span: Span) -> float:
        """The span's raw seconds at the reference speed of its own samples.

        Samples from neighbouring spans do not help: on family_roundtrip
        ops, widening the samples to those within 1 s of the op doubled
        the spread of one op's time across passes (0.086 to 0.167).
        """
        opening, closing, raw = span
        return raw * REFERENCE_S / statistics.fmean(self.samples[opening:closing + 1])
