"""Host-speed monitor: times a fixed probe ten times a second on one CPU.

Usage: python3 bench/monitor.py CPU

Pins itself to CPU, then every PERIOD_S runs the probe (the brute-force
square counter over every canonical binary word of length PROBE_LEN; it
shares no code with sqcirc) and prints "MIDPOINT SECONDS" on stdout: the
probe's midpoint by time.perf_counter, and the CPU seconds it took, so that
the timed process preempting the probe does not count.  It exits when its
stdout is closed.
"""
import os
import sys
import time

import oracle

PERIOD_S = 0.1
PROBE_LEN = 9


def probe() -> None:
    for w in oracle.canonical_words(2, PROBE_LEN):
        oracle.square_count(w)


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    while True:
        time.sleep(PERIOD_S)
        began, cpu = time.perf_counter(), time.thread_time()
        probe()
        cpu, ended = time.thread_time() - cpu, time.perf_counter()
        try:
            print(f"{(began + ended) / 2:.6f} {cpu:.7f}", flush=True)
        except BrokenPipeError:
            return 0


if __name__ == "__main__":
    sys.exit(main())
