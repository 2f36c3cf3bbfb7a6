"""``repro-mk serve`` with the benchmark's host clock running.

    python3 clocked_server.py CLOCK_PATH serve --data-dir D ...

Pins itself to one CPU, so the probes (run on the main thread) and the
sweeps (run on an executor thread) see the same CPU, starts the host
clock before the imports, runs the CLI in this process, and writes the
probe samples to CLOCK_PATH when the server exits (SIGINT stops it
cleanly).
"""

import os
import sys

import hostclock


def main(argv) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = hostclock.HostClock()
    clock.start()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        clock.stop()
        clock.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
