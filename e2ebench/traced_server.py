"""``repro-mk serve`` with the benchmark's span wrappers installed.

    python3 traced_server.py SPANS_PATH serve --data-dir D ...

Runs the CLI in this process and writes the spans to SPANS_PATH when the
server exits (SIGINT stops it cleanly).
"""

import sys

from tracer import Recorder, install


def main(argv) -> int:
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
