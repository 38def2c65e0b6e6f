"""Run one CLI job with tracing on: ``python3 bench/cli_child.py JOB.json``.

The CLI report goes to stdout as with ``python -m cliffcalc.cli --job``; the
last line of stderr is this process's trace summary, with the time taken to
import ``cliffcalc.cli`` as ``import_s``.  The exit code is the CLI's.
"""

import json
import sys
import time

start = time.perf_counter()
import cliffcalc.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    with tracer.installed():
        code = cliffcalc.cli.main(["--job", sys.argv[1]])
    sys.stderr.write(json.dumps({"import_s": import_s, **tracer.summary()}) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
