"""Traced stand-in for ``python -m widthlab ARGS`` in the cli_cold workload.

    python coldshim.py SPAN_FILE ARGS...

Times the interpreter start (from the spawn time the parent passes in the
environment to this file's first line) and the imports of numpy,
scipy.linalg and widthlab, runs the command with the span tracer installed,
writes spans and start-up times to SPAN_FILE as JSON and exits with the
command's exit code.
"""

import time

T_START = time.time()   # before any import that takes time

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import SPAWN_ENV, import_widthlab_timed  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    W, startup = import_widthlab_timed()
    startup["python_ms"] = (T_START - float(os.environ[SPAWN_ENV])) * 1e3
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        code = W.cli.run(argv)
    finally:
        tracer.end()
        tracer.uninstall()
        Path(span_file).write_text(json.dumps({"spans": tracer.spans, "startup": startup}))
    return code


if __name__ == "__main__":
    sys.exit(main())
