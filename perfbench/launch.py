"""Run the c4run CLI with the benchmark's tracer installed.

Usage: python launch.py <c4run arguments...>

The traced run starts every c4run process through this file instead of
``python -m c4run.cli``. It installs the span wrappers, calls
``c4run.cli.main`` and, at exit, writes the spans to the directory named by
``C4BENCH_TRACE_DIR``. Python puts this file's directory first on
``sys.path``, which is how ``tracer`` is found.
"""

import atexit
import os
import sys

from tracer import Tracer


def main() -> int:
    import c4run.cli

    tracer = Tracer()
    tracer.install_program()
    atexit.register(tracer.dump, os.environ["C4BENCH_TRACE_DIR"], sys.argv[1:])
    return c4run.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
