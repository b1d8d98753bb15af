"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py SRC MODULE [PROBLEM_FILE ...]

Imports MODULE (``wavefocp`` or ``wavefocp.cli``, with NumPy and SciPy)
from SRC, parses each problem file with the CLI's parser, and prints the
seconds this took.
"""

import time

_t0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    src, module, *files = sys.argv[1:]
    sys.path.insert(0, src)
    importlib.import_module(module)
    if files:
        from wavefocp.cli import parse_problem_file

        for name in files:
            parse_problem_file(Path(name))
    print(repr(time.perf_counter() - _t0))


if __name__ == "__main__":
    main()
