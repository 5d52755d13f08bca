"""Run one command; record its wall time, exit code and peak RSS as JSON.

    python3 perfbench/launch.py RESULT.json COMMAND [ARG ...]

The benchmark starts every measured command through this small process.
On Linux a program's ``ru_maxrss`` starts at the high-water mark of the
process that spawned it, so spawning the CLI straight from the benchmark
(which holds the generated inputs) would add the benchmark's own memory to
the CLI's peak. The command inherits stdin, stdout and stderr.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as out:
        # ru_maxrss is in KiB on Linux
        json.dump({"wall_s": wall, "exit_code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
