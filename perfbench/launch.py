"""Start one command from a small interpreter; report its wall time and peak memory.

    python3 -I -S launch.py REPORT CMD [ARG ...]

The peak RSS the kernel reports for a process includes the memory of the
process it was forked from, up to its exec, so a command started straight
from the benchmark's client would be charged the client's memory.  Started
from this interpreter, which imports nothing, it is charged only a few MB,
less than any ``treebalance`` process uses itself.  ``wait4`` also reports
the largest RSS of the children the command waited for, such as verify's
pool workers.  Writes ``wall_s exit_code maxrss_kb`` to REPORT; stdin,
stdout and stderr are passed on to the command.
"""

import os
import sys
import time


def main() -> int:
    report, cmd = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
