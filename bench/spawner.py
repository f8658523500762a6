"""Starts CLI processes for the benchmark and reports each one's own rusage.

Linux carries the high-water RSS of the address space a process had before
exec into the rusage of the program it execs.  A CLI started straight from
the benchmark, which holds large outputs while it checks them, would report
the benchmark's peak as its own.  This small process starts every CLI
instead, so what it passes on is its own few megabytes.

Each request is one JSON line on stdin: argv, cwd, and the stdout and stderr
paths.  Each reply is one JSON line: seconds, maxrss_kb and code.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
