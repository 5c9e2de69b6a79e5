"""Starts the timed child processes on behalf of ``run.py``.

On Linux a child's ``ru_maxrss`` is at least the resident size of the
process it was forked from, because the child begins as a copy of it (or,
with vfork, shares it) until exec. The benchmark process holds numpy, the
program and the instances, so timing the CLI from there would report the
benchmark's own memory. This small process forks the children instead.

It reads one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``, and answers each with one JSON line,
``{"code": exit code, "seconds": spawn to exit, "maxrss_kb": peak RSS}``.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                env=req["env"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "seconds": elapsed,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
