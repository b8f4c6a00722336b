"""Starts the measured CLI processes for the worker, one at a time.

The kernel reports a child's peak resident memory as at least its parent's
at the moment of the fork.  The worker holds tribcount, numpy and the
outputs it checks, so the CLI processes are started from this small process
instead, and their peak is their own.

    python perfbench/launcher.py OUT_FILE ERR_FILE

Reads one JSON argv per stdin line, runs it with stdout and stderr sent to
OUT_FILE and ERR_FILE, and answers one JSON line
``{"seconds": ..., "returncode": ...}`` (returncode null on timeout).  At end
of input it prints ``{"peak_rss_mb": ...}`` over every command it ran.
"""

import json
import resource
import subprocess
import sys
import threading
from time import perf_counter

TIMEOUT_S = 120


def main() -> int:
    out_file, err_file = sys.argv[1:3]
    for line in sys.stdin:
        argv = json.loads(line)
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            # a blocking wait: Popen.wait(timeout) polls with sleeps of up to
            # 50 ms, which would round every latency up to that grid
            expired = threading.Event()
            timer = threading.Timer(TIMEOUT_S, lambda: (expired.set(), proc.kill()))
            timer.start()
            code = proc.wait()
            seconds = perf_counter() - t0
            timer.cancel()
        print(json.dumps({"seconds": seconds,
                          "returncode": None if expired.is_set() else code}),
              flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB
    print(json.dumps({"peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
