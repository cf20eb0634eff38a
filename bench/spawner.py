"""Starts the benchmark's chipkit processes from a bare interpreter.

Linux counts the memory a child had before exec into its max RSS. Started
from the benchmark itself, every chipkit process would report at least the
benchmark's own RSS; started from here, at least this small process's RSS.
The spawner runs in the work directory with the environment its children
get, and also times them, so no pipe round trip is in a measured wall time.

One JSON object per line. A request on stdin names the child's argv and the
files for its stdout and stderr: {"argv": [...], "stdout": path, "stderr": path}.
Replies on stdout: {"pid": n, "start": t} once the child is started, then
{"status": wait status, "end": t, "maxrss_kb": n} once it has exited, or
{"error": text} if it could not start. Times are time.perf_counter(), which
is CLOCK_MONOTONIC on Linux, so the benchmark can compare them with its own.
The spawner exits at the end of its input.
"""

import json
import os
import sys
import time


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        except OSError as exc:
            reply({"error": str(exc)})
            continue
        reply({"pid": pid, "start": start})
        _pid, status, usage = os.wait4(pid, 0)
        reply({"status": status, "end": time.perf_counter(), "maxrss_kb": usage.ru_maxrss})


if __name__ == "__main__":
    main()
