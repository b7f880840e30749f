"""Launches and times the benchmark's child processes, one at a time.

    python spawner.py < requests > results

Reads one JSON request per line, ``{"argv": [...], "env": {...},
"out": path, "err": path}``, runs the child with stdout and stderr sent
to those files, waits for it, and answers with one JSON line
``{"wall_s": ..., "code": ..., "rss_mb": ...}``.

Why a process of its own: a child started by ``posix_spawn`` or ``fork``
reports in its max-RSS the high-water RSS of the process that started
it, because the kernel folds the replaced address space into the
child's figure at ``exec``.  The benchmark's client grows to hundreds of
MB (query streams, 10 MB payloads to hash), while this process stays
at the size of a bare interpreter, so the children's figures are their
own.
"""

import json
import os
import sys
import time


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(json.dumps({"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)


if __name__ == "__main__":
    main()
