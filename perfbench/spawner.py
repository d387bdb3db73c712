"""Small launcher for the benchmark's child processes.

Linux charges a child the resident size of the process it was forked from
(the address space it starts with, or shares until ``exec``), so ``wait4``'s
peak RSS for a child of the benchmark process would read at least that
process's own size once it has imported numpy and run in-process calls.
The benchmark starts this launcher first, while it is still small, and has
it start every child instead.

Protocol: one JSON request per line on stdin, ``{"args": [...], "env": {...}}``;
the launcher runs ``python <args>`` and answers one JSON line,
``{"seconds", "rss_mb", "code", "out", "err"}``.  It exits at end of input.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def run(args, env, scratch: str) -> dict:
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
                "code": proc.returncode,
                "out": out.read().decode(errors="replace"),
                "err": err.read().decode(errors="replace")}


def main() -> int:
    scratch = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["args"], request["env"], scratch)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
