"""A small process that starts and reaps the benchmark's child processes.

Linux carries a process's peak-RSS high-water mark into its children across
fork and exec, so a child started straight from the benchmark (which holds
the generated data and the oracle) would report the benchmark's peak as its
own.  Children are therefore started by this launcher, which imports no
numpy and stays near 10 MB, below any job's own peak.

Requests and replies are JSON lines on the launcher's stdin and stdout:
    {"op": "spawn", "argv": [...], "out": PATH, "err": PATH} -> {"pid": N}
    {"op": "wait", "pid": N, "timeout": S} -> {"code", "wall_s", "cpu_s", "maxrss_kb"}
    {"op": "kill", "pid": N} -> {}
`wall_s` runs from just before the child is started until it is reaped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    children: dict[int, tuple[subprocess.Popen, float]] = {}
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "spawn":
            with open(req["out"], "w") as out, open(req["err"], "w") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            children[proc.pid] = (proc, t0)
            reply = {"pid": proc.pid}
        elif req["op"] == "wait":
            proc, t0 = children.pop(req["pid"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            reply = {
                "code": proc.returncode,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
            }
        elif req["op"] == "kill":
            proc, _ = children[req["pid"]]
            proc.kill()
            reply = {}
        else:
            reply = {"error": f"unknown op {req['op']!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    for proc, _ in children.values():
        proc.kill()
        proc.wait()


class Launcher:
    """Client side: one launcher process per benchmark run."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def _call(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def spawn(self, argv, out, err) -> int:
        return self._call(op="spawn", argv=[str(a) for a in argv], out=str(out), err=str(err))["pid"]

    def wait(self, pid: int, timeout: float) -> dict:
        return self._call(op="wait", pid=pid, timeout=timeout)

    def kill(self, pid: int) -> None:
        self._call(op="kill", pid=pid)

    def close(self) -> None:
        """Ends the launcher, which kills and reaps any child still running."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
