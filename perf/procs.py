"""Process ownership: `repro build` and `repro serve` as subprocesses.

The harness hands the program only generated inputs, so both the offline
build and the server run as real child processes (``PYTHONHASHSEED=0``,
``PYTHONPATH=<checkout>/src``).  Every server is started in its own
session so the harness owns the whole process tree — the dispatcher *and*
its worker processes — and can account its memory and tear it down as one
unit on success, failure, Ctrl-C and timeout.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from yardstick import yardsticks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_SERVING = re.compile(r"# serving on http://([\d.]+):(\d+)")

#: Servers started and not yet stopped; `stop_all` is the last line of
#: defence behind every exit path of the harness.
_LIVE: List["Server"] = []


def child_env() -> Dict[str, str]:
    """Children also run with the run's scratch directory as their working
    directory: ``python -m`` puts the working directory on ``sys.path``,
    and a stray ``numbers.py`` in the caller's would shadow the stdlib."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class BuildResult:
    """One `repro build` run: the bundle plus what it cost to make."""

    def __init__(self, path: str, seconds: float, peak_rss_mb: float,
                 yards: List[float]):
        self.path = path
        self.seconds = seconds
        self.peak_rss_mb = peak_rss_mb
        self.yards = yards  # yardsticks timed right before and after
        self.bytes = os.path.getsize(path)


def build_bundle(
    data_path: str, out_path: str, flags: Sequence[str], log_path: str
) -> BuildResult:
    """Run ``python -m repro build --data ... -o out_path`` to completion."""
    argv = [sys.executable, "-m", "repro", "build", "--data", data_path,
            "-o", out_path, *flags]
    yards = yardsticks()
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            argv, env=child_env(), stdout=log, stderr=log,
            stdin=subprocess.DEVNULL, cwd=os.path.dirname(log_path),
        )
        # wait4 (not Popen.wait) so the peak RSS is this child's own, not
        # the maximum over every child the harness ever had.
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro build exited {proc.returncode}:\n{_tail(log_path)}"
        )
    return BuildResult(out_path, seconds, rusage.ru_maxrss / 1024.0,
                       yards + yardsticks())


class Server:
    """One ``repro serve --bundle`` process group on an ephemeral port."""

    def __init__(self, bundle: str, flags: Sequence[str], log_path: str):
        self.bundle = bundle
        self.flags = list(flags)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.ready_seconds = 0.0
        #: Yardsticks timed right before the start and once it was ready.
        self.ready_yards: List[float] = []

    def start(self, timeout: float = 60.0) -> "Server":
        """Spawn, learn the port from the server's own log line, and poll
        ``/stats`` until the first 200."""
        yards = yardsticks()
        argv = [sys.executable, "-m", "repro", "serve", "--bundle",
                self.bundle, "--port", "0", *self.flags]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                argv, env=child_env(), stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True,
                cwd=os.path.dirname(self.log_path),
            )
        _LIVE.append(self)
        deadline = started + timeout
        while not self.port:
            self._check_alive_until(deadline, "announce its port")
            with open(self.log_path, "rb") as log:
                match = _SERVING.search(log.read().decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.01)
        while True:
            self._check_alive_until(deadline, "answer /stats")
            try:
                self.stats()
                break
            except (OSError, http.client.HTTPException, ValueError):
                time.sleep(0.01)
        self.ready_seconds = time.perf_counter() - started
        self.ready_yards = yards + yardsticks()
        return self

    def _check_alive_until(self, deadline: float, what: str) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited {self.proc.returncode} before it could "
                f"{what}:\n{_tail(self.log_path)}"
            )
        if time.perf_counter() > deadline:
            raise TimeoutError(
                f"repro serve did not {what} in time:\n{_tail(self.log_path)}"
            )

    def stats(self) -> Dict[str, object]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise ValueError(f"/stats returned {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def pids(self) -> List[int]:
        """Every live process in the server's process group."""
        pgid = self.proc.pid
        out = []
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as fh:
                    # Fields after the parenthesised command name:
                    # state ppid pgrp ...
                    state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
            except (OSError, ValueError, IndexError):
                continue
            if int(pgrp) == pgid and state != "Z":
                out.append(int(name))
        return out

    def pss_mb(self) -> float:
        """Sum of proportional set sizes over the process tree: pages of
        the bundle that dispatcher and workers map together count once."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/smaps_rollup") as fh:
                    for line in fh:
                        if line.startswith("Pss:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, grace: float = 3.0) -> None:
        """SIGTERM (the server drains and reaps its workers), then SIGKILL
        whatever is left of the group, then wait until it is empty."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if self in _LIVE:
            _LIVE.remove(self)
        pgid = proc.pid
        _signal_group(pgid, signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        _signal_group(pgid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5.0
        while _signal_group(pgid, 0) and time.monotonic() < deadline:
            time.sleep(0.01)


def _tail(log_path: str, limit: int = 2000) -> str:
    """The end of a child's log: the run directory is gone by the time
    anybody could go and look."""
    with open(log_path, "rb") as log:
        return log.read()[-limit:].decode("utf-8", "replace")


def _signal_group(pgid: int, signum: int) -> bool:
    """Signal a process group; False once no process is left in it."""
    try:
        os.killpg(pgid, signum)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def stop_all() -> None:
    for server in list(_LIVE):
        server.stop(grace=0.5)
