"""Running one scram command: as a child process (timed, with its peak RSS
from ``os.wait4`` and a timeout), or in this process through
``scram.cli.main`` with its standard output captured.
"""

from __future__ import annotations

import io
import os
import selectors
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass


@dataclass
class Result:
    code: int            # exit code; -1 for a timeout or an exception
    stdout: bytes
    stderr: str
    seconds: float
    maxrss_kb: int = 0
    cpu_seconds: float = 0.0   # the child's user plus system time


def run_child(argv: list[str], env: dict, cwd: str, timeout: float) -> Result:
    """Run ``argv`` to completion in its own session; kill the session on a
    timeout. Wall time spans fork to reap."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [],
                                      proc.stderr.fileno(): []}
    deadline = time.monotonic() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    if timed_out:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()]).decode(errors="replace")
    proc.stdout.close()
    proc.stderr.close()
    cpu = usage.ru_utime + usage.ru_stime
    if timed_out:
        return Result(-1, out, err + f"\ntimed out after {timeout:.0f}s",
                      seconds, usage.ru_maxrss, cpu)
    return Result(proc.returncode, out, err, seconds, usage.ru_maxrss, cpu)


def run_inprocess(argv: list[str], env: dict, cwd: str) -> Result:
    """``scram.cli.main(argv, env=env, cwd=cwd)`` with standard output
    captured at the file-descriptor level too, so that output of child
    commands (``build`` runs one) is kept. The interpreter's own text comes
    after the children's, as it does when a block-buffered pipe is flushed
    at exit."""
    from scram import cli

    sys.stdout.flush()
    saved = os.dup(1)
    out, err = io.StringIO(), io.StringIO()
    streams = sys.stdin, sys.stdout, sys.stderr
    with tempfile.TemporaryFile() as raw:
        os.dup2(raw.fileno(), 1)
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(), out, err
        start = time.perf_counter()
        try:
            code = cli.main(list(argv), env=env, cwd=cwd)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            seconds = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = streams
            os.dup2(saved, 1)
            os.close(saved)
        raw.seek(0)
        captured = raw.read()
    return Result(code, captured + out.getvalue().encode(), err.getvalue(), seconds)
