"""Run CLI children and read each one's own peak RSS.

On Linux, exec records the high-water RSS of the address space it replaces
into the new program's ``ru_maxrss``.  A child started directly from the
benchmark process would therefore report the benchmark's own peak (captured
outputs, sequences and operator tables) as its peak.  The launcher is forked
before the benchmark allocates anything, and every CLI child is spawned from
it, so ``os.wait4`` returns the child's own figure.  ``RUSAGE_CHILDREN`` is
not used: it is a running maximum, which would carry one verb's peak into the
next.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from dataclasses import dataclass


@dataclass
class Completed:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    cpu_seconds: float
    peak_rss_mb: float


def _serve(sock: socket.socket) -> None:
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        request = json.loads(message)
        argv = request["argv"]
        try:
            pid = os.posix_spawn(
                argv[0],
                argv,
                request["env"],
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, fds[0], 1),
                    (os.POSIX_SPAWN_DUP2, fds[1], 2),
                ],
            )
        finally:
            for fd in fds:
                os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        reply = {
            "status": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        sock.send(json.dumps(reply).encode())


class Launcher:
    """A forked helper that spawns one child at a time and waits for it."""

    def __init__(self) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        pid = os.fork()
        if pid == 0:
            ours.close()
            try:
                _serve(theirs)
            finally:
                os._exit(0)
        theirs.close()
        self._sock = ours
        self._pid = pid

    def run(self, argv: list[str], env: dict[str, str]) -> Completed:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        start = time.perf_counter()
        try:
            request = json.dumps({"argv": argv, "env": env}).encode()
            socket.send_fds(self._sock, [request], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
                        os.close(key.fd)
        reply = json.loads(self._sock.recv(1 << 16))
        seconds = time.perf_counter() - start
        return Completed(
            reply["status"],
            b"".join(chunks[out_r]),
            b"".join(chunks[err_r]),
            seconds,
            reply["cpu_s"],
            reply["maxrss_kb"] / 1024,
        )

    def close(self) -> None:
        """Stop the helper and wait until it has exited."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
            os.waitpid(self._pid, 0)
