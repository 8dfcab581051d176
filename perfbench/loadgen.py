"""Open-loop HTTP/1.1 load generator over persistent connections.

One thread drives every connection through a selector. Requests fall due on
a fixed schedule whatever the server does; a request that finds no idle
connection waits in a FIFO queue, and its latency still runs from its due
time, so a stall is charged to every request queued behind it. Each request
goes out in one ``send`` with TCP_NODELAY set, as common HTTP clients do.
"""

from __future__ import annotations

import collections
import json
import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    method: str
    path: str
    tag: str  # score | psi | health
    key: str = ""  # app_id for /score
    body: bytes = b""


@dataclass
class Result:
    request: Request
    sent: float = -1.0  # seconds after start; -1 when never sent
    done: float = -1.0
    lag: float = 0.0  # how late the generator sent it once a connection was free
    status: int = 0  # 0: no response (refused, reset or timed out)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """From due time to the last byte of the response."""
        return (self.done - self.request.due) * 1000.0

    @property
    def wire_ms(self) -> float:
        """From the send to the last byte of the response."""
        return (self.done - self.sent) * 1000.0

    def json(self) -> dict:
        return json.loads(self.body)


def post_json(due: float, path: str, payload: dict, tag: str, key: str = "") -> Request:
    return Request(due, "POST", path, tag, key, json.dumps(payload).encode("utf-8"))


@dataclass
class _Conn:
    sock: socket.socket | None = None
    busy: Result | None = None
    idle_since: float = 0.0
    buf: bytearray = field(default_factory=bytearray)


class OpenLoopClient:
    """A fixed pool of keep-alive connections to one host and port."""

    def __init__(self, host: str, port: int, connections: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sel = selectors.DefaultSelector()
        self._conns = [_Conn() for _ in range(connections)]

    def __enter__(self) -> "OpenLoopClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for c in self._conns:
            self._drop(c)
        self._sel.close()

    def _drop(self, c: _Conn) -> None:
        if c.sock is not None:
            self._sel.unregister(c.sock)
            c.sock.close()
            c.sock = None
        c.buf.clear()

    def _connect(self, c: _Conn) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c.sock = sock
        self._sel.register(sock, selectors.EVENT_READ, c)

    def _encode(self, req: Request) -> bytes:
        head = (f"{req.method} {req.path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                f"Connection: keep-alive\r\n")
        if req.method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(req.body)}\r\n"
        return (head + "\r\n").encode("ascii") + req.body

    def _send(self, c: _Conn, res: Result, now: float, ready: float) -> None:
        res.lag = max(0.0, now - ready)
        res.sent = now
        try:
            if c.sock is None:
                self._connect(c)
            c.sock.sendall(self._encode(res.request))
        except OSError:
            self._drop(c)
            res.done = now
            return
        c.busy = res

    def _on_readable(self, c: _Conn, now: float) -> None:
        try:
            chunk = c.sock.recv(65536)
        except OSError:
            chunk = b""
        if not chunk:
            res, c.busy = c.busy, None
            self._drop(c)
            if res is not None:
                res.done = now
            c.idle_since = now
            return
        c.buf += chunk
        end = c.buf.find(b"\r\n\r\n")
        if end < 0:
            return
        lines = bytes(c.buf[:end]).decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(c.buf) < end + 4 + length:
            return
        res, c.busy = c.busy, None
        if res is not None:
            res.status = int(lines[0].split()[1])
            res.body = bytes(c.buf[end + 4 : end + 4 + length])
            res.done = now
        del c.buf[: end + 4 + length]
        if headers.get("connection", "").lower() == "close":
            self._drop(c)
        c.idle_since = now

    def run(self, schedule: list[Request], drain_s: float = 5.0) -> list[Result]:
        """Send every request at its due time; return results in due-time order.

        Requests still unanswered ``drain_s`` after the last due time are
        given up and stay failed (status 0).
        """
        results = [Result(r) for r in sorted(schedule, key=lambda r: r.due)]
        waiting: collections.deque[Result] = collections.deque()
        nxt = 0
        last_due = results[-1].request.due if results else 0.0
        t0 = time.perf_counter()
        for c in self._conns:
            c.idle_since = 0.0
        while True:
            now = time.perf_counter() - t0
            while nxt < len(results) and results[nxt].request.due <= now:
                waiting.append(results[nxt])
                nxt += 1
            for c in self._conns:
                if not waiting:
                    break
                if c.busy is None:
                    res = waiting.popleft()
                    self._send(c, res, time.perf_counter() - t0,
                               max(res.request.due, c.idle_since))
            in_flight = any(c.busy is not None for c in self._conns)
            if nxt == len(results) and not waiting and not in_flight:
                break
            if now > last_due + drain_s:
                break
            wait = 0.05
            if nxt < len(results) and not waiting:
                wait = min(wait, max(0.0, results[nxt].request.due - now))
            for key, _ in self._sel.select(timeout=wait):
                self._on_readable(key.data, time.perf_counter() - t0)
        for c in self._conns:
            if c.busy is not None:  # unanswered: start the next run on a fresh connection
                c.busy = None
                self._drop(c)
        return results


def backlog_at_last_due(results: list[Result]) -> int:
    """Requests already due but not yet sent at the moment the last one fell due."""
    if not results:
        return 0
    last_due = max(r.request.due for r in results)
    return sum(1 for r in results if r.sent < 0 or r.sent > last_due + 1e-3)
