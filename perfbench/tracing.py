"""Spans around the calls into each dsse module, installed from outside.

install() replaces functions and methods with wrappers that record a span:
its name, start, end, parent span and the id of the timed operation it
belongs to. Calls outside timed operations (set-up, checks) record nothing.
Modules that bind crypto or protocol names with `from .crypto import ...`
hold their own reference, so a function is replaced in every dsse module
that binds it, not only in its home module.

Spans live in flat arrays until the run ends. A span's self time is its
duration minus the time its children cover; children are sequential, so
closing a child adds its duration to its parent.

The benchmark drives one closed-loop client, so at most one thread records
spans at a time: the client thread waits inside wire.transport while a
WireServer handler thread serves its request. Spans opened on a thread with
no open span take the in-flight transport span as their parent, so the
server's work is subtracted from the transport's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from array import array
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.child = array("d")
        self.op_id = -1
        self.inflight = -1
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        """Start a span; outside timed operations nothing is recorded (-1)."""
        if self.op_id < 0:
            return -1
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else self.inflight)
        self.op.append(self.op_id)
        self.value.append(0)
        self.child.append(0.0)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        if sid < 0:
            return
        t = perf_counter()
        self.end[sid] = t
        self._local.stack.pop()
        parent = self.parent[sid]
        if parent >= 0:
            self.child[parent] += t - self.start[sid]

    def count(self, key: str, n: float) -> None:
        """Add n to a counter, if a timed operation is running."""
        if self.op_id >= 0:
            self.counts[key] = self.counts.get(key, 0) + n

    def totals(self) -> dict[str, list[float]]:
        """[calls, self seconds, value sum] per span name."""
        rows = [[0, 0.0, 0] for _ in self.names]
        name, start, end, child, value = self.name, self.start, self.end, self.child, self.value
        for sid in range(len(name)):
            row = rows[name[sid]]
            row[0] += 1
            row[1] += end[sid] - start[sid] - child[sid]
            row[2] += value[sid]
        return {n: rows[i] for i, n in enumerate(self.names) if rows[i][0]}

    def write(self, path: str) -> None:
        """One JSON header line, then the columns as raw native arrays."""
        columns = ("name", "start", "end", "parent", "op", "value")
        header = {
            "names": self.names,
            "count": len(self.name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(f)


def _span(tracer: Tracer, name: str, fn, note=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if note is not None:
            note(tracer, sid, args, result)
        return result

    return wrapper


def _transport_span(tracer: Tracer, fn):
    nid = tracer.name_id("wire.transport")

    @functools.wraps(fn)
    def wrapper(self, data):
        sid = tracer.open(nid)
        tracer.inflight = sid
        try:
            return fn(self, data)
        finally:
            tracer.inflight = -1
            tracer.close(sid)

    return wrapper


def _mac_bytes(tracer, sid, args, result):
    if sid >= 0:
        tracer.value[sid] = len(args[1])


def _result_bytes(tracer, sid, args, result):
    if sid >= 0:
        tracer.value[sid] = len(result)


def _search_counts(tracer, sid, args, result):
    tracer.count("server.search.lookups", args[0].last_search_lookups)
    tracer.count("server.search.results", len(result[0]))


def _probe_counts(tracer, sid, args, result):
    stats = args[0].last_probe_stats
    tracer.count("user.probes", stats.total)
    tracer.count("user.digit_probes", stats.digit_probes)


_CRYPTO = (
    "prf1", "prf2", "prf3", "chain_label", "derived_key", "digit_element",
    "mac_generate", "se_encrypt", "se_decrypt", "xor_bytes", "aggregate_mac",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported dsse package in spans."""
    from dsse import bloom, crypto, owner, protocol, server, user, wire

    modules = [m for n, m in sys.modules.items() if n == "dsse" or n.startswith("dsse.")]

    def rebind(home, attr, note=None):
        orig = getattr(home, attr)
        wrapped = _span(tracer, f"{home.__name__.rsplit('.', 1)[1]}.{attr}", orig, note)
        for module in modules:
            if getattr(module, attr, None) is orig:
                setattr(module, attr, wrapped)

    def method(cls, attr, name, note=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_span(tracer, name, raw.__func__, note)))
        else:
            setattr(cls, attr, _span(tracer, name, raw, note))

    for attr in _CRYPTO:
        rebind(crypto, attr, _mac_bytes if attr == "mac_generate" else None)
    for attr in ("filter_mac", "result_mac", "verify_result"):
        rebind(protocol, attr)
    for attr in ("encode", "decode"):
        rebind(wire, attr)

    bf = bloom.BloomFilter
    method(bf, "add", "bloom.add")
    method(bf, "verify", "bloom.verify")
    method(bf, "serialize", "bloom.serialize", _result_bytes)
    method(bf, "deserialize", "bloom.deserialize")
    method(bf, "embed_counter", "bloom.embed")
    method(bf, "extract_counter", "bloom.extract")
    for attr in ("add_file", "gen_token", "verify", "refresh_bloom"):
        method(owner.DataOwner, attr, f"owner.{attr}")
    for attr in ("add", "get_bloom", "ciphertexts_for"):
        method(server.CloudServer, attr, f"server.{attr}")
    method(server.CloudServer, "search", "server.search", _search_counts)
    for attr in ("gen_token", "verify"):
        method(user.AuthorizedUser, attr, f"user.{attr}")
    method(user.AuthorizedUser, "guess_counter", "user.guess_counter", _probe_counts)
    for cls in (wire.InProcessTransport, wire.SocketTransport):
        cls.request = _transport_span(tracer, cls.__dict__["request"])
    method(wire.ServerEndpoint, "handle_bytes", "wire.endpoint")
