"""Binary message formats and transports between the three parties.

Requests are the protocol values themselves: an AddPayload, RefreshPayload
or SearchTokenEnvelope goes on the wire as it is, and GetBloom and Rotate
are the two requests with no protocol value of their own. Every answer is
a Reply whose value is what the server method returned, except for a
search: CloudServer.search and Client.search share the shape (ids,
ciphertexts, gamma), ids newest-first and gamma None in basic mode, while
the SEARCH reply's value is (list, prefix, ids, ciphertexts, gamma), the
answer less what its connection already holds (below).

Message layout:

    version(1) = 0x0B | kind(1) | body

Request kinds 0x01..0x05 (ADD, REFRESH, SEARCH, GET_BLOOM, ROTATE) and
response kinds 0x81..0x85. Every variable-length field is a 4-byte
big-endian length followed by the bytes. A field written id(16), tau(16),
mu(w), element(16), sigma(16) or gamma(16) is fixed-width: that many raw
bytes, no length. Integers are big-endian (timestamps and epochs 8 bytes,
counts 4 bytes); a presence flag is one byte, 0 or 1, and the bracketed
fields follow only when it is 1.

    ADD        id(16) | ciphertext | flag [| sigma(16) | u64 t] | u32 n | n x (tau(16) | mu(w))
    REFRESH    u32 n | n x element(16) | sigma(16) | u64 t
    SEARCH     u64 epoch | token
    GET_BLOOM  flag [| u64 t | sigma]
    ROTATE     group_key | u64 epoch

An ADD's flag says its mode, and so the width w of its masks, before the
entries: set (full mode, with sigma and t), w is 32 (a key and gamma);
clear (basic mode), w is 16 (a key). A SEARCH token is the AEAD ciphertext
of one chain key (44 bytes) in full mode and the key itself in basic.

A REFRESH carries no filter: its n elements are the refreshed filter's
digit elements, strictly ascending, which build it when added to an empty
filter of the server's size (m and k never cross the wire). A refreshed filter
holds only digit embeddings, so its elements are far fewer bytes than its
bits. Every filter on the wire is raw.

A GET_BLOOM request carries the (t, sigma) of the filter the caller holds,
if any; when the server answers with no taus on that same pair (an empty
delta) it replies NOT_MODIFIED, and nothing else crosses the wire.

Responses open with a 1-byte status code. Every status but OK is followed by
a message string (empty for NOT_MODIFIED), whatever the kind. A request the
server cannot decode gets a FORMAT reply of the kind its header names, or of
kind ADD when that byte names no request. OK bodies:

    ADD, REFRESH, ROTATE   message
    SEARCH     u32 list | u32 prefix | u32 n | n x (id(16) | flag [| ciphertext])
               | flag [| gamma(16)]
    GET_BLOOM  flag | (filter, or when the flag is 1: u32 n | n x tau) | sigma | u64 t

A SEARCH reply sends an id list across its connection once. Both ends of
a connection keep the same table of id lists, oldest-first, numbered from
0 in creation order (as HPACK's dynamic table, RFC 7541). The answer,
oldest-first, is the first `prefix` ids of list number `list`, then the n
ids the reply carries; `list` equal to the table's length names no list,
and then `prefix` is 0. After an OK reply with n > 0, both ends apply one
rule: if `prefix` is the whole list, the n ids extend that list in place;
otherwise the answer joins the table as a new list. The endpoint names the
list sharing the longest prefix with the answer (the lowest number on a
tie), so a repeat of an unchanged answer carries no id, and one at an
older counter is a prefix of the list its later answer left.

Each of the n ids also carries its file's ciphertext at most once per
connection: an id's flag is 0 when its ciphertext crossed this connection
in an earlier reply (or earlier in this one), and the ciphertext is left
out; every id of a list has crossed before. The connection's
ServerEndpoint keeps the ids it has sent and the lists, and the Client
every ciphertext it has received and the lists, from which Client.search
rebuilds the whole answer. decode alone gives the reply as it crossed,
None for a held ciphertext.

A GET_BLOOM reply with the flag set is a delta: the n taus (LAMBDA bytes
each, no length prefix) added to the filter since the version the request
named. The client hands every answer on as it is, NOT_MODIFIED as the empty
delta; the user that named the version adds the taus to the filter it holds
(AuthorizedUser.gen_token), tagging again only the blocks they fall in.

The raw filter bytes and 8-byte timestamps on the wire are exactly what
the filter MAC covers, and a REFRESH's elements build exactly those bytes,
so no re-canonicalization happens anywhere between parties.

Two transports speak the same bytes: an in-process channel (test default)
and a length-prefixed TCP socket (4-byte big-endian frame length, at most
MAX_FRAME).
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any

from .crypto import LAMBDA
from .encoding import Reader, put_bytes, put_fixed, put_str, put_u8, put_u32, put_u64
from .errors import (
    DecryptionError,
    DsseError,
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    TransportError,
    UsageError,
)
from .protocol import (
    BASIC,
    FILE_ID_LEN,
    FULL,
    AddPayload,
    RefreshPayload,
    SearchTokenEnvelope,
    mask_width,
)
from .server import CloudServer

VERSION = 0x0B

KIND_ADD = 0x01
KIND_REFRESH = 0x02
KIND_SEARCH = 0x03
KIND_GET_BLOOM = 0x04
KIND_ROTATE = 0x05
_RESPONSE_BIT = 0x80

CODE_OK = 0x00
CODE_STALE_EPOCH = 0x01
CODE_NOT_FOUND = 0x02
CODE_PROTOCOL = 0x03
CODE_FORMAT = 0x04
CODE_UNSUPPORTED = 0x05
CODE_BAD_TOKEN = 0x06
CODE_INTERNAL = 0x07
CODE_NOT_MODIFIED = 0x08

# Error code <-> exception type, both directions. The server sends the code
# of the first type an exception is an instance of, so subclasses precede
# their bases; an exception of no listed type is CODE_INTERNAL. The client
# raises the listed type, and ProtocolError for any other code.
_ERRORS: dict[int, type[DsseError]] = {
    CODE_STALE_EPOCH: StaleEpochError,
    CODE_NOT_FOUND: NotFoundError,
    CODE_BAD_TOKEN: DecryptionError,
    CODE_FORMAT: FormatError,
    CODE_PROTOCOL: ProtocolError,
    CODE_UNSUPPORTED: UsageError,
}

# Largest frame either side accepts: above a GET_BLOOM reply carrying a
# 20-year filter raw (about 85 MB), far below what a forged length prefix
# could ask for. A REFRESH is far smaller.
MAX_FRAME = 256 * 1024 * 1024

_log = logging.getLogger(__name__)

_LAST_ANSWERED = object()  # Client.get_bloom's default version


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass
class GetBloom:
    """since is the (t, sigma) of the filter copy the client holds."""

    since: tuple[int, bytes] | None = None


@dataclass
class Rotate:
    group_key: bytes
    epoch: int


Request = AddPayload | RefreshPayload | SearchTokenEnvelope | GetBloom | Rotate

# The one request type <-> kind byte mapping; a reply carries the kind of
# the request it answers, with the response bit set on the wire.
_KINDS: dict[type, int] = {
    AddPayload: KIND_ADD,
    RefreshPayload: KIND_REFRESH,
    SearchTokenEnvelope: KIND_SEARCH,
    GetBloom: KIND_GET_BLOOM,
    Rotate: KIND_ROTATE,
}


@dataclass
class Reply:
    """The answer to a request of `kind`.

    value on CODE_OK is, for SEARCH, (list, prefix, ids, ciphertexts,
    gamma): the ids new to the connection's list, oldest-first, each
    ciphertext None where the reply names it as held; for GET_BLOOM, what
    the server returned, (filter or list of taus, sigma, t); else None.
    message explains any other code.
    """

    kind: int
    code: int = CODE_OK
    message: str = ""
    value: Any = None


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(msg: Request | Reply) -> bytes:
    if isinstance(msg, Reply):
        return _encode_reply(msg)
    kind = _KINDS.get(type(msg))
    if kind is None:
        raise UsageError(f"cannot encode {type(msg).__name__}")
    buf = bytearray((VERSION, kind))
    if kind == KIND_ADD:
        put_fixed(buf, msg.file_id, FILE_ID_LEN)
        put_bytes(buf, msg.ciphertext)
        put_u8(buf, msg.sigma is not None)
        if msg.sigma is not None:
            put_fixed(buf, msg.sigma, LAMBDA)
            put_u64(buf, msg.t)
        width = mask_width(BASIC if msg.sigma is None else FULL)
        put_u32(buf, len(msg.entries))
        for tau, mu in msg.entries:
            put_fixed(buf, tau, LAMBDA)
            put_fixed(buf, mu, width)
    elif kind == KIND_REFRESH:
        put_u32(buf, msg.n)
        put_fixed(buf, msg.elements, msg.n * LAMBDA)
        put_fixed(buf, msg.sigma, LAMBDA)
        put_u64(buf, msg.t)
    elif kind == KIND_SEARCH:
        put_u64(buf, msg.epoch)
        put_bytes(buf, msg.body)
    elif kind == KIND_GET_BLOOM:
        put_u8(buf, msg.since is not None)
        if msg.since is not None:
            put_u64(buf, msg.since[0])
            put_bytes(buf, msg.since[1])
    else:
        put_bytes(buf, msg.group_key)
        put_u64(buf, msg.epoch)
    return bytes(buf)


def _encode_reply(msg: Reply) -> bytes:
    buf = bytearray((VERSION, msg.kind | _RESPONSE_BIT))
    put_u8(buf, msg.code)
    if msg.code != CODE_OK or msg.kind not in (KIND_SEARCH, KIND_GET_BLOOM):
        put_str(buf, msg.message)
    elif msg.kind == KIND_SEARCH:
        number, prefix, ids, ciphertexts, gamma = msg.value
        put_u32(buf, number)
        put_u32(buf, prefix)
        put_u32(buf, len(ids))
        for fid, ct in zip(ids, ciphertexts, strict=True):
            put_fixed(buf, fid, FILE_ID_LEN)
            put_u8(buf, ct is not None)
            if ct is not None:
                put_bytes(buf, ct)
        put_u8(buf, gamma is not None)
        if gamma is not None:
            put_fixed(buf, gamma, LAMBDA)
    else:
        # one join over head, filter or taus, and tail: the filter is
        # copied once, not into a buffer and then out of it
        update, sigma, t = msg.value
        delta = isinstance(update, list)
        put_u8(buf, delta)
        put_u32(buf, len(update))  # the tau count, or the filter's length prefix
        tail = bytearray()
        put_bytes(tail, sigma)
        put_u64(tail, t)
        return b"".join((buf, *(update if delta else (update,)), tail))
    return bytes(buf)


def decode(data: bytes) -> Request | Reply:
    r = Reader(data)
    version = r.u8()
    if version != VERSION:
        raise FormatError(f"unknown version 0x{version:02x}", offset=0)
    kind = r.u8()
    if kind & ~_RESPONSE_BIT not in _KINDS.values():
        raise FormatError(f"unknown message kind 0x{kind:02x}", offset=1)
    if kind & _RESPONSE_BIT:
        msg = _decode_reply(kind & ~_RESPONSE_BIT, r)
    else:
        msg = _decode_request(kind, r)
    r.expect_end()
    return msg


def _decode_request(kind: int, r: Reader) -> Request:
    if kind == KIND_ADD:
        file_id = r.fixed(FILE_ID_LEN)
        ciphertext = r.bytes_()
        sigma = t = None
        full = r.flag()
        if full:
            sigma = r.fixed(LAMBDA)
            t = r.u64()
        width = mask_width(FULL if full else BASIC)
        entries = [(r.fixed(LAMBDA), r.fixed(width)) for _ in range(r.u32())]
        return AddPayload(file_id, ciphertext, entries, sigma, t)
    if kind == KIND_REFRESH:
        return RefreshPayload(r.fixed(r.u32() * LAMBDA), r.fixed(LAMBDA), r.u64())
    if kind == KIND_SEARCH:
        return SearchTokenEnvelope(r.u64(), r.bytes_())
    if kind == KIND_GET_BLOOM:
        return GetBloom((r.u64(), r.bytes_()) if r.flag() else None)
    return Rotate(r.bytes_(), r.u64())


def _decode_reply(kind: int, r: Reader) -> Reply:
    code = r.u8()
    if code != CODE_OK or kind not in (KIND_SEARCH, KIND_GET_BLOOM):
        return Reply(kind, code, r.str_())
    if kind == KIND_SEARCH:
        number, prefix = r.u32(), r.u32()
        pairs = [
            (r.fixed(FILE_ID_LEN), r.bytes_() if r.flag() else None) for _ in range(r.u32())
        ]
        gamma = r.fixed(LAMBDA) if r.flag() else None
        ids, cts = [fid for fid, _ in pairs], [ct for _, ct in pairs]
        return Reply(kind, value=(number, prefix, ids, cts, gamma))
    if r.flag():
        update = [r.fixed(LAMBDA) for _ in range(r.u32())]
    else:
        update = r.bytes_()
    return Reply(kind, value=(update, r.bytes_(), r.u64()))


# ---------------------------------------------------------------------------
# Server endpoint: bytes in, bytes out
# ---------------------------------------------------------------------------

def _code_for(exc: Exception) -> int:
    return next(
        (code for code, exc_type in _ERRORS.items() if isinstance(exc, exc_type)),
        CODE_INTERNAL,
    )


class ServerEndpoint:
    """One connection's server side: dispatches decoded requests onto a
    CloudServer and encodes replies; the connection's requests are served
    one at a time.

    It keeps the connection's table of id lists, each a list of the
    server's own id objects, with an index from each list's first id to its
    list numbers, and the ids whose ciphertexts it has sent. A SEARCH reply
    names the list sharing the longest prefix with whatever server.search
    returned, and carries only the ids past that prefix. The state grows
    only with answers the server gives: an honest server's answers at older
    counters are prefixes of the lists its later answers left, and add
    nothing."""

    def __init__(self, server: CloudServer):
        self.server = server
        self._sent: set[bytes] = set()
        self._lists: list[list[bytes]] = []
        self._starts: dict[bytes, list[int]] = {}

    def handle_bytes(self, data: bytes) -> bytes:
        try:
            request = decode(data)
        except FormatError as exc:
            # a reply of another kind would hide this error from the client
            kind = data[1] if len(data) > 1 and data[1] in _KINDS.values() else KIND_ADD
            return encode(Reply(kind, CODE_FORMAT, str(exc)))
        return encode(self.handle(request))

    def handle(self, request: Request | Reply) -> Reply:
        """Serve one request. Any failure, expected or not, becomes an
        error reply of the request's kind, so the connection lives on."""
        if isinstance(request, Reply):
            return Reply(request.kind, CODE_UNSUPPORTED, "not a request: a reply")
        kind = _KINDS[type(request)]
        try:
            value = self._dispatch(request)
        except DsseError as exc:
            return Reply(kind, _code_for(exc), str(exc))
        except Exception as exc:  # a server fault must not kill the handler
            _log.exception("internal error serving %s", type(request).__name__)
            return Reply(
                kind, CODE_INTERNAL, f"internal server error ({type(exc).__name__})"
            )
        if kind == KIND_GET_BLOOM and value[0] == [] and (value[2], value[1]) == request.since:
            return Reply(kind, CODE_NOT_MODIFIED)
        return Reply(kind, value=value)

    def _dispatch(self, request: Request) -> Any:
        server = self.server
        if isinstance(request, AddPayload):
            return server.add(request)
        if isinstance(request, RefreshPayload):
            return server.refresh(request)
        if isinstance(request, Rotate):
            return server.set_group_key(request.group_key, request.epoch)
        if isinstance(request, GetBloom):
            return server.get_bloom(request.since)
        return self._send_once(*server.search(request))

    def _send_once(
        self, ids: list[bytes], ciphertexts: list[bytes], gamma: bytes | None
    ) -> tuple[int, int, list[bytes], list[bytes | None], bytes | None]:
        """The SEARCH reply's value for the answer (ids newest-first): the
        list it extends and the prefix of it, then the ids past the prefix,
        oldest-first, with None (held) for each ciphertext this connection
        has carried before. The table takes the answer in, by the rule
        the client applies too."""
        answer, cts = ids[::-1], ciphertexts[::-1]
        lists = self._lists
        number, prefix = len(lists), 0
        candidates = self._starts.get(answer[0], ()) if answer else ()
        for i in candidates:
            shared = _shared_prefix(lists[i], answer)
            if shared > prefix:
                number, prefix = i, shared
        new, sent, once = answer[prefix:], self._sent, []
        for fid, ct in zip(new, cts[prefix:], strict=True):
            once.append(None if fid in sent else ct)
            sent.add(fid)
        if _take_in(lists, number, prefix, answer):
            self._starts.setdefault(answer[0], []).append(len(lists) - 1)
        return number, prefix, new, once, gamma


def _shared_prefix(a: list[bytes], b: list[bytes]) -> int:
    """The number of leading ids a and b share."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    return next(i for i in range(n) if a[i] != b[i])


def _take_in(lists: list[list[bytes]], number: int, prefix: int, answer: list[bytes]) -> bool:
    """The table rule both ends of a connection apply after an OK SEARCH
    reply: the answer (oldest-first) is the first `prefix` ids of list
    `number` and the ids past them. If it carried any, they extend that
    list in place when the prefix is the whole list, and otherwise the
    answer joins the table as list len(lists). True when it joined."""
    if len(answer) == prefix:
        return False
    if number < len(lists) and prefix == len(lists[number]):
        lists[number].extend(answer[prefix:])
        return False
    lists.append(answer)
    return True


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class InProcessTransport:
    """Same byte path as the socket, minus the socket."""

    def __init__(self, endpoint: ServerEndpoint):
        self.endpoint = endpoint

    def request(self, data: bytes) -> bytes:
        return self.endpoint.handle_bytes(data)

    def close(self) -> None:
        pass


class SocketTransport:
    """Client side of the length-prefixed TCP framing."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._lock = threading.Lock()

    def request(self, data: bytes) -> bytes:
        """One request, one reply. A failed exchange closes the socket: a
        reply still in flight, or the unread body of a refused frame, would
        otherwise be read as the answer to the next request."""
        with self._lock:
            try:
                self._sock.sendall(len(data).to_bytes(4, "big") + data)
                return _recv_frame(self._sock)
            except TransportError:
                self._sock.close()
                raise
            except OSError as exc:
                self._sock.close()
                raise TransportError(str(exc)) from exc

    def close(self) -> None:
        self._sock.close()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        part = sock.recv(n - len(chunks))
        if not part:
            raise TransportError("connection closed mid-frame")
        chunks += part
    return bytes(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    n = int.from_bytes(_recv_exact(sock, 4), "big")
    if n > MAX_FRAME:
        raise TransportError(f"frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
    return _recv_exact(sock, n)


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        endpoint = ServerEndpoint(self.server.cloud)  # type: ignore[attr-defined]
        sock = self.request
        while True:
            try:
                frame = _recv_frame(sock)
            except TransportError:
                return
            reply = endpoint.handle_bytes(frame)
            sock.sendall(len(reply).to_bytes(4, "big") + reply)


class WireServer:
    """Threaded TCP listener serving one CloudServer, with a ServerEndpoint
    of its own for each connection it accepts."""

    def __init__(self, server: CloudServer, host: str = "127.0.0.1", port: int = 0):
        self._tcp = socketserver.ThreadingTCPServer((host, port), _FrameHandler)
        self._tcp.daemon_threads = True
        self._tcp.cloud = server  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address  # type: ignore[return-value]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class Client:
    """Typed request/reply wrapper over either transport.

    Non-OK reply codes are raised back as the matching exception types,
    so in-process and remote callers see identical behavior.

    A Client is one connection: it keeps every ciphertext a SEARCH reply
    has sent it, by file id, and the connection's table of id lists, whose
    ids are the very id objects keyed in that cache, so no id is held
    twice. It counts in `ciphertexts` how many of the ids it was answered
    with arrived with their ciphertext (sent) and how many did not (held,
    the ids of a named list's prefix included).
    """

    def __init__(self, transport: InProcessTransport | SocketTransport):
        self.transport = transport
        self._last_answered: tuple[int, bytes] | None = None
        self._held: dict[bytes, tuple[bytes, bytes]] = {}  # id -> (that id, its ciphertext)
        self._lists: list[list[bytes]] = []
        self._lock = threading.Lock()
        self.ciphertexts: Counter[str] = Counter(sent=0, held=0)

    @classmethod
    def in_process(cls, server: CloudServer) -> "Client":
        """A connection to an endpoint of its own, as WireServer gives each
        socket it accepts."""
        return cls(InProcessTransport(ServerEndpoint(server)))

    @classmethod
    def connect(cls, host: str, port: int) -> "Client":
        return cls(SocketTransport(host, port))

    def _call(self, request: Request) -> Any:
        """Send one request and return its reply's value, or raise the
        reply's error. NOT_MODIFIED, valid only for a conditional
        GET_BLOOM, returns None."""
        reply = decode(self.transport.request(encode(request)))
        kind = _KINDS[type(request)]
        if not isinstance(reply, Reply) or reply.kind != kind:
            raise ProtocolError(f"reply does not answer a request of kind 0x{kind:02x}")
        if reply.code == CODE_OK:
            return reply.value
        if reply.code == CODE_NOT_MODIFIED and isinstance(request, GetBloom) and request.since:
            return None
        raise _ERRORS.get(reply.code, ProtocolError)(
            reply.message or f"server returned code {reply.code}"
        )

    def add(self, payload: AddPayload) -> None:
        self._call(payload)

    def refresh(self, payload: RefreshPayload) -> None:
        self._call(payload)

    def rotate(self, group_key: bytes, epoch: int) -> None:
        self._call(Rotate(group_key, epoch))

    def search(
        self, envelope: SearchTokenEnvelope
    ) -> tuple[list[bytes], list[bytes], bytes | None]:
        """The whole answer (ids, ciphertexts, gamma), ids newest-first,
        rebuilt from the connection's table and ciphertexts. A reply that
        names a list this client does not hold, a prefix longer than the
        list held, a held ciphertext this client never received, or sends
        again one it holds, is a ProtocolError and keeps nothing of it. The
        exchange and the rebuild hold one lock, so the replies reach the
        table in the order the endpoint wrote them."""
        with self._lock:
            number, prefix, ids, cts, gamma = self._call(envelope)
            lists, held, fresh = self._lists, self._held, {}
            if number > len(lists):
                raise ProtocolError(f"reply names id list {number}; this client holds {len(lists)}")
            base = lists[number] if number < len(lists) else []
            if prefix > len(base):
                raise ProtocolError(f"reply names a prefix of {prefix} ids of a list of {len(base)}")
            answer = base[:prefix]
            for fid, ct in zip(ids, cts):
                known = fresh.get(fid) or held.get(fid)
                if ct is None and known is None:
                    raise ProtocolError("reply holds back a ciphertext this client never received")
                if ct is not None and known is not None:
                    raise ProtocolError("reply sends again a ciphertext this client holds")
                if ct is not None:
                    known = fresh[fid] = fid, ct
                answer.append(known[0])
            held.update(fresh)
            _take_in(lists, number, prefix, answer)
            self.ciphertexts["sent"] += len(fresh)
            self.ciphertexts["held"] += len(answer) - len(fresh)
            answer = answer[::-1]
            return answer, [held[fid][1] for fid in answer], gamma

    def get_bloom(
        self, since: tuple[int, bytes] | None | object = _LAST_ANSWERED
    ) -> tuple[bytes | list[bytes], bytes, int]:
        """The server's answer (update, sigma, t) as it is, unchecked: update
        is the serialized filter or the taus added since, [] on NOT_MODIFIED.
        since is the (t, sigma) of the filter the caller holds, None for
        none; it defaults to the version this client was last answered,
        which is right only for a caller that accepts every answer. The user
        names its own version (AuthorizedUser.query)."""
        if since is _LAST_ANSWERED:
            since = self._last_answered
        update, sigma, t = self._call(GetBloom(since)) or ([], since[1], since[0])
        self._last_answered = t, sigma
        return update, sigma, t

    def close(self) -> None:
        self.transport.close()
