"""Binary message formats and transports between the three parties.

Message layout:

    version(1) = 0x02 | kind(1) | body

Request kinds 0x01..0x05 (ADD, REFRESH, SEARCH, GET_BLOOM, ROTATE) and
response kinds 0x81..0x85. Every variable-length field is a 4-byte
big-endian length followed by the bytes; integers are big-endian
(timestamps and epochs 8 bytes, counts 4 bytes); a presence flag is one
byte, 0 or 1, and the bracketed fields follow only when it is 1.

    ADD        file_id | ciphertext | u32 n | n x (tau | mu) | flag [| sigma | u64 t]
    REFRESH    filter | sigma | u64 t
    SEARCH     u64 epoch | token
    GET_BLOOM  flag [| u64 t | sigma]
    ROTATE     group_key | u64 epoch

A GET_BLOOM request carries the (t, sigma) of the copy the client holds, if
any; when the server would serve the same pair it answers NOT_MODIFIED and
the filter does not cross the wire.

Responses open with a 1-byte status code. Every status but OK is followed by
a message string (empty for NOT_MODIFIED), whatever the kind. OK bodies:

    ADD, REFRESH, ROTATE   message
    SEARCH     u32 n | n x id | u32 n | n x ciphertext | flag [| gamma]
    GET_BLOOM  filter | sigma | u64 t

The filter bytes and 8-byte timestamps on the wire are exactly the MAC
inputs, so no re-canonicalization happens anywhere between parties.

Two transports speak the same bytes: an in-process channel (test default)
and a length-prefixed TCP socket (4-byte big-endian frame length, at most
MAX_FRAME).
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from typing import ClassVar

from .encoding import Reader, put_bytes, put_str, put_u8, put_u32, put_u64
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
from .protocol import AddPayload, Proof, RefreshPayload, SearchTokenEnvelope
from .server import CloudServer

VERSION = 0x02

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

# Largest frame either side accepts: above the REFRESH of a 20-year filter
# (about 85 MB), far below what a forged length prefix could ask for.
MAX_FRAME = 256 * 1024 * 1024

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Message dataclasses
# ---------------------------------------------------------------------------

@dataclass
class AddRequest:
    kind: ClassVar[int] = KIND_ADD
    payload: AddPayload


@dataclass
class RefreshRequest:
    kind: ClassVar[int] = KIND_REFRESH
    payload: RefreshPayload


@dataclass
class SearchRequest:
    kind: ClassVar[int] = KIND_SEARCH
    envelope: SearchTokenEnvelope


@dataclass
class GetBloomRequest:
    """since is the (t, sigma) of the filter copy the client holds."""

    kind: ClassVar[int] = KIND_GET_BLOOM
    since: tuple[int, bytes] | None = None


@dataclass
class RotateRequest:
    kind: ClassVar[int] = KIND_ROTATE
    group_key: bytes
    epoch: int


@dataclass
class StatusResponse:
    kind: int  # response kind byte
    code: int
    message: str = ""


@dataclass
class SearchResponse:
    kind: ClassVar[int] = KIND_SEARCH | _RESPONSE_BIT
    code: int
    ids: list[bytes] = field(default_factory=list)
    ciphertexts: list[bytes] = field(default_factory=list)
    proof: Proof | None = None
    message: str = ""


@dataclass
class GetBloomResponse:
    kind: ClassVar[int] = KIND_GET_BLOOM | _RESPONSE_BIT
    code: int
    bf_bytes: bytes = b""
    sigma: bytes = b""
    t: int = 0
    message: str = ""


Message = (
    AddRequest
    | RefreshRequest
    | SearchRequest
    | GetBloomRequest
    | RotateRequest
    | StatusResponse
    | SearchResponse
    | GetBloomResponse
)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(msg: Message) -> bytes:
    if not isinstance(msg, Message):
        raise UsageError(f"cannot encode {type(msg).__name__}")
    buf = bytearray((VERSION, msg.kind))
    if isinstance(msg, AddRequest):
        p = msg.payload
        put_bytes(buf, p.file_id)
        put_bytes(buf, p.ciphertext)
        put_u32(buf, len(p.entries))
        for tau, mu in p.entries:
            put_bytes(buf, tau)
            put_bytes(buf, mu)
        put_u8(buf, p.sigma is not None)
        if p.sigma is not None:
            put_bytes(buf, p.sigma)
            put_u64(buf, p.t)
    elif isinstance(msg, RefreshRequest):
        p = msg.payload
        put_bytes(buf, p.bf_bytes)
        put_bytes(buf, p.sigma)
        put_u64(buf, p.t)
    elif isinstance(msg, SearchRequest):
        put_u64(buf, msg.envelope.epoch)
        put_bytes(buf, msg.envelope.body)
    elif isinstance(msg, GetBloomRequest):
        put_u8(buf, msg.since is not None)
        if msg.since is not None:
            put_u64(buf, msg.since[0])
            put_bytes(buf, msg.since[1])
    elif isinstance(msg, RotateRequest):
        put_bytes(buf, msg.group_key)
        put_u64(buf, msg.epoch)
    elif isinstance(msg, StatusResponse):
        put_u8(buf, msg.code)
        put_str(buf, msg.message)
    else:
        put_u8(buf, msg.code)
        if msg.code != CODE_OK:
            put_str(buf, msg.message)
        elif isinstance(msg, SearchResponse):
            put_u32(buf, len(msg.ids))
            for fid in msg.ids:
                put_bytes(buf, fid)
            put_u32(buf, len(msg.ciphertexts))
            for ct in msg.ciphertexts:
                put_bytes(buf, ct)
            put_u8(buf, msg.proof is not None)
            if msg.proof is not None:
                put_bytes(buf, msg.proof.gamma)
        else:
            put_bytes(buf, msg.bf_bytes)
            put_bytes(buf, msg.sigma)
            put_u64(buf, msg.t)
    return bytes(buf)


def decode(data: bytes) -> Message:
    r = Reader(data)
    version = r.u8()
    if version != VERSION:
        raise FormatError(f"unknown version 0x{version:02x}", offset=0)
    kind = r.u8()
    msg = _decode_body(kind, r)
    r.expect_end()
    return msg


def _decode_body(kind: int, r: Reader) -> Message:
    if kind == KIND_ADD:
        file_id = r.bytes_()
        ciphertext = r.bytes_()
        entries = [(r.bytes_(), r.bytes_()) for _ in range(r.u32())]
        sigma = t = None
        if r.flag():
            sigma = r.bytes_()
            t = r.u64()
        return AddRequest(AddPayload(file_id, ciphertext, entries, sigma, t))
    if kind == KIND_REFRESH:
        return RefreshRequest(RefreshPayload(r.bytes_(), r.bytes_(), r.u64()))
    if kind == KIND_SEARCH:
        return SearchRequest(SearchTokenEnvelope(r.u64(), r.bytes_()))
    if kind == KIND_GET_BLOOM:
        return GetBloomRequest((r.u64(), r.bytes_()) if r.flag() else None)
    if kind == KIND_ROTATE:
        return RotateRequest(r.bytes_(), r.u64())
    if kind == SearchResponse.kind:
        code = r.u8()
        if code != CODE_OK:
            return SearchResponse(code, message=r.str_())
        ids = [r.bytes_() for _ in range(r.u32())]
        cts = [r.bytes_() for _ in range(r.u32())]
        proof = Proof(r.bytes_()) if r.flag() else None
        return SearchResponse(code, ids, cts, proof)
    if kind == GetBloomResponse.kind:
        code = r.u8()
        if code != CODE_OK:
            return GetBloomResponse(code, message=r.str_())
        return GetBloomResponse(code, bf_bytes=r.bytes_(), sigma=r.bytes_(), t=r.u64())
    if kind in (
        KIND_ADD | _RESPONSE_BIT,
        KIND_REFRESH | _RESPONSE_BIT,
        KIND_ROTATE | _RESPONSE_BIT,
    ):
        return StatusResponse(kind, r.u8(), r.str_())
    raise FormatError(f"unknown message kind 0x{kind:02x}", offset=1)


# ---------------------------------------------------------------------------
# Server endpoint: bytes in, bytes out
# ---------------------------------------------------------------------------

def _code_for(exc: Exception) -> int:
    return next(
        (code for code, exc_type in _ERRORS.items() if isinstance(exc, exc_type)),
        CODE_INTERNAL,
    )


class ServerEndpoint:
    """Dispatches decoded requests onto a CloudServer and encodes replies."""

    def __init__(self, server: CloudServer):
        self.server = server

    def handle_bytes(self, data: bytes) -> bytes:
        try:
            request = decode(data)
        except FormatError as exc:
            return encode(
                StatusResponse(KIND_ADD | _RESPONSE_BIT, CODE_FORMAT, str(exc))
            )
        return encode(self.handle(request))

    def handle(self, request: Message) -> Message:
        """Serve one request. Any failure, expected or not, becomes an
        error response of the request's kind, so the connection lives on."""
        try:
            return self._dispatch(request)
        except DsseError as exc:
            code, message = _code_for(exc), str(exc)
        except Exception as exc:  # a server fault must not kill the handler
            _log.exception("internal error serving %s", type(request).__name__)
            code, message = CODE_INTERNAL, f"internal server error ({type(exc).__name__})"
        # error responses share one layout across kinds
        return StatusResponse(request.kind | _RESPONSE_BIT, code, message)

    def _dispatch(self, request: Message) -> Message:
        if isinstance(request, AddRequest):
            self.server.add(request.payload)
            return StatusResponse(KIND_ADD | _RESPONSE_BIT, CODE_OK)
        if isinstance(request, RefreshRequest):
            self.server.refresh(request.payload)
            return StatusResponse(KIND_REFRESH | _RESPONSE_BIT, CODE_OK)
        if isinstance(request, RotateRequest):
            self.server.set_group_key(request.group_key, request.epoch)
            return StatusResponse(KIND_ROTATE | _RESPONSE_BIT, CODE_OK)
        if isinstance(request, SearchRequest):
            ids, proof = self.server.search(request.envelope)
            cts = self.server.ciphertexts_for(ids)
            return SearchResponse(CODE_OK, ids, cts, proof)
        if isinstance(request, GetBloomRequest):
            triple = self.server.get_bloom(request.since)
            if triple is None:
                return GetBloomResponse(CODE_NOT_MODIFIED)
            return GetBloomResponse(CODE_OK, *triple)
        raise UsageError(f"not a request: {type(request).__name__}")


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
        with self._lock:
            try:
                self._sock.sendall(len(data).to_bytes(4, "big") + data)
                return _recv_frame(self._sock)
            except OSError as exc:
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
        endpoint: ServerEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        sock = self.request
        while True:
            try:
                frame = _recv_frame(sock)
            except TransportError:
                return
            reply = endpoint.handle_bytes(frame)
            sock.sendall(len(reply).to_bytes(4, "big") + reply)


class WireServer:
    """Threaded TCP listener serving one CloudServer."""

    def __init__(self, server: CloudServer, host: str = "127.0.0.1", port: int = 0):
        self.endpoint = ServerEndpoint(server)
        self._tcp = socketserver.ThreadingTCPServer((host, port), _FrameHandler)
        self._tcp.daemon_threads = True
        self._tcp.endpoint = self.endpoint  # type: ignore[attr-defined]
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
    """Typed request/response wrapper over either transport.

    Non-OK response codes are raised back as the matching exception types,
    so in-process and remote callers see identical behavior.
    """

    def __init__(self, transport: InProcessTransport | SocketTransport):
        self.transport = transport
        self._bloom: tuple[bytes, bytes, int] | None = None

    @classmethod
    def in_process(cls, server: CloudServer) -> "Client":
        return cls(InProcessTransport(ServerEndpoint(server)))

    @classmethod
    def connect(cls, host: str, port: int) -> "Client":
        return cls(SocketTransport(host, port))

    def _round_trip(self, msg: Message) -> Message:
        return decode(self.transport.request(encode(msg)))

    @staticmethod
    def _raise_for(code: int, message: str) -> None:
        exc_type = _ERRORS.get(code, ProtocolError)
        raise exc_type(message or f"server returned code {code}")

    def add(self, payload: AddPayload) -> None:
        resp = self._round_trip(AddRequest(payload))
        if resp.code != CODE_OK:
            self._raise_for(resp.code, resp.message)

    def refresh(self, payload: RefreshPayload) -> None:
        resp = self._round_trip(RefreshRequest(payload))
        if resp.code != CODE_OK:
            self._raise_for(resp.code, resp.message)

    def rotate(self, group_key: bytes, epoch: int) -> None:
        resp = self._round_trip(RotateRequest(group_key, epoch))
        if resp.code != CODE_OK:
            self._raise_for(resp.code, resp.message)

    def search(
        self, envelope: SearchTokenEnvelope
    ) -> tuple[list[bytes], list[bytes], Proof | None]:
        resp = self._round_trip(SearchRequest(envelope))
        if resp.code != CODE_OK:
            self._raise_for(resp.code, resp.message)
        return resp.ids, resp.ciphertexts, resp.proof

    def get_bloom(self) -> tuple[bytes, bytes, int]:
        """The server's (filter, sigma, t) triple.

        The last triple fetched is kept and its (t, sigma) sent as the
        request's condition; on NOT_MODIFIED that same triple is returned,
        so threads sharing this client each get the copy they asked about.
        """
        held = self._bloom
        resp = self._round_trip(
            GetBloomRequest(None if held is None else (held[2], held[1]))
        )
        if resp.code == CODE_NOT_MODIFIED and held is not None:
            return held
        if resp.code != CODE_OK:
            self._raise_for(resp.code, resp.message)
        triple = (resp.bf_bytes, resp.sigma, resp.t)
        self._bloom = triple
        return triple

    def close(self) -> None:
        self.transport.close()
