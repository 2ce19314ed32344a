import random
import socket
import threading

import pytest

from dsse import wire
from dsse.bloom import BloomParams
from dsse.errors import (
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    TransportError,
)
from dsse.harness.oracle import PlaintextOracle
from dsse.harness.phi import synthesize_stream
from dsse.owner import DataOwner
from dsse.protocol import AddPayload, Proof, RefreshPayload, SearchTokenEnvelope, filter_mac
from dsse.server import CloudServer

NOW = 1_700_000_000
rng = random.Random(42)


def random_add_payload(n_entries=3, full=True) -> AddPayload:
    entries = [(rng.randbytes(16), rng.randbytes(48 if full else 32)) for _ in range(n_entries)]
    return AddPayload(
        file_id=rng.randbytes(16),
        ciphertext=rng.randbytes(rng.randint(1, 200)),
        entries=entries,
        sigma=rng.randbytes(16) if full else None,
        t=NOW if full else None,
    )


def round_trip(msg):
    data = wire.encode(msg)
    back = wire.decode(data)
    assert wire.encode(back) == data
    return back


def test_round_trip_every_kind():
    back = round_trip(wire.AddRequest(random_add_payload()))
    assert back.payload.sigma is not None
    back = round_trip(wire.AddRequest(random_add_payload(full=False)))
    assert back.payload.sigma is None
    round_trip(wire.RefreshRequest(RefreshPayload(rng.randbytes(64), rng.randbytes(16), NOW)))
    round_trip(wire.SearchRequest(SearchTokenEnvelope(3, rng.randbytes(60))))
    round_trip(wire.GetBloomRequest())
    back = round_trip(wire.GetBloomRequest((NOW, rng.randbytes(16))))
    assert back.since[0] == NOW
    round_trip(wire.RotateRequest(rng.randbytes(16), 2))
    round_trip(wire.StatusResponse(wire.KIND_ADD | 0x80, wire.CODE_OK))
    round_trip(wire.StatusResponse(wire.KIND_ROTATE | 0x80, wire.CODE_PROTOCOL, "bad"))
    proof = Proof(rng.randbytes(16))
    round_trip(wire.SearchResponse(
        wire.CODE_OK,
        [rng.randbytes(16) for _ in range(4)],
        [rng.randbytes(30) for _ in range(4)],
        proof,
    ))
    round_trip(wire.SearchResponse(wire.CODE_STALE_EPOCH, message="stale"))
    round_trip(wire.GetBloomResponse(wire.CODE_OK, rng.randbytes(33), rng.randbytes(16), NOW))
    round_trip(wire.GetBloomResponse(wire.CODE_UNSUPPORTED, message="basic"))
    round_trip(wire.GetBloomResponse(wire.CODE_NOT_MODIFIED))
    round_trip(wire.StatusResponse(wire.KIND_ADD | 0x80, wire.CODE_INTERNAL, "boom"))


def test_truncation_always_detected():
    data = wire.encode(wire.AddRequest(random_add_payload(5)))
    for cut in range(len(data)):
        with pytest.raises(FormatError):
            wire.decode(data[:cut])


def test_trailing_bytes_rejected():
    data = wire.encode(wire.GetBloomRequest())
    with pytest.raises(FormatError):
        wire.decode(data + b"\x00")


def test_unknown_version_and_kind():
    data = bytearray(wire.encode(wire.GetBloomRequest()))
    data[0] = 0x01  # the version before filter-free proofs
    with pytest.raises(FormatError):
        wire.decode(bytes(data))
    data[0] = wire.VERSION
    data[1] = 0x7F
    with pytest.raises(FormatError):
        wire.decode(bytes(data))


def test_add_request_size_formula():
    # version + kind + lp(file_id) + lp(ciphertext) + u32 count
    # + per entry lp(tau 16) + lp(mu 48) + presence byte + lp(sigma) + u64 t
    payload = random_add_payload(n_entries=15)
    data = wire.encode(wire.AddRequest(payload))
    expected = (
        2
        + (4 + 16)
        + (4 + len(payload.ciphertext))
        + 4
        + 15 * ((4 + 16) + (4 + 48))
        + 1
        + (4 + 16)
        + 8
    )
    assert len(data) == expected


def build_system(n_files=30):
    params = BloomParams(2.0**-30, 10_000)
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    oracle = PlaintextOracle()
    last_t = NOW
    for phi in synthesize_stream(5, n_files):
        payload = owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
        server.add(payload)
        oracle.add(payload.file_id, phi.keywords())
        last_t = phi.timestamp
    return owner, server, oracle, last_t


def test_socket_and_in_process_transports_agree():
    owner, server, oracle, last_t = build_system()
    local = wire.Client.in_process(server)
    ws = wire.WireServer(server)
    ws.start()
    try:
        remote = wire.Client.connect(*ws.address)
        keyword = oracle.keywords()[0]
        request = wire.encode(wire.SearchRequest(owner.gen_token(keyword)))
        reply_local = local.transport.request(request)
        # identical state: the merged entry from the first search makes the
        # second reply identical bytes
        reply_remote = remote.transport.request(request)
        assert reply_local == reply_remote
        bloom_req = wire.encode(wire.GetBloomRequest())
        assert local.transport.request(bloom_req) == remote.transport.request(bloom_req)
        remote.close()
    finally:
        ws.stop()


def test_error_codes_surface_as_typed_exceptions():
    owner, server, oracle, last_t = build_system(5)
    client = wire.Client.in_process(server)
    with pytest.raises(NotFoundError):
        client.search(owner.token_for_counter("absent", 1))
    r, epoch = owner.rotate_group_key()
    stale = SearchTokenEnvelope(1, b"\x00" * 44)
    client.rotate(r, epoch)
    resp = wire.decode(client.transport.request(wire.encode(wire.SearchRequest(stale))))
    assert resp.code == wire.CODE_STALE_EPOCH
    with pytest.raises(StaleEpochError):
        client.search(stale)


def test_wire_bytes_are_the_mac_inputs():
    # a MAC recomputed from decoded wire bytes matches the one computed
    # locally by the owner: no re-canonicalization on the path
    owner, server, oracle, last_t = build_system(10)
    client = wire.Client.in_process(server)
    bf_bytes, sigma, t = client.get_bloom()
    assert filter_mac(owner.keys.k_mac, bf_bytes, t) == sigma
    # and for a filter that crossed the wire twice: owner -> server in a
    # REFRESH, then back in a conditional GET_BLOOM
    client.refresh(owner.refresh_bloom(last_t + 1))
    bf_bytes, sigma, t = client.get_bloom()
    assert t == last_t + 1
    assert filter_mac(owner.keys.k_mac, bf_bytes, t) == sigma


def test_full_honest_run_over_wire():
    owner, server, oracle, last_t = build_system(n_files=1000)
    client = wire.Client.in_process(server)
    picker = random.Random(9)
    keywords = oracle.keywords()
    for _ in range(100):
        w = picker.choice(keywords)
        ids, cts, proof = client.search(owner.gen_token(w))
        assert ids == oracle.ids_newest_first(w)
        report = owner.verify(w, ids, cts, proof, last_t + 60)
        assert report.ok


def test_conditional_get_bloom():
    owner, server, oracle, last_t = build_system(10)
    client = wire.Client.in_process(server)
    first = client.get_bloom()
    held = (first[2], first[1])
    raw = client.transport.request(wire.encode(wire.GetBloomRequest(held)))
    assert wire.decode(raw).code == wire.CODE_NOT_MODIFIED
    assert len(raw) == 7  # version, kind, status, empty message
    assert client.get_bloom() is first  # the held copy, not a new fetch

    server.add(owner.add_file(b"late", ["w:1"], last_t + 600))
    after_add = client.get_bloom()
    assert after_add[2] == last_t + 600 and after_add[1] != first[1]
    assert filter_mac(owner.keys.k_mac, after_add[0], after_add[2]) == after_add[1]
    assert client.get_bloom() is after_add

    server.refresh(owner.refresh_bloom(last_t + 601))
    after_refresh = client.get_bloom()
    assert after_refresh == (owner.bf.serialize(), server.sigma, last_t + 601)
    assert client.get_bloom() is after_refresh


def test_oversized_frame_refused_before_allocation(monkeypatch):
    sizes = []
    recv_exact = wire._recv_exact
    monkeypatch.setattr(
        wire, "_recv_exact", lambda sock, n: sizes.append(n) or recv_exact(sock, n)
    )
    oversized = (wire.MAX_FRAME + 1).to_bytes(4, "big")

    # a client announcing an oversized request is cut off; the server lives on
    owner, server, oracle, last_t = build_system(2)
    ws = wire.WireServer(server)
    ws.start()
    try:
        with socket.create_connection(ws.address, timeout=10) as raw:
            raw.sendall(oversized)
            assert raw.recv(16) == b""  # closed without a reply
        client = wire.Client.connect(*ws.address)
        assert client.get_bloom()[2] == last_t
        client.close()
    finally:
        ws.stop()

    # a server announcing an oversized reply raises TransportError
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = threading.Thread(target=_reply_with, args=(listener, oversized))
        peer.start()
        transport = wire.SocketTransport(*listener.getsockname()[:2], timeout=10)
        with pytest.raises(TransportError, match="cap"):
            transport.request(wire.encode(wire.GetBloomRequest()))
        transport.close()
        peer.join(timeout=10)
        assert not peer.is_alive()
    assert sizes and max(sizes) <= wire.MAX_FRAME  # nothing read past a prefix


def _reply_with(listener: socket.socket, data: bytes) -> None:
    conn, _ = listener.accept()
    with conn:
        n = int.from_bytes(conn.recv(4), "big")
        while n > 0 and (part := conn.recv(n)):
            n -= len(part)
        conn.sendall(data)
        conn.recv(1)  # hold the connection until the client closes it


def test_internal_error_keeps_the_connection(monkeypatch):
    owner, server, oracle, last_t = build_system(5)

    def broken(envelope):
        raise RuntimeError("bug in search")

    ws = wire.WireServer(server)
    ws.start()
    try:
        client = wire.Client.connect(*ws.address)
        monkeypatch.setattr(server, "search", broken)
        with pytest.raises(ProtocolError, match="internal"):
            client.search(owner.gen_token(oracle.keywords()[0]))
        # the same TCP connection serves the next request
        assert client.get_bloom()[2] == last_t
        monkeypatch.undo()
        keyword = oracle.keywords()[0]
        ids, _, _ = client.search(owner.gen_token(keyword))
        assert ids == oracle.ids_newest_first(keyword)
        client.close()
    finally:
        ws.stop()
