import contextlib
import hashlib
import random
import socket
import struct
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from dsse import wire
from dsse.bloom import BLOCK_BITS, BloomFilter, BloomParams
from dsse.crypto import LAMBDA
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
from dsse.protocol import AddPayload, FilterTags, RefreshPayload, SearchTokenEnvelope
from dsse.server import CloudServer
from dsse.user import AuthorizedUser

NOW = 1_700_000_000
rng = random.Random(42)


def random_add_payload(n_entries=3, full=True) -> AddPayload:
    entries = [(rng.randbytes(16), rng.randbytes(32 if full else 16)) for _ in range(n_entries)]
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
    back = round_trip(random_add_payload())
    assert back.sigma is not None
    back = round_trip(random_add_payload(full=False))
    assert back.sigma is None
    round_trip(RefreshPayload(rng.randbytes(64), rng.randbytes(16), NOW))
    round_trip(SearchTokenEnvelope(3, rng.randbytes(44)))
    round_trip(wire.GetBloom())
    back = round_trip(wire.GetBloom((NOW, rng.randbytes(16))))
    assert back.since[0] == NOW
    round_trip(wire.Rotate(rng.randbytes(16), 2))
    round_trip(wire.Reply(wire.KIND_ADD, wire.CODE_OK))
    round_trip(wire.Reply(wire.KIND_ROTATE, wire.CODE_PROTOCOL, "bad"))
    round_trip(wire.Reply(wire.KIND_SEARCH, value=(
        [rng.randbytes(16) for _ in range(4)],
        [rng.randbytes(30) for _ in range(4)],
        rng.randbytes(16),
    )))
    round_trip(wire.Reply(wire.KIND_SEARCH, wire.CODE_STALE_EPOCH, "stale"))
    round_trip(wire.Reply(
        wire.KIND_GET_BLOOM, value=(rng.randbytes(33), rng.randbytes(16), NOW)
    ))
    round_trip(wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_UNSUPPORTED, "basic"))
    round_trip(wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_NOT_MODIFIED))
    round_trip(wire.Reply(wire.KIND_ADD, wire.CODE_INTERNAL, "boom"))


# One frame per message shape. Version 0x07 (a label derives from its
# entry's key) carries a 32-byte full-mode mask (a key and gamma) and a
# 16-byte basic-mode one (a key), and a token of one key. It writes the
# ADD's file id, taus and masks and the SEARCH reply's ids and gamma
# without length prefixes, and the ADD's presence flag before its entries.
# Its result tags name each file's place. Version 0x06 (a REFRESH carries
# its filter packed) lays out every frame as 0x05 did, and differs from it only in the
# first byte; what changed is what a REFRESH's filter field holds, which the
# encoder passes through as it is. Version 0x05 (a blocked filter under an
# XOR-MAC) differed from 0x04 the same way, in the filter bits and sigma.
# Version 0x04 (GET_BLOOM replies may carry a delta) differed from 0x03 in
# the first byte of every frame and, in an OK GET_BLOOM reply, in the delta
# flag before the filter. A layout change must bump wire.VERSION and these
# values together.
_FULL_ADD = AddPayload(
    b"F" * 16, b"ciphertext",
    [(b"\x01" * 16, b"\x02" * 32), (b"\x03" * 16, b"\x04" * 32)],
    b"\x05" * 16, NOW,
)
GOLDEN_FRAMES = {
    "add_full": (_FULL_ADD, "9b97cbbb514af228f4fc5063d0ba90bc3697a69233b543aa372a9a51724cce0f"),
    "add_basic": (
        AddPayload(b"B" * 16, b"ct", [(b"\x06" * 16, b"\x07" * 16)]),
        "5fe74ae93786aaf9d1b34298b3a40f3009fac791e3248c03ca0f2d2f76769001",
    ),
    "refresh": (
        RefreshPayload(b"\x08" * 40, b"\x09" * 16, NOW),
        "7b150afd96473a9c14ceb02105894cf2a0cf4a9802402536427d2e53f15a9596",
    ),
    "search": (
        SearchTokenEnvelope(3, b"\x0a" * 44),
        "523c5f1e931c21eecab9cdd0ae977264392097ab96c90ae83fdaf86fae33a506",
    ),
    "get_bloom": (
        wire.GetBloom(),
        "7eec188a1213ab47ce61e127dafb5b3bcc646886d5390fd74c7dcc8169a9feb8",
    ),
    "get_bloom_since": (
        wire.GetBloom((NOW, b"\x0b" * 16)),
        "4de9a12d75777244e034eedb6fc936ed33d263eab8ea7bc54bdfd13d86d3a870",
    ),
    "rotate": (
        wire.Rotate(b"\x0c" * 16, 2),
        "21ca9fcbc87f40e04aa1003425831f040e51693d18c80f5c13d347eb9691f807",
    ),
    "status_ok": (
        wire.Reply(wire.KIND_ADD),
        "4977f95320955f6f19a28a4076285032ded7a22d8655f9e04ba82f6b7bc5e623",
    ),
    "status_error": (
        wire.Reply(wire.KIND_ROTATE, wire.CODE_PROTOCOL, "bad"),
        "059a4db2f806cc7928ccc14a2fa0c890b73e814af20d106c224334cdcc5ab89c",
    ),
    "search_reply_proof": (
        wire.Reply(wire.KIND_SEARCH, value=(
            [b"\x0d" * 16, b"\x0e" * 16], [b"ab", b"cde"], b"\x0f" * 16
        )),
        "2e960c59e4dfd88fc0587bac15f913c53190f48c61d99c2d3dd65d158670a338",
    ),
    "search_reply_basic": (
        wire.Reply(wire.KIND_SEARCH, value=([b"\x0d" * 16], [b"ab"], None)),
        "9ec08af1367d69ede9b88f37c64c02a7fd76f3c5d5de9b55aff63e658e89bd9c",
    ),
    "search_reply_error": (
        wire.Reply(wire.KIND_SEARCH, wire.CODE_STALE_EPOCH, "stale"),
        "e909b50faf46d9c5fc0774bcf274e2f6d4f1c94f87e72c6d2a601f69195e74a6",
    ),
    "get_bloom_reply": (
        wire.Reply(wire.KIND_GET_BLOOM, value=(b"\x10" * 40, b"\x11" * 16, NOW)),
        "aef68d3034de6d48f8856ee1734d20e499c5a1e963df0a7cc19ddc91fe96f48e",
    ),
    "get_bloom_reply_delta": (
        wire.Reply(wire.KIND_GET_BLOOM, value=([b"\x12" * 16, b"\x13" * 16], b"\x11" * 16, NOW)),
        "65532482b20126f81b4bcafb423747188b8dd9efbb4ff77b42d15bb6e46b13cf",
    ),
    "get_bloom_reply_error": (
        wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_UNSUPPORTED, "basic"),
        "a606ad26bef0f0014d708b7156267e7ec5d25a84223ecbf33b23bc3b91447d6a",
    ),
    "get_bloom_not_modified": (
        wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_NOT_MODIFIED),
        "c31aaf1e13a7dcc79516fb4743874292b2692aa4131a6652823228e013f0a3f3",
    ),
}


@pytest.mark.parametrize("shape", GOLDEN_FRAMES)
def test_golden_bytes(shape):
    msg, digest = GOLDEN_FRAMES[shape]
    assert wire.VERSION == 0x07
    assert hashlib.sha256(wire.encode(msg)).hexdigest() == digest
    assert round_trip(msg) == msg


def test_truncation_always_detected():
    data = wire.encode(random_add_payload(5))
    for cut in range(len(data)):
        with pytest.raises(FormatError):
            wire.decode(data[:cut])


def test_trailing_bytes_rejected():
    data = wire.encode(wire.GetBloom())
    with pytest.raises(FormatError):
        wire.decode(data + b"\x00")


def test_unknown_version_and_kind():
    data = bytearray(wire.encode(wire.GetBloom()))
    data[0] = 0x01  # the version before filter-free proofs
    with pytest.raises(FormatError):
        wire.decode(bytes(data))
    data[0] = wire.VERSION
    data[1] = 0x7F
    with pytest.raises(FormatError):
        wire.decode(bytes(data))


def test_add_request_size_formula():
    # version + kind + file_id 16 + lp(ciphertext) + presence byte
    # + lp(sigma) + u64 t + u32 count + per entry tau 16 + mu 32
    payload = random_add_payload(n_entries=15)
    data = wire.encode(payload)
    expected = (
        2
        + 16
        + (4 + len(payload.ciphertext))
        + 1
        + (4 + 16)
        + 8
        + 4
        + 15 * (16 + 32)
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


def sigma_of(owner, bf, t):
    """The owner's sigma for bf at t, every block tagged afresh."""
    return FilterTags(owner.keys.k_mac, bf).sigma(t)


def test_socket_and_in_process_transports_agree():
    owner, server, oracle, last_t = build_system()
    local = wire.Client.in_process(server)
    ws = wire.WireServer(server)
    ws.start()
    try:
        remote = wire.Client.connect(*ws.address)
        keyword = oracle.keywords()[0]
        request = wire.encode(owner.gen_token(keyword))
        reply_local = local.transport.request(request)
        # identical state: the merged entry from the first search makes the
        # second reply identical bytes
        reply_remote = remote.transport.request(request)
        assert reply_local == reply_remote
        bloom_req = wire.encode(wire.GetBloom())
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
    resp = wire.decode(client.transport.request(wire.encode(stale)))
    assert resp.code == wire.CODE_STALE_EPOCH
    with pytest.raises(StaleEpochError):
        client.search(stale)


def test_refresh_with_unbounded_k_refused_and_state_kept():
    # the server holds no MAC key, so it must bound the filter header itself:
    # a k of 2^20 made every later add hash 8 MB per element
    owner, server, oracle, last_t = build_system(5)
    client = wire.Client.in_process(server)
    before = (server.bf.serialize(), server.sigma, server.t)
    payload = owner.refresh_bloom(last_t + 600)
    bf = BloomFilter.unpack(payload.bf_bytes, like=owner.bf)
    bf.k = 2**20
    hostile = RefreshPayload(bf.pack(), payload.sigma, payload.t)
    reply = wire.decode(client.transport.request(wire.encode(hostile)))
    assert (reply.kind, reply.code) == (wire.KIND_REFRESH, wire.CODE_FORMAT)
    with pytest.raises(FormatError):
        client.refresh(hostile)
    assert (server.bf.serialize(), server.sigma, server.t) == before


def test_refresh_of_another_size_refused_before_inflating():
    # a REFRESH needs no key: about 1 KB of deflated zeros behind a header
    # naming the largest m would have the server inflate a 512 MiB filter
    owner, server, oracle, last_t = build_system(5)
    client = wire.Client.in_process(server)
    before = (server.bf.serialize(), server.sigma, server.t)
    t = last_t + 600
    sigma = owner.refresh_bloom(t).sigma
    deflater = zlib.compressobj(wbits=-15)
    huge = deflater.compress(struct.pack(">II", 2**32 - BLOCK_BITS, server.bf.k))
    huge += deflater.compress(bytes(1 << 20)) + deflater.flush()
    assert len(huge) < 2048
    other = BloomFilter(BloomParams(2.0**-30, 5000))  # well formed, 4 blocks not 7
    assert other.n_blocks != server.bf.n_blocks
    for bf_bytes in (huge, other.pack()):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="does not replace"):
                client.refresh(RefreshPayload(bf_bytes, sigma, t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(server.bf.bits), peak
        assert (server.bf.serialize(), server.sigma, server.t) == before


class CannedTransport:
    """Answers every request with the frame of one fixed message."""

    def __init__(self, msg):
        self.frame = wire.encode(msg)

    def request(self, data: bytes) -> bytes:
        return self.frame


def test_reply_of_the_wrong_kind_refused():
    add_ok = wire.Reply(wire.KIND_ADD)
    search_ok = wire.Reply(wire.KIND_SEARCH, value=([], [], None))
    envelope = SearchTokenEnvelope(1, b"token")
    for client_call in (
        lambda: wire.Client(CannedTransport(add_ok)).search(envelope),
        lambda: wire.Client(CannedTransport(add_ok)).get_bloom(),
        lambda: wire.Client(CannedTransport(search_ok)).add(random_add_payload()),
        lambda: wire.Client(CannedTransport(wire.GetBloom())).get_bloom(),  # not a reply
    ):
        with pytest.raises(ProtocolError, match="does not answer"):
            client_call()
    assert wire.Client(CannedTransport(search_ok)).search(envelope) == ([], [], None)


class TrailingByteTransport:
    """Appends one byte to every request frame before the server sees it."""

    def __init__(self, server):
        self.endpoint = wire.ServerEndpoint(server)

    def request(self, data: bytes) -> bytes:
        return self.endpoint.handle_bytes(data + b"\x00")


def test_undecodable_request_answered_in_its_own_kind():
    owner, server, oracle, _ = build_system(5)
    client = wire.Client(TrailingByteTransport(server))
    w = oracle.keywords()[0]
    # the server's FormatError reaches the caller, not a reply-kind mismatch
    with pytest.raises(FormatError, match="trailing bytes"):
        client.search(owner.gen_token(w))
    with pytest.raises(FormatError, match="trailing bytes"):
        client.get_bloom()
    with pytest.raises(FormatError, match="trailing bytes"):
        client.rotate(b"\x07" * 16, 2)
    # a frame naming no request kind is still answered, in the ADD kind
    reply = wire.decode(wire.ServerEndpoint(server).handle_bytes(b"\x02\x7f"))
    assert (reply.kind, reply.code) == (wire.KIND_ADD, wire.CODE_FORMAT)


def test_a_version_0x06_peer_is_refused_by_format_not_by_verification():
    # a 0x06 peer's ADD held 48-byte masks and its SEARCH a label and a key;
    # each is refused by its version byte, in its own kind, before any of
    # it reaches the server's table or walk
    owner, server, oracle, _ = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    before = server.snapshot()
    old_add = bytes([0x06]) + wire.encode(owner.add_file(b"new", ["w"], NOW + 9000))[1:]
    old_search = bytes([0x06]) + wire.encode(owner.gen_token(oracle.keywords()[0]))[1:]
    for frame, kind in ((old_add, wire.KIND_ADD), (old_search, wire.KIND_SEARCH)):
        reply = wire.decode(endpoint.handle_bytes(frame))
        assert (reply.kind, reply.code) == (kind, wire.CODE_FORMAT)
        assert "unknown version 0x06" in reply.message
    assert server.snapshot() == before


def test_wire_bytes_are_the_mac_inputs():
    # a MAC recomputed from decoded wire bytes matches the one computed
    # locally by the owner: no re-canonicalization on the path
    owner, server, oracle, last_t = build_system(10)
    client = wire.Client.in_process(server)

    def get_bloom(since=None):
        return wire.decode(client.transport.request(wire.encode(wire.GetBloom(since)))).value

    bf_bytes, sigma, t = get_bloom()
    assert sigma_of(owner, BloomFilter.deserialize(bf_bytes), t) == sigma
    # and for a filter that crossed the wire twice: owner -> server in a
    # REFRESH, then back in a conditional GET_BLOOM
    client.refresh(owner.refresh_bloom(last_t + 1))
    bf_bytes, sigma, t = get_bloom((t, sigma))
    assert t == last_t + 1
    assert sigma_of(owner, BloomFilter.deserialize(bf_bytes), t) == sigma


def test_full_honest_run_over_wire():
    owner, server, oracle, last_t = build_system(n_files=1000)
    client = wire.Client.in_process(server)
    picker = random.Random(9)
    keywords = oracle.keywords()
    for _ in range(100):
        w = picker.choice(keywords)
        ids, cts, gamma = client.search(owner.gen_token(w))
        assert ids == oracle.ids_newest_first(w)
        report = owner.verify(w, ids, cts, gamma, last_t + 60)
        assert report.ok


@pytest.mark.parametrize("connections", ["one_per_thread", "one_shared"])
def test_concurrent_user_queries_over_one_wire_server(connections):
    """40 delegated queries from 4 threads, each thread its own user. With a
    connection per thread every request gets its own handler thread, so the
    server answers them concurrently; a shared client sends them one at a
    time. Every answer verifies and equals the oracle's."""
    owner, server, oracle, last_t = build_system(n_files=150)
    now = last_t + 60
    picker = random.Random(8)
    keywords = [picker.choice(oracle.keywords()) for _ in range(40)]
    n_threads = 4
    start = threading.Barrier(n_threads)
    ws = wire.WireServer(server)
    ws.start()
    shared = wire.Client.connect(*ws.address) if connections == "one_shared" else None

    def queries(i: int) -> list[tuple[bool, bool]]:
        user = AuthorizedUser.from_owner(owner)
        client = shared or wire.Client.connect(*ws.address)
        try:
            start.wait()
            answers = []
            for keyword in keywords[i::n_threads]:
                ids, cts, gamma, cnt = user.query(client, keyword, now)
                verified = user.verify(keyword, cnt, ids, cts, gamma, now).ok
                answers.append((verified, ids == oracle.ids_newest_first(keyword)))
            return answers
        finally:
            if client is not shared:
                client.close()

    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            answers = [a for part in pool.map(queries, range(n_threads)) for a in part]
    finally:
        if shared is not None:
            shared.close()
        ws.stop()
    assert len(answers) == 40
    assert all(verified for verified, _ in answers)
    assert all(matches for _, matches in answers)


def test_conditional_get_bloom():
    owner, server, oracle, last_t = build_system(10)
    client = wire.Client.in_process(server)
    first = client.get_bloom()
    assert first == (server.bf.serialize(), server.sigma, last_t)
    held = (first[2], first[1])
    raw = client.transport.request(wire.encode(wire.GetBloom(held)))
    assert wire.decode(raw).code == wire.CODE_NOT_MODIFIED
    assert len(raw) == 7  # version, kind, status, empty message
    # by default the version this client was last answered is named
    assert client.get_bloom() == ([], first[1], last_t)

    payload = owner.add_file(b"late", ["w:1"], last_t + 600)
    server.add(payload)
    taus, sigma, t = client.get_bloom()
    assert taus == [tau for tau, _ in payload.entries]
    assert t == last_t + 600 and sigma != first[1]
    assert client.get_bloom() == ([], sigma, t)
    assert client.get_bloom(held) == (taus, sigma, t)
    assert client.get_bloom(None) == (server.bf.serialize(), sigma, t)

    server.refresh(owner.refresh_bloom(last_t + 601))
    assert client.get_bloom() == (owner.bf.serialize(), server.sigma, last_t + 601)
    assert client.get_bloom() == ([], server.sigma, last_t + 601)


def test_clients_one_and_three_uploads_behind_rebuild_the_filter():
    owner, server, oracle, last_t = build_system(10)
    keyword = oracle.keywords()[0]
    three_behind, one_behind = (
        (AuthorizedUser.from_owner(owner), wire.Client.in_process(server)) for _ in range(2)
    )

    def query(user, client):
        user.query(client, keyword, server.t + 60)

    query(*three_behind)
    for i in range(3):
        if i == 2:
            query(*one_behind)
        server.add(owner.add_file(f"late{i}".encode(), ["w:1", f"x:{i}"], last_t + 600 * (i + 1)))
    query(*three_behind)
    query(*one_behind)
    rebuilt = three_behind[0]._tags.bf, one_behind[0]._tags.bf
    assert rebuilt[0] == rebuilt[1] == server.bf
    assert sigma_of(owner, rebuilt[0], server.t) == server.sigma
    assert server.filters_served == {"full": 2, "delta": 2}
    assert server.filter_bytes_served["delta"] == (3 + 1) * 2 * LAMBDA


def test_delta_to_a_client_holding_no_filter_refused():
    # the user on the client holds none, so there is nothing to add it to
    delta = wire.Reply(wire.KIND_GET_BLOOM, value=([b"\x01" * LAMBDA], b"\x02" * 16, NOW))
    user = AuthorizedUser(*(bytes(LAMBDA) for _ in range(4)))
    with pytest.raises(ProtocolError, match="holding no filter"):
        user.query(wire.Client(CannedTransport(delta)), "w", NOW)


def test_a_returned_filter_survives_a_later_delta():
    # each user holds a filter of its own: a delta one user adds leaves the
    # other's filter as it verified it, and that one catches up by a delta too
    owner, server, oracle, last_t = build_system(10)
    client = wire.Client.in_process(server)
    keyword = oracle.keywords()[0]
    first, second = users = [AuthorizedUser.from_owner(owner) for _ in range(2)]
    for user in users:
        user.query(client, keyword, last_t + 60)
    bits = bytes(first._tags.bf.bits)
    server.add(owner.add_file(b"late", ["w:1"], last_t + 600))
    second.query(client, keyword, last_t + 660)
    assert server.filters_served == {"full": 2, "delta": 1}
    assert second._tags.bf == server.bf
    assert bytes(first._tags.bf.bits) == bits
    assert sigma_of(owner, first._tags.bf, last_t) == first.token_filter[0]
    first.query(client, keyword, last_t + 660)
    assert first._tags.bf == server.bf
    assert server.filters_served == {"full": 2, "delta": 2}


def test_a_restored_server_answers_the_version_it_restored_with_deltas():
    # the table is the tau log, so a restored server logs the version it
    # holds: NOT_MODIFIED for it, then each upload's taus, not the whole filter
    owner, server, oracle, last_t = build_system(10)
    older = server.t, server.sigma
    server.add(owner.add_file(b"late0", ["w:1"], last_t + 600))
    user = AuthorizedUser.from_owner(owner)
    user.query(wire.Client.in_process(server), "w:1", last_t + 660)
    restored = CloudServer.restore(server.snapshot())
    at = restored.t, restored.sigma
    client = wire.Client.in_process(restored)
    raw = client.transport.request(wire.encode(wire.GetBloom(at)))
    assert wire.decode(raw).code == wire.CODE_NOT_MODIFIED and len(raw) == 7

    payload = owner.add_file(b"late1", ["w:1", "x:1"], last_t + 1200)
    client.add(payload)
    delta = [tau for tau, _ in payload.entries], restored.sigma, restored.t
    assert client.get_bloom(at) == delta
    # searches that merge heads and bottoms, and a replayed upload, change no delta
    for keyword in (*oracle.keywords()[:4], "w:1", "w:1", "x:1"):
        client.search(owner.gen_token(keyword))
    client.add(payload)
    assert client.get_bloom(at) == delta
    assert client.get_bloom(delta[:0:-1]) == ([], *delta[1:])
    for unlogged in (older, (at[0], bytes(LAMBDA)), None):
        assert client.get_bloom(unlogged) == (restored.bf.serialize(), *delta[1:])

    user.query(client, "w:1", last_t + 1260)
    assert user._tags.bf == restored.bf
    assert restored.filters_served == {"not_modified": 2, "delta": 3, "full": 3}


class RecordingTransport:
    """The in-process path, recording each request; an armed reply is
    answered in place of the server's."""

    def __init__(self, server):
        self.endpoint = wire.ServerEndpoint(server)
        self.requests = []
        self.reply = None

    def request(self, data: bytes) -> bytes:
        self.requests.append(wire.decode(data))
        return wire.encode(self.reply) if self.reply else self.endpoint.handle_bytes(data)


def test_an_unparseable_filter_is_refused_and_not_held():
    owner, server, oracle, last_t = build_system(10)
    transport = RecordingTransport(server)
    client = wire.Client(transport)
    user = AuthorizedUser.from_owner(owner)
    keyword = oracle.keywords()[0]
    user.query(client, keyword, last_t + 60)
    honest = server.bf.serialize()
    bf_bytes = bytearray(honest)
    bf_bytes[4:8] = (0).to_bytes(4, "big")  # k = 0
    transport.reply = wire.Reply(wire.KIND_GET_BLOOM, value=(bytes(bf_bytes), b"\x01" * 16, NOW))
    with pytest.raises(FormatError, match="bloom header"):
        user.query(client, keyword, last_t + 60)
    assert user.token_filter is None
    transport.reply = None
    user.query(client, keyword, last_t + 60)  # answered NOT_MODIFIED
    assert transport.requests[-2].since == (last_t, server.sigma)
    assert server.filters_served == {"full": 1, "not_modified": 1}
    assert user._tags.bf.serialize() == honest


def test_full_get_bloom_reply_copies_the_filter_once():
    # a year-sized filter, 4,300,800 bit bytes: the reply was built by
    # copying serialize()'s bytes into a buffer and the buffer into bytes,
    # three filter-sized blocks alive at once
    params = BloomParams(2.0**-30, 52_560 * 15)
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    server.add(owner.add_file(b"f", ["w"], NOW))
    filter_len = len(server.bf.serialize())
    endpoint = wire.ServerEndpoint(server)
    request = wire.encode(wire.GetBloom())
    tracemalloc.start()
    try:
        reply = endpoint.handle_bytes(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filter_len < len(reply) < filter_len + 64
    assert peak < 2.2 * filter_len, (peak, filter_len)
    update, sigma, t = wire.decode(reply).value
    assert update == server.bf.serialize() and (sigma, t) == (server.sigma, NOW)


def test_oversized_frame_refused_before_allocation(monkeypatch):
    sizes = []
    recv_exact = wire._recv_exact
    monkeypatch.setattr(
        wire, "_recv_exact", lambda sock, n: sizes.append(n) or recv_exact(sock, n)
    )
    oversized = (wire.MAX_FRAME + 1).to_bytes(4, "big")
    stale = len(b"stale").to_bytes(4, "big") + b"stale"

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
        peer = threading.Thread(target=_reply_with, args=(listener, oversized, stale))
        peer.start()
        transport = wire.SocketTransport(*listener.getsockname()[:2], timeout=10)
        with pytest.raises(TransportError, match="cap"):
            transport.request(wire.encode(wire.GetBloom()))
        # the refused frame's body would be read as the next reply
        with pytest.raises(TransportError):
            transport.request(wire.encode(wire.GetBloom()))
        transport.close()
        peer.join(timeout=10)
        assert not peer.is_alive()
    assert sizes and max(sizes) <= wire.MAX_FRAME  # nothing read past a prefix


def test_timed_out_request_does_not_answer_the_next():
    replies = [len(r).to_bytes(4, "big") + r for r in (b"reply-0", b"reply-1")]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = threading.Thread(
            target=_reply_with, args=(listener, *replies), kwargs={"delay": 0.5}
        )
        peer.start()
        transport = wire.SocketTransport(*listener.getsockname()[:2], timeout=0.2)
        with pytest.raises(TransportError):
            transport.request(b"request-0")
        time.sleep(0.5)  # the late reply-0 has arrived
        with pytest.raises(TransportError):
            transport.request(b"request-1")
        transport.close()
        peer.join(timeout=10)
        assert not peer.is_alive()


def _reply_with(listener: socket.socket, *replies: bytes, delay: float = 0.0) -> None:
    """Answer one request frame with each reply in turn, the first after
    `delay` seconds, then hold the connection until the client closes it."""
    conn, _ = listener.accept()
    with conn, contextlib.suppress(ConnectionError):
        for data in replies:
            n = int.from_bytes(conn.recv(4), "big")
            while n > 0 and (part := conn.recv(n)):
                n -= len(part)
            time.sleep(delay)
            delay = 0.0
            conn.sendall(data)
        conn.recv(1)


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
