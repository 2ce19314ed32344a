import contextlib
import dataclasses
import hashlib
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from dsse import wire
from dsse.bloom import BloomFilter, BloomParams
from dsse.crypto import LAMBDA
from dsse.errors import (
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    TransportError,
)
from dsse.harness import audit
from dsse.harness.oracle import PlaintextOracle
from dsse.harness.phi import synthesize_stream
from dsse.owner import DataOwner
from dsse.protocol import (
    BASIC,
    FULL,
    AddPayload,
    FilterTags,
    RefreshPayload,
    SearchTokenEnvelope,
    verify_result,
)
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
        2, 7,
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


# One frame per message shape. Version 0x0B (an id list crosses a
# connection once) opens an OK SEARCH reply with a u32 list number and a
# u32 prefix before the count of the ids it carries, where 0x0A carried
# every id of the answer; every other frame differs from 0x0A's in its
# first byte only.
# Version 0x0A (one PRF call per chain link)
# writes the sigma of an ADD and of a REFRESH as 16 raw bytes where 0x09
# put a 4-byte length before it; every other frame differs from 0x09's in
# its first byte only.
# Version 0x09 (a REFRESH carries the
# refreshed filter's elements) writes a REFRESH as a u32 count and that
# many 16-byte elements where 0x08 wrote a length-prefixed packed filter;
# every other frame differs from 0x08's in its first byte only. Version
# 0x08 (a ciphertext crosses a connection once) pairs each id of a SEARCH
# reply with a flag and, when it is set, the ciphertext, where 0x07 listed
# the ids and then every ciphertext behind a count of its own; every other
# frame differs from 0x07's in its first byte only. Version 0x07 (a label
# derives from its entry's key) carries a 32-byte full-mode mask (a key
# and gamma) and a 16-byte basic-mode one (a key), and a token of one key.
# It writes the ADD's file id, taus and masks and the SEARCH reply's ids
# and gamma without length prefixes, and the ADD's presence flag before
# its entries. Its result tags name each file's place. Version 0x06 (a
# REFRESH carries its filter packed) lays out every frame as 0x05 did, and
# differs from it only in the first byte; what changed is what a REFRESH's
# filter field holds, which the encoder passes through as it is. Version
# 0x05 (a blocked filter under an XOR-MAC) differed from 0x04 the same
# way, in the filter bits and sigma. Version 0x04 (GET_BLOOM replies may
# carry a delta) differed from 0x03 in the first byte of every frame and,
# in an OK GET_BLOOM reply, in the delta flag before the filter. A layout
# change must bump wire.VERSION and these values together.
_FULL_ADD = AddPayload(
    b"F" * 16, b"ciphertext",
    [(b"\x01" * 16, b"\x02" * 32), (b"\x03" * 16, b"\x04" * 32)],
    b"\x05" * 16, NOW,
)
GOLDEN_FRAMES = {
    "add_full": (_FULL_ADD, "885c24e1679e8a8d460c1c8c4304903b54f36c31f37af3cd29ec76e6425fcfb2"),
    "add_basic": (
        AddPayload(b"B" * 16, b"ct", [(b"\x06" * 16, b"\x07" * 16)]),
        "e2d7f80116b133094cb371ff601893eacb767868dd8980bf98f87c947c872120",
    ),
    "refresh": (
        RefreshPayload(b"\x07" * 16 + b"\x08" * 16, b"\x09" * 16, NOW),
        "965aedf65822ddcc03e3250c42d7bd4bf7cacde44e011bd577f5c6375f0b1764",
    ),
    "search": (
        SearchTokenEnvelope(3, b"\x0a" * 44),
        "8d7fd1e9f0fcbbfa183de8a497635863cbfcc28d683c3345d1da4fee9ac07e4f",
    ),
    "get_bloom": (
        wire.GetBloom(),
        "259fd2d72bf37fe093a5e71bbd4a851fe13b7943517f6fe830a8b41f832cbbc9",
    ),
    "get_bloom_since": (
        wire.GetBloom((NOW, b"\x0b" * 16)),
        "0b8b5f334f5cb8bedda8a7abc3d7c22f362dbc4e5cf6387a7ce1b8c107330af9",
    ),
    "rotate": (
        wire.Rotate(b"\x0c" * 16, 2),
        "29ef01973692e7619f19e70222d2ab46f30c50aa965e7b19eb4001f6408acd8f",
    ),
    "status_ok": (
        wire.Reply(wire.KIND_ADD),
        "7805c3d7603621fe21c1523b4d42fd810e4367edb5e00d549962e2fbf5741b0d",
    ),
    "status_error": (
        wire.Reply(wire.KIND_ROTATE, wire.CODE_PROTOCOL, "bad"),
        "5a8c92c9d10426261eae3b38428c3eb2a5b1579cd42655669e7ecdf7169f66bb",
    ),
    "search_reply_proof": (
        wire.Reply(wire.KIND_SEARCH, value=(
            0, 0, [b"\x0d" * 16, b"\x0e" * 16], [b"ab", b"cde"], b"\x0f" * 16
        )),
        "f6efce1b1d30eb72b8d006c97f0f0957e2ce0aa0d03808f0755b5a13d7b544a8",
    ),
    "search_reply_held": (
        wire.Reply(wire.KIND_SEARCH, value=(
            1, 3, [b"\x0d" * 16, b"\x0e" * 16], [None, b"cde"], b"\x0f" * 16
        )),
        "a7ebba21f44392c14681f527c129f0399cfd2662f9d7e9dd6d6b50e3f4516df9",
    ),
    "search_reply_basic": (
        wire.Reply(wire.KIND_SEARCH, value=(0, 0, [b"\x0d" * 16], [b"ab"], None)),
        "d28db19bf1cb2f9541ff0ab6e8f21de5686c94445a465df926242e3864b12a3d",
    ),
    "search_reply_repeat": (
        wire.Reply(wire.KIND_SEARCH, value=(2, 5, [], [], None)),
        "007f77c153c11e6ebddf4fcbf420cb3bc8c99f82f9a52c5b8c838a89b1419a41",
    ),
    "search_reply_error": (
        wire.Reply(wire.KIND_SEARCH, wire.CODE_STALE_EPOCH, "stale"),
        "2c6f9462038bb601b6a8f0e78683d392ebb81591dbd0f7a9ac9be0e6b41501d6",
    ),
    "get_bloom_reply": (
        wire.Reply(wire.KIND_GET_BLOOM, value=(b"\x10" * 40, b"\x11" * 16, NOW)),
        "5a876f0accce6f3c52d77c4be35ee8f33f02f213e9ccef251562f962adfb5890",
    ),
    "get_bloom_reply_delta": (
        wire.Reply(wire.KIND_GET_BLOOM, value=([b"\x12" * 16, b"\x13" * 16], b"\x11" * 16, NOW)),
        "08e8a7ca1e2e2157dfdc705dda3d18fd7421507073cd3a1d3a43e6e0823f4768",
    ),
    "get_bloom_reply_error": (
        wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_UNSUPPORTED, "basic"),
        "aa6380298bf896d951faa92d7fddae97750e0592ce5b7fa7caf329b66a178bb3",
    ),
    "get_bloom_not_modified": (
        wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_NOT_MODIFIED),
        "7f5ecd61fe7baf6700623448c67d06b36f685150bee19431cc85844f71ef6972",
    ),
}


@pytest.mark.parametrize("shape", GOLDEN_FRAMES)
def test_golden_bytes(shape):
    msg, digest = GOLDEN_FRAMES[shape]
    assert wire.VERSION == 0x0B
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
    # + sigma 16 + u64 t + u32 count + per entry tau 16 + mu 32
    payload = random_add_payload(n_entries=15)
    data = wire.encode(payload)
    expected = (
        2
        + 16
        + (4 + len(payload.ciphertext))
        + 1
        + 16
        + 8
        + 4
        + 15 * (16 + 32)
    )
    assert len(data) == expected


def build_system(n_files=30, mode=FULL):
    params = BloomParams(2.0**-30, 10_000) if mode == FULL else None
    owner = DataOwner.generate(mode, params)
    server = CloudServer(mode, params, group_key=owner.keys.r)
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


def refresh_frame(elements: bytes, n: int, sigma: bytes, t: int) -> bytes:
    """A REFRESH frame written by hand, so that its count and its elements
    need not agree."""
    return (
        bytes((wire.VERSION, wire.KIND_REFRESH)) + struct.pack(">I", n) + elements
        + sigma + struct.pack(">Q", t)
    )


def server_state(server):
    return server.snapshot(), bytes(server.bf.bits), dict(server._versions), server.sigma, server.t


def too_many_elements(server) -> bytes:
    """m // k + 1 distinct labels, ascending: one more than a REFRESH may carry."""
    count = server.m // server.k + 1
    return b"".join(sorted({rng.randbytes(LAMBDA) for _ in range(count)}))


def test_a_hostile_refresh_element_list_is_refused_and_state_kept():
    # the server holds no MAC key, so it must hold a REFRESH's element list
    # to the rules itself: whole labels, strictly ascending, at most m // k
    owner, server, oracle, last_t = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    t = last_t + 600
    honest = owner.refresh_bloom(t)
    elements, n, sigma = honest.elements, honest.n, honest.sigma
    assert n >= 3
    first, second = elements[:LAMBDA], elements[LAMBDA : 2 * LAMBDA]
    too_many = too_many_elements(server)
    hostile = {
        "unsorted": refresh_frame(second + first + elements[2 * LAMBDA :], n, sigma, t),
        "duplicated": refresh_frame(first + first + elements[2 * LAMBDA :], n, sigma, t),
        "more than m // k": refresh_frame(too_many, len(too_many) // LAMBDA, sigma, t),
        "an element short": refresh_frame(elements[:-1], n, sigma, t),
        "fewer elements than counted": refresh_frame(elements, n + 1, sigma, t),
        "an element past the count": refresh_frame(elements, n - 1, sigma, t),
        "trailing bytes": refresh_frame(elements, n, sigma, t) + b"\x00",
    }
    assert wire.encode(honest) == refresh_frame(elements, n, sigma, t)
    before = server_state(server)
    for case, frame in hostile.items():
        reply = wire.decode(endpoint.handle_bytes(frame))
        assert (reply.kind, reply.code) == (wire.KIND_REFRESH, wire.CODE_FORMAT), case
        assert server_state(server) == before, case
    # the server's own checks, for a caller that does not go through the wire
    for short in (elements[:-1], elements + b"\x00"):
        with pytest.raises(FormatError, match="not whole labels"):
            server.refresh(RefreshPayload(short, sigma, t))
    with pytest.raises(FormatError, match="strictly ascending"):
        server.refresh(RefreshPayload(second + first + elements[2 * LAMBDA :], sigma, t))
    assert server_state(server) == before
    assert server.refreshes == {"adopted": 0, "elements": 0}
    client = wire.Client(wire.InProcessTransport(endpoint))
    client.refresh(honest)
    assert server.bf == owner.bf and (server.sigma, server.t) == (sigma, t)
    assert server.refreshes == {"adopted": 1, "elements": n}
    # a user accepts the whole refreshed filter and its sigma
    user = AuthorizedUser.from_owner(owner)
    keyword = oracle.keywords()[0]
    assert user.gen_token(client.get_bloom(), keyword, t)[1] == owner.tbl[keyword].cnt
    assert user.token_filter == (sigma, t)


def test_an_add_with_a_sigma_not_16_bytes_is_refused_and_state_kept():
    # sigma is a 16-byte MAC: a server that stored one of any length would
    # hold it and serve it to every user that fetches the filter
    owner, server, _, last_t = build_system(5)
    client = wire.Client.in_process(server)
    honest = owner.add_file(b"f", ["w"], last_t + 600)
    before = server_state(server)
    for sigma in (bytes(100_000), b"", honest.sigma[:-1]):
        payload = dataclasses.replace(honest, sigma=sigma)
        with pytest.raises(ProtocolError, match="16-byte sigma"):
            server.add(payload)
        with pytest.raises(FormatError, match="fixed-width"):
            client.add(payload)
        assert server_state(server) == before
    client.add(honest)
    assert server.sigma == honest.sigma


def test_a_refresh_with_a_sigma_not_16_bytes_is_refused_and_state_kept():
    owner, server, _, last_t = build_system(5)
    client = wire.Client.in_process(server)
    honest = owner.refresh_bloom(last_t + 600)
    before = server_state(server)
    for sigma in (b"", bytes(100_000), honest.sigma[:-1]):
        payload = dataclasses.replace(honest, sigma=sigma)
        with pytest.raises(ProtocolError, match="sigma is"):
            server.refresh(payload)
        with pytest.raises(FormatError, match="fixed-width"):
            client.refresh(payload)
        assert server_state(server) == before
    assert server.refreshes == {"adopted": 0, "elements": 0}
    client.refresh(honest)
    assert server.refreshes == {"adopted": 1, "elements": honest.n}


def test_a_refresh_count_above_m_over_k_is_refused_before_any_hash(monkeypatch):
    owner, server, oracle, last_t = build_system(5)
    client = wire.Client.in_process(server)
    hashed = []
    add = BloomFilter.add
    monkeypatch.setattr(BloomFilter, "add", lambda bf, e: hashed.append(e) or add(bf, e))
    too_many = too_many_elements(server)
    before = server_state(server)  # builds the bits: count only the REFRESH's hashes
    del hashed[:]
    with pytest.raises(FormatError, match="exceed m // k"):
        client.refresh(RefreshPayload(too_many, b"\x01" * 16, last_t + 600))
    assert hashed == []
    assert server_state(server) == before
    honest = owner.refresh_bloom(last_t + 600)
    del hashed[:]
    client.refresh(honest)
    assert hashed == []  # a REFRESH hashes nothing; the next whole filter hashes its elements
    client.get_bloom()
    assert b"".join(hashed) == honest.elements


class CannedTransport:
    """Answers the requests with the frames of the given messages (or raw
    frames) in turn, and every later one with the last."""

    def __init__(self, *msgs):
        self.frames = [m if isinstance(m, bytes) else wire.encode(m) for m in msgs]

    def request(self, data: bytes) -> bytes:
        return self.frames.pop(0) if len(self.frames) > 1 else self.frames[0]


def test_reply_of_the_wrong_kind_refused():
    add_ok = wire.Reply(wire.KIND_ADD)
    search_ok = wire.Reply(wire.KIND_SEARCH, value=(0, 0, [], [], None))
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


A, B = b"\x0a" * 16, b"\x0b" * 16
GAMMA = b"\x0f" * 16


def search_reply(*pairs, at=(0, 0)):
    """An OK SEARCH reply of (id, ciphertext or None for held) pairs after
    the prefix at = (list, prefix)."""
    return wire.Reply(wire.KIND_SEARCH, value=(
        *at, [fid for fid, _ in pairs], [ct for _, ct in pairs], GAMMA
    ))


def test_a_reply_holding_back_a_ciphertext_never_received_is_refused():
    envelope = SearchTokenEnvelope(1, b"token")
    client = wire.Client(CannedTransport(search_reply((A, None))))
    with pytest.raises(ProtocolError, match="never received"):
        client.search(envelope)
    # held earlier in the same reply is held: the endpoint sends an id's
    # ciphertext at its first place
    client = wire.Client(CannedTransport(search_reply((A, b"ct-a"), (A, None))))
    assert client.search(envelope)[1] == [b"ct-a", b"ct-a"]


def test_a_reply_sending_again_a_held_ciphertext_is_refused_and_keeps_nothing():
    envelope = SearchTokenEnvelope(1, b"token")
    client = wire.Client(CannedTransport(
        search_reply((A, b"ct-a")),
        search_reply((B, b"ct-b"), (A, b"ct-a")),  # A was sent before
        search_reply((B, None)),  # so B was not kept
        search_reply((A, None)),
    ))
    assert client.search(envelope) == ([A], [b"ct-a"], GAMMA)
    with pytest.raises(ProtocolError, match="sends again"):
        client.search(envelope)
    with pytest.raises(ProtocolError, match="never received"):
        client.search(envelope)
    assert client.search(envelope) == ([A], [b"ct-a"], GAMMA)
    assert client.ciphertexts == {"sent": 1, "held": 1}


def test_a_reply_naming_a_list_or_prefix_not_held_is_refused_and_keeps_nothing():
    # each hostile reply sends B's ciphertext: had any of them kept it, the
    # honest reply at the end would send it again
    envelope = SearchTokenEnvelope(1, b"token")
    client = wire.Client(CannedTransport(
        search_reply((A, b"ct-a")),  # no list: the table becomes [[A]]
        search_reply((B, b"ct-b"), at=(2, 0)),  # list 2 of 1
        search_reply((B, b"ct-b"), at=(0, 2)),  # a prefix of 2 of [A]
        search_reply((B, b"ct-b"), at=(1, 1)),  # no list, and a prefix
        search_reply((B, b"ct-b"), at=(0, 1)),  # [A], then B: extends the list
    ))
    assert client.search(envelope) == ([A], [b"ct-a"], GAMMA)
    for refused in ("id list 2; this client holds 1", "prefix of 2 ids of a list of 1",
                    "prefix of 1 ids of a list of 0"):
        with pytest.raises(ProtocolError, match=refused):
            client.search(envelope)
        assert client._lists == [[A]] and client.ciphertexts == {"sent": 1, "held": 0}
    assert client.search(envelope) == ([B, A], [b"ct-b", b"ct-a"], GAMMA)
    assert client._lists == [[A, B]]
    assert client.ciphertexts == {"sent": 2, "held": 1}


def test_each_connection_receives_each_ciphertext_once():
    # two connections to one WireServer: each is sent every ciphertext the
    # first time one of its answers names the file, across keywords too,
    # and every answer is whole and verifies
    owner, server, oracle, last_t = build_system(30)
    keywords = oracle.keywords()
    named = sum(oracle.count(w) for w in keywords)
    ws = wire.WireServer(server)
    ws.start()
    try:
        clients = [wire.Client.connect(*ws.address) for _ in range(2)]
        for client in clients:
            for _ in range(2):
                for w in keywords:
                    ids, cts, gamma = client.search(owner.gen_token(w))
                    assert ids == oracle.ids_newest_first(w)
                    assert cts == server.ciphertexts_for(ids)
                    assert owner.verify(w, ids, cts, gamma, last_t + 60).ok
            assert client.ciphertexts == {"sent": 30, "held": 2 * named - 30}
            client.close()
    finally:
        ws.stop()


@pytest.mark.parametrize("mode", [FULL, BASIC])
def test_each_connection_receives_each_id_once(mode):
    # two connections to one WireServer search every keyword twice, then
    # once more after uploads: every answer is whole, equals the oracle's and
    # verifies, and a connection is sent each id of a keyword's answer once,
    # so a repeat of an unchanged answer carries no id
    owner, server, oracle, last_t = build_system(30, mode)
    ws = wire.WireServer(server)
    ws.start()
    try:
        clients = [wire.Client.connect(*ws.address) for _ in range(2)]
        for client in clients:
            client.transport = audit.RecordingTransport(client.transport)
        changed = set(oracle.keywords())
        for step in range(3):
            if step == 2:  # uploads of files that some keywords already name
                changed = set()
                for i in range(3):
                    last_t += 600
                    keywords = oracle.keywords()[i::7]
                    payload = owner.add_file(f"late{i}".encode(), keywords, last_t)
                    server.add(payload)
                    oracle.add(payload.file_id, keywords)
                    changed.update(keywords)
            for client in clients:
                for w in oracle.keywords():
                    ids, cts, gamma = client.search(owner.gen_token(w))
                    assert ids == oracle.ids_newest_first(w)
                    assert cts == server.ciphertexts_for(ids)
                    assert mode == BASIC or owner.verify(w, ids, cts, gamma, last_t + 60).ok
                    reply = client.transport.frames[-1][1]
                    if step and w not in changed:
                        assert wire.decode(reply).value[1:3] == (len(ids), [])
                        assert len(reply) == (16 if mode == BASIC else 32)
            changed = set()
        answered = sum(oracle.count(w) for w in oracle.keywords())
        for client in clients:
            replies = [wire.decode(reply).value for _, reply in client.transport.frames]
            assert 0 < sum(len(ids) for _, _, ids, _, _ in replies) <= answered
            assert client.ciphertexts["sent"] == len(server.files)
            client.close()
    finally:
        ws.stop()


def test_a_search_at_an_older_counter_is_a_prefix_reply():
    # the answer at an older counter is a prefix of the id list the newest
    # answer left: the reply names it and carries no id, and adds no list
    owner, server, oracle, _ = build_system(30)
    recorder = audit.RecordingTransport(wire.InProcessTransport(wire.ServerEndpoint(server)))
    client = wire.Client(recorder)
    keyword = max(oracle.keywords(), key=oracle.count)
    newest = oracle.ids_newest_first(keyword)
    assert len(newest) >= 3
    client.search(owner.gen_token(keyword))
    for c in range(len(newest), 0, -1):
        ids, cts, gamma = client.search(owner.token_for_counter(keyword, c))
        assert ids == newest[-c:] and cts == server.ciphertexts_for(ids)
        assert verify_result(owner.keys.k_mac, keyword, c, ids, cts, gamma).ok
        assert wire.decode(recorder.frames[-1][1]).value[:4] == (0, c, [], [])
    assert client._lists == [newest[::-1]]
    assert client.ciphertexts == {"sent": len(newest), "held": sum(range(len(newest) + 1))}


def test_a_version_0x09_peer_is_refused_by_format_not_by_verification():
    # a 0x09 peer wrote an ADD's and a REFRESH's sigma behind a 4-byte
    # length, and derived each entry's label and mask with separate PRF
    # calls: each of its frames is refused by its version byte, a request
    # in its own kind before any of it reaches the server, a reply before
    # the client holds any of its ciphertexts
    owner, server, oracle, last_t = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    keyword = oracle.keywords()[0]
    before = server.snapshot()
    add = owner.add_file(b"new", ["w"], last_t + 600)
    refresh = owner.refresh_bloom(last_t + 600)
    lp_sigma = struct.pack(">I", LAMBDA) + add.sigma
    old_add = (
        bytes((0x09, wire.KIND_ADD)) + add.file_id
        + struct.pack(">I", len(add.ciphertext)) + add.ciphertext + b"\x01" + lp_sigma
        + struct.pack(">QI", add.t, len(add.entries)) + b"".join(a + b for a, b in add.entries)
    )
    old_refresh = (
        bytes((0x09, wire.KIND_REFRESH)) + struct.pack(">I", refresh.n) + refresh.elements
        + struct.pack(">I", LAMBDA) + refresh.sigma + struct.pack(">Q", refresh.t)
    )
    old_search = bytes([0x09]) + wire.encode(owner.gen_token(keyword))[1:]
    for frame, kind in (
        (old_add, wire.KIND_ADD),
        (old_refresh, wire.KIND_REFRESH),
        (old_search, wire.KIND_SEARCH),
    ):
        reply = wire.decode(endpoint.handle_bytes(frame))
        assert (reply.kind, reply.code) == (kind, wire.CODE_FORMAT)
        assert "unknown version 0x09" in reply.message
    assert server.snapshot() == before
    old_reply = flagged_search_reply(0x09, *server.search(owner.gen_token(keyword)))
    client = wire.Client(CannedTransport(old_reply))
    with pytest.raises(FormatError, match="unknown version 0x09"):
        client.search(owner.gen_token(keyword))
    assert client.ciphertexts == {"sent": 0, "held": 0}


def flagged_search_reply(version, ids, cts, gamma) -> bytes:
    """An OK SEARCH reply in the layout of versions 0x08 to 0x0A: every id
    of the answer, each with a set flag and its ciphertext, and gamma."""
    frame = bytearray((version, wire.KIND_SEARCH | 0x80, wire.CODE_OK))
    frame += struct.pack(">I", len(ids))
    for fid, ct in zip(ids, cts, strict=True):
        frame += fid + b"\x01" + struct.pack(">I", len(ct)) + ct
    return bytes(frame + b"\x01" + gamma)


def test_a_version_0x0A_peer_is_refused_by_format_not_by_verification():
    # a 0x0A peer's frames differ from 0x0B's in the first byte, and its
    # SEARCH reply carried every id of the answer, with no list or prefix:
    # each is refused by its version byte, a request in its own kind before
    # any of it reaches the server, a reply before the client holds any of
    # its ids or ciphertexts
    owner, server, oracle, last_t = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    keyword = oracle.keywords()[0]
    before = server.snapshot()
    for msg, kind in (
        (owner.add_file(b"new", ["w"], last_t + 600), wire.KIND_ADD),
        (owner.refresh_bloom(last_t + 600), wire.KIND_REFRESH),
        (owner.gen_token(keyword), wire.KIND_SEARCH),
    ):
        reply = wire.decode(endpoint.handle_bytes(bytes([0x0A]) + wire.encode(msg)[1:]))
        assert (reply.kind, reply.code) == (kind, wire.CODE_FORMAT)
        assert "unknown version 0x0a" in reply.message
    assert server.snapshot() == before
    old_reply = flagged_search_reply(0x0A, *server.search(owner.gen_token(keyword)))
    client = wire.Client(CannedTransport(old_reply))
    with pytest.raises(FormatError, match="unknown version 0x0a"):
        client.search(owner.gen_token(keyword))
    assert client.ciphertexts == {"sent": 0, "held": 0} and client._lists == []


def test_a_version_0x08_refresh_is_refused_by_format_not_adopted():
    # a 0x08 REFRESH carried the filter raw-deflated behind a length
    # prefix; its version byte has it refused, in its own kind, before the
    # server reads any of it
    owner, server, _, last_t = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    t = last_t + 600
    sigma = owner.refresh_bloom(t).sigma
    deflater = zlib.compressobj(wbits=-15)
    packed = deflater.compress(owner.bf.serialize()) + deflater.flush()
    old = bytes((0x08, wire.KIND_REFRESH)) + struct.pack(">I", len(packed)) + packed
    old += struct.pack(">I", len(sigma)) + sigma + struct.pack(">Q", t)
    before = server_state(server)
    reply = wire.decode(endpoint.handle_bytes(old))
    assert (reply.kind, reply.code) == (wire.KIND_REFRESH, wire.CODE_FORMAT)
    assert "unknown version 0x08" in reply.message
    assert server_state(server) == before


def test_a_version_0x07_peer_is_refused_by_format_not_by_verification():
    # a 0x07 peer's frames differ from 0x08's in the first byte, and its
    # SEARCH reply listed the ids and then every ciphertext behind a count
    # of its own: each is refused by its version byte, a request in its own
    # kind before any of it reaches the server, a reply before the client
    # holds any of its ciphertexts
    owner, server, oracle, _ = build_system(5)
    endpoint = wire.ServerEndpoint(server)
    keyword = oracle.keywords()[0]
    before = server.snapshot()
    old_add = bytes([0x07]) + wire.encode(owner.add_file(b"new", ["w"], NOW + 9000))[1:]
    old_search = bytes([0x07]) + wire.encode(owner.gen_token(keyword))[1:]
    for frame, kind in ((old_add, wire.KIND_ADD), (old_search, wire.KIND_SEARCH)):
        reply = wire.decode(endpoint.handle_bytes(frame))
        assert (reply.kind, reply.code) == (kind, wire.CODE_FORMAT)
        assert "unknown version 0x07" in reply.message
    assert server.snapshot() == before
    ids, cts, gamma = server.search(owner.gen_token(keyword))
    old_reply = bytearray((0x07, wire.KIND_SEARCH | 0x80, wire.CODE_OK))
    old_reply += struct.pack(">I", len(ids)) + b"".join(ids) + struct.pack(">I", len(cts))
    old_reply += b"".join(struct.pack(">I", len(ct)) + ct for ct in cts) + b"\x01" + gamma
    client = wire.Client(CannedTransport(bytes(old_reply)))
    with pytest.raises(FormatError, match="unknown version 0x07"):
        client.search(owner.gen_token(keyword))
    assert client.ciphertexts == {"sent": 0, "held": 0}


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
    time. Every answer verifies and equals the oracle's, and a shared client
    received each file's ciphertext once."""
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
                answers.append((verified, ids == oracle.ids_newest_first(keyword), ids))
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
    assert all(verified for verified, _, _ in answers)
    assert all(matches for _, matches, _ in answers)
    if shared is not None:
        answered = [fid for _, _, ids in answers for fid in ids]
        sent = len(set(answered))
        assert shared.ciphertexts == {"sent": sent, "held": len(answered) - sent}


def test_a_shared_client_keeps_its_ciphertexts_in_step_under_threads():
    # 6 threads search the same keywords in different orders over one
    # in-process client, whose transport holds no lock, each round on a
    # fresh client: a reply that reached the cache out of the order its
    # endpoint wrote it would hold back a ciphertext not yet kept
    owner, server, oracle, _ = build_system(n_files=40)
    keywords = oracle.keywords()
    tokens = {w: owner.gen_token(w) for w in keywords}
    n_threads = 6

    def searches(client, seed):
        order = random.Random(seed).sample(keywords, len(keywords))
        return [(w, *client.search(tokens[w])[:2]) for w in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            client = wire.Client.in_process(server)
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                parts = list(pool.map(searches, [client] * n_threads, range(n_threads)))
            for w, ids, cts in (answer for part in parts for answer in part):
                assert ids == oracle.ids_newest_first(w)
                assert cts == server.ciphertexts_for(ids)
            assert client.ciphertexts["sent"] == len(server.files)
    finally:
        sys.setswitchinterval(interval)


def test_whole_fetches_racing_uploads_and_refreshes_get_the_owners_filter():
    # the server builds its filter's bits at the first whole GET_BLOOM since
    # a refresh and adds each later upload's labels to them: 3 threads fetch
    # whole filters while uploads and refreshes arrive, and a build that
    # missed a label, or that outlived the refresh it raced, would serve
    # bits other than the owner's at that version
    owner, server, _, last_t = build_system(5)
    expected = {last_t: owner.bf.serialize()}
    done = threading.Event()
    n_threads = 3

    def fetches(_):
        client = wire.Client.in_process(server)
        answers = []
        while not done.is_set():
            answers.append(client.get_bloom(None))
        return answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(fetches, i) for i in range(n_threads)]
            t = last_t
            try:
                for i in range(48):
                    t += 600
                    if i % 6 == 5:
                        server.refresh(owner.refresh_bloom(t))
                    else:
                        keywords = [f"race{j}:{i}" for j in range(15)]
                        server.add(owner.add_file(f"race{i}".encode(), keywords, t))
                    expected[t] = owner.bf.serialize()
            finally:
                done.set()
            answers = [a for future in futures for a in future.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert len({at for _, _, at in answers}) > 10
    for update, _, at in answers:
        assert update == expected[at], at
    assert server.get_bloom()[0] == expected[t]


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
