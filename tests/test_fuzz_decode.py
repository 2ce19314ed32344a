"""Decoder robustness: arbitrary or mutated bytes must fail cleanly with
FormatError (or decode to something re-encodable), never crash."""

import random
import struct

import pytest

from dsse import wire
from dsse.bloom import BloomFilter, BloomParams
from dsse.crypto import LAMBDA
from dsse.errors import FormatError
from dsse.owner import DataOwner
from dsse.protocol import BASIC, FILE_ID_LEN, RefreshPayload, mask_width
from dsse.server import ChainEntry, CloudServer
from dsse.user import AuthorizedUser

rng = random.Random(99)


def try_decode(data: bytes) -> None:
    try:
        msg = wire.decode(data)
    except FormatError:
        return
    assert wire.encode(msg) == data  # anything accepted must round-trip


def test_wire_decode_random_bytes():
    for _ in range(3000):
        try_decode(rng.randbytes(rng.randint(0, 80)))


def test_wire_decode_mutated_valid_frames():
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    payload = owner.add_file(b"data", ["a:1", "b:2"], 1_700_000_000)
    frames = [
        wire.encode(payload),
        wire.encode(owner.gen_token("a:1")),
        wire.encode(wire.GetBloom()),
        wire.encode(wire.Rotate(b"\x07" * 16, 2)),
        wire.encode(wire.GetBloom((payload.t, payload.sigma))),
        wire.encode(wire.Reply(wire.KIND_GET_BLOOM, wire.CODE_NOT_MODIFIED)),
        wire.encode(wire.Reply(wire.KIND_GET_BLOOM, value=(
            owner.bf.serialize(), payload.sigma, payload.t
        ))),
        wire.encode(wire.Reply(wire.KIND_GET_BLOOM, value=(
            [tau for tau, _ in payload.entries], payload.sigma, payload.t
        ))),
        wire.encode(owner.refresh_bloom(payload.t + 600)),  # an element list
        wire.encode(SEARCH_REPLY),
        wire.encode(wire.Reply(wire.KIND_SEARCH, value=(0, 3, [b"\x05" * 16], [None], None))),
        wire.encode(wire.Reply(wire.KIND_SEARCH, value=(1, 4, [], [], None))),  # a repeat
    ]
    for frame in frames:
        for _ in range(400):
            data = bytearray(frame)
            op = rng.randrange(3)
            if op == 0:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif op == 1:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
            try_decode(bytes(data))


# a SEARCH reply after a prefix of 6 ids of list 5, whose second
# ciphertext is held and whose third is empty
SEARCH_REPLY = wire.Reply(wire.KIND_SEARCH, value=(
    5, 6, [b"\x01" * 16, b"\x02" * 16, b"\x03" * 16], [b"abc", None, b""], b"\x04" * 16
))


def test_search_reply_flags_decode_strictly():
    frame = wire.encode(SEARCH_REPLY)
    assert wire.decode(frame) == SEARCH_REPLY
    for cut in range(len(frame)):
        with pytest.raises(FormatError):
            wire.decode(frame[:cut])
    with pytest.raises(FormatError, match="trailing"):
        wire.decode(frame + b"\x00")
    # list, prefix and count are whole u32s after the 3 header bytes, each
    # read as it is: the client, which holds the table, checks them
    assert frame[3:15] == struct.pack(">III", 5, 6, 3)
    for number, prefix in ((0, 0), (2**32 - 1, 2**32 - 1), (7, 0)):
        data = frame[:3] + struct.pack(">II", number, prefix) + frame[11:]
        assert wire.decode(data).value[:2] == (number, prefix)
    # the flag after each id (3 header bytes, list, prefix and count, then
    # id, flag, length and ciphertext), and the gamma flag
    flags = (31, 55, 72, 77)
    assert [frame[i] for i in flags] == [1, 0, 1, 1]
    for at in flags:
        for bad in (2, 0x80, 0xFF):
            data = bytearray(frame)
            data[at] = bad
            with pytest.raises(FormatError, match="presence flag"):
                wire.decode(bytes(data))


def test_mutated_refresh_element_lists_are_adopted_whole_or_refused_cleanly():
    # a REFRESH's elements come from outside: the server either refuses a
    # mutant with FormatError and keeps its state, or adopts the filter
    # that holds exactly the mutant's elements
    params = BloomParams(2.0**-30, 2000)
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    for i in range(5):
        server.add(owner.add_file(f"f{i}".encode(), ["a:1", f"b:{i}"], 1_700_000_000 + i * 600))
    refresh = owner.refresh_bloom(1_700_000_000 + 3600)
    adopted = 0
    for _ in range(1500):
        data = bytearray(refresh.elements)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            if op == 0:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif op == 1:
                del data[rng.randrange(len(data))]
            else:
                data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        before = server.snapshot(), server.sigma, server.t
        try:
            server.refresh(RefreshPayload(bytes(data), refresh.sigma, refresh.t))
        except FormatError:
            assert (server.snapshot(), server.sigma, server.t) == before
            continue
        adopted += 1
        elements = [bytes(data[i : i + LAMBDA]) for i in range(0, len(data), LAMBDA)]
        assert elements == sorted(set(elements))
        expected = BloomFilter(owner.bf.m, owner.bf.k)
        for element in elements:
            expected.add(element)
        assert server.bf == expected and server.refreshes["adopted"] == adopted
    assert 0 < adopted < 1500  # a bit flip that keeps the order is adopted


def assert_widths(state) -> None:
    """Every key, label and gamma a restored state holds is LAMBDA bytes,
    every mask is its mode's width, every file id a server holds is
    FILE_ID_LEN bytes, basic mode holds no gamma, and every keyword an
    owner holds is non-empty with a counter of at least 1."""
    if isinstance(state, AuthorizedUser):
        fixed = [state.k_prf, state.k_se, state.k_mac, state.r]
    elif isinstance(state, DataOwner):
        k = state.keys
        fixed = [k.k_prf, k.k_se, k.k_mac, k.r]
        gammas = [rec.gamma for rec in state.tbl.values()]
        assert all(w and rec.cnt >= 1 for w, rec in state.tbl.items())
    else:
        fixed = list(state.tbl) + ([] if state.r is None else [state.r])
        chain = [e for e in state.tbl.values() if isinstance(e, ChainEntry)]
        merged = [e for e in state.tbl.values() if not isinstance(e, ChainEntry)]
        assert all(len(e.mu) == mask_width(state.mode) for e in chain)
        gammas = [e.gamma for e in merged]
        ids = [*state.files, *(e.file_id for e in chain), *(fid for e in merged for fid in e.chain)]
        assert all(len(fid) == FILE_ID_LEN for fid in ids)
    if not isinstance(state, AuthorizedUser):
        if state.mode == BASIC:
            assert gammas == [None] * len(gammas)
        else:
            fixed += gammas
    assert all(len(field) == LAMBDA for field in fixed)


def test_snapshot_restore_rejects_corruption():
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    owner.add_file(b"data", ["a:1"], 1_700_000_000)
    server = CloudServer("full", BloomParams(0.01, 100), group_key=owner.keys.r)
    server.add(owner.add_file(b"more", ["a:1"], 1_700_000_600))
    user = AuthorizedUser.from_owner(owner)

    for blob, restore in (
        (owner.snapshot(), DataOwner.restore),
        (server.snapshot(), CloudServer.restore),
        (user.snapshot(), AuthorizedUser.restore),
    ):
        assert_widths(restore(blob))
        variants = [blob[:cut] for cut in range(0, len(blob), max(len(blob) // 50, 1))]
        for data in variants + [blob + b"\x00", b"WRONGMAGIC" + blob]:
            try:
                assert_widths(restore(data))
            except FormatError:
                pass


def test_restore_refuses_a_length_prefixed_key():
    # the shape the length-prefixed formats accepted and a later search or
    # token failed on: a 15-byte key behind a prefix of 15
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    server = CloudServer("full", BloomParams(0.01, 100), group_key=owner.keys.r)
    server.add(owner.add_file(b"data", ["a:1"], 1_700_000_000))
    user = AuthorizedUser.from_owner(owner)
    for blob, key_at, restore in (
        (owner.snapshot(), 9, DataOwner.restore),  # magic, mode flag
        (server.snapshot(), 9, CloudServer.restore),
        (user.snapshot(), 8, AuthorizedUser.restore),  # magic
    ):
        short = (15).to_bytes(4, "big") + blob[key_at : key_at + 15]
        with pytest.raises(FormatError):
            restore(blob[:key_at] + short + blob[key_at + LAMBDA :])


def test_restores_refuse_a_filter_asking_for_too_many_hashes():
    # a flip of bit 20 of the filter's k restored a filter whose every add
    # hashed an 8 MB SHAKE256 output
    owner = DataOwner.generate("full", BloomParams(0.01, 100))
    server = CloudServer("full", BloomParams(0.01, 100), group_key=owner.keys.r)
    server.add(owner.add_file(b"data", ["a:1"], 1_700_000_000))
    owner_blob, server_blob = owner.snapshot(), server.snapshot()
    for blob, k_at, bf, restore in (
        # the owner's serialized filter is its last field; the server's
        # header is followed by u32 n and the n elements of the last refresh
        (owner_blob, len(owner_blob) - len(owner.bf.bits) - 4, owner.bf, DataOwner.restore),
        (server_blob, len(server_blob) - len(server.elements) - 8, server.bf, CloudServer.restore),
    ):
        k = struct.unpack_from(">I", blob, k_at)[0]
        assert k == bf.k
        data = bytearray(blob)
        struct.pack_into(">I", data, k_at, k ^ (1 << 20))
        with pytest.raises(FormatError, match="bad bloom header"):
            restore(bytes(data))


def merged_server_blob(mode: str) -> bytes:
    """A small server snapshot holding chain entries and merged entries
    that share id lists (two lists for keyword a:1, one for b:2)."""
    params = BloomParams(0.01, 100)
    owner = DataOwner.generate(mode, params)
    server = CloudServer(mode, params, group_key=owner.keys.r if mode == "full" else None)
    for i in range(6):
        server.add(owner.add_file(f"f{i}".encode(), ["a:1", f"b:{i % 2}"], 1_700_000_000 + i * 600))
    for counter in (3, 5, 4, 1):
        server.search(owner.token_for_counter("a:1", counter))
    server.search(owner.gen_token("b:0"))
    return server.snapshot()


def test_server_restore_rejects_corrupted_merged_entries():
    for mode in ("full", "basic"):
        blob = merged_server_blob(mode)
        assert CloudServer.restore(blob).snapshot() == blob
        variants = [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00"]
        variants += [
            blob[:i] + bytes([blob[i] ^ (1 << (i % 8))]) + blob[i + 1 :]
            for i in range(len(blob))
        ]
        for data in variants:
            try:
                server = CloudServer.restore(data)
            except FormatError:
                continue
            # anything accepted is the canonical encoding of what it restored
            assert server.snapshot() == data
            assert_widths(server)



def test_owner_restore_rejects_every_single_bit_flip():
    # a flipped mode flag must not restore a state that has fields of the
    # other mode, and a flipped filter size must not survive a re-snapshot;
    # the user blob has no mode, but keys of the same fixed width
    blobs = []
    for mode in ("basic", "full"):
        owner = DataOwner.generate(mode, BloomParams(2.0**-4, 8))
        owner.add_file(b"x", ["a:1", "b:0"], 1_700_000_000)
        owner.add_file(b"y", ["a:1"], 1_700_000_600)
        blobs.append((owner.snapshot(), DataOwner.restore))
    blobs.append((AuthorizedUser.from_owner(owner).snapshot(), AuthorizedUser.restore))
    for blob, restore in blobs:
        assert restore(blob).snapshot() == blob
        for i in range(len(blob)):
            for bit in range(8):
                data = blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1 :]
                try:
                    restored = restore(data)
                except FormatError:
                    continue
                # anything accepted is the canonical encoding of what it
                # restored, with the widths its mode fixes
                assert restored.snapshot() == data, (restore, i, bit)
                assert_widths(restored)
