"""Decoder robustness: arbitrary or mutated bytes must fail cleanly with
FormatError (or decode to something re-encodable), never crash."""

import random

from dsse import wire
from dsse.bloom import BloomParams
from dsse.errors import FormatError
from dsse.owner import DataOwner
from dsse.server import CloudServer
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
        assert restore(blob) is not None
        for cut in range(0, len(blob), max(len(blob) // 50, 1)):
            try:
                restore(blob[:cut])
            except FormatError:
                pass
        try:
            restore(blob + b"\x00")
        except FormatError:
            pass
        try:
            restore(b"WRONGMAGIC" + blob)
        except FormatError:
            pass


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



def test_owner_restore_rejects_every_single_bit_flip():
    # a flipped sizing field must not restore params that derive another
    # filter size than the one in the blob (the next refresh would publish
    # it), nor allocate a filter sized by the flipped capacity
    for mode in ("full", "basic"):
        owner = DataOwner.generate(mode, BloomParams(2.0**-4, 8))
        owner.add_file(b"x", ["a:1", "b:0"], 1_700_000_000)
        owner.add_file(b"y", ["a:1"], 1_700_000_600)
        blob = owner.snapshot()
        assert DataOwner.restore(blob).snapshot() == blob
        for i in range(len(blob)):
            for bit in range(8):
                data = blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1 :]
                try:
                    restored = DataOwner.restore(data)
                except FormatError:
                    continue
                # anything accepted is the canonical encoding of what it
                # restored, and its params size the filter it holds
                assert restored.snapshot() == data, (mode, i, bit)
                if restored.bf is not None:
                    assert restored.bloom_params.derive() == (restored.bf.m, restored.bf.k)
