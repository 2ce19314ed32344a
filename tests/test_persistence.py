"""Saved state is replaced atomically: a write that fails midway leaves the
previous file intact and no temp file behind."""

import errno
import hashlib
import os
import tracemalloc

import pytest

from dsse import cli
from dsse.bloom import BloomFilter, BloomParams
from dsse.crypto import KeyBundle
from dsse.harness.phi import synthesize_stream
from dsse.owner import DataOwner, KeywordRecord
from dsse.protocol import mask_width
from dsse.server import ChainEntry, CloudServer, MergedEntry
from dsse.user import AuthorizedUser

PARAMS = BloomParams(0.01, 100)


def savers(owner):
    return {
        "owner.bin": owner.save,
        "server.bin": CloudServer("full", PARAMS, group_key=owner.keys.r).save,
        "user_u1.bin": AuthorizedUser.from_owner(owner).save,
        "meta.json": lambda path: cli._save_meta(os.path.dirname(path), {"files": 1}),
    }


@pytest.mark.parametrize("name", ["owner.bin", "server.bin", "user_u1.bin", "meta.json"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, name):
    save = savers(DataOwner.generate("full", PARAMS))[name]
    path = tmp_path / name
    path.write_bytes(b"previous state")

    def full_disk(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError):
        save(str(path))
    assert path.read_bytes() == b"previous state"
    assert os.listdir(tmp_path) == [name]

    monkeypatch.undo()
    save(str(path))
    assert path.read_bytes() != b"previous state"
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("name", ["owner.bin", "server.bin", "user_u1.bin", "meta.json"])
def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch, name):
    # the rename is itself a write to the directory, which a crash can lose
    save = savers(DataOwner.generate("full", PARAMS))[name]
    path = str(tmp_path / name)
    fsync, replace = os.fsync, os.replace
    calls = []

    def record_fsync(fd):
        calls.append(("fsync", os.path.samestat(os.fstat(fd), os.stat(tmp_path))))
        fsync(fd)

    def record_replace(src, dst):
        calls.append(("replace", dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    save(path)
    # the temp file, its rename over path, then the directory
    assert calls == [("fsync", False), ("replace", path), ("fsync", True)]


def golden_state(role, mode):
    """An owner, server or user built from fixed values, with no random
    ids or nonces, holding every field its mode's snapshot writes."""
    full = mode == "full"
    keys = KeyBundle(b"\x01" * 16, b"\x02" * 16, b"\x03" * 16, b"\x04" * 16, epoch=3)
    if role == "user":
        return AuthorizedUser(keys.k_prf, keys.k_se, keys.k_mac, keys.r, keys.epoch)
    if role == "owner":
        state = DataOwner(mode, keys, BloomFilter(*PARAMS.derive()) if full else None)
        state.tbl = {
            # the chain keys are not saved
            "a:1": KeywordRecord(2, b"\x05" * 16 if full else None, b"\x0a" * 16),
            "b:2": KeywordRecord(1, b"\x06" * 16 if full else None, b"\x0b" * 16),
        }
    else:
        if full:
            state = CloudServer(mode, PARAMS, group_key=keys.r, epoch=keys.epoch)
            state.sigma = b"\x07" * 16
        else:
            state = CloudServer(mode)
        chain = [b"\x10" * 16, b"\x11" * 16]
        gamma = b"\x08" * 16 if full else None
        state.tbl = {
            b"\x20" * 16: ChainEntry(b"\x30" * mask_width(mode), b"\x12" * 16),
            b"\x21" * 16: MergedEntry(chain, 2, gamma),
            b"\x22" * 16: MergedEntry(chain, 1, gamma),
        }
        state.files = {fid: b"ciphertext " + fid for fid in chain + [b"\x12" * 16]}
    if full:
        state.t = 1_700_000_000
        state.bf.add(b"\x20" * 16)
    return state


GOLDEN_SNAPSHOTS = {
    ("owner", "full"): "8571510847e8ef588eb32f994d20b84b6000a9ee2532e720b3eef407b6d4db85",
    ("owner", "basic"): "0f21f47a9117fc2110db9ee7c955aac7f9c2fa28e7630422738a31b268b2d1ee",
    ("server", "full"): "60c1ee196ddce439fafc1f1647262767b1769f73d967a066c8b1537b24c2ace3",
    ("server", "basic"): "247bea1783a747e9ad4c1db608dcce9502939adf3a3a96fd51df9f0f68b7a251",
    ("user", None): "ca43c7474d3bc470c98921ebaffd5abf17e70db6647c035d8f6c57923b7dc054",
}


@pytest.mark.parametrize("role, mode", list(GOLDEN_SNAPSHOTS))
def test_snapshot_golden_bytes(role, mode):
    # a change here changes a saved format: bump its magic with it
    state = golden_state(role, mode)
    blob = state.snapshot()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SNAPSHOTS[role, mode]
    assert type(state).restore(blob).snapshot() == blob


def test_snapshot_peaks_below_one_and_a_half_blobs():
    # default sizing, a 5,410,115-byte filter: writing it through a
    # serialize() copy and then bytes(buf) peaked at over two blob lengths
    owner = DataOwner.generate("full")
    server = CloudServer("full", group_key=owner.keys.r)
    for phi in synthesize_stream(1, 30):
        server.add(owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp))
    for snapshot in (owner.snapshot, server.snapshot):
        tracemalloc.start()
        try:
            blob = snapshot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(blob), (snapshot, peak, len(blob))
