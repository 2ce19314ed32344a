"""Saved state is replaced atomically: a write that fails midway leaves the
previous file intact and no temp file behind."""

import errno
import os

import pytest

from dsse import cli
from dsse.bloom import BloomParams
from dsse.owner import DataOwner
from dsse.server import CloudServer
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
