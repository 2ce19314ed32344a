"""README.md names the formats the code writes, so a format bump cannot
ship undocumented."""

from pathlib import Path

import pytest

from dsse import owner, server, user, wire

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name",
    [
        f"0x{wire.VERSION:02X}",
        *(module._SNAPSHOT_MAGIC.decode() for module in (owner, user, server)),
    ],
)
def test_readme_names_each_format_written(name):
    assert f"`{name}`" in README
