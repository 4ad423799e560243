"""The bytes of every golden export, pinned by sha256 on the build that wrote the table.

``tests/golden_exports.py`` names the exports and writes the table. On any other build the bits
may differ in the last place, so the pin is skipped there and the oracle tests check the numbers.
"""

import pytest

import golden_exports


def test_exports_match_the_golden_digests():
    table = golden_exports.load_table()
    mismatch = golden_exports.build_mismatch(table["build"])
    if mismatch:
        pytest.skip(f"export bytes are pinned only on the build that wrote the table: {mismatch}")
    assert golden_exports.digests() == table["digests"]


def test_the_table_covers_every_golden_export():
    digests = golden_exports.load_table()["digests"]
    assert len(digests) == 210
    assert sum(key.endswith(".json") for key in digests) == 66  # one per run set
