"""Rendered CLI outputs match the recorded digests byte for byte (tests/golden/cli_digests.json)."""

import json

import pytest

from golden.record_cli_digests import HERE, argvs, replay

RECORDS = json.loads((HERE / "cli_digests.json").read_text(encoding="utf-8"))


def test_recorded_argvs_are_the_script_argvs():
    assert [r["argv"] for r in RECORDS] == argvs()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_recorded_digest(record):
    assert replay(record["argv"]) == (record["exit"], record["sha256"])
