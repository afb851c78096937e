"""The sealed-pickle frame every campaign-directory file is written in."""

import pickle

import pytest

from repro.core.envelope import VERSION, EnvelopeError, _frame, seal, unseal

OBJ = {"config": [1, 2.5, "x"], "nested": (None, b"\x00\xff")}


def test_seal_unseal_roundtrip_and_plain_pickle_load():
    blob = seal(OBJ)
    assert unseal(blob) == OBJ
    # the frame is itself a pickle that runs the same checks
    assert pickle.loads(blob) == OBJ
    flipped = bytearray(blob)
    flipped[-4] ^= 0x01  # the payload's last byte
    with pytest.raises(EnvelopeError, match="checksum"):
        pickle.loads(bytes(flipped))


@pytest.mark.parametrize("blob, message", [
    (pickle.dumps(OBJ), "no envelope"),
    (b"", "no envelope"),
    (_frame(VERSION + 1, pickle.dumps(OBJ)), "format version 2"),
])
def test_foreign_and_other_version_frames_are_refused(blob, message):
    with pytest.raises(EnvelopeError, match=message):
        unseal(blob)


def test_every_truncation_is_refused():
    # (every single-byte flip: test_store.py, through SweepSpec.load)
    blob = seal(OBJ)
    for length in range(len(blob)):
        with pytest.raises(EnvelopeError):
            unseal(blob[:length])
