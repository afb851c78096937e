"""The envelope around every pickle a campaign directory holds.

A store entry (``store/ab/abcd....pkl``) and a sweep's ``spec.pkl`` are
read back by other processes, later, possibly after a torn write or a
flipped bit, so neither is unpickled on trust: the payload pickle sits
in a fixed frame that names the format, its version and the crc32 of
the payload, and :func:`unseal` checks all three before it unpickles
anything.  A truncated, bit-flipped, foreign or older-format file
raises :class:`EnvelopeError` instead of loading as something else --
every single-byte change to a sealed file is caught (crc32 detects any
error burst up to 32 bits, and the rest of the frame is compared
byte for byte).

The frame is itself a small pickle, so ``pickle.load`` of a sealed file
still returns its object: it calls :func:`_unsealed` with the version,
crc and payload, which runs the same checks.  Layout::

    \\x80\\x04                             PROTO 4
    c repro.core.envelope\\n _unsealed\\n   GLOBAL   (with PROTO: the magic)
    K <version: u8>                      BININT1
    J <crc32: 4 bytes, little-endian>    BININT
    B <length: u32 le> <payload>         BINBYTES
    \\x87 R .                             TUPLE3, REDUCE, STOP

There is one format version and no reader for any other: an entry
written before the envelope existed, or by a later format, is refused.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any

#: the frame format this module writes and the only one it reads
VERSION = 1

_MAGIC = b"\x80\x04c" + __name__.encode() + b"\n_unsealed\n"
#: the opcodes and arguments between the magic and the payload
_FIELDS = struct.Struct("<cBcIcI")
_HEADER = len(_MAGIC) + _FIELDS.size
_TRAILER = b"\x87R."


class EnvelopeError(ValueError):
    """A sealed file that is not one: torn, flipped, foreign or another
    format version."""


def _frame(version: int, payload: bytes) -> bytes:
    return b"".join((_MAGIC, _FIELDS.pack(b"K", version,
                                          b"J", zlib.crc32(payload),
                                          b"B", len(payload)),
                     payload, _TRAILER))


def seal(obj: Any) -> bytes:
    """``obj`` pickled and framed; raises what ``pickle.dumps`` raises."""
    return _frame(VERSION, pickle.dumps(obj))


def _check(version: int, crc: int, payload: bytes) -> None:
    if version != VERSION:
        raise EnvelopeError(
            f"format version {version}, this reader knows {VERSION}")
    if zlib.crc32(payload) != crc & 0xFFFFFFFF:
        raise EnvelopeError("payload checksum mismatch")


def unseal(blob: bytes) -> Any:
    """The object :func:`seal` framed into ``blob``, checked before it is
    unpickled; :class:`EnvelopeError` for anything but an intact frame of
    this :data:`VERSION`."""
    if not blob.startswith(_MAGIC):
        raise EnvelopeError("not a sealed pickle (no envelope)")
    if len(blob) < _HEADER + len(_TRAILER):
        raise EnvelopeError("truncated envelope")
    k, version, j, crc, b, length = _FIELDS.unpack_from(blob, len(_MAGIC))
    if ((k, j, b) != (b"K", b"J", b"B")
            or len(blob) != _HEADER + length + len(_TRAILER)
            or not blob.endswith(_TRAILER)):
        raise EnvelopeError("malformed or truncated envelope")
    payload = memoryview(blob)[_HEADER:_HEADER + length]
    _check(version, crc, payload)
    return pickle.loads(payload)


def _unsealed(version: int, crc: int, payload: bytes) -> Any:
    """What a plain ``pickle.load`` of a sealed file calls: the same
    checks as :func:`unseal`, then the payload's object."""
    _check(version, crc, payload)
    return pickle.loads(payload)
