"""The fabric wire protocol: length-prefixed JSON frames over a socket.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding one object.  The framing is deliberately minimal --
no versioned handshake beyond the ``hello``/``welcome`` exchange, no
compression, no pipelining -- because the coordinator/worker dialogue is
strict request/response: the worker writes one frame and reads exactly
one reply, so a torn connection is always detected at a frame boundary
or surfaces as :class:`ProtocolError` (mid-frame EOF), never as silent
corruption.

Message vocabulary (``type`` field):

==============  =========  =================================================
worker → coord  hello      ``{worker, pid, spec}`` once per connection; a
                           ``spec`` digest that is not the sweep's is
                           answered ``drain``
worker → coord  lease      ask for a shard lease (held up to ``poll`` s)
worker → coord  heartbeat  ``{shard}`` renew a held lease
worker → coord  done       ``{shard, executed, cached}`` shard completed
coord → worker  welcome    handshake reply, carries ``lease_ttl``
coord → worker  grant      ``{shard, indices, attempt, ttl}`` a lease
coord → worker  wait       none freed up in ``poll`` s; ask again at once
coord → worker  drain      sweep finished (or aborted): exit cleanly
coord → worker  ack        heartbeat / done acknowledged
==============  =========  =================================================

The protocol is same-host today but multi-host-shaped: nothing in a
frame references shared memory, file descriptors, or the coordinator's
process -- workers find work via leases and publish results via the
shared :class:`~repro.core.fabric.store.ResultStore` directory, so
pointing ``--connect`` at a remote coordinator only requires the store
directory to be on a shared filesystem.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

#: refuse frames beyond this size -- a corrupt length prefix otherwise
#: asks recv to allocate gigabytes
MAX_FRAME_BYTES = 16 << 20

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A torn or malformed frame (mid-frame EOF, oversize, bad JSON)."""


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes.

    Returns ``None`` on a clean EOF before the first byte (the peer
    closed between frames); raises :class:`ProtocolError` when the
    connection dies mid-frame.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/"
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between length and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise ProtocolError(f"undecodable frame body: {err}") from err
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body is {type(message).__name__}, expected object")
    return message


def request(sock: socket.socket, message: Dict[str, Any]
            ) -> Dict[str, Any]:
    """One request/response round trip (the worker's only call pattern)."""
    send_message(sock, message)
    reply = recv_message(sock)
    if reply is None:
        raise ProtocolError(
            f"coordinator closed the connection awaiting a reply to "
            f"{message.get('type')!r}")
    return reply
