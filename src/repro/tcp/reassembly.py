"""Out-of-order segment reassembly.

RFC-1122: "a TCP SHOULD queue out-of-order segments" because dropping them
costs retransmissions and throughput.  The paper's Experiment 5 verified
all four vendors do queue; the profile knob ``queue_out_of_order`` lets
tests exercise the drop policy too.

The queue holds byte ranges keyed by sequence number and hands back every
contiguous run once the gap fills.  Overlapping segments are trimmed so
each byte is delivered exactly once.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.tcp.segment import SEQ_HALF, SEQ_MOD


class ReassemblyQueue:
    """Buffer for segments that arrived above ``rcv_nxt``."""

    def __init__(self, max_bytes: int = 65536):
        self._segments: Dict[int, bytes] = {}
        self._max_bytes = max_bytes

    @property
    def buffered_bytes(self) -> int:
        """Total payload bytes parked in the queue."""
        return sum(len(data) for data in self._segments.values())

    @property
    def segment_count(self) -> int:
        """Number of distinct buffered ranges."""
        return len(self._segments)

    def add(self, seq: int, data: bytes) -> bool:
        """Buffer an out-of-order byte range.  Returns False if full."""
        if not data:
            return True
        if self.buffered_bytes + len(data) > self._max_bytes:
            return False
        existing = self._segments.get(seq)
        if existing is None or len(data) > len(existing):
            self._segments[seq] = data
        return True

    def extract(self, rcv_nxt: int) -> Tuple[bytes, int]:
        """Pull every byte now contiguous with ``rcv_nxt``.

        Returns ``(data, new_rcv_nxt)``.  Ranges that start at or before
        ``rcv_nxt`` are trimmed to avoid duplicate delivery; fully stale
        ranges are discarded.
        """
        delivered = bytearray()
        cursor = rcv_nxt
        progressing = True
        while progressing:
            progressing = False
            # sequence arithmetic inline: seq_sub / seq_add / seq_lt
            for seq in sorted(self._segments,
                              key=lambda s: (s - rcv_nxt) % SEQ_MOD):
                data = self._segments[seq]
                end = (seq + len(data)) % SEQ_MOD
                if (cursor - seq) % SEQ_MOD > SEQ_HALF:
                    continue  # still a gap before this range
                # seq <= cursor: usable if it extends past the cursor
                self._segments.pop(seq)
                if (cursor - end) % SEQ_MOD > SEQ_HALF:
                    skip = (cursor - seq) % SEQ_MOD
                    delivered.extend(data[skip:])
                    cursor = end
                    progressing = True
                break
        return bytes(delivered), cursor

    def clear(self) -> None:
        """Drop everything buffered."""
        self._segments.clear()

    def __len__(self) -> int:
        return len(self._segments)
