"""Buffered Swift files: coalescing small operations.

§7 notes Swift "can also handle small objects, such as those encountered
in normal file systems", at the price of "one round trip time for a short
network message" — per operation.  Applications that read or write a few
bytes at a time would pay that round trip *every call*.  This wrapper
gives them the classic stdio remedy:

* sequential small reads are served from a read-ahead buffer (one protocol
  round trip per ``buffer_size`` bytes instead of per call);
* small writes accumulate in a write-behind buffer and go to the agents as
  one coalesced operation on flush, seek, or when the buffer fills.

The wrapper intentionally exposes the same call styles as
:class:`~repro.core.client.SwiftFile` (synchronous and ``*_p`` process
methods).
"""

from __future__ import annotations

import os

from .client import SwiftFile
from .errors import SessionClosed, SwiftError

__all__ = ["BufferedSwiftFile"]


class BufferedSwiftFile:
    """A buffering layer over an open :class:`SwiftFile`."""

    def __init__(self, handle: SwiftFile, buffer_size: int = 65536):
        if buffer_size < 1:
            raise ValueError("buffer size must be >= 1")
        self._handle = handle
        self.buffer_size = buffer_size
        self._position = handle.tell()
        # Read buffer: bytes of [._read_start, ._read_start+len) cached.
        self._read_buffer = b""
        self._read_start = 0
        # Write buffer: pending bytes starting at ._write_start.
        self._write_buffer = bytearray()
        self._write_start = 0
        self._closed = False

    # -- metadata -----------------------------------------------------------------

    @property
    def name(self) -> str:
        """The underlying object's name."""
        return self._handle.name

    @property
    def size(self) -> int:
        """Object size, counting still-buffered writes."""
        pending_end = self._write_start + len(self._write_buffer)
        return max(self._handle.size,
                   pending_end if self._write_buffer else 0)

    @property
    def raw(self) -> SwiftFile:
        """The unbuffered file underneath."""
        return self._handle

    def tell(self) -> int:
        """Current logical position."""
        return self._position

    # -- process-style API ------------------------------------------------------------

    def read_p(self, nbytes: int):
        """Process method: buffered read at the current position."""
        self._require_open()
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        yield from self.flush_p()  # reads must observe buffered writes
        result = bytearray()
        while len(result) < nbytes:
            chunk = self._from_read_buffer(nbytes - len(result))
            if chunk:
                result.extend(chunk)
                continue
            fetched = yield from self._fill_read_buffer()
            if not fetched:
                break
        self._position += 0  # position already advanced per chunk
        return bytes(result)

    def _from_read_buffer(self, limit: int) -> bytes:
        offset = self._position - self._read_start
        if 0 <= offset < len(self._read_buffer):
            chunk = self._read_buffer[offset:offset + limit]
            self._position += len(chunk)
            return chunk
        return b""

    def _fill_read_buffer(self):
        data = yield from self._handle.pread_p(self._position,
                                               self.buffer_size)
        self._read_start = self._position
        self._read_buffer = data
        return len(data)

    def write_p(self, data: bytes):
        """Process method: buffered write at the current position."""
        self._require_open()
        if not isinstance(data, bytes):
            # Snapshot once: the flush below may suspend, and the caller
            # could mutate a bytearray/memoryview argument meanwhile.
            data = bytes(data)
        if not data:
            return 0
        appended = (self._write_buffer and
                    self._position == self._write_start
                    + len(self._write_buffer))
        if not self._write_buffer:
            self._write_start = self._position
            self._write_buffer.extend(data)
        elif appended:
            self._write_buffer.extend(data)
        else:
            # Non-contiguous write: flush what we have, start fresh.
            yield from self.flush_p()
            self._write_start = self._position
            self._write_buffer.extend(data)
        env = self._handle.engine.env
        if env._alias_hooks:
            # Views borrowed from the write buffer before this call are
            # now looking at moved bytes; let the aliasing sanitizer
            # advance the buffer's generation stamp.
            env._notify_alias("buffer-mutate", self._write_buffer)
        self._position += len(data)
        self._invalidate_read_overlap()
        if len(self._write_buffer) >= self.buffer_size:
            yield from self.flush_p()
        return len(data)

    def flush_p(self):
        """Process method: push buffered writes to the agents."""
        self._require_open()
        if self._write_buffer:
            # Hand the accumulated buffer off wholesale instead of copying
            # it: the write path snapshots non-bytes input exactly once,
            # so swapping in a fresh bytearray halves the copies per flush.
            payload = self._write_buffer
            start = self._write_start
            self._write_buffer = bytearray()
            env = self._handle.engine.env
            if env._alias_hooks:
                # The buffer leaves this file's ownership at the swap:
                # any view of it still held by a caller is now stale.
                env._notify_alias("buffer-retire", payload)
            yield from self._handle.pwrite_p(start, payload)
        else:
            yield self._handle.engine.env.timeout(0.0)

    def close_p(self):
        """Process method: flush, then close the underlying file."""
        if self._closed:
            yield self._handle.engine.env.timeout(0.0)
            return
        yield from self.flush_p()
        self._closed = True
        yield from self._handle.close_p()

    # -- seek ---------------------------------------------------------------------------

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        """Move the position (buffered writes survive; reads re-fetch)."""
        self._require_open()
        if whence == os.SEEK_SET:
            target = offset
        elif whence == os.SEEK_CUR:
            target = self._position + offset
        elif whence == os.SEEK_END:
            target = self.size + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if target < 0:
            raise ValueError("cannot seek before the start of the file")
        self._position = target
        return target

    # -- synchronous facade ----------------------------------------------------------------

    def read(self, nbytes: int) -> bytes:
        """Synchronous buffered read."""
        return self._drive(self.read_p(nbytes))

    def write(self, data: bytes) -> int:
        """Synchronous buffered write."""
        return self._drive(self.write_p(data))

    def flush(self) -> None:
        """Synchronous flush."""
        self._drive(self.flush_p())

    def close(self) -> None:
        """Synchronous close (flushes first)."""
        self._drive(self.close_p())

    def __enter__(self) -> "BufferedSwiftFile":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if not self._closed:
            self.close()

    # -- plumbing ------------------------------------------------------------------------

    def _invalidate_read_overlap(self) -> None:
        """Drop the read buffer if buffered writes may shadow it."""
        if not self._read_buffer:
            return
        write_end = self._write_start + len(self._write_buffer)
        read_end = self._read_start + len(self._read_buffer)
        if self._write_start < read_end and write_end > self._read_start:
            self._read_buffer = b""

    def _drive(self, generator):
        env = self._handle.engine.env
        if env.active_process is not None:
            raise SwiftError(
                "synchronous BufferedSwiftFile calls cannot be used inside "
                "a simulation process; use the *_p process methods")
        return env.run(until=env.process(generator))

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed(self.name)
