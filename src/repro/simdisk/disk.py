"""Disk device model: a shared resource with positioned-access service times.

This is exactly the §5.1 model: "The disk devices are modeled as a shared
resource.  Multiblock requests are allowed to complete before the resource is
relinquished.  The time to transfer a block consists of the seek time, the
rotational delay and the time to transfer the data from disk.  The seek time
and rotational latency are assumed to be independent uniform random
variables."

Sequential transfers (used by the prototype emulation, where files are laid
out contiguously) can skip the positioning cost after the first block.
"""

from __future__ import annotations

from typing import Optional

from ..des import Environment, RandomStream, Resource, UtilizationMonitor
from .models import DiskSpec

__all__ = ["Disk"]


class Disk:
    """One spindle as a DES component.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Device parameters from :mod:`repro.simdisk.models`.
    stream:
        Random stream for seek/rotation draws.  ``None`` uses the expected
        values deterministically (useful for calibration tests).
    """

    def __init__(self, env: Environment, spec: DiskSpec,
                 stream: Optional[RandomStream] = None):
        self.env = env
        self.spec = spec
        self.stream = stream
        self.resource = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.blocks_served = 0
        self.bytes_served = 0
        #: Disk block the head sits after, for cross-request sequentiality
        #: (None = unknown position, e.g. after an unaddressed access).
        self._head: Optional[int] = None

    def reset(self) -> None:
        """Forget run state (warm-start): spindle queue, utilization
        window, counters and head position.  The spec and the stream
        *binding* survive; the caller reseeds the streams themselves
        (see :meth:`repro.des.random_streams.StreamFactory.reset`)."""
        self.resource.reset()
        self.monitor.clear()
        self.blocks_served = 0
        self.bytes_served = 0
        self._head = None

    # -- service time draws ----------------------------------------------------

    def draw_positioning_time(self) -> float:
        """One seek + one rotational delay (random if a stream was given)."""
        if self.stream is None:
            return self.spec.avg_seek_s + self.spec.avg_rotation_s
        return (self.stream.uniform_mean(self.spec.avg_seek_s)
                + self.stream.uniform_mean(self.spec.avg_rotation_s))

    def block_service_time(self, nbytes: int) -> float:
        """Positioned access time for one block of ``nbytes``."""
        return self.draw_positioning_time() + self.spec.transfer_time(nbytes)

    # -- DES process methods -----------------------------------------------------

    def access(self, nbytes: int, blocks: int = 1, sequential: bool = False,
               at_block: Optional[int] = None,
               per_block_extra_s: float = 0.0,
               on_block=None):
        """Acquire the spindle and transfer ``blocks`` blocks of ``nbytes``.

        Per the paper, a multiblock request holds the resource until every
        block is done, and each block pays full positioning.  With
        ``sequential=True`` only the first block pays positioning — used for
        contiguous-layout file transfers in the prototype emulation.

        ``at_block`` is the starting disk-block address; when it continues
        exactly where the head already sits, even the first block's
        positioning is skipped (cross-request sequential access, the reason
        single-block sequential reads run at media speed on real disks).

        ``per_block_extra_s`` adds fixed per-block service (controller /
        driver / rotational-miss overhead) *inside* the spindle hold, so
        it consumes disk capacity like the real thing.

        ``on_block(index)`` is called as each block completes, while the
        request still holds the spindle — buffer caches use it to publish
        blocks to waiting readers as they stream off the platter.

        This is a process method: ``yield from disk.access(...)``.
        Returns total service time.

        The block chain is a span-coalescing site: with no ``on_block``
        and the engine permitting it
        (:attr:`~repro.des.engine.Environment.span_coalescing`), the
        per-block service times are drawn up front in the same stream
        order — legal because the spindle holder is the only drawer of
        the disk's stream — and the whole chain lands as one completion
        at the exactly accumulated time
        (:meth:`~repro.des.engine.Environment.timeout_at`).  An interrupt
        withdraws a queued claim, or releases a held spindle.
        """
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if per_block_extra_s < 0:
            raise ValueError("per_block_extra_s must be non-negative")
        env = self.env
        resource = self.resource
        started = env.now
        grant = None if resource.try_acquire() else resource.request()
        holding = grant is None
        try:
            if grant is not None:
                yield grant
                holding = True
            # The head position must be read *after* the grant: requests
            # that queued ahead of us may have moved it.
            services = self._service_times(
                nbytes, blocks, sequential,
                at_block is not None and at_block == self._head,
                per_block_extra_s)
            self.monitor.busy()
            if on_block is None and env._span_fast:
                when = env.now
                for service in services:
                    when += service
                yield env.timeout_at(when)
                self.blocks_served += blocks
                self.bytes_served += blocks * nbytes
            else:
                for index, service in enumerate(services):
                    yield env.timeout(service)
                    self.blocks_served += 1
                    self.bytes_served += nbytes
                    if on_block is not None:
                        on_block(index)
        finally:
            if holding:
                self._head = (at_block + blocks
                              if at_block is not None else None)
                if resource.count <= 1:
                    self.monitor.idle()
            if grant is None:
                resource.release_slot()
            else:
                resource.release_quiet(grant)
        return env.now - started

    def _service_times(self, nbytes: int, blocks: int, sequential: bool,
                       head_continues: bool, extra_s: float):
        """Each block's service time, positioning drawn as it is reached."""
        transfer = self.spec.transfer_time(nbytes) + extra_s
        for index in range(blocks):
            service = transfer
            if index == 0:
                if not head_continues:
                    service += self.draw_positioning_time()
            elif not sequential:
                service += self.draw_positioning_time()
            yield service

    # -- bookkeeping -----------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of simulated time the spindle was busy."""
        return self.monitor.utilization()

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the spindle."""
        return self.resource.queue_length

    def __repr__(self) -> str:
        return f"<Disk {self.spec.name} served={self.blocks_served} blocks>"
