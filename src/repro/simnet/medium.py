"""Abstract interconnection medium.

A medium is a broadcast domain: interfaces attach to it, and a datagram
transmitted on it is delivered to the interface of the destination host.
Concrete media (Ethernet, token ring) define the transmission-time
arithmetic; this base class owns the shared-cable queueing, loss injection,
utilization accounting and delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..des import Environment, RandomStream, Resource, UtilizationMonitor
from .frames import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .host import Interface

__all__ = ["Medium", "MediumStats"]


class MediumStats:
    """Traffic counters for one medium."""

    def __init__(self):
        self.datagrams_carried = 0
        self.bytes_carried = 0
        self.datagrams_lost = 0
        self.undeliverable = 0


class Medium:
    """Base class for shared interconnects."""

    def __init__(self, env: Environment, name: str,
                 loss_probability: float = 0.0,
                 loss_stream: Optional[RandomStream] = None):
        if loss_probability and loss_stream is None:
            raise ValueError("loss injection needs a random stream")
        self.env = env
        self.name = name
        self.loss_probability = loss_probability
        self.loss_stream = loss_stream
        self.cable = Resource(env, capacity=1)
        self.monitor = UtilizationMonitor(env)
        self.stats = MediumStats()
        self._interfaces: dict[str, "Interface"] = {}
        #: Stations currently transmitting or waiting for the cable,
        #: used by contention models (a station never collides with
        #: itself).
        self._active_by_host: dict[str, int] = {}

    # -- attachment -----------------------------------------------------------

    def attach(self, interface: "Interface") -> None:
        """Attach a host interface; one interface per host per medium."""
        host_name = interface.host.name
        if host_name in self._interfaces:
            raise ValueError(
                f"host {host_name!r} already attached to {self.name!r}")
        self._interfaces[host_name] = interface

    def reaches(self, host_name: str) -> bool:
        """True if a host of that name is attached."""
        return host_name in self._interfaces

    @property
    def attached_hosts(self) -> list[str]:
        """Names of attached hosts, sorted."""
        return sorted(self._interfaces)

    # -- timing ---------------------------------------------------------------

    def transmission_time(self, size: int) -> float:
        """Seconds of cable occupancy for a ``size``-byte datagram."""
        raise NotImplementedError

    def contention_penalty(self, sender_host: str) -> float:
        """Extra occupancy when stations contend (CSMA/CD); 0 by default."""
        return 0.0

    def contending_stations(self, sender_host: str) -> int:
        """Other stations currently fighting for the cable."""
        return sum(1 for host, active in self._active_by_host.items()
                   if active > 0 and host != sender_host)

    def nominal_capacity(self) -> float:
        """Raw signalling rate in bytes/second."""
        raise NotImplementedError

    # -- the data path ----------------------------------------------------------

    def transmit(self, datagram: Datagram):
        """Process method: occupy the cable, then deliver.

        Called by the sending interface's transmit pump.  Returns True
        if the datagram was delivered to the destination host's interface
        (loss injection and unknown destinations both yield False).  The
        service time is computed at the grant: the contention penalty
        depends on who is fighting for the cable at that instant.  An
        interrupt withdraws a queued claim, or releases a held cable.
        """
        sender = datagram.src.host
        active = self._active_by_host
        active[sender] = active.get(sender, 0) + 1
        cable = self.cable
        grant = None if cable.try_acquire() else cable.request()
        holding = grant is None
        try:
            if grant is not None:
                yield grant
                holding = True
            self.monitor.busy()
            yield self.env.timeout(self.transmission_time(datagram.size)
                                   + self.contention_penalty(sender))
        finally:
            if holding and cable.queue_length == 0:
                self.monitor.idle()
            if grant is None:
                cable.release_slot()
            else:
                cable.release_quiet(grant)
            active[sender] -= 1
        self.stats.datagrams_carried += 1
        self.stats.bytes_carried += datagram.size
        if self.loss_probability and self.loss_stream.bernoulli(self.loss_probability):
            self.stats.datagrams_lost += 1
            return False
        target = self._interfaces.get(datagram.dst.host)
        if target is None:
            self.stats.undeliverable += 1
            return False
        target.receive(datagram)
        return True

    def occupy(self, duration: float):
        """Process method: hold the cable for ``duration`` (background load)."""
        return self.cable.hold(duration, self.monitor)

    def utilization(self) -> float:
        """Busy fraction of the cable since construction."""
        return self.monitor.utilization()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} hosts={len(self._interfaces)}>"
