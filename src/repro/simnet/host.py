"""Host model: CPU, network interfaces, datagram sockets.

The host CPU is a single shared resource; every datagram sent or received
charges it according to a :class:`CostModel` (a fixed per-packet cost plus a
per-byte cost — §5.1 charges "1,500 instructions plus one instruction per
byte in the packet", and the prototype hosts use costs calibrated to the
measured SunOS data path).

The send path mirrors SunOS behaviour the paper fought with:

* each interface has a finite transmit queue; when it overflows the datagram
  is *silently dropped* ("the kernel would drop packets and claim that they
  had been sent");
* each socket has a finite receive buffer; overflow drops the datagram
  ("packet loss rates caused by lack of buffer space in the SunOS kernel").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..des import Environment, Resource, Store
from .frames import Address, Datagram, HEADER_SIZE
from .medium import Medium

__all__ = ["CostModel", "Host", "Interface", "DatagramSocket",
           "mips_cost_model"]


@dataclass(frozen=True)
class CostModel:
    """CPU time to push one datagram through a protocol stack."""

    per_packet_s: float = 0.0
    per_byte_s: float = 0.0

    def __post_init__(self):
        if self.per_packet_s < 0 or self.per_byte_s < 0:
            raise ValueError("costs must be non-negative")

    def time(self, nbytes: int) -> float:
        """CPU seconds for a datagram of ``nbytes``."""
        return self.per_packet_s + self.per_byte_s * nbytes


def mips_cost_model(mips: float, instructions_per_packet: float = 1500.0,
                    instructions_per_byte: float = 1.0) -> CostModel:
    """The §5.1 cost model: 1500 instructions + 1 instruction/byte.

    ``mips`` is the host's processor speed in millions of instructions per
    second (the simulation study uses 100 MIPS hosts).
    """
    if mips <= 0:
        raise ValueError("mips must be positive")
    per_second = mips * 1e6
    return CostModel(
        per_packet_s=instructions_per_packet / per_second,
        per_byte_s=instructions_per_byte / per_second,
    )


class Host:
    """A machine with one CPU, some interfaces, and a socket table."""

    def __init__(self, env: Environment, name: str,
                 send_cost: CostModel = CostModel(),
                 recv_cost: CostModel = CostModel(),
                 noise_fraction: float = 0.0,
                 noise_stream=None):
        if noise_fraction and noise_stream is None:
            raise ValueError("CPU noise needs a random stream")
        if not 0.0 <= noise_fraction < 1.0:
            raise ValueError("noise_fraction must be in [0, 1)")
        self.env = env
        self.name = name
        self.send_cost = send_cost
        self.recv_cost = recv_cost
        self.noise_fraction = noise_fraction
        self.noise_stream = noise_stream
        # A per-run speed factor models run-to-run machine variation (cache
        # state, daemons): it gives repeated measurements the sample spread
        # real systems show.
        self._speed_factor = (
            1.0 + noise_stream.uniform(-noise_fraction, noise_fraction) / 2.0
            if noise_stream is not None and noise_fraction else 1.0)
        self.cpu = Resource(env, capacity=1)
        self.interfaces: list[Interface] = []
        self._sockets: dict[int, DatagramSocket] = {}
        self._next_ephemeral_port = 32768

    def jittered(self, cost_s: float) -> float:
        """Apply the host's OS-noise jitter to a CPU cost."""
        if not self.noise_fraction:
            return cost_s
        return cost_s * self._speed_factor * (1.0 + self.noise_stream.uniform(
            -self.noise_fraction, self.noise_fraction))

    # -- interfaces -------------------------------------------------------------

    def attach(self, medium: Medium, cpu_cost_scale: float = 1.0,
               tx_queue_packets: int = 16) -> "Interface":
        """Attach this host to a medium via a new interface."""
        interface = Interface(self, medium, cpu_cost_scale, tx_queue_packets)
        self.interfaces.append(interface)
        medium.attach(interface)
        return interface

    def route(self, dst_host: str) -> "Interface":
        """The interface whose medium reaches ``dst_host``."""
        for interface in self.interfaces:
            if interface.medium.reaches(dst_host):
                return interface
        raise LookupError(f"{self.name!r} has no route to {dst_host!r}")

    # -- sockets -----------------------------------------------------------------

    def bind(self, port: Optional[int] = None,
             buffer_packets: int = 8) -> "DatagramSocket":
        """Create a socket on ``port`` (or an ephemeral one)."""
        if port is None:
            port = self.allocate_port()
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.name!r}")
        socket = DatagramSocket(self, port, buffer_packets)
        self._sockets[port] = socket
        return socket

    def allocate_port(self) -> int:
        """A fresh ephemeral port number."""
        while self._next_ephemeral_port in self._sockets:
            self._next_ephemeral_port += 1
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    def close_socket(self, socket: "DatagramSocket") -> None:
        """Release a socket's port."""
        self._sockets.pop(socket.port, None)

    def socket_on(self, port: int) -> Optional["DatagramSocket"]:
        """The socket bound to ``port``, if any."""
        return self._sockets.get(port)

    # -- CPU accounting ------------------------------------------------------------

    def consume_cpu(self, seconds: float):
        """Process method: hold the CPU for ``seconds``
        (``yield from host.consume_cpu(...)``; see :meth:`Resource.hold`)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self.cpu.hold(seconds)

    def __repr__(self) -> str:
        return f"<Host {self.name} ifaces={len(self.interfaces)}>"


class Interface:
    """One NIC: a transmit queue drained onto the medium.

    ``cpu_cost_scale`` models slower attachment points — the prototype's
    second Ethernet interface sat on the S-bus, "known to achieve lower
    data-rates than the on-board interface" (§4.1).
    """

    def __init__(self, host: Host, medium: Medium,
                 cpu_cost_scale: float = 1.0, tx_queue_packets: int = 16):
        if cpu_cost_scale <= 0:
            raise ValueError("cpu_cost_scale must be positive")
        if tx_queue_packets < 1:
            raise ValueError("tx queue must hold at least one packet")
        self.host = host
        self.medium = medium
        self.cpu_cost_scale = cpu_cost_scale
        self.tx_queue_packets = tx_queue_packets
        self._tx_queue = Store(host.env)
        self.tx_dropped = 0
        self.rx_dropped_no_socket = 0
        host.env.process(self._transmit_pump())

    # -- transmit side -----------------------------------------------------------

    def enqueue(self, datagram: Datagram) -> bool:
        """Queue a datagram for the wire; silently drop when full.

        Returns False on drop — but note the *protocol* code never sees
        this (SunOS "claimed they had been sent"); only tests and stats do.
        """
        if self._tx_queue.size >= self.tx_queue_packets:
            self.tx_dropped += 1
            return False
        self._tx_queue.put(datagram)
        return True

    def _transmit_pump(self):
        """Drain the transmit queue onto the medium, forever."""
        tx_queue = self._tx_queue
        medium = self.medium
        while True:
            datagram = yield tx_queue.get()
            yield from medium.transmit(datagram)

    @property
    def tx_backlog(self) -> int:
        """Datagrams waiting in the transmit queue."""
        return self._tx_queue.size

    # -- receive side -------------------------------------------------------------

    def receive(self, datagram: Datagram) -> None:
        """Called by the medium on delivery; charges the receiving CPU.

        The receive process starts from the calendar, not immediately:
        its jittered CPU-cost draw must come after same-time work already
        queued on this host.
        """
        self.host.env.process(self._receive(datagram))

    def _receive(self, datagram: Datagram):
        host = self.host
        yield from host.consume_cpu(host.jittered(
            host.recv_cost.time(datagram.size) * self.cpu_cost_scale))
        socket = host.socket_on(datagram.dst.port)
        if socket is None:
            self.rx_dropped_no_socket += 1
        else:
            socket.deliver(datagram)


class DatagramSocket:
    """A UDP-like socket with a finite receive buffer."""

    def __init__(self, host: Host, port: int, buffer_packets: int):
        if buffer_packets < 1:
            raise ValueError("socket buffer must hold at least one packet")
        self.host = host
        self.port = port
        self.buffer_packets = buffer_packets
        self._rx = Store(host.env)
        self.rx_dropped = 0
        self.closed = False

    @property
    def address(self) -> Address:
        """This socket's (host, port) address."""
        return Address(self.host.name, self.port)

    # -- sending ------------------------------------------------------------------

    def send(self, dst: Address, message: Any = None,
             payload_size: int = 0):
        """Process method: pay send CPU, then queue on the routed interface.

        ``payload_size`` is the number of payload bytes on the wire (headers
        are added here).  Always "succeeds" from the caller's perspective,
        exactly like the prototype's kernel.
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        if payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        interface = self.host.route(dst.host)
        size = payload_size + HEADER_SIZE
        datagram = Datagram(src=self.address, dst=dst, size=size,
                            message=message)
        cost = self.host.jittered(
            self.host.send_cost.time(size) * interface.cpu_cost_scale)
        yield from self.host.consume_cpu(cost)
        interface.enqueue(datagram)

    # -- receiving ------------------------------------------------------------------

    def deliver(self, datagram: Datagram) -> None:
        """Interface-side delivery into the receive buffer (drop if full)."""
        if self.closed or self._rx.size >= self.buffer_packets:
            self.rx_dropped += 1
            return
        self._rx.put(datagram)

    def recv(self, predicate=None):
        """Event: the next buffered datagram (optionally filtered)."""
        return self._rx.get(predicate)

    def purge(self, predicate) -> int:
        """Drop buffered datagrams matching ``predicate`` (stale packets)."""
        return self._rx.purge(predicate)

    def recv_wait(self, timeout_s: float, predicate=None):
        """Process method: matching datagram or None after ``timeout_s``.

        The paper's protocol resubmits requests when packets are lost; this
        is the timeout primitive it uses.
        """
        get = self.recv(predicate)
        expiry = self.host.env.timeout(timeout_s)
        yield self.host.env.any_of([get, expiry])
        if get.triggered:
            return get.value
        get.cancel()
        return None

    def close(self) -> None:
        """Release the port; further sends raise, arrivals are dropped."""
        self.closed = True
        self.host.close_socket(self)

    @property
    def pending(self) -> int:
        """Datagrams buffered and not yet received."""
        return self._rx.size
