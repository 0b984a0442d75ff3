"""The §5 discrete-event model: Swift on a gigabit token ring.

§5.1, verbatim mechanics:

* **read** — "a small request packet is multicast to the storage agents.
  The client then waits for the data to be transmitted by the storage
  agents."  Each agent holds its disk for its share of the blocks
  (multiblock requests complete before the resource is relinquished); "once
  a block has been read from disk it is scheduled for transmission over the
  network."
* **write** — "transmits the data to each of the storage agents.  Once the
  blocks have been transmitted the client awaits an acknowledgement from
  the storage agents that the data have been written to disk."
* per-packet cost: "1,500 instructions plus one instruction per byte in
  the packet" on 100-MIPS hosts; transmitting takes protocol processing,
  token acquisition, and transmission time;
* no caching, no parity computation, no resource preallocation, no storage
  mediator — exactly the stated simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..des import Environment, OnlineStats, StreamFactory
from ..simdisk import Disk
from ..simnet import Host, TokenRing, mips_cost_model
from .workload import SimConfig

__all__ = ["SwiftSimModel", "SimResult"]

#: Wire size of a request / acknowledgement packet.
CONTROL_PACKET_SIZE_BYTES = 64

#: Pre-suffix-convention alias.
CONTROL_PACKET_SIZE = CONTROL_PACKET_SIZE_BYTES


@dataclass(frozen=True)
class SimResult:
    """What one simulation run produced."""

    config: SimConfig
    completed: int
    mean_completion_s: float
    stdev_completion_s: float
    max_completion_s: float
    duration_s: float
    mean_interarrival_s: float
    client_data_rate: float      # bytes/second observed by the clients
    mean_disk_utilization: float
    ring_utilization: float
    deadline_misses: int = 0
    deadline_total: int = 0
    p99_completion_s: float = 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of measured requests that blew their deadline."""
        if not self.deadline_total:
            return 0.0
        return self.deadline_misses / self.deadline_total

    @property
    def sustainable(self) -> bool:
        """The paper's criterion: completion time <= interarrival time."""
        return self.mean_completion_s <= self.mean_interarrival_s


class SwiftSimModel:
    """One simulation run of the token-ring Swift.

    ``storage_factory(env, index, streams)`` may supply any Disk-duck-typed
    storage device per agent — e.g. :class:`repro.simdisk.raid.RaidArray`
    for the §6 "collection of Raids" configuration.  The default is the
    configured plain disk.

    ``cohort_dispatch=False`` forces the engine's one-heap reference
    scheduler; results are bit-identical either way (the A/B contract
    ``benchmarks/bench_kernel_batched.py`` measures and pins).
    """

    def __init__(self, config: SimConfig, storage_factory=None,
                 trace=None, cohort_dispatch: bool = True):
        self.config = config
        self.env = Environment(tie_break_seed=config.tie_break_seed,
                               cohort_dispatch=cohort_dispatch)
        self.streams = StreamFactory(config.seed)
        cost = mips_cost_model(config.host_mips)
        self.ring = TokenRing(self.env, "ring",
                              bits_per_second=config.ring_bits_per_second)
        self.clients = [
            Host(self.env, f"client{i}", send_cost=cost, recv_cost=cost)
            for i in range(config.num_clients)
        ]
        self.trace = list(trace) if trace is not None else None
        if storage_factory is None:
            def storage_factory(env, index, streams):
                return Disk(env, config.disk,
                            stream=streams.stream(f"disk/{index}"))
        self.agents: list[tuple[Host, Disk]] = []
        for index in range(config.num_disks):
            host = Host(self.env, f"agent{index}",
                        send_cost=cost, recv_cost=cost)
            disk = storage_factory(self.env, index, self.streams)
            self.agents.append((host, disk))
        self._arrivals = self.streams.stream("arrivals")
        self._mix = self.streams.stream("read-write-mix")
        self._class_mix = self.streams.stream("deadline-class")
        self._completions = OnlineStats()
        self._completed = 0
        self._started = 0
        self._bytes_delivered = 0
        self._next_start_agent = 0
        self._window_start: float | None = None
        self._window_end = 0.0
        self._deadline_misses = 0
        self._deadline_total = 0
        self._completion_samples: list[float] = []

    # -- warm-start -------------------------------------------------------------

    def warm_reset(self, config: SimConfig) -> "SwiftSimModel":
        """Re-arm the built deployment for a fresh run under ``config``.

        Only valid when ``config`` shares this model's deployment digest
        (:func:`repro.sim.cache.deployment_key`): same disk fleet, hosts,
        ring and master seed, so that rebuilding from scratch would
        produce an identical object graph.  Engine clock and calendar,
        resource queues, utilization windows, random streams and all
        counters are rewound in place — every object identity survives —
        and ``run()`` then reproduces the cold-built result byte for
        byte (pinned by tests/sim/test_warm_start.py).  Trace replays
        are not supported (they are never cached or warm-started).

        Storage devices supplied by a ``storage_factory`` must implement
        the Disk duck-type's ``reset()``; the sweep entry points only
        enable warm-start for plain runs, matching the cache contract.
        """
        if self.trace is not None:
            raise RuntimeError("trace replays cannot be warm-started")
        self.config = config
        # A horizon-stopped run leaves suspended process generators
        # behind.  None of the request path's generators has a `with`
        # block or a `finally` clause, so whenever the collector reaps
        # them it runs nothing against these components (pinned by
        # tests/sim/test_warm_start.py).
        self.env.reset()
        self.env.tie_break_seed = config.tie_break_seed
        self.streams.reset()
        self.ring.reset()
        for client in self.clients:
            client.reset()
        for host, disk in self.agents:
            host.reset()
            disk.reset()
        self._completions.reset()
        self._completed = 0
        self._started = 0
        self._bytes_delivered = 0
        self._next_start_agent = 0
        self._window_start = None
        self._window_end = 0.0
        self._deadline_misses = 0
        self._deadline_total = 0
        self._completion_samples.clear()
        return self

    # -- running ---------------------------------------------------------------

    def run(self) -> SimResult:
        """Generate, serve and measure the configured number of requests."""
        config = self.config
        done = self.env.event()
        self.env.process(self._generator(done))
        # Guard against saturated configurations that would never finish:
        # cap the horizon at several times the nominal span.
        nominal_span = config.num_requests / config.arrival_rate
        self.env.run(until=self._first_of(done, nominal_span * 8.0))
        duration = self.env.now
        completed = self._completions.count
        mean = self._completions.mean if completed else float("inf")
        stdev = self._completions.stdev if completed > 1 else 0.0
        maximum = self._completions.maximum if completed else float("inf")
        disk_utils = [disk.utilization() for _, disk in self.agents]
        return SimResult(
            config=config,
            completed=completed,
            mean_completion_s=mean,
            stdev_completion_s=stdev,
            max_completion_s=maximum,
            duration_s=duration,
            mean_interarrival_s=1.0 / config.arrival_rate,
            client_data_rate=self._measured_data_rate(),
            mean_disk_utilization=sum(disk_utils) / len(disk_utils),
            ring_utilization=self.ring.utilization(),
            deadline_misses=self._deadline_misses,
            deadline_total=self._deadline_total,
            p99_completion_s=self._percentile(0.99),
        )

    def _percentile(self, fraction: float) -> float:
        """Completion-time percentile over the measured samples."""
        if not self._completion_samples:
            return float("inf")
        ordered = sorted(self._completion_samples)
        index = min(len(ordered) - 1,
                    max(0, int(fraction * len(ordered)) - 1))
        return ordered[index]

    def _measured_data_rate(self) -> float:
        """Bytes/second over the measured window (warmup excluded)."""
        if self._window_start is None:
            return 0.0
        window = self._window_end - self._window_start
        if window <= 0:
            return 0.0
        return self._bytes_delivered / window

    def _first_of(self, event, horizon_s: float):
        guard = self.env.timeout(horizon_s)
        return self.env.any_of([event, guard])

    # -- workload ---------------------------------------------------------------

    def _generator(self, done):
        config = self.config
        target = config.num_requests + config.warmup_requests
        if self.trace is not None:
            # Trace replay (§6.1.1 variable loads): arrival times and the
            # read/write mix come from the records.
            for record in self.trace[:target]:
                delay = record.time_s - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                client = self.clients[self._started % len(self.clients)]
                self.env.process(
                    self._request(client, record.is_read, done))
                self._started += 1
            return
        while self._started < target:
            yield self.env.timeout(
                self._arrivals.exponential(1.0 / config.arrival_rate))
            client = self.clients[self._started % len(self.clients)]
            is_read = self._mix.uniform(0.0, 1.0) < config.read_fraction
            self.env.process(self._request(client, is_read, done))
            self._started += 1
        # 'done' fires from the completion side; keep the generator alive
        # so the run() horizon guard decides when to stop if saturated.

    def _request(self, client: Host, is_read: bool, done):
        config = self.config
        arrived = self.env.now
        is_realtime = (config.deadline_s is not None and
                       self._class_mix.uniform(0.0, 1.0)
                       < config.realtime_fraction)
        priority = self._disk_priority(arrived, is_realtime)
        start_agent = self._next_start_agent
        self._next_start_agent = (start_agent + 1) % config.num_disks
        shares = config.blocks_per_agent(start_agent)
        if is_read:
            yield from self._read(client, shares, priority)
        else:
            yield from self._write(client, shares, priority)
        self._completed += 1
        if self._completed > config.warmup_requests:
            if self._window_start is None:
                self._window_start = arrived
            self._window_end = self.env.now
            self._completions.add(self.env.now - arrived)
            self._completion_samples.append(self.env.now - arrived)
            self._bytes_delivered += config.request_size
            if is_realtime:
                self._deadline_total += 1
                if self.env.now - arrived > config.deadline_s:
                    self._deadline_misses += 1
        if (self._completions.count >= config.num_requests
                and not done.triggered):
            done.succeed()

    # -- read path ------------------------------------------------------------------

    def _disk_priority(self, arrived: float, is_realtime: bool) -> float:
        """Disk queue priority for a request that arrived at ``arrived``.

        FIFO keeps the §5 model (ties broken by queue order); EDF orders
        by absolute deadline — tight for the real-time class, loose for
        background traffic — the §6.1.2 real-time extension.
        """
        config = self.config
        if config.disk_scheduling != "edf" or config.deadline_s is None:
            return 0.0
        deadline = config.deadline_s
        if not is_realtime:
            deadline *= config.background_deadline_factor
        return arrived + deadline

    def _read(self, client: Host, shares: list[int], priority: float = 0.0):
        env = self.env
        ring = self.ring
        # Multicast the small request: one packet on the ring.
        yield from client.consume_cpu(client.send_cost.time(CONTROL_PACKET_SIZE))
        yield from ring.occupy(ring.transmission_time(CONTROL_PACKET_SIZE))
        servers = [
            env.process(self._agent_read(index, blocks, client, priority),
                        immediate=True)
            for index, blocks in enumerate(shares) if blocks
        ]
        for server in servers:
            yield server

    def _agent_read(self, index: int, blocks: int, client: Host,
                    priority: float = 0.0):
        env = self.env
        host, disk = self.agents[index]
        unit = self.config.transfer_unit
        yield from host.consume_cpu(host.recv_cost.time(CONTROL_PACKET_SIZE))
        spindle = disk.resource
        grant = None if spindle.try_acquire() else spindle.request(priority)
        if grant is not None:
            yield grant
        disk.monitor.busy()
        # Reads never coalesce: each block completion starts a network
        # transmission at its own timestamp.
        transmissions = []
        for _ in range(blocks):
            yield env.timeout(disk.block_service_time(unit))
            disk.blocks_served += 1
            disk.bytes_served += unit
            # "Once a block has been read from disk it is scheduled for
            # transmission over the network."
            transmissions.append(env.process(
                self._send_block(host, client, unit), immediate=True))
        self._release_spindle(disk, grant)
        for transmission in transmissions:
            yield transmission

    def _send_block(self, host: Host, client: Host, size: int):
        ring = self.ring
        yield from host.consume_cpu(host.send_cost.time(size))
        yield from ring.occupy(ring.transmission_time(size))
        yield from client.consume_cpu(client.recv_cost.time(size))

    @staticmethod
    def _release_spindle(disk: Disk, grant) -> None:
        if disk.resource.queue_length == 0:
            disk.monitor.idle()
        if grant is None:
            disk.resource.release_slot()
        else:
            disk.resource.release_quiet(grant)

    # -- write path ------------------------------------------------------------------

    def _write(self, client: Host, shares: list[int], priority: float = 0.0):
        env = self.env
        ring = self.ring
        unit = self.config.transfer_unit
        send_s = client.send_cost.time(unit)
        wire_s = ring.transmission_time(unit)
        agents_done = []
        # "A write request transmits the data to each of the storage
        # agents" — every block pays client CPU and ring time serially at
        # the client, arriving at its agent as it is sent.
        for index, blocks in enumerate(shares):
            if not blocks:
                continue
            for _ in range(blocks):
                yield from client.consume_cpu(send_s)
                yield from ring.occupy(wire_s)
            agents_done.append(env.process(
                self._agent_write(index, blocks, client, priority),
                immediate=True))
        # "Once the blocks have been transmitted the client awaits an
        # acknowledgement from the storage agents that the data have been
        # written to disk."
        for agent in agents_done:
            yield agent

    def _agent_write(self, index: int, blocks: int, client: Host,
                     priority: float = 0.0):
        env = self.env
        ring = self.ring
        host, disk = self.agents[index]
        unit = self.config.transfer_unit
        recv_s = host.recv_cost.time(unit)
        for _ in range(blocks):
            yield from host.consume_cpu(recv_s)
        spindle = disk.resource
        grant = None if spindle.try_acquire() else spindle.request(priority)
        if grant is not None:
            yield grant
        disk.monitor.busy()
        if env._span_fast:
            # Span coalescing: the B blocks hit the platter back to back
            # under one spindle hold, so their service times are drawn up
            # front in stream order (only the spindle holder draws the
            # disk's stream) and land as one completion at the exactly
            # accumulated time.
            when = env.now
            for _ in range(blocks):
                when += disk.block_service_time(unit)
            yield env.timeout_at(when)
            disk.blocks_served += blocks
            disk.bytes_served += blocks * unit
        else:
            for _ in range(blocks):
                yield env.timeout(disk.block_service_time(unit))
                disk.blocks_served += 1
                disk.bytes_served += unit
        self._release_spindle(disk, grant)
        # The acknowledgement.
        yield from host.consume_cpu(host.send_cost.time(CONTROL_PACKET_SIZE))
        yield from ring.occupy(ring.transmission_time(CONTROL_PACKET_SIZE))
        yield from client.consume_cpu(client.recv_cost.time(CONTROL_PACKET_SIZE))
