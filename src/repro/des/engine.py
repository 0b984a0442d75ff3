"""The simulation engine: a calendar of events and the loop that drains it.

Typical use::

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Optional

from .events import (
    _NORMAL_KEY_BASE,
    _POOL_LIMIT,
    _PRIORITY_SHIFT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from .process import Process, ProcessGenerator
from .resources import Release

__all__ = ["Environment", "EmptySchedule", "StopSimulation", "tie_break_key"]

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_FNV_MASK = (1 << 64) - 1

class EmptySchedule(Exception):
    """Raised internally when the calendar runs dry."""


class StopSimulation(Exception):
    """Raised to terminate :meth:`Environment.run` early."""


def _fnv_fold(digest: int, text: str) -> int:
    """Fold ``text`` into a running 64-bit-masked FNV-1a digest."""
    for char in text:
        digest = ((digest ^ ord(char)) * _FNV_PRIME) & _FNV_MASK
    return digest


def _tie_prefix(seed: int) -> int:
    """The FNV-1a digest of ``f"{seed}:"`` — the per-seed constant part.

    Hashed once per :class:`Environment` (or per distinct seed through
    :func:`tie_break_key`) instead of re-mixing the seed's digits on
    every scheduled event.
    """
    return _fnv_fold(_FNV_OFFSET, f"{seed}:")


#: Memoised per-seed prefixes for the standalone :func:`tie_break_key`.
_PREFIX_CACHE: dict[int, int] = {}


def tie_break_key(seed: int, eid: int) -> tuple[int, int]:
    """Deterministic shuffle key for one calendar entry.

    An FNV-1a mix of ``(seed, eid)``: same-``(time, priority)`` entries
    sort by the hash instead of by insertion order, so each seed yields
    one fixed permutation of every tie.  The trailing ``eid`` keeps the
    key total even on hash collisions.

    The digest is bit-identical to hashing ``f"{seed}:{eid}"`` from
    scratch (the pre-optimization implementation): FNV-1a folds left to
    right, so the seed-and-colon prefix can be hashed once and only the
    ``eid`` digits folded per call.
    """
    prefix = _PREFIX_CACHE.get(seed)
    if prefix is None:
        prefix = _PREFIX_CACHE[seed] = _tie_prefix(seed)
    return (_fnv_fold(prefix, str(eid)), eid)


class Environment:
    """Execution environment for a single simulation run.

    Time is a float in *seconds* throughout this project (disk and network
    models convert from ms/µs at their boundaries).

    Calendar entries sort by ``(time, priority, eid)`` — equal-time,
    equal-priority events run in the order they were scheduled.  Passing
    ``tie_break_seed`` replaces the ``eid`` component with a seeded hash
    of it, deterministically shuffling every same-``(time, priority)``
    tie: the schedule-perturbation harness (:mod:`repro.check.perturb`)
    runs the same scenario under several seeds and asserts the metrics do
    not move, which proves no result leans on tie-break order.

    **Cohort dispatch.**  Most events in a hot run are scheduled *at the
    current timestamp* (resource grants, releases, ``succeed()`` fan-out):
    they join the same-time cohort the engine is already draining.  With
    ``cohort_dispatch=True`` (the default) and no tie shuffle or schedule
    hooks, those events skip the heap entirely — no key packing, no
    entry tuple, no sift — and land on an append-ordered ready deque.
    The drain order is provably the heap order: every ready entry carries
    a larger event id than every same-time heap entry (heap entries at
    the current time were necessarily scheduled earlier, or are urgent
    and outrank normal events anyway), so "heap first while its top is at
    ``now``, then the deque in append order" reproduces ``(time,
    priority, eid)`` exactly.  ``cohort_dispatch=False`` forces every
    event through the one-heap reference path — the A/B side of
    ``benchmarks/bench_kernel_batched.py``'s bit-identity check — and
    attaching an ``on_schedule`` observer or a tie-break seed disables
    the cohort fast path implicitly, exactly as pooling is disabled, so
    detectors always observe the fully ordered, individually dispatched
    engine.
    """

    #: Events scheduled with urgent priority run before normal events that
    #: share the same timestamp (used for interrupts).
    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: float = 0.0,
                 tie_break_seed: Optional[int] = None,
                 cohort_dispatch: bool = True):
        self._now = float(initial_time)
        self._queue: list = []
        # Same-timestamp cohort: events scheduled at the current time by
        # a fast path wait here in append (= eid) order instead of in the
        # heap.  Only ever non-empty while _schedule_fast holds; an
        # observer attaching mid-run spills it back into the heap (see
        # _refresh_fast_flags).
        self._ready: deque = deque()
        self._cohort = bool(cohort_dispatch)
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Free lists of processed Timeout / Release / Request objects
        # (see timeout(), Resource.release() and Resource.request()).
        self._timeout_pool: list = []
        self._release_pool: list = []
        self._request_pool: list = []
        # Observers (see attach()) and their hooks, one list per hook
        # name.  All lists are empty in normal runs so each emitting
        # site pays only a truthiness test.
        self._observers: list = []
        self._step_hooks: list = []
        self._schedule_hooks: list = []
        self._resource_hooks: list = []
        self._access_hooks: list = []
        self._transfer_hooks: list = []
        self._alias_hooks: list = []
        # The setter below also caches the seed-dependent half of
        # tie_break_key so schedule() folds only the eid digits per event
        # (None = ties sort by raw eid, the default contract), and
        # refreshes the two derived fast-path flags:
        #   _schedule_fast — triggering code may push a
        #       (now+delay, _NORMAL_KEY_BASE+eid, event) entry directly,
        #       bypassing schedule(): no shuffle, no schedule hooks.
        #   _unmonitored — no step/schedule/resource/access hooks at
        #       all, so event pooling, token grants and inline process
        #       completion are allowed.
        # Both are recomputed on every attach/detach, turning several
        # per-event list-truthiness tests into one slot read.
        self.tie_break_seed = tie_break_seed

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def tie_break_seed(self) -> Optional[int]:
        """Seed of the deterministic tie shuffle (None = insertion order)."""
        return self._tie_break_seed

    @tie_break_seed.setter
    def tie_break_seed(self, seed: Optional[int]) -> None:
        self._tie_break_seed = seed
        self._tie_seed_prefix = None if seed is None else _tie_prefix(seed)
        self._refresh_fast_flags()

    def _refresh_fast_flags(self) -> None:
        """Recompute the cached hot-path gates (see __init__)."""
        self._schedule_fast = (self._cohort
                               and self._tie_seed_prefix is None
                               and not self._schedule_hooks)
        self._unmonitored = not (self._step_hooks
                                 or self._schedule_hooks
                                 or self._resource_hooks
                                 or self._access_hooks)
        # Event-span coalescing (a process replacing a chain of k
        # deterministic timeouts with one computed completion) demands
        # the strictest gate of all: any hook — including the transfer
        # ledger's and the aliasing sanitizer's, which deliberately
        # leave _unmonitored alone — must see the chain fully expanded,
        # event by event.
        self._span_fast = (self._schedule_fast
                           and self._unmonitored
                           and not self._transfer_hooks
                           and not self._alias_hooks)
        if not self._schedule_fast and self._ready:
            # An observer (or shuffle seed) arrived while a cohort was
            # pending: spill it into the heap so the one-queue reference
            # path sees every event.  Fresh ids keep append order and
            # stay above every same-time key already in the heap.
            ready = self._ready
            queue = self._queue
            now = self._now
            while ready:
                eid = self._eid = self._eid + 1
                heappush(queue, (now, _NORMAL_KEY_BASE + eid,
                                 ready.popleft()))

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- observers ----------------------------------------------------------

    def attach(self, observer) -> None:
        """Register ``observer``: its ``on_*`` hooks that are not None,
        read now, are called from then on (attaching twice is a no-op).

        ``on_step(when, event)`` runs as each event is popped, before the
        clock advances, so it may veto a non-monotonic timestamp by
        raising; ``on_schedule(event, active_process)`` as each event is
        calendared (``active_process`` is None outside process segments);
        ``on_resource(action, resource, request)`` on every Resource
        ``"acquire"`` and ``"release"``; ``on_access(obj, label,
        is_write)`` on every instrumented Resource/Store mutation;
        ``on_transfer(kind, **info)`` on every data-path accounting
        event; ``on_alias(kind, buffer)`` on every buffer-lifecycle
        event.  docs/ARCHITECTURE.md tabulates the fast paths each hook
        switches off.
        """
        if not any(known is observer for known in self._observers):
            self._observers.append(observer)
            self._refresh_observers()

    def detach(self, observer) -> None:
        """Unregister ``observer`` (no-op if it is not attached)."""
        self._observers = [known for known in self._observers
                           if known is not observer]
        self._refresh_observers()

    def _refresh_observers(self) -> None:
        """Rebuild every per-hook list in place, then the fast flags.

        In place, so the aliases :meth:`run` binds to locals stay live
        across an attach or detach from inside the run.
        """
        for name, hooks in (("on_step", self._step_hooks),
                            ("on_schedule", self._schedule_hooks),
                            ("on_resource", self._resource_hooks),
                            ("on_access", self._access_hooks),
                            ("on_transfer", self._transfer_hooks),
                            ("on_alias", self._alias_hooks)):
            hooks[:] = [hook for hook in (getattr(observer, name, None)
                                          for observer in self._observers)
                        if hook is not None]
        self._refresh_fast_flags()

    def _notify_resource(self, action: str, resource, request) -> None:
        for hook in self._resource_hooks:
            hook(action, resource, request)

    def _notify_access(self, obj, label: str, is_write: bool) -> None:
        for hook in self._access_hooks:
            hook(obj, label, is_write)

    def _notify_transfer(self, kind: str, **info) -> None:
        for hook in self._transfer_hooks:
            hook(kind, **info)

    def _notify_alias(self, kind: str, buffer) -> None:
        for hook in self._alias_hooks:
            hook(kind, buffer)

    # -- event factories --------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Processed Timeouts are recycled through a small free list: once a
        Timeout has fired and its callbacks have run, a later ``timeout()``
        call may return the same object re-armed.  Holding a reference to
        a fired Timeout and inspecting it after the simulation has moved
        on is therefore unsupported (see docs/PERFORMANCE.md).  Recycling
        is suspended while ``_unmonitored`` is clear, since detectors key
        state by event identity.
        """
        pool = self._timeout_pool
        if pool and self._unmonitored:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            # Pooled instances arrive with an empty callbacks list (see
            # the run-loop recycler), so re-arming writes four slots and
            # allocates nothing.
            # A processed successful Timeout already has _ok True and
            # _defused False; only delay and value change between lives.
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            # No hooks to notify (checked above); push directly.
            if self._schedule_fast:
                now = self._now
                when = now + delay
                eid = self._eid = self._eid + 1
                if when == now:
                    # Same-timestamp cohort: join the ready deque.
                    self._ready.append(timeout)
                else:
                    heappush(self._queue,
                             (when, _NORMAL_KEY_BASE + eid, timeout))
            else:
                self.schedule(timeout, delay=delay)
            return timeout
        return Timeout(self, delay, value)

    @property
    def span_coalescing(self) -> bool:
        """True when event-span coalescing is currently permitted.

        Processes about to emit a deterministic chain of k timeouts
        consult this: when True they may pre-draw the k service
        times in reference order and schedule one completion via
        :meth:`timeout_at`; when False (any observer hook, tie-break
        shuffling, or ``cohort_dispatch=False``) they must expand the
        chain event for event so every observer sees the reference
        sequence.
        """
        return self._span_fast

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A Timeout at the *absolute* calendar time ``when``.

        The landing point for event-span coalescing: a chain of k
        timeouts reaches ``((now + s1) + s2) ... + sk`` under float
        accumulation, and scheduling ``timeout(t_final - now)`` would
        round differently (``now + (t_final - now) != t_final`` in
        general).  Callers accumulate ``when`` with the exact reference
        additions and this places the event at that exact float, keeping
        the coalesced completion bit-identical to the expanded chain's
        last event.  Pooling and recycling follow :meth:`timeout`.
        """
        now = self._now
        if when < now:
            raise ValueError(f"timeout_at({when}) is in the past (now={now})")
        pool = self._timeout_pool
        if pool and self._unmonitored:
            timeout = pool.pop()
            timeout.delay = when - now
            timeout._value = value
            if self._schedule_fast:
                eid = self._eid = self._eid + 1
                if when == now:
                    self._ready.append(timeout)
                else:
                    heappush(self._queue,
                             (when, _NORMAL_KEY_BASE + eid, timeout))
            else:
                self._schedule_at(timeout, when)
            return timeout
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._defused = False
        timeout._stale = None
        timeout.delay = when - now
        timeout._ok = True
        timeout._value = value
        self._schedule_at(timeout, when)
        return timeout

    def process(self, generator: ProcessGenerator,
                immediate: bool = False) -> Process:
        """Register ``generator`` as a new process starting now.

        By default the process starts from an initialisation event, so
        start order follows creation order.  ``immediate=True`` runs its
        first segment inside the caller's dispatch instead — a spawned
        ``yield from``, one calendar entry cheaper.
        """
        return Process(self, generator, immediate)

    def all_of(self, events) -> AllOf:
        """Event that fires when every event in ``events`` has succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires when any event in ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Place a triggered event on the calendar ``delay`` seconds ahead.

        Calendar entries are ``(time, key, event)``: ``key`` packs the
        priority above the event id (or above the seeded FNV digest and
        id when tie-break shuffling is on), so entries sort by
        ``(time, priority, tie)`` with a single integer comparison.
        """
        eid = self._eid = self._eid + 1
        if self._schedule_hooks:
            for hook in self._schedule_hooks:
                hook(event, self._active_process)
        prefix = self._tie_seed_prefix
        if prefix is None:
            when = self._now + delay
            if (when == self._now and priority == 1
                    and self._schedule_fast):
                # Same-timestamp, normal-priority, no hooks: the event
                # joins the cohort currently being drained.
                self._ready.append(event)
                return
            key = (priority << _PRIORITY_SHIFT) + eid
        else:
            when = self._now + delay
            key = (priority, _fnv_fold(prefix, str(eid)), eid)
        heappush(self._queue, (when, key, event))

    def _schedule_at(self, event: Event, when: float,
                     priority: int = PRIORITY_NORMAL) -> None:
        """:meth:`schedule` at an absolute time (no ``now + delay`` round).

        Only :meth:`timeout_at` routes here; the relative-delay
        :meth:`schedule` stays the single hot entry point.
        """
        eid = self._eid = self._eid + 1
        if self._schedule_hooks:
            for hook in self._schedule_hooks:
                hook(event, self._active_process)
        prefix = self._tie_seed_prefix
        if prefix is None:
            if (when == self._now and priority == 1
                    and self._schedule_fast):
                self._ready.append(event)
                return
            key = (priority << _PRIORITY_SHIFT) + eid
        else:
            key = (priority, _fnv_fold(prefix, str(eid)), eid)
        heappush(self._queue, (when, key, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            # A pending cohort runs at the current time unless the heap
            # holds something even earlier (a past-time artifact).
            if self._queue and self._queue[0][0] < self._now:
                return self._queue[0][0]
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the calendar."""
        queue = self._queue
        if self._ready and not (queue and queue[0][0] <= self._now):
            event = self._ready.popleft()
            when = self._now
        else:
            try:
                when, _, event = heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
        if self._step_hooks:
            for hook in self._step_hooks:
                hook(when, event)
        if when < self._now:  # pragma: no cover - heap guarantees ordering
            raise RuntimeError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"unhandled failed event: {event!r}")
        # Recycle as the run loop does: exact Timeout/Release instances
        # only (subclasses may carry extra state), bounded, and never
        # while observed — detectors key per-event state by identity.
        cls = type(event)
        pool = (self._timeout_pool if cls is Timeout
                else self._release_pool if cls is Release else None)
        if (pool is not None and self._unmonitored
                and len(pool) < _POOL_LIMIT):
            event.callbacks = []  # pool invariant: empty list, not None
            pool.append(event)

    # -- run loop -----------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the calendar is empty.  A number runs until
            simulated time reaches it.  An :class:`Event` runs until that
            event is processed and returns its value.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(self._stop_callback)
            elif stop_event.triggered:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) must not be in the past "
                    f"(now={self._now})"
                )

        # The drain loop is step() inlined: cohort dispatch first (pop
        # the ready deque while the heap has nothing due), then one
        # heappop to refill or advance, with the queue, the deque, the
        # step hooks and the event pools bound to locals.  attach() and
        # detach() rebuild the hook lists in place, so the aliases stay
        # live; the pooling gate is re-read per event for the same
        # reason.  Ready
        # entries skip the per-event clock write — their timestamp *is*
        # the current time — and the heap-top guard before each cohort
        # pop keeps urgent arrivals (smaller key, scheduled mid-cohort)
        # ahead of the rest of the cohort, preserving exact (time,
        # priority, eid) order.
        queue = self._queue
        ready = self._ready
        ready_pop = ready.popleft
        step_hooks = self._step_hooks
        timeout_pool = self._timeout_pool
        release_pool = self._release_pool
        now = self._now
        try:
            while True:
                if ready:
                    if queue and queue[0][0] <= now:
                        when, _, event = heappop(queue)
                        if when != now:
                            self._now = now = when
                    else:
                        event = ready_pop()
                        when = now
                elif queue:
                    when = queue[0][0]
                    if when > stop_time:
                        self._now = stop_time
                        return None
                    when, _, event = heappop(queue)
                    self._now = now = when
                else:
                    if stop_time != float("inf"):
                        self._now = stop_time
                        return None
                    raise EmptySchedule()
                if step_hooks:
                    for hook in step_hooks:
                        hook(when, event)
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._ok:
                    cls = type(event)
                    if (cls is Timeout
                            and len(timeout_pool) < _POOL_LIMIT
                            and self._unmonitored):
                        # Pool invariant: a pooled Timeout carries an
                        # *empty* callbacks list, recycled from the one
                        # just drained, so timeout() re-arms it without
                        # allocating.
                        callbacks.clear()
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                    elif (cls is Release
                            and len(release_pool) < _POOL_LIMIT
                            and self._unmonitored):
                        callbacks.clear()
                        event.callbacks = callbacks
                        release_pool.append(event)
                elif not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(f"unhandled failed event: {event!r}")
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                raise RuntimeError(
                    "run(until=event) but the event was never triggered and "
                    "the schedule is empty"
                ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event._defused = False  # let step() re-raise the failure
