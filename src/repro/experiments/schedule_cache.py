"""Content-addressed memoisation of schedule construction.

The evaluation's outer loops rebuild DAS/SLP schedules far more often
than they strictly need to: serial-vs-parallel identity checks sweep
the same ``(topology, algorithm, parameters, seed)`` cells twice,
``scenario compare`` lowers many scenarios onto the same 11×11
grid with the same seeds, and the two panels of Figure 5 share every
protectionless cell.  Schedule building is deterministic in exactly
those inputs, so rebuilding is pure waste — ~10–15 % of a sweep run.

:class:`ScheduleCache` is a bounded LRU memo keyed *by content*, not by
object identity: :func:`topology_fingerprint` hashes the node set, the
edge set and the sink, so two independently constructed topologies with
the same structure share cache entries, and changing a single link
changes the key.  The designated source joins the key only for
algorithms whose schedule depends on it (SLP's decoy path); the
protectionless DAS schedule is source-independent, which is what lets
``scenario compare`` share one schedule across multi-source variants of
the same grid.

Each process holds one default cache (:func:`default_schedule_cache`):
the parent's for serial sweeps, one per worker for parallel sweeps
(workers populate theirs on first use and keep it across chunks).
Hit/miss counters make the cache observable (the CLI prints a one-line
summary), and ``ExperimentConfig(use_schedule_cache=False)`` or the
process-wide :func:`configure_schedule_cache` switch it off for
bisection.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..core import Schedule
from ..errors import invalid_field
from ..topology import Topology

#: Default bound on retained schedules.  Entries are full Schedule
#: objects (two dicts over the node set), so even 21×21 grids keep the
#: default cache within a few megabytes.
DEFAULT_MAXSIZE = 256


def topology_fingerprint(topology: Topology) -> str:
    """A content hash of a topology's communication structure.

    Covers the node set, the (canonicalised) edge set and the sink —
    everything schedule construction reads apart from the designated
    source, which :func:`schedule_key` mixes in only when the algorithm
    depends on it.  Two topologies with identical structure fingerprint
    identically regardless of name or construction path; adding,
    removing or rewiring any link changes the fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr(topology.nodes).encode())
    digest.update(repr(topology.edges).encode())
    digest.update(repr(topology.sink).encode())
    return digest.hexdigest()


def schedule_key(
    fingerprint: str,
    topology: Topology,
    algorithm: str,
    seed: int,
    search_distance: int,
    use_distributed: bool,
    parameters: object,
    noise: object,
    seeded: bool = True,
    jitter: bool = True,
    setup_kernel: Optional[str] = None,
) -> Tuple:
    """The cache key for one schedule build.

    ``fingerprint`` is the topology's content hash (hoisted out so
    callers can compute it once per sweep).  The source and the search
    distance join the key only for SLP (protectionless DAS ignores
    both), and the noise specification joins only for distributed
    builds (the centralised pipeline never draws from it) — omitting
    irrelevant inputs is what turns algorithm comparisons and
    multi-source scenario sweeps into cache hits.

    ``seeded`` declares whether the build draws any randomness from the
    seed.  A centralised protectionless build with jitter disabled is a
    pure function of the topology and parameters, so the seed leaves
    the key and a cold 30-seed sweep logs 1 miss + 29 hits instead of
    30 misses; every seeded build (jittered priorities, SLP tie-breaks,
    distributed message timing) keeps the seed in the key.

    ``jitter`` is itself a key component for centralised builds: the
    same seed produces different schedules with jitter on vs off (an
    SLP build keeps its seeded phase 2/3 tie-breaks either way but
    starts from a different Phase 1 baseline), so the two must never
    share an entry.  Distributed builds ignore the flag, and their key
    ignores it too.

    ``setup_kernel`` (the *resolved* engine of a distributed build,
    never ``None``-as-default) keys distributed entries by the engine
    that built them.  The engines are bit-identical, so sharing would
    be harmless for results — but someone selecting ``legacy`` is
    bisecting the fast kernel, and handing them a fast-built cache
    entry would defeat exactly that.  Centralised builds pass ``None``.
    """
    slp = algorithm != "protectionless"
    return (
        fingerprint,
        algorithm,
        seed if seeded else None,
        (topology.source if topology.has_source else None) if slp else None,
        search_distance if slp else None,
        use_distributed,
        jitter if not use_distributed else None,
        repr(parameters),
        repr(noise) if use_distributed else None,
        setup_kernel if use_distributed else None,
    )


class ScheduleCache:
    """A bounded LRU map from schedule keys to built :class:`Schedule`\\ s.

    Entries are immutable ``Schedule`` objects, safe to share between
    runs (the operational harness derives its own compressed copy).
    ``maxsize`` bounds retained entries; the least recently *used* entry
    is evicted first.  ``hits``/``misses`` count lookups for the
    observability surfaces (telemetry, CLI summary).
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise invalid_field(
                "ScheduleCache", "maxsize", maxsize, "needs room for one entry"
            )
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple, Schedule]" = OrderedDict()
        self._store = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.preloads = 0

    def attach_store(self, store) -> None:
        """Attach (or with ``None`` detach) a shared on-disk
        :class:`~repro.experiments.schedule_store.ScheduleStore` as the
        second cache tier.

        On an in-memory miss the store is consulted before building; a
        fetched schedule is installed in memory and counted as a
        *store hit*, not a miss — ``misses`` keeps meaning "a build
        happened here" and the stats the CLI reports stay truthful.
        Every build is published back write-through, so concurrent
        processes over the same topology dedup to one build.
        """
        self._store = store

    @property
    def store(self):
        """The attached on-disk store, or ``None``."""
        return self._store

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        """The retention bound."""
        return self._maxsize

    def get_or_build(self, key: Tuple, build: Callable[[], Schedule]) -> Schedule:
        """Return the cached schedule for ``key``, building on miss.

        Lookup order: in-memory LRU (``hits``), then the attached
        on-disk store if any (its ``hits`` surface as ``store_hits``),
        then an actual build (``misses`` — the counter means exactly
        "builds performed here").  Total lookups are therefore
        ``hits + store_hits + misses``.
        """
        entries = self._entries
        schedule = entries.get(key)
        if schedule is not None:
            self.hits += 1
            entries.move_to_end(key)
            return schedule
        if self._store is not None:
            schedule = self._store.get(key)
            if schedule is not None:
                self._install(key, schedule)
                return schedule
        self.misses += 1
        schedule = build()
        self._install(key, schedule)
        if self._store is not None:
            self._store.put(key, schedule)
        return schedule

    def _install(self, key: Tuple, schedule: Schedule) -> None:
        entries = self._entries
        entries[key] = schedule
        if len(entries) > self._maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def peek(self, key: Tuple) -> Optional[Schedule]:
        """A counter-neutral lookup: the cached schedule or ``None``.

        Does not bump hits/misses and does not refresh LRU recency —
        the parallel runner uses it to see which of a sweep's schedules
        are already built (to ship them to workers) without distorting
        the accounting the CLI reports.
        """
        return self._entries.get(key)

    def preload(self, entries: Dict[Tuple, Schedule]) -> None:
        """Seed the cache with already-built schedules, counter-neutrally.

        Worker processes call this with the entries the parent shipped
        in the chunk payload; the subsequent ``get_or_build`` lookups
        then count as ordinary hits (they are: the schedule exists and
        is reused), while the preload itself is neither a hit nor a
        miss — the worker never looked anything up to install it.  The
        ``preloads`` counter records each installed entry so shipped
        schedules stay visible without distorting the hit rate.
        """
        cache = self._entries
        for key, schedule in entries.items():
            cache[key] = schedule
            self.preloads += 1
            if len(cache) > self._maxsize:
                cache.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.preloads = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot of the counters (plus current size).

        ``store_hits``/``store_misses`` appear only while an on-disk
        store is attached; ``misses`` always equals builds performed.
        """
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "preloads": self.preloads,
            "size": len(self._entries),
        }
        if self._store is not None:
            counters["store_hits"] = self._store.hits
            counters["store_misses"] = self._store.misses
        return counters

    def summary(self) -> str:
        """One line for CLI output."""
        store_hits = self._store.hits if self._store is not None else 0
        total = self.hits + store_hits + self.misses
        ratio = (100.0 * (self.hits + store_hits) / total) if total else 0.0
        line = (
            f"schedule cache: {self.hits} hits / {self.misses} misses "
            f"({ratio:.0f}% hit rate), {len(self._entries)}/{self._maxsize} entries"
        )
        if self._store is not None:
            line += f", {store_hits} store hits"
        if self.evictions or self.preloads:
            line += f", {self.evictions} evictions, {self.preloads} preloads"
        return line


#: The per-process default cache (each worker process owns its own).
_DEFAULT_CACHE = ScheduleCache()
_ENABLED = True


def default_schedule_cache() -> ScheduleCache:
    """This process's shared schedule cache."""
    return _DEFAULT_CACHE


def default_cache_stats() -> Dict[str, int]:
    """Counter snapshot of the process-default cache
    (hits/misses/evictions/preloads/size)."""
    return _DEFAULT_CACHE.stats()


def reset_default_cache() -> None:
    """Drop the process-default cache's entries and counters, and
    detach any on-disk store.

    For test isolation and long-lived tooling sessions; sweeps never
    need it (the LRU bound caps retention).
    """
    _DEFAULT_CACHE.clear()
    _DEFAULT_CACHE.attach_store(None)


def schedule_cache_enabled() -> bool:
    """Whether runners consult the default cache (process-wide switch)."""
    return _ENABLED


#: Sentinel: "leave the store attachment as it is".
_KEEP_STORE = object()


def configure_schedule_cache(
    enabled: Optional[bool] = None, store: object = _KEEP_STORE
) -> None:
    """Process-wide cache configuration.

    ``enabled`` is the kill switch (the CLI's ``--no-schedule-cache``);
    ``store`` attaches a shared on-disk tier to the default cache — a
    :class:`~repro.experiments.schedule_store.ScheduleStore`, a path to
    create one at, or ``None`` to detach.  Only affects the *current*
    process — worker processes of a parallel sweep decide from the
    pickled ``ExperimentConfig.use_schedule_cache`` flag instead (and
    the service's shard workers attach their store explicitly).
    """
    global _ENABLED
    if enabled is not None:
        _ENABLED = enabled
    if store is not _KEEP_STORE:
        if store is not None and not hasattr(store, "get"):
            from .schedule_store import ScheduleStore

            store = ScheduleStore(store)
        _DEFAULT_CACHE.attach_store(store)
