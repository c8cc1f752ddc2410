"""The content-addressed schedule cache: keying, LRU bounds, counters,
and its integration with the experiment runner.

The load-bearing properties: the key is pinned to topology *content*
(mutating one link invalidates), irrelevant inputs stay out of the key
(protectionless schedules are shared across source placements, which is
what makes ``scenario compare`` hit), and a cached sweep is
bit-identical to an uncached one.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    ScheduleCache,
    configure_schedule_cache,
    default_cache_stats,
    default_schedule_cache,
    reset_default_cache,
    schedule_cache_enabled,
    schedule_key,
    topology_fingerprint,
)
from repro.topology import GridTopology, Topology


def _key(topology, config, seed):
    return schedule_key(
        topology_fingerprint(topology),
        topology,
        config.algorithm,
        seed,
        config.search_distance,
        config.use_distributed,
        config.parameters,
        config.noise,
        seeded=config.seeded_schedule,
        jitter=config.schedule_jitter,
    )


@pytest.fixture
def restore_default_cache():
    """Leave the process-default cache configuration as we found it."""
    yield
    configure_schedule_cache(enabled=True)


class TestTopologyFingerprint:
    def test_same_content_same_fingerprint(self):
        assert topology_fingerprint(GridTopology(5)) == topology_fingerprint(
            GridTopology(5)
        )

    def test_mutating_a_link_invalidates(self, grid5):
        graph = nx.Graph(grid5.graph)
        graph.remove_edge(0, 1)
        mutated = Topology(graph, sink=grid5.sink, source=0, name=grid5.name)
        assert topology_fingerprint(grid5) != topology_fingerprint(mutated)

    def test_sink_is_part_of_the_content(self, grid5):
        moved = Topology(nx.Graph(grid5.graph), sink=0, source=12, name=grid5.name)
        assert topology_fingerprint(grid5) != topology_fingerprint(moved)

    def test_name_is_not_content(self, grid5):
        renamed = Topology(
            nx.Graph(grid5.graph), sink=grid5.sink, source=0, name="other"
        )
        assert topology_fingerprint(grid5) == topology_fingerprint(renamed)


class TestScheduleKey:
    def test_protectionless_ignores_source_and_search_distance(self, grid5):
        cfg = ExperimentConfig(algorithm="protectionless", repeats=1)
        resourced = grid5.with_source(3)
        assert _key(grid5, cfg, 0) == _key(resourced, cfg, 0)
        assert _key(grid5, cfg, 0) == _key(
            grid5, ExperimentConfig(algorithm="protectionless", search_distance=5, repeats=1), 0
        )

    def test_slp_keyed_by_source_and_search_distance(self, grid5):
        cfg = ExperimentConfig(algorithm="slp", search_distance=2, repeats=1)
        assert _key(grid5, cfg, 0) != _key(grid5.with_source(3), cfg, 0)
        wider = ExperimentConfig(algorithm="slp", search_distance=3, repeats=1)
        assert _key(grid5, cfg, 0) != _key(grid5, wider, 0)

    def test_seed_and_link_mutations_invalidate(self, grid5):
        cfg = ExperimentConfig(repeats=1)
        assert _key(grid5, cfg, 0) != _key(grid5, cfg, 1)
        graph = nx.Graph(grid5.graph)
        graph.remove_edge(0, 1)
        mutated = Topology(graph, sink=grid5.sink, source=0)
        assert _key(grid5, cfg, 0) != _key(mutated, cfg, 0)

    def test_noise_only_keys_distributed_builds(self, grid5):
        casino = ExperimentConfig(repeats=1, noise="casino")
        ideal = ExperimentConfig(repeats=1, noise="ideal")
        assert _key(grid5, casino, 0) == _key(grid5, ideal, 0)
        casino_d = ExperimentConfig(repeats=1, noise="casino", use_distributed=True)
        ideal_d = ExperimentConfig(repeats=1, noise="ideal", use_distributed=True)
        assert _key(grid5, casino_d, 0) != _key(grid5, ideal_d, 0)
        assert _key(grid5, casino, 0) != _key(grid5, casino_d, 0)

    def test_unseeded_builds_drop_the_seed_from_the_key(self, grid5):
        """A jitter-free centralised protectionless build is a pure
        function of the topology: every seed maps to one key."""
        canonical = ExperimentConfig(repeats=1, schedule_jitter=False)
        assert not canonical.seeded_schedule
        assert _key(grid5, canonical, 0) == _key(grid5, canonical, 29)
        # Any source of randomness keeps the seed in the key.
        jittered = ExperimentConfig(repeats=1)
        assert _key(grid5, jittered, 0) != _key(grid5, jittered, 1)
        slp = ExperimentConfig(
            algorithm="slp", repeats=1, schedule_jitter=False
        )
        assert slp.seeded_schedule
        assert _key(grid5, slp, 0) != _key(grid5, slp, 1)
        distributed = ExperimentConfig(
            repeats=1, schedule_jitter=False, use_distributed=True
        )
        assert distributed.seeded_schedule

    def test_jitter_flag_is_a_key_component(self, grid5):
        """Same seed, jitter on vs off, must never share a cache entry:
        the builds differ (SLP keeps its seed either way but starts
        from a different Phase 1 baseline, and a jittered seeded
        protectionless build differs from the canonical one)."""
        for algorithm in ("protectionless", "slp"):
            jittered = ExperimentConfig(algorithm=algorithm, repeats=1)
            canonical = ExperimentConfig(
                algorithm=algorithm, repeats=1, schedule_jitter=False
            )
            assert _key(grid5, jittered, 0) != _key(grid5, canonical, 0)
        # ... and jitter-off sweeps actually produce different schedules
        # than jitter-on ones through the runner (the collision the key
        # component prevents).
        runner = ExperimentRunner(grid5, schedule_cache=ScheduleCache())
        jittered = runner.build_schedule(ExperimentConfig(repeats=1), 0)
        canonical = runner.build_schedule(
            ExperimentConfig(repeats=1, schedule_jitter=False), 0
        )
        assert jittered.slots() != canonical.slots()


class TestScheduleCacheLru:
    def test_hit_and_miss_counters(self):
        cache = ScheduleCache(maxsize=4)
        built = []
        cache.get_or_build("k", lambda: built.append(1) or "schedule")
        assert cache.get_or_build("k", lambda: built.append(1) or "schedule") == "schedule"
        assert (cache.hits, cache.misses, len(built)) == (1, 1, 1)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "preloads": 0,
            "size": 1,
        }
        assert "1 hits / 1 misses" in cache.summary()

    def test_lru_bound_evicts_least_recently_used(self):
        cache = ScheduleCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a; b is now LRU
        cache.get_or_build("c", lambda: "C")  # evicts b
        assert len(cache) == 2
        assert cache.get_or_build("b", lambda: "B2") == "B2"  # miss: rebuilt
        assert cache.get_or_build("c", lambda: "never") == "C"  # still cached
        assert (cache.hits, cache.misses) == (2, 4)

    def test_clear_resets_everything(self):
        cache = ScheduleCache()
        cache.get_or_build("a", lambda: "A")
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert (cache.evictions, cache.preloads) == (0, 0)

    def test_eviction_and_preload_counters(self):
        cache = ScheduleCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("c", lambda: "C")  # evicts a
        assert cache.evictions == 1
        cache.preload({"d": "D"})  # installs d, evicts b
        assert (cache.preloads, cache.evictions) == (1, 2)
        # Preload is hit/miss-neutral: nothing was looked up.
        assert (cache.hits, cache.misses) == (0, 3)
        assert "2 evictions, 1 preloads" in cache.summary()

    def test_summary_keeps_short_form_without_evictions(self):
        cache = ScheduleCache()
        cache.get_or_build("a", lambda: "A")
        assert "evictions" not in cache.summary()

    def test_maxsize_validated(self):
        with pytest.raises(ConfigurationError):
            ScheduleCache(maxsize=0)


class TestRunnerIntegration:
    def test_build_schedule_memoises(self, grid5):
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(repeats=1)
        first = runner.build_schedule(cfg, seed=7)
        second = runner.build_schedule(cfg, seed=7)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_addressing_shares_across_runner_instances(self, grid5):
        cache = ScheduleCache()
        cfg = ExperimentConfig(repeats=1)
        a = ExperimentRunner(grid5, schedule_cache=cache).build_schedule(cfg, 0)
        b = ExperimentRunner(GridTopology(5), schedule_cache=cache).build_schedule(
            cfg, 0
        )
        assert a is b
        assert cache.hits == 1

    def test_config_opt_out_bypasses_the_cache(self, grid5):
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(repeats=1, use_schedule_cache=False)
        first = runner.build_schedule(cfg, 0)
        second = runner.build_schedule(cfg, 0)
        assert first is not second
        assert first == second  # deterministic either way
        assert (cache.hits, cache.misses) == (0, 0)

    def test_process_wide_kill_switch(self, grid5, restore_default_cache):
        before = default_schedule_cache().stats()
        configure_schedule_cache(enabled=False)
        assert not schedule_cache_enabled()
        ExperimentRunner(grid5).build_schedule(ExperimentConfig(repeats=1), 99)
        assert default_schedule_cache().stats() == before
        configure_schedule_cache(enabled=True)
        assert schedule_cache_enabled()

    def test_cached_sweep_equals_uncached_sweep(self, grid5):
        cfg = ExperimentConfig(repeats=4, noise="casino")
        cached = ExperimentRunner(grid5, schedule_cache=ScheduleCache()).run(cfg)
        uncached = ExperimentRunner(grid5).run(
            ExperimentConfig(repeats=4, noise="casino", use_schedule_cache=False)
        )
        assert cached.results == uncached.results

    def test_resweep_hits_every_build_and_is_identical(self, grid5):
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(repeats=4, noise="casino")
        first = runner.run(cfg)
        hits, misses = cache.hits, cache.misses
        again = runner.run(cfg)
        assert again.results == first.results
        assert (cache.hits - hits, cache.misses) == (cfg.repeats, misses)

    def test_link_mutation_misses_through_the_runner(self, grid5):
        cache = ScheduleCache()
        cfg = ExperimentConfig(repeats=1)
        ExperimentRunner(grid5, schedule_cache=cache).build_schedule(cfg, 0)
        graph = nx.Graph(grid5.graph)
        graph.remove_edge(0, 1)
        mutated = Topology(graph, sink=grid5.sink, source=0, name="mutated")
        ExperimentRunner(mutated, schedule_cache=cache).build_schedule(cfg, 0)
        assert cache.hits == 0
        assert cache.misses == 2


class TestUnseededBuilds:
    """Satellite: a build that draws no randomness is cached once per
    topology, not once per seed."""

    def test_jitter_free_schedules_identical_across_seeds(self, grid5):
        """Differential proof, cache out of the loop entirely."""
        runner = ExperimentRunner(grid5)
        cfg = ExperimentConfig(
            repeats=1, schedule_jitter=False, use_schedule_cache=False
        )
        schedules = [runner.build_schedule(cfg, seed) for seed in range(5)]
        assert all(s.slots() == schedules[0].slots() for s in schedules[1:])
        assert all(
            s.parent_of(n) == schedules[0].parent_of(n)
            for s in schedules[1:]
            for n in grid5.nodes
        )

    def test_cold_sweep_logs_one_miss(self, grid5):
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(repeats=1, schedule_jitter=False)
        for seed in range(30):
            runner.build_schedule(cfg, seed)
        assert (cache.hits, cache.misses) == (29, 1)

    def test_jittered_sweep_still_misses_per_seed(self, grid5):
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(repeats=1)
        for seed in range(5):
            runner.build_schedule(cfg, seed)
        assert (cache.hits, cache.misses) == (0, 5)

    def test_slp_stays_seeded_without_jitter(self, grid5):
        """Phases 2/3 draw tie-breaks from the seed, so SLP builds keep
        per-seed cache entries even with jitter off."""
        cache = ScheduleCache()
        runner = ExperimentRunner(grid5, schedule_cache=cache)
        cfg = ExperimentConfig(
            algorithm="slp", repeats=1, schedule_jitter=False
        )
        for seed in range(3):
            runner.build_schedule(cfg, seed)
        assert cache.misses == 3


class TestDefaultCacheAccessors:

    def test_default_cache_stats_snapshot(self, grid5):
        before = default_cache_stats()
        assert set(before) == {"hits", "misses", "evictions", "preloads", "size"}
        ExperimentRunner(grid5).build_schedule(
            ExperimentConfig(repeats=1), seed=12345
        )
        after = default_cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]

    def test_reset_default_cache(self, grid5):
        ExperimentRunner(grid5).build_schedule(
            ExperimentConfig(repeats=1), seed=54321
        )
        reset_default_cache()
        assert default_cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "preloads": 0,
            "size": 0,
        }


class TestScheduleStore:
    """Satellite: the optional shared on-disk tier under the LRU."""

    def _key(self, grid5):
        cfg = ExperimentConfig(repeats=1, schedule_jitter=False)
        return _key(grid5, cfg, 0)

    def test_round_trip_and_counters(self, tmp_path, grid5, grid5_schedule):
        from repro.experiments import ScheduleStore

        store = ScheduleStore(tmp_path / "schedules.sqlite")
        key = self._key(grid5)
        assert store.get(key) is None
        assert (store.hits, store.misses) == (0, 1)
        store.put(key, grid5_schedule)
        fetched = store.get(key)
        assert (store.hits, store.misses) == (1, 1)
        assert fetched.slots() == grid5_schedule.slots()
        assert all(
            fetched.parent_of(n) == grid5_schedule.parent_of(n)
            for n in grid5.nodes
        )

    def test_first_writer_wins_and_publish_is_idempotent(
        self, tmp_path, grid5, grid5_schedule
    ):
        from repro.experiments import ScheduleStore

        store = ScheduleStore(tmp_path / "schedules.sqlite")
        key = self._key(grid5)
        store.put(key, grid5_schedule)
        store.put(key, grid5_schedule)  # the racing duplicate write
        assert len(store) == 1
        # A second store object over the same file sees the row — the
        # cross-process sharing the tier exists for.
        other = ScheduleStore(tmp_path / "schedules.sqlite")
        assert other.get(key) is not None

    def test_corrupt_row_reads_as_absent(self, tmp_path, grid5):
        import sqlite3

        from repro.experiments import ScheduleStore
        from repro.experiments.schedule_store import _TABLE, store_key

        store = ScheduleStore(tmp_path / "schedules.sqlite")
        key = self._key(grid5)
        with sqlite3.connect(store.path) as conn:
            conn.execute(
                f"INSERT INTO {_TABLE} (key, schedule) VALUES (?, ?)",
                (store_key(key), b"torn write, not a pickle"),
            )
        assert store.get(key) is None  # rebuilt by the caller, not a crash
        assert store.misses == 1

    def test_second_process_fetches_instead_of_rebuilding(
        self, tmp_path, grid5
    ):
        """Two caches over one store: the first builds and publishes,
        the second fetches — and the stats stay truthful (`misses`
        means builds performed, a store fetch is a `store_hit`)."""
        from repro.experiments import ScheduleStore

        store = ScheduleStore(tmp_path / "schedules.sqlite")
        cfg = ExperimentConfig(repeats=1)

        first = ScheduleCache()
        first.attach_store(store)
        ExperimentRunner(grid5, schedule_cache=first).build_schedule(cfg, 0)
        assert first.stats()["misses"] == 1  # the one real build

        second = ScheduleCache()
        second.attach_store(ScheduleStore(tmp_path / "schedules.sqlite"))
        runner = ExperimentRunner(grid5, schedule_cache=second)
        fetched = runner.build_schedule(cfg, 0)
        stats = second.stats()
        assert stats["misses"] == 0  # no build happened here
        assert stats["store_hits"] == 1
        assert "store hits" in second.summary()
        # ...and the fetched schedule is the real thing: a third lookup
        # is a plain in-memory hit on the installed entry.
        assert runner.build_schedule(cfg, 0) is fetched
        assert second.stats()["hits"] == 1

    def test_store_is_opt_in_and_detachable(self, tmp_path, restore_default_cache):
        cache = ScheduleCache()
        assert cache.store is None  # the LRU stays the default tier
        assert "store_hits" not in cache.stats()
        # configure_schedule_cache accepts a path and builds the store;
        # reset_default_cache detaches it again.
        configure_schedule_cache(store=tmp_path / "schedules.sqlite")
        assert default_schedule_cache().store is not None
        reset_default_cache()
        assert default_schedule_cache().store is None

    def test_store_key_is_content_addressed(self, grid5):
        from repro.experiments import store_key

        cfg = ExperimentConfig(repeats=1)
        a = store_key(_key(grid5, cfg, 0))
        assert a == store_key(_key(GridTopology(5), cfg, 0))
        assert a != store_key(_key(grid5, cfg, 1))
