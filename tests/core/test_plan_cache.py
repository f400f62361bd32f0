"""The persistent build/plan cache: hit/miss accounting, code-version
invalidation, corruption recovery, and the maintenance surface behind
``repro cache stats|clear``.

Every test uses an explicit ``tmp_path`` root — nothing here may touch the
repository's own ``.repro_cache``."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

import repro.core.cache as cache_mod
from repro.core.cache import PlanCache, cached_network, cached_plan, code_version_hash
from repro.core.plan import PlanExecutor, lower_network
from repro.networks import k_network
from repro.sim import propagate_counts_reference

FACTORS = [2, 3]


def _build():
    return k_network(FACTORS)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = PlanCache(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return _build()

        p1 = cached_plan("K", FACTORS, builder, cache=cache)
        p2 = cached_plan("K", FACTORS, builder, cache=cache)
        assert len(calls) == 1  # second call never built
        x = np.random.default_rng(0).integers(0, 99, size=(4, 6)).astype(np.int64)
        assert np.array_equal(PlanExecutor(p1).run(x), PlanExecutor(p2).run(x))
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["corrupt"] == 0
        assert s["stores"] == 2  # one network + one plan artifact
        assert s["entries"] == 2 and s["bytes"] > 0

    def test_cached_network_round_trips_structure(self, tmp_path):
        cache = PlanCache(tmp_path)
        original = cached_network("K", FACTORS, _build, cache=cache)
        restored = cached_network(
            "K", FACTORS, lambda: pytest.fail("builder must not run"), cache=cache
        )
        assert restored.to_dict() == original.to_dict()
        x = np.random.default_rng(1).integers(0, 99, size=6).astype(np.int64)
        assert np.array_equal(
            propagate_counts_reference(restored, x),
            propagate_counts_reference(original, x),
        )

    @pytest.mark.parametrize("factors", [[2, 3], [2, 2, 2, 3], [2] * 8])
    def test_cached_network_hit_equals_fresh_build(self, tmp_path, factors):
        from repro.core.plan import lower_plan

        cache = PlanCache(tmp_path)
        cached_network("K", factors, lambda: k_network(factors), cache=cache)
        hit = cached_network(
            "K", factors, lambda: pytest.fail("builder must not run"), cache=cache
        )
        fresh = k_network(factors)
        assert hit == fresh and hit.name == fresh.name
        assert hit.num_wires == fresh.num_wires and hit.depth == fresh.depth
        for got, want in zip(hit.wire_arrays(), fresh.wire_arrays()):
            assert got.tobytes() == want.tobytes()
        got, want = lower_plan(hit).to_arrays(), lower_plan(fresh).to_arrays()
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        assert hit.balancers == fresh.balancers

    def test_hit_does_not_materialize_network(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        # A plan hit reads one npz; the network artifact stays untouched.
        plan = cache.get_plan("K", FACTORS)
        assert plan is not None and plan.width == 6

    def test_counters_persist_across_instances(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        reopened = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=reopened)
        s = PlanCache(tmp_path).stats()
        assert s["misses"] == 1 and s["hits"] == 1 and s["stores"] == 2


class TestInvalidation:
    def test_code_version_change_invalidates(self, tmp_path, monkeypatch):
        cache = PlanCache(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return _build()

        cached_plan("K", FACTORS, builder, cache=cache)
        # Simulate an edit to a construction source: the memoized hash flips,
        # keys no longer match, so the old entry is orphaned and rebuilt.
        monkeypatch.setattr(cache_mod, "_code_hash", "deadbeefdeadbeef")
        cached_plan("K", FACTORS, builder, cache=cache)
        assert len(calls) == 2
        assert cache.stats()["misses"] == 2

    def test_variant_and_family_separate_keys(self):
        k1 = PlanCache.entry_key("plan", "K", [2, 3])
        k2 = PlanCache.entry_key("plan", "L", [2, 3])
        k3 = PlanCache.entry_key("plan", "K", [2, 3], variant="alt")
        k4 = PlanCache.entry_key("net", "K", [2, 3])
        assert len({k1, k2, k3, k4}) == 4
        assert code_version_hash() in k1

    def test_every_hashed_source_exists(self):
        # A stale entry would hash as "<missing>" and silently stop
        # invalidating anything.
        pkg = pathlib.Path(cache_mod.__file__).resolve().parent.parent
        missing = [rel for rel in cache_mod._HASHED_SOURCES if not (pkg / rel).is_file()]
        assert missing == []


class TestCorruptionRecovery:
    def test_truncated_npz_is_dropped_and_rebuilt(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        for npz in tmp_path.glob("plan-*.npz"):
            npz.write_bytes(b"this is not an npz file")
        plan = cached_plan("K", FACTORS, _build, cache=cache)
        assert plan.width == 6  # rebuilt, not crashed
        s = cache.stats()
        assert s["corrupt"] >= 1 and s["stores"] >= 3

    def test_mangled_manifest_recovers(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        cache.manifest_path.write_text("{not json")
        fresh = PlanCache(tmp_path)  # re-reads the broken manifest
        plan = cached_plan("K", FACTORS, _build, cache=fresh)
        assert plan.width == 6
        assert fresh.stats()["corrupt"] >= 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            # b0 reads a wire b1 also reads: "consumed twice".
            lambda a: a["in_concat"].__setitem__(-1, a["in_concat"][0]),
            # Fan-in no longer matches the widths.
            lambda a: a.__setitem__("out_concat", a["out_concat"][:-1]),
            lambda a: a.__setitem__("net_scalars", np.zeros(0, dtype=np.int64)),
            # Well-shaped but wrong: must not size any array by it.
            lambda a: a.__setitem__("net_scalars", np.array([1 << 40], dtype=np.int64)),
            lambda a: a.__setitem__("widths", a["widths"].reshape(1, -1)),
            lambda a: a.pop("in_concat"),
        ],
        ids=["consumed-twice", "fan-in", "scalars", "huge-num-wires", "2d-widths", "missing-key"],
    )
    def test_corrupt_network_arrays_counted_corrupt(self, tmp_path, corrupt):
        cache = PlanCache(tmp_path)
        factors = [2, 2, 2]
        cached_network("K", factors, lambda: k_network(factors), cache=cache)
        key = PlanCache.entry_key("net", "K", factors)
        with np.load(tmp_path / f"{key}.npz") as npz:
            arrays = {k: npz[k].copy() for k in npz.files}
        corrupt(arrays)
        np.savez(tmp_path / f"{key}.npz", **arrays)
        assert cache.get_network("K", factors) is None
        assert cache.stats()["corrupt"] == 1
        rebuilt = cached_network("K", factors, lambda: k_network(factors), cache=cache)
        assert rebuilt == k_network(factors)

    def test_wrong_shape_arrays_treated_as_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        key = PlanCache.entry_key("plan", "K", FACTORS)
        np.savez(tmp_path / f"{key}.npz", scalars=np.zeros(4, dtype=np.int64))
        assert cache.get_plan("K", FACTORS) is None
        assert cache.stats()["corrupt"] >= 1


class TestMaintenance:
    def test_clear_removes_everything(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        assert cache.stats()["entries"] == 2
        removed = cache.clear()
        assert removed >= 3  # two npz files + manifest
        assert cache.stats()["entries"] == 0
        # And the cache still works after a wipe.
        assert cached_plan("K", FACTORS, _build, cache=cache).width == 6

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        cache = PlanCache()
        assert cache.root == tmp_path / "envroot"

    def test_stats_keys_are_cli_stable(self, tmp_path):
        # `repro cache stats` prints exactly these keys; keep them stable.
        s = PlanCache(tmp_path).stats()
        assert set(s) == {
            "root", "entries", "bytes", "variants",
            "hits", "misses", "stores", "corrupt",
        }


class TestVariantKeys:
    """Regression: a searched-variant plan must never collide with the
    stock plan of the same (family, factors) — distinct keys, distinct
    artifacts, and a per-variant breakdown in ``stats()``."""

    def test_stock_and_searched_do_not_collide(self, tmp_path):
        from repro.networks import k_network as k

        cache = PlanCache(tmp_path)
        stock = cached_plan("K", [2, 2, 2, 2], lambda: k([2, 2, 2, 2]), cache=cache)
        searched = cached_plan(
            "K",
            [2, 2, 2, 2],
            lambda: k([2, 2, 2, 2], variant="searched"),
            cache=cache,
            variant="searched",
        )
        assert searched.depth < stock.depth  # the searched network, not a hit
        # Both survive side by side and each key retrieves its own plan.
        assert cache.get_plan("K", [2, 2, 2, 2]).depth == stock.depth
        assert cache.get_plan("K", [2, 2, 2, 2], variant="searched").depth == searched.depth
        k1 = PlanCache.entry_key("plan", "K", [2, 2, 2, 2])
        k2 = PlanCache.entry_key("plan", "K", [2, 2, 2, 2], variant="searched")
        assert k1 != k2

    def test_stats_variant_breakdown(self, tmp_path):
        from repro.networks import k_network as k

        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        cached_plan(
            "K", FACTORS, lambda: k(FACTORS, variant="searched"),
            cache=cache, variant="searched",
        )
        s = cache.stats()
        # net + plan artifact per variant.
        assert s["variants"] == {"stock": 2, "searched": 2}

    def test_none_and_stock_name_one_entry(self, tmp_path):
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        plan = cached_plan(
            "K", FACTORS, lambda: pytest.fail("must hit"), cache=cache, variant="stock"
        )
        assert plan.width == 6
        s = cache.stats()
        assert (s["misses"], s["hits"], s["stores"]) == (1, 1, 2)
        assert s["variants"] == {"stock": 2}


class TestCliCacheCommand:
    def test_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = PlanCache(tmp_path)
        cached_plan("K", FACTORS, _build, cache=cache)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries = 2" in out and "stores = 2" in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert PlanCache(tmp_path).stats()["entries"] == 0
