"""Adaptive batch tuning: the pure policy, and the wrapper's sampling."""

from __future__ import annotations

from repro.cluster.tuner import AdaptiveBatchTuner, TunerConfig, TunerSample, recommend

CFG = TunerConfig(base_batch=64, base_delay=0.001, max_batch_cap=4096, min_delay=0.0001)


def make_sample(**kw):
    base = dict(
        queue_depth=0,
        queue_limit=1024,
        max_batch=64,
        max_delay=0.001,
        batches=10,
        requests=100,
    )
    base.update(kw)
    return TunerSample(**base)


class TestRecommend:
    def test_queue_pressure_doubles_batch_and_halves_delay(self):
        s = make_sample(queue_depth=600)
        batch, delay = recommend(s, CFG)
        assert batch == 128
        assert delay == 0.0005

    def test_pressure_clamps_at_cap_and_floor(self):
        s = make_sample(queue_depth=1024, max_batch=4096, max_delay=0.0001)
        batch, delay = recommend(s, CFG)
        assert batch == 4096
        assert delay == 0.0001

    def test_pressure_never_adds_a_linger(self):
        # The default batcher yields one loop turn instead of lingering;
        # pressure must not turn a timer on.
        s = make_sample(queue_depth=600, max_delay=0.0)
        batch, delay = recommend(s, TunerConfig(base_delay=0.0))
        assert batch == 128
        assert delay == 0.0

    def test_batch_saturation_doubles_batch_only(self):
        s = make_sample(batches=10, requests=10 * 60)  # mean 60 >= 0.9*64
        batch, delay = recommend(s, CFG)
        assert batch == 128
        assert delay == 0.001

    def test_underload_decays_batch_toward_baseline(self):
        s = make_sample(max_batch=512, batches=10, requests=10 * 4, queue_depth=0)
        batch, _ = recommend(s, CFG)
        assert batch == 256  # one halving per interval, floored at base later
        s2 = make_sample(max_batch=100, batches=10, requests=10 * 4)
        batch2, _ = recommend(s2, CFG)
        assert batch2 == CFG.base_batch  # never below the configured baseline

    def test_underload_relaxes_delay_toward_baseline(self):
        s = make_sample(max_delay=0.0004, batches=10, requests=10 * 4)
        _, delay = recommend(s, CFG)
        assert delay == 0.0005  # *1.25, capped at base_delay later

    def test_underload_shrinks_linger_to_observed_wait(self):
        s = make_sample(batches=10, requests=10 * 4, queue_wait_p50=0.0001)
        _, delay = recommend(s, CFG)
        assert delay == 0.0002  # 2× the observed median wait
        # ... but never below min_delay.
        s2 = make_sample(batches=10, requests=10 * 4, queue_wait_p50=1e-6)
        _, delay2 = recommend(s2, CFG)
        assert delay2 == CFG.min_delay

    def test_quiet_interval_changes_nothing(self):
        s = make_sample(batches=0, requests=0)
        assert recommend(s, CFG) == (64, 0.001)

    def test_moderate_load_changes_nothing(self):
        s = make_sample(batches=10, requests=10 * 32)  # mean 32: neither extreme
        assert recommend(s, CFG) == (64, 0.001)


class FakeStats:
    def __init__(self, batches=0, completed=0):
        self.batches = batches
        self.completed = completed


class FakeBatcher:
    """Just the surface AdaptiveBatchTuner touches."""

    def __init__(self):
        self.max_batch = 64
        self.max_delay = 0.001
        self.queue_depth = 0
        self.queue_limit = 1024
        self.stats = FakeStats()


class TestAdaptiveBatchTuner:
    def test_sample_uses_interval_deltas(self):
        b = FakeBatcher()
        b.stats = FakeStats(batches=5, completed=50)
        tuner = AdaptiveBatchTuner(b)  # baseline captured at construction
        b.stats = FakeStats(batches=9, completed=110)
        s = tuner.sample()
        assert s.batches == 4
        assert s.requests == 60
        # The next sample starts from the new watermark.
        s2 = tuner.sample()
        assert s2.batches == 0 and s2.requests == 0

    def test_step_applies_recommendation_under_pressure(self):
        b = FakeBatcher()
        tuner = AdaptiveBatchTuner(b)
        b.queue_depth = 900
        b.stats = FakeStats(batches=10, completed=640)
        assert tuner.step() is True
        assert b.max_batch == 128
        assert b.max_delay == 0.0005
        assert tuner.adjustments == 1

    def test_step_is_noop_at_steady_state(self):
        b = FakeBatcher()
        tuner = AdaptiveBatchTuner(b)
        b.stats = FakeStats(batches=10, completed=320)
        assert tuner.step() is False
        assert tuner.adjustments == 0

    def test_config_defaults_come_from_the_batcher(self):
        b = FakeBatcher()
        b.max_batch = 32
        b.max_delay = 0.002
        tuner = AdaptiveBatchTuner(b)
        assert tuner.config.base_batch == 32
        assert tuner.config.base_delay == 0.002
