"""Chaos + flight recorder: injected violations must leave a linked dump."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.faults.chaos import ChaosService, run_chaos
from repro.networks import k_network
from repro.serve import CountingService


def make_service(**kwargs) -> CountingService:
    return CountingService(k_network([2, 3]), **kwargs)


class TestStateCorruption:
    def test_corrupt_state_is_caught_as_exactly_once_violation(self, tmp_path):
        report = run_chaos(
            make_service(),
            requests=150,
            clients=8,
            seed=3,
            drop_before_rate=0.0,
            drop_after_rate=0.0,
            cancel_rate=0.0,
            dup_rate=0.0,
            corrupt_state_after=4,
            flight_dir=tmp_path,
        )
        assert not report.exactly_once
        assert any(e.kind == "exactly-once-violation" for e in report.escapes)
        assert report.injected.get("exactly_once_error", 0) >= 1

    def test_violation_produces_linked_flight_dump(self, tmp_path):
        report = run_chaos(
            make_service(),
            requests=150,
            clients=8,
            seed=3,
            drop_before_rate=0.0,
            drop_after_rate=0.0,
            cancel_rate=0.0,
            dup_rate=0.0,
            corrupt_state_after=4,
            flight_dir=tmp_path,
        )
        assert report.flight_dump is not None
        dump = pathlib.Path(report.flight_dump)
        assert dump.parent == tmp_path
        data = json.loads(dump.read_text())
        assert data["reason"] == "exactly-once-violation"
        spans = data["spans"]
        # The acceptance criterion: spans link request -> batch -> executor.
        by_id = {s["span_id"]: s for s in spans}
        linked_requests = [
            s for s in spans if s["kind"] == "request" and "batch_id" in s
        ]
        assert linked_requests, "no request span linked to a batch"
        batch = by_id[linked_requests[0]["batch_id"]]
        assert batch["kind"] == "batch"
        assert "executor_run" in batch
        executor = by_id[batch["executor_run"]]
        assert executor["kind"] == "executor"
        assert executor["parent_id"] == batch["span_id"]
        # Report JSON carries the dump path for CI to pick up.
        assert report.as_dict()["flight_dump"] == str(dump)

    def test_dump_is_taken_at_most_once_per_service(self, tmp_path):
        svc = make_service(flight_dir=tmp_path)
        run_chaos(
            svc,
            requests=150,
            clients=8,
            seed=3,
            drop_before_rate=0.0,
            drop_after_rate=0.0,
            cancel_rate=0.0,
            dup_rate=0.0,
            corrupt_state_after=4,
            flight_dir=tmp_path,
        )
        dumps = list(tmp_path.glob("FLIGHT_*.json"))
        assert len(dumps) == 1

    def test_no_flight_dir_means_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        report = run_chaos(
            make_service(),
            requests=100,
            clients=4,
            seed=3,
            drop_before_rate=0.0,
            drop_after_rate=0.0,
            cancel_rate=0.0,
            dup_rate=0.0,
            corrupt_state_after=4,
        )
        assert not report.exactly_once
        assert report.flight_dump is None
        assert list(tmp_path.glob("FLIGHT_*.json")) == []

    def test_clean_run_with_flight_dir_leaves_no_dump(self, tmp_path):
        report = run_chaos(
            make_service(),
            requests=100,
            clients=4,
            seed=0,
            flight_dir=tmp_path,
        )
        assert report.exactly_once
        assert report.flight_dump is None
        assert list(tmp_path.glob("FLIGHT_*.json")) == []

    def test_corrupt_state_after_validation(self):
        with pytest.raises(ValueError):
            ChaosService(make_service(), corrupt_state_after=0)
