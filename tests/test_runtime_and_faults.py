"""Unit tests for the query-runtime guardrails and the fault-injection hooks.

These are the deterministic, pool-free halves of the robustness layer:
:class:`~repro.query.runtime.QueryContext` driven by an injected fake clock,
:class:`~repro.query.faults.FaultPlan` parsing and trigger predicates, the
checksummed reply envelope, and the typed configuration errors.  The
end-to-end chaos scenarios (real pools, real worker deaths) live in
``tests/test_fault_injection.py``.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.query.backends import (
    BACKEND_ENV_VAR,
    MORSEL_TIMEOUT_ENV_VAR,
    _corrupt_reply,
    reply_checksum,
    resolve_backend,
    resolve_morsel_timeout,
)
from repro.query.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    InjectedWorkerCrash,
)
from repro.query.operators import ExecutionStats
from repro.query.runtime import (
    CancellationToken,
    QueryContext,
    make_runtime,
)


class FakeClock:
    """Injectable monotonic clock: tests advance it explicitly."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# QueryContext
# ----------------------------------------------------------------------
class TestQueryContext:
    def test_no_deadline_never_expires(self):
        context = QueryContext(clock=FakeClock())
        assert context.remaining() is None
        assert not context.expired()
        context.check()  # no-op

    def test_deadline_fixed_at_construction(self):
        clock = FakeClock(100.0)
        context = QueryContext(timeout=5.0, clock=clock)
        assert context.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert context.remaining() == pytest.approx(2.0)
        assert not context.expired()
        clock.advance(2.0)
        assert context.expired()

    def test_expired_check_raises_timeout_with_stats(self):
        clock = FakeClock()
        context = QueryContext(timeout=1.0, clock=clock)
        clock.advance(1.5)
        stats = ExecutionStats(output_rows=7)
        with pytest.raises(QueryTimeoutError) as excinfo:
            context.check(stats)
        assert excinfo.value.stats is stats
        assert excinfo.value.timeout == 1.0
        assert stats.deadline_remaining == 0.0
        # The typed error stays inside the library hierarchy.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ExecutionError)

    def test_cancellation_raises_with_stats(self):
        token = CancellationToken()
        context = QueryContext(cancel=token, clock=FakeClock())
        context.check()
        token.cancel()
        stats = ExecutionStats(output_rows=3)
        with pytest.raises(QueryCancelledError) as excinfo:
            context.check(stats)
        assert excinfo.value.stats is stats

    def test_cancellation_wins_over_deadline(self):
        clock = FakeClock()
        token = CancellationToken()
        context = QueryContext(timeout=1.0, cancel=token, clock=clock)
        clock.advance(2.0)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            context.check()

    def test_request_abort_sets_the_token(self):
        token = CancellationToken()
        context = QueryContext(cancel=token, clock=FakeClock())
        context.request_abort()
        assert token.cancelled
        with pytest.raises(QueryCancelledError):
            context.check()

    def test_request_abort_without_external_token(self):
        context = QueryContext(timeout=10.0, clock=FakeClock())
        context.request_abort()
        assert context.cancelled

    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ExecutionError, match="positive"):
            QueryContext(timeout=timeout)

    def test_make_runtime_returns_none_when_unarmed(self):
        assert make_runtime(None, None) is None
        assert make_runtime(1.0, None) is not None
        assert make_runtime(None, CancellationToken()) is not None


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_empty_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  , ") is None

    def test_parse_kill(self):
        plan = FaultPlan.parse("kill@2")
        assert plan.kill_morsel == 2
        assert not plan.kill_every_attempt
        assert plan.kills(2, 0)
        assert not plan.kills(2, 1)  # first attempt only
        assert not plan.kills(1, 0)

    def test_parse_every_attempt_suffix(self):
        plan = FaultPlan.parse("kill@0!")
        assert plan.kills(0, 0) and plan.kills(0, 5)

    def test_parse_delay_with_seconds(self):
        plan = FaultPlan.parse("delay@1:0.25")
        assert plan.delay_morsel == 1
        assert plan.delay_seconds == pytest.approx(0.25)
        assert plan.delays(1, 0)

    def test_parse_combined_directives(self):
        plan = FaultPlan.parse("kill@0, corrupt@3!, error@5")
        assert plan.kills(0, 0)
        assert plan.corrupts(3, 2)
        assert plan.errors(5, 0) and not plan.errors(5, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode@2",
            "kill@x",
            "kill@-1",
            "delay@1",
            "delay@1:abc",
            "delay@1:-2",
            "kill",
        ],
    )
    def test_malformed_specs_raise_typed_error(self, spec):
        with pytest.raises(ExecutionError, match=FAULTS_ENV_VAR):
            FaultPlan.parse(spec)

    def test_apply_before_morsel_kill(self):
        plan = FaultPlan.parse("kill@1")
        plan.apply_before_morsel(0, 0)  # other morsel: no-op
        with pytest.raises(InjectedWorkerCrash):
            plan.apply_before_morsel(1, 0)
        plan.apply_before_morsel(1, 1)  # retry succeeds

    def test_apply_before_morsel_error(self):
        plan = FaultPlan.parse("error@0")
        with pytest.raises(RuntimeError, match="injected"):
            plan.apply_before_morsel(0, 0)

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("kill@2,delay@0:0.1")
        assert pickle.loads(pickle.dumps(plan)) == plan


# ----------------------------------------------------------------------
# reply envelope integrity
# ----------------------------------------------------------------------
class TestReplyChecksum:
    def _envelope(self):
        encoded = [
            (("a", "b"), [np.arange(8, dtype=np.int64), np.arange(8) * 2]),
            (("a", "b"), [np.arange(3, dtype=np.int64), np.arange(3) + 9]),
        ]
        stats_tuple = dataclasses.astuple(ExecutionStats(output_rows=11))
        return encoded, stats_tuple

    def test_checksum_is_deterministic(self):
        encoded, stats_tuple = self._envelope()
        assert reply_checksum(encoded, stats_tuple) == reply_checksum(
            encoded, stats_tuple
        )

    def test_flipped_payload_byte_changes_checksum(self):
        encoded, stats_tuple = self._envelope()
        before = reply_checksum(encoded, stats_tuple)
        encoded[1][1][0][2] ^= 1
        assert reply_checksum(encoded, stats_tuple) != before

    def test_stats_tamper_changes_checksum(self):
        encoded, stats_tuple = self._envelope()
        before = reply_checksum(encoded, stats_tuple)
        tampered = stats_tuple[:3] + (stats_tuple[3] + 1,) + stats_tuple[4:]
        assert reply_checksum(encoded, tampered) != before

    def test_structure_change_changes_checksum(self):
        encoded, stats_tuple = self._envelope()
        before = reply_checksum(encoded, stats_tuple)
        assert reply_checksum(encoded[:1], stats_tuple) != before

    def test_corrupt_reply_is_detectable(self):
        encoded, stats_tuple = self._envelope()
        checksum = reply_checksum(encoded, stats_tuple)
        shipped = _corrupt_reply(encoded, checksum)
        assert reply_checksum(encoded, stats_tuple) != shipped

    def test_corrupt_reply_without_buffers_damages_checksum(self):
        encoded = []
        stats_tuple = dataclasses.astuple(ExecutionStats())
        checksum = reply_checksum(encoded, stats_tuple)
        shipped = _corrupt_reply(encoded, checksum)
        assert shipped != checksum


# ----------------------------------------------------------------------
# typed configuration errors
# ----------------------------------------------------------------------
class TestConfigurationErrors:
    def test_resolve_backend_lists_names_and_env_var(self):
        with pytest.raises(ExecutionError) as excinfo:
            resolve_backend("treadpool")
        message = str(excinfo.value)
        for name in ("'serial'", "'thread'", "'process'"):
            assert name in message
        assert BACKEND_ENV_VAR in message
        assert isinstance(excinfo.value, ReproError)

    def test_resolve_morsel_timeout_default_and_disable(self, monkeypatch):
        monkeypatch.delenv(MORSEL_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_morsel_timeout() is not None
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "0")
        assert resolve_morsel_timeout() is None
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "12.5")
        assert resolve_morsel_timeout() == 12.5

    def test_resolve_morsel_timeout_env_override(self, monkeypatch):
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "3.5")
        assert resolve_morsel_timeout() == 3.5
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "0")
        assert resolve_morsel_timeout() is None
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ExecutionError, match=MORSEL_TIMEOUT_ENV_VAR):
            resolve_morsel_timeout()

    def test_negative_morsel_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv(MORSEL_TIMEOUT_ENV_VAR, "-1")
        with pytest.raises(ExecutionError, match=">= 0"):
            resolve_morsel_timeout()
