"""Unit tests of the fault schedule model (no engines involved)."""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    ACTIONS,
    SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    hooks,
)

pytestmark = pytest.mark.chaos


def test_sites_and_actions_are_the_in_process_ones():
    assert SITES == ("engine.dispatch", "serve.request")
    assert ACTIONS == ("delay", "raise")


def test_spec_validates_site_and_action():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultSpec("nowhere", "raise")
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultSpec("worker.shard", "raise")
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultSpec("engine.dispatch", "explode")
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultSpec("engine.dispatch", "crash")
    with pytest.raises(ValueError, match="times"):
        FaultSpec("engine.dispatch", "raise", times=0)
    with pytest.raises(ValueError, match="seconds"):
        FaultSpec("engine.dispatch", "delay", seconds=-1.0)


def test_spec_matching_on_key():
    anywhere = FaultSpec("engine.dispatch", "raise", times=None)
    assert anywhere.matches({"key": "logits"})
    assert anywhere.matches({})
    keyed = FaultSpec("engine.dispatch", "raise", key="grouped")
    assert keyed.matches({"key": "grouped"})
    assert not keyed.matches({"key": "logits"})


def test_plan_select_consumes_times_budget():
    plan = FaultPlan(specs=(FaultSpec("engine.dispatch", "raise", times=2),))
    assert len(plan.select("engine.dispatch", {"key": "grouped"})) == 1
    assert len(plan.select("engine.dispatch", {"key": "grouped"})) == 1
    assert plan.select("engine.dispatch", {"key": "grouped"}) == []


def test_plan_json_round_trip():
    plan = FaultPlan(
        specs=(
            FaultSpec("engine.dispatch", "raise", key="grouped", times=None),
            FaultSpec("engine.dispatch", "delay", key="logits", seconds=0.25),
            FaultSpec("serve.request", "raise", times=3),
        ),
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.specs == plan.specs
    assert clone.to_json() == plan.to_json()


def test_hooks_disabled_is_inert_and_cheap():
    hooks.clear()
    assert not hooks.enabled()
    assert hooks.fire("engine.dispatch", key="grouped") is None


def test_hooks_fire_delay_and_raise():
    plan = FaultPlan(
        specs=(
            FaultSpec("engine.dispatch", "delay", key="logits", seconds=0.05),
            FaultSpec("engine.dispatch", "raise", key="grouped"),
        )
    )
    with hooks.injected(plan):
        hooks.fire("engine.dispatch")  # no key: no match, free
        t0 = time.perf_counter()
        hooks.fire("engine.dispatch", key="logits")
        assert time.perf_counter() - t0 >= 0.05
        with pytest.raises(FaultInjected) as excinfo:
            hooks.fire("engine.dispatch", key="grouped")
        assert excinfo.value.site == "engine.dispatch"
        assert excinfo.value.spec is plan.specs[1]
        hooks.fire("engine.dispatch", key="grouped")  # budget of 1 spent
    assert not hooks.enabled()


def test_env_round_trip(monkeypatch):
    plan = FaultPlan(specs=(FaultSpec("serve.request", "raise"),))
    monkeypatch.setenv(hooks.ENV_VAR, plan.to_json())
    parsed = hooks.plan_from_env()
    assert parsed is not None and parsed.specs == plan.specs
    monkeypatch.setenv(hooks.ENV_VAR, "")
    assert hooks.plan_from_env() is None
