"""Injection-point registry: fire faults, stay free when disabled.

The contract every instrumented call site follows::

    from repro.faults import hooks

    if hooks.enabled():                       # one global load + is-check
        hooks.fire("engine.dispatch", key=k)  # may sleep or raise

With no plan installed, :func:`enabled` is a single module-global
``is not None`` test and :func:`fire` is never entered — the hooks are
zero-cost in production.

Activation paths:

* :func:`install` / :func:`clear` / the :func:`injected` context
  manager — tests and tooling;
* the ``REPRO_FAULTS`` environment variable (a JSON
  :class:`~repro.faults.plan.FaultPlan`) — read once at import, so CLI
  runs such as ``repro serve`` pick the plan up automatically.
"""

from __future__ import annotations

import os
import time

from repro.faults.plan import FaultInjected, FaultPlan

__all__ = [
    "enabled",
    "active_plan",
    "install",
    "clear",
    "injected",
    "fire",
    "plan_from_env",
    "ENV_VAR",
]

#: Environment variable holding a JSON fault plan (see plan.to_json()).
ENV_VAR = "REPRO_FAULTS"

_PLAN: FaultPlan | None = None


def enabled() -> bool:
    """Cheap guard for hot paths: is any fault plan installed?"""
    return _PLAN is not None


def active_plan() -> FaultPlan | None:
    return _PLAN


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Disable injection."""
    global _PLAN
    _PLAN = None


class injected:
    """Context manager: install a plan, always clear on exit."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        clear()


def fire(site: str, **ctx) -> None:
    """Run the faults matching this visit of ``site``.

    ``delay`` sleeps ``spec.seconds``; ``raise`` raises
    :class:`FaultInjected`.  Call only behind :func:`enabled`.
    """
    plan = _PLAN
    if plan is None:
        return
    for spec in plan.select(site, ctx):
        if spec.action == "delay":
            time.sleep(spec.seconds)
        else:
            raise FaultInjected(site, spec)


def plan_from_env(environ=None) -> FaultPlan | None:
    """Parse ``REPRO_FAULTS`` (JSON plan) from the environment."""
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR, "").strip()
    if not text:
        return None
    return FaultPlan.from_json(text)


# Import-time activation: a process started with REPRO_FAULTS set (CLI
# runs) injects without any code changes.
_env_plan = plan_from_env()
if _env_plan is not None:  # pragma: no cover - exercised via subprocess tests
    _PLAN = _env_plan
del _env_plan
