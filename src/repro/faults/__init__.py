"""Deterministic fault injection for the engine and serve plane.

The subsystem has two halves:

* :mod:`repro.faults.plan` — the schedule model: seedable, JSON
  round-trippable :class:`FaultPlan`/:class:`FaultSpec` pairs that
  select injection sites deterministically (by the context a site
  reports, such as the ``"grouped"`` or ``"logits"`` dispatch key);
* :mod:`repro.faults.hooks` — the process-wide registry the
  instrumented call sites (``engine.dispatch`` in
  :mod:`repro.parallel`, ``serve.request`` in :mod:`repro.serve`)
  consult.  With no plan installed every hook is a single
  ``is not None`` check.

The chaos fleet in ``tests/faults/`` drives fault schedules through
the serving stack and asserts that every answered request is bit-exact
versus serial ``Network.predict`` and that breakers open and close as
specified.  See the fault-injection section of ``docs/testing.md`` for
the site catalogue and how to replay a failing schedule.
"""

from repro.faults import hooks
from repro.faults.hooks import ENV_VAR, clear, enabled, fire, injected, install, plan_from_env
from repro.faults.plan import ACTIONS, SITES, FaultInjected, FaultPlan, FaultSpec

__all__ = [
    "hooks",
    "ACTIONS",
    "SITES",
    "ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "enabled",
    "fire",
    "install",
    "clear",
    "injected",
    "plan_from_env",
]
