"""Deterministic fault schedules for chaos testing.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries.
Each spec names an injection *site* (a string like
``"engine.dispatch"``), an *action* (``"delay"`` or ``"raise"``) and a
match — which visits of that site should fire.  Matching is stateless:
specs select on the context the site reports (such as the dispatch
key), so the same plan fires the same faults on every run.
The only mutable state is the per-spec ``times`` budget.

Plans are JSON round-trippable (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) so a failing chaos schedule can be
uploaded as a CI artifact and replayed locally via the
``REPRO_FAULTS`` environment variable — see ``docs/testing.md``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "ACTIONS",
    "SITES",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
]

#: Injection sites wired through the stack (see docs/testing.md).
SITES = (
    "engine.dispatch",  # once per BatchInferenceEngine call
    "serve.request",  # admission layer, once per accepted request
)

#: Known actions; :func:`repro.faults.hooks.fire` runs them.
ACTIONS = (
    "delay",  # sleep spec.seconds (a slow engine or request)
    "raise",  # raise FaultInjected
)


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` family of fault actions.

    Carries the site and spec so recovery tests can distinguish an
    injected failure from a genuine bug surfacing mid-chaos.
    """

    def __init__(self, site: str, spec: "FaultSpec") -> None:
        super().__init__(f"injected fault at {site}: {spec.describe()}")
        self.site = site
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, and which visits match.

    ``key`` matches the key a site reports, such as the dispatch key
    of ``engine.dispatch`` (``"grouped"`` for a coalesced group,
    ``"logits"`` for a plain call); ``None`` matches every visit.
    ``times`` caps total firings (``None`` = unlimited, which makes a
    fault *persistent* — how the repeated failure → circuit-open
    scenario is scripted).
    """

    site: str
    action: str
    key: str | None = None
    times: int | None = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (one of {SITES})")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} (one of {ACTIONS})")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")

    def matches(self, ctx: dict) -> bool:
        """Does this spec select the visit described by ``ctx``?"""
        return self.key is None or ctx.get("key") == self.key

    def describe(self) -> str:
        parts = [f"{self.action}@{self.site}"]
        if self.key is not None:
            parts.append(f"key={self.key}")
        if self.times != 1:
            parts.append(f"times={self.times if self.times is not None else 'inf'}")
        if self.seconds:
            parts.append(f"seconds={self.seconds:g}")
        return " ".join(parts)


@dataclass
class FaultPlan:
    """An ordered fault schedule plus its firing budgets.

    The plan is JSON round-trippable (CI artifacts, the
    ``REPRO_FAULTS`` env var).  ``_fired`` is the bookkeeping of the
    ``times`` budgets.
    """

    specs: tuple[FaultSpec, ...] = ()
    _fired: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.specs = tuple(
            s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in self.specs
        )

    def select(self, site: str, ctx: dict) -> list[FaultSpec]:
        """Specs firing for this visit, consuming their ``times`` budget."""
        out = []
        for pos, spec in enumerate(self.specs):
            if spec.site != site or not spec.matches(ctx):
                continue
            if spec.times is not None:
                used = self._fired.get(pos, 0)
                if used >= spec.times:
                    continue
                self._fired[pos] = used + 1
            out.append(spec)
        return out

    # -- JSON round trip ---------------------------------------------------
    def to_json(self) -> str:
        defaults = FaultSpec.__dataclass_fields__
        doc = {
            "specs": [
                {k: v for k, v in asdict(s).items() if v != defaults[k].default}
                | {"site": s.site, "action": s.action}
                for s in self.specs
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan JSON must be an object")
        specs = tuple(FaultSpec(**entry) for entry in doc.get("specs", ()))
        return cls(specs=specs)

    def describe(self) -> str:
        lines = [f"FaultPlan({len(self.specs)} specs)"]
        lines += [f"  {s.describe()}" for s in self.specs]
        return "\n".join(lines)

