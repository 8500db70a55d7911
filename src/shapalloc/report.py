"""Result containers shared by all solvers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterable

from .model import ScenarioError, read_json


@dataclass
class AgentResult:
    """One agent's outcome: an exact value, an interval, or an estimate."""

    agent: str
    kind: str  # "exact" | "interval" | "estimate"
    method: str
    value: float | None = None
    lb: float | None = None
    ub: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    samples: int | None = None
    fallback: bool | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "interval", "estimate"):
            raise ValueError(f"unknown result kind {self.kind!r}")
        if self.kind == "interval" and self.lb is not None and self.ub is not None:
            if self.lb > self.ub + 1e-12 * max(1.0, abs(self.ub)):
                raise ValueError(
                    f"agent {self.agent!r}: lower bound {self.lb} above upper bound {self.ub}"
                )


@dataclass
class ShapleyReport:
    """Per-agent results plus a meta block describing how they were produced."""

    agents: list[AgentResult]
    meta: dict = field(default_factory=dict)

    def by_agent(self) -> dict[str, AgentResult]:
        return {r.agent: r for r in self.agents}

    def values(self, order: Iterable[str] | None = None) -> list[float]:
        """Point values (exact value, estimate, or interval midpoint)."""
        by = self.by_agent()
        keys = list(order) if order is not None else [r.agent for r in self.agents]
        out = []
        for a in keys:
            r = by[a]
            if r.value is not None:
                out.append(r.value)
            elif r.lb is not None and r.ub is not None:
                out.append(0.5 * (r.lb + r.ub))
            else:
                raise ValueError(f"agent {a!r} has no point value")
        return out

    def total(self) -> float:
        return float(sum(self.values()))

    def to_dict(self) -> dict:
        # the fields are flat, so no deep copy (``dataclasses.asdict``) is needed
        names = [f.name for f in fields(AgentResult)]
        return {
            "meta": self.meta,
            "agents": [{name: getattr(r, name) for name in names} for r in self.agents],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShapleyReport":
        if not isinstance(data, dict):
            raise ScenarioError("malformed report: expected a JSON object")
        try:
            agents = [AgentResult(**_checked(a)) for a in data.get("agents", [])]
        except TypeError as exc:
            raise ScenarioError(f"malformed report record: {exc}") from exc
        return cls(agents=agents, meta=data.get("meta", {}))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ShapleyReport":
        return cls.from_dict(read_json(path))


def finite_number(v) -> bool:
    """Whether ``v`` is an int or float, not a bool, that a float holds finitely."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _checked(record):
    """The record, once each field it holds has the JSON type its value needs.

    A record that is not an object is left for ``AgentResult`` to reject.
    """
    if not isinstance(record, dict):
        return record

    def bad(key: str, want: str):
        return ScenarioError(
            f"malformed report record: {key!r} must be {want}, got {record[key]!r}"
        )

    for key in ("agent", "kind", "method"):
        if key in record and not isinstance(record[key], str):
            raise bad(key, "a string")
    for key in ("value", "lb", "ub", "epsilon", "delta"):
        v = record.get(key)
        if v is not None and not finite_number(v):
            raise bad(key, "a finite number or null")
    v = record.get("samples")
    if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
        raise bad("samples", "an integer or null")
    v = record.get("fallback")
    if v is not None and not isinstance(v, bool):
        raise bad("fallback", "a boolean or null")
    return record


def merge_reports(parts: Iterable[ShapleyReport]) -> ShapleyReport:
    agents: list[AgentResult] = []
    for p in parts:
        agents.extend(p.agents)
    return ShapleyReport(agents=agents)
