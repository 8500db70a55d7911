"""Domain types for capacity-constrained allocation games.

An allocation game is described by a scenario: a set of agents, a set of
indivisible goods with non-negative values, an interest map telling which
goods each agent can receive, and a capacity ``k`` limiting how many goods
one agent may hold.  The worth of a coalition is the value of an optimal
feasible allocation restricted to its members.

Coalitions are plain ``int`` bitmasks over the scenario's canonical agent
order (bit ``i`` set means agent ``i`` is in).  Python integers act as
arbitrarily wide bitsets, so the same representation covers components of
any size; ``iter_bits`` lists a mask's members in ascending order.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

Coalition = int


class ScenarioError(ValueError):
    """Raised for malformed scenarios or scenario files."""


class AllocationScenario:
    """Agents, valued goods, interest sets and a per-agent capacity.

    Immutable once constructed; derived structures (index maps, per-agent
    value arrays, the agents graph) are precomputed or built on first use,
    so the object can be shared freely across workers.
    """

    def __init__(
        self,
        agents: Sequence[str],
        goods: Sequence[tuple[str, float]],
        interest: Mapping[str, Iterable[str]],
        k: int,
    ):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ScenarioError(f"capacity must be an integer, got {k!r}")
        if k < 1:
            raise ScenarioError(f"capacity must be >= 1, got {k}")
        self.agents = tuple(str(a) for a in agents)
        if len(set(self.agents)) != len(self.agents):
            raise ScenarioError("duplicate agent ids")
        self.good_ids = tuple(str(g) for g, _ in goods)
        if len(set(self.good_ids)) != len(self.good_ids):
            raise ScenarioError("duplicate good ids")
        for g, v in goods:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ScenarioError(f"good {g!r} has a non-numeric value {v!r}")
        # the same values as Python floats: the augmenting searches index
        # them once per good visited, where numpy scalars cost more
        try:
            self.good_value_list = [float(v) for _, v in goods]
        except OverflowError:  # an int beyond the float range
            bad = next(g for g, v in goods if abs(v) > sys.float_info.max)
            raise ScenarioError(f"good {bad!r} has a value too large for a float") from None
        self.good_values = np.asarray(self.good_value_list, dtype=np.float64)
        finite = np.isfinite(self.good_values)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ScenarioError(
                f"good {self.good_ids[j]!r} has non-finite value {self.good_values[j]}"
            )
        if len(self.good_values) and self.good_values.min() < 0:
            bad = self.good_ids[int(np.argmin(self.good_values))]
            raise ScenarioError(f"good {bad!r} has negative value")
        self.k = int(k)

        self.agent_index = {a: i for i, a in enumerate(self.agents)}
        self.good_index = {g: j for j, g in enumerate(self.good_ids)}

        unknown = set(interest) - set(self.agents)
        if unknown:
            raise ScenarioError(f"interest map names undeclared agents: {sorted(unknown)}")
        self.interest: tuple[tuple[int, ...], ...] = tuple(
            self._interest_row(a, interest.get(a, ())) for a in self.agents
        )

        # Each good's position in the order the matching greedy takes goods:
        # value descending, ties by good index.
        n_goods = len(self.good_ids)
        order = np.lexsort((np.arange(n_goods), -self.good_values))
        rank = np.empty(n_goods, dtype=np.intp)
        rank[order] = np.arange(n_goods)
        self.good_rank: list[int] = rank.tolist()

        # Positive-value goods drive both matching and the agents graph.
        # Each agent's, in the greedy's order, which ``matching.add_agent``
        # scans best first.  The first `k` are the best goods the agent can
        # get alone, whose sum is the canonical singleton worth used by
        # every solver, so the float is computed once here.
        values = self.good_value_list
        self.ranked_interest: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted((j for j in row if values[j] > 0.0), key=self.good_rank.__getitem__))
            for row in self.interest
        )
        # Agents interested in each positive-value good, ascending (empty for
        # zero-value goods).
        claimers: list[list[int]] = [[] for _ in self.good_ids]
        for i, ranked in enumerate(self.ranked_interest):
            for j in ranked:
                claimers[j].append(i)
        self.good_claimers: tuple[tuple[int, ...], ...] = tuple(map(tuple, claimers))
        solo = np.zeros(len(self.agents), dtype=np.float64)
        for i, ranked in enumerate(self.ranked_interest):
            if ranked:
                solo[i] = float(np.sum(self.good_values[list(ranked[: self.k])]))
        self.solo_value = solo

        self._graph: AgentsGraph | None = None

    def _interest_row(self, agent: str, ids: Iterable[str]) -> tuple[int, ...]:
        if isinstance(ids, (str, bytes)) or not isinstance(ids, Iterable):
            raise ScenarioError(
                f"interest of agent {agent!r} must be a list of good ids, got {ids!r}"
            )
        out = []
        for g in ids:
            j = self.good_index.get(str(g))
            if j is None:
                raise ScenarioError(f"agent {agent!r} is interested in undeclared good {g!r}")
            out.append(j)
        return tuple(sorted(set(out)))

    # -- basic shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def full_mask(self) -> Coalition:
        return (1 << self.n) - 1

    def solo_goods(self, i: int) -> tuple[int, ...]:
        """Goods an agent alone would take (top ``k`` by value)."""
        return self.ranked_interest[i][: self.k]

    @property
    def graph(self) -> "AgentsGraph":
        if self._graph is None:
            self._graph = build_agents_graph(self)
        return self._graph

    # set on first use of ``walk_table``; a class default, so construction
    # pays nothing for scenarios no walk reaches
    _walk_table: "list[tuple[tuple[int, ...], float, float, int]] | None" = None

    @property
    def walk_table(self) -> list[tuple[tuple[int, ...], float, float, int]]:
        """Per agent, what ``matching.add_agents`` reads for it: its solo
        goods, their values summed best first from 0.0, ``solo_value`` as a
        float, and its unit count ``min(k, len(ranked_interest[i]))``."""
        if self._walk_table is None:
            k, values = self.k, self.good_value_list
            table = []
            for own, solo in zip(self.ranked_interest, self.solo_value.tolist()):
                total = 0.0
                for g in own[:k]:
                    total += values[g]
                table.append((own[:k], total, solo, min(k, len(own))))
            self._walk_table = table
        return self._walk_table

    # -- coalitions --------------------------------------------------------

    def mask_of(self, ids: Iterable[str]) -> Coalition:
        m = 0
        for a in ids:
            try:
                m |= 1 << self.agent_index[a]
            except KeyError:
                raise ScenarioError(f"unknown agent {a!r}") from None
        return m

    def ids_of(self, mask: Coalition) -> tuple[str, ...]:
        return tuple(self.agents[i] for i in iter_bits(mask))

    # -- derived scenarios --------------------------------------------------

    def restrict(self, ids: Iterable[str]) -> "AllocationScenario":
        """Sub-scenario over the given agents and the goods they reference.

        Agent and good order follow the original declaration order.
        """
        keep = set(ids)
        unknown = [a for a in keep if a not in self.agent_index]
        if unknown:
            raise ScenarioError(f"unknown agents in restriction: {sorted(unknown)}")
        agents = sorted(keep, key=self.agent_index.__getitem__)
        used: set[int] = set()
        for a in agents:
            used.update(self.interest[self.agent_index[a]])
        # ascending good index is declaration order
        goods = [(self.good_ids[j], self.good_value_list[j]) for j in sorted(used)]
        interest = {
            a: [self.good_ids[j] for j in self.interest[self.agent_index[a]]]
            for a in agents
        }
        return AllocationScenario(agents, goods, interest, self.k)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "goods": [
                {"id": g, "value": float(v)}
                for g, v in zip(self.good_ids, self.good_values)
            ],
            "agents": [
                {"id": a, "interest": [self.good_ids[j] for j in self.interest[i]]}
                for i, a in enumerate(self.agents)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationScenario":
        try:
            k = data["k"]
            goods = [(g["id"], g["value"]) for g in data["goods"]]
            agents = [a["id"] for a in data["agents"]]
            interest = {a["id"]: a.get("interest", []) for a in data["agents"]}
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario object: {exc}") from exc
        for kind, ids in (("good", [g for g, _ in goods]), ("agent", agents)):
            for x in ids:
                if not isinstance(x, str):
                    raise ScenarioError(f"{kind} id {x!r} is not a string")
        return cls(agents, goods, interest, k)

    def __repr__(self) -> str:
        return (
            f"AllocationScenario(n={self.n}, goods={len(self.good_ids)}, k={self.k})"
        )


def read_json(path: str):
    """The JSON value in the file at ``path``.

    A file that is not UTF-8, not JSON, or holds an integer longer than the
    interpreter converts raises ``ScenarioError`` naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a decode, a JSON syntax or a digit-limit error
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path: str) -> AllocationScenario:
    """Load a scenario from its canonical JSON file format."""
    data = read_json(path)
    try:
        return AllocationScenario.from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def save_scenario(scenario: AllocationScenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


# -- bit helpers -------------------------------------------------------------


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


# -- agents graph -------------------------------------------------------------


@dataclass
class AgentsGraph:
    """Undirected adjacency over agents, as per-agent neighbor bitmasks and
    the same neighbors listed in ascending order.

    Two agents are adjacent iff they share at least one positive-value good.
    """

    n: int
    neighbor_masks: tuple[int, ...]
    neighbor_lists: tuple[tuple[int, ...], ...]

    def components(self) -> list[int]:
        """Connected components of the graph, as masks."""
        return list(connected_components((1 << self.n) - 1, self.neighbor_masks))


def neighbor_masks(n: int, claimers: Iterable[Sequence[int]]) -> list[int]:
    """Per agent of ``n``, the mask of the other agents that claim a good it
    claims; ``claimers`` lists each good's claimers."""
    neigh = [0] * n
    for group in claimers:
        if len(group) < 2:
            continue
        mask = mask_from_indices(group)
        for i in group:
            neigh[i] |= mask ^ (1 << i)
    return neigh


def build_agents_graph(scenario: AllocationScenario) -> AgentsGraph:
    n = scenario.n
    neigh = neighbor_masks(n, scenario.good_claimers)
    return AgentsGraph(
        n=n,
        neighbor_masks=tuple(neigh),
        neighbor_lists=tuple(tuple(iter_bits(mask)) for mask in neigh),
    )


def connected_components(mask: int, neighbor_masks: Sequence[int]) -> Iterator[int]:
    """Connected components of the induced subgraph on ``mask``.

    Yields component masks in ascending order of their lowest member index.
    """
    remaining = mask
    while remaining:
        comp = component_of((remaining & -remaining).bit_length() - 1, remaining, neighbor_masks)
        yield comp
        remaining &= ~comp


def component_of(i: int, coalition: int, neighbor_masks: Sequence[int]) -> int:
    """Connected component of agent ``i`` inside ``coalition | {i}``."""
    allowed = coalition | (1 << i)
    comp = 1 << i
    frontier = comp
    while frontier:
        reach = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            reach |= neighbor_masks[low.bit_length() - 1]
        frontier = reach & allowed & ~comp
        comp |= frontier
    return comp


# -- characteristic value cache ------------------------------------------------


class CharacteristicCache:
    """Inert memo of coalition worths keyed by bitmask.

    No solver looks a worth up in it or stores one: ``exact_shapley``,
    ``shapley_bounds``, ``fpras_shapley`` and ``range_sampler_shapley``
    still accept one positionally and leave it empty, so ``hits``,
    ``misses`` and ``len`` stay 0 unless a caller uses ``get`` and ``put``.
    """

    def __init__(self):
        self.store: dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def get(self, mask: int) -> float | None:
        v = self.store.get(mask)
        if v is None:
            self.misses += 1
            return None
        self.hits += 1
        return v

    def put(self, mask: int, value: float) -> None:
        self.store[mask] = value

    def __len__(self) -> int:
        return len(self.store)


# -- characteristic function ---------------------------------------------------


def char_value(scenario: AllocationScenario, coalition: Coalition) -> float:
    """Worth of a coalition: the value of an optimal feasible allocation.

    The coalition is split into connected components of the agents graph
    first; each component is matched independently (a singleton takes its
    solo value) and the values are summed from 0.0 in ascending order of
    each component's lowest member.  Decomposing is exact because disjoint
    interest sets cannot compete for goods, and it keeps matching instances
    small.
    """
    if coalition == 0:
        return 0.0
    if coalition < 0 or coalition > scenario.full_mask:
        raise ScenarioError("coalition mask outside the scenario's agent range")
    from . import matching

    total = 0.0
    for comp in connected_components(coalition, scenario.graph.neighbor_masks):
        total += matching.optimal_value_only(scenario, comp)
    return total


def marginal_restricted(
    scenario: AllocationScenario, i: int, coalition: Coalition
) -> float:
    """Marginal contribution of ``i`` to ``coalition``, evaluated locally.

    Only the connected component of ``i`` inside ``coalition | {i}`` can
    change when ``i`` joins.  With no neighbor of ``i`` in the coalition
    the marginal is ``i``'s solo value; otherwise it is
    ``matching.marginal_gain`` on that component: one greedy for the
    component without ``i``, then at most k augmentations adding ``i``.
    Exact; it never touches the rest of the coalition.
    """
    bit = 1 << i
    if coalition & bit:
        raise ScenarioError(f"agent index {i} already belongs to the coalition")
    neigh = scenario.graph.neighbor_masks
    if neigh[i] & coalition == 0:
        return float(scenario.solo_value[i])
    from . import matching

    comp = component_of(i, coalition, neigh)
    return matching.marginal_gain(scenario, comp & ~bit, i)
