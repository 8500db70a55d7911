"""Seeded scenario generators for the benchmark workloads.

The benchmark builds its own inputs instead of calling
``shapalloc.generate``, so that a change to the package's generator never
changes what is measured.  Each workload draws from one of two laws:

* the funnel law: the author/publication market of the frozen ``FUNNEL``
  instance in ``tests/test_acceptance.py`` (claimers per good
  1 + Geometric, capped at 2; 22% of the agents inactive; k = 2);
* the cluster law: disjoint connected clusters, each a random spanning tree
  of shared goods plus a few extra shared goods and optional private goods.

``relabel`` shuffles and renames one draw by a seed.  Scenarios are plain
dicts in the package's JSON scenario format.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

K = 2
GRADES = (0.0, 0.1, 0.4, 0.7, 1.0)
# the funnel law: the parameters of FUNNEL in tests/test_acceptance.py
FUNNEL_GRADE_WEIGHTS = (0.42, 0.0, 0.10, 0.24, 0.24)
FUNNEL_GOODS_PER_AGENT = 1.659
FUNNEL_COAUTHOR_PROB = 0.52
FUNNEL_MAX_CLAIMERS = 2
FUNNEL_INACTIVE_FRACTION = 0.22
# the cluster law
CLUSTER_GRADE_WEIGHTS = (0.0, 0.1, 0.3, 0.3, 0.3)
CLUSTER_PRIVATE_PROB = 0.5
CLUSTER_EXTRA_SHARED = 3


def _rng(seed: int, law: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(law.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _grades(rng: np.random.Generator, size: int, weights) -> np.ndarray:
    p = np.asarray(weights, dtype=np.float64)
    return rng.choice(np.asarray(GRADES), size=size, p=p / p.sum())


def funnel_market(seed: int, agents: int) -> dict:
    """One market drawn from the funnel law."""
    rng = _rng(seed, "funnel")
    n_goods = round(agents * FUNNEL_GOODS_PER_AGENT)
    values = _grades(rng, n_goods, FUNNEL_GRADE_WEIGHTS)
    n_active = agents - round(agents * FUNNEL_INACTIVE_FRACTION)
    active = np.sort(rng.choice(agents, size=n_active, replace=False))
    claimers = np.minimum(
        rng.geometric(1.0 - FUNNEL_COAUTHOR_PROB, size=n_goods), FUNNEL_MAX_CLAIMERS
    )
    interest: list[list[str]] = [[] for _ in range(agents)]
    for j in range(n_goods):
        for i in active[rng.choice(n_active, size=int(claimers[j]), replace=False)]:
            interest[int(i)].append(f"g{j:05d}")
    return {
        "k": K,
        "goods": [{"id": f"g{j:05d}", "value": float(v)} for j, v in enumerate(values)],
        "agents": [
            {"id": f"a{i:05d}", "interest": row} for i, row in enumerate(interest)
        ],
    }


def cluster_market(seed: int, clusters: int, size: int) -> dict:
    """Disjoint union of connected clusters of ``size`` agents each."""
    rng = _rng(seed, f"cluster-{size}")
    goods: list[dict] = []
    agents: list[dict] = []

    def add_good(owners, value) -> None:
        gid = f"g{len(goods):05d}"
        goods.append({"id": gid, "value": float(value)})
        for o in owners:
            agents[o]["interest"].append(gid)

    for c in range(clusters):
        base = len(agents)
        agents.extend(
            {"id": f"c{c:02d}a{i:02d}", "interest": []} for i in range(size)
        )
        pairs = [(int(rng.integers(t)), t) for t in range(1, size)]
        for _ in range(CLUSTER_EXTRA_SHARED):
            a, b = rng.choice(size, size=2, replace=False)
            pairs.append((int(a), int(b)))
        for (a, b), v in zip(pairs, _grades(rng, len(pairs), CLUSTER_GRADE_WEIGHTS)):
            add_good((base + a, base + b), v)
        has_private = rng.random(size) < CLUSTER_PRIVATE_PROB
        for i, v in zip(np.nonzero(has_private)[0], _grades(rng, size, CLUSTER_GRADE_WEIGHTS)):
            add_good((base + int(i),), v)
    return {"k": K, "goods": goods, "agents": agents}


def _orders(scenario: dict, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = _rng(seed, "relabel")
    return rng.permutation(len(scenario["agents"])), rng.permutation(len(scenario["goods"]))


def relabel(scenario: dict, seed: int) -> dict:
    """The same game with agents and goods shuffled and renamed by ``seed``."""
    agent_order, good_order = _orders(scenario, seed)
    good_name = {
        scenario["goods"][j]["id"]: f"g{new:05d}" for new, j in enumerate(good_order)
    }
    return {
        "k": scenario["k"],
        "goods": [
            {"id": good_name[g["id"]], "value": g["value"]}
            for g in (scenario["goods"][j] for j in good_order)
        ],
        "agents": [
            {
                "id": f"a{new:05d}",
                "interest": sorted(good_name[g] for g in scenario["agents"][i]["interest"]),
            }
            for new, i in enumerate(agent_order)
        ],
    }


def relabeled_agents(scenario: dict, seed: int) -> dict[str, str]:
    """Each agent id of ``scenario`` mapped to its id in ``relabel(scenario, seed)``."""
    agent_order, _ = _orders(scenario, seed)
    return {scenario["agents"][i]["id"]: f"a{new:05d}" for new, i in enumerate(agent_order)}


def scenario_text(scenario: dict) -> str:
    return json.dumps(scenario, indent=1) + "\n"


def fingerprint(scenario: dict, text: str) -> dict:
    """Agents, goods, agents-graph edges and the SHA-256 of the file text."""
    positive = {g["id"] for g in scenario["goods"] if g["value"] > 0.0}
    claimers: dict[str, list[int]] = {}
    for i, a in enumerate(scenario["agents"]):
        for g in set(a["interest"]) & positive:
            claimers.setdefault(g, []).append(i)
    edges = {
        (a, b)
        for owners in claimers.values()
        for x, a in enumerate(owners)
        for b in owners[x + 1:]
    }
    return {
        "agents": len(scenario["agents"]),
        "goods": len(scenario["goods"]),
        "edges": len(edges),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
