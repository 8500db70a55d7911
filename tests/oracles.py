"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: allocations are found by exhaustive
search over agent choices (no matching solver), Shapley values by iterating
all permutations, and profile masses by enumerating every coalition.  Keep
these free of shapalloc solver calls so the checks stay two-sided.

Four pieces are not naive but frozen: ``reference_add_agent`` is the
unbounded augmenting search that ``matching.add_agent`` replaced, kept as
it was; ``reference_greedy`` and ``reference_remove_agent`` are
``matching.greedy`` and ``matching.remove_agent`` as they were with a
breadth-first search each, less their work counters; and
``permutation_walk`` is the per-step walk the samplers used before their
walk was inlined.  They read only scenario attributes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial


def brute_force_opt(scenario, mask: int | None = None) -> float:
    """Best total value over all feasible allocations, by exhaustive search."""
    if mask is None:
        mask = scenario.full_mask
    members = [i for i in range(scenario.n) if mask >> i & 1]
    rows = [scenario.interest[i] for i in members]
    values = scenario.good_values
    k = scenario.k
    best = 0.0

    def rec(idx: int, used: frozenset, total: float) -> None:
        nonlocal best
        if total > best:
            best = total
        if idx == len(members):
            return
        opts = [j for j in rows[idx] if j not in used]
        rec(idx + 1, used, total)
        for r in range(1, min(k, len(opts)) + 1):
            for sel in combinations(opts, r):
                rec(idx + 1, used | set(sel), total + sum(values[j] for j in sel))

    rec(0, frozenset(), 0.0)
    return best


def separability_passes(scenario, tol: float = 1e-9) -> list[set[str]]:
    """The separability test applied as a fixpoint, by brute force.

    On each pass every live agent i with v(L) - v(L - i) >= opt({i}) -
    tol * max(1, opt({i})) is resolved, L being the live agents at the start
    of the pass.  Returns the agents resolved on each pass, ending with the
    first pass that resolves nothing.
    """
    live = scenario.full_mask
    passes: list[set[str]] = []
    while True:
        whole = brute_force_opt(scenario, live)
        found = set()
        for i in range(scenario.n):
            if not live >> i & 1:
                continue
            solo = brute_force_opt(scenario, 1 << i)
            marg = whole - brute_force_opt(scenario, live & ~(1 << i))
            if marg >= solo - tol * max(1.0, solo):
                found.add(i)
        passes.append({scenario.agents[i] for i in found})
        if not found:
            return passes
        for i in found:
            live &= ~(1 << i)


def useless_pairs(scenario, tol: float = 1e-9) -> list[tuple[str, str]]:
    """(agent, good) pairs that pruning drops, by the rule spelled out.

    Good g is useless for agent i when g plus i's best k-1 other goods,
    found by sorting the rest of i's interest set, stays below
    marg(i, N) - tol * max(1, marg(i, N)); the marginals are brute forced.
    Pairs come in agent order, each agent's goods in interest order.
    """
    whole = brute_force_opt(scenario)
    values = scenario.good_values
    pairs = []
    for i, a in enumerate(scenario.agents):
        marg = whole - brute_force_opt(scenario, scenario.full_mask & ~(1 << i))
        row = scenario.interest[i]
        for j in row:
            others = sorted((float(values[o]) for o in row if o != j), reverse=True)
            best = float(values[j]) + sum(others[: scenario.k - 1])
            if best < marg - tol * max(1.0, marg):
                pairs.append((a, scenario.good_ids[j]))
    return pairs


def allocation_value(scenario, assignment) -> float:
    """Total value of an assignment ``{agent id: good ids}``."""
    total = 0.0
    for goods in assignment.values():
        for g in goods:
            total += float(scenario.good_values[scenario.good_index[g]])
    return total


def validate_allocation(scenario, assignment, coalition: int) -> None:
    """Assert that an assignment ``{agent id: good ids}`` is feasible for the
    coalition: only members hold goods, each at most ``k`` goods it is
    interested in, and no good is held twice."""
    members = {scenario.agents[i] for i in range(scenario.n) if coalition >> i & 1}
    seen: set[str] = set()
    for a, goods in assignment.items():
        assert a in members, f"allocation assigns goods to non-member {a!r}"
        assert len(goods) <= scenario.k, f"agent {a!r} holds more than k={scenario.k} goods"
        row = scenario.interest[scenario.agent_index[a]]
        allowed = {scenario.good_ids[j] for j in row}
        for g in goods:
            assert g in allowed, f"agent {a!r} assigned uninteresting good {g!r}"
            assert g not in seen, f"good {g!r} assigned twice"
            seen.add(g)


def char_table(scenario) -> dict[int, float]:
    """Characteristic function for every coalition mask, brute forced."""
    return {m: brute_force_opt(scenario, m) for m in range(1 << scenario.n)}


def shapley_by_permutations(n: int, value_of_mask) -> list[float]:
    """Average marginal contribution over all n! agent orders."""
    totals = [0.0] * n
    for perm in permutations(range(n)):
        mask = 0
        prev = 0.0
        for j in perm:
            mask |= 1 << j
            cur = value_of_mask(mask)
            totals[j] += cur - prev
            prev = cur
    f = factorial(n)
    return [t / f for t in totals]


def greedy_disjoint_value(scenario, mask: int) -> float:
    """Sum of per-agent top-k values; valid only for pairwise-disjoint interests."""
    total = 0.0
    for i in range(scenario.n):
        if not mask >> i & 1:
            continue
        vals = sorted(
            (float(scenario.good_values[j]) for j in scenario.interest[i]), reverse=True
        )
        total += sum(vals[: scenario.k])
    return total


def profile_mass_explicit(n: int, i: int, neigh: set[int], profile: set[int]) -> float:
    """Total Shapley weight of coalitions C (i not in C) with C & neigh == profile."""
    others = [x for x in range(n) if x != i]
    total = Fraction(0)
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            if set(combo) & neigh == profile:
                total += Fraction(
                    factorial(len(combo)) * factorial(n - len(combo) - 1), factorial(n)
                )
    return float(total)


def profile_weight_sum(l: int, p: int, z: int, n: int) -> float:
    """Profile weight summed over the number k of present non-neighbors:

        y = sum_k (l - k + p)! (z + k)! / n! * C(l, k),

    exact rational arithmetic, rounded once.
    """
    num = sum(factorial(l - k + p) * factorial(z + k) * comb(l, k) for k in range(l + 1))
    return float(Fraction(num, factorial(n)))


def prefix_law_expectation(n: int, i: int, marginal_of_mask) -> float:
    """Exact expectation of the range sampler's estimator for agent i.

    Coalition law: size s uniform over {0..n-1}, then a uniform s-subset of
    the other agents.
    """
    others = [x for x in range(n) if x != i]
    total = Fraction(0)
    for s in range(n):
        count = 0
        acc = 0.0
        for combo in combinations(others, s):
            mask = 0
            for x in combo:
                mask |= 1 << x
            acc += marginal_of_mask(mask)
            count += 1
        total += Fraction(1, n) * Fraction(acc / count if count else 0.0)
    return float(total)


def reference_add_agent(
    scenario: "AllocationScenario",
    holder: dict[int, int],
    held: dict[int, list[int]],
    i: int,
) -> float:
    """Add agent ``i`` to an optimal allocation in place; return the gain.

    ``holder`` maps each held good to its holder and ``held`` each member to
    its goods.  On entry they describe an optimal allocation for a coalition
    without ``i``; on return, one for the coalition with ``i``.

    Agent ``i`` is added one capacity unit at a time.  Adding a unit changes
    the optimal allocation by a single alternating path from ``i``, whose
    net gain is the value of the free good at its far end (displaced holders
    keep their goods' values in the system), so each augmentation reduces to
    a reachability search over displacement moves and the best gain is the
    most valuable reachable free good.  Gains are non-increasing, so the
    greedy sum over at most k units is exact (Edmonds 1971).
    """
    positive = [tuple(sorted(row)) for row in scenario.ranked_interest]
    values = scenario.good_value_list
    own = positive[i]
    mine = held[i] = []
    total = 0.0
    if not own:
        return total
    # No unit gains more than the best good ``i`` wants (else the displaced
    # holders could have shifted without ``i``) or than the unit before it,
    # so a search may stop at the first free good worth ``ceiling``: it is
    # the first maximum in breadth-first order either way.
    ceiling = values[scenario.solo_goods(i)[0]]
    for _ in range(min(scenario.k, len(own))):
        best_good = -1
        best_val = 0.0
        # breadth-first over displacement moves; every good queued is a key
        # of ``parent``, so each is visited once
        parent = {g: -1 for g in own if g not in mine}
        queue = list(parent)
        for g in queue:
            h = holder.get(g)
            if h is None:
                if values[g] > best_val:
                    best_val = values[g]
                    best_good = g
                    if best_val >= ceiling:
                        break
                continue
            theirs = held[h]
            for g2 in positive[h]:
                if g2 not in parent and g2 not in theirs:
                    parent[g2] = g
                    queue.append(g2)
        if best_good < 0:
            break
        total += best_val
        ceiling = best_val
        # apply the chain: walk back to a good wanted by i, shifting holders
        g = best_good
        prev = parent[g]
        while prev != -1:
            h = holder[prev]
            theirs = held[h]
            theirs.remove(prev)
            theirs.append(g)
            holder[g] = h
            g = prev
            prev = parent[g]
        holder[g] = i
        mine.append(g)
    return total


def reference_greedy(scenario, coalition: int):
    """The greedy's ``(holder, held, kept)`` for a coalition, from its own
    breadth-first search over members: ``holder`` and ``held`` are the
    flat lists of ``matching``, ``kept`` the goods kept in the order taken.
    """
    k = scenario.k
    claimers = scenario.good_claimers
    holder, held = [-1] * len(scenario.good_ids), [None] * scenario.n
    load: dict[int, int] = {}  # goods held by each member still searched
    goods: set[int] = set()
    for a in range(scenario.n):
        if coalition >> a & 1:
            load[a] = 0
            held[a] = []
            goods.update(scenario.interest[a])
    kept = []
    for g in sorted(goods, key=scenario.good_rank.__getitem__):
        # the first interested member with room takes g; if all are full,
        # search onward from them, breadth first
        parent: dict[int, tuple[int, int] | None] = {}
        end = -1
        for a in claimers[g]:
            if a in load:
                if load[a] < k:
                    end = a
                    break
                parent[a] = None
        if end < 0:
            queue = list(parent)
            for a in queue:
                if load[a] < k:
                    end = a
                    break
                for g2 in held[a]:
                    for b in claimers[g2]:
                        if b in load and b not in parent:
                            parent[b] = (a, g2)
                            queue.append(b)
            if end < 0:
                # every member reached is full and reaches only full
                # members, so no later augmenting path passes through them
                for a in queue:
                    del load[a]
                continue
        load[end] += 1
        b = end
        step = parent.get(b)
        while step is not None:
            a, g2 = step
            held[a].remove(g2)
            held[b].append(g2)
            holder[g2] = b
            b = a
            step = parent[b]
        held[b].append(g)
        holder[g] = b
        kept.append(g)
    return holder, held, kept


def reference_remove_agent(scenario, holder, held, i: int) -> float:
    """Remove member ``i`` from an optimal allocation (the flat lists of
    ``matching``) in place; return the loss v(S) - v(S - i).

    Each capacity unit ``i`` gives up is re-placed by a breadth-first search
    over goods from ``i``'s goods to a member with room; when none has room,
    the first cheapest good visited is dropped.  The losses are summed in
    descending order, left to right from 0.0.
    """
    k = scenario.k
    claimers, values = scenario.good_claimers, scenario.good_value_list
    mine = held[i]
    held[i] = None
    losses: list[float] = []
    while mine:
        # parent[g] is the good that g's holder takes when it gives g up,
        # -1 for i's own goods; every member is visited once, so every good
        # is queued once
        parent = {g: -1 for g in mine}
        queue = list(mine)
        seen: set[int] = set()
        cheapest = queue[0]
        taker = -1
        for g in queue:
            if values[g] < values[cheapest]:
                cheapest = g
            for b in claimers[g]:
                if b in seen or held[b] is None:
                    continue
                seen.add(b)
                theirs = held[b]
                if len(theirs) < k:
                    taker = b
                    break
                for g2 in theirs:
                    parent[g2] = g
                    queue.append(g2)
            if taker >= 0:
                break
        if taker < 0:
            # drop the cheapest good; its holder takes the good before it
            g = cheapest
            h = holder[g]
            holder[g] = -1
            losses.append(values[g])
            if parent[g] == -1:
                mine.remove(g)
                continue
            held[h].remove(g)
            taker, g = h, parent[g]
        # shift the chain back to i: taker takes g from its holder, who
        # takes the good before g, and so on
        while True:
            prev = parent[g]
            h = holder[g]
            holder[g] = taker
            held[taker].append(g)
            if prev == -1:
                mine.remove(g)
                break
            held[h].remove(g)
            taker, g = h, prev
    total = 0.0
    for v in sorted(losses, reverse=True):
        total += v
    return total


def permutation_walk(scenario, perm, holder, held, add=reference_add_agent):
    """Walk one permutation, carrying the prefix's optimal allocation.

    ``holder`` and ``held`` start empty and are updated in place by ``add``
    (``reference_add_agent`` unless another kernel is passed), so after each
    step they describe an optimal allocation for the prefix that ends with
    the agent just added.  Yields ``(agent, contribution, disconnected)``
    per step, where ``disconnected`` says no earlier agent is a neighbor.
    Such an agent takes its solo goods and contributes its solo value; every
    other step, the last included, calls ``add``.
    """
    neigh = scenario.graph.neighbor_masks
    prefix = 0
    for j in perm:
        alone = neigh[j] & prefix == 0
        if alone:
            contrib = float(scenario.solo_value[j])
            held[j] = list(scenario.solo_goods(j))
            for g in scenario.solo_goods(j):
                holder[g] = j
        else:
            contrib = add(scenario, holder, held, j)
        prefix |= 1 << j
        yield j, contrib, alone
