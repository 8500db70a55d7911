import json

import numpy as np
import pytest

import shapalloc as sa


def test_same_seed_gives_byte_identical_json():
    a = sa.generate(agents=40, coauthor_prob=0.3, seed=7)
    b = sa.generate(agents=40, coauthor_prob=0.3, seed=7)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_different_seeds_differ():
    a = sa.generate(agents=40, coauthor_prob=0.3, seed=7)
    b = sa.generate(agents=40, coauthor_prob=0.3, seed=8)
    assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())


def test_no_coauthorship_means_edgeless_graph():
    scn = sa.generate(agents=25, coauthor_prob=0.0, seed=1)
    assert not any(scn.graph.neighbor_masks)
    report = sa.run_pipeline(scn)
    assert report.components == []
    assert len(report.resolved) + len(report.removed_empty) == 25


def test_values_come_from_the_configured_set():
    scn = sa.generate(agents=30, seed=2, value_set=(0.0, 0.5, 2.0))
    assert set(np.unique(scn.good_values)) <= {0.0, 0.5, 2.0}


def test_value_weights_shift_the_mix():
    scn = sa.generate(agents=300, seed=3, value_set=(0.0, 1.0), value_weights=(0.9, 0.1))
    zero_frac = float((scn.good_values == 0.0).mean())
    assert zero_frac > 0.8


def test_goods_count_tracks_rate():
    scn = sa.generate(agents=100, goods_per_agent=1.5, seed=4)
    assert len(scn.good_ids) == 150


def test_claimer_truncation():
    scn = sa.generate(agents=50, coauthor_prob=0.9, max_claimers=3, seed=5)
    claims = np.zeros(len(scn.good_ids), dtype=int)
    for i in range(scn.n):
        for j in scn.interest[i]:
            claims[j] += 1
    assert claims.max() <= 3
    assert claims.min() >= 1


def test_scenarios_pass_validation_and_pipeline():
    for seed in range(6):
        scn = sa.generate(agents=20, coauthor_prob=0.4, seed=seed)
        report = sa.run_pipeline(scn)
        report.check_partition()


def test_parameter_validation():
    with pytest.raises(ValueError):
        sa.generate(agents=0)
    with pytest.raises(ValueError):
        sa.generate(agents=5, coauthor_prob=1.0)
    with pytest.raises(ValueError):
        sa.generate(agents=5, goods_per_agent=0.0)
    with pytest.raises(ValueError):
        sa.generate(agents=5, value_weights=(1.0,))


class TestExtract:
    def test_identity_at_full_size(self):
        scn = sa.generate(agents=15, seed=9)
        assert sa.extract_subgraph(scn, 15, seed=1) is scn

    def test_single_agent(self):
        scn = sa.generate(agents=15, seed=9)
        sub = sa.extract_subgraph(scn, 1, seed=1)
        assert sub.n == 1

    def test_oversize_rejected(self):
        scn = sa.generate(agents=15, seed=9)
        with pytest.raises(ValueError):
            sa.extract_subgraph(scn, 16, seed=1)

    def test_negative_size_rejected(self):
        scn = sa.generate(agents=15, seed=9)
        with pytest.raises(ValueError, match="size must be at least 0, got -3"):
            sa.extract_subgraph(scn, -3, seed=1)

    def test_goods_are_union_of_sampled_interests(self):
        scn = sa.generate(agents=30, coauthor_prob=0.4, seed=10)
        sub = sa.extract_subgraph(scn, 12, seed=3)
        used = set()
        for i in range(sub.n):
            used.update(sub.interest[i])
        assert used == set(range(len(sub.good_ids)))

    def test_deterministic_per_seed(self):
        scn = sa.generate(agents=30, seed=11)
        a = sa.extract_subgraph(scn, 10, seed=5)
        b = sa.extract_subgraph(scn, 10, seed=5)
        assert a.to_dict() == b.to_dict()
        c = sa.extract_subgraph(scn, 10, seed=6)
        assert c.to_dict() != a.to_dict()

    def test_extract_preserves_agent_order(self):
        scn = sa.generate(agents=30, seed=12)
        sub = sa.extract_subgraph(scn, 10, seed=5)
        positions = [scn.agent_index[a] for a in sub.agents]
        assert positions == sorted(positions)


def test_funnel_statistics_on_mid_size_instance():
    scn = sa.generate(
        agents=500, goods_per_agent=1.659, coauthor_prob=0.3,
        value_weights=(0.39, 0.1525, 0.1525, 0.1525, 0.1525),
        k=2, seed=13, max_claimers=3,
    )
    report = sa.run_pipeline(scn)
    resolved = len(report.resolved) + len(report.removed_empty)
    assert resolved / scn.n > 0.4
    report.check_partition()
