import random

import pytest

from logsurf.dualgraph import (
    CHAIN,
    DISCONNECTED,
    FORK,
    HAS_CYCLE,
    TREE,
    WeightedDualGraph,
    build_dual_graph,
    graph_shape,
    is_negative_definite,
)
from logsurf.errors import ModelError
from logsurf.lattice import PointSpec, _validated, blow_up, new_projective_plane
from logsurf.linalg import negative_definite_factor
from logsurf.scenario import build_model, star_scenario
from oracles import charpoly_negdef, coordinate_model


def chain_graph(weights):
    names = [f"V{i}" for i in range(len(weights))]
    edges = [(names[i], names[i + 1]) for i in range(len(weights) - 1)]
    return WeightedDualGraph.from_weights(dict(zip(names, weights)), edges)


def star_graph(center_weight, leaf_weights):
    weights = {"C": center_weight}
    edges = []
    for i, w in enumerate(leaf_weights):
        weights[f"L{i}"] = w
        edges.append(("C", f"L{i}"))
    return WeightedDualGraph.from_weights(weights, edges)


class TestConstruction:
    def test_from_weights_sorts(self):
        g = WeightedDualGraph.from_weights({"B": -2, "A": -3}, [("B", "A")])
        assert g.names == ("A", "B")
        assert g.edges == (("A", "B"),)
        assert g.multiplicity("A", "B") == 1
        assert g.multiplicity("B", "A") == 1

    def test_intersection_matrix(self):
        g = chain_graph([-2, -3, -2])
        assert g.intersection_matrix() == [[-2, 1, 0], [1, -3, 1], [0, 1, -2]]

    def test_multi_edge_counts(self):
        g = WeightedDualGraph.from_weights({"A": -3, "B": -3}, [("A", "B"), ("A", "B")])
        assert g.multiplicity("A", "B") == 2
        assert g.intersection_matrix() == [[-3, 2], [2, -3]]

    def test_unknown_edge_endpoint_raises(self):
        with pytest.raises(ModelError, match="unknown endpoint"):
            WeightedDualGraph.from_weights({"A": -2}, [("A", "B")])


class TestBuildFromModel:
    def test_fork_model(self):
        model = build_model(star_scenario(3, (2, 3, 6), 3, boundary="1"))
        g = build_dual_graph(model, model.contracted)
        assert g.names == ("E0", "E1", "E2", "E3")
        assert [w for _, w, _ in g.vertices] == [-3, -2, -3, -6]
        assert set(g.edges) == {("E0", "E1"), ("E0", "E2"), ("E0", "E3")}
        assert all(genus == 0 for _, _, genus in g.vertices)

    def test_multiplicity_two_from_lattice(self):
        # two (-3)-classes meeting twice; a transverse double intersection
        model = _validated(
            coordinate_model(4, (-3, 1, 1, 1), {"C1": (0, -1, -1, 1), "C2": (-1, 2, 0, 0)})
        )
        assert model.intersection("C1", "C2") == 2
        g = build_dual_graph(model, ["C1", "C2"])
        assert g.multiplicity("C1", "C2") == 2
        assert graph_shape(g).kind == HAS_CYCLE

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            build_dual_graph(new_projective_plane(), ["E"])

    def test_subset_selection(self):
        model = build_model(star_scenario(3, (2, 3, 6), 3))
        g = build_dual_graph(model, ["E1", "E2"])
        assert g.names == ("E1", "E2")
        assert g.edges == ()  # branches only meet the center


class TestShape:
    def test_empty_and_single(self):
        assert graph_shape(WeightedDualGraph.from_weights({})).kind == CHAIN
        assert graph_shape(WeightedDualGraph.from_weights({"A": -2})).kind == CHAIN

    def test_chains(self):
        for n in (2, 3, 4, 5):
            shape = graph_shape(chain_graph([-2] * n))
            assert shape.kind == CHAIN
            assert shape.branch_count is None

    def test_fork_counts_branches(self):
        for k in (3, 4, 5):
            shape = graph_shape(star_graph(-k, [-2] * k))
            assert shape.kind == FORK
            assert shape.branch_count == k

    def test_tree_with_two_junctions(self):
        # H-shape: two degree-3 vertices
        weights = {n: -2 for n in "ABCDEF"}
        edges = [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E"), ("D", "F")]
        shape = graph_shape(WeightedDualGraph.from_weights(weights, edges))
        assert shape.kind == TREE

    def test_cycle(self):
        weights = {"A": -2, "B": -2, "C": -2}
        edges = [("A", "B"), ("B", "C"), ("A", "C")]
        assert graph_shape(WeightedDualGraph.from_weights(weights, edges)).kind == HAS_CYCLE

    def test_disconnected(self):
        g = WeightedDualGraph.from_weights({"A": -2, "B": -2}, [])
        assert graph_shape(g).kind == DISCONNECTED


class TestNegativeDefinite:
    def test_matches_matrix_route(self):
        g = star_graph(-5, [-2, -2, -2])
        assert is_negative_definite(g)
        assert negative_definite_factor(g.intersection_matrix()) is not None

    def test_minus_one_pair_fails(self):
        g = chain_graph([-1, -1])
        assert not is_negative_definite(g)

    def test_empty_graph(self):
        assert is_negative_definite(WeightedDualGraph.from_weights({}))

    def test_random_chains_and_stars_vs_oracle(self):
        rng = random.Random(1400)
        for _ in range(150):
            n = rng.randint(1, 5)
            weights = [rng.randint(-6, -1) for _ in range(n)]
            g = chain_graph(weights) if rng.random() < 0.5 or n < 4 else star_graph(
                weights[0], weights[1:]
            )
            assert is_negative_definite(g) == charpoly_negdef(g.intersection_matrix())


class TestDotAdjacent:
    def test_build_is_deterministic(self):
        model = build_model(star_scenario(5, (2, 2, 2), 3, boundary="6/7"))
        a = build_dual_graph(model, model.tracked)
        b = build_dual_graph(model, list(reversed(model.tracked)))
        assert a == b
