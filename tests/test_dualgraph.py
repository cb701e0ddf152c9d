import random
from collections import Counter
from fractions import Fraction as F

import pytest

from logsurf.dualgraph import WeightedDualGraph, build_dual_graph
from logsurf.errors import ModelError, NotNegativeDefiniteError
from logsurf.lattice import PointSpec, _validated, blow_up, declare_contracted, new_projective_plane
from logsurf.linalg import negative_definite_factor
from logsurf.scenario import build_model, star_scenario
from oracles import charpoly_negdef, coordinate_model
from test_lattice import tower


def hexagon():
    """The plane blown up at three general points, with its six (-1)-curves
    tracked: E1, E2, E3 and the lines through two of the points, a cycle."""
    return _validated(
        coordinate_model(
            4,
            (-3, 1, 1, 1),
            {
                "E1": (0, 1, 0, 0),
                "E2": (0, 0, 1, 0),
                "E3": (0, 0, 0, 1),
                "L12": (1, -1, -1, 0),
                "L13": (1, -1, 0, -1),
                "L23": (1, 0, -1, -1),
            },
        )
    )


def vertex_names(graph):
    """The vertex names, in vertex order."""
    return tuple(name for name, _, _ in graph.vertices)


def degrees(graph):
    """Each vertex's degree, one per edge end; 0 for an isolated vertex."""
    count = Counter(v for edge in graph.edges for v in edge)
    return {name: count[name] for name in vertex_names(graph)}


class TestConstruction:
    def test_unknown_edge_endpoint_raises(self):
        with pytest.raises(ModelError, match="unknown endpoint"):
            WeightedDualGraph(vertices=(("A", -2, F(0)),), edges=(("A", "B"),))

    def test_names_follow_the_vertices(self):
        g = WeightedDualGraph(vertices=(("A", -3, F(0)), ("B", -2, F(0))), edges=(("A", "B"),))
        assert vertex_names(g) == ("A", "B")

    def test_an_edge_repeats_once_per_point(self):
        vertices = (("A", -3, F(0)), ("B", -3, F(0)))
        g = WeightedDualGraph(vertices=vertices, edges=(("A", "B"), ("A", "B")))
        assert g.edges.count(("A", "B")) == 2


class TestBuildFromModel:
    def test_fork_model(self):
        model = build_model(star_scenario(3, (2, 3, 6), 3, boundary="1"))
        g = build_dual_graph(model, model.contracted)
        assert vertex_names(g) == ("E0", "E1", "E2", "E3")
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
        assert g.edges.count(("C1", "C2")) == 2

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            build_dual_graph(new_projective_plane(), ["E"])

    def test_subset_selection(self):
        model = build_model(star_scenario(3, (2, 3, 6), 3))
        g = build_dual_graph(model, ["E1", "E2"])
        assert vertex_names(g) == ("E1", "E2")
        assert g.edges == ()  # branches only meet the center


class TestShapes:
    """build_dual_graph on towers whose configurations are chains, forks,
    trees, cycles and disjoint unions."""

    def test_empty_and_single(self):
        model = tower((PointSpec.general(), "A"))
        assert build_dual_graph(model, []) == WeightedDualGraph(vertices=(), edges=())
        assert build_dual_graph(model, ["A"]) == WeightedDualGraph(vertices=(("A", -1, F(0)),), edges=())

    def test_blow_ups_on_the_last_curve_make_a_chain(self):
        model = tower(
            (PointSpec.general(), "A"),
            (PointSpec.on_curve("A"), "B"),
            (PointSpec.on_curve("B"), "C"),
            (PointSpec.on_curve("C"), "D"),
        )
        g = build_dual_graph(model, model.tracked)
        assert [w for _, w, _ in g.vertices] == [-2, -2, -2, -1]
        assert g.edges == (("A", "B"), ("B", "C"), ("C", "D"))

    @pytest.mark.parametrize("branches", [3, 4])
    def test_fork_center_meets_every_branch(self, branches):
        model = build_model(star_scenario(branches + 2, (2,) * branches, 3))
        g = build_dual_graph(model, model.contracted)
        assert degrees(g) == {"E0": branches, **{f"E{i}": 1 for i in range(1, branches + 1)}}
        assert len(g.edges) == branches

    def test_tree_with_two_junctions(self):
        # H-shape: A and B of degree 3, each with two leaves
        model = tower(
            (PointSpec.general(), "A"),
            (PointSpec.on_curve("A"), "B"),
            (PointSpec.on_curve("A"), "C"),
            (PointSpec.on_curve("A"), "F"),
            (PointSpec.on_curve("B"), "D"),
            (PointSpec.on_curve("B"), "E"),
        )
        g = build_dual_graph(model, model.tracked)
        assert degrees(g) == {"A": 3, "B": 3, "C": 1, "D": 1, "E": 1, "F": 1}
        assert len(g.edges) == len(vertex_names(g)) - 1

    def test_cycle(self):
        g = build_dual_graph(hexagon(), hexagon().tracked)
        assert set(degrees(g).values()) == {2}
        assert len(g.edges) == len(vertex_names(g)) == 6
        assert ("E1", "L12") in g.edges and ("E1", "E2") not in g.edges

    def test_disconnected(self):
        model = tower((PointSpec.general(), "A"), (PointSpec.general(), "B"))
        g = build_dual_graph(model, model.tracked)
        assert vertex_names(g) == ("A", "B") and g.edges == ()


class TestNegativeDefinite:
    """A dual graph's weights and edge counts are the Gram block of its
    curves, and `declare_contracted` accepts the block iff its minors pass
    `negative_definite_factor`, which agrees with the characteristic
    polynomial."""

    def test_graph_is_the_gram_block(self):
        for model in (build_model(star_scenario(5, (2, 2, 2), 3)), hexagon()):
            names = model.tracked
            g = build_dual_graph(model, names)
            gram = model.gram(names)
            assert [w for _, w, _ in g.vertices] == [gram[i][i] for i in range(len(names))]
            off = {(a, b): gram[i][j] for i, a in enumerate(names) for j, b in enumerate(names) if i < j}
            assert Counter(g.edges) == {pair: k for pair, k in off.items() if k}

    def test_fork_block_passes(self):
        model = build_model(star_scenario(5, (2, 2, 2), 3))
        gram = model.gram(sorted(model.contracted))
        assert negative_definite_factor(gram) is not None
        assert charpoly_negdef(gram)

    def test_minus_one_pair_fails(self):
        model = hexagon()
        assert model.gram(["E1", "L12"]) == [[-1, 1], [1, -1]]
        assert negative_definite_factor(model.gram(["E1", "L12"])) is None
        with pytest.raises(NotNegativeDefiniteError) as exc:
            declare_contracted(model, ["E1", "L12"])
        assert str(exc.value) == "contracted configuration ['E1', 'L12'] is not negative definite"

    def test_empty_block(self):
        model = hexagon()
        assert negative_definite_factor(model.gram([])) == []
        assert declare_contracted(model, []).contracted == frozenset()

    def test_random_towers_vs_oracle(self):
        # the hexagon's lines are no exceptional curves, so a subset meeting
        # them can fail
        rng = random.Random(1400)
        accepted = rejected = 0
        for _ in range(60):
            model = hexagon()
            for i in range(rng.randint(0, 4)):
                names = model.tracked
                point = PointSpec.on_curve(rng.choice(names)) if names and rng.random() < 0.7 else PointSpec.general()
                model = blow_up(model, point, f"C{i}")
            subset = [n for n in model.tracked if rng.random() < 0.6]
            gram = model.gram(subset)
            negdef = charpoly_negdef(gram)
            assert (negative_definite_factor(gram) is not None) == negdef
            if negdef:
                assert declare_contracted(model, subset).contracted == frozenset(subset)
                accepted += 1
            else:
                with pytest.raises(NotNegativeDefiniteError):
                    declare_contracted(model, subset)
                rejected += 1
        assert (accepted, rejected) == (11, 49)


class TestDotAdjacent:
    def test_build_is_deterministic(self):
        model = build_model(star_scenario(5, (2, 2, 2), 3, boundary="6/7"))
        a = build_dual_graph(model, model.tracked)
        b = build_dual_graph(model, list(reversed(model.tracked)))
        assert a == b
