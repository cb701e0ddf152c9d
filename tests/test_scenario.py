import json
import sys
from fractions import Fraction as F
from importlib import resources

import pytest

from logsurf.errors import ModelError, ScenarioError
from logsurf.lattice import PointSpec
from logsurf.scenario import (
    BUNDLED,
    MAX_BLOWUPS,
    BlowupStep,
    Scenario,
    build_model,
    build_state,
    bundled_scenario,
    load_scenario,
    parse_rational,
    parse_scenario,
    serialize_scenario,
    star_scenario,
)
from logsurf.singularities import QDivisor

DIGITS = sys.get_int_max_str_digits()  # longest integer literal int() accepts


def doc(**overrides):
    base = {
        "base": "P2",
        "blowups": [
            {"point": "general", "name": "A"},
            {"point": {"on": "A"}, "name": "B"},
            {"point": {"at": ["A", "B"]}, "name": "C"},
        ],
        "contract": [["A", "B"]],
        "boundary": {"C": "1/2"},
        "epsilon": "1/7",
        "strategy": "most-negative",
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseRational:
    def test_accepts_ints_and_fraction_strings(self):
        assert parse_rational(3, "x") == 3
        assert parse_rational("3/4", "x") == F(3, 4)
        assert parse_rational("-2", "x") == -2
        assert parse_rational("0", "x") == 0

    @pytest.mark.parametrize(
        "bad", ["1.5", "1/2/3", "", "a", "1 / 2", None, 1.5, [1], "1/2\n", "3\n", True, False, "١/٧", "１/７"]
    )
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ScenarioError, match="malformed rational"):
            parse_rational(bad, "x")


class TestParseScenario:
    def test_full_document(self):
        sc = parse_scenario(doc())
        assert sc.base == "P2"
        assert sc.blowups == (
            BlowupStep(PointSpec.general(), "A"),
            BlowupStep(PointSpec.on_curve("A"), "B"),
            BlowupStep(PointSpec.at_intersection("A", "B"), "C"),
        )
        assert sc.contract == (("A", "B"),)
        assert sc.boundary == QDivisor.from_map({"C": F(1, 2)})
        assert sc.epsilon == F(1, 7)
        assert sc.strategy == "most-negative"

    def test_defaults(self):
        sc = parse_scenario('{"base": "P2"}')
        assert sc.blowups == ()
        assert sc.contract == ()
        assert sc.boundary == QDivisor.zero()
        assert sc.epsilon == 0
        assert sc.strategy == "most-negative"

    def test_zero_boundary_coefficients_drop(self):
        sc = parse_scenario(doc(boundary={"C": "0"}))
        assert sc.boundary == QDivisor.zero()

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("{", "invalid JSON at line"),
            ("[]", "must be a JSON object"),
            (doc(extra=1), "unknown fields"),
            ('{"blowups": []}', "base must be 'P2'"),
            (doc(base="P1"), "base must be 'P2'"),
            (doc(blowups={}), "blowups: expected a list"),
            (doc(blowups=[{"name": "A"}]), "with 'point' and 'name'"),
            (doc(blowups=[{"point": 42, "name": "A"}]), "bad point spec"),
            (doc(blowups=[{"point": {"on": "Z"}, "name": "A"}]), "unknown curve 'Z'"),
            (doc(blowups=[{"point": {"at": ["A"]}, "name": "B"}]), "expects a pair"),
            (
                doc(blowups=[{"point": "general", "name": "A"},
                             {"point": {"at": ["A", "A"]}, "name": "B"}]),
                "two distinct curves",
            ),
            (doc(blowups=[{"point": {"at": ["Y", "Z"]}, "name": "A"}]), "unknown curve"),
            (doc(blowups=[{"point": "general", "name": "a-b"}]), "bad curve name"),
            (
                doc(blowups=[{"point": "general", "name": "A"},
                             {"point": "general", "name": "A"}]),
                "duplicate curve name",
            ),
            (doc(contract={}), "contract: expected a list"),
            (doc(contract=[[]]), "non-empty list"),
            (doc(contract=[["Z"]]), "unknown curve 'Z'"),
            (doc(contract=[["A"], ["A"]]), "contracted twice"),
            (doc(contract=[["A", "A"]]), "contracted twice"),
            (doc(boundary=[]), "boundary: expected an object"),
            (doc(boundary={"Z": "1/2"}), "unknown curve 'Z'"),
            (doc(boundary={"A": "1/2"}), "is contracted"),
            (doc(boundary={"C": "1.5"}), "malformed rational"),
            (doc(boundary={"C": "3/2"}), "outside [0, 1]"),
            (doc(boundary={"C": "1/0"}), "zero denominator"),
            (doc(epsilon="9/8"), "epsilon 9/8 outside"),
            (doc(epsilon="x"), "malformed rational"),
            (doc(epsilon=True), "epsilon: malformed rational True"),
            (doc(epsilon=False), "epsilon: malformed rational False"),
            (doc(epsilon="1/7\n"), "malformed rational"),
            (doc(boundary={"C": True}), "boundary[C]: malformed rational True"),
            (doc(boundary={"C": False}), "boundary[C]: malformed rational False"),
            (doc(blowups=[{"point": "general", "name": "E1\n"}]), "bad curve name 'E1\\n'"),
            (doc(boundary={"C\n": "1/2"}), "bad curve name"),
            (doc(epsilon="3/0"), "zero denominator"),
            (doc(strategy=7), "strategy: expected a string"),
            (doc(strategy="bogus"), "unknown strategy"),
            (doc(strategy="named:Z"), "unknown curve 'Z'"),
            (doc(strategy="named:A"), "already contracted"),
        ],
    )
    def test_validation_errors(self, text, needle):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert needle in str(exc.value).replace('"', "'")

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000, '{"base": "P2", "blowups": ' + "[" * 5000 + "]" * 5000 + "}"],
        ids=["bare", "in-blowups"],
    )
    def test_deep_nesting_is_a_scenario_error(self, text):
        with pytest.raises(ScenarioError, match="^invalid JSON: arrays or objects nested too deeply$"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"base": "P2", "epsilon": ' + "1" * (DIGITS + 1) + "}", f"invalid JSON: integer over {DIGITS} digits"),
            (doc(epsilon="1/" + "7" * (DIGITS + 1)), f"epsilon: rational has a term over {DIGITS} digits"),
            (doc(boundary={"C": "1" * (DIGITS + 1) + "/7"}), f"boundary[C]: rational has a term over {DIGITS} digits"),
        ],
        ids=["json-number", "epsilon", "boundary"],
    )
    def test_over_long_integers_are_scenario_errors(self, text, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert str(exc.value) == message


def general_blowups(count):
    return [{"point": "general", "name": f"G{i}"} for i in range(count)]


class TestSizeCap:
    def test_cap_is_inclusive(self):
        blowups = general_blowups(MAX_BLOWUPS)
        sc = parse_scenario(doc(blowups=blowups, contract=[], boundary={}))
        assert len(sc.blowups) == MAX_BLOWUPS

    def test_one_more_is_rejected(self):
        text = doc(blowups=general_blowups(MAX_BLOWUPS + 1), contract=[], boundary={})
        with pytest.raises(ScenarioError, match=f"{MAX_BLOWUPS + 1} blow-ups exceed the cap of {MAX_BLOWUPS}"):
            parse_scenario(text)


class TestSerialize:
    def test_round_trip_identity(self):
        sc = parse_scenario(doc())
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_canonical_layout(self):
        text = serialize_scenario(parse_scenario(doc()))
        assert text.endswith("}\n")
        keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
        assert keys == ["base", "blowups", "contract", "boundary", "epsilon", "strategy"]
        assert '"1/2"' in text and '"1/7"' in text  # rationals stay strings

    def test_bundled_files_are_canonical(self):
        for name in BUNDLED:
            raw = resources.files("logsurf").joinpath("scenarios", f"{name}.json").read_text("utf-8")
            assert serialize_scenario(parse_scenario(raw)) == raw


class TestBuild:
    def test_build_model_replays_construction(self):
        model = build_model(parse_scenario(doc()))
        assert model.rank == 4
        assert sorted(model.contracted) == ["A", "B"]
        assert model.self_int("C") == -1
        # A carried B and then the intersection blow-up: -1 - 1 - 1
        assert model.self_int("A") == -3

    def test_build_state_carries_boundary(self):
        state = build_state(parse_scenario(doc()))
        assert state.boundary.as_map().get("C", 0) == F(1, 2)
        assert state.rho == 2

    def test_separated_curves_cannot_meet_again(self):
        text = doc(
            blowups=[
                {"point": "general", "name": "A"},
                {"point": {"on": "A"}, "name": "B"},
                {"point": {"at": ["A", "B"]}, "name": "C"},
                {"point": {"at": ["A", "B"]}, "name": "E"},
            ],
            contract=[],
            boundary={},
        )
        sc = parse_scenario(text)  # parses fine; the geometry is what fails
        with pytest.raises(ModelError):
            build_model(sc)


class TestLoading:
    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(tmp_path / "absent.json")

    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(serialize_scenario(parse_scenario(doc())), encoding="utf-8")
        assert load_scenario(path) == parse_scenario(doc())

    def test_bundled_names(self):
        assert BUNDLED == ("triple_fork_236", "quad_fork_threshold", "quad_fork_star")
        for name in BUNDLED:
            sc = bundled_scenario(name)
            assert build_model(sc).rank >= 11

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario("zzz")


class TestStarBuilder:
    @pytest.mark.parametrize("n0", [3, 4, 6])
    def test_all_three_routes_agree_on_the_star(self, n0):
        sc = star_scenario(n0, (2, 3, 6), 3, boundary="1")
        model = build_model(sc)
        assert model.self_int("E0") == -n0
        assert model.self_int("E1") == -2
        assert model.self_int("E2") == -3
        assert model.self_int("E3") == -6
        assert model.self_int("D") == -3
        assert sorted(model.contracted) == ["E0", "E1", "E2", "E3"]
        for b in ("E1", "E2", "E3", "D"):
            assert model.intersection("E0", b) == 1
        for a, b in [("E1", "E2"), ("E1", "E3"), ("E2", "E3"), ("D", "E1")]:
            assert model.intersection(a, b) == 0
        assert sc.boundary == QDivisor.from_map({"D": 1})

    def test_contract_extra_moves_the_divisor_into_the_batch(self):
        sc = star_scenario(5, (2, 2, 2), 3, boundary="6/7", contract_extra=True)
        assert sc.contract == (("D", "E0", "E1", "E2", "E3"),)
        assert sc.boundary == QDivisor.zero()
        model = build_model(sc)
        assert "D" in model.contracted

    def test_quad_fork_scenarios_match_builder(self):
        assert bundled_scenario("quad_fork_threshold") == star_scenario(
            5, (2, 2, 2), 3, boundary="6/7", epsilon="1/7", strategy="named:D"
        )
        assert bundled_scenario("quad_fork_star") == star_scenario(
            5, (2, 2, 2), 3, epsilon="1/7", contract_extra=True
        )
        assert bundled_scenario("triple_fork_236") == star_scenario(3, (2, 3, 6), 3, boundary="1")

    @pytest.mark.parametrize(
        "args",
        [
            (3, (2,), 3),          # one branch
            (3, (2, 1), 3),        # branch order below 2
            (3, (2, 2), 0),        # extra order below 1
            (1, (2, 2), 3),        # center order below 2
            (2, (2, 2, 2), 3),     # center cannot carry three branches
            (3, (2, 2, 2), 3),     # intersection route needs second branch >= 3
        ],
    )
    def test_infeasible_orders_rejected(self, args):
        with pytest.raises(ScenarioError):
            star_scenario(*args)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"boundary": "3/2", "epsilon": "3/2"}, "boundary[D]: coefficient 3/2 outside [0, 1]"),
            ({"epsilon": "3/2"}, "epsilon 3/2 outside [0, 1]"),
            ({"strategy": "named:Q"}, "strategy: unknown curve 'Q'"),
            ({"boundary": "x"}, "boundary[D]: malformed rational 'x' (expected \"p/q\")"),
        ],
        ids=["boundary-above-1", "epsilon-above-1", "unknown-strategy-curve", "malformed-boundary"],
    )
    def test_the_parser_checks_the_star(self, kwargs, message):
        # the builder's scenario is its file's parse, so it fails as that file would
        with pytest.raises(ScenarioError) as caught:
            star_scenario(5, (2, 2, 2), 3, **kwargs)
        assert str(caught.value) == message

    def test_feasible_center_sweep(self):
        for n0 in range(3, 13):
            model = build_model(star_scenario(n0, (2, 3, 6), 3))
            assert model.self_int("E0") == -n0
