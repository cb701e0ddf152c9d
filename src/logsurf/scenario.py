"""Scenario files: parsing, serialization, builders, bundled fixtures.

A scenario is a JSON document describing a construction from the plane:

    {
      "base": "P2",
      "blowups": [{"point": "general", "name": "E1"},
                  {"point": {"on": "E1"}, "name": "E0"},
                  {"point": {"at": ["E1", "E0"]}, "name": "Z"}],
      "contract": [["E0", "E1"]],
      "boundary": {"D": "6/7"},
      "epsilon": "1/7",
      "strategy": "most-negative"
    }

Rationals travel as "p/q" strings so exactness survives serialization; no
float appears in any field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import ScenarioError
from .lattice import (
    GENERAL,
    ON_CURVE,
    PointSpec,
    SurfaceModel,
    blow_up,
    declare_contracted,
    new_projective_plane,
)
from .mmp import MmpState, parse_strategy
from .singularities import QDivisor

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

# Building a model takes O(n^3) time in its n blow-ups, so a huge scenario
# would run for minutes; bundled, tested and benchmarked towers stay at 30.
MAX_BLOWUPS = 200


@dataclass(frozen=True)
class BlowupStep:
    point: PointSpec
    name: str


@dataclass(frozen=True)
class Scenario:
    base: str
    blowups: tuple[BlowupStep, ...]
    contract: tuple[tuple[str, ...], ...]
    boundary: QDivisor
    epsilon: Fraction
    strategy: str


def parse_rational(text, field: str) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ScenarioError(f"{field}: malformed rational {text!r} (expected \"p/q\")")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScenarioError(f"{field}: zero denominator in {text!r}") from None


def _check_name(name, field: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(f"{field}: bad curve name {name!r}")
    return name


def _parse_point(raw, field: str, known: set) -> PointSpec:
    if raw == "general":
        return PointSpec.general()
    if isinstance(raw, dict) and set(raw) == {"on"}:
        name = _check_name(raw["on"], field)
        if name not in known:
            raise ScenarioError(f"{field}: unknown curve {name!r}")
        return PointSpec.on_curve(name)
    if isinstance(raw, dict) and set(raw) == {"at"}:
        pair = raw["at"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(f"{field}: \"at\" expects a pair of curve names")
        a, b = (_check_name(n, field) for n in pair)
        if a == b:
            raise ScenarioError(f"{field}: \"at\" needs two distinct curves")
        for n in (a, b):
            if n not in known:
                raise ScenarioError(f"{field}: unknown curve {n!r}")
        return PointSpec.at_intersection(a, b)
    raise ScenarioError(f"{field}: bad point spec {raw!r}")


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - {"base", "blowups", "contract", "boundary", "epsilon", "strategy"}
    if unknown:
        raise ScenarioError(f"unknown fields: {sorted(unknown)}")
    base = doc.get("base")
    if base != "P2":
        raise ScenarioError(f"base must be \"P2\", got {base!r}")
    blowups = []
    known: set[str] = set()
    raw_blowups = doc.get("blowups", [])
    if not isinstance(raw_blowups, list):
        raise ScenarioError("blowups: expected a list")
    if len(raw_blowups) > MAX_BLOWUPS:
        raise ScenarioError(f"blowups: {len(raw_blowups)} blow-ups exceed the cap of {MAX_BLOWUPS}")
    for i, raw in enumerate(raw_blowups):
        field = f"blowups[{i}]"
        if not isinstance(raw, dict) or set(raw) != {"point", "name"}:
            raise ScenarioError(f"{field}: expected an object with \"point\" and \"name\"")
        point = _parse_point(raw["point"], field, known)
        name = _check_name(raw["name"], field)
        if name in known:
            raise ScenarioError(f"{field}: duplicate curve name {name!r}")
        known.add(name)
        blowups.append(BlowupStep(point=point, name=name))
    contract = []
    contracted_all: set[str] = set()
    raw_contract = doc.get("contract", [])
    if not isinstance(raw_contract, list):
        raise ScenarioError("contract: expected a list of name lists")
    for i, batch in enumerate(raw_contract):
        field = f"contract[{i}]"
        if not isinstance(batch, list) or not batch:
            raise ScenarioError(f"{field}: expected a non-empty list of curve names")
        names = tuple(_check_name(n, field) for n in batch)
        for n in names:
            if n not in known:
                raise ScenarioError(f"{field}: unknown curve {n!r}")
            if n in contracted_all or names.count(n) > 1:
                raise ScenarioError(f"{field}: curve {n!r} contracted twice")
        contracted_all.update(names)
        contract.append(names)
    boundary_map = {}
    raw_boundary = doc.get("boundary", {})
    if not isinstance(raw_boundary, dict):
        raise ScenarioError("boundary: expected an object of name -> rational")
    for name, raw in sorted(raw_boundary.items()):
        _check_name(name, "boundary")
        if name not in known:
            raise ScenarioError(f"boundary: unknown curve {name!r}")
        if name in contracted_all:
            raise ScenarioError(f"boundary: curve {name!r} is contracted")
        value = parse_rational(raw, f"boundary[{name}]")
        if not (0 <= value <= 1):
            raise ScenarioError(f"boundary[{name}]: coefficient {value} outside [0, 1]")
        if value != 0:
            boundary_map[name] = value
    epsilon = parse_rational(doc.get("epsilon", "0"), "epsilon")
    if not (0 <= epsilon <= 1):
        raise ScenarioError(f"epsilon {epsilon} outside [0, 1]")
    strategy = doc.get("strategy", "most-negative")
    if not isinstance(strategy, str):
        raise ScenarioError("strategy: expected a string")
    parsed = parse_strategy(strategy)  # raises ScenarioError on bad syntax
    if hasattr(parsed, "names"):
        for n in parsed.names:
            if n not in known:
                raise ScenarioError(f"strategy: unknown curve {n!r}")
            if n in contracted_all:
                raise ScenarioError(f"strategy: curve {n!r} is already contracted")
    return Scenario(
        base="P2",
        blowups=tuple(blowups),
        contract=tuple(contract),
        boundary=QDivisor.from_map(boundary_map),
        epsilon=epsilon,
        strategy=strategy,
    )


def _point_to_json(point: PointSpec):
    if point.kind == GENERAL:
        return "general"
    if point.kind == ON_CURVE:
        return {"on": point.names[0]}
    return {"at": list(point.names)}


def serialize_scenario(scenario: Scenario) -> str:
    doc = {
        "base": scenario.base,
        "blowups": [
            {"point": _point_to_json(b.point), "name": b.name} for b in scenario.blowups
        ],
        "contract": [list(batch) for batch in scenario.contract],
        "boundary": {n: str(c) for n, c in scenario.boundary.coefficients if c != 0},
        "epsilon": str(scenario.epsilon),
        "strategy": scenario.strategy,
    }
    return json.dumps(doc, indent=2) + "\n"


def build_model(scenario: Scenario) -> SurfaceModel:
    """Replay the construction: all blow-ups, then each contraction batch."""
    model = new_projective_plane()
    for step in scenario.blowups:
        model = blow_up(model, step.point, step.name)
    for batch in scenario.contract:
        model = declare_contracted(model, batch)
    return model


def build_state(scenario: Scenario) -> MmpState:
    return MmpState(surface=build_model(scenario), boundary=scenario.boundary)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from None
    return parse_scenario(text)


BUNDLED = ("triple_fork_236", "quad_fork_threshold", "quad_fork_star")


def bundled_scenario(name: str) -> Scenario:
    if name not in BUNDLED:
        raise ScenarioError(f"no bundled scenario named {name!r} (have {', '.join(BUNDLED)})")
    text = resources.files("logsurf").joinpath("scenarios", f"{name}.json").read_text("utf-8")
    return parse_scenario(text)


def star_scenario(
    center_order: int,
    branch_orders,
    extra_order: int,
    *,
    boundary="0",
    epsilon="0",
    strategy="most-negative",
    contract_extra=False,
    extra_name="D",
) -> Scenario:
    """Build a star configuration scenario around a central curve.

    The contracted set becomes a star: center E0 with self-intersection
    -center_order, branches E1.. with the given orders, all meeting E0 once
    and nothing else. One extra tracked curve (default "D") also meets E0
    once and gets self-intersection -extra_order, an optional boundary
    coefficient, and optionally joins the contracted batch.

    Three blow-up routes cover the feasible orders. With k branches:
    center_order >= k + 2 births the center first and sprouts everything
    from it; center_order == k + 1 births the first branch before the
    center (the center's birth gives that branch its first drop);
    center_order == k births the center at the intersection of the first
    two branches, which requires a second branch of order >= 3.
    """
    branch_orders = tuple(int(n) for n in branch_orders)
    center_order = int(center_order)
    extra_order = int(extra_order)
    if len(branch_orders) < 2:
        raise ScenarioError("star needs at least two branches")
    if any(n < 2 for n in branch_orders) or extra_order < 1 or center_order < 2:
        raise ScenarioError("branch orders must be >= 2 and the extra curve order >= 1")
    blowups: list[BlowupStep] = []
    junk_counter = 0

    def junk_on(curve: str, count: int):
        nonlocal junk_counter
        for _ in range(count):
            junk_counter += 1
            blowups.append(BlowupStep(PointSpec.on_curve(curve), f"X{junk_counter}"))

    k = len(branch_orders)
    branch_names = [f"E{i + 1}" for i in range(k)]
    if center_order >= k + 2:
        # center first, every branch and the extra curve sprout from it
        blowups.append(BlowupStep(PointSpec.general(), "E0"))
        for b in branch_names:
            blowups.append(BlowupStep(PointSpec.on_curve("E0"), b))
        blowups.append(BlowupStep(PointSpec.on_curve("E0"), extra_name))
        junk_on("E0", center_order - 2 - k)
        for b, order in zip(branch_names, branch_orders):
            junk_on(b, order - 1)
    elif center_order == k + 1:
        # first branch first; the center's own birth gives it its first drop
        blowups.append(BlowupStep(PointSpec.general(), branch_names[0]))
        blowups.append(BlowupStep(PointSpec.on_curve(branch_names[0]), "E0"))
        for b in branch_names[1:]:
            blowups.append(BlowupStep(PointSpec.on_curve("E0"), b))
        blowups.append(BlowupStep(PointSpec.on_curve("E0"), extra_name))
        junk_on(branch_names[0], branch_orders[0] - 2)
        for b, order in zip(branch_names[1:], branch_orders[1:]):
            junk_on(b, order - 1)
    else:
        # center born at the intersection of the first two branches
        if center_order < k:
            raise ScenarioError(
                f"center order {center_order} cannot carry {k} branches in a blow-up tower"
            )
        if branch_orders[1] < 3:
            raise ScenarioError("intersection route needs a second branch of order >= 3")
        blowups.append(BlowupStep(PointSpec.general(), branch_names[1]))
        blowups.append(BlowupStep(PointSpec.on_curve(branch_names[1]), branch_names[0]))
        blowups.append(
            BlowupStep(PointSpec.at_intersection(branch_names[1], branch_names[0]), "E0")
        )
        for b in branch_names[2:]:
            blowups.append(BlowupStep(PointSpec.on_curve("E0"), b))
        blowups.append(BlowupStep(PointSpec.on_curve("E0"), extra_name))
        junk_on("E0", center_order - k)
        junk_on(branch_names[0], branch_orders[0] - 2)
        junk_on(branch_names[1], branch_orders[1] - 3)
        for b, order in zip(branch_names[2:], branch_orders[2:]):
            junk_on(b, order - 1)
    junk_on(extra_name, extra_order - 1)
    batch = ["E0"] + branch_names + ([extra_name] if contract_extra else [])
    boundary_frac = Fraction(boundary)
    boundary_map = {} if contract_extra or boundary_frac == 0 else {extra_name: boundary_frac}
    return Scenario(
        base="P2",
        blowups=tuple(blowups),
        contract=(tuple(sorted(batch)),),
        boundary=QDivisor.from_map(boundary_map),
        epsilon=Fraction(epsilon),
        strategy=strategy,
    )
