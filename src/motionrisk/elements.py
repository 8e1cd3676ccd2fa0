"""Risk elements: per-state probabilities of failing to finish, grouped by how
much traverse history each one is allowed to see."""

from __future__ import annotations

import bisect
import inspect
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .tether import TetherState, tether_for_prefix
from .world import GridMap, State


class ConfigError(ValueError):
    """Raised when an element-config document is malformed."""


class RiskCategory(Enum):
    LOCALE = "locale"
    ACTION = "action"
    TRAVERSE = "traverse"

    @property
    def history_depth(self) -> Optional[int]:
        """Prior states an element of this category may consult (None = all)."""
        if self is RiskCategory.LOCALE:
            return 0
        if self is RiskCategory.ACTION:
            return 2
        return None


@dataclass(frozen=True)
class RiskMapping(object):
    """Monotone lookup from a scalar feature to a failure probability.

    kind 'piecewise-linear' interpolates between knots; 'step-table' holds the
    probability of the last knot at or below the input.  Inputs beyond either
    end clamp to the nearest knot.
    """

    kind: str
    knots: Tuple[Tuple[float, float], ...]
    _xs: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _ps: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("piecewise-linear", "step-table"):
            raise ConfigError(f"unknown mapping kind {self.kind!r}")
        try:
            knots = tuple((float(x), float(p)) for x, p in self.knots)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("mapping knots must be a list of [input, probability] number "
                              f"pairs, got {self.knots!r}") from exc
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ConfigError("mapping needs at least one knot")
        xs = tuple(x for x, _ in knots)
        if not all(math.isfinite(x) for x in xs):
            raise ConfigError(f"mapping knot inputs must be finite numbers, got {list(xs)}")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("mapping knot inputs must be strictly increasing")
        ps = tuple(p for _, p in knots)
        if any(not (0.0 <= p <= 1.0) for p in ps):
            raise ConfigError("mapping probabilities must lie in [0, 1]")
        if any(b > a for a, b in zip(ps, ps[1:])):
            raise ConfigError("mapping probabilities must be non-increasing")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ps", ps)

    def __call__(self, x: float) -> float:
        xs, ps = self._xs, self._ps
        if x <= xs[0]:
            return ps[0]
        if x >= xs[-1]:
            return ps[-1]
        if self.kind == "step-table":
            return ps[bisect.bisect_right(xs, x) - 1]
        i = bisect.bisect_right(xs, x) - 1
        x0, x1 = xs[i], xs[i + 1]
        p0, p1 = ps[i], ps[i + 1]
        return p0 + (p1 - p0) * (x - x0) / (x1 - x0)

    def to_doc(self) -> dict:
        return {"kind": self.kind, "knots": [list(k) for k in self.knots]}


class TetherReader(NamedTuple):
    """How a traverse element reads the taut tether instead of the prefix.

    An element that depends on its prefix only through the tether declares
    one, so an evaluator can advance a single TetherState per anchor and state
    and hand it to every element that shares the anchor.
    """

    anchor: Optional[State]  # None: anchored at the first state
    hazard: Callable[[GridMap, TetherState], float]


@dataclass(frozen=True)
class RiskElement(object):
    """A named risk source evaluated over a traverse prefix.

    It gives exactly one of `fn`, called on its category's window of the
    prefix, and a `tether` reader, whose hazard reads the prefix's taut tether.
    """

    name: str
    category: RiskCategory
    params: Tuple[Tuple[str, object], ...]
    fn: Optional[Callable[[GridMap, Tuple[State, ...]], float]] = None
    tether: Optional[TetherReader] = None

    def __post_init__(self):
        if self.tether is not None and self.category is not RiskCategory.TRAVERSE:
            raise ValueError(f"element {self.name!r}: only traverse elements read the tether")
        if (self.fn is None) == (self.tether is None):
            raise ValueError(f"element {self.name!r} needs exactly one of fn and a tether reader")

    def evaluate(self, grid: GridMap, prefix: Sequence[State]) -> float:
        states = tuple(prefix)
        if not states:
            raise ValueError("prefix must contain at least the current state")
        depth = self.category.history_depth
        if depth is not None:
            return self._checked(self.fn(grid, states[-(depth + 1):]))
        if self.tether is not None:
            return self.read_tether(grid, tether_for_prefix(grid, states, self.tether.anchor))
        return self._checked(self.fn(grid, states))

    def read_tether(self, grid: GridMap, tether: TetherState) -> float:
        """The hazard of the tether reader on the taut tether of the prefix."""
        return self._checked(self.tether.hazard(grid, tether))

    def _checked(self, value: float) -> float:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"element {self.name!r} produced {value} outside [0, 1]")
        return value

    def to_doc(self) -> dict:
        doc = {"name": self.name}
        doc.update({k: v for k, v in self.params})
        return doc


def _number(element: str, key: str, value, ok=lambda x: x >= 0.0, need="non-negative number"):
    """`value` as a float, or a ConfigError naming the element and field."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"element {element!r}: {key!r} must be a number, got {value!r}") from exc
    if not (math.isfinite(x) and ok(x)):
        raise ConfigError(f"element {element!r}: {key!r} must be a finite {need}, got {value!r}")
    return x


def obstacle_distance_risk(mapping: RiskMapping) -> RiskElement:
    """Locale element: maps distance to the nearest unviable cell."""

    def fn(grid: GridMap, states: Tuple[State, ...]) -> float:
        s = states[-1]
        return mapping(float(grid.distance_field()[s.row, s.col]))

    return RiskElement(
        "obstacle_distance", RiskCategory.LOCALE, (("mapping", mapping.to_doc()),), fn
    )


def visibility_risk(
    mapping: RiskMapping, radius: float = 5.0, ray_count: int = 32
) -> RiskElement:
    """Locale element: maps the fraction of unblocked sight rays."""
    radius = _number("visibility", "radius", radius, lambda x: x > 0.0, "positive number")
    ray_count = int(_number("visibility", "ray_count", ray_count,
                            lambda x: x >= 4 and x.is_integer(), "whole number of at least 4"))

    def fn(grid: GridMap, states: Tuple[State, ...]) -> float:
        return mapping(grid.visibility_at(states[-1], radius, ray_count))

    params = (("mapping", mapping.to_doc()), ("radius", radius), ("ray_count", ray_count))
    return RiskElement("visibility", RiskCategory.LOCALE, params, fn)


def action_length_risk(coeff: float = 0.02) -> RiskElement:
    """Action element: proportional to the length of the arriving step."""
    coeff = _number("action_length", "coeff", coeff)

    def fn(grid: GridMap, states: Tuple[State, ...]) -> float:
        if len(states) < 2:
            return 0.0
        a, b = states[-2], states[-1]
        step = math.hypot(b.row - a.row, b.col - a.col) * grid.cell_size
        return min(1.0, coeff * step)

    return RiskElement("action_length", RiskCategory.ACTION, (("coeff", coeff),), fn)


def turn_risk(coeff: float = 0.04 / math.sqrt(2)) -> RiskElement:
    """Action element: proportional to the change between consecutive steps."""
    coeff = _number("turn", "coeff", coeff)

    def fn(grid: GridMap, states: Tuple[State, ...]) -> float:
        if len(states) < 3:
            return 0.0
        s0, s1, s2 = states[-3], states[-2], states[-1]
        prev = (s1.row - s0.row, s1.col - s0.col)
        cur = (s2.row - s1.row, s2.col - s1.col)
        swerve = math.hypot(cur[0] - prev[0], cur[1] - prev[1]) * grid.cell_size
        return min(1.0, coeff * swerve)

    return RiskElement("turn", RiskCategory.ACTION, (("coeff", coeff),), fn)


def _tether_element(
    name: str,
    params: Tuple[Tuple[str, object], ...],
    anchor: Optional[State],
    hazard: Callable[[GridMap, TetherState], float],
) -> RiskElement:
    """Traverse element that reads only the taut tether."""
    if anchor is not None:
        params += (("anchor", list(anchor.as_tuple())),)
    return RiskElement(name, RiskCategory.TRAVERSE, params, tether=TetherReader(anchor, hazard))


def tether_length_risk(coeff: float = 0.01, anchor: Optional[State] = None) -> RiskElement:
    """Traverse element: proportional to the taut tether length."""
    coeff = _number("tether_length", "coeff", coeff)

    def hazard(grid: GridMap, tet: TetherState) -> float:
        return min(1.0, coeff * tet.taut_length * grid.cell_size)

    return _tether_element("tether_length", (("coeff", coeff),), anchor, hazard)


def tether_contact_risk(per_contact: float = 0.03, anchor: Optional[State] = None) -> RiskElement:
    """Traverse element: proportional to the number of taut-tether contacts."""
    per_contact = _number("tether_contacts", "per_contact", per_contact)

    def hazard(grid: GridMap, tet: TetherState) -> float:
        return min(1.0, per_contact * tet.contact_count)

    return _tether_element("tether_contacts", (("per_contact", per_contact),), anchor, hazard)


def _mapping_from_doc(doc) -> RiskMapping:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"mapping block must be an object, got {doc!r}")
    if "knots" not in doc:
        raise ConfigError("mapping block missing field 'knots'")
    return RiskMapping(doc.get("kind", "piecewise-linear"), doc["knots"])


def _anchor_from_doc(value) -> Optional[State]:
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise ConfigError(f"must be [row, col] integers, got {value!r}")
    return State(*value)


# A config block's fields are its factory's keyword arguments: those without a
# default are required, and the factory checks the numbers.
_FACTORIES = {
    "obstacle_distance": obstacle_distance_risk, "visibility": visibility_risk,
    "action_length": action_length_risk, "turn": turn_risk,
    "tether_length": tether_length_risk, "tether_contacts": tether_contact_risk,
}
_FIELDS = {name: inspect.signature(f).parameters for name, f in _FACTORIES.items()}

# Config fields that are not numbers, and what builds each from its JSON value.
_CONVERTERS = {"mapping": _mapping_from_doc, "anchor": _anchor_from_doc}


def _build_element(doc) -> RiskElement:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"each element must be an object, got {doc!r}")
    name = doc.get("name")
    if not isinstance(name, str) or name not in _FACTORIES:
        raise ConfigError(f"unknown element name {name!r}")
    fields = _FIELDS[name]
    kwargs = {k: v for k, v in doc.items() if k != "name"}
    extra = set(kwargs) - set(fields)
    if extra:
        raise ConfigError(f"element {name!r} has unrecognized fields {sorted(extra)}")
    for key, param in fields.items():
        if key not in kwargs:
            if param.default is param.empty:
                raise ConfigError(f"element {name!r} requires field {key!r}")
        elif key in _CONVERTERS:
            try:
                kwargs[key] = _CONVERTERS[key](kwargs[key])
            except ConfigError as exc:
                raise ConfigError(f"element {name!r}: {key!r}: {exc}") from exc
    return _FACTORIES[name](**kwargs)


def load_elements(doc) -> List[RiskElement]:
    """Build elements from a config document (dict or JSON text)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"element config is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping) or "elements" not in doc:
        raise ConfigError("element config must be an object with an 'elements' list")
    blocks = doc["elements"]
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("'elements' must be a non-empty list")
    out = [_build_element(b) for b in blocks]
    names = [e.name for e in out]
    if len(names) != len(set(names)):
        raise ConfigError("element names must be unique within a config")
    return out


def dump_elements(elements: Sequence[RiskElement]) -> dict:
    return {"elements": [e.to_doc() for e in elements]}
