import inspect
import json
import math

import pytest

from motionrisk import (
    ConfigError,
    RiskCategory,
    RiskElement,
    RiskMapping,
    State,
    action_length_risk,
    dump_elements,
    load_elements,
    load_map,
    obstacle_distance_risk,
    tether_contact_risk,
    tether_for_prefix,
    tether_length_risk,
    turn_risk,
    visibility_risk,
)
from motionrisk import elements as elements_module

SQ2 = math.sqrt(2.0)


def test_category_history_depths():
    assert RiskCategory.LOCALE.history_depth == 0
    assert RiskCategory.ACTION.history_depth == 2
    assert RiskCategory.TRAVERSE.history_depth is None


# ---------------------------------------------------------------------------
# RiskMapping


def test_piecewise_linear_interpolation():
    m = RiskMapping("piecewise-linear", ((1.0, 0.04), (2.0, 0.007)))
    assert m(1.0) == 0.04
    assert m(2.0) == 0.007
    assert m(1.5) == pytest.approx(0.0235)
    assert m(1.25) == pytest.approx(0.04 + 0.25 * (0.007 - 0.04))


def test_mapping_clamps_both_ends():
    m = RiskMapping("piecewise-linear", ((1.0, 0.04), (2.0, 0.007)))
    assert m(-10.0) == 0.04
    assert m(0.999999) == 0.04
    assert m(2.0000001) == 0.007
    assert m(math.inf) == 0.007


def test_step_table_holds_last_knot_at_or_below():
    m = RiskMapping("step-table", ((0.0, 0.5), (1.0, 0.2), (2.0, 0.0)))
    assert m(0.0) == 0.5
    assert m(0.99) == 0.5
    assert m(1.0) == 0.2
    assert m(1.7) == 0.2
    assert m(2.0) == 0.0
    assert m(50.0) == 0.0
    assert m(-3.0) == 0.5


def test_single_knot_mapping_is_constant():
    m = RiskMapping("piecewise-linear", ((1.0, 0.3),))
    assert m(0.0) == m(1.0) == m(99.0) == 0.3


def test_mapping_validation():
    with pytest.raises(ConfigError, match="kind"):
        RiskMapping("spline", ((0.0, 0.1),))
    with pytest.raises(ConfigError, match="at least one"):
        RiskMapping("piecewise-linear", ())
    with pytest.raises(ConfigError, match="strictly increasing"):
        RiskMapping("piecewise-linear", ((1.0, 0.2), (1.0, 0.1)))
    with pytest.raises(ConfigError, match="strictly increasing"):
        RiskMapping("piecewise-linear", ((2.0, 0.2), (1.0, 0.1)))
    with pytest.raises(ConfigError, match="0, 1"):
        RiskMapping("piecewise-linear", ((0.0, 1.2),))
    with pytest.raises(ConfigError, match="non-increasing"):
        RiskMapping("piecewise-linear", ((0.0, 0.1), (1.0, 0.2)))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            RiskMapping("piecewise-linear", ((0.0, 0.1), (bad, 0.0)))
        with pytest.raises(ConfigError, match="finite"):
            RiskMapping("step-table", ((bad, 0.1),))
    with pytest.raises(ConfigError, match="0, 1"):
        RiskMapping("piecewise-linear", ((0.0, math.nan),))


@pytest.mark.parametrize("knots", [5, ((0.0,),), (("a", 0.1),)])
def test_mapping_refuses_knots_that_are_not_number_pairs(knots):
    with pytest.raises(ConfigError, match=r"\[input, probability\] number pairs"):
        RiskMapping("step-table", knots)


def test_mapping_coerces_knots_to_float():
    m = RiskMapping("piecewise-linear", ((1, 1), (2, 0)))
    assert m.knots == ((1.0, 1.0), (2.0, 0.0))
    assert isinstance(m.knots[0][0], float)


# ---------------------------------------------------------------------------
# RiskElement evaluation contract


def _probe(category):
    """Element that reports how much history it was handed."""
    seen = []

    def fn(grid, states):
        seen.append(len(states))
        return 0.0

    return RiskElement("probe", category, (), fn), seen


def test_evaluate_slices_history_by_category(courtyard_grid, courtyard_left):
    prefix = list(courtyard_left)[:6]
    for category, want in (
        (RiskCategory.LOCALE, 1),
        (RiskCategory.ACTION, 3),
        (RiskCategory.TRAVERSE, 6),
    ):
        el, seen = _probe(category)
        el.evaluate(courtyard_grid, prefix)
        assert seen == [want]


def test_evaluate_short_prefix_passes_what_exists(courtyard_grid):
    el, seen = _probe(RiskCategory.ACTION)
    el.evaluate(courtyard_grid, [State(2, 2)])
    el.evaluate(courtyard_grid, [State(2, 2), State(3, 3)])
    assert seen == [1, 2]


def test_evaluate_rejects_empty_prefix(courtyard_grid):
    el, _ = _probe(RiskCategory.LOCALE)
    with pytest.raises(ValueError, match="prefix"):
        el.evaluate(courtyard_grid, [])


def test_evaluate_rejects_out_of_range_probability(courtyard_grid):
    bad = RiskElement("bad", RiskCategory.LOCALE, (), lambda g, s: 1.5)
    with pytest.raises(ValueError, match="outside"):
        bad.evaluate(courtyard_grid, [State(2, 2)])
    nan = RiskElement("bad", RiskCategory.LOCALE, (), lambda g, s: float("nan"))
    with pytest.raises(ValueError):
        nan.evaluate(courtyard_grid, [State(2, 2)])


# ---------------------------------------------------------------------------
# Built-in element factories, against hand-computed values


@pytest.fixture()
def courtyard_distance_element(courtyard_elements):
    by_name = {e.name: e for e in courtyard_elements}
    return by_name["obstacle_distance"]


def test_obstacle_distance_hand_values(courtyard_grid, courtyard_distance_element):
    el = courtyard_distance_element
    assert el.category is RiskCategory.LOCALE
    assert el.evaluate(courtyard_grid, [State(6, 4)]) == 0.04  # one cell off the pillar
    assert el.evaluate(courtyard_grid, [State(5, 4)]) == 0.0165  # sqrt(2) away
    assert el.evaluate(courtyard_grid, [State(2, 2)]) == pytest.approx(0.007)  # 2 from wall
    assert el.evaluate(courtyard_grid, [State(3, 3)]) == 0.0025  # beyond the last knot


def test_action_length_scales_with_step_and_cell_size():
    el = action_length_risk(coeff=0.02)
    open_map = "\n".join(["." * 4] * 4) + "\n"
    g1 = load_map(open_map, cell_size=1.0)
    g2 = load_map(open_map, cell_size=2.0)
    straight = [State(1, 1), State(1, 2)]
    diagonal = [State(1, 1), State(2, 2)]
    assert el.evaluate(g1, [State(1, 1)]) == 0.0  # no arriving step yet
    assert el.evaluate(g1, straight) == pytest.approx(0.02)
    assert el.evaluate(g1, diagonal) == pytest.approx(0.02 * SQ2)
    assert el.evaluate(g2, straight) == pytest.approx(0.04)


def test_action_length_saturates_at_one():
    el = action_length_risk(coeff=2.0)
    g = load_map("...\n...\n...\n")
    assert el.evaluate(g, [State(0, 0), State(0, 1)]) == 1.0


def test_turn_risk_hand_values(courtyard_grid):
    el = turn_risk()  # default coefficient makes a right-angle turn cost 0.04
    straight = [State(7, 4), State(7, 5), State(7, 6)]
    right_angle = [State(5, 4), State(6, 4), State(6, 5)]
    diag_to_axis = [State(3, 3), State(4, 4), State(5, 4)]
    assert el.evaluate(courtyard_grid, straight) == 0.0
    assert el.evaluate(courtyard_grid, right_angle) == pytest.approx(0.04)
    assert el.evaluate(courtyard_grid, diag_to_axis) == pytest.approx(0.04 / SQ2)
    # fewer than two steps of history: no swerve to price
    assert el.evaluate(courtyard_grid, straight[:2]) == 0.0


def test_turn_risk_only_reads_last_two_steps(courtyard_grid, courtyard_left):
    el = turn_risk()
    full = list(courtyard_left)
    assert el.evaluate(courtyard_grid, full[:7]) == el.evaluate(courtyard_grid, full[4:7])


def test_tether_contacts_on_the_two_routes(
    courtyard_grid, courtyard_left, courtyard_right
):
    el = tether_contact_risk(per_contact=0.03)
    assert el.evaluate(courtyard_grid, list(courtyard_left)) == pytest.approx(0.03)
    assert el.evaluate(courtyard_grid, list(courtyard_right)) == pytest.approx(0.06)
    assert el.evaluate(courtyard_grid, list(courtyard_left)[:4]) == 0.0


def test_tether_length_straight_line():
    g = load_map("\n".join(["." * 6] * 3) + "\n")
    el = tether_length_risk(coeff=0.1)
    walk = [State(1, 1), State(1, 2), State(1, 3), State(1, 4)]
    assert el.evaluate(g, walk) == pytest.approx(0.1 * 3.0)
    # the same walk on a coarser grid covers more metres
    g2 = load_map("\n".join(["." * 6] * 3) + "\n", cell_size=2.0)
    assert el.evaluate(g2, walk) == pytest.approx(0.1 * 6.0)


def test_tether_elements_declare_their_reader(courtyard_grid, courtyard_right):
    anchor = State(2, 2)
    for el in (tether_length_risk(0.01, anchor=anchor), tether_contact_risk(0.03)):
        assert el.category is RiskCategory.TRAVERSE
        tet = tether_for_prefix(courtyard_grid, courtyard_right.states, anchor=el.tether.anchor)
        assert el.read_tether(courtyard_grid, tet) == el.evaluate(courtyard_grid, courtyard_right)
    assert tether_length_risk(anchor=anchor).tether.anchor == anchor
    assert tether_contact_risk().tether.anchor is None
    for el in (obstacle_distance_risk(RiskMapping("step-table", ((0.0, 0.1),))),
               action_length_risk(), turn_risk()):
        assert el.tether is None


def test_only_traverse_elements_read_the_tether():
    reader = tether_length_risk().tether
    with pytest.raises(ValueError, match="only traverse elements"):
        RiskElement("x", RiskCategory.LOCALE, (), lambda g, s: 0.0, reader)


def test_an_element_gives_exactly_one_of_fn_and_reader():
    reader = tether_length_risk().tether
    with pytest.raises(ValueError, match="exactly one"):
        RiskElement("x", RiskCategory.TRAVERSE, (), lambda g, s: 0.0, reader)
    with pytest.raises(ValueError, match="exactly one"):
        RiskElement("x", RiskCategory.TRAVERSE, ())


_MAPPING = RiskMapping("step-table", ((0.0, 0.1),))


@pytest.mark.parametrize(
    "build, pattern",
    [
        (lambda: turn_risk(coeff=math.nan), "'turn': 'coeff' must be a finite"),
        (lambda: action_length_risk(coeff=math.inf), "'action_length': 'coeff' must be a finite"),
        (lambda: tether_length_risk(coeff=math.nan), "'tether_length': 'coeff' must be a finite"),
        (lambda: tether_contact_risk(per_contact=-1),
         "'tether_contacts': 'per_contact' must be a finite non-negative"),
        (lambda: visibility_risk(_MAPPING, radius=math.nan),
         "'visibility': 'radius' must be a finite positive"),
        (lambda: visibility_risk(_MAPPING, ray_count=2.7),
         "'visibility': 'ray_count' must be a finite whole"),
    ],
)
def test_factories_refuse_bad_numbers(build, pattern):
    with pytest.raises(ConfigError, match=pattern):
        build()


@pytest.mark.parametrize(
    "build, pattern",
    [
        (lambda: obstacle_distance_risk({"knots": [[0, 0.1]]}),
         "'obstacle_distance': 'mapping' must be a RiskMapping"),
        (lambda: visibility_risk({"knots": [[0, 0.1]]}),
         "'visibility': 'mapping' must be a RiskMapping"),
        (lambda: tether_length_risk(anchor=(1, 2)), "'tether_length': 'anchor' must be a State"),
        (lambda: tether_contact_risk(anchor=[1, 2]),
         "'tether_contacts': 'anchor' must be a State"),
    ],
)
def test_factories_refuse_arguments_of_the_wrong_type(build, pattern):
    with pytest.raises(ConfigError, match=pattern):
        build()


def test_visibility_element_open_room():
    mapping = RiskMapping("piecewise-linear", ((0.0, 0.8), (1.0, 0.0)))
    el = visibility_risk(mapping, radius=2.4, ray_count=16)
    g = load_map("\n".join(["." * 5] * 5) + "\n")
    assert el.evaluate(g, [State(2, 2)]) == 0.0
    # a corner cell sees much less at the same radius
    corner = el.evaluate(g, [State(1, 1)])
    assert corner > 0.0


# ---------------------------------------------------------------------------
# Config round-tripping


def test_golden_config_shape(courtyard_elements):
    names = [e.name for e in courtyard_elements]
    cats = [e.category for e in courtyard_elements]
    assert names == ["obstacle_distance", "turn", "tether_contacts"]
    assert cats == [RiskCategory.LOCALE, RiskCategory.ACTION, RiskCategory.TRAVERSE]


def test_dump_load_round_trip(courtyard_elements):
    doc = dump_elements(courtyard_elements)
    again = load_elements(doc)
    assert dump_elements(again) == doc


def test_load_elements_accepts_json_text():
    doc = {"elements": [{"name": "action_length", "coeff": 0.05}]}
    els = load_elements(json.dumps(doc))
    assert els[0].name == "action_length"
    assert dict(els[0].params)["coeff"] == 0.05


def test_load_elements_defaults():
    els = load_elements({"elements": [{"name": "turn"}, {"name": "visibility",
                                                         "mapping": {"knots": [[0.0, 0.5], [1.0, 0.0]]}}]})
    turn = els[0]
    vis = els[1]
    assert dict(turn.params)["coeff"] == pytest.approx(0.04 / SQ2)
    assert dict(vis.params)["radius"] == 5.0
    assert dict(vis.params)["ray_count"] == 32
    # mapping kind defaults to piecewise-linear
    assert dict(vis.params)["mapping"]["kind"] == "piecewise-linear"


def test_every_factory_round_trips_non_default_arguments():
    mapping = RiskMapping("step-table", ((0.5, 0.3), (2.0, 0.1)))
    anchor = State(1, 2)
    els = [
        obstacle_distance_risk(mapping),
        visibility_risk(mapping, radius=3.5, ray_count=12),
        action_length_risk(coeff=0.07),
        turn_risk(coeff=0.09),
        tether_length_risk(coeff=0.02, anchor=anchor),
        tether_contact_risk(per_contact=0.2, anchor=anchor),
    ]
    assert sorted(e.name for e in els) == sorted(elements_module._FACTORIES)
    for el in els:
        factory = elements_module._FACTORIES[el.name]
        assert [k for k, _ in el.params] == list(inspect.signature(factory).parameters)
    doc = json.loads(json.dumps(dump_elements(els)))
    again = load_elements(doc)
    assert [e.params for e in again] == [e.params for e in els]
    assert [e.tether.anchor for e in again[4:]] == [anchor, anchor]


def test_load_elements_anchor_round_trip():
    doc = {"elements": [{"name": "tether_contacts", "per_contact": 0.1, "anchor": [2, 3]}]}
    els = load_elements(doc)
    assert dict(els[0].params)["anchor"] == [2, 3]
    assert dump_elements(els)["elements"][0]["anchor"] == [2, 3]
    g = load_map("\n".join(["." * 6] * 6) + "\n")
    # anchored tether: walking away from (2, 3) in the open wraps nothing
    assert els[0].evaluate(g, [State(2, 3), State(3, 4), State(4, 5)]) == 0.0


@pytest.mark.parametrize(
    "doc, pattern",
    [
        ("{not json", "valid JSON"),
        ({"elements": []}, "non-empty"),
        ({"nope": 1}, "'elements'"),
        ({"elements": [{"name": "warp_drive"}]}, "unknown element"),
        ({"elements": [{"name": "turn", "coef": 0.1}]}, "unrecognized"),
        ({"elements": [{"name": "obstacle_distance"}]}, "requires field"),
        (
            {"elements": [{"name": "turn"}, {"name": "turn"}]},
            "unique",
        ),
        ({"elements": [5]}, "must be an object"),
        ({"elements": [{"name": "tether_contacts", "anchor": [1]}]}, "anchor"),
        ({"elements": [{"name": "tether_length", "anchor": [1.5, 2]}]}, "anchor"),
        ({"elements": [{"name": "turn", "coeff": "abc"}]}, "must be a number"),
        ({"elements": [{"name": "visibility", "ray_count": None,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "must be a number"),
        ({"elements": [{"name": "obstacle_distance", "mapping": 5}]}, "must be an object"),
        ({"elements": [{"name": "obstacle_distance", "mapping": {"knots": 5}}]}, "knots"),
        ({"elements": [{"name": "obstacle_distance", "mapping": {"knots": [[1]]}}]}, "knots"),
        ({"elements": [{"name": "obstacle_distance", "mapping": {"kind": "step-table"}}]},
         "missing field 'knots'"),
        ({"elements": [{"name": "turn", "coeff": "nan"}]}, "'turn': 'coeff' must be a finite"),
        ({"elements": [{"name": "action_length", "coeff": "inf"}]},
         "'action_length': 'coeff' must be a finite"),
        ('{"elements": [{"name": "tether_length", "coeff": 1e400}]}',
         "'tether_length': 'coeff' must be a finite"),
        ({"elements": [{"name": "turn", "coeff": 10 ** 400}]}, "'coeff' must be a number"),
        ({"elements": [{"name": "turn", "coeff": -0.5}]}, "'coeff' must be a finite non-negative"),
        ({"elements": [{"name": "tether_contacts", "per_contact": -0.1}]},
         "'per_contact' must be a finite non-negative"),
        ({"elements": [{"name": "visibility", "radius": -1,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'radius' must be a finite positive"),
        ({"elements": [{"name": "visibility", "radius": 0,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'radius' must be a finite positive"),
        ({"elements": [{"name": "visibility", "radius": "inf",
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'radius' must be a finite positive"),
        ({"elements": [{"name": "visibility", "ray_count": 3,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'ray_count' must be a finite whole"),
        ({"elements": [{"name": "visibility", "ray_count": 2.7,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'ray_count' must be a finite whole"),
        ({"elements": [{"name": "visibility", "ray_count": 16.5,
                        "mapping": {"knots": [[0.0, 0.1]]}}]}, "'ray_count' must be a finite whole"),
        ({"elements": [{"name": "obstacle_distance", "mapping": {"knots": [["inf", 0.1]]}}]},
         "'obstacle_distance': 'mapping': mapping knot inputs must be finite"),
        ({"elements": [{"name": "obstacle_distance",
                        "mapping": {"knots": [[0.0, 0.1], ["nan", 0.0]]}}]},
         "'obstacle_distance': 'mapping': mapping knot inputs must be finite"),
        ({"elements": [{"name": ["turn"]}]}, "unknown element name"),
        ({"elements": [{"name": {"turn": 1}}]}, "unknown element name"),
        ({"elements": [{"name": "turn", "coeff": "nan", "coef": 0.1}]}, "unrecognized"),
    ],
)
def test_load_elements_rejects_malformed_docs(doc, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_elements(doc)


def test_mapping_errors_surface_as_config_errors():
    doc = {"elements": [{"name": "obstacle_distance",
                         "mapping": {"knots": [[1.0, 0.1], [2.0, 0.5]]}}]}
    with pytest.raises(ConfigError, match="non-increasing"):
        load_elements(doc)


# ---------------------------------------------------------------------------
# The category contract: locale and action elements cannot see deep history


def test_locale_elements_ignore_history(courtyard_grid, courtyard_elements, courtyard_left):
    el = next(e for e in courtyard_elements if e.category is RiskCategory.LOCALE)
    full = list(courtyard_left)
    for i in range(len(full)):
        assert el.evaluate(courtyard_grid, full[: i + 1]) == el.evaluate(
            courtyard_grid, [full[i]]
        )


def test_action_elements_ignore_deep_history(courtyard_grid, courtyard_elements, courtyard_left):
    el = next(e for e in courtyard_elements if e.category is RiskCategory.ACTION)
    full = list(courtyard_left)
    for i in range(2, len(full)):
        assert el.evaluate(courtyard_grid, full[: i + 1]) == el.evaluate(
            courtyard_grid, full[i - 2 : i + 1]
        )


def test_traverse_element_depends_on_history(courtyard_grid, courtyard_left):
    # same final state, different approach, different tether exposure: the
    # whole point of the traverse category
    el = tether_contact_risk(per_contact=0.03)
    full = list(courtyard_left)
    assert el.evaluate(courtyard_grid, full) != el.evaluate(courtyard_grid, [full[-1]])
