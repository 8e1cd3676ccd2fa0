import json
import pathlib
import random

import numpy as np
import pytest

from motionrisk import GridMap, Path, State, load_elements, load_map

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def fixture_map(name: str, cell_size: float = 1.0) -> GridMap:
    return load_map(read_fixture(name), cell_size=cell_size)


def fixture_elements(name: str):
    return load_elements(json.loads(read_fixture(name)))


def fixture_path(name: str, r_c: float = 1.5) -> Path:
    states = []
    for raw in read_fixture(name).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            r, c = line.replace(",", " ").split()
            states.append(State(int(r), int(c)))
    return Path(tuple(states), r_c=r_c)


@pytest.fixture(scope="session")
def courtyard_grid() -> GridMap:
    return fixture_map("pillar_courtyard.map")


@pytest.fixture(scope="session")
def courtyard_elements():
    return fixture_elements("pillar_courtyard.config.json")


@pytest.fixture(scope="session")
def courtyard_left() -> Path:
    return fixture_path("pillar_courtyard_left.path")


@pytest.fixture(scope="session")
def courtyard_right() -> Path:
    return fixture_path("pillar_courtyard_right.path")


@pytest.fixture(scope="session")
def courtyard_left_to_pillar() -> Path:
    return fixture_path("pillar_courtyard_left_to_pillar.path")


# ---------------------------------------------------------------------------
# Seeded generators for property sweeps


def random_grid(rng: random.Random, n_rows: int, n_cols: int, p_block: float,
                cell_size: float = 1.0) -> GridMap:
    """Random occupancy grid with at least one viable cell."""
    while True:
        viable = np.array(
            [[rng.random() >= p_block for _ in range(n_cols)] for _ in range(n_rows)],
            dtype=bool,
        )
        if viable.any():
            return GridMap(viable, cell_size=cell_size)


KING_MOVES = [
    (dr, dc)
    for dr in (-1, 0, 1)
    for dc in (-1, 0, 1)
    if (dr, dc) != (0, 0)
]


def random_walk(grid: GridMap, rng: random.Random, n_steps: int,
                clear_step) -> list:
    """Random king-move walk over viable cells; revisits allowed.

    clear_step(a, b) -> bool decides whether the swept step is allowed
    (corner squeezes are legal, cutting through a blocked interior is not).
    Returns a list of States, or None when no start cell exists.
    """
    viable = [
        (r, c)
        for r in range(grid.n_rows)
        for c in range(grid.n_cols)
        if grid.is_viable(r, c)
    ]
    if not viable:
        return None
    cur = rng.choice(viable)
    walk = [State(*cur)]
    for _ in range(n_steps):
        moves = []
        for dr, dc in KING_MOVES:
            nxt = (cur[0] + dr, cur[1] + dc)
            if not grid.is_viable(*nxt):
                continue
            if not clear_step(cur, nxt):
                continue
            moves.append(nxt)
        if not moves:
            break
        cur = rng.choice(moves)
        walk.append(State(*cur))
    return walk


def count_calls(monkeypatch, owner, name: str, counts: dict, key: str) -> None:
    """Replace owner.name with a wrapper that adds one to counts[key] per call."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
