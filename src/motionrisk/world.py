"""Occupancy-grid workspace: maps, states, paths, and locale queries."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .grid_geometry import DPoint, segment_enters_cell_f

VIABLE_CHAR = "."
UNVIABLE_CHAR = "#"


class MapFormatError(ValueError):
    """Raised when an occupancy-map document cannot be parsed."""


class PathValidationError(ValueError):
    """Raised when a path fails feasibility checks against a map."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, order=True)
class State(object):
    """One grid cell the robot can occupy, addressed (row, col)."""

    row: int
    col: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.row, self.col)


class GridMap(object):
    """Immutable 2D occupancy grid; True in `viable` marks free cells.

    The map owns every table derived from its grid, all declared here:
    `n_rows`, `n_cols` and a row-major byte per cell (1 = viable) are built
    at once and answer `in_bounds`/`is_viable`.  The unviable-cell set, the
    convex corners, the distance field and the visibility memo stay empty
    until `unviable_cells()`, `convex_corners()`, `distance_field()` or
    `visibility_at()` first needs them.
    """

    def __init__(self, viable: np.ndarray, cell_size: float = 1.0):
        arr = np.asarray(viable, dtype=bool)
        if arr.ndim != 2 or arr.size == 0:
            raise MapFormatError("occupancy grid must be a non-empty 2D array")
        if not (math.isfinite(cell_size) and cell_size > 0):
            raise MapFormatError(f"cell_size must be a positive finite number, got {cell_size}")
        self._viable = arr.copy()
        self._viable.setflags(write=False)
        self.cell_size = float(cell_size)
        self.n_rows, self.n_cols = arr.shape
        self._viable_bytes = self._viable.tobytes()
        self._unviable: Optional[frozenset] = None
        self._corners: Optional[Tuple[DPoint, ...]] = None
        self._dist_field: Optional[np.ndarray] = None
        self._visibility: Dict[Tuple[int, int, float, int], float] = {}

    @property
    def viable(self) -> np.ndarray:
        return self._viable

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.n_rows and 0 <= col < self.n_cols

    def is_viable(self, row: int, col: int) -> bool:
        # Everything beyond the grid edge counts as unviable.
        return (
            0 <= row < self.n_rows and 0 <= col < self.n_cols
            and self._viable_bytes[row * self.n_cols + col] == 1
        )

    def unviable_cells(self) -> frozenset:
        """The (row, col) of every unviable cell."""
        if self._unviable is None:
            rs, cs = np.nonzero(~self._viable)
            self._unviable = frozenset(zip(rs.tolist(), cs.tolist()))
        return self._unviable

    def convex_corners(self) -> Tuple[DPoint, ...]:
        """Vertices a taut band can bend around, as sorted doubled (odd, odd) points.

        A lattice vertex qualifies when exactly one of its four incident cells
        is unviable (an ordinary convex corner), or when exactly two are and
        they touch only diagonally: a pinch the band can wrap while squeezing
        through the gap.  Cells outside the grid count as unviable, so no
        vertex on the grid edge qualifies (a tether between in-grid centres
        never reaches it anyway).
        """
        if self._corners is None:
            occ = np.pad(~self._viable, 1, constant_values=True)
            nw, ne, sw, se = occ[:-1, :-1], occ[:-1, 1:], occ[1:, :-1], occ[1:, 1:]
            count = nw.astype(np.int8) + ne + sw + se
            vr, vc = np.nonzero((count == 1) | ((count == 2) & (nw == se)))
            self._corners = tuple(zip((2 * vr - 1).tolist(), (2 * vc - 1).tolist()))
        return self._corners

    def distance_field(self) -> np.ndarray:
        """distance_transform of this map, built once."""
        if self._dist_field is None:
            dist = distance_transform(self)
            dist.setflags(write=False)
            self._dist_field = dist
        return self._dist_field

    def visibility_at(self, s: "State", radius: float, ray_count: int) -> float:
        """visibility_fraction from s, computed once per cell, radius and ray count."""
        key = (s.row, s.col, radius, ray_count)
        if key not in self._visibility:
            self._visibility[key] = visibility_fraction(self, s, radius=radius, ray_count=ray_count)
        return self._visibility[key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridMap)
            and self.cell_size == other.cell_size
            and np.array_equal(self._viable, other._viable)
        )

    def __repr__(self) -> str:
        return f"GridMap({self.n_rows}x{self.n_cols}, cell_size={self.cell_size})"


def load_map(text: str, cell_size: float = 1.0) -> GridMap:
    """Parse an ASCII occupancy map ('.' free, '#' blocked), one row per line."""
    rows = [line for line in text.splitlines() if line.strip() != ""]
    if not rows:
        raise MapFormatError("map document contains no rows")
    width = len(rows[0])
    # Errors read as a row-by-row scan would find them: a bad character in a
    # row before the first row of the wrong length is reported first.
    n_ok = next((r for r, line in enumerate(rows) if len(line) != width), len(rows))
    codes = np.frombuffer(
        "".join(rows[:n_ok]).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    ).reshape(n_ok, width)
    viable = codes == ord(VIABLE_CHAR)
    known = viable | (codes == ord(UNVIABLE_CHAR))
    if not known.all():
        r, c = divmod(int(np.argmin(known)), width)
        raise MapFormatError(f"unknown map character {rows[r][c]!r} at row {r}, col {c}")
    if n_ok < len(rows):
        raise MapFormatError(
            f"row {n_ok} has length {len(rows[n_ok])}, expected {width} (rows must be equal length)"
        )
    return GridMap(viable, cell_size=cell_size)


def dump_map(grid: GridMap) -> str:
    lines = []
    for r in range(grid.n_rows):
        lines.append(
            "".join(VIABLE_CHAR if grid.viable[r, c] else UNVIABLE_CHAR for c in range(grid.n_cols))
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Path(object):
    """An ordered run of states plus the adjacency radius its steps obey."""

    states: Tuple[State, ...]
    r_c: float = 1.5

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 1:
            raise PathValidationError("a path needs at least one state", 0)
        if not math.isfinite(self.r_c):
            raise ValueError(f"r_c must be a finite number, got {self.r_c}")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, idx):
        return self.states[idx]

    def prefix(self, upto: int) -> "Path":
        """States 0..upto inclusive, same adjacency radius."""
        return Path(self.states[: upto + 1], self.r_c)

    def arc_length(self, cell_size: float = 1.0) -> float:
        total = 0.0
        for prev, cur in zip(self.states, self.states[1:]):
            total += math.hypot(cur.row - prev.row, cur.col - prev.col)
        return total * cell_size


@dataclass(frozen=True)
class PathCheck(object):
    """Outcome of validate_path; index points at the first offending state."""

    ok: bool
    index: int = -1
    reason: str = ""


def validate_path(grid: GridMap, path: Path) -> PathCheck:
    """Check every state is viable and consecutive states sit within r_c."""
    for i, s in enumerate(path.states):
        if not grid.in_bounds(s.row, s.col):
            return PathCheck(False, i, f"state {i} at ({s.row}, {s.col}) is outside the grid")
        if not grid.is_viable(s.row, s.col):
            return PathCheck(False, i, f"state {i} at ({s.row}, {s.col}) is unviable")
    for i in range(1, len(path.states)):
        a, b = path.states[i - 1], path.states[i]
        gap = math.hypot(b.row - a.row, b.col - a.col)
        if gap > path.r_c + 1e-12:
            return PathCheck(
                False, i, f"step into state {i} spans {gap:.3f} cells, exceeding r_c={path.r_c}"
            )
    return PathCheck(True)


def require_valid_path(grid: GridMap, path: Path) -> None:
    check = validate_path(grid, path)
    if not check.ok:
        raise PathValidationError(check.reason, check.index)


def distance_transform(grid: GridMap) -> np.ndarray:
    """Exact center-to-center Euclidean distance to the nearest unviable cell.

    Unviable cells read 0; a map with no unviable cell reads +inf everywhere.
    Squared distances are found in integers, first along each column and then
    by shifting columns k = 1, 2, ... until k*k reaches the largest squared
    distance left.  The shift count grows with the widest open space, so a
    large map with almost no unviable cell is slow (about 0.4 s at 512x512
    with one blocked cell).
    """
    blocked = ~grid.viable
    if not bool(blocked.any()):
        return np.full(grid.viable.shape, np.inf)
    n_rows, n_cols = blocked.shape
    far = n_rows + n_cols  # longer than any in-grid distance
    rows = np.arange(n_rows)[:, None]
    above = np.maximum.accumulate(np.where(blocked, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(blocked, rows, n_rows + far)[::-1], axis=0)[::-1]
    col_d = np.minimum(rows - above, below - rows).astype(np.int64)
    col_d2 = col_d * col_d
    d2 = col_d2.copy()
    k = 1
    while k < n_cols and k * k < d2.max():
        shift = k * k
        np.minimum(d2[:, k:], col_d2[:, :-k] + shift, out=d2[:, k:])
        np.minimum(d2[:, :-k], col_d2[:, k:] + shift, out=d2[:, :-k])
        k += 1
    return np.sqrt(d2.astype(float)) * grid.cell_size


def ray_directions(ray_count: int) -> List[Tuple[float, float]]:
    """Equally spaced unit directions, exactly closed under 90-degree rotation
    whenever ray_count is a multiple of 4."""
    if ray_count % 4 == 0:
        quarter = ray_count // 4
        base = []
        for m in range(quarter):
            ang = 2.0 * math.pi * m / ray_count
            base.append((math.cos(ang), math.sin(ang)))
        dirs = list(base)
        for dr, dc in base:
            dirs.append((-dc, dr))
        for dr, dc in base:
            dirs.append((-dr, -dc))
        for dr, dc in base:
            dirs.append((dc, -dr))
        return dirs
    return [
        (math.cos(2.0 * math.pi * k / ray_count), math.sin(2.0 * math.pi * k / ray_count))
        for k in range(ray_count)
    ]


class _RayFan(NamedTuple):
    """The cells each ray from a cell centre enters, relative to that cell."""

    tips: np.ndarray  # (ray_count, 2): radius times each ray direction
    rows: np.ndarray  # row offset of each entered cell
    cols: np.ndarray  # col offset of each entered cell
    ray: np.ndarray  # index of the ray that enters it


@functools.lru_cache(maxsize=64)
def _ray_fan(radius: float, ray_count: int) -> _RayFan:
    """Traverse every ray once from origin (0, 0); queries shift the fan."""
    tips = radius * np.array(ray_directions(ray_count))
    cells = []
    for k, (tr, tc) in enumerate(tips.tolist()):
        for r in range(math.floor(min(0.0, tr) - 0.5), math.ceil(max(0.0, tr) + 0.5) + 1):
            for c in range(math.floor(min(0.0, tc) - 0.5), math.ceil(max(0.0, tc) + 0.5) + 1):
                if segment_enters_cell_f((0.0, 0.0), (tr, tc), (r, c)):
                    cells.append((r, c, k))
    table = np.array(cells, dtype=np.int64).reshape(-1, 3)
    fan = _RayFan(tips, table[:, 0].copy(), table[:, 1].copy(), table[:, 2].copy())
    for arr in fan:
        arr.setflags(write=False)
    return fan


def visibility_fraction(
    grid: GridMap, s: State, radius: float = 5.0, ray_count: int = 32
) -> float:
    """Fraction of equally spaced rays from s that reach `radius` unobstructed.

    A ray is blocked when it crosses the open interior of an unviable cell or
    its tip lies past the grid edge, which behaves like an obstacle.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if ray_count < 4:
        raise ValueError("ray_count must be at least 4")
    if not grid.is_viable(s.row, s.col):
        raise ValueError(f"visibility origin ({s.row}, {s.col}) must be a viable cell")
    fan = _ray_fan(radius, ray_count)
    eps = 1e-9
    tip_r = s.row + fan.tips[:, 0]
    tip_c = s.col + fan.tips[:, 1]
    blocked = ~(
        (-0.5 - eps <= tip_r) & (tip_r <= grid.n_rows - 0.5 + eps)
        & (-0.5 - eps <= tip_c) & (tip_c <= grid.n_cols - 0.5 + eps)
    )
    rows = s.row + fan.rows
    cols = s.col + fan.cols
    on_grid = (rows >= 0) & (rows < grid.n_rows) & (cols >= 0) & (cols < grid.n_cols)
    hit = ~grid.viable[rows[on_grid], cols[on_grid]]
    blocked |= np.bincount(fan.ray[on_grid][hit], minlength=ray_count) > 0
    return (ray_count - int(blocked.sum())) / ray_count
