"""Discrete sample paths, driver simulation, and bundle serialization.

Paths live on a shared strictly increasing grid starting at time 0 with
value 0 (integrals never see an initial offset).  Simulation is
counter-based: the generator for (master seed, path index, driver index)
is derived by key spawning, so any subset of paths can be produced in any
order, on any number of threads, with identical results.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ._config import FloatRangeError, _count, _decimal, _finite, _float, _typed

BINARY_MAGIC = b"ITOPATH1"


class GridResolutionWarning(UserWarning):
    """Two jumps landed in one grid cell; refine the grid."""


class BundleFormatError(ValueError):
    """A binary path bundle is malformed; ``offset`` is the first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class SamplePath:
    """Values on a shared time grid; grid[0] = 0 and values[0] = 0."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        grid, values = _check_grid(grid), _finite("values", values)
        if values.shape != grid.shape:
            raise ValueError("grid and values must be equal-length 1-D arrays")
        if values[0] != 0.0:
            raise ValueError("paths are normalized to start at 0")
        self.grid = grid
        self.values = values

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    def increments(self) -> np.ndarray:
        return _in_float_range("path increments", np.diff, self.values)

    def __len__(self) -> int:
        return len(self.grid)

    def __repr__(self) -> str:
        return (
            f"SamplePath(T={self.grid[-1]:g}, steps={self.n_steps}, "
            f"terminal={self.terminal:g})"
        )


def _check_grid(grid) -> np.ndarray:
    """grid as a float array if it is a grid that paths can live on, else ValueError."""
    grid = _finite("grid", grid)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-D array")
    if len(grid) < 2:
        raise ValueError("need at least two grid points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at time 0")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _in_float_range(name: str, form, *args) -> np.ndarray:
    """form(*args) with numpy's overflow warnings off: a result that finite
    inputs drove past the float range raises FloatRangeError naming it."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = form(*args)
    return _finite(name, result, FloatRangeError)


def _running_sum(increments, *factors) -> np.ndarray:
    """The zero-led running sum of increments, each times every factor."""
    for factor in factors:
        increments = increments * factor
    return np.concatenate(([0.0], np.cumsum(increments)))


def _check_horizon(horizon) -> None:
    if not 0 < _typed("horizon", horizon, Real) < np.inf:
        raise ValueError(f"horizon must be positive and finite, not {horizon!r}")


def make_grid(horizon: float, steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_steps = horizon."""
    _check_horizon(horizon)
    return np.linspace(0.0, float(horizon), _count("steps", steps) + 1)


@dataclass(frozen=True)
class DriverSpec:
    """What to simulate for one driver letter."""

    kind: str
    sigma: float = 1.0
    rate: float = 1.0
    slope: float = 1.0
    table: tuple[float, ...] | None = None

    KINDS = ("brownian", "poisson", "linear_drift", "table")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown driver kind {self.kind!r}")
        for name in ("sigma", "rate", "slope"):
            _finite(name, _typed(name, getattr(self, name), Real))
        if self.table is not None:
            table = _finite("table", [_typed("table entry", v, Real) for v in self.table])
            # a tuple of floats, so that specs hash and compare by value
            object.__setattr__(self, "table", tuple(table.tolist()))
        if self.kind == "brownian" and self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.kind == "poisson" and self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.kind == "table" and self.table is None:
            raise ValueError("table driver needs values")


def rng_for(seed: int, path_index: int = 0, driver_index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, path, driver), independent of call order.

    Each key is an int >= 0, else ValueError; numpy ints draw as the equal int.
    """
    ss = np.random.SeedSequence(
        entropy=_count("seed", seed, 0),
        spawn_key=(_count("path_index", path_index, 0), _count("driver_index", driver_index, 0)),
    )
    return np.random.default_rng(ss)


def simulate(
    spec: DriverSpec,
    grid: np.ndarray,
    seed: int = 0,
    path_index: int = 0,
    driver_index: int = 0,
) -> SamplePath:
    """One path of the given driver on the grid."""
    _typed("spec", spec, DriverSpec)
    grid = _check_grid(grid)  # before any draw: a negative step has no sqrt or rate
    rng = rng_for(seed, path_index, driver_index)  # checks the keys of every kind
    dt = np.diff(grid)
    if spec.kind == "table":
        return SamplePath(grid, spec.table)
    if spec.kind == "linear_drift":
        form, args = np.multiply, (spec.slope, grid)
    elif spec.kind == "brownian":
        form, args = _running_sum, (rng.normal(0.0, 1.0, size=len(dt)), spec.sigma, np.sqrt(dt))
    else:  # poisson
        try:
            with np.errstate(over="ignore"):  # an infinite rate x step is numpy's to refuse
                counts = rng.poisson(spec.rate * dt)
        except ValueError as e:  # a rate x step past what numpy can draw
            raise ValueError(f"poisson driver of rate {spec.rate:g}: {e}") from None
        if np.any(counts > 1):
            warnings.warn(
                "multiple jumps in one grid cell; the unit-jump identity "
                "needs a finer grid",
                GridResolutionWarning,
                stacklevel=2,
            )
        form, args = _running_sum, (counts.astype(np.float64),)
    return SamplePath(grid, _in_float_range(f"{spec.kind} path", form, *args))


def discrete_bracket(x: SamplePath, y: SamplePath) -> SamplePath:
    """Running sum of increment products: the grid quadratic covariation.

    Satisfies the discrete product rule x*y = int x dy + int y dx + [x, y]
    identically (telescoping), which is what makes every symbolic identity
    here exact pathwise.
    """
    _typed("x", x, SamplePath)
    _typed("y", y, SamplePath)
    if not np.array_equal(x.grid, y.grid):
        raise ValueError("paths must share a grid")
    values = _in_float_range("bracket path", _running_sum, x.increments(), y.increments())
    return SamplePath(x.grid, values)


class PathBundle:
    """Several drivers on one shared grid, keyed by positive letter."""

    __slots__ = ("grid", "paths")

    def __init__(self, paths: Mapping[int, SamplePath]):
        items = dict(paths).items()
        self.paths = {_count("letter", k): _typed("path", p, SamplePath) for k, p in items}
        if not self.paths:
            raise ValueError("a bundle needs at least one path")
        self.grid = next(iter(self.paths.values())).grid
        for letter, p in self.paths.items():
            if not np.array_equal(p.grid, self.grid):
                raise ValueError(f"path for letter {letter} is on another grid")

    def letters(self) -> list[int]:
        return sorted(self.paths)

    def __getitem__(self, letter: int) -> SamplePath:
        return self.paths[letter]

    def __contains__(self, letter: int) -> bool:
        return letter in self.paths


def simulate_bundle(
    specs: Mapping[int, DriverSpec],
    grid: np.ndarray,
    seed: int = 0,
    path_index: int = 0,
) -> PathBundle:
    """Simulate one path per letter; the letter doubles as driver index."""
    _typed("specs", specs, Mapping)
    paths = {
        letter: simulate(spec, grid, seed, path_index, driver_index=letter)
        for letter, spec in specs.items()
    }
    return PathBundle(paths)


# -- serialization ------------------------------------------------------------


def _table(bundle: PathBundle) -> tuple[list[int], np.ndarray]:
    """The bundle's letters and its (points, 1 + drivers) float64 table,
    time column first: the one layout of both bundle files."""
    _typed("bundle", bundle, PathBundle)
    letters = bundle.letters()
    return letters, np.column_stack([bundle.grid] + [bundle.paths[l].values for l in letters])


def _from_table(letters: list[int], table: np.ndarray) -> PathBundle:
    """Inverse of _table: the first column is the one grid every path shares."""
    # one copy, so each path is contiguous and owns no read-only file buffer
    grid, *columns = np.array(table.T, dtype=np.float64, order="C")
    return PathBundle({letter: SamplePath(grid, c) for letter, c in zip(letters, columns)})


def bundle_to_csv(bundle: PathBundle) -> str:
    """Time column then one column per letter, headers 't' and 'x<letter>'."""
    letters, table = _table(bundle)
    lines = [",".join(["t"] + [f"x{letter}" for letter in letters])]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def bundle_from_csv(text: str) -> PathBundle:
    """Inverse of bundle_to_csv; blank lines are skipped, and a field that
    is not a float or a row of another width raises ValueError naming it."""
    lines = io.StringIO(text)
    header = next(csv.reader(lines), None)
    if header is None:
        raise ValueError("empty CSV: expected a 't,x<letter>,...' header and data rows")
    if not header or header[0] != "t":
        raise ValueError("first CSV column must be 't'")
    letters = []
    for name in header[1:]:
        letter = _decimal(name[1:]) if name.startswith("x") else None
        if letter is None:
            raise ValueError(f"bad driver column {name!r}")
        if letter in letters:
            raise ValueError(f"driver column {name!r} repeats driver letter {letter}")
        letters.append(letter)
    body = lines.read()
    if not body.strip():
        raise ValueError("CSV has a header but no data rows")
    width = 1 + len(letters)
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        # numpy counts rows two ways: rescan, and name the first bad row from 1
        for i, row in enumerate(filter(None, csv.reader(io.StringIO(body))), 1):
            try:
                if len(row) != width:
                    raise ValueError(f"width {len(row)}, the header's {width}")
                list(map(_float, row))
            except ValueError as exc:
                raise ValueError(f"CSV data row {i}: {exc}") from None
        raise
    if table.shape[1] != width:
        raise ValueError(f"CSV rows have {table.shape[1]} fields, the header {width}")
    return _from_table(letters, table)


def bundle_to_binary(bundle: PathBundle) -> bytes:
    """Magic, row/driver counts and letters (little-endian uint64), then the
    float64 matrix (time column first) row-major, little-endian."""
    letters, table = _table(bundle)
    header = struct.pack(f"<QQ{len(letters)}Q", len(table), len(letters), *letters)
    return BINARY_MAGIC + header + table.astype("<f8").tobytes(order="C")


def bundle_from_binary(blob: bytes) -> PathBundle:
    """Inverse of bundle_to_binary; a malformed blob raises BundleFormatError.

    The header counts are checked against the blob length before anything
    past the header is read, so a corrupt count cannot ask for more bytes
    than the blob holds.  Anything but bytes, bytearray or memoryview
    raises TypeError.
    """
    _typed("path-bundle binary", blob, bytes, bytearray, memoryview)
    blob = memoryview(blob).cast("B")  # lengths and offsets count bytes
    if blob[:8] != BINARY_MAGIC:
        raise BundleFormatError("not a path-bundle binary (bad magic)", 0)
    if len(blob) < 24:
        raise BundleFormatError("header ends early", len(blob))
    rows, n_drivers = struct.unpack_from("<QQ", blob, 8)
    offset = 24
    expected = offset + 8 * n_drivers + 8 * rows * (1 + n_drivers)
    if len(blob) < expected:
        raise BundleFormatError(f"blob ends early: header asks for {expected} bytes", len(blob))
    if len(blob) > expected:
        raise BundleFormatError(f"{len(blob) - expected} trailing bytes after the data", expected)
    letters = list(struct.unpack_from(f"<{n_drivers}Q", blob, offset))
    seen = set()
    for i, letter in enumerate(letters):
        if letter == 0:  # unsigned, so 0 is the one value below the least letter
            raise BundleFormatError("driver letter 0 is not allowed", offset + 8 * i)
        if letter in seen:
            raise BundleFormatError(f"driver letter {letter} is repeated", offset + 8 * i)
        seen.add(letter)
    offset += 8 * n_drivers
    table = np.frombuffer(blob, dtype="<f8", count=rows * (1 + n_drivers), offset=offset)
    return _from_table(letters, table.reshape(rows, 1 + n_drivers))


def write_bundle(path, bundle: PathBundle) -> None:
    """Write binary for a .bin or .itopath suffix, else CSV."""
    # open() would adopt an int (or bool) as a file descriptor and close it
    _typed("path", path, str, os.PathLike)
    binary = str(path).endswith((".bin", ".itopath"))
    blob = bundle_to_binary(bundle) if binary else bundle_to_csv(bundle).encode("utf-8")
    with open(path, "wb") as fh:  # opened once the bundle is checked and written out
        fh.write(blob)


def read_bundle(path) -> PathBundle:
    """Read a bundle written by write_bundle, binary or CSV by its magic."""
    _typed("path", path, str, os.PathLike)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] == BINARY_MAGIC:
        return bundle_from_binary(blob)
    return bundle_from_csv(blob.decode("utf-8"))
