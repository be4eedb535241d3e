"""Discretized driver paths: simulation, brackets, file round-trips."""


import numpy as np
import pytest

from itoflow import (
    DriverSpec,
    GridResolutionWarning,
    PathBundle,
    SamplePath,
    bundle_from_binary,
    bundle_from_csv,
    bundle_to_binary,
    bundle_to_csv,
    discrete_bracket,
    make_grid,
    read_bundle,
    rng_for,
    simulate,
    simulate_bundle,
    write_bundle,
)


GRID = make_grid(1.0, 64)


class TestSamplePath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePath([0.0, 0.5], [0.1, 0.2])  # value must start at 0
        with pytest.raises(ValueError):
            SamplePath([0.5, 1.0], [0.0, 0.1])  # grid must start at 0
        with pytest.raises(ValueError):
            SamplePath([0.0, 0.0], [0.0, 0.1])  # strictly increasing grid

    def test_increments(self):
        p = SamplePath([0.0, 0.5, 1.0], [0.0, 2.0, 3.0])
        assert np.allclose(p.increments(), [2.0, 1.0])
        assert p.terminal == 3.0
        assert p.n_steps == 2


class TestSimulate:
    def test_brownian_reproducible(self):
        spec = DriverSpec.brownian(sigma=1.0)
        a = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        b = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        assert np.array_equal(a.values, b.values)

    def test_streams_independent_across_indices(self):
        spec = DriverSpec.brownian(sigma=1.0)
        a = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        b = simulate(spec, GRID, seed=5, path_index=0, driver_index=2)
        c = simulate(spec, GRID, seed=5, path_index=1, driver_index=1)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rng_for_spawns_distinct_streams(self):
        x = rng_for(1, 0, 1).normal(size=4)
        y = rng_for(1, 0, 2).normal(size=4)
        assert not np.array_equal(x, y)

    def test_brownian_scaling(self):
        spec = DriverSpec.brownian(sigma=0.0)
        p = simulate(spec, GRID, seed=0, path_index=0, driver_index=1)
        assert np.all(p.values == 0)

    def test_poisson_counts_are_integers(self):
        spec = DriverSpec.poisson(rate=3.0)
        p = simulate(spec, GRID, seed=2, path_index=0, driver_index=1)
        assert np.all(p.values == np.round(p.values))
        assert np.all(np.diff(p.values) >= 0)

    def test_poisson_warns_on_coarse_grid(self):
        spec = DriverSpec.poisson(rate=200.0)
        with pytest.warns(GridResolutionWarning):
            simulate(spec, make_grid(1.0, 8), seed=0, path_index=0, driver_index=1)

    def test_linear_drift(self):
        spec = DriverSpec.linear_drift(slope=2.0)
        p = simulate(spec, GRID, seed=0, path_index=0, driver_index=1)
        assert np.allclose(p.values, 2.0 * GRID)

    def test_table_driver(self):
        spec = DriverSpec.from_table([0.0, 1.0, -1.0])
        p = simulate(spec, make_grid(1.0, 2), seed=0, path_index=0, driver_index=1)
        assert np.allclose(p.values, [0.0, 1.0, -1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DriverSpec.brownian(sigma=-1.0)
        with pytest.raises(ValueError):
            DriverSpec.poisson(rate=0.0)
        with pytest.raises(ValueError):
            DriverSpec(kind="weird")


class TestDiscreteBracket:
    def test_unit_jump_square(self):
        # a single unit jump: bracket accumulates the squared increment
        p = SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
        br = discrete_bracket(p, p)
        assert np.allclose(br.values, [0.0, 1.0, 1.0])

    def test_symmetric(self):
        x = simulate(DriverSpec.brownian(1.0), GRID, 1, 0, 1)
        y = simulate(DriverSpec.brownian(1.0), GRID, 1, 0, 2)
        assert np.array_equal(discrete_bracket(x, y).values, discrete_bracket(y, x).values)


def _bundle(seed=3):
    specs = {1: DriverSpec.brownian(1.0), 2: DriverSpec.poisson(2.0)}
    return simulate_bundle(specs, GRID, seed=seed, path_index=0)


class TestBundle:
    def test_letters(self):
        b = _bundle()
        assert b.letters() == [1, 2]

    def test_requires_positive_int_letters(self):
        p = simulate(DriverSpec.brownian(1.0), GRID, 0, 0, 1)
        with pytest.raises(ValueError):
            PathBundle({0: p})

    def test_requires_shared_grid(self):
        p = simulate(DriverSpec.brownian(1.0), GRID, 0, 0, 1)
        q = simulate(DriverSpec.brownian(1.0), make_grid(1.0, 32), 0, 0, 2)
        with pytest.raises(ValueError):
            PathBundle({1: p, 2: q})


class TestSerialization:
    def test_csv_round_trip(self):
        b = _bundle()
        again = bundle_from_csv(bundle_to_csv(b))
        assert again.letters() == b.letters()
        for letter in b.letters():
            assert np.array_equal(again[letter].values, b[letter].values)
            assert np.array_equal(again[letter].grid, b[letter].grid)

    def test_binary_round_trip(self):
        b = _bundle()
        blob = bundle_to_binary(b)
        again = bundle_from_binary(blob)
        for letter in b.letters():
            assert np.array_equal(again[letter].values, b[letter].values)

    def test_binary_is_exact_for_awkward_floats(self):
        grid = make_grid(0.1, 3)
        vals = np.array([0.0, 0.1 + 1e-17, -1.0 / 3.0, 1e-308])
        b = PathBundle({1: SamplePath(grid, vals)})
        again = bundle_from_binary(bundle_to_binary(b))
        assert np.array_equal(again[1].values, vals)

    def test_file_round_trip_both_formats(self, tmp_path):
        b = _bundle()
        csv_file = tmp_path / "paths.csv"
        bin_file = tmp_path / "paths.itopath"
        write_bundle(csv_file, b)
        write_bundle(bin_file, b)
        for f in (csv_file, bin_file):
            again = read_bundle(f)
            for letter in b.letters():
                assert np.array_equal(again[letter].values, b[letter].values)

    @pytest.mark.parametrize("text", ["", "t,x1\n"], ids=["empty", "header-only"])
    def test_csv_without_data_rows_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="CSV"):
            bundle_from_csv(text)

    def test_binary_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            bundle_from_binary(b"NOTMAGIC" + b"\x00" * 64)
