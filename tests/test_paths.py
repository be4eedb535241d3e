"""Discretized driver paths: simulation, brackets, file round-trips."""

import hashlib
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BundleFormatError,
    DriverSpec,
    FloatRangeError,
    FlowProblem,
    GridResolutionWarning,
    PathBundle,
    SamplePath,
    bundle_from_binary,
    bundle_from_csv,
    bundle_to_binary,
    bundle_to_csv,
    compare_flows,
    discrete_bracket,
    make_grid,
    read_bundle,
    rng_for,
    simulate,
    simulate_bundle,
    write_bundle,
)


GRID = make_grid(1.0, 64)


@st.composite
def bundles(draw):
    """A small bundle with arbitrary finite values, subnormals, -0.0 and the
    largest double among them."""
    letters = draw(st.sets(st.integers(1, 2**64 - 1), min_size=1, max_size=3))
    steps = draw(st.integers(1, 5))
    grid = make_grid(draw(st.floats(1e-300, 1e300)), steps)
    values = st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=steps, max_size=steps
    )
    return PathBundle({letter: SamplePath(grid, [0.0] + draw(values)) for letter in letters})


def bundle_blobs():
    return bundles().map(bundle_to_binary)


class TestGrid:
    @pytest.mark.parametrize(
        "steps, message",
        [
            (0, "steps must be >= 1"),
            (2.5, "steps must be an int"),
            (True, "steps must be an int"),
            (np.float64(3.0), "steps must be an int"),
        ],
    )
    def test_steps_are_a_positive_int(self, steps, message):
        with pytest.raises(ValueError, match=message):
            make_grid(1.0, steps)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_horizon_is_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            make_grid(horizon, 2)

    def test_numpy_int_steps(self):
        assert np.array_equal(make_grid(1.0, np.int64(4)), make_grid(1.0, 4))


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

    def test_increments_past_the_float_range_raise_float_range_error(self):
        p = SamplePath([0.0, 1.0, 2.0], [0.0, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="path increments must be finite"):
                p.increments()


@pytest.mark.parametrize(
    "spec", [DriverSpec("brownian"), DriverSpec("poisson")], ids=["brownian", "poisson"]
)
@pytest.mark.parametrize(
    "grid, message",
    [
        ([0.0, 0.5, 0.25], "grid must be strictly increasing"),
        ([0.5, 1.0], "grid must start at time 0"),
        ([0.0], "need at least two grid points"),
        ([[0.0, 1.0]], "grid must be a 1-D array"),
    ],
    ids=["decreasing", "late-start", "one-point", "2-D"],
)
def test_simulate_checks_its_grid_before_it_draws(spec, grid, message):
    # a negative step once reached the sqrt and the Poisson rate first
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate(spec, np.array(grid))


# every way a caller hands a stream key in; each key must be an int >= 0
SEED_SITES = {
    "rng_for-seed": lambda v: rng_for(v),
    "rng_for-path_index": lambda v: rng_for(0, v),
    "rng_for-driver_index": lambda v: rng_for(0, 0, v),
    "simulate-seed": lambda v: simulate(DriverSpec("brownian"), GRID, seed=v),
    "simulate-path_index": lambda v: simulate(DriverSpec("brownian"), GRID, path_index=v),
    "simulate-driver_index": lambda v: simulate(DriverSpec("linear_drift"), GRID, driver_index=v),
    "compare_flows-seed": lambda v: compare_flows(
        FlowProblem(1, [[0.5]], [[1.0]], 0.1, 4), [1], 4, seed=v
    ),
}


@pytest.mark.parametrize("bad", [True, -1, 2.5], ids=repr)
@pytest.mark.parametrize("site", sorted(SEED_SITES))
def test_stream_keys_are_counts(site, bad):
    """A bool is not read as 1, and a negative or fractional key raises
    ValueError naming the argument, not numpy's own error."""
    name = site.split("-")[1]
    with pytest.raises(ValueError, match=name):
        SEED_SITES[site](bad)


class TestSimulate:
    def test_brownian_reproducible(self):
        spec = DriverSpec("brownian", sigma=1.0)
        a = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        b = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        assert np.array_equal(a.values, b.values)

    def test_streams_independent_across_indices(self):
        spec = DriverSpec("brownian", sigma=1.0)
        a = simulate(spec, GRID, seed=5, path_index=0, driver_index=1)
        b = simulate(spec, GRID, seed=5, path_index=0, driver_index=2)
        c = simulate(spec, GRID, seed=5, path_index=1, driver_index=1)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rng_for_spawns_distinct_streams(self):
        x = rng_for(1, 0, 1).normal(size=4)
        y = rng_for(1, 0, 2).normal(size=4)
        assert not np.array_equal(x, y)

    def test_numpy_int_keys_draw_as_ints(self):
        x = rng_for(5, 2, 1).normal(size=4)
        y = rng_for(np.int64(5), np.int32(2), np.uint8(1)).normal(size=4)
        assert x.tobytes() == y.tobytes()

    def test_brownian_scaling(self):
        spec = DriverSpec("brownian", sigma=0.0)
        p = simulate(spec, GRID, seed=0, path_index=0, driver_index=1)
        assert np.all(p.values == 0)

    def test_poisson_counts_are_integers(self):
        spec = DriverSpec("poisson", rate=3.0)
        p = simulate(spec, GRID, seed=2, path_index=0, driver_index=1)
        assert np.all(p.values == np.round(p.values))
        assert np.all(np.diff(p.values) >= 0)

    def test_poisson_warns_on_coarse_grid(self):
        spec = DriverSpec("poisson", rate=200.0)
        with pytest.warns(GridResolutionWarning):
            simulate(spec, make_grid(1.0, 8), seed=0, path_index=0, driver_index=1)

    def test_linear_drift(self):
        spec = DriverSpec("linear_drift", slope=2.0)
        p = simulate(spec, GRID, seed=0, path_index=0, driver_index=1)
        assert np.allclose(p.values, 2.0 * GRID)

    def test_table_driver(self):
        spec = DriverSpec("table", table=[0, 1.0, -1.0])
        assert spec.table == (0.0, 1.0, -1.0) and type(spec.table[0]) is float
        assert hash(spec) == hash(DriverSpec("table", table=(0.0, 1.0, -1.0)))
        p = simulate(spec, make_grid(1.0, 2), seed=0, path_index=0, driver_index=1)
        assert np.allclose(p.values, [0.0, 1.0, -1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DriverSpec("brownian", sigma=-1.0)
        with pytest.raises(ValueError):
            DriverSpec("poisson", rate=0.0)
        with pytest.raises(ValueError):
            DriverSpec(kind="weird")


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(lambda v: DriverSpec("brownian", sigma=v), "sigma", id="brownian-sigma"),
            pytest.param(lambda v: DriverSpec("poisson", rate=v), "rate", id="poisson-rate"),
            pytest.param(
                lambda v: DriverSpec("linear_drift", slope=v), "slope", id="linear_drift-slope"
            ),
            (lambda v: DriverSpec("table", table=(0.0, v)), "table"),
        ],
    )
    def test_nonfinite_parameters_are_refused(self, make, field, bad):
        with pytest.raises(ValueError, match=f"{field}.* must be finite"):
            make(bad)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"kind": "linear_drift", "slope": "2"}, id="str-slope"),
            pytest.param({"kind": "brownian", "sigma": None}, id="none-sigma"),
            pytest.param({"kind": "poisson", "rate": "1"}, id="str-rate"),
            pytest.param({"kind": "table", "table": ("1", "2", "3")}, id="str-table"),
            pytest.param({"kind": "table", "table": (0.0, None)}, id="none-in-table"),
        ],
    )
    def test_parameters_of_another_type_are_refused(self, kwargs):
        with pytest.raises(TypeError, match="must be Real"):
            DriverSpec(**kwargs)


class TestDiscreteBracket:
    def test_unit_jump_square(self):
        # a single unit jump: bracket accumulates the squared increment
        p = SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
        br = discrete_bracket(p, p)
        assert np.allclose(br.values, [0.0, 1.0, 1.0])

    def test_symmetric(self):
        x = simulate(DriverSpec("brownian", sigma=1.0), GRID, 1, 0, 1)
        y = simulate(DriverSpec("brownian", sigma=1.0), GRID, 1, 0, 2)
        assert np.array_equal(discrete_bracket(x, y).values, discrete_bracket(y, x).values)

    def test_an_increment_product_past_the_float_range_raises_float_range_error(self):
        x = SamplePath([0.0, 1.0, 2.0], [0.0, 1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="bracket path must be finite"):
                discrete_bracket(x, x)

    def test_paths_on_different_grids_are_refused(self):
        x = SamplePath([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
        for grid in ([0.0, 1.0], [0.0, 0.25, 1.0]):  # another length, other points
            y = SamplePath(grid, [0.0] * len(grid))
            with pytest.raises(ValueError, match="paths must share a grid"):
                discrete_bracket(x, y)


def _bundle(seed=3):
    specs = {1: DriverSpec("brownian", sigma=1.0), 2: DriverSpec("poisson", rate=2.0)}
    return simulate_bundle(specs, GRID, seed=seed, path_index=0)


class TestBundle:
    def test_letters(self):
        b = _bundle()
        assert b.letters() == [1, 2]

    def test_membership_is_by_letter(self):
        b = _bundle()
        assert 1 in b and 2 in b
        assert 3 not in b

    def test_requires_positive_int_letters(self):
        p = simulate(DriverSpec("brownian", sigma=1.0), GRID, 0, 0, 1)
        with pytest.raises(ValueError):
            PathBundle({0: p})

    def test_requires_shared_grid(self):
        p = simulate(DriverSpec("brownian", sigma=1.0), GRID, 0, 0, 1)
        q = simulate(DriverSpec("brownian", sigma=1.0), make_grid(1.0, 32), 0, 0, 2)
        with pytest.raises(ValueError):
            PathBundle({1: p, 2: q})


# letter 7 holds -0.0, the least subnormal and the largest doubles
GOLDEN_TABLE = (0.0, -0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, -2.5, 7.0)


def _golden_bundle():
    specs = {
        1: DriverSpec("brownian", sigma=0.5),
        2: DriverSpec("poisson", rate=2.0),
        3: DriverSpec("linear_drift", slope=-1.5),
        7: DriverSpec("table", table=GOLDEN_TABLE),
    }
    return simulate_bundle(specs, make_grid(1.0, 8), seed=11)


def _bits(bundle):
    return [bundle.grid.tobytes()] + [bundle[letter].values.tobytes() for letter in bundle.letters()]


class TestSerialization:
    @pytest.mark.parametrize(
        "write, digest",
        [
            (
                lambda b: bundle_to_csv(b).encode(),
                "b256c0adc66063b3a2cb9a9ce8483cdf90bba8657a21568ef15fce9a2feb4cdb",
            ),
            (
                bundle_to_binary,
                "1a853705c46bf5ef3f18cb05202b0523f084c77d270720d9bd7bc86c5e41f9d9",
            ),
        ],
        ids=["csv", "binary"],
    )
    def test_writers_keep_their_bytes(self, write, digest):
        assert hashlib.sha256(write(_golden_bundle())).hexdigest() == digest

    @given(bundles())
    @settings(max_examples=60, deadline=None)
    def test_both_codecs_round_trip_every_bit(self, b):
        for again in (bundle_from_csv(bundle_to_csv(b)), bundle_from_binary(bundle_to_binary(b))):
            assert again.letters() == b.letters()
            assert _bits(again) == _bits(b)

    @pytest.mark.parametrize(
        "variant",
        [
            lambda lines: "\n".join(",".join(f'"{f}"' for f in line.split(",")) for line in lines),
            lambda lines: "\r\n".join(lines) + "\r\n",
            lambda lines: "\n".join(lines[:1] + [" , ".join(r.split(",")) + " " for r in lines[1:]]),
            lambda lines: "\n\n".join(lines) + "\n\n",
        ],
        ids=["quoted", "crlf", "spaces", "blank-lines"],
    )
    def test_csv_variants_read_the_same_bits(self, variant):
        b = _golden_bundle()
        text = variant(bundle_to_csv(b).splitlines())
        assert _bits(bundle_from_csv(text)) == _bits(b)

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

    @pytest.mark.parametrize("path", [True, 1, b"paths.csv", None])
    def test_file_path_of_another_type_is_refused(self, path):
        # an int or a bool would be taken as a file descriptor and closed
        with pytest.raises(TypeError, match="path must be str or PathLike"):
            read_bundle(path)
        with pytest.raises(TypeError, match="path must be str or PathLike"):
            write_bundle(path, _bundle())
        os.fstat(1)

    @pytest.mark.parametrize("blob", [np.int64(3), 3, "ITOPATH1", None, [0] * 24])
    def test_binary_of_another_type_is_refused(self, blob):
        with pytest.raises(TypeError, match="binary must be bytes or bytearray or memoryview"):
            bundle_from_binary(blob)

    def test_binary_from_a_buffer(self):
        b = _bundle()
        blob = bundle_to_binary(b)
        wide = memoryview(np.frombuffer(blob, dtype="<f8"))  # counts 8-byte items
        for view in (bytearray(blob), memoryview(blob), wide):
            again = bundle_from_binary(view)
            for letter in b.letters():
                assert np.array_equal(again[letter].values, b[letter].values)

    @pytest.mark.parametrize(
        "load, message",
        [
            (lambda: bundle_from_csv("t,x1\n0,0\n1,nan"), "must be finite"),
            (
                lambda: bundle_from_binary(
                    bundle_to_binary(_bundle())[:-8] + struct.pack("<d", np.nan)
                ),
                "must be finite",
            ),
            (lambda: SamplePath([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]), "must be finite"),
            (
                lambda: PathBundle({True: SamplePath([0.0, 1.0], [0.0, 1.0])}),
                "letter must be an int, not True",
            ),
        ],
        ids=["csv-nan", "binary-nan", "grid-inf", "bool-letter"],
    )
    def test_non_finite_points_and_bool_letters_are_value_errors(self, load, message):
        with pytest.raises(ValueError, match=message):
            load()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x1\n0,0\n1\n2,2\n", "^CSV data row 2: width 1, the header's 2$"),
            ("t,x1\n0,0\n1,abc\n", "^CSV data row 2: could not convert string to float: 'abc'$"),
            ("t,x1,x2\n0,0\n1,1\n", "^CSV data row 1: width 2, the header's 3$"),
            ("t,x1\n0,0\n1,1_000\n", "^CSV data row 2: '1_000' is not a float written in ASCII$"),
            ("t,x1\n0,0\n1,\u0661\n", "^CSV data row 2: '\u0661' is not a float written in ASCII$"),
            ("t,x1\r\n\r\n0,0\r\n\r\n\r\n1,2\r\n2,x\r\n", "^CSV data row 3: could not"),
            ("t,x1\n0,0\n\n1,2\n\n2,2,2\n", "^CSV data row 3: width 3, the header's 2$"),
            ("t,x1\r0,0\r1,1\r", r"^CSV header: a stray carriage return: a line ends in \\n or"),
            ("t,x1\n0,0\r1,1\n", "^CSV data row 1: a stray carriage return"),
            ('t,x1\n0,0\n1,"1\n', "^CSV data row 2: unexpected end of data$"),
            ('t,x1\n0,0\n1,"1"x\n', "^CSV data row 2: .* expected after "),
        ],
        ids=[
            "ragged", "abc", "narrower-than-header", "underscore", "arabic-indic-digit",
            "blank-lines-not-counted", "ragged-after-blank-lines",
            "bare-cr-in-the-header", "bare-cr-in-a-row", "unclosed-quote", "text-after-a-quote",
        ],
    )
    def test_csv_bad_row_is_a_value_error_naming_it(self, text, message):
        """One count of data rows, from 1: the header and blank lines are
        not counted, and a csv.Error is a ValueError naming its row too."""
        with pytest.raises(ValueError, match=message) as info:
            bundle_from_csv(text)
        assert "usecols" not in str(info.value) and info.value.__cause__ is None

    @given(bundles(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_one_character_edit_is_a_bundle_or_a_value_error(self, b, data):
        """The CSV twin of the binary bit flip: a character inserted, replaced
        or deleted anywhere, a line break, quote, NUL or non-ASCII digit
        included, gives a bundle or a ValueError, never a csv.Error."""
        text = bundle_to_csv(b)
        at, cut = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 1))
        char = data.draw(st.sampled_from([*',\n\r"0123456789x\x00\u0661', ""]))
        edited = text[:at] + char + text[at + cut :]
        try:
            result = bundle_from_csv(edited)
        except ValueError:
            return
        assert isinstance(result, PathBundle)

    @pytest.mark.parametrize("name", ["x²", "x١", "x+1", "x 1", "x0", "x"])
    def test_csv_driver_column_is_x_and_ascii_digits(self, name):
        with pytest.raises(ValueError, match=re.escape(f"bad driver column '{name}'")):
            bundle_from_csv(f"t,{name}\n0,0\n1,1\n")

    @pytest.mark.parametrize("text", ["", "t,x1\n"], ids=["empty", "header-only"])
    def test_csv_without_data_rows_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="CSV"):
            bundle_from_csv(text)

    @pytest.mark.parametrize("second", ["x1", "x01"])
    def test_csv_repeated_driver_column_is_a_value_error(self, second):
        with pytest.raises(ValueError, match=f"'{second}' repeats driver letter 1"):
            bundle_from_csv(f"t,x1,{second}\n0,0,0\n1,1,5\n")

    def test_binary_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            bundle_from_binary(b"NOTMAGIC" + b"\x00" * 64)

    def test_binary_header_count_beyond_the_blob(self):
        blob = b"ITOPATH1" + struct.pack("<QQ", 1, 2**61) + b"\x00" * 16
        with pytest.raises(BundleFormatError, match="ends early") as info:
            bundle_from_binary(blob)
        assert info.value.offset == len(blob)

    def test_binary_rejects_a_repeated_letter(self):
        header = b"ITOPATH1" + struct.pack("<QQQQ", 2, 2, 1, 1)
        matrix = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]]).astype("<f8")
        with pytest.raises(BundleFormatError, match="repeated") as info:
            bundle_from_binary(header + matrix.tobytes())
        assert info.value.offset == 32

    @pytest.mark.parametrize("letters, offset", [((0, 1), 24), ((2, 0), 32)])
    def test_binary_rejects_letter_0_at_its_offset(self, letters, offset):
        header = b"ITOPATH1" + struct.pack("<QQQQ", 2, 2, *letters)
        matrix = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]]).astype("<f8")
        with pytest.raises(BundleFormatError, match="letter 0") as info:
            bundle_from_binary(header + matrix.tobytes())
        assert info.value.offset == offset

    @given(bundle_blobs(), st.binary(min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_binary_truncated_or_extended_is_a_format_error(self, blob, extra):
        for end in range(len(blob)):
            with pytest.raises(BundleFormatError):
                bundle_from_binary(blob[:end])
        with pytest.raises(BundleFormatError) as info:
            bundle_from_binary(blob + extra)
        assert info.value.offset == len(blob)

    @given(bundle_blobs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_binary_bit_flip_is_a_bundle_or_a_value_error(self, blob, data):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            result = bundle_from_binary(bytes(flipped))
        except ValueError:
            return
        assert isinstance(result, PathBundle)
