import io
import json
import re
import tempfile
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import Literal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthfall
from conftest import MANIFEST_ENTRY, NPY_HEADER, npy_with_header
from synthfall.errors import ConfigError, DataError
from synthfall.ingest import (
    VARIANT_TAGS,
    PromptCatalog,
    _checked,
    _fits,
    _read_writer_form,
    catalog_dataset,
    generate_prompt_variants,
    load_entry,
    load_prompt_catalog,
    read_accel_csv,
    read_motion_array,
    write_accel_csv,
)
from synthfall.kinematics import AccelSeries, ActivityLabel, Provenance


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


# Decoded JSON of any shape.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def npy_headers(draw):
    """Header dicts whose values are valid or drawn from Python literals,
    sometimes with a key dropped or an extra key."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner, inner), max_leaves=6)
    header = {key: draw(st.just(value) | values) for key, value in NPY_HEADER.items()}
    if draw(st.booleans()):
        header["shape"] = draw(st.tuples(st.integers(), st.sampled_from([22, 66]), st.integers(0, 4)))
    if draw(st.integers(0, 4)) == 0:
        del header[draw(st.sampled_from(sorted(header)))]
    if draw(st.integers(0, 4)) == 0:
        header[draw(st.text(max_size=4) | st.integers())] = draw(values)
    return header


@st.composite
def manifest_entries(draw):
    """Entries whose values are valid or arbitrary JSON, sometimes with a key
    dropped or an extra key, and sometimes not an object at all."""
    entry = {key: draw(st.just(value) | JSON_VALUES) for key, value in MANIFEST_ENTRY.items()}
    if draw(st.integers(0, 4)) == 0:
        del entry[draw(st.sampled_from(sorted(entry)))]
    if draw(st.integers(0, 4)) == 0:
        entry[draw(st.text(max_size=8))] = draw(JSON_VALUES)
    return draw(st.just(entry) | JSON_VALUES)


class TestCheckedLoader:
    def test_literal_matches_type_and_value(self):
        assert _fits(1, Literal[1]) and _fits("adl", Literal["adl", "fall"])
        assert not _fits(True, Literal[1])
        assert not _fits(1.0, Literal[1])
        assert not _fits(1, Literal[True])
        assert not _fits("jump", Literal["adl", "fall"])

    def test_literal_worded_as_choices(self):
        with pytest.raises(DataError, match=r"^x field a must be one of 'adl', 'fall', got 1$"):
            _checked({"a": Literal["adl", "fall"]}, {"a": 1}, "x", DataError)

    def test_unknown_keys_of_mixed_types_are_listed(self):
        with pytest.raises(DataError, match=r"^unknown x fields: \['1', 'b'\]$"):
            _checked({"a": int}, {"a": 1, 1: 2, "b": 3}, "x", DataError)


class TestAccelCsv:
    def test_single_row(self):
        series = read_accel_csv(b"x;y;z\n1.0;2.0;3.0\n")
        assert np.array_equal(series.samples, [[1.0, 2.0, 3.0]])

    def test_roundtrip_canonical(self):
        text = b"x;y;z\n1.000000;-2.500000;0.000000\n3.250000;4.000000;5.125000\n"
        assert write_accel_csv(read_accel_csv(text)) == text

    def test_roundtrip_values(self):
        rng = np.random.default_rng(0)
        series = AccelSeries(samples=rng.normal(size=(40, 3)), sampling_rate=32.0)
        parsed = read_accel_csv(write_accel_csv(series))
        assert np.max(np.abs(parsed.samples - series.samples)) <= 1e-6

    def test_comma_delimiter_rejected(self):
        with pytest.raises(DataError, match="header"):
            read_accel_csv(b"x,y,z\n1,2,3\n")

    def test_misordered_header_rejected(self):
        with pytest.raises(DataError, match="header"):
            read_accel_csv(b"z;y;x\n1;2;3\n")

    def test_non_numeric_cell_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            read_accel_csv(b"x;y;z\n1;2;3\n1;oops;3\n")

    def test_empty_body_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            read_accel_csv(b"x;y;z\n")

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            read_accel_csv(b"x;y;z\n1;2\n")

    def test_empty_series_writes_header_only(self):
        series = AccelSeries(samples=np.zeros((0, 3)), sampling_rate=32.0)
        assert write_accel_csv(series) == b"x;y;z\n"

    def test_zero_row(self):
        series = AccelSeries(samples=np.zeros((1, 3)), sampling_rate=32.0)
        assert write_accel_csv(series) == b"x;y;z\n0.000000;0.000000;0.000000\n"

    def test_metadata_passthrough(self):
        series = read_accel_csv(
            b"x;y;z\n1;2;3\n", sampling_rate=20.0, label=ActivityLabel.FALL,
            provenance=Provenance.SYNTHETIC, subject_id="s1",
        )
        assert series.sampling_rate == 20.0
        assert series.label == ActivityLabel.FALL
        assert series.provenance == Provenance.SYNTHETIC
        assert series.subject_id == "s1"


def reference_read(data):
    """The row-at-a-time parser: samples, or the DataError it raises."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"accel CSV is not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].rstrip("\r") != "x;y;z":
        got = lines[0].rstrip("\r") if lines else ""
        raise DataError(f"missing or misordered header: expected 'x;y;z', got {got!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.rstrip("\r").split(";")
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected 3 semicolon-separated values, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric cell") from None
        if not all(np.isfinite(row)):
            raise DataError(f"line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise DataError("accel CSV has a header but no samples")
    return np.array(rows, dtype=np.float64)


def reference_write(samples):
    """The row-at-a-time writer."""
    out = ["x;y;z"]
    for x, y, z in samples:
        out.append(f"{x:.6f};{y:.6f};{z:.6f}")
    out.append("")
    return "\n".join(out).encode("utf-8")


def outcome(read, data):
    """("ok", shape, bytes of the samples) or ("error", message)."""
    try:
        samples = read(data)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", samples.shape, samples.tobytes())


def assert_reads_like_reference(data):
    assert outcome(lambda d: read_accel_csv(d).samples, data) == outcome(reference_read, data)


# Cells of the writer's form `-?D{1,7}\.DDDDDD`, integer part zero-padded or not.
WRITER_FORM_CELLS = st.builds(
    lambda minus, whole, width, frac: f"{'-' * minus}{whole:0{width}d}.{frac:06d}",
    st.booleans(), st.integers(0, 10**7 - 1), st.integers(1, 7), st.integers(0, 10**6 - 1),
)
NEAR_VALID_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.6f}"),
    st.sampled_from([
        "1_0", "1__0", "_1", "\uff11\uff12", "\u0661", " 3 ", "\t4", "5\r", "\u20036",
        "nan", "-nan", "inf", "-Infinity", "1e400", "-0", "0x10", "", " ", "abc", "1e", "+.5", "5.",
        "-0.000000", "-.500000", "1.", "--1.000000", "1-2.000000",
    ]),
    st.builds(lambda v, frac: f"{v}.{frac:06d}", st.integers(-(10**9) + 1, 10**9 - 1), st.integers(0, 10**6 - 1)),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.5f}"),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.7f}"),
    WRITER_FORM_CELLS,
)
NEAR_VALID_LINES = st.one_of(
    st.lists(NEAR_VALID_CELLS, min_size=3, max_size=3).map(";".join),
    st.lists(NEAR_VALID_CELLS, min_size=1, max_size=5).map(";".join),
    st.sampled_from(["", "\r", ";;", "# 1;2;3", "1;2;3;", "1;2;3\r\r"]),
)


@st.composite
def near_valid_csv(draw):
    lines = draw(st.lists(NEAR_VALID_LINES, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "x;y;z" + ends[0] + "".join(line + end for line, end in zip(lines, ends[1:]))
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no final newline
    return text


class TestAccelCsvMatchesRowLoop:
    """The whole-file parser and writer agree with the row loops they replace:
    bit-equal samples and bytes, or the same DataError message."""

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        data = text.encode("utf-8")
        assert_reads_like_reference(data)
        assert_reads_like_reference(b"x;y;z\n" + data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary())
    def test_arbitrary_bytes_behind_header(self, body):
        assert_reads_like_reference(body)
        assert_reads_like_reference(b"x;y;z\n" + body)

    @settings(max_examples=500, deadline=None)
    @given(near_valid_csv())
    def test_near_valid_bodies(self, text):
        assert_reads_like_reference(text.encode("utf-8"))

    @pytest.mark.parametrize("body", [
        "1;2;3\r\n4;5;6\r\n",
        "1_0;\uff11\uff12; 3 \n",
        "1;2;3\n\n4;5;6\n",
        "1;2;3\n4;5\n6;7;8;9\n",
        "1;2;3\nnan;0;0\n",
        "1;2;3\n1e400;0;0\n",
        "1;2;3\nx;0;0\n",
        "1;2;3\n4;5;6",
        "",
    ])
    def test_named_bodies(self, body):
        assert_reads_like_reference(("x;y;z\n" + body).encode("utf-8"))

    @pytest.mark.parametrize("body", [
        b"1.000000;2.000000;3.000000\n-4.500000;0005.000000;-0.000000\n",
        b"1.000000;2.000000\n3.000000;4.000000;5.000000;6.000000\n",
        b"1.000000;2.00x000;3.000000\n",
        b"1.000000;2.000000;3.000000\n4.000000;5.000000;6.000000\r\n",
        b"123456789.000000;1.000000;2.000000\n",
        b"12345678.000000;-1234567.000000;-.500000\n",
    ])
    def test_named_writer_form_bodies(self, body):
        assert_reads_like_reference(b"x;y;z\n" + body)

    def test_error_lines_unchanged(self):
        with pytest.raises(DataError, match="^line 4: expected 3 semicolon-separated values, got 4$"):
            read_accel_csv(b"x;y;z\n1;2;3\n4;5;6\n1;2;3;4\n")
        with pytest.raises(DataError, match="^line 3: non-finite value$"):
            read_accel_csv(b"x;y;z\n1;2;3\nnan;5;6\nx;y;z\n")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60).map(lambda v: v[: len(v) // 3 * 3]))
    def test_writer_bytes_match_row_loop(self, values):
        samples = np.array(values, dtype=np.float64).reshape(-1, 3)
        series = AccelSeries(samples=samples, sampling_rate=32.0)
        assert write_accel_csv(series) == reference_write(samples)

    def test_writer_rounding_edges(self):
        edges = [0.0, -0.0, 5e-7, -5e-7, 0.5e-6, 1.5e-6, -2.5e-6, 1.0000005, 2.0000005, 1e15, -1e15, 1e15 + 0.5]
        edges += [9999999.4999995, 9999999.9999995, 1e7, -1e7, 0.0078125, -0.0078125, 0.0234375, -0.0234375]
        edges += [5e-324, -5e-324]
        ties = (np.arange(-20, 21) * 1e-6 + 5e-7).tolist()
        samples = np.array(edges + ties + [0.0] * (-len(edges + ties) % 3)).reshape(-1, 3)
        data = write_accel_csv(AccelSeries(samples=samples, sampling_rate=32.0))
        assert data == reference_write(samples)
        assert b"-0.000000;" in data
        # One value a row, so a value below 1e7 is written apart from the
        # values that round to 1e7 or more.
        for value in samples.ravel():
            row = np.array([[value, 0.0, -value]])
            data = write_accel_csv(AccelSeries(samples=row, sampling_rate=32.0))
            assert data == reference_write(row)
            assert_reads_like_reference(data)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(WRITER_FORM_CELLS, min_size=3, max_size=3).map(";".join), min_size=1, max_size=12),
           st.lists(NEAR_VALID_LINES, max_size=1), st.data())
    def test_writer_form_bodies(self, lines, odd, data):
        """LF bodies of writer-form rows, sometimes with one other line."""
        lines[data.draw(st.integers(0, len(lines))):0] = odd
        assert_reads_like_reference(("x;y;z\n" + "".join(line + "\n" for line in lines)).encode())

    def test_writer_form_with_crlf_or_no_final_lf(self):
        samples = np.random.default_rng(3).normal(scale=50.0, size=(40, 3))
        data = write_accel_csv(AccelSeries(samples=samples, sampling_rate=46.0))
        expected = read_accel_csv(data).samples.tobytes()
        assert _read_writer_form(data).tobytes() == expected
        for variant in (data.replace(b"\n", b"\r\n"), data[:-1], data.replace(b"\n", b"\r\n")[:-2]):
            assert _read_writer_form(variant) is None
            assert_reads_like_reference(variant)
            assert read_accel_csv(variant).samples.tobytes() == expected

    def test_roundtrip_large_series(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(scale=20.0, size=(5000, 3))
        data = write_accel_csv(AccelSeries(samples=samples, sampling_rate=46.0))
        assert data == reference_write(samples)
        assert read_accel_csv(data).samples.tobytes() == reference_read(data).tobytes()


class TestMotionArray:
    def test_zeros_trajectory(self):
        traj = read_motion_array(npy_bytes(np.zeros((2, 22, 3))))
        assert traj.frames == 2
        assert np.all(traj.positions == 0.0)

    def test_flat_shape_reshaped(self):
        arr = np.arange(5 * 66, dtype=np.float64).reshape(5, 66)
        traj = read_motion_array(npy_bytes(arr))
        assert traj.positions.shape == (5, 22, 3)
        assert np.array_equal(traj.positions.reshape(5, 66), arr)

    def test_float32_accepted(self):
        traj = read_motion_array(npy_bytes(np.ones((3, 22, 3), dtype=np.float32)))
        assert traj.positions.dtype == np.float64

    def test_wrong_joint_count_names_shape(self):
        with pytest.raises(DataError, match=r"\(5, 21, 3\)"):
            read_motion_array(npy_bytes(np.zeros((5, 21, 3))))

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            read_motion_array(b"NOTNPY" + b"\x00" * 64)

    def test_bad_version(self):
        data = bytearray(npy_bytes(np.zeros((2, 22, 3))))
        data[6] = 2
        with pytest.raises(DataError, match="version"):
            read_motion_array(bytes(data))

    def test_integer_dtype_rejected(self):
        with pytest.raises(DataError, match="dtype"):
            read_motion_array(npy_bytes(np.zeros((2, 22, 3), dtype=np.int64)))

    def test_fortran_order_rejected(self):
        arr = np.asfortranarray(np.random.default_rng(0).normal(size=(4, 66)))
        with pytest.raises(DataError, match="Fortran"):
            read_motion_array(npy_bytes(arr))

    def test_truncated_payload(self):
        data = npy_bytes(np.zeros((4, 22, 3)))
        with pytest.raises(DataError, match="truncated"):
            read_motion_array(data[:-8])

    def test_default_frame_rate(self):
        traj = read_motion_array(npy_bytes(np.zeros((2, 22, 3))))
        assert traj.frame_rate == 46.0

    @settings(max_examples=400, deadline=None)
    @given(npy_headers())
    @example({**NPY_HEADER, "shape": 5})
    @example({**NPY_HEADER, "shape": (2.5, 22, 3)})
    @example({**NPY_HEADER, "shape": (-2, 22, 3)})
    @example({**NPY_HEADER, "shape": (10**30, 22, 3)})
    @example({**NPY_HEADER, "fortran_order": []})
    @example({**NPY_HEADER, "extra": 1})
    def test_arbitrary_headers_raise_only_data_errors(self, header):
        try:
            traj = read_motion_array(npy_with_header(repr(header)))
        except DataError:
            return
        assert header.keys() == NPY_HEADER.keys() and type(header["fortran_order"]) is bool
        assert traj.positions.shape == (2, 22, 3)

    def test_unhashable_header_key_is_malformed(self):
        with pytest.raises(DataError, match="malformed NPY header"):
            read_motion_array(npy_with_header("{[]: 1}"))


class TestPromptCatalog:
    def test_bundled_catalog_has_50(self):
        assert len(load_prompt_catalog()) == 50

    def test_seven_tags_give_350(self):
        catalog = load_prompt_catalog()
        tags = ["neutral", "man", "woman", "young", "elderly", "left_wrist", "right_wrist"]
        out = generate_prompt_variants(catalog, tags)
        assert len(out) == 350
        assert len(set(out)) == 350

    def test_every_seven_tag_subset_is_unique(self):
        catalog = load_prompt_catalog()
        for subset in combinations(VARIANT_TAGS, 7):
            out = generate_prompt_variants(catalog, subset)
            assert len(out) == 350 and len(set(out)) == 350

    def test_neutral_is_identity(self):
        catalog = PromptCatalog(base_prompts=("A person falls.", "A person slips."))
        assert generate_prompt_variants(catalog, ["neutral"]) == list(catalog.base_prompts)

    def test_demographic_tags_contain_noun_phrase(self):
        catalog = PromptCatalog(base_prompts=(
            "A person falls.", "An elderly person slips.", "A child tumbles.",
        ))
        out = generate_prompt_variants(catalog, ["man", "woman"])
        assert len(out) == 6
        men = [p for p in out if "man" in p.lower()]
        women = [p for p in out if "woman" in p.lower()]
        assert len(women) == 3
        assert len(men) == 6  # "woman" contains "man"

    def test_placement_tags_append_clause(self):
        catalog = PromptCatalog(base_prompts=("A person falls.",))
        (out,) = generate_prompt_variants(catalog, ["waist"])
        assert out.startswith("A person falls.")
        assert "waist" in out

    def test_size_law(self):
        catalog = PromptCatalog(base_prompts=tuple(f"A person falls variant {i}." for i in range(9)))
        out = generate_prompt_variants(catalog, ["neutral", "elderly", "left_wrist"])
        assert len(out) == 27
        assert len(set(out)) == 27

    def test_unknown_tag(self):
        catalog = PromptCatalog(base_prompts=("A person falls.",))
        with pytest.raises(ConfigError, match="unknown"):
            generate_prompt_variants(catalog, ["martian"])

    def test_duplicate_base_prompts_rejected(self):
        with pytest.raises(DataError):
            PromptCatalog(base_prompts=("same", "same"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prompts.txt"
        path.write_text("first prompt\nsecond prompt\n", "utf-8")
        assert load_prompt_catalog(path).base_prompts == ("first prompt", "second prompt")


class TestCatalog:
    def write_manifest(self, tmp_path, entries, name="manifest.json"):
        path = tmp_path / name
        path.write_text(json.dumps(entries), "utf-8")
        return path

    def make_csv(self, tmp_path, name="a.csv"):
        path = tmp_path / name
        path.write_bytes(b"x;y;z\n1;2;3\n")
        return name

    def entry(self, tmp_path, subject="s1", activity="adl", name="a.csv", rate=32.0):
        self.make_csv(tmp_path, name)
        return {
            "subject": subject, "activity": activity, "path": name,
            "rate_hz": rate, "placement": "left_wrist", "provenance": "real",
        }

    def test_counts(self, tmp_path):
        entries = []
        for s in range(12):
            entries.append(self.entry(tmp_path, f"s{s}", "fall", f"s{s}_fall.csv"))
            entries.append(self.entry(tmp_path, f"s{s}", "adl", f"s{s}_adl.csv"))
        catalog = catalog_dataset(self.write_manifest(tmp_path, entries))
        assert len(catalog) == 24
        assert len(catalog.subjects()) == 12
        assert catalog.activity_histogram() == {"adl": 12, "fall": 12}

    def test_missing_file(self, tmp_path):
        entries = [{
            "subject": "s1", "activity": "adl", "path": "nope.csv",
            "rate_hz": 32.0, "placement": "left_wrist", "provenance": "real",
        }]
        with pytest.raises(DataError, match="not found"):
            catalog_dataset(self.write_manifest(tmp_path, entries))

    @pytest.mark.parametrize("path", ["sub", "a.csv/x", "loop.csv"])
    def test_not_a_regular_file_is_not_found(self, tmp_path, path):
        # A directory, a path through a file, a symlink loop: as Path.is_file judges them.
        (tmp_path / "sub").mkdir()
        (tmp_path / "loop.csv").symlink_to("loop.csv")
        e = dict(self.entry(tmp_path), path=path)
        with pytest.raises(DataError, match=f"^manifest entry 0: file not found: {re.escape(str(tmp_path / path))}$"):
            catalog_dataset(self.write_manifest(tmp_path, [e]))

    def test_duplicate_path(self, tmp_path):
        e = self.entry(tmp_path)
        with pytest.raises(DataError, match="duplicate"):
            catalog_dataset(self.write_manifest(tmp_path, [e, dict(e, subject="s2")]))

    @pytest.mark.parametrize("spelling", ["dotdot", "symlink", "hardlink"])
    def test_one_file_under_two_spellings(self, tmp_path, spelling):
        (tmp_path / "real").mkdir()
        e = self.entry(tmp_path, name="real/x.csv")
        if spelling == "dotdot":
            other = "real/../real/x.csv"
        else:
            other = "real/y.csv"
            if spelling == "symlink":
                (tmp_path / other).symlink_to("x.csv")
            else:
                (tmp_path / other).hardlink_to(tmp_path / "real/x.csv")
        manifest = self.write_manifest(tmp_path, [e, dict(e, subject="s2", path=other)])
        with pytest.raises(DataError, match=re.escape(
            f"manifest entry 1: duplicate file entry {tmp_path / other}, "
            f"the file of manifest entry 0 ({tmp_path / 'real/x.csv'})"
        )):
            catalog_dataset(manifest)

    def test_bad_rate(self, tmp_path):
        e = self.entry(tmp_path, rate=0.0)
        with pytest.raises(DataError, match="rate_hz"):
            catalog_dataset(self.write_manifest(tmp_path, [e]))

    def test_activity_histogram_recount(self, tmp_path):
        # Fixture with 3 fall types and 8 ADL types per subject.
        entries = []
        for s in range(2):
            for j in range(3):
                entries.append(self.entry(tmp_path, f"s{s}", "fall", f"s{s}_f{j}.csv"))
            for j in range(8):
                entries.append(self.entry(tmp_path, f"s{s}", "adl", f"s{s}_a{j}.csv"))
        catalog = catalog_dataset(self.write_manifest(tmp_path, entries))
        hist = catalog.activity_histogram()
        assert hist == {"adl": 16, "fall": 6}

    def test_load_entry_metadata(self, tmp_path):
        e = self.entry(tmp_path, subject="s9", activity="fall", rate=20.0)
        catalog = catalog_dataset(self.write_manifest(tmp_path, [e]))
        series = load_entry(catalog.entries[0])
        assert series.subject_id == "s9"
        assert series.label == ActivityLabel.FALL
        assert series.sampling_rate == 20.0

    def test_unknown_activity(self, tmp_path):
        e = self.entry(tmp_path)
        e["activity"] = "jump"
        with pytest.raises(DataError, match="activity"):
            catalog_dataset(self.write_manifest(tmp_path, [e]))

    def test_unknown_activity_names_the_choices(self, tmp_path):
        e = self.entry(tmp_path)
        e["activity"] = "jump"
        with pytest.raises(DataError, match=r"^manifest entry 0 field activity must be one of 'adl', 'fall', got 'jump'$"):
            catalog_dataset(self.write_manifest(tmp_path, [e]))

    def test_load_entry_of_a_directory(self, tmp_path):
        entry = catalog_dataset(self.write_manifest(tmp_path, [self.entry(tmp_path)])).entries[0]
        with pytest.raises(DataError, match=f"^cannot read recording {re.escape(str(tmp_path))}: Is a directory$"):
            load_entry(replace(entry, path=tmp_path))

    def test_path_too_long_for_the_file_system(self, tmp_path):
        e = self.entry(tmp_path)
        e["path"] = "a" * 300
        with pytest.raises(DataError, match="manifest entry 0: cannot read"):
            catalog_dataset(self.write_manifest(tmp_path, [e]))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(manifest_entries(), min_size=1, max_size=3))
    @example([{**MANIFEST_ENTRY, "path": 5}])
    @example([{**MANIFEST_ENTRY, "path": None}])
    @example([{**MANIFEST_ENTRY, "activity": []}])
    @example([{**MANIFEST_ENTRY, "rate_hz": True}])
    @example([{**MANIFEST_ENTRY, "rate_hz": float("inf")}])
    def test_arbitrary_entries_raise_only_data_errors(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "a.csv").write_bytes(b"x;y;z\n1;2;3\n")
            manifest = root / "manifest.json"
            manifest.write_text(json.dumps(entries), "utf-8")
            try:
                catalog = catalog_dataset(manifest)
            except DataError:
                return
        assert len(catalog) == len(entries)
        assert all(e.keys() == MANIFEST_ENTRY.keys() and _fits(e["rate_hz"], float) for e in entries)


# What only the file layer in ingest.py may do: catch an OSError, or read or
# write a file's bytes.
FILE_ACCESS = ("except OSError", ".read_bytes(", ".write_bytes(", ".read_text(", ".write_text(", "open(")


def test_only_the_file_layer_touches_files():
    found = [
        (path.name, token)
        for path in sorted(Path(synthfall.__file__).parent.glob("*.py"))
        if path.name != "ingest.py"
        for token in FILE_ACCESS
        if token in path.read_text("utf-8")
    ]
    assert found == []
