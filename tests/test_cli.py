"""CLI error contract: file errors exit 3 with a message naming the path, and
no argument list makes anything but a ToolkitError escape ``main``."""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MANIFEST_ENTRY, NPY_HEADER, build_dataset, build_synthetic_manifest, npy_with_header
from synthfall.cli import main
from synthfall.harness import ExperimentReport, IterationResult
from synthfall.ingest import write_accel_csv
from synthfall.kinematics import AccelSeries, JointTrajectory, SensorPlacement, differentiate_to_accel, extract_joint

NON_UTF8 = b"\xff\xfe not utf-8 \xc3\x28"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
INPUT_KINDS = (
    "missing", "directory", "long_name", "empty", "non_utf8", "deep_json", "bad_manifest", "bad_npy", "valid",
)
OUTPUT_KINDS = ("fresh", "missing_parent", "existing_dir")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One of each input kind, plus a valid input per command."""
    root = tmp_path_factory.mktemp("cli")
    (root / "a_dir").mkdir()
    (root / "empty").write_bytes(b"")
    (root / "non_utf8").write_bytes(NON_UTF8)
    (root / "deep.json").write_text(DEEP_JSON)
    (root / "bad_manifest.json").write_text(json.dumps([dict(MANIFEST_ENTRY, path=5)]))
    (root / "bad.npy").write_bytes(npy_with_header(repr(dict(NPY_HEADER, shape=5))))
    motion = np.zeros((30, 22, 3))
    motion[:, 20, 0] = np.arange(30) * 0.1
    np.save(root / "motion.npy", motion)
    (root / "prompts.txt").write_text("A person falls.\nAn old man slips.\n", "utf-8")
    report = ExperimentReport(
        fingerprint="0123456789abcdef" * 4,
        config={"seed": 1},
        data_sha256="fedcba9876543210" * 4,
        iterations=(IterationResult(0, 1.0, 0.5, 2 / 3, 1, 0, 1, 2, ("s1",), ("s2",), 10, 3, "patience"),),
        mean_precision=1.0, mean_recall=0.5, mean_f1=2 / 3,
    )
    (root / "report.json").write_text(json.dumps(report.to_dict()))
    return {
        "root": root,
        "missing": root / "missing.json",
        "directory": root / "a_dir",
        "long_name": root / ("n" * 300),  # longer than any file system allows
        "empty": root / "empty",
        "non_utf8": root / "non_utf8",
        "deep_json": root / "deep.json",
        "bad_manifest": root / "bad_manifest.json",
        "bad_npy": root / "bad.npy",
        "real": build_dataset(root, subjects=2, series_len=60, seed=1),
        "synthetic": build_synthetic_manifest(root, series=2, series_len=60, seed=2),
        "motion": root / "motion.npy",
        "prompts": root / "prompts.txt",
        "report": root / "report.json",
    }


def expect_data_error(capsys, argv, path):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


class TestAlignSeveralGenerators:
    ARGS = ["--window", "16", "--stride", "8", "--k", "2"]

    @pytest.fixture(scope="class")
    def generators(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("generators")
        return [
            build_synthetic_manifest(root, source=f"gen{i}", series=2, series_len=60, seed=10 + i, value_shift=0.2 * i)
            for i in range(2)
        ]

    def test_one_run_writes_what_single_runs_write(self, files, generators, capsys, tmp_path):
        real = str(files["real"])
        single = []
        for i, gen in enumerate(generators):
            assert main(["align", real, str(gen), *self.ARGS, "--out", str(tmp_path / "single")]) == 0
            single.append(capsys.readouterr().out)
        assert main(["align", real, *map(str, generators), *self.ARGS, "--out", str(tmp_path / "both")]) == 0
        assert capsys.readouterr().out == "".join(single).replace("single", "both")
        written = {p.name: p.read_bytes() for p in (tmp_path / "single").iterdir()}
        assert len(written) == 6
        assert {p.name: p.read_bytes() for p in (tmp_path / "both").iterdir()} == written

    @pytest.mark.parametrize("bad", ["missing", "bad_manifest", "other_rate"])
    def test_a_failing_generator_writes_nothing(self, files, generators, capsys, tmp_path, bad):
        if bad == "other_rate":
            failing = build_synthetic_manifest(tmp_path, series=2, series_len=60, rate_hz=50.0)
        else:
            failing = files[bad]
        out = tmp_path / "out"
        argv = ["align", str(files["real"]), str(generators[0]), str(failing), *self.ARGS, "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_needs_a_generator(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", str(files["real"])])
        assert exc.value.code == 2


class TestFileErrorsExit3:
    @pytest.mark.parametrize("command", ["ingest", "align"])
    @pytest.mark.parametrize("kind", ["non_utf8", "deep_json"])
    def test_unreadable_manifest(self, files, capsys, tmp_path, command, kind):
        argv = [command, str(files[kind])]
        if command == "align":
            argv += [str(files["synthetic"]), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: manifest is not valid JSON")

    def test_kinematics_missing_motion(self, capsys, tmp_path):
        missing = tmp_path / "missing.npy"
        expect_data_error(capsys, ["kinematics", str(missing), str(tmp_path / "o.csv")], missing)

    def test_kinematics_motion_is_a_directory(self, capsys, tmp_path):
        expect_data_error(capsys, ["kinematics", str(tmp_path), str(tmp_path / "o.csv")], tmp_path)

    def test_kinematics_output_is_a_directory(self, files, capsys, tmp_path):
        expect_data_error(capsys, ["kinematics", str(files["motion"]), str(tmp_path)], tmp_path)

    def test_kinematics_output_parent_missing(self, files, capsys, tmp_path):
        out = tmp_path / "nodir" / "o.csv"
        expect_data_error(capsys, ["kinematics", str(files["motion"]), str(out)], out)

    def test_prompts_output_parent_missing(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "x.txt"
        expect_data_error(capsys, ["prompts", "--out", str(out)], out)

    def test_prompts_base_not_utf8(self, files, capsys):
        expect_data_error(capsys, ["prompts", "--base", str(files["non_utf8"])], files["non_utf8"])

    @pytest.mark.parametrize("argv, code", [
        ("ingest {name}", 3),
        ("report {name} --out {out}", 3),
        ("prompts --base {name} --out {out}", 3),
        ("experiment --config {name} --seed 1 --out {out}", 2),
    ])
    def test_name_too_long(self, files, capsys, tmp_path, argv, code):
        name = str(files["long_name"])
        assert main(argv.format(name=name, out=tmp_path / "out").split()) == code
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and name in err and "File name too long" in err
        assert not (tmp_path / "out").exists()

    def test_report_output_name_is_a_directory(self, files, capsys, tmp_path):
        taken = tmp_path / "report_0123456789ab.json"
        taken.mkdir()
        expect_data_error(capsys, ["report", str(files["report"]), "--out", str(tmp_path)], taken)

    def test_align_output_name_is_a_directory(self, files, capsys, tmp_path):
        argv = ["align", str(files["real"]), str(files["synthetic"]), "--window", "16", "--stride", "8", "--out"]
        assert main(argv + [str(tmp_path / "first")]) == 0
        # The report, then each density CSV: a failed write leaves no file behind.
        for i, written in enumerate(sorted((tmp_path / "first").iterdir(), reverse=True)):
            taken = tmp_path / f"second{i}" / written.name
            taken.mkdir(parents=True)
            expect_data_error(capsys, argv + [str(taken.parent)], taken)
            assert list(taken.parent.iterdir()) == [taken]

    def test_align_failed_write_removes_every_generators_files(self, files, capsys, tmp_path):
        argv = ["align", str(files["real"]), str(files["synthetic"]), "--window", "16", "--stride", "8", "--out"]
        assert main(argv + [str(tmp_path / "single")]) == 0
        # The second report's density CSV is written last of all six files.
        (last,) = (tmp_path / "single").glob("density_synthetic_*.csv")
        taken = tmp_path / "out" / last.name
        taken.mkdir(parents=True)
        other = build_synthetic_manifest(tmp_path, series=2, series_len=60, seed=3)
        expect_data_error(capsys, argv[:2] + [str(other)] + argv[2:] + [str(taken.parent)], taken)
        assert list(taken.parent.iterdir()) == [taken]

    def test_experiment_output_names_are_directories(self, capsys, tmp_path, fixture_dataset):
        real, syn = fixture_dataset
        argv = [
            "experiment", "--real-manifest", str(real), "--synthetic-manifest", str(syn), "--seed", "5",
            "--window", "64", "--stride", "16", "--hidden-size", "8", "--dense-units", "8",
            "--max-epochs", "2", "--patience", "2", "--iterations", "2", "--out",
        ]
        assert main(argv + [str(tmp_path / "first")]) == 0
        # The report, then each iteration's history: a failed write leaves no file behind.
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert [name.split("_")[0] for name in names] == ["history", "history", "report"]
        for name in names:
            taken = tmp_path / name.split(".")[0] / name
            taken.mkdir(parents=True)
            expect_data_error(capsys, argv + [str(taken.parent)], taken)
            assert list(taken.parent.iterdir()) == [taken]

    @pytest.mark.parametrize("argv", [
        "align {real} {synthetic} --window 16 --stride 8 --out afile",
        "report {report} --out afile",
    ])
    def test_output_dir_is_a_file(self, files, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("a file")
        assert main(argv.format(**files).split()) == 3
        assert capsys.readouterr().err == "error: cannot create output directory afile: File exists\n"


def set_rate(manifest, rate, index=None):
    """Rewrite the manifest's rate_hz: of entry ``index``, or of all entries."""
    entries = json.loads(manifest.read_text())
    for i, entry in enumerate(entries):
        if index is None or i == index:
            entry["rate_hz"] = rate
    manifest.write_text(json.dumps(entries))


class TestSamplingRates:
    """Windows of W samples span W / rate seconds, so recordings pooled or
    compared in one run must share a rate."""

    @pytest.fixture
    def manifests(self, tmp_path):
        real = build_dataset(tmp_path, subjects=4, series_len=60, rate_hz=20.0, seed=1)
        synthetic = build_synthetic_manifest(tmp_path, series=2, series_len=60, rate_hz=20.0, seed=2)
        return real, synthetic

    @pytest.mark.parametrize("command", ["align", "experiment"])
    @pytest.mark.parametrize("mixed", ["real_fall", "synthetic", "real_adl"])
    def test_mixed_rates_exit_3(self, manifests, capsys, tmp_path, command, mixed):
        real, synthetic = manifests
        if mixed == "synthetic":
            set_rate(synthetic, 46.0)
        else:
            # Entries alternate ADL, fall per subject.
            set_rate(real, 46.0, index=3 if mixed == "real_fall" else 2)
        if command == "align":
            argv = ["align", str(real), str(synthetic), "--window", "16", "--stride", "8"]
        else:
            argv = [
                "experiment", "--real-manifest", str(real), "--synthetic-manifest", str(synthetic),
                "--seed", "1", "--window", "16", "--stride", "8", "--split-sizes", "2,1,1",
                "--iterations", "1", "--hidden-size", "4", "--dense-units", "4", "--max-epochs", "1",
                "--patience", "1",
            ]
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if command == "align" and mixed == "real_adl":
            # Alignment compares falls only.
            assert code == 0
        else:
            assert code == 3
            assert err.startswith("error: recordings differ in sampling rate")
            assert "20.0 Hz" in err and "46.0 Hz" in err


    def test_rate_of_a_converted_motion_aligns(self, tmp_path, capsys):
        # A converted series' rate is 1 / (1 / frame_rate), 49.00000000000001 here.
        traj = JointTrajectory(np.zeros((3, 22, 3)), frame_rate=49.0)
        rate = differentiate_to_accel(extract_joint(traj, SensorPlacement.LEFT_WRIST)).sampling_rate
        assert rate != 49.0
        real = build_dataset(tmp_path, subjects=4, series_len=60, rate_hz=49.0, seed=1)
        synthetic = build_synthetic_manifest(tmp_path, series=2, series_len=60, rate_hz=rate, seed=2)
        argv = ["align", str(real), str(synthetic), "--window", "16", "--stride", "8"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0


class TestAlignNearTheFloatMaximum:
    """Values near the float maximum give a report or a data error, and no
    numpy warning on the way."""

    ARGS = ["--window", "16", "--stride", "8", "--k", "2", "--per-axis"]

    def test_synthetic_values_near_the_maximum_round_trip(self, tmp_path, capsys):
        # The real falls' deviation is about 0.3, so these standardize to about
        # 1.5e308, where two neighbouring bin edges sum past the float maximum.
        real = build_dataset(tmp_path, subjects=2, series_len=60, seed=1)
        synthetic = build_synthetic_manifest(tmp_path, series=2, series_len=60, seed=2, value_shift=4.5e307)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["align", str(real), str(synthetic), *self.ARGS, "--out", str(out)]) == 0
            (written,) = out.glob("alignment_*.json")
            payload = json.loads(written.read_text("utf-8"))
            assert max(payload["curves"]["synthetic"]["centers"]) > 1e308
            assert payload["coverage"] == 0.0
            assert main(["report", str(written), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / written.name).read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("value", [1.5e308, -1.5e308, "alternating"])
    def test_real_statistics_that_overflow_exit_3(self, tmp_path, capsys, value):
        real = build_dataset(tmp_path, subjects=2, series_len=60, seed=1)
        signs = np.where(np.arange(180).reshape(60, 3) % 2, 1.0, -1.0) if value == "alternating" else np.sign(value)
        for path in (tmp_path / "real").glob("*_fall0.csv"):
            values = np.full((60, 3), 1.5e308) * signs
            path.write_bytes(write_accel_csv(AccelSeries(samples=values, sampling_rate=32.0)))
        synthetic = build_synthetic_manifest(tmp_path, series=2, series_len=60, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["align", str(real), str(synthetic), *self.ARGS, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: scaler mean and std must be finite: the windows overflow float64\n"
        assert not (tmp_path / "out").exists()


class TestKinematicsDt:
    """``--dt`` values whose square underflows or overflows are config errors."""

    @pytest.mark.parametrize("dt", ["1e-300", "1e300", "inf", "nan"])
    def test_rejected_with_exit_2(self, files, capsys, tmp_path, dt):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kinematics", str(files["motion"]), str(out), "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --dt ") and repr(float(dt)) in err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e100", "1e3"])
    def test_all_zero_output_rejected(self, files, capsys, tmp_path, dt):
        """0.1 m per frame at these steps is below the six written decimals."""
        out = tmp_path / "o.csv"
        assert main(["kinematics", str(files["motion"]), str(out), "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dt {float(dt)!r} ") and "largest |a|" in err
        assert not out.exists()

    @pytest.mark.parametrize("moving, dt", [(True, "0.02"), (False, "0.02"), (False, "1e100")])
    def test_written(self, files, tmp_path, moving, dt):
        motion = files["motion"] if moving else tmp_path / "still.npy"
        if not moving:
            np.save(motion, np.zeros((30, 22, 3)))
        out = tmp_path / "o.csv"
        assert main(["kinematics", str(motion), str(out), "--dt", dt]) == 0
        body = out.read_text().splitlines()[1:]
        assert len(body) == 29 and any(row != "0.000000;0.000000;0.000000" for row in body) == moving


class TestMalformedStructureExit3:
    """Manifest entries and NPY headers of the wrong structure are data errors."""

    @pytest.mark.parametrize("key, value", [
        ("path", 5), ("path", None), ("activity", []), ("rate_hz", True), ("rate_hz", 1e999), ("extra", 1),
        pytest.param("rate_hz", "Infinity", id="rate_hz-Infinity"),
    ])
    def test_manifest_entry(self, capsys, tmp_path, key, value):
        (tmp_path / "a.csv").write_bytes(b"x;y;z\n1;2;3\n")
        manifest = tmp_path / "m.json"
        text = json.dumps([dict(MANIFEST_ENTRY, **{key: value})])
        # json.dumps writes infinity as Infinity; a manifest may also spell it 1e999.
        if value == "Infinity":
            text = text.replace('"Infinity"', "Infinity")
        else:
            text = text.replace("Infinity", "1e999")
        manifest.write_text(text)
        assert main(["ingest", str(manifest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: manifest entry 0") or err.startswith("error: unknown manifest entry 0")
        assert key in err
        if key == "rate_hz" and value is not True:
            assert err == "error: manifest entry 0 field rate_hz must be a finite number, got inf\n"

    @pytest.mark.parametrize("key, value", [
        ("shape", 5), ("shape", (2.5, 22, 3)), ("shape", (2, 22, True)),
        ("fortran_order", []), ("fortran_order", 0), ("extra", 1),
    ])
    def test_npy_header(self, capsys, tmp_path, key, value):
        motion = tmp_path / "m.npy"
        motion.write_bytes(npy_with_header(repr(dict(NPY_HEADER, **{key: value}))))
        assert main(["kinematics", str(motion), str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NPY header" in err and key in err
        assert not (tmp_path / "o.csv").exists()


_fresh = itertools.count()


def input_path(files, kind, valid):
    return str(files[valid] if kind == "valid" else files[kind])


def output_path(files, kind):
    root = files["root"]
    if kind == "fresh":
        return str(root / f"fresh{next(_fresh)}")
    if kind == "missing_parent":
        return str(root / f"gone{next(_fresh)}" / "out")
    return str(files["directory"])


def small_int(lo=-2, hi=40):
    return st.integers(lo, hi).map(str)


@st.composite
def command_lines(draw, files):
    """A whole argument list for one of the file-handling subcommands."""
    command = draw(st.sampled_from(["ingest", "kinematics", "prompts", "report", "align"]))
    # Valid inputs are drawn more often, so the commands also run to the end.
    inputs = st.just("valid") | st.sampled_from(INPUT_KINDS)
    outputs = st.sampled_from(OUTPUT_KINDS)
    if command == "ingest":
        return ["ingest", input_path(files, draw(inputs), "real")]
    if command == "kinematics":
        argv = ["kinematics", input_path(files, draw(inputs), "motion"), output_path(files, draw(outputs))]
        if draw(st.booleans()):
            argv += ["--dt", draw(st.sampled_from(["0", "-1", "0.02", "1e-3", "nan", "x"]))]
        if draw(st.booleans()):
            argv.append("--central-diff")
        return argv
    if command == "prompts":
        argv = ["prompts"]
        if draw(st.booleans()):
            argv += ["--base", input_path(files, draw(inputs), "prompts")]
        if draw(st.booleans()):
            argv += ["--variants", draw(st.sampled_from(["neutral", "man,woman", "", ",", "bogus"]))]
        return argv + ["--out", output_path(files, draw(outputs))]
    if command == "report":
        return ["report", input_path(files, draw(inputs), "report"),
                "--format", draw(st.sampled_from(["json", "csv"])), "--out", output_path(files, draw(outputs))]
    return [
        "align", input_path(files, draw(inputs), "real"), input_path(files, draw(inputs), "synthetic"),
        "--window", draw(small_int()), "--stride", draw(small_int()),
        "--bins", draw(small_int()), "--k", draw(small_int(-1, 6)),
        "--out", output_path(files, draw(outputs)),
    ]


@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_toolkit_errors_escape(files, capsys, data):
    argv = data.draw(command_lines(files))
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), argv
    capsys.readouterr()
