"""The file layer and file formats: accelerometer CSV, motion arrays, dataset
manifests, and prompt-variant generation.

Only ``read_file`` and ``write_file`` touch a file's bytes, and only this
module maps an OSError to a toolkit error; readers of a format take bytes,
writers return bytes.  A JSON manifest lists one recording per entry.
"""

from __future__ import annotations

import ast
import contextlib
import errno
import json
import math
import re
import stat
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError
from .kinematics import (
    DEFAULT_FRAME_RATE_HZ,
    JOINT_COUNT,
    AccelSeries,
    ActivityLabel,
    JointTrajectory,
    Provenance,
    SensorPlacement,
)

CSV_HEADER = "x;y;z"

# ---------------------------------------------------------------------------
# Accelerometer CSV (header `x;y;z`, semicolon-separated, LF line endings)
#
# The writer's form of a cell is `-?D{1,7}\.DDDDDD`.  Both directions handle
# that form with whole-file byte kernels on little-endian '<u8' words, whose
# lowest byte is a string's first; any other value or body goes through
# ``%``-formatting or ``float()``, with the same bytes and bits.

_HEAD = (CSV_HEADER + "\n").encode()
_U8 = np.dtype("<u8")
_K = np.arange(1000, dtype=np.int64)
_DIGITS3 = (_K // 100 + 48) | (_K // 10 % 10 + 48) << 8 | (_K % 10 + 48) << 16  # b"000".."999"
_POW10 = 10 ** np.arange(1, 7, dtype=np.int64)
_ROW_SEPS = np.frombuffer(b";;\n", np.uint8)
_SEP_WORDS = _ROW_SEPS.astype(np.int64) << 56
# _DIGIT_BYTES[d]: the digit values of a word's top d bytes of ASCII digits.
_DIGIT_BYTES = np.array([((1 << 64) - (1 << 8 * (8 - d))) & 0x0F0F0F0F0F0F0F0F for d in range(9)], _U8)


def read_accel_csv(
    data: bytes | str,
    *,
    sampling_rate: float = DEFAULT_FRAME_RATE_HZ,
    label: ActivityLabel = ActivityLabel.ADL,
    provenance: Provenance = Provenance.REAL,
    subject_id: str | None = None,
) -> AccelSeries:
    """Parse an accelerometer CSV into an AccelSeries.

    The file itself carries no rate/label metadata; callers supply it
    (the dataset manifest does for cataloged files).
    """
    samples = _read_writer_form(data) if isinstance(data, bytes) else None
    if samples is None:
        body = _body_lines(data)
        samples = _parse_body_fast(body)
        if samples is None:
            samples = _parse_body(body)
    return AccelSeries(
        samples=samples,
        sampling_rate=sampling_rate,
        label=label,
        provenance=provenance,
        subject_id=subject_id,
    )


def _swar8(w: np.ndarray) -> np.ndarray:
    """The number spelled by each word's eight digit values 0..9, first byte
    most significant: pairs, then quads, then all eight (Lemire's reduction)."""
    w = (w * np.uint64(2561)) >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)
    w = (w * np.uint64(6553601)) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)
    return (w * np.uint64(42949672960001)) >> np.uint64(32)


def _read_writer_form(data: bytes) -> np.ndarray | None:
    """The samples of a CSV of an ``x;y;z`` LF header and rows of three
    writer-form cells, each row ending in LF; None for any other input.

    Byte counts check the body: a separator seven bytes after each ``.``,
    in the ``; ; LF`` pattern and the last LF ending the file, ``-`` only at
    cell starts, one to seven digits before each ``.`` and digits everywhere
    else.  Each cell is then read from two 8-byte runs: the integer digits,
    ending before the ``.``, and the last integer digit, the ``.`` and the
    decimals, ending at the separator.  The value ``n / 1e6``, with
    ``n < 10**13``, has the bits of ``float(cell)``: both operands are exact
    doubles, so the one rounding is the correct one (Clinger 1990).
    """
    if not data.startswith(_HEAD):
        return None
    # Two zero bytes before the 6-byte header put the body at offset 8, so
    # every cell's integer run starts inside the buffer.
    padded = bytes(2) + data
    b = np.frombuffer(padded, np.uint8, offset=8)
    dots = np.flatnonzero(b == 46)
    ends = dots + 7
    if not dots.size or dots.size % 3 or ends[-1] != b.size - 1 or (b[ends].reshape(-1, 3) != _ROW_SEPS).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    neg = b[starts] == 45
    digits = dots - starts - neg
    if not ((digits >= 1) & (digits <= 7)).all():
        return None
    if np.count_nonzero((b - 48) < 10) != b.size - 2 * dots.size - np.count_nonzero(neg):
        return None
    runs = np.ndarray(len(padded) - 7, _U8, padded, strides=(1,))  # the run at every offset
    w = np.empty((2, dots.size), _U8)
    np.take(runs, dots, out=w[0])
    np.take(runs, ends, out=w[1])
    w[0] &= _DIGIT_BYTES[digits]
    w[1] &= _DIGIT_BYTES[6]
    whole, frac = _swar8(w)
    values = (whole * np.uint64(10**6) + frac).astype(np.float64) / np.where(neg, -1e6, 1e6)
    return values.reshape(-1, 3)


def _body_lines(data: bytes | str) -> list[str]:
    """The lines after a checked ``x;y;z`` header; DataError for a file that
    is not UTF-8 or does not start with that header."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"accel CSV is not valid UTF-8: {exc}") from None
    else:
        text = data
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        got = lines[0].rstrip("\r") if lines else ""
        raise DataError(f"missing or misordered header: expected {CSV_HEADER!r}, got {got!r}")
    return lines[1:]


def _parse_body_fast(body: list[str]) -> np.ndarray | None:
    """The body's samples converted in one pass, or None when any line might be
    malformed; ``_parse_body`` then decides and words the error.

    numpy converts each ``str`` token with ``float()``, so every token parses
    exactly as in the row loop; a trailing carriage return is whitespace to
    ``float()``.
    """
    if set(map(str.count, body, repeat(";"))) != {2}:
        return None
    try:
        samples = np.array(";".join(body).split(";"), dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(samples).all():
        return None
    return samples.reshape(len(body), 3)


def _parse_body(body: list[str]) -> np.ndarray:
    """Row-by-row parse of the body lines; the source of every body error."""
    rows = []
    for lineno, line in enumerate(body, start=2):
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


def write_accel_csv(series: AccelSeries) -> bytes:
    """Serialize an AccelSeries to CSV bytes (6 decimal places, LF endings),
    byte for byte as ``"%.6f"`` writes each value.

    A series with a value that rounds to ``|x| >= 1e7`` is written by one
    ``%``-format over all values.
    """
    samples = series.samples
    words = _cell_words(samples.ravel())
    if words is None:
        rows = ("%.6f;%.6f;%.6f\n" * samples.shape[0]) % tuple(samples.ravel().tolist())
        return (CSV_HEADER + "\n" + rows).encode("utf-8")
    cells = words.view(np.uint8)
    return _HEAD + cells[cells != 0].tobytes()


def _cell_words(x: np.ndarray) -> np.ndarray | None:
    """Each value's cell as two '<u8' words, rows of three cells; None when a
    value rounds to ``|x| >= 1e7``.

    The first word holds the sign and the integer digits in its top bytes
    and zero bytes below them; the second holds ``.``, the six decimals and
    the separator.  ``rint(x * 1e6)`` rounds half to even as ``"%.6f"`` does,
    except where the float product lands on a half, which ``_tie_rounded``
    settles.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # x * 1e6 overflows beyond 1.8e302
        p = x * 1e6
        n = np.rint(p)
        tie = np.abs(n - p) == 0.5
    if tie.any():
        n[tie] = _tie_rounded(x[tie], p[tie], n[tie])
    if not (np.abs(n) < 1e13).all():
        return None
    whole, frac = _divmod(np.abs(n).astype(np.int64), 10**6)
    thousands, ones = _divmod(whole, 1000)
    millions, thousands = _divmod(thousands, 1000)
    more = np.searchsorted(_POW10, whole, side="right")  # digits after the first
    int_word = (millions + 48) << 8 | _DIGITS3[thousands] << 16 | _DIGITS3[ones] << 40
    int_word &= -1 << 56 - 8 * more
    int_word |= (45 << 48 - 8 * more) * np.signbit(x)
    high, low = _divmod(frac, 1000)
    words = np.empty((x.size // 3, 3, 2), _U8)
    words[..., 0] = int_word.reshape(-1, 3)
    words[..., 1] = (46 | _DIGITS3[high] << 8 | _DIGITS3[low] << 32).reshape(-1, 3) | _SEP_WORDS
    return words


def _divmod(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(a, d)`` for non-negative ``a``, by one floor division: an
    int64 ``%`` costs about four of them."""
    q = a // d
    return q, a - q * d


def _tie_rounded(x: np.ndarray, p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x * 1e6`` rounded half to even where its float product ``p`` is a
    half: the sign of the exact product error decides, and a zero error
    keeps ``rint``'s even ``n``.  The error is Dekker's (1971), on a
    Veltkamp split of ``x`` by ``2**27 + 1``; ``1e6`` has 14 significant
    bits, so it needs no split and every partial product is exact."""
    c = x * 134217729.0
    hi = c - (c - x)
    err = (hi * 1e6 - p) + (x - hi) * 1e6
    return np.where(err > 0, np.ceil(p), np.where(err < 0, np.floor(p), n))


# ---------------------------------------------------------------------------
# Motion arrays (NPY v1.0, little-endian float32/float64, C order)

_NPY_MAGIC = b"\x93NUMPY"
_NPY_HEADER = {"descr": str, "fortran_order": bool, "shape": tuple[int, ...]}


def read_motion_array(data: bytes, frame_rate: float = DEFAULT_FRAME_RATE_HZ) -> JointTrajectory:
    """Parse an NPY v1.0 payload of shape (F, 22, 3) or (F, 66) into a trajectory.

    Only plain little-endian float arrays in C order are accepted; the header
    is parsed directly so malformed or pickled payloads are rejected rather
    than executed.  Motion files carry no frame rate, so ``frame_rate``
    defaults to the generators' 46 Hz output.
    """
    if len(data) < 10 or data[:6] != _NPY_MAGIC:
        raise DataError("not an NPY file: bad magic")
    major, minor = data[6], data[7]
    if (major, minor) != (1, 0):
        raise DataError(f"unsupported NPY version {major}.{minor}; expected 1.0")
    header_len = int.from_bytes(data[8:10], "little")
    header_end = 10 + header_len
    if len(data) < header_end:
        raise DataError("truncated NPY header")
    try:
        header = ast.literal_eval(data[10:header_end].decode("latin-1").strip())
    except (ValueError, TypeError, SyntaxError):  # TypeError: an unhashable dict key
        raise DataError("malformed NPY header") from None
    header = _checked(_NPY_HEADER, header, "NPY header", DataError)
    descr = header["descr"]
    if descr not in ("<f4", "<f8"):
        raise DataError(f"unsupported dtype {descr!r}; expected little-endian float32/float64")
    if header["fortran_order"]:
        raise DataError("Fortran-order arrays are not supported")
    shape = header["shape"]
    if shape[1:] not in ((JOINT_COUNT, 3), (JOINT_COUNT * 3,)) or shape[0] < 0:
        raise DataError(
            f"incompatible motion shape {shape}; expected (F, {JOINT_COUNT}, 3) or (F, {JOINT_COUNT * 3})"
        )
    dtype = np.dtype(descr)
    count = math.prod(shape)
    nbytes = count * dtype.itemsize
    payload = data[header_end:]
    if len(payload) < nbytes:
        raise DataError("truncated NPY payload")
    arr = np.frombuffer(payload[:nbytes], dtype=dtype).reshape(shape)
    positions = arr.astype(np.float64).reshape(shape[0], JOINT_COUNT, 3)
    return JointTrajectory(positions=positions, frame_rate=frame_rate)


# ---------------------------------------------------------------------------
# Prompt catalogs and variant generation

_SUBJECT_PHRASE = {
    "man": "a man",
    "woman": "a woman",
    "young": "a young person",
    "elderly": "an elderly person",
}

_PLACEMENT_CLAUSE = {
    "left_wrist": "The sensor is worn on the left wrist.",
    "right_wrist": "The sensor is worn on the right wrist.",
    "waist": "The sensor is worn on the waist.",
}

VARIANT_TAGS = ("neutral", *_SUBJECT_PHRASE, *_PLACEMENT_CLAUSE)

_SUBJECT_RE = re.compile(
    r"^(a|an)\s+(?:(?:elderly|old|young)\s+)?(?:person|man|woman|child|lady|gentleman)\b",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class PromptCatalog:
    """Ordered, unique base prompts."""

    base_prompts: tuple[str, ...]

    def __post_init__(self):
        prompts = tuple(self.base_prompts)
        if len(set(prompts)) != len(prompts):
            raise DataError("base prompts must be unique")
        if not prompts:
            raise DataError("prompt catalog is empty")
        object.__setattr__(self, "base_prompts", prompts)

    def __len__(self) -> int:
        return len(self.base_prompts)


def load_prompt_catalog(source: str | Path | None = None) -> PromptCatalog:
    """Load a prompt catalog (one prompt per line); None loads the bundled one."""
    if source is None:
        text = (resources.files("synthfall.data") / "base_prompts.txt").read_text("utf-8")
    else:
        path = Path(source)
        try:
            text = read_file(path, "prompt file").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"prompt file is not UTF-8 text: {path}") from None
    prompts = tuple(line.strip() for line in text.splitlines() if line.strip())
    return PromptCatalog(base_prompts=prompts)


def _rewrite_prompt(prompt: str, tag: str) -> str:
    if tag == "neutral":
        return prompt
    if tag in _PLACEMENT_CLAUSE:
        return prompt.rstrip() + " " + _PLACEMENT_CLAUSE[tag]
    phrase = _SUBJECT_PHRASE[tag]
    m = _SUBJECT_RE.match(prompt)
    if m:
        replacement = phrase[0].upper() + phrase[1:] if prompt[0].isupper() else phrase
        rewritten = replacement + prompt[m.end():]
        if rewritten != prompt:
            return rewritten
    # No rewritable subject phrase, or the rewrite is a no-op: append a
    # descriptor so every (prompt, tag) pair stays distinct.
    return prompt.rstrip() + f" The subject is {phrase}."


def generate_prompt_variants(catalog: PromptCatalog, variants) -> list[str]:
    """Expand base prompts by the selected variant tags, base-major order.

    Output size is exactly ``len(catalog) * len(variants)``.  Demographic tags
    substitute the subject noun phrase; placement tags append a sensor clause;
    ``neutral`` emits the base prompt verbatim.  The rewrite templates are a
    toolkit convention.
    """
    tags = list(dict.fromkeys(variants))
    if not tags:
        raise ConfigError("no variant tags given")
    unknown = [t for t in tags if t not in VARIANT_TAGS]
    if unknown:
        raise ConfigError(f"unknown variant tags: {unknown}")
    ordered = [t for t in VARIANT_TAGS if t in tags]
    return [_rewrite_prompt(p, tag) for p in catalog.base_prompts for tag in ordered]


# ---------------------------------------------------------------------------
# Files, checked JSON and dataset manifests

_ACTIVITY_FROM_STR = {"adl": ActivityLabel.ADL, "fall": ActivityLabel.FALL}
# Errors for which ``Path.is_file`` answers False rather than raising.
_NOT_FOUND_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})

_MANIFEST_ENTRY = {
    "subject": str,
    "activity": Literal[tuple(_ACTIVITY_FROM_STR)],
    "path": str,
    "rate_hz": float,
    "placement": Literal[tuple(p.value for p in SensorPlacement)],
    "provenance": Literal[tuple(p.value for p in Provenance)],
}


@dataclass(frozen=True)
class CatalogEntry:
    subject_id: str
    activity: ActivityLabel
    path: Path
    sampling_rate: float
    placement: SensorPlacement
    provenance: Provenance


@dataclass(frozen=True)
class DatasetCatalog:
    """Validated view of a manifest: one entry per recording file."""

    entries: tuple[CatalogEntry, ...]

    def subjects(self) -> tuple[str, ...]:
        return tuple(sorted({e.subject_id for e in self.entries}))

    def activity_histogram(self) -> dict[str, int]:
        hist = {"adl": 0, "fall": 0}
        for e in self.entries:
            hist["fall" if e.activity == ActivityLabel.FALL else "adl"] += 1
        return hist

    def __len__(self) -> int:
        return len(self.entries)


def read_file(path: str | Path, what: str, error=DataError) -> bytes:
    """The bytes of the ``what`` file at ``path``; ``error`` naming the path if it cannot be read."""
    path = Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, no permission, a name too long
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None


def write_file(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``; DataError naming the path if it cannot be."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def write_files(files) -> None:
    """Write each ``(path, data)`` pair in order.  If a write fails, remove
    the files this call already wrote, then raise that write's DataError, so
    a failed call leaves no partial set of outputs behind."""
    written = []
    try:
        for path, data in files:
            write_file(path, data)
            written.append(Path(path))
    except DataError:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def ensure_output_dir(out_dir: str | Path) -> Path:
    """``out_dir`` as a directory, created if missing; DataError if it cannot be."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    return out_dir


def read_json(path: str | Path, what: str, error):
    """The decoded JSON file at ``path``; ``error`` if it cannot be read or is not JSON."""
    try:
        return json.loads(read_file(path, what, error).decode("utf-8"))
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def _fits(value, hint) -> bool:
    """Whether a decoded value can fill a field annotated ``hint``.

    Booleans are not numbers here, floats must be finite, and a ``Literal``
    matches only a value of the same type, so ``True`` never matches ``1``.
    """
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        try:
            return (_fits(value, int) or isinstance(value, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    if hint in (str, bool, dict, type(None)):
        return isinstance(value, hint)
    args = get_args(hint)
    if get_origin(hint) is Literal:
        return any(type(value) is type(arg) and value == arg for arg in args)
    if get_origin(hint) is dict:
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    return any(_fits(value, arg) for arg in args)


def _expected(hint) -> str:
    if hint is float:  # ints fit too, and inf and nan do not
        return "a finite number"
    if get_origin(hint) is Literal:
        return "one of " + ", ".join(map(repr, get_args(hint)))
    return str(hint) if get_args(hint) else hint.__name__


def _checked(cls, d, what: str, error, **hint_overrides) -> dict:
    """The object ``d``, checked against the fields of ``cls``.

    ``cls`` is a dataclass, whose fields without a default are required, or
    a ``{key: hint}`` layout whose keys all are; ``hint_overrides`` replace
    hints or add optional keys.  Anything but an object, an unknown or
    missing key, or a value that does not fit its hint raises ``error``.
    Lists come back as tuples.
    """
    if not isinstance(d, dict):
        raise error(f"{what} must be an object, got {type(d).__name__}")
    if isinstance(cls, dict):
        hints, required = dict(cls), list(cls)
    else:
        hints = get_type_hints(cls)
        required = [f.name for f in fields(cls) if f.default is MISSING]
    hints.update(hint_overrides)
    unknown = set(d) - set(hints)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(map(str, unknown))}")
    missing = [name for name in required if name not in d]
    if missing:
        raise error(f"{what} requires {', '.join(missing)}")
    for name, value in d.items():
        if not _fits(value, hints[name]):
            raise error(f"{what} field {name} must be {_expected(hints[name])}, got {value!r}")
    return {name: tuple(v) if isinstance(v, list) else v for name, v in d.items()}


def catalog_dataset(manifest_path: str | Path) -> DatasetCatalog:
    """Load and validate a JSON manifest into a DatasetCatalog.

    The manifest is a JSON array of objects with exactly the keys subject,
    activity ("adl"|"fall"), path (relative paths resolve against the
    manifest's directory), rate_hz (a finite positive number), placement and
    provenance ("real"|"synthetic").
    """
    manifest_path = Path(manifest_path)
    raw = read_json(manifest_path, "manifest", DataError)
    if not isinstance(raw, list):
        raise DataError("manifest must be a JSON array of entries")
    root = manifest_path.parent
    entries: list[CatalogEntry] = []
    seen: dict[tuple[int, int], tuple[int, Path]] = {}
    for i, item in enumerate(raw):
        where = f"manifest entry {i}"
        item = _checked(_MANIFEST_ENTRY, item, where, DataError)
        if not item["subject"]:
            raise DataError(f"{where}: subject must be a non-empty string")
        if not item["rate_hz"] > 0:
            raise DataError(f"{where}: rate_hz must be a positive number")
        path = Path(item["path"])
        if not path.is_absolute():
            path = root / path
        try:
            st = path.stat()
            found = stat.S_ISREG(st.st_mode)
        except ValueError:  # a NUL byte in the path
            found = False
        except OSError as exc:
            if exc.errno not in _NOT_FOUND_ERRNOS:  # e.g. a name too long for the file system
                raise DataError(f"{where}: cannot read {path}: {exc.strerror}") from None
            found = False
        if not found:
            raise DataError(f"{where}: file not found: {path}")
        # A file spelled two ways (``..``, a symlink, a hard link) has one identity.
        key = (st.st_dev, st.st_ino)
        if key in seen:
            j, first = seen[key]
            raise DataError(f"{where}: duplicate file entry {path}, the file of manifest entry {j} ({first})")
        seen[key] = (i, path)
        entries.append(
            CatalogEntry(
                subject_id=item["subject"],
                activity=_ACTIVITY_FROM_STR[item["activity"]],
                path=path,
                sampling_rate=float(item["rate_hz"]),
                placement=SensorPlacement(item["placement"]),
                provenance=Provenance(item["provenance"]),
            )
        )
    return DatasetCatalog(entries=tuple(entries))


def load_entry(entry: CatalogEntry, data: bytes | None = None) -> AccelSeries:
    """Read one cataloged file as an AccelSeries with the manifest's metadata;
    ``data``, when given, is the file's bytes, already read."""
    return read_accel_csv(
        read_file(entry.path, "recording") if data is None else data,
        sampling_rate=entry.sampling_rate,
        label=entry.activity,
        provenance=entry.provenance,
        subject_id=entry.subject_id,
    )
