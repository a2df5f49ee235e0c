"""Model persistence and report/series emission.

The model file is versioned, self-describing JSON: spec fields, activation
names, normalization parameters, and every weight array with its shape and
row-major values. Floats are written with Python's repr, the shortest
decimal string that round-trips to the identical float64, so save -> load
-> save is a byte-level fixed point and weights survive exactly.

CSV emitters share the same float convention. Each format takes its
columns from one type: a report's `REPORT_COLUMNS` are the fields of
`TrialResult` in order, each cell converted by its field's type, and a
model file's spec and norm blocks hold the fields of `ModelSpec` and
`NormParams`. Every model maps the 4 daily prices to one close, and its
file also carries that shape as `input_dim` 4 and `output_dim` 1
(`ModelSpec`'s constants): a file is the one way another shape can reach
the program, and `load_model` refuses it, naming the field, as it refuses
a negative `rng_seed` or `epochs_trained`.

A report row read back must be one `run_sweep` can write: each cell the
`str` of its int or the `repr` of its float (so no `_` separators,
surrounding spaces, `+` signs or non-ASCII digits), `hidden` at least 1,
the `structure` `4-{hidden}-1`, the three MAEs all NaN (a diverged trial)
or all finite and not negative, a `seed` in [0, 2**64), a finite,
non-negative `wall_time_s`, and no (arch, hidden) pair twice. Otherwise
the read fails naming the report line and the field.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import operator
import typing

import numpy as np

from .cells import ARCHS, ModelSpec, NetworkModel, activation_names, arch_id, param_shapes
from .data import FEATURE_NAMES, NormParams, _csv_rows
from .experiment import CRITERIA, EvalResult, TrialResult, select_best

FORMAT_VERSION = 1
QUOTE_CHARS = 32  # an error message quotes at most this much of a file's value

REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialResult))
_REPORT_TYPES = tuple(typing.get_type_hints(TrialResult)[name] for name in REPORT_COLUMNS)
_report_values = operator.attrgetter(*REPORT_COLUMNS)
_ARCH_COLUMN = REPORT_COLUMNS.index("arch")
# ModelSpec's fields -> type, in field order; its type hints also name its constants
_SPEC_TYPES = {
    f.name: typing.get_type_hints(ModelSpec)[f.name] for f in dataclasses.fields(ModelSpec)
}
# the one shape of every model: ModelSpec constants, written to and checked in each file
_SHAPE = {"input_dim": ModelSpec.input_dim, "output_dim": ModelSpec.output_dim}
_NORM_TYPES = typing.get_type_hints(NormParams)  # field name -> tuple[float, ...] or float


def _report_order(t: TrialResult):
    """Canonical report row order: architecture, then hidden size."""
    return arch_id(t.arch), t.hidden


def _check_trial(t: TrialResult) -> None:
    """Refuse a report row that `run_sweep` cannot write, naming its field."""
    if t.hidden < 1:
        raise ValueError(f"field 'hidden' must be at least 1, got {_quoted(t.hidden)}")
    structure = f"{len(FEATURE_NAMES)}-{t.hidden}-1"
    if t.structure != structure:
        raise ValueError(
            f"field 'structure' must be {structure!r} for hidden {t.hidden}, "
            f"got {_quoted(t.structure)}"
        )
    maes = {"train_mae": t.train_mae, "val_mae": t.val_mae, "test_mae": t.test_mae}
    if not all(math.isnan(v) for v in maes.values()):  # all nan: a diverged trial
        for field, value in maes.items():
            if not 0 <= value < math.inf:  # also false for NaN
                raise ValueError(
                    f"field {field!r} must be finite and not negative "
                    f"(or all three MAEs nan), got {value!r}"
                )
    if not 0 <= t.seed < 1 << 64:
        raise ValueError(f"field 'seed' must lie in [0, 2**64), got {_quoted(t.seed)}")
    if not 0 <= t.wall_time_s < math.inf:
        raise ValueError(
            f"field 'wall_time_s' must be finite and not negative, got {t.wall_time_s!r}"
        )


def _cell(value, kind) -> str:
    """The report cell of a field value: `repr` of a float, `str` otherwise."""
    return repr(float(value)) if kind is float else str(value)


def _read_trial(row: list[str]) -> TrialResult:
    """The trial a report row holds, refusing a cell that is not the one
    `emit_report_csv` writes for its value (such as `1_0`, ` 7 `, `+8` or
    non-ASCII digits), naming its field."""
    values = []
    for name, kind, cell in zip(REPORT_COLUMNS, _REPORT_TYPES, row):
        try:
            value = kind(cell)
        except ValueError:
            raise ValueError(
                f"field {name!r} must be written as {kind.__name__}, got {_quoted(cell)}"
            ) from None
        written = _cell(value, kind)
        if cell != written:
            raise ValueError(f"field {name!r} must be written as {written!r}, got {_quoted(cell)}")
        values.append(value)
    return TrialResult(*values)


def _array_to_json(name: str, arr: np.ndarray) -> dict:
    flat = np.asarray(arr, dtype=float).ravel(order="C")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"array {name!r} contains non-finite values, refusing to save")
    return {"shape": list(arr.shape), "data": [float(v) for v in flat]}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _quoted(value) -> str:
    """repr of a value read from a model file, cut to its first
    QUOTE_CHARS characters plus its size, so an error line stays short."""
    text = repr(value)
    if len(text) <= QUOTE_CHARS:
        return text
    size = f"{len(str(abs(value)))} digits" if _is_int(value) else f"{len(text)} characters"
    return f"{text[:QUOTE_CHARS]}... ({size})"


def _int_field(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    if not _is_int(value):
        raise ValueError(f"model file field {key!r} must be an integer, got {_quoted(value)}")
    return value


def _finite_number(value, field: str) -> float:
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(
            f"model file field {field!r} must be a finite number, got {_quoted(value)}"
        )
    return float(value)


def _norm_from_json(norm_doc) -> NormParams:
    """NormParams from a model file's norm block, checked so that a bad block
    fails here with its field named, not later inside numpy."""
    if not isinstance(norm_doc, dict):
        raise ValueError(f"model file 'norm' must be an object or null, got {_quoted(norm_doc)}")
    for key in _NORM_TYPES:
        if key not in norm_doc:
            raise ValueError(f"model file norm block is missing field {key!r}")
    fields = {}
    for key, kind in _NORM_TYPES.items():
        value = norm_doc[key]
        if kind is float:
            fields[key] = _finite_number(value, key)
            continue
        if not isinstance(value, list) or len(value) != ModelSpec.input_dim:
            raise ValueError(
                f"model file field {key!r} must be a list of {ModelSpec.input_dim} numbers "
                f"(input_dim), got {_quoted(value)}"
            )
        fields[key] = tuple(_finite_number(v, key) for v in value)
    norm = NormParams(**fields)
    if not all(hi > lo for lo, hi in zip(norm.feature_min, norm.feature_max)):
        raise ValueError(
            "model file field 'feature_max' must exceed 'feature_min' for every feature"
        )
    if not norm.target_max > norm.target_min:
        raise ValueError("model file field 'target_max' must exceed 'target_min'")
    return norm


def _array_from_json(name: str, entry, expected_shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise ValueError(f"array {name!r} entry must have 'shape' and 'data' fields")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(_is_int(n) for n in shape):
        raise ValueError(f"array {name!r} shape must be a list of integers, got {_quoted(shape)}")
    shape = tuple(shape)
    if shape != expected_shape:
        raise ValueError(
            f"array {name!r} declares shape {_quoted(shape)}, expected {expected_shape}"
        )
    data = entry["data"]
    expected_len = int(np.prod(expected_shape)) if expected_shape else 1
    if not isinstance(data, list) or len(data) != expected_len:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(
            f"array {name!r} has {got} values, expected {expected_len} for shape {expected_shape}"
        )
    return np.array([_finite_number(v, name) for v in data]).reshape(expected_shape)


def save_model(model: NetworkModel, norm: NormParams | None = None) -> bytes:
    """Serialize a model (and optionally its NormParams) to JSON bytes."""
    doc = {
        "format_version": FORMAT_VERSION,
        **dataclasses.asdict(model.spec),
        **_SHAPE,
        "activations": activation_names(model.spec),
        "rng_seed": int(model.rng_seed),
        "epochs_trained": int(model.epochs_trained),
        "params": {name: _array_to_json(name, arr) for name, arr in model.params.items()},
        "norm": None
        if norm is None
        else {key: np.asarray(getattr(norm, key), dtype=float).tolist() for key in _NORM_TYPES},
    }
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def load_model(data: bytes) -> tuple[NetworkModel, NormParams | None]:
    """Inverse of save_model; weights are restored bitwise."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"model file is truncated or not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model file format_version {_quoted(version)}, "
            f"this build reads {FORMAT_VERSION}"
        )
    for key in (*_SPEC_TYPES, *_SHAPE, "params"):
        if key not in doc:
            raise ValueError(f"model file is missing required field {key!r}")
    for key, value in _SHAPE.items():
        if _int_field(doc, key) != value:
            raise ValueError(f"model file field {key!r} must be {value}, got {_quoted(doc[key])}")
    spec = ModelSpec(
        **{
            key: _int_field(doc, key) if kind is int else doc[key]
            for key, kind in _SPEC_TYPES.items()
        }
    )
    expected = param_shapes(spec)
    stored = doc["params"]
    if not isinstance(stored, dict):
        raise ValueError("model file 'params' must be an object of named arrays")
    missing = sorted(set(expected) - set(stored))
    if missing:
        raise ValueError(f"model file is missing arrays: {', '.join(missing)}")
    extra = sorted(set(stored) - set(expected))
    if extra:
        raise ValueError(f"model file has unexpected arrays: {', '.join(extra)}")
    params = {name: _array_from_json(name, stored[name], shape) for name, shape in expected.items()}
    declared_acts = doc.get("activations")
    if declared_acts is not None and declared_acts != activation_names(spec):
        raise ValueError(
            f"model file activations {_quoted(declared_acts)} do not match "
            f"architecture {spec.arch!r}"
        )
    counts = {key: _int_field(doc, key, 0) for key in ("rng_seed", "epochs_trained")}
    for key, value in counts.items():
        if value < 0:
            raise ValueError(f"model file field {key!r} must be at least 0, got {_quoted(value)}")
    model = NetworkModel(spec=spec, params=params, **counts)
    norm_doc = doc.get("norm")
    norm = None if norm_doc is None else _norm_from_json(norm_doc)
    return model, norm


def emit_series_csv(result: EvalResult) -> bytes:
    """Actual-vs-predicted series as `date,actual,predicted` CSV bytes."""
    if not result.dates:
        raise ValueError("cannot emit a series for an empty evaluation result")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("date", "actual", "predicted"))
    for date, actual, predicted in zip(
        result.dates, result.actual.tolist(), result.predicted.tolist()
    ):
        writer.writerow((date.isoformat(), repr(actual), repr(predicted)))
    return buf.getvalue().encode("utf-8")


def emit_report_csv(report: list[TrialResult]) -> bytes:
    """Sweep results as CSV bytes with the fixed report column set."""
    if not report:
        raise ValueError("cannot emit an empty report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for t in sorted(report, key=_report_order):
        writer.writerow([_cell(v, kind) for v, kind in zip(_report_values(t), _REPORT_TYPES)])
    return buf.getvalue().encode("utf-8")


def parse_report_csv(data) -> list[TrialResult]:
    """Read a report CSV back into its trial rows (pure formatting inverse),
    refusing a row that `run_sweep` cannot write: a cell in another form
    than `emit_report_csv` gives its value (`_read_trial`), a value out of
    range (`_check_trial`) or a repeated (arch, hidden) pair."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    reader = csv.reader(io.StringIO(text))
    rows_in = _csv_rows(reader, "report line")
    header = next(rows_in, None)
    if header is None:
        raise ValueError("report file is empty")
    if tuple(header) != REPORT_COLUMNS:
        raise ValueError(
            f"report header {tuple(header)} does not match expected {REPORT_COLUMNS}"
        )
    trials = []
    lines = {}  # (arch, hidden) -> the report line that holds it
    for row in rows_in:
        if not row:
            continue
        if len(row) != len(REPORT_COLUMNS):
            raise ValueError(
                f"report line {reader.line_num}: expected {len(REPORT_COLUMNS)} fields, got {len(row)}"
            )
        try:
            if row[_ARCH_COLUMN] not in ARCHS:
                raise ValueError(f"unknown arch {row[_ARCH_COLUMN]!r}")
            t = _read_trial(row)
            _check_trial(t)
            first = lines.setdefault((t.arch, t.hidden), reader.line_num)
            if first != reader.line_num:
                raise ValueError(
                    f"duplicate row for arch {t.arch!r} hidden {t.hidden}, first on line {first}"
                )
        except ValueError as e:
            raise ValueError(f"report line {reader.line_num}: {e}") from None
        trials.append(t)
    if not trials:
        raise ValueError("report file has no trial rows")
    trials.sort(key=_report_order)
    return trials


def _fmt_mae(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return format(value, ".6g")


def render_report_table(report: list[TrialResult], criterion: str) -> str:
    """Human-readable grid with per-arch best (*) and overall best (**) marks
    by `criterion` ("test_mae" or "val_mae").

    The summary block repeats the winning values exactly (shortest
    round-trip floats) so they can be quoted without loss.
    """
    if not report:
        raise ValueError("cannot render an empty report")
    try:
        best = select_best(report, criterion)
    except ValueError:
        if criterion not in CRITERIA:
            raise
        best = None  # no successful trials
    rows = []
    for t in sorted(report, key=_report_order):
        if best is not None and t == best.overall:
            mark = "**"
        elif best is not None and best.per_arch.get(t.arch) == t:
            mark = "*"
        else:
            mark = ""
        rows.append(
            (
                t.pair,
                t.arch.upper(),
                t.structure,
                str(t.hidden),
                _fmt_mae(t.train_mae),
                _fmt_mae(t.val_mae),
                _fmt_mae(t.test_mae),
                mark,
            )
        )
    header = ("pair", "arch", "structure", "hidden", "train_mae", "val_mae", "test_mae", "best")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))).rstrip(),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    lines.append("")
    if best is None:
        lines.append("No successful trials; nothing to select.")
    else:
        lines.append(f"Best per architecture (by {criterion}):")
        for arch in sorted(best.per_arch, key=arch_id):
            t = best.per_arch[arch]
            lines.append(f"  {t.arch.upper()},{t.structure},{repr(getattr(t, criterion))}")
        o = best.overall
        lines.append(f"Overall best: {o.arch.upper()},{o.structure},{repr(getattr(o, criterion))}")
    return "\n".join(lines) + "\n"
