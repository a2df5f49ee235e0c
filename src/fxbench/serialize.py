"""Model persistence and report/series emission.

Each format is a pair of functions over a file's bytes, none naming a path (`save_model`/
`load_model`, `emit_report_csv`/`parse_report_csv`); `emit_series_csv` has no parser.

The model file is versioned, self-describing JSON: spec fields, activation
names, normalization parameters, and every weight array with its shape and
row-major values. Floats are written with Python's repr, the shortest
decimal string that round-trips to the identical float64, so save -> load
-> save is a byte-level fixed point and weights survive exactly.

The CSV emitters write through `data._csv_bytes`, the one CSV writer, in
which a cell is the `str` of its value. Each format takes its columns
from one type: a report's `REPORT_COLUMNS` are the fields of
`TrialResult` in order, each value converted to its field's type, and a
model file's spec and norm blocks hold the fields of `ModelSpec` and
`NormParams`. Every model maps the 4 daily prices to one close, and its
file also carries that shape as `input_dim` 4 and `output_dim` 1
(`ModelSpec`'s constants): a file is the one way another shape can reach
the program, and `load_model` refuses it, naming the field. A model is
usable only with the scaling it was trained on, so a file has one form:
`save_model` always writes the norm, and `load_model` requires every key
it writes. Beyond that, `load_model` checks only what a file alone can
get wrong (its JSON, each array's declared shape and values, the norm
block's layout); `ModelSpec`, `NetworkModel` and `NormParams` refuse a
bad value as they are built, each refusal prefixed with `model file`.

A report row read back must be one `run_sweep` can write: each cell the
`str` of its value read as its field's type (so no `_` separators,
surrounding spaces, `+` signs or non-ASCII digits), an `arch` and
`hidden` that `ModelSpec` takes and its `structure`, the three MAEs all
NaN (a diverged trial) or all finite and not negative, a `seed` in
[0, 2**64), a finite, non-negative `wall_time_s`, and no (arch, hidden)
pair twice, or the read fails naming the report line and the field.
Rows come in `experiment._report_order`, the sweep plan's order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import sys
import typing

import numpy as np

from .cells import ModelSpec, NetworkModel, activation_names
from .data import NormParams, _csv_bytes, _csv_rows, _is_int, _is_real, _quoted
from .experiment import CRITERIA, EvalResult, TrialResult, _report_order, select_best

FORMAT_VERSION = 1

REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialResult))
_REPORT_TYPES = tuple(typing.get_type_hints(TrialResult)[name] for name in REPORT_COLUMNS)
_report_values = operator.attrgetter(*REPORT_COLUMNS)
_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(ModelSpec))
# the one shape of every model: ModelSpec constants, written to and checked in each file
_SHAPE = {"input_dim": ModelSpec.input_dim, "output_dim": ModelSpec.output_dim}
_NORM_TYPES = typing.get_type_hints(NormParams)  # field name -> tuple[float, ...] or float
# the keys of a model file but format_version: save_model writes each, load_model requires each
_FILE_KEYS = (*_SPEC_FIELDS, *_SHAPE, "activations", "rng_seed", "epochs_trained", "params", "norm")


def _check_trial(t: TrialResult) -> None:
    """Refuse a report row that `run_sweep` cannot write, naming its field."""
    structure = ModelSpec(t.arch, t.hidden).structure
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
        written = str(value)  # the cell emit_report_csv writes for it
        if cell != written:
            raise ValueError(f"field {name!r} must be written as {written!r}, got {_quoted(cell)}")
        values.append(value)
    return TrialResult(*values)


def _array_to_json(name: str, arr: np.ndarray) -> dict:
    flat = np.asarray(arr, dtype=float).ravel(order="C")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"array {name!r} contains non-finite values, refusing to save")
    return {"shape": list(arr.shape), "data": [float(v) for v in flat]}


def _finite_number(value, field: str) -> float:
    if not _is_real(value):
        raise ValueError(
            f"model file field {_quoted(field)} must be a finite number, got {_quoted(value)}"
        )
    return float(value)


def _norm_from_json(norm_doc) -> NormParams:
    """NormParams from a model file's norm block: an object holding each
    field, the feature bounds as lists. NormParams checks the bounds."""
    if not isinstance(norm_doc, dict):
        raise ValueError(f"'norm' must be an object, got {_quoted(norm_doc)}")
    for key, kind in _NORM_TYPES.items():
        if key not in norm_doc:
            raise ValueError(f"norm block is missing field {key!r}")
        if kind is not float and not isinstance(norm_doc[key], list):
            raise ValueError(f"field {key!r} must be a list, got {_quoted(norm_doc[key])}")
    return NormParams(**{key: norm_doc[key] for key in _NORM_TYPES})


def _array_from_json(name: str, entry) -> np.ndarray:
    """The array of a model file's params entry, in the shape it declares."""
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise ValueError(f"array {_quoted(name)} entry must have 'shape' and 'data' fields")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
        raise ValueError(
            f"array {_quoted(name)} shape must be a list of sizes, got {_quoted(shape)}"
        )
    size = math.prod(shape)
    if not isinstance(data, list) or len(data) != size:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(
            f"array {_quoted(name)} has {got} values, expected {_quoted(size)} "
            f"for shape {_quoted(tuple(shape))}"
        )
    return np.array([_finite_number(v, name) for v in data]).reshape(shape)


def save_model(model: NetworkModel, norm: NormParams) -> bytes:
    """Serialize a model and the NormParams it was trained on to JSON bytes."""
    doc = {
        "format_version": FORMAT_VERSION,
        **dataclasses.asdict(model.spec),
        **_SHAPE,
        "activations": activation_names(model.spec),
        "rng_seed": int(model.rng_seed),
        "epochs_trained": int(model.epochs_trained),
        "params": {name: _array_to_json(name, arr) for name, arr in model.params.items()},
        "norm": dataclasses.asdict(norm),
    }
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def load_model(data: bytes) -> tuple[NetworkModel, NormParams]:
    """Inverse of save_model; weights are restored bitwise. A refusal by
    ModelSpec, NetworkModel or NormParams is prefixed with `model file`."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"model file is truncated or not valid JSON: {e}") from None
    except ValueError:  # json's one plain ValueError: an int beyond the int-string limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"model file holds an integer of more than {limit} digits") from None
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model file format_version {_quoted(version)}, "
            f"this build reads {FORMAT_VERSION}"
        )
    for key in _FILE_KEYS:
        if key not in doc:
            raise ValueError(f"model file is missing required field {key!r}")
    for key, value in _SHAPE.items():
        got = doc[key]
        if not (_is_int(got) and got == value):
            must = value if _is_int(got) else "an integer"
            raise ValueError(f"model file field {key!r} must be {must}, got {_quoted(got)}")
    stored = doc["params"]
    if not isinstance(stored, dict):
        raise ValueError("model file 'params' must be an object of named arrays")
    params = {name: _array_from_json(name, entry) for name, entry in stored.items()}
    try:
        spec = ModelSpec(**{key: doc[key] for key in _SPEC_FIELDS})
        model = NetworkModel(spec, params, doc["rng_seed"], doc["epochs_trained"])
        norm = _norm_from_json(doc["norm"])
    except ValueError as e:
        raise ValueError(f"model file {e}") from None
    if doc["activations"] != activation_names(spec):
        raise ValueError(
            f"model file activations {_quoted(doc['activations'])} do not match "
            f"architecture {spec.arch!r}"
        )
    return model, norm


def emit_series_csv(result: EvalResult) -> bytes:
    """Actual-vs-predicted series as `date,actual,predicted` CSV bytes."""
    if not result.dates:
        raise ValueError("cannot emit a series for an empty evaluation result")
    dates = (date.isoformat() for date in result.dates)
    rows = zip(dates, result.actual.tolist(), result.predicted.tolist())
    return _csv_bytes(("date", "actual", "predicted"), rows)


def emit_report_csv(report: list[TrialResult]) -> bytes:
    """Sweep results as CSV bytes with the fixed report column set."""
    if not report:
        raise ValueError("cannot emit an empty report")
    # each value as its field's type: a float32 MAE or an int wall time is the str of its float
    trials = sorted(report, key=_report_order)
    rows = ([kind(v) for kind, v in zip(_REPORT_TYPES, _report_values(t))] for t in trials)
    return _csv_bytes(REPORT_COLUMNS, rows)


def parse_report_csv(data: bytes) -> list[TrialResult]:
    """Read report CSV bytes back into their trial rows (pure formatting inverse),
    refusing a row that `run_sweep` cannot write: a cell in another form
    than `emit_report_csv` gives its value (`_read_trial`), a value out of
    range (`_check_trial`) or a repeated (arch, hidden) pair."""
    rows_in = _csv_rows(data, "report line")
    _, header = next(rows_in, (None, None))
    if header is None:
        raise ValueError("report file is empty")
    if tuple(header) != REPORT_COLUMNS:
        raise ValueError(
            f"report header {tuple(header)} does not match expected {REPORT_COLUMNS}"
        )
    trials = []
    lines = {}  # (arch, hidden) -> the report line that holds it
    for line, row in rows_in:
        try:
            if len(row) != len(REPORT_COLUMNS):
                raise ValueError(f"expected {len(REPORT_COLUMNS)} fields, got {len(row)}")
            t = _read_trial(row)
            _check_trial(t)
            first = lines.setdefault((t.arch, t.hidden), line)
            if first != line:
                raise ValueError(
                    f"duplicate row for arch {t.arch!r} hidden {t.hidden}, first on line {first}"
                )
        except ValueError as e:
            raise ValueError(f"report line {line}: {e}") from None
        trials.append(t)
    if not trials:
        raise ValueError("report file has no trial rows")
    trials.sort(key=_report_order)
    return trials


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
                format(t.train_mae, ".6g"),
                format(t.val_mae, ".6g"),
                format(t.test_mae, ".6g"),
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
        for t in best.per_arch.values():  # select_best keeps arch order
            lines.append(f"  {t.arch.upper()},{t.structure},{repr(getattr(t, criterion))}")
        o = best.overall
        lines.append(f"Overall best: {o.arch.upper()},{o.structure},{repr(getattr(o, criterion))}")
    return "\n".join(lines) + "\n"
