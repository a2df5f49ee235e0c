"""Model persistence and report/series emission.

The model file is versioned, self-describing JSON: spec fields, activation
names, normalization parameters, and every weight array with its shape and
row-major values. Floats are written with Python's repr, the shortest
decimal string that round-trips to the identical float64, so save -> load
-> save is a byte-level fixed point and weights survive exactly.

CSV emitters share the same float convention; report files use the fixed
column set `pair,arch,structure,hidden,train_mae,val_mae,test_mae,seed,
wall_time_s`.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .cells import ARCHS, ModelSpec, NetworkModel, activation_names, arch_id, param_shapes
from .data import NormParams, _csv_rows
from .experiment import EvalResult, SweepReport, TrialResult, select_best

FORMAT_VERSION = 1

REPORT_COLUMNS = (
    "pair",
    "arch",
    "structure",
    "hidden",
    "train_mae",
    "val_mae",
    "test_mae",
    "seed",
    "wall_time_s",
)


def _array_to_json(name: str, arr: np.ndarray) -> dict:
    flat = np.asarray(arr, dtype=float).ravel(order="C")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"array {name!r} contains non-finite values, refusing to save")
    return {"shape": list(arr.shape), "data": [float(v) for v in flat]}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    if not _is_int(value):
        raise ValueError(f"model file field {key!r} must be an integer, got {value!r}")
    return value


def _finite_number(value, field: str) -> float:
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"model file field {field!r} must be a finite number, got {value!r}")
    return float(value)


def _norm_from_json(norm_doc, input_dim: int) -> NormParams:
    """NormParams from a model file's norm block, checked so that a bad block
    fails here with its field named, not later inside numpy."""
    if not isinstance(norm_doc, dict):
        raise ValueError(f"model file 'norm' must be an object or null, got {norm_doc!r}")
    for key in ("feature_min", "feature_max", "target_min", "target_max"):
        if key not in norm_doc:
            raise ValueError(f"model file norm block is missing field {key!r}")
    bounds = []
    for key in ("feature_min", "feature_max"):
        values = norm_doc[key]
        if not isinstance(values, list) or len(values) != input_dim:
            raise ValueError(
                f"model file field {key!r} must be a list of {input_dim} numbers "
                f"(input_dim), got {values!r}"
            )
        bounds.append(np.array([_finite_number(v, key) for v in values]))
    fmin, fmax = bounds
    tmin = _finite_number(norm_doc["target_min"], "target_min")
    tmax = _finite_number(norm_doc["target_max"], "target_max")
    if not np.all(fmax > fmin):
        raise ValueError(
            "model file field 'feature_max' must exceed 'feature_min' for every feature"
        )
    if not tmax > tmin:
        raise ValueError("model file field 'target_max' must exceed 'target_min'")
    return NormParams(feature_min=fmin, feature_max=fmax, target_min=tmin, target_max=tmax)


def _array_from_json(name: str, entry, expected_shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise ValueError(f"array {name!r} entry must have 'shape' and 'data' fields")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(_is_int(n) for n in shape):
        raise ValueError(f"array {name!r} shape must be a list of integers, got {shape!r}")
    shape = tuple(shape)
    if shape != expected_shape:
        raise ValueError(
            f"array {name!r} declares shape {shape}, expected {expected_shape}"
        )
    data = entry["data"]
    expected_len = int(np.prod(expected_shape)) if expected_shape else 1
    if not isinstance(data, list) or len(data) != expected_len:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(
            f"array {name!r} has {got} values, expected {expected_len} for shape {expected_shape}"
        )
    try:
        arr = np.asarray(data, dtype=float).reshape(expected_shape)
    except (TypeError, ValueError):
        raise ValueError(f"array {name!r} data must be a list of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"array {name!r} contains non-finite values")
    return arr


def save_model(model: NetworkModel, norm: NormParams | None = None) -> bytes:
    """Serialize a model (and optionally its NormParams) to JSON bytes."""
    spec = model.spec
    doc = {
        "format_version": FORMAT_VERSION,
        "arch": spec.arch,
        "input_dim": spec.input_dim,
        "hidden": spec.hidden,
        "output_dim": spec.output_dim,
        "window": spec.window,
        "activations": activation_names(spec),
        "rng_seed": int(model.rng_seed),
        "epochs_trained": int(model.epochs_trained),
        "params": {name: _array_to_json(name, arr) for name, arr in model.params.items()},
        "norm": None
        if norm is None
        else {
            "feature_min": [float(v) for v in norm.feature_min],
            "feature_max": [float(v) for v in norm.feature_max],
            "target_min": float(norm.target_min),
            "target_max": float(norm.target_max),
        },
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
            f"unsupported model file format_version {version!r}, this build reads {FORMAT_VERSION}"
        )
    for key in ("arch", "input_dim", "hidden", "output_dim", "window", "params"):
        if key not in doc:
            raise ValueError(f"model file is missing required field {key!r}")
    spec = ModelSpec(
        arch=doc["arch"],
        hidden=_int_field(doc, "hidden"),
        input_dim=_int_field(doc, "input_dim"),
        output_dim=_int_field(doc, "output_dim"),
        window=_int_field(doc, "window"),
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
            f"model file activations {declared_acts!r} do not match "
            f"architecture {spec.arch!r}"
        )
    model = NetworkModel(
        spec=spec,
        params=params,
        rng_seed=_int_field(doc, "rng_seed", 0),
        epochs_trained=_int_field(doc, "epochs_trained", 0),
    )
    norm_doc = doc.get("norm")
    norm = None if norm_doc is None else _norm_from_json(norm_doc, spec.input_dim)
    return model, norm


def emit_series_csv(result: EvalResult) -> bytes:
    """Actual-vs-predicted series as `date,actual,predicted` CSV bytes."""
    if result.n == 0 or not result.predictions:
        raise ValueError("cannot emit a series for an empty evaluation result")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("date", "actual", "predicted"))
    for date, actual, predicted in result.predictions:
        writer.writerow((date.isoformat(), repr(float(actual)), repr(float(predicted))))
    return buf.getvalue().encode("utf-8")


def emit_report_csv(report: SweepReport) -> bytes:
    """Sweep results as CSV bytes with the fixed report column set."""
    if not report.trials:
        raise ValueError("cannot emit an empty report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for t in sorted(report.trials, key=lambda tr: (arch_id(tr.arch), tr.hidden)):
        writer.writerow(
            (
                t.pair,
                t.arch,
                t.structure,
                t.hidden,
                repr(float(t.train_mae)),
                repr(float(t.val_mae)),
                repr(float(t.test_mae)),
                t.seed,
                repr(float(t.wall_time_s)),
            )
        )
    return buf.getvalue().encode("utf-8")


def parse_report_csv(data) -> SweepReport:
    """Read a report CSV back into a SweepReport (pure formatting inverse)."""
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
    for row in rows_in:
        if not row:
            continue
        if len(row) != len(REPORT_COLUMNS):
            raise ValueError(
                f"report line {reader.line_num}: expected {len(REPORT_COLUMNS)} fields, got {len(row)}"
            )
        try:
            pair, arch, structure = row[0], row[1], row[2]
            if arch not in ARCHS:
                raise ValueError(f"unknown arch {arch!r}")
            trials.append(
                TrialResult(
                    pair=pair,
                    arch=arch,
                    structure=structure,
                    hidden=int(row[3]),
                    train_mae=float(row[4]),
                    val_mae=float(row[5]),
                    test_mae=float(row[6]),
                    seed=int(row[7]),
                    wall_time_s=float(row[8]),
                )
            )
        except ValueError as e:
            raise ValueError(f"report line {reader.line_num}: {e}") from None
    if not trials:
        raise ValueError("report file has no trial rows")
    trials.sort(key=lambda tr: (arch_id(tr.arch), tr.hidden))
    archs = tuple(sorted({t.arch for t in trials}, key=arch_id))
    hiddens = tuple(sorted({t.hidden for t in trials}))
    return SweepReport(trials=trials, archs=archs, hiddens=hiddens)


def _fmt_mae(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return format(value, ".6g")


def render_report_table(report: SweepReport) -> str:
    """Human-readable grid with per-arch best (*) and overall best (**) marks.

    The summary block repeats the winning values exactly (shortest
    round-trip floats) so they can be quoted without loss.
    """
    if not report.trials:
        raise ValueError("cannot render an empty report")
    criterion = report.criterion
    try:
        best = select_best(report, criterion)
    except ValueError:
        best = None
    rows = []
    for t in sorted(report.trials, key=lambda tr: (arch_id(tr.arch), tr.hidden)):
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
