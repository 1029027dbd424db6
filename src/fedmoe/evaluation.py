"""Local and global test protocols, per-client class ratios, and reporting.

The local test evaluates a predictor's per-class accuracy on the shared
global test set and reweights it by the client's training-set class ratios;
the global test is plain accuracy on the same set.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, EvaluationError
from .data import LabeledDataset
from .fileio import atomic_open
from .numerics.tensor import Tensor

# Maps a feature batch (B, C, S, S) to logits (B, K).
Predictor = Callable[[Tensor], Tensor]

METRICS_CSV_FIELDS = ("run_id", "algorithm", "client_id", "local_acc", "global_acc", "seed")


def class_ratios(labels: Sequence[int], classes: int) -> np.ndarray:
    """Training-set class composition: count_c / n."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size == 0:
        raise EvaluationError("class_ratios needs a nonempty label set")
    return np.bincount(y, minlength=classes) / y.size


def predict_labels(predictor: Predictor, ds: LabeledDataset, batch_size: int = 512) -> np.ndarray:
    """Argmax predictions over a dataset; ties break to the lowest class index."""
    out = np.empty(len(ds), dtype=np.int64)
    feats = ds.features.data
    for start in range(0, len(ds), batch_size):
        stop = min(start + batch_size, len(ds))
        logits = predictor(Tensor._wrap(feats[start:stop]))
        out[start:stop] = np.argmax(logits.data, axis=1)
    return out


def global_test(predictor: Predictor, test_set: LabeledDataset) -> float:
    """Fraction of argmax-correct predictions on the global test set."""
    pred = predict_labels(predictor, test_set)
    return float((pred == test_set.labels).mean())


def per_class_accuracy(predictor: Predictor, test_set: LabeledDataset) -> np.ndarray:
    """Accuracy restricted to each class's test subset; NaN for absent classes.

    Computing this once per predictor and reusing it across clients is
    bit-identical to recomputing inside every local_test call.
    """
    return per_class_accuracy_from_predictions(predict_labels(predictor, test_set), test_set)


def per_class_accuracy_from_predictions(pred: np.ndarray, test_set: LabeledDataset) -> np.ndarray:
    """Per-class accuracy of predicted labels for the test set's examples."""
    correct = np.bincount(test_set.labels[pred == test_set.labels], minlength=test_set.classes)
    counts = test_set.class_counts()
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)


def local_test_from_per_class(per_class_acc: np.ndarray, ratios: np.ndarray) -> float:
    """Weighted local test given a precomputed per-class accuracy vector."""
    ratios = np.asarray(ratios, dtype=np.float64)
    active = ratios > 0
    if np.isnan(per_class_acc[active]).any():
        missing = np.flatnonzero(active & np.isnan(per_class_acc))
        raise EvaluationError(f"classes {missing.tolist()} have training ratio > 0 but no test examples")
    # Ratios that sum to one can sum to one plus a rounding error (counts
    # 27/4/5/10 of 46 do), so a client whose classes are all predicted right
    # would score above 1.
    return min(float(np.sum(ratios[active] * per_class_acc[active])), 1.0)


def local_test(predictor: Predictor, test_set: LabeledDataset, ratios: np.ndarray) -> float:
    """Per-class accuracy on the global test set, reweighted by training ratios."""
    return local_test_from_per_class(per_class_accuracy(predictor, test_set), ratios)


@dataclass(frozen=True)
class MetricsRecord:
    run_id: str
    algorithm: str
    client_id: int | str
    local_acc: float
    global_acc: float
    seed: int
    timestamp: str = ""
    mean_gate: float | None = None

    def __post_init__(self):
        for name in ("local_acc", "global_acc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise EvaluationError(f"{name}: accuracy must lie in [0, 1], got {v}")


def write_metrics_csv(records: Iterable[MetricsRecord], path, include_mean_gate: bool = False) -> None:
    fields = METRICS_CSV_FIELDS + (("mean_g",) if include_mean_gate else ())
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for r in records:
            row = [r.run_id, r.algorithm, r.client_id, f"{r.local_acc:.10f}", f"{r.global_acc:.10f}", r.seed]
            if include_mean_gate:
                row.append("" if r.mean_gate is None else f"{r.mean_gate:.10f}")
            writer.writerow(row)


def read_metrics_csv(path) -> list[MetricsRecord]:
    """The records of a metrics CSV written by :func:`write_metrics_csv`."""
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            for column in METRICS_CSV_FIELDS:
                if column not in (reader.fieldnames or ()):
                    raise DataFormatError(f"{path} line 1: the header has no {column!r} column; "
                                          f"expected {','.join(METRICS_CSV_FIELDS)}")
            return [_metrics_record(path, reader.line_num, row) for row in reader]
    except OSError as e:
        raise ConfigError(f"cannot read metrics file {path}: {e.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataFormatError(f"{path} is not a readable CSV file: {e}") from None


def _metrics_record(path, line: int, row: dict) -> MetricsRecord:
    """One metrics CSV row, at ``line`` of ``path``."""
    def read(column: str, convert=str):
        value = row.get(column)
        if value is not None:
            try:
                return convert(value)
            except ValueError:
                pass
        raise DataFormatError(f"{path} line {line}, column {column}: cannot read {value!r}")

    if None in row:  # csv.DictReader files the values beyond the header under None
        raise DataFormatError(f"{path} line {line}: {len(row[None])} more value(s) than the header has columns")
    client_id, mean_g = read("client_id"), row.get("mean_g")
    return MetricsRecord(
        run_id=read("run_id"),
        algorithm=read("algorithm"),
        client_id=int(client_id) if client_id.isdigit() else client_id,
        local_acc=read("local_acc", float),
        global_acc=read("global_acc", float),
        seed=read("seed", int),
        mean_gate=read("mean_g", float) if mean_g else None,
    )


def write_metrics_jsonl(records: Iterable[MetricsRecord], path) -> None:
    with atomic_open(path) as f:
        for r in records:
            row = {
                "run_id": r.run_id,
                "algorithm": r.algorithm,
                "client_id": r.client_id,
                "local_acc": r.local_acc,
                "global_acc": r.global_acc,
                "seed": r.seed,
                "timestamp": r.timestamp,
            }
            if r.mean_gate is not None:
                row["mean_g"] = r.mean_gate
            f.write(json.dumps(row, sort_keys=True) + "\n")


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    clients: int
    mean_local_acc: float
    mean_global_acc: float


@dataclass(frozen=True)
class ReportSummary:
    rows: tuple[AlgorithmSummary, ...]
    # Per-client (local delta, global delta) against the fedavg baseline.
    deltas: dict[str, list[tuple[int | str, float, float]]] = field(default_factory=dict)


def summarize(records: Sequence[MetricsRecord], baseline: str = "fedavg") -> ReportSummary:
    """Per-algorithm means plus per-client accuracy deltas against a baseline."""
    by_alg: dict[str, list[MetricsRecord]] = {}
    for r in records:
        by_alg.setdefault(r.algorithm, []).append(r)
    rows = tuple(
        AlgorithmSummary(
            algorithm=alg,
            clients=len(recs),
            mean_local_acc=float(np.mean([r.local_acc for r in recs])),
            mean_global_acc=float(np.mean([r.global_acc for r in recs])),
        )
        for alg, recs in sorted(by_alg.items())
    )
    deltas: dict[str, list[tuple[int | str, float, float]]] = {}
    base = {r.client_id: r for r in by_alg.get(baseline, [])}
    if base:
        for alg, recs in sorted(by_alg.items()):
            if alg == baseline:
                continue
            rows_for_alg = [
                (r.client_id, r.local_acc - base[r.client_id].local_acc, r.global_acc - base[r.client_id].global_acc)
                for r in recs
                if r.client_id in base
            ]
            if rows_for_alg:
                deltas[alg] = rows_for_alg
    return ReportSummary(rows=rows, deltas=deltas)
