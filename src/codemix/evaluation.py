"""Evaluation: confusion matrix, per-class precision/recall/F1, macro-F1.

The headline metric is the unweighted macro average of the three per-class
F1 scores, with the 0/0 -> 0 convention for undefined precision, recall or
F1.  Reports can be rendered for humans or as machine-readable
``metric.<name>=<value>`` lines.
"""

from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import Sentiment
from .errors import DataError

_N = len(Sentiment)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    confusion: tuple[tuple[int, ...], ...]  # confusion[gold][predicted], classes in ordinal order
    per_class: dict[Sentiment, ClassMetrics]
    macro_f1: float
    accuracy: float


def score(gold: Sequence[Sentiment], pred: Sequence[Sentiment]) -> EvalReport:
    """Score predictions against gold labels of equal, non-zero length."""
    if len(gold) != len(pred):
        raise DataError(f"got {len(pred)} predictions for {len(gold)} gold labels")
    if not gold:
        raise DataError("cannot score an empty label list")
    counts = [[0] * _N for _ in range(_N)]
    for g, p in zip(gold, pred):
        counts[int(g)][int(p)] += 1
    per_class = {}
    f1_total = 0.0
    for sentiment in Sentiment:
        c = int(sentiment)
        tp = counts[c][c]
        fp = sum(counts[g][c] for g in range(_N)) - tp
        fn = sum(counts[c][p] for p in range(_N)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[sentiment] = ClassMetrics(precision=precision, recall=recall, f1=f1)
        f1_total += f1
    accuracy = sum(counts[c][c] for c in range(_N)) / len(gold)
    return EvalReport(
        confusion=tuple(tuple(row) for row in counts),
        per_class=per_class,
        macro_f1=f1_total / _N,
        accuracy=accuracy,
    )


def machine_lines(report: EvalReport) -> list[str]:
    """Key=value lines with six decimal places, for harness consumption."""
    lines = [
        f"metric.accuracy={report.accuracy:.6f}",
        f"metric.macro_f1={report.macro_f1:.6f}",
    ]
    for sentiment in Sentiment:
        metrics = report.per_class[sentiment]
        lines.append(f"metric.{sentiment.label}.precision={metrics.precision:.6f}")
        lines.append(f"metric.{sentiment.label}.recall={metrics.recall:.6f}")
        lines.append(f"metric.{sentiment.label}.f1={metrics.f1:.6f}")
    return lines


def render_report(report: EvalReport) -> str:
    """Human-readable confusion matrix and metric table."""
    labels = [sentiment.label for sentiment in Sentiment]
    width = max(len(label) for label in labels) + 2
    lines = ["confusion matrix (rows = gold, cols = predicted):"]
    header = " " * width + "".join(f"{label:>{width}}" for label in labels)
    lines.append(header)
    for sentiment in Sentiment:
        row = report.confusion[int(sentiment)]
        cells = "".join(f"{count:>{width}}" for count in row)
        lines.append(f"{sentiment.label:>{width}}{cells}")
    lines.append("")
    lines.append(f"{'class':>{width}}{'precision':>11}{'recall':>9}{'f1':>9}")
    for sentiment in Sentiment:
        metrics = report.per_class[sentiment]
        lines.append(
            f"{sentiment.label:>{width}}{metrics.precision:>11.4f}{metrics.recall:>9.4f}{metrics.f1:>9.4f}"
        )
    lines.append("")
    lines.append(f"macro-F1: {report.macro_f1:.4f}")
    lines.append(f"accuracy: {report.accuracy:.4f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class GridRow:
    system: str
    doc_mode_label: str
    report: EvalReport


_GRID_HEADER = ("System", "TF-IDF Input", "Dev Avg F1-Score")


def comparison_grid(rows: Sequence[GridRow]) -> str:
    """Render the system comparison table, macro-F1 as a two-decimal percent."""
    table = [_GRID_HEADER] + [
        (row.system, row.doc_mode_label, f"{row.report.macro_f1 * 100:.2f}%") for row in rows
    ]
    widths = [max(len(row[col]) for row in table) for col in range(3)]
    rendered = []
    for cells in table:
        rendered.append("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip())
    return "\n".join(rendered)
