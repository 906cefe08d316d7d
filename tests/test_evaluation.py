import random

import pytest

import oracles
from codemix.corpus import Sentiment
from codemix.errors import DataError
from codemix.evaluation import GridRow, comparison_grid, machine_lines, render_report, score

NEG, NEU, POS = Sentiment.NEGATIVE, Sentiment.NEUTRAL, Sentiment.POSITIVE


def random_labels(rng, length):
    return [Sentiment(rng.randrange(3)) for _ in range(length)]


class TestScore:
    def test_perfect_predictor(self):
        gold = [NEG, NEU, POS, POS, NEU]
        report = score(gold, list(gold))
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0
        for metrics in report.per_class.values():
            assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_example(self):
        # confusion worked out by hand: neg perfect, neu never right,
        # pos one of two -> macro = (1 + 0 + 0.5) / 3
        gold = [NEG, NEU, POS, POS]
        pred = [NEG, POS, POS, NEU]
        report = score(gold, pred)
        assert report.macro_f1 == pytest.approx(0.5, abs=1e-15)
        assert report.per_class[NEG].f1 == 1.0
        assert report.per_class[NEU].f1 == 0.0
        assert report.per_class[POS].f1 == 0.5
        assert report.accuracy == 0.5

    def test_single_class_predictor(self):
        gold = [NEG, NEU, POS, NEU]
        pred = [NEU, NEU, NEU, NEU]
        report = score(gold, pred)
        assert report.per_class[NEU].recall == 1.0
        assert report.per_class[NEG].f1 == 0.0
        assert report.per_class[POS].f1 == 0.0

    def test_confusion_matrix_layout(self):
        report = score([NEG, POS], [POS, POS])
        assert report.confusion[int(NEG)][int(POS)] == 1
        assert report.confusion[int(POS)][int(POS)] == 1
        assert sum(map(sum, report.confusion)) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            score([NEG], [NEG, POS])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            score([], [])

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            length = rng.randint(1, 30)
            gold = random_labels(rng, length)
            pred = random_labels(rng, length)
            report = score(gold, pred)
            per_class, macro, accuracy = oracles.f1_report(gold, pred)
            assert report.macro_f1 == macro
            assert report.accuracy == accuracy
            for sentiment in Sentiment:
                precision, recall, f1 = per_class[sentiment]
                assert report.per_class[sentiment].precision == precision
                assert report.per_class[sentiment].recall == recall
                assert report.per_class[sentiment].f1 == f1

    def test_permutation_invariance(self):
        rng = random.Random(23)
        gold = random_labels(rng, 40)
        pred = random_labels(rng, 40)
        baseline = score(gold, pred)
        for _ in range(10):
            order = list(range(40))
            rng.shuffle(order)
            shuffled = score([gold[i] for i in order], [pred[i] for i in order])
            assert shuffled == baseline

    def test_metrics_stay_in_unit_interval(self):
        rng = random.Random(29)
        for _ in range(50):
            gold = random_labels(rng, rng.randint(1, 12))
            pred = [Sentiment(rng.randrange(3)) for _ in gold]
            report = score(gold, pred)
            values = [report.macro_f1, report.accuracy]
            for metrics in report.per_class.values():
                values += [metrics.precision, metrics.recall, metrics.f1]
            assert all(0.0 <= v <= 1.0 for v in values)
            trace = sum(report.confusion[c][c] for c in range(3))
            assert report.accuracy == trace / len(gold)


class TestMachineLines:
    def test_format(self):
        report = score([NEG, NEU, POS], [NEG, NEU, POS])
        lines = machine_lines(report)
        assert "metric.macro_f1=1.000000" in lines
        assert "metric.accuracy=1.000000" in lines
        assert "metric.negative.f1=1.000000" in lines
        for line in lines:
            key, _, value = line.partition("=")
            assert key.startswith("metric.")
            assert len(value.split(".")[1]) == 6  # six decimal places


class TestRenderReport:
    def test_contains_matrix_and_summary(self):
        report = score([NEG, NEU, POS], [NEG, NEU, NEU])
        text = render_report(report)
        assert "confusion matrix" in text
        assert "macro-F1" in text
        assert "negative" in text and "neutral" in text and "positive" in text


class FakeReport:
    def __init__(self, macro_f1):
        self.macro_f1 = macro_f1


class TestComparisonGrid:
    def test_rows_render_percentages(self):
        rows = [
            GridRow("SVM", "concatenated docs per class", FakeReport(0.5260)),
            GridRow("MNB", "all documents", FakeReport(0.5073)),
        ]
        text = comparison_grid(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["System", "TF-IDF", "Input", "Dev", "Avg", "F1-Score"]
        assert "52.60%" in lines[1]
        assert "50.73%" in lines[2]
        assert lines[1].startswith("SVM")

    def test_empty_rows_render_header_only(self):
        assert comparison_grid([]).splitlines() == ["System  TF-IDF Input  Dev Avg F1-Score"]
