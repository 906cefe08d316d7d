"""Tests of the benchmark itself: corpus generator, checks, spans and smoke runs.

Run from the repository root: python3 -m pytest bench
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import synth_corpus  # noqa: E402
from codemix.corpus import parse_conll  # noqa: E402
from codemix.preprocess import PipelineConfig, run_pipeline  # noqa: E402
from codemix.vectorize import DocMode, fit_tfidf, prepare_documents  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normalized_text_is_what_the_program_produces(seed):
    corpus = synth_corpus.generate(seed, 600, 200)
    tweets = corpus.train + corpus.dev
    parsed = parse_conll(synth_corpus.format_blocks(tweets))
    for tweet, parsed_tweet in zip(tweets, parsed, strict=True):
        assert run_pipeline(parsed_tweet.text, PipelineConfig()) == tweet.normalized


@pytest.mark.parametrize("doc_mode", ["all_documents", "per_class_concatenated"])
def test_expected_vocab_matches_the_fitted_vocabulary(doc_mode):
    corpus = synth_corpus.generate(4, 300, 0)
    dataset = parse_conll(synth_corpus.format_blocks(corpus.train))
    texts = [run_pipeline(tweet.text, PipelineConfig()) for tweet in dataset]
    model = fit_tfidf(prepare_documents(dataset, DocMode(doc_mode), texts), DocMode(doc_mode))
    expected = synth_corpus.expected_vocab(corpus.train, doc_mode)
    assert expected == {
        "word_vocab_size": len(model.word_vocab),
        "char_vocab_size": len(model.char_vocab),
        "dimension": model.dim,
    }


def test_the_seed_alone_fixes_the_inputs():
    first = synth_corpus.format_blocks(synth_corpus.generate(7, 200, 50).train)
    again = synth_corpus.format_blocks(synth_corpus.generate(7, 200, 50).train)
    other = synth_corpus.format_blocks(synth_corpus.generate(8, 200, 50).train)
    assert first == again
    assert first != other


def test_corpus_shape():
    corpus = synth_corpus.generate(5, 3000, 0)
    counts = synth_corpus.shape(corpus.train)
    assert all(8 <= len(tweet.tokens) <= 20 for tweet in corpus.train)
    assert set(counts["tags"]) == {"lang1", "lang2", "other", "ne", "unk", "ambiguous", "mixed", "fw"}
    labels = counts["labels"]
    assert labels["positive"] > labels["neutral"] > labels["negative"]
    surfaces = [text for tweet in corpus.train for text, _ in tweet.tokens]
    assert any(text.startswith("@") for text in surfaces)
    assert any(text.startswith("#") for text in surfaces)
    assert any(text.startswith("www.") for text in surfaces)
    assert any(not text.isascii() for text in surfaces)


def test_macro_f1_and_tail():
    assert run.macro_f1([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 1.0
    # Everything predicted positive: only the positive class scores.
    assert run.macro_f1([[0, 0, 2], [0, 0, 3], [0, 0, 5]]) == pytest.approx((2 * 0.5 / 1.5) / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    percentile, value = run.tail([float(i) for i in range(40)])
    assert (percentile, value) == (75.0, 29.0)


def test_rounds_are_enough_for_the_eval_tail():
    evals = [["eval", []]] * 5
    assert run._min_rounds([], [["grid", []], *evals]) == run.MIN_EVALS // 5
    assert run._min_rounds([["grid", []], *evals], [["grid", []], *evals]) == run.MIN_EVALS // 5 - 1
    assert run._min_rounds([], [["grid", []]]) == run.MIN_ROUNDS


def test_scaling_uses_the_references_near_each_call():
    refs = [[0.0, 0.04], [10.0, 0.08], [10.5, 0.08], [20.0, 0.02]]
    # A short call between the two slow references runs at half speed.
    assert run.scaled([(10.1, 0.3)], refs) == [pytest.approx(0.3 * run.REFERENCE_SECONDS / 0.08)]
    # A 10 s call also takes the references up to 10 s before and after it.
    assert run.scaled([(10.0, 10.0)], refs) == [pytest.approx(10.0 * run.REFERENCE_SECONDS / 0.06)]
    # No reference runs during a long call: its wall time stands.
    assert run.scaled([(10.0, run.LONG_CALL_SECONDS)], refs) == [run.LONG_CALL_SECONDS]


def test_layer_metrics_use_self_time():
    spans_ = [
        {"id": 0, "name": "cli.train", "parent": None, "busy": 10.0, "attrs": {}},
        {"id": 1, "name": "models.fit", "parent": 0, "busy": 4.0, "attrs": {"kind": "svm", "epochs": 2}},
        {"id": 2, "name": "preprocess.run_pipeline", "parent": 0, "busy": 1.5,
         "attrs": {"calls": 3, "chars_in": 30, "chars_out": 20}},
        {"id": 3, "name": "vectorize.fit_tfidf", "parent": 0, "busy": 2.0,
         "attrs": {"dim": 9, "word_vocab": 4, "char_vocab": 5}},
    ]
    metrics = spans.layer_metrics(spans_)
    assert metrics["cli.self.s"] == pytest.approx(2.5)
    assert metrics["models.fit.svm.s"] == 4.0
    assert metrics["models.fit.svm.s_per_epoch"] == 2.0
    assert metrics["preprocess.calls"] == 3
    assert metrics["vectorize.dim"] == 9


def test_missing_entry_points_are_reported_absent():
    class FakeCli:
        @staticmethod
        def fit(vectors, labels, cfg):
            return "model"

    recorder = spans.Recorder()
    absent = spans.instrument(FakeCli, recorder)
    assert "fit" not in absent and "load_tfidf" in absent
    assert FakeCli.fit([], [], None) == "model"
    assert [span.name for span in recorder.spans] == ["models.fit"]


def test_benchmark_json_names_every_metric_with_its_unit():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER


@functools.cache
def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == names
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_trace_puts_each_layer_on_its_workload():
    train = smoke("train_svm", 1)["metrics"]
    scoring = smoke("score_shards", 1)["metrics"]
    assert train["models.fit.svm.s"]["value"] > 0
    assert scoring["models.fit.svm.s"]["value"] == 0
    assert scoring["vectorize.load_tfidf.s"]["value"] > 0
    assert train["vectorize.load_tfidf.s"]["value"] == 0
    assert smoke("grid_small", 1)["metrics"]["models.fit.mnb.s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_svm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
