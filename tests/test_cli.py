import dataclasses
import multiprocessing
import os
import shutil
import signal
from collections import Counter
from pathlib import Path

import pytest

import synth
from codemix import cli, models
from codemix.corpus import Dataset, LangTag, Sentiment, format_conll, parse_conll
from codemix.evaluation import score
from codemix.models import LinearModel, ModelKind, TrainConfig
from codemix.preprocess import PipelineConfig
from codemix.vectorize import DEFAULT_CHAR_ANALYZER, DEFAULT_WORD_ANALYZER, DocMode, load_tfidf

import numpy as np


DATA = Path(__file__).parent / "data"
AUX_CSV = "text,label\nestupendo fantastico,positive\nfatal horrible,negative\nnormal dia,neutral\n"


def write_corpus(path, dataset):
    path.write_text(format_conll(dataset), encoding="utf-8")


def write_config(path, train, dev=None, out_dir="out", extra=""):
    dev_line = f"dev = {dev}\n" if dev else ""
    path.write_text(
        f"[data]\ntrain = {train}\n{dev_line}\n[output]\ndir = {out_dir}\n{extra}",
        encoding="utf-8",
    )


FORKS = "fork" in multiprocessing.get_all_start_methods()


def record_calls(monkeypatch, module, name, log, describe):
    """Replace module.name with a wrapper that appends describe(*args, **kwargs) to the file log, one line
    per call, so that calls made in a grid's forked child are recorded too."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{describe(*args, **kwargs)}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def recorded(log):
    """The lines record_calls appended to log, sorted: two processes' calls interleave."""
    return sorted(log.read_text(encoding="utf-8").splitlines()) if log.exists() else []


@pytest.fixture()
def workspace(tmp_path):
    train = synth.synthetic_dataset("train", 90, seed=101)
    dev = synth.synthetic_dataset("dev", 30, seed=202, id_offset=10_000)
    write_corpus(tmp_path / "train.txt", train)
    write_corpus(tmp_path / "dev.txt", dev)
    write_config(
        tmp_path / "cfg.ini",
        train=tmp_path / "train.txt",
        dev=tmp_path / "dev.txt",
        out_dir=tmp_path / "out",
    )
    return tmp_path


def run(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# manifest.txt of `train --data.train train.txt` run inside the workspace with every other setting
# at its default: pins the manifest layout, each default's text and the config hash.
GOLDEN_DEFAULT_MANIFEST = """\
manifest v1
config_sha256=458eef45ec14f58ede3780dd0996dc56fee53c87e0f88882d69423bcc769aabf
run.char_vocab_size=1959
run.dimension=1999
run.doc_mode=all_documents
run.model=svm
run.n_train_tweets=90
run.seed=0
run.word_vocab_size=40
config.data.aux_csv=
config.data.aux_label_column=label
config.data.aux_lang=lang1
config.data.aux_text_column=text
config.data.dev=
config.data.lexicon=
config.data.train=train.txt
config.output.dir=out
config.preprocess.collapse_elongation=true
config.preprocess.elongation_min_run=3
config.preprocess.remove_mentions=true
config.preprocess.remove_non_ascii=true
config.preprocess.replace_emoji=true
config.preprocess.replace_urls=true
config.preprocess.segment_hashtags=true
config.train.batch_size=32
config.train.epochs=50
config.train.l2_lambda=0.0001
config.train.learning_rate=
config.train.mnb_alpha=1.0
config.train.model=svm
config.train.seed=0
config.vectorize.char_ngram_max=5
config.vectorize.char_ngram_min=2
config.vectorize.doc_mode=all_documents
config.vectorize.word_ngram_max=1
config.vectorize.word_ngram_min=1
"""

# (command, flags, stderr): each flag set is one bad setting, refused before any work with exit 2.
BAD_SETTINGS = [
    ("train", ["--train.learning_rate", ""], "invalid value '' for train.learning_rate"),
    ("train", ["--data.aux_lang", "lang3"], "data.aux_lang must be lang1 or lang2, got 'lang3'"),
    ("train", ["--train.model", "xx"], "unknown model kind 'xx'"),
    ("train", ["--train.epochs", "0"], "epochs must be >= 1"),
    ("preprocess", ["--train.epochs", "0"], "epochs must be >= 1"),
    ("train", ["--vectorize.doc_mode", "nope"], "unknown doc mode 'nope'"),
    (
        "train",
        ["--vectorize.char_ngram_min", "6", "--vectorize.char_ngram_max", "3"],
        "analyzer n-gram range must satisfy 1 <= min <= max <= 8",
    ),
    ("train", ["--preprocess.replace_emoji", "maybe"], "invalid value 'maybe' for preprocess.replace_emoji"),
    ("train", ["--train.model", "mnb", "--train.mnb_alpha", "nan"], "mnb_alpha must be finite and > 0"),
    ("train", ["--train.model", "mnb", "--train.mnb_alpha", "inf"], "mnb_alpha must be finite and > 0"),
    ("train", ["--train.l2_lambda", "nan"], "l2_lambda must be finite and >= 0"),
    ("train", ["--train.l2_lambda", "inf"], "l2_lambda must be finite and >= 0"),
    ("train", ["--train.learning_rate", "nan"], "learning_rate must be finite and > 0"),
    ("train", ["--train.learning_rate", "inf"], "learning_rate must be finite and > 0"),
    ("train", ["--train.model", "lr", "--train.seed", "-1"], "seed must be >= 0"),
    ("train", ["--train.model", "svm", "--train.seed", "-1"], "seed must be >= 0"),
    ("train", ["--train.model", "mnb", "--train.seed", "-1"], "seed must be >= 0"),
    (
        "train",
        ["--preprocess.elongation_min_run", "5000000000"],
        "elongation_min_run must be between 2 and 4294967295",
    ),
]


class TestTrain:
    def test_writes_artifacts_and_manifest(self, workspace, capsys):
        code, out, err = run(["train", "--config", workspace / "cfg.ini"], capsys)
        assert code == 0, err
        out_dir = workspace / "out"
        assert (out_dir / "tfidf.txt").is_file()
        assert (out_dir / "model.txt").is_file()
        manifest = (out_dir / "manifest.txt").read_text(encoding="utf-8")
        assert manifest.startswith("manifest v1\nconfig_sha256=")
        assert "run.model=svm\n" in manifest
        assert "run.n_train_tweets=90\n" in manifest
        assert "run.seed=0\n" in manifest

    def test_manifest_records_mnb(self, workspace, capsys):
        code, _, _ = run(
            ["train", "--config", workspace / "cfg.ini", "--train.model", "mnb"], capsys
        )
        assert code == 0
        manifest = (workspace / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "run.model=mnb\n" in manifest
        assert "config.train.model=mnb\n" in manifest

    def test_rerun_is_byte_identical(self, workspace, capsys):
        args = ["train", "--config", workspace / "cfg.ini"]
        assert run(args, capsys)[0] == 0
        out_dir = workspace / "out"
        first = {name: (out_dir / name).read_bytes() for name in ("tfidf.txt", "model.txt", "manifest.txt")}
        assert run(args, capsys)[0] == 0
        second = {name: (out_dir / name).read_bytes() for name in ("tfidf.txt", "model.txt", "manifest.txt")}
        assert first == second

    def test_schema_defaults_are_the_dataclass_defaults(self):
        config = cli._build_run_config({})
        assert (config.train, config.pipeline) == (TrainConfig(), PipelineConfig())
        assert (config.word_analyzer, config.char_analyzer) == (DEFAULT_WORD_ANALYZER, DEFAULT_CHAR_ANALYZER)
        assert config.values["vectorize.doc_mode"] is DocMode.ALL_DOCUMENTS

    def test_a_text_that_does_not_settle_writes_nothing(self, workspace, capsys):
        (workspace / "lexicon.tsv").write_text(RUNAWAY_LEXICONS[0][0], encoding="utf-8")
        write_corpus(workspace / "train.txt", Dataset("train", (synth.make_tweet("1", ["URL"], Sentiment.POSITIVE),)))
        args = ["train", "--config", workspace / "cfg.ini", "--data.lexicon", workspace / "lexicon.tsv"]
        assert run(args, capsys) == (2, "", f"config error: {RUNAWAY_MESSAGE % 'URL'}\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("mode", [mode.value for mode in DocMode])
    def test_an_unlabeled_tweet_is_refused_before_any_work(self, workspace, capsys, monkeypatch, mode):
        train = synth.synthetic_dataset("train", 90, seed=101)
        tweets = train.tweets[:-1] + (dataclasses.replace(train.tweets[-1], sentiment=None),)
        write_corpus(workspace / "train.txt", Dataset("train", tweets))
        monkeypatch.setattr(cli, "run_pipeline", lambda *args: pytest.fail("a tweet was preprocessed"))
        code, out, err = run(["train", "--config", workspace / "cfg.ini", "--vectorize.doc_mode", mode], capsys)
        assert (code, out, err) == (3, "", f"data error: tweet {tweets[-1].id!r} has no sentiment label\n")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_a_setting_of_more_than_one_line_is_config_error(self, workspace, capsys, monkeypatch, source):
        # configparser joins an indented line to the value above it; the manifest could not record that value.
        monkeypatch.chdir(workspace)
        write_config(workspace / "multi.ini", train="train.txt", out_dir="o1", extra="  extra\n")
        args = ["--config", "multi.ini"] if source == "config" else ["--data.train", "train.txt", "--output.dir", "o1\nextra"]
        before = sorted(workspace.iterdir())
        assert run(["train", *args], capsys) == (2, "", "config error: output.dir must fit on one line, got 'o1\\nextra'\n")
        assert sorted(workspace.iterdir()) == before

    def test_default_manifest_matches_golden(self, workspace, capsys, monkeypatch):
        monkeypatch.chdir(workspace)
        assert run(["train", "--data.train", "train.txt"], capsys)[0] == 0
        assert (workspace / "out" / "manifest.txt").read_text(encoding="utf-8") == GOLDEN_DEFAULT_MANIFEST

    @pytest.mark.parametrize(
        "command, flags, message", BAD_SETTINGS, ids=[f"{c} {' '.join(f)}" for c, f, _ in BAD_SETTINGS]
    )
    def test_bad_setting_is_config_error(self, workspace, capsys, command, flags, message):
        source = ["--config", workspace / "cfg.ini"] if command == "train" else ["--data", workspace / "dev.txt"]
        code, out, err = run([command, *source, *flags], capsys)
        assert (code, out, err) == (2, "", f"config error: {message}\n")
        assert not (workspace / "out").exists()

    def test_non_finite_mnb_parameters_are_numeric_error(self, workspace, capsys):
        flags = ["--train.model", "mnb", "--train.mnb_alpha", "1e308"]
        code, out, err = run(["train", "--config", workspace / "cfg.ini", *flags], capsys)
        message = "naive Bayes log-likelihoods are not finite with mnb_alpha 1e+308"
        assert (code, out, err) == (4, "", f"numeric error: {message}\n")
        assert not (workspace / "out").exists()

    def test_overflowing_weight_norm_after_the_last_step_is_no_error(self, workspace, capsys):
        # Only ||V||^2 overflows, in the last step, after the last loss check; the weights stay finite
        # (max |W| about 2.6e306), so train exits 0.  pyproject.toml turns any numpy RuntimeWarning into
        # an error, and parse_model refuses non-finite parameters, so eval also shows the weights finite.
        flags = ["--train.learning_rate", "1e308", "--train.epochs", "1", "--train.batch_size", "1000"]
        code, out, err = run(["train", "--config", workspace / "cfg.ini", *flags], capsys)
        assert (code, err) == (0, "")
        code, out, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert (code, err) == (0, "")
        assert "metric.macro_f1=" in out

    def test_missing_train_path_is_config_error(self, workspace, capsys):
        code, _, err = run(
            ["train", "--data.train", workspace / "nope.txt", "--output.dir", workspace / "out"],
            capsys,
        )
        assert code == 2
        assert "config error" in err

    def test_flag_overrides_config_file(self, workspace, capsys):
        code, _, _ = run(
            ["train", "--config", workspace / "cfg.ini", "--train.seed", "9"], capsys
        )
        assert code == 0
        manifest = (workspace / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "run.seed=9\n" in manifest

    def test_seed_comes_from_the_config_not_the_environment(self, workspace, capsys, monkeypatch):
        # The environment sets no setting: CODEMIX_SEED, which once overrode even --train.seed, is ignored.
        monkeypatch.setenv("CODEMIX_SEED", "777")
        extra = "[train]\nseed = 5\n"
        write_config(workspace / "seed.ini", train=workspace / "train.txt", out_dir=workspace / "out", extra=extra)
        code, _, _ = run(["train", "--config", workspace / "seed.ini"], capsys)
        assert code == 0
        manifest = (workspace / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "run.seed=5\n" in manifest

    def test_unknown_config_key_rejected(self, workspace, capsys):
        cfg = workspace / "bad.ini"
        cfg.write_text("[data]\ntrain = x\nbanana = 1\n", encoding="utf-8")
        code, _, err = run(["train", "--config", cfg], capsys)
        assert code == 2
        assert "banana" in err

    def test_unknown_config_section_rejected(self, workspace, capsys):
        cfg = workspace / "bad.ini"
        cfg.write_text("[wat]\nx = 1\n", encoding="utf-8")
        code, _, err = run(["train", "--config", cfg], capsys)
        assert code == 2
        assert "wat" in err

    @pytest.mark.parametrize("extra", ["seed = 3\n", ""])
    def test_default_config_section_rejected(self, workspace, capsys, extra):
        cfg = workspace / "bad.ini"
        cfg.write_text(f"[DEFAULT]\n{extra}[data]\ntrain = x\n", encoding="utf-8")
        code, _, err = run(["train", "--config", cfg], capsys)
        assert (code, err) == (2, "config error: unknown config section [DEFAULT]\n")

    def test_aux_csv_rows_are_appended(self, workspace, capsys):
        csv_path = workspace / "aux.csv"
        csv_path.write_text(AUX_CSV, encoding="utf-8")
        code, _, _ = run(
            ["train", "--config", workspace / "cfg.ini", "--data.aux_csv", csv_path], capsys
        )
        assert code == 0
        manifest = (workspace / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "run.n_train_tweets=93\n" in manifest

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "bare_cr"])
    def test_aux_csv_line_ends_read_as_line_feeds(self, workspace, capsys, line_end):
        for name, text in (("lf", AUX_CSV), ("other", AUX_CSV.replace("\n", line_end))):
            (workspace / "aux.csv").write_text(text, encoding="utf-8", newline="")
            flags = ["--data.aux_csv", workspace / "aux.csv", "--output.dir", workspace / name]
            assert run(["train", "--config", workspace / "cfg.ini", *flags], capsys)[0] == 0
        for name in ("tfidf.txt", "model.txt"):
            assert (workspace / "lf" / name).read_bytes() == (workspace / "other" / name).read_bytes()

    def test_aux_csv_field_over_the_csv_limit_is_data_error(self, workspace, capsys):
        (workspace / "aux.csv").write_text(f"text,label\n{'a' * 200_000},positive\n", encoding="utf-8")
        code, out, err = run(["train", "--config", workspace / "cfg.ini", "--data.aux_csv", workspace / "aux.csv"], capsys)
        assert (code, out, err) == (3, "", "data error: CSV line 2: field larger than field limit (131072)\n")
        assert not (workspace / "out").exists()

    def test_retrain_stopped_after_the_model_leaves_no_manifest(self, workspace, capsys, monkeypatch):
        # The old manifest would describe the new artifacts: eval would load them under the old config.
        assert run(["train", "--config", workspace / "cfg.ini", "--train.epochs", "2"], capsys)[0] == 0
        save_model = cli.save_model

        def save_then_stop(*args):
            save_model(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_model", save_then_stop)
        with pytest.raises(KeyboardInterrupt):
            run(["train", "--config", workspace / "cfg.ini", "--train.epochs", "9", "--train.seed", "5"], capsys)
        out_dir = workspace / "out"
        assert sorted(path.name for path in out_dir.iterdir()) == ["model.txt", "tfidf.txt"]
        for command in (["eval"], ["predict", "--out", workspace / "pred.tsv"]):
            code, out, err = run([*command, "--model-dir", out_dir, "--data", workspace / "dev.txt"], capsys)
            assert (code, out, err) == (2, "", f"config error: manifest does not exist: {out_dir / 'manifest.txt'}\n")

    def test_padded_settings_train_as_unpadded(self, workspace, capsys):
        (workspace / "aux.csv").write_text(AUX_CSV, encoding="utf-8")
        base = ["train", "--config", workspace / "cfg.ini", "--data.aux_csv", workspace / "aux.csv"]
        out_dir = workspace / "out"
        artifacts = []
        for pad in ("", " "):
            flags = ["--train.model", f"{pad}mnb{pad}", "--vectorize.doc_mode", f"{pad}per_class_concatenated"]
            code, _, err = run([*base, *flags, "--data.aux_label_column", f"label{pad}"], capsys)
            assert code == 0, err
            artifacts.append([(out_dir / name).read_bytes() for name in ("tfidf.txt", "model.txt", "manifest.txt")])
        assert artifacts[0] == artifacts[1]


# An appended manifest line -> the error it must raise.
MANIFEST_LINE_REFUSALS = {
    "config.train.momentum=0.9": "manifest line 37 is 'config.train.momentum=0.9', expected end of file: ",
    "config.cache.dir=x": "manifest line 37 is 'config.cache.dir=x', expected end of file: ",
    "config.train=": "manifest line 37 is 'config.train=', expected end of file: ",
    "run.bogus=1": "manifest line 37 is 'run.bogus=1', expected end of file: ",
    "garbage": "manifest line 37 is 'garbage', expected end of file: ",
    "configx.train.seed=3": "manifest line 37 is 'configx.train.seed=3', expected end of file: ",
    "run.seed=99": "manifest line 37 is 'run.seed=99', expected end of file: ",
}


class TestEvalCommand:
    def test_memorization_reaches_perfect_macro_f1(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        code, out, _ = run(
            ["eval", "--model-dir", workspace / "out", "--data", workspace / "train.txt"], capsys
        )
        assert code == 0
        assert "metric.macro_f1=1.000000" in out
        assert "confusion matrix" in out

    def test_zero_linear_model_predicts_all_negative(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        out_dir = workspace / "out"
        tfidf = load_tfidf(str(out_dir / "tfidf.txt"))
        zero = LinearModel(kind=ModelKind.SVM, weights=np.zeros((3, tfidf.dim)), bias=np.zeros(3))
        models.save_model(zero, str(out_dir / "model.txt"))
        code, out, _ = run(
            ["eval", "--model-dir", out_dir, "--data", workspace / "dev.txt"], capsys
        )
        assert code == 0
        dev = parse_conll((workspace / "dev.txt").read_text(encoding="utf-8"), name="dev")
        gold = [tweet.sentiment for tweet in dev]
        expected = score(gold, [Sentiment.NEGATIVE] * len(gold))
        assert f"metric.macro_f1={expected.macro_f1:.6f}" in out
        assert f"metric.negative.recall=1.000000" in out

    def test_dimension_mismatch_between_artifacts(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        out_dir = workspace / "out"
        zero = LinearModel(kind=ModelKind.SVM, weights=np.zeros((3, 5)), bias=np.zeros(3))
        models.save_model(zero, str(out_dir / "model.txt"))
        code, _, err = run(
            ["eval", "--model-dir", out_dir, "--data", workspace / "dev.txt"], capsys
        )
        assert code == 3
        assert "dimension" in err

    @pytest.mark.parametrize("key", ["dimension", "word_vocab_size", "char_vocab_size", "model", "doc_mode", "seed"])
    def test_manifest_run_fact_contradicting_artifacts(self, workspace, capsys, key):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert sum(line.startswith(f"run.{key}=") for line in lines) == 1
        tampered = [f"run.{key}=7" if line.startswith(f"run.{key}=") else line for line in lines]
        manifest.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        code, _, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert code == 3
        assert f"run.{key}=7" in err

    @pytest.mark.parametrize("line", list(MANIFEST_LINE_REFUSALS))
    def test_unknown_manifest_config_key_is_data_error(self, workspace, capsys, line):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        code, _, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert code == 3
        assert MANIFEST_LINE_REFUSALS[line] in err

    @pytest.mark.parametrize(
        "line, tampered",
        [
            ("config.preprocess.remove_non_ascii=true", "config.preprocess.remove_non_ascii=false"),
            ("config_sha256=", "config_sha256=0"),
        ],
    )
    def test_manifest_config_not_matching_its_hash_is_data_error(self, workspace, capsys, line, tampered):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert text.count(line) == 1
        manifest.write_text(text.replace(line, tampered), encoding="utf-8")
        code, _, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert code == 3
        assert "config_sha256" in err

    @pytest.mark.parametrize(
        "line, tampered, message",
        [
            # a repeated key is refused where it repeats, not by the config hash its second value would give
            (
                "word_ngram_min=1\n",
                "word_ngram_min=1\nconfig.train.seed=3\n",
                "line 37 is 'config.train.seed=3', expected end of file",
            ),
            ("run.n_train_tweets=90\n", "run.n_train_tweets=abc\n", "run.n_train_tweets is 'abc', not a tweet count"),
            ("manifest v1\n", "manifest v1\r\n", "line 1 is 'manifest v1\\r', expected 'manifest v1'"),
        ],
    )
    def test_manifest_refusal_names_the_line(self, workspace, capsys, line, tampered, message):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        text = manifest.read_bytes().decode("utf-8")
        assert text.count(line) == 1
        manifest.write_bytes(text.replace(line, tampered).encode("utf-8"))
        code, _, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert code == 3
        assert err.startswith(f"data error: manifest {message}")

    def test_manifest_value_that_does_not_parse_is_config_error(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("epochs=50\n", "epochs=x\n"), encoding="utf-8")
        code, _, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert (code, err) == (2, "config error: invalid value 'x' for train.epochs\n")

    @pytest.mark.parametrize("line", GOLDEN_DEFAULT_MANIFEST.splitlines())
    def test_manifest_missing_a_line_is_data_error(self, workspace, capsys, monkeypatch, line):
        monkeypatch.chdir(workspace)
        assert run(["train", "--data.train", "train.txt"], capsys)[0] == 0
        manifest = workspace / "out" / "manifest.txt"
        assert manifest.read_text(encoding="utf-8") == GOLDEN_DEFAULT_MANIFEST
        lines = GOLDEN_DEFAULT_MANIFEST.splitlines(keepends=True)
        lines.remove(line + "\n")
        manifest.write_text("".join(lines), encoding="utf-8")
        code, _, err = run(["eval", "--model-dir", "out", "--data", "dev.txt"], capsys)
        assert code == 3
        assert err.startswith("data error: manifest")

    @pytest.mark.parametrize("kind", ["mnb", "svm"])
    def test_dir_written_by_the_first_release_evaluates_as_it_did(self, capsys, kind):
        code, out, err = run(["eval", "--model-dir", DATA / f"seed_{kind}", "--data", DATA / "seed_dev.txt"], capsys)
        assert (code, err) == (0, "")
        assert out == (DATA / f"seed_{kind}.eval.txt").read_text(encoding="utf-8")

    def test_train_writes_the_first_release_bytes(self, tmp_path, capsys):
        # The MNB model has no training order to drift with. The SVM model.txt is not compared: the
        # O(nnz) SGD step changed its last bits. Manifests record output.dir, so they differ too.
        for kind, artifacts in (("mnb", ("tfidf.txt", "model.txt")), ("svm", ("tfidf.txt",))):
            args = ["train", "--data.train", DATA / "seed_corpus.txt", "--train.model", kind, "--output.dir", tmp_path / kind]
            assert run(args, capsys)[0] == 0
            for name in artifacts:
                assert (tmp_path / kind / name).read_bytes() == (DATA / f"seed_{kind}" / name).read_bytes(), (kind, name)

    def test_empty_value_of_a_key_with_a_default_keeps_the_hash(self, workspace, capsys):
        args = ["train", "--config", workspace / "cfg.ini", "--data.aux_label_column", ""]
        assert run(args, capsys)[0] == 0
        assert "config.data.aux_label_column=\n" in (workspace / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)[0] == 0

    @pytest.mark.parametrize("name, cut", [("model.txt", 2), ("model.txt", 1), ("tfidf.txt", 1)])
    def test_artifact_without_its_final_line_feed_is_data_error(self, workspace, capsys, name, cut):
        # Cutting the "\n" and the last digit of model.txt changes the positive class's bias.
        assert run(["train", "--config", workspace / "cfg.ini", "--train.epochs", "2"], capsys)[0] == 0
        path = workspace / "out" / name
        path.write_bytes(path.read_bytes()[:-cut])
        code, out, err = run(["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"], capsys)
        assert (code, out, err) == (3, "", f"data error: {name[:-4]} file does not end in a line feed\n")

    def test_unlabeled_data_is_data_error(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        unlabeled = Dataset(
            "u", (synth.make_tweet("x1", ["hola"], lang=LangTag.LANG2), synth.make_tweet("x2", ["adios"], lang=LangTag.LANG2))
        )
        write_corpus(workspace / "unlabeled.txt", unlabeled)
        code, _, err = run(
            ["eval", "--model-dir", workspace / "out", "--data", workspace / "unlabeled.txt"], capsys
        )
        assert code == 3
        assert "data error" in err


class TestPredictCommand:
    def test_predictions_one_line_per_tweet(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        out_path = workspace / "preds.tsv"
        code, _, _ = run(
            ["predict", "--model-dir", workspace / "out", "--data", workspace / "dev.txt", "--out", out_path],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        dev = parse_conll((workspace / "dev.txt").read_text(encoding="utf-8"), name="dev")
        assert len(lines) == len(dev)
        for line, tweet in zip(lines, dev):
            tweet_id, _, label = line.partition("\t")
            assert tweet_id == tweet.id
            assert label in ("negative", "neutral", "positive")

    def test_empty_dataset_gives_empty_file(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        empty = workspace / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out_path = workspace / "preds.tsv"
        code, _, _ = run(
            ["predict", "--model-dir", workspace / "out", "--data", empty, "--out", out_path], capsys
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == ""

    def test_predictions_work_on_unlabeled_data(self, workspace, capsys):
        assert run(["train", "--config", workspace / "cfg.ini"], capsys)[0] == 0
        unlabeled = Dataset("u", (synth.make_tweet("a", ["feliz", "genial"], lang=LangTag.LANG2),))
        write_corpus(workspace / "unlabeled.txt", unlabeled)
        out_path = workspace / "preds.tsv"
        code, _, _ = run(
            ["predict", "--model-dir", workspace / "out", "--data", workspace / "unlabeled.txt", "--out", out_path],
            capsys,
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("a\t")


GOLDEN_TWEETS = [
    ("1", "I love you so much , <3", "replace_emoji", "I love you so much smiley face heart"),
    ("2", "The article URL is www.example.com", "replace_urls", "The article URL is URL"),
    ("3", "Hiiiii everyone", "collapse_elongation", "Hi everyone"),
    ("4", "We need to talk #HereWeGoAgain", "segment_hashtags", "We need to talk Here We Go Again"),
]

ALL_RULES = (
    "replace_emoji",
    "remove_mentions",
    "replace_urls",
    "collapse_elongation",
    "segment_hashtags",
    "remove_non_ascii",
)


# Block files with a lone "\r": lines end only at "\n", so it stays inside its line, and each file is
# refused with the parser's own message and line number.
LONE_CR_FILES = [
    (b"meta 1\nx\tlang1\na\rb\tlang1\n", "line 3: token text may not contain tabs or newlines: 'a\\rb'"),
    (
        b"meta 1 positive\rhola\tlang2\r\rmeta 2 negative\rbye\tlang1\r",
        "line 1: malformed meta line 'meta 1 positive\\rhola\\tlang2\\r\\rmeta 2 negative\\rbye\\tlang1'",
    ),
]


# (lexicon file, tweet tokens, the one rule on or None for all six): each pass lengthens the tweet's text.
RUNAWAY_LEXICONS = [
    ("URL\ta.com b.com\n", ["URL"], None),
    ("a a\ta  ab\n b\t ::\naa:\t:abb\n", ["ab:a", "a"], "replace_emoji"),
]
RUNAWAY_MESSAGE = "normalizing %r did not settle within 8 passes; check the lexicon"


class TestPreprocessCommand:
    @pytest.mark.parametrize("content, tokens, rule", RUNAWAY_LEXICONS, ids=["url", "spaced_keys"])
    def test_a_text_that_does_not_settle_is_config_error(self, tmp_path, capsys, content, tokens, rule):
        (tmp_path / "lex.tsv").write_text(content, encoding="utf-8")
        write_corpus(tmp_path / "one.txt", Dataset("one", (synth.make_tweet("1", tokens),)))
        args = ["preprocess", "--data", tmp_path / "one.txt", "--data.lexicon", tmp_path / "lex.tsv"]
        for name in ALL_RULES if rule else ():
            args += [f"--preprocess.{name}", "true" if name == rule else "false"]
        assert run(args, capsys) == (2, "", f"config error: {RUNAWAY_MESSAGE % ' '.join(tokens)}\n")

    @pytest.mark.parametrize("content, message", LONE_CR_FILES, ids=["inside_a_token", "as_every_line_end"])
    def test_lone_carriage_return_is_refused_as_the_parser_refuses_it(self, tmp_path, capsys, content, message):
        (tmp_path / "cr.txt").write_bytes(content)
        assert run(["preprocess", "--data", tmp_path / "cr.txt"], capsys) == (3, "", f"data error: {message}\n")

    @pytest.mark.parametrize("tweet_id,text,rule,expected", GOLDEN_TWEETS)
    def test_single_rule_goldens_end_to_end(self, tmp_path, capsys, tweet_id, text, rule, expected):
        tweet = synth.make_tweet(tweet_id, text.split(), Sentiment.NEUTRAL)
        write_corpus(tmp_path / "one.txt", Dataset("one", (tweet,)))
        args = ["preprocess", "--data", tmp_path / "one.txt"]
        for name in ALL_RULES:
            args += [f"--preprocess.{name}", "true" if name == rule else "false"]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert out.rstrip("\n") == expected

    def test_full_pipeline_line_per_tweet(self, tmp_path, capsys):
        tweets = (
            synth.make_tweet("1", "@u Hiiiii #GoTeam <3 www.x.com".split()),
            synth.make_tweet("2", ["hola"], lang=LangTag.LANG2),
        )
        write_corpus(tmp_path / "two.txt", Dataset("two", tweets))
        code, out, _ = run(["preprocess", "--data", tmp_path / "two.txt"], capsys)
        assert code == 0
        assert out.splitlines() == ["Hi Go Team heart URL", "hola"]

    def test_bad_lexicon_file_is_config_error(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("broken-line-without-tab\n", encoding="utf-8")
        write_corpus(
            tmp_path / "one.txt",
            Dataset("one", (synth.make_tweet("1", ["x"]),)),
        )
        code, _, err = run(
            ["preprocess", "--data", tmp_path / "one.txt", "--data.lexicon", lex], capsys
        )
        assert code == 2
        assert "config error" in err

    def test_lexicon_lines_end_only_at_line_feeds(self, tmp_path, capsys):
        # A lone \r is part of its key, as the block parser keeps it inside its line; \r\n ends a line.
        lex = tmp_path / "lex.tsv"
        lex.write_bytes(b"a\rb\tname one\r\n:)\tsmiley\r\n")
        write_corpus(tmp_path / "one.txt", Dataset("one", (synth.make_tweet("1", ["hola", ":)"]),)))
        args = ["preprocess", "--data", tmp_path / "one.txt", "--data.lexicon", lex]
        assert run(args, capsys) == (0, "hola smiley\n", "")

    def test_comment_only_lexicon_replaces_nothing(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("# no entries\n", encoding="utf-8")
        write_corpus(tmp_path / "one.txt", Dataset("one", (synth.make_tweet("1", "mañana 😀 :) <3 hola".split()),)))
        args = ["preprocess", "--data", tmp_path / "one.txt"]
        code, out, err = run([*args, "--data.lexicon", lex], capsys)
        assert (code, err) == (0, "")
        assert out == run([*args, "--preprocess.replace_emoji", "false"], capsys)[1] == "maana :) <3 hola\n"


class TestGridCommand:
    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        yield
        assert multiprocessing.active_children() == []

    def test_runs_all_six_cells(self, workspace, capsys):
        code, out, _ = run(["grid", "--config", workspace / "cfg.ini"], capsys)
        assert code == 0
        assert "System" in out and "TF-IDF Input" in out
        for kind in ("lr", "mnb", "svm"):
            for mode in ("per_class_concatenated", "all_documents"):
                assert f"grid.{kind}.{mode}=" in out
        assert "grid.best_macro_f1=" in out
        for kind, label in (("LR", "concatenated docs per class"), ("SVM", "all documents")):
            assert any(kind in line and label in line for line in out.splitlines())

    def test_grid_requires_dev(self, tmp_path, capsys):
        train = synth.synthetic_dataset("train", 30, seed=5)
        write_corpus(tmp_path / "train.txt", train)
        write_config(tmp_path / "cfg.ini", train=tmp_path / "train.txt", out_dir=tmp_path / "out")
        code, _, err = run(["grid", "--config", tmp_path / "cfg.ini"], capsys)
        assert code == 2
        assert "data.dev" in err

    @pytest.mark.parametrize("broken, exit_code", [("unlabeled", 3), ("missing", 2)])
    def test_bad_dev_set_fails_before_any_training(self, workspace, capsys, broken, exit_code):
        dev = synth.synthetic_dataset("dev", 30, seed=202, id_offset=10_000)
        if broken == "unlabeled":
            tweets = dev.tweets[:-1] + (dataclasses.replace(dev.tweets[-1], sentiment=None),)
            write_corpus(workspace / "dev.txt", Dataset("dev", tweets))
        else:
            os.remove(workspace / "dev.txt")
        code, _, err = run(["grid", "--config", workspace / "cfg.ini"], capsys)
        assert code == exit_code, err
        assert not (workspace / "out").exists()

    EPOCHS = ["--train.epochs", "5"]

    def grid_cells(self, workspace, capsys):
        code, out, err = run(["grid", "--config", workspace / "cfg.ini", *self.EPOCHS], capsys)
        assert code == 0, err
        return dict(line.split("=") for line in out.splitlines() if line.startswith("grid.") and "best" not in line)

    def test_cells_are_byte_identical_to_standalone_train(self, workspace, capsys):
        cells = self.grid_cells(workspace, capsys)
        assert len(cells) == 6
        out_dir = workspace / "out"
        for key in cells:
            _, kind, mode = key.split(".")
            args = ["train", "--config", workspace / "cfg.ini", *self.EPOCHS, "--train.model", kind]
            code, _, err = run([*args, "--vectorize.doc_mode", mode], capsys)
            assert code == 0, err
            for name in ("tfidf.txt", "model.txt", "manifest.txt"):
                assert (out_dir / name).read_bytes() == (out_dir / "grid" / f"{kind}_{mode}" / name).read_bytes()

    def test_printed_f1_equals_eval_of_each_cell(self, workspace, capsys):
        cells = self.grid_cells(workspace, capsys)
        for key, printed in cells.items():
            _, kind, mode = key.split(".")
            cell_dir = workspace / "out" / "grid" / f"{kind}_{mode}"
            code, out, err = run(["eval", "--model-dir", cell_dir, "--data", workspace / "dev.txt"], capsys)
            assert code == 0, err
            assert f"metric.macro_f1={printed}" in out.splitlines()

    def test_preprocesses_once_and_fits_one_vectorizer_per_doc_mode(self, workspace, capsys, monkeypatch):
        # fit_tfidf serves per_class_concatenated and fit_transform all_documents.
        log = workspace / "calls.log"
        for name in ("run_pipeline", "fit_tfidf", "fit_transform"):
            record_calls(monkeypatch, cli, name, log, lambda *args, name=name, **kwargs: name)
        self.grid_cells(workspace, capsys)
        assert Counter(recorded(log)) == {"run_pipeline": 90 + 30, "fit_tfidf": 1, "fit_transform": 1}

    def test_trains_lr_and_svm_of_a_doc_mode_on_one_batch_stream(self, workspace, capsys, monkeypatch):
        log = workspace / "streams.log"
        describe = lambda X, y_idx, n_classes, configs: " ".join(cfg.model_kind.value for cfg in configs)  # noqa: E731
        record_calls(monkeypatch, models, "_gradient_descent", log, describe)
        self.grid_cells(workspace, capsys)
        assert recorded(log) == ["lr svm"] * len(DocMode)

    @pytest.mark.parametrize(
        "flags, message, cells",
        [
            # LR steps first on the shared stream and diverges in each doc mode, before any cell is written.
            (
                ["--train.learning_rate", "1e200", "--train.l2_lambda", "1e-300"],
                "lr training loss became non-finite at epoch 1",
                [],
            ),
            # MNB is fitted after the LR cell of its doc mode is written, and one mode's failure does not
            # stop the other.
            (
                ["--train.mnb_alpha", "1e308"],
                "naive Bayes log-likelihoods are not finite with mnb_alpha 1e+308",
                ["lr_all_documents", "lr_per_class_concatenated"],
            ),
        ],
    )
    def test_numeric_failure_exits_4_keeping_the_cells_written_before(self, workspace, capsys, flags, message, cells):
        code, out, err = run(["grid", "--config", workspace / "cfg.ini", *self.EPOCHS, *flags], capsys)
        assert (code, out, err) == (4, "", f"numeric error: {message}\n")
        grid_dir = workspace / "out" / "grid"
        written = sorted(path.name for path in grid_dir.iterdir()) if grid_dir.exists() else []
        assert written == cells
        for cell in cells:
            assert sorted(os.listdir(grid_dir / cell)) == ["manifest.txt", "model.txt", "tfidf.txt"]

    def test_formats_each_doc_modes_tfidf_once(self, workspace, capsys, monkeypatch):
        log = workspace / "formatted.log"
        record_calls(monkeypatch, cli, "format_tfidf", log, lambda model: model.mode.value)
        self.grid_cells(workspace, capsys)
        assert recorded(log) == sorted(mode.value for mode in DocMode)

    def grid_on_both_paths(self, workspace, capsys, monkeypatch, flags=(), out_dir="out"):
        """Per path, fork first: the grid's exit code, stdout and stderr, every file under its out_dir by
        relative path (the file's own bytes as "." when out_dir is a file), and the process each doc mode
        ran in, "parent" or "child"."""
        log = workspace / "modes.log"
        record_calls(monkeypatch, cli, "_grid_mode", log, lambda *args: f"{args[-1].value} {os.getpid()}")
        out_dir = workspace / out_dir
        results = []
        for forks in (True, False):
            if out_dir.is_dir():
                shutil.rmtree(out_dir)
            log.unlink(missing_ok=True)
            with monkeypatch.context() as patch:
                if not forks:
                    patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
                args = ["grid", "--config", workspace / "cfg.ini", "--output.dir", out_dir, *self.EPOCHS, *flags]
                outcome = run(args, capsys)
            files = {".": out_dir.read_bytes()} if out_dir.is_file() else {
                path.relative_to(out_dir).as_posix(): path.read_bytes() for path in out_dir.rglob("*") if path.is_file()
            }
            modes = dict(line.split() for line in recorded(log))
            ran_in = {mode: "parent" if int(pid) == os.getpid() else "child" for mode, pid in modes.items()}
            results.append((*outcome, files, ran_in))
        return results

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    def test_the_fork_and_in_process_paths_give_the_same_bytes(self, workspace, capsys, monkeypatch):
        forked, in_process = self.grid_on_both_paths(workspace, capsys, monkeypatch)
        assert forked[-1] == {"per_class_concatenated": "parent", "all_documents": "child"}
        assert in_process[-1] == {"per_class_concatenated": "parent", "all_documents": "parent"}
        assert forked[:-1] == in_process[:-1]
        code, out, err, files, _ = forked
        assert (code, err) == (0, "") and out.count("grid.") == 7
        assert len(files) == 3 * 6

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    @pytest.mark.parametrize(
        "flags, out_dir, code, cells",
        [
            (["--train.learning_rate", "1e200", "--train.l2_lambda", "1e-300"], "out", 4, []),
            (["--train.mnb_alpha", "1e308"], "out", 4, ["lr_all_documents", "lr_per_class_concatenated"]),
            ([], "taken", 3, []),
        ],
        ids=["lr_diverges", "mnb_alpha_1e308", "output_dir_is_a_file"],
    )
    def test_the_fork_and_in_process_paths_fail_alike(self, workspace, capsys, monkeypatch, flags, out_dir, code, cells):
        (workspace / "taken").write_text("a file\n", encoding="utf-8")
        forked, in_process = self.grid_on_both_paths(workspace, capsys, monkeypatch, flags, out_dir)
        assert forked[:-1] == in_process[:-1]
        found, out, err, files, _ = forked
        assert (found, out) == (code, "") and err.count("\n") == 1, err
        assert sorted({path.split("/")[1] for path in files if path != "."}) == cells
        assert len(files) == 3 * len(cells) + (out_dir == "taken")

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    def test_a_child_that_dies_fails_the_grid_naming_its_doc_mode(self, workspace, capsys, monkeypatch):
        parent = os.getpid()

        def dying(*args):
            if os.getpid() != parent:
                os._exit(9)
            return original(*args)

        def timed_out(signum, frame):
            raise TimeoutError("grid still waits for a child that died")

        original = cli.fit_all
        monkeypatch.setattr(cli, "fit_all", dying)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            code, out, err = run(["grid", "--config", workspace / "cfg.ini", *self.EPOCHS], capsys)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        message = "the all_documents doc mode's process exited with code 9 before it reported"
        assert (code, out, err) == (3, "", f"i/o error: {message}\n")
        assert sorted(os.listdir(workspace / "out" / "grid")) == [f"{kind.value}_per_class_concatenated" for kind in ModelKind]


def on_both_paths(monkeypatch, capsys, args, out_dir, function, in_process):
    """Per path, fork first: cli.main(args)'s exit code, stdout and stderr, every file under out_dir (made
    empty before each call) by relative path, and the process each call of cli.function ran in, "parent"
    or "child", sorted.  The fork path may use two CPUs; in_process(patch) sets up the other path.  No
    child process is left after either call."""
    log = out_dir.parent / f"{function}.log"
    record_calls(monkeypatch, cli, function, log, lambda *args, **kwargs: os.getpid())
    results = []
    for forks in (True, False):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        log.unlink(missing_ok=True)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            if not forks:
                in_process(patch)
            outcome = run(args, capsys)
        assert multiprocessing.active_children() == []
        files = {path.relative_to(out_dir).as_posix(): path.read_bytes() for path in out_dir.rglob("*") if path.is_file()}
        ran_in = sorted("parent" if int(pid) == os.getpid() else "child" for pid in recorded(log))
        results.append((*outcome, files, ran_in))
    return results


def no_fork(patch):
    patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def one_cpu(patch):
    patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def cut_last_byte(path):
    path.write_bytes(path.read_bytes()[:-1])


def tamper_run_seed(manifest):
    manifest.write_text(manifest.read_text(encoding="utf-8").replace("run.seed=0\n", "run.seed=7\n"), encoding="utf-8")


# fault -> (what it does to a workspace trained with lexicon.tsv, exit code, start of stderr), in the order eval
# and predict check for them: each fault's error wins over the ones below it.
ARTIFACT_FAULTS = {
    "manifest_cut": (
        lambda ws: cut_last_byte(ws / "out" / "manifest.txt"), 3, "data error: manifest does not end in a line feed: "
    ),
    "tfidf": (lambda ws: cut_last_byte(ws / "out" / "tfidf.txt"), 3, "data error: tfidf file does not end in a line feed\n"),
    "lexicon": (lambda ws: (ws / "lexicon.tsv").unlink(), 2, "config error: data.lexicon does not exist: "),
    "model": (lambda ws: cut_last_byte(ws / "out" / "model.txt"), 3, "data error: model file does not end in a line feed\n"),
    "dimension": (
        lambda ws: models.save_model(LinearModel(ModelKind.SVM, np.zeros((3, 5)), np.zeros(3)), str(ws / "out" / "model.txt")),
        3,
        "data error: vectorizer dimension 1999 does not match model dimension 5\n",
    ),
    "manifest": (lambda ws: tamper_run_seed(ws / "out" / "manifest.txt"), 3, "data error: manifest line 8 is 'run.seed=7'"),
}


@pytest.mark.parametrize("command", ["eval", "predict"])
class TestModelParsedInAChild:
    @pytest.fixture()
    def trained(self, workspace, capsys):
        shutil.copyfile(Path(cli.__file__).parent / "data" / "emoticons.tsv", workspace / "lexicon.tsv")
        args = ["train", "--config", workspace / "cfg.ini", "--train.epochs", "2", "--data.lexicon", workspace / "lexicon.tsv"]
        assert run(args, capsys)[0] == 0
        return workspace

    @staticmethod
    def args(workspace, command):
        args = [command, "--model-dir", workspace / "out", "--data", workspace / "dev.txt"]
        return [*args, "--out", workspace / "run" / "predictions.tsv"] if command == "predict" else args

    @pytest.mark.parametrize(
        "fault, exit_code, message",
        [
            ("missing", 2, "config error: manifest does not exist: {}\n"),
            ("cut", 3, "data error: manifest does not end in a line feed: {}\n"),
            ("epochs=x", 2, "config error: invalid value 'x' for train.epochs\n"),
        ],
        ids=["missing", "cut", "value_that_does_not_parse"],
    )
    def test_a_dir_without_its_manifest_is_refused_before_any_parse(
        self, trained, capsys, monkeypatch, command, fault, exit_code, message
    ):
        def parsed(path):
            raise AssertionError(f"{path} was parsed")

        def side_by_side(*args):
            raise AssertionError("a child process was started")

        manifest = trained / "out" / "manifest.txt"
        if fault == "missing":
            manifest.unlink()
        elif fault == "cut":
            cut_last_byte(manifest)
        else:
            manifest.write_text(manifest.read_text(encoding="utf-8").replace("epochs=2\n", "epochs=x\n"), encoding="utf-8")
        (trained / "run").mkdir()
        monkeypatch.setattr(cli, "load_tfidf", parsed)
        monkeypatch.setattr(cli, "load_model", parsed)
        monkeypatch.setattr(cli, "_side_by_side", side_by_side)
        code, out, err = run(self.args(trained, command), capsys)
        assert (code, out, err) == (exit_code, "", message.format(manifest))
        assert multiprocessing.active_children() == [] and list((trained / "run").iterdir()) == []

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    @pytest.mark.parametrize(
        "faults",
        [
            (),
            *((fault,) for fault in ARTIFACT_FAULTS),
            *[
                ("tfidf", "model"),
                ("model", "manifest"),
                ("manifest_cut", "manifest"),
                ("manifest_cut", "tfidf"),
                ("lexicon", "manifest"),
                ("lexicon", "model"),
            ],
        ],
        ids=lambda faults: "+".join(faults) or "none",
    )
    def test_the_fork_and_in_process_paths_agree(self, trained, capsys, monkeypatch, command, faults):
        for fault in faults:
            ARTIFACT_FAULTS[fault][0](trained)
        args = self.args(trained, command)
        forked, in_process = on_both_paths(monkeypatch, capsys, args, trained / "run", "load_model", no_fork)
        # A manifest that fails its read stops the command before any parse and any child. After that read the
        # model is parsed even when the vectorizer fails, and the child is joined, not killed.
        parses = ([], []) if faults[:1] == ("manifest_cut",) else (["child"], ["parent"])
        assert (forked[-1], in_process[-1]) == parses
        assert forked[:-1] == in_process[:-1]
        code, out, err, files, _ = forked
        if faults:
            _, expected_code, message = ARTIFACT_FAULTS[faults[0]]
            assert (code, out, files) == (expected_code, "", {})
            assert err.startswith(message) and err.count("\n") == 1, err
        elif command == "eval":
            assert (code, err, files) == (0, "", {}) and "metric.macro_f1=" in out
        else:
            assert (code, err, list(files)) == (0, "", ["predictions.tsv"])
            assert files["predictions.tsv"].count(b"\n") == 30

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    def test_one_cpu_parses_the_model_in_this_process_with_the_same_bytes(self, trained, capsys, monkeypatch, command):
        forked, single = on_both_paths(monkeypatch, capsys, self.args(trained, command), trained / "run", "load_model", one_cpu)
        assert (forked[-1], single[-1]) == (["child"], ["parent"])
        assert forked[:-1] == single[:-1] and forked[0] == 0

    @pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
    def test_a_child_that_dies_exits_3_naming_the_model_parse(self, trained, capsys, monkeypatch, command):
        parent = os.getpid()

        def dying(path):
            if os.getpid() != parent:
                os._exit(9)
            return original(path)

        def timed_out(signum, frame):
            raise TimeoutError(f"{command} still waits for a child that died")

        original = cli.load_model
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "load_model", dying)
        (trained / "run").mkdir()
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            code, out, err = run(self.args(trained, command), capsys)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        message = "the process parsing model.txt exited with code 9 before it reported"
        assert (code, out, err) == (3, "", f"i/o error: {message}\n")
        assert multiprocessing.active_children() == [] and list((trained / "run").iterdir()) == []


@pytest.mark.skipif(not FORKS, reason="the platform has no fork start method")
def test_a_grid_on_one_cpu_runs_both_doc_modes_in_its_own_process_with_the_same_bytes(workspace, capsys, monkeypatch):
    args = ["grid", "--config", workspace / "cfg.ini", "--train.epochs", "2", "--output.dir", workspace / "run"]
    forked, single = on_both_paths(monkeypatch, capsys, args, workspace / "run", "_grid_mode", one_cpu)
    assert (forked[-1], single[-1]) == (["child", "parent"], ["parent", "parent"])
    assert forked[:-1] == single[:-1]
    code, out, err, files, _ = forked
    assert (code, err, len(files)) == (0, "", 3 * 6) and out.count("grid.") == 7


ADVERSARIAL_INPUTS = [
    "meta\n",
    "garbage first line\n",
    "meta 1 positive\nxx\n",
    "meta 1 positive\nxx\tnotatag\n",
    "meta 1 positive\n\x00\tlang1\n\nmeta 1 positive\ny\tlang1\n",
    "meta dup positive\nx\tlang1\n\nmeta dup negative\ny\tlang1\n",
    "﻿meta 1 positive\nx\tlang1\n",
]


# (command, file that gets a non-UTF-8 byte appended): each run exits 3 with one data error line.
NON_UTF8_INPUTS = [
    ("train", "train.txt"),
    ("train", "cfg.ini"),
    ("grid", "lexicon.tsv"),
    ("eval", "dev.txt"),
    ("eval", "out/manifest.txt"),
    ("eval", "out/tfidf.txt"),
    ("eval", "out/model.txt"),
]


class TestRobustness:
    @pytest.mark.parametrize("command, name", NON_UTF8_INPUTS)
    def test_non_utf8_input_is_data_error(self, workspace, capsys, command, name):
        (workspace / "lexicon.tsv").write_text(":)\tsmiley\n", encoding="utf-8")
        if command == "eval":
            assert run(["train", "--config", workspace / "cfg.ini", "--train.epochs", "1"], capsys)[0] == 0
            args = ["eval", "--model-dir", workspace / "out", "--data", workspace / "dev.txt"]
        else:
            args = [command, "--config", workspace / "cfg.ini", "--data.lexicon", workspace / "lexicon.tsv"]
        with open(workspace / name, "ab") as handle:
            handle.write(b"\xff")
        files = {path: path.read_bytes() for path in workspace.rglob("*") if path.is_file()}
        code, out, err = run(args, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("data error: input is not UTF-8 text: ") and err.count("\n") == 1, err
        assert {path: path.read_bytes() for path in workspace.rglob("*") if path.is_file()} == files

    @pytest.mark.parametrize("content", ADVERSARIAL_INPUTS)
    def test_adversarial_blocks_give_structured_errors(self, tmp_path, capsys, content):
        data = tmp_path / "fuzz.txt"
        data.write_text(content, encoding="utf-8")
        code, _, err = run(
            ["train", "--data.train", data, "--output.dir", tmp_path / "out"], capsys
        )
        assert code in (2, 3, 4)
        assert err.strip()

    def test_random_noise_files_never_crash(self, tmp_path, capsys):
        import random

        rng = random.Random(99)
        alphabet = "meta \t\nlang1positive#@\x01é💣"
        for i in range(15):
            content = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            data = tmp_path / f"noise{i}.txt"
            data.write_text(content, encoding="utf-8")
            code, _, _ = run(
                ["train", "--data.train", data, "--output.dir", tmp_path / "out"], capsys
            )
            assert code in (0, 2, 3, 4)
