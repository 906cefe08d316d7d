"""Command line front end: train, eval, predict, preprocess, grid.

Configuration is a flat ``key = value`` file with one section per module
(see _SCHEMA); every setting can also be passed as ``--section.key value``,
which overrides the file.  Exit codes: 0 success, 2 config error, 3 data
error, a non-UTF-8 input or an OSError (unreadable input, unwritable
output.dir, a grid's doc mode process or the process of an eval or predict
that normalizes the tweets and parses model.txt, dead before it reported),
4 numeric failure.
"""

import argparse
import configparser
import contextlib
import functools
import hashlib
import itertools
import multiprocessing
import os
import queue
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from scipy.sparse import csr_matrix

from .corpus import (
    Dataset,
    LangTag,
    Sentiment,
    concat_datasets,
    parse_conll,
    parse_monolingual_csv,
    require_labels,
)
from .errors import ConfigError, DataError, NumericError
from .evaluation import EvalReport, GridRow, comparison_grid, machine_lines, render_report, score
from .models import (
    LinearModel,
    ModelKind,
    TrainConfig,
    fit,
    fit_all,
    load_model,
    predict_batch,
    save_model,
)
from .preprocess import EmojiLexicon, PipelineConfig, default_lexicon, run_pipeline
from .vectorize import (
    Analyzer,
    AnalyzerKind,
    DocMode,
    TfIdfModel,
    fit_tfidf,
    fit_transform,
    format_tfidf,
    load_tfidf,
    prepare_documents,
    save_tfidf,
    transform_batch,
)

TFIDF_FILE = "tfidf.txt"
MODEL_FILE = "model.txt"
MANIFEST_FILE = "manifest.txt"


def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_aux_lang(raw: str) -> LangTag:
    if raw not in ("lang1", "lang2"):
        raise ConfigError(f"data.aux_lang must be lang1 or lang2, got {raw!r}")
    return LangTag(raw)


# section -> key -> (default, parser, help); default = manifest text, "" = optional, None when unset.
# The preprocess keys are PipelineConfig's fields, the train keys TrainConfig's (model is model_kind).
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], object], str]]] = {
    "data": {
        "train": ("", str, "training corpus in block format"),
        "dev": ("", str, "labeled development corpus in block format"),
        "aux_csv": ("", str, "optional auxiliary monolingual CSV"),
        "aux_label_column": ("label", str, "label column name in the auxiliary CSV"),
        "aux_text_column": ("text", str, "text column name in the auxiliary CSV"),
        "aux_lang": ("lang1", _parse_aux_lang, "language tag for auxiliary tokens (lang1 or lang2)"),
        "lexicon": ("", str, "emoticon lexicon file (default: bundled)"),
    },
    "preprocess": {
        "replace_emoji": ("true", _parse_bool, "replace emoji/emoticons with textual names"),
        "remove_mentions": ("true", _parse_bool, "drop @mention tokens"),
        "replace_urls": ("true", _parse_bool, "replace URL-shaped tokens with URL"),
        "collapse_elongation": ("true", _parse_bool, "collapse elongated letter runs"),
        "segment_hashtags": ("true", _parse_bool, "split hashtags into words"),
        "remove_non_ascii": ("true", _parse_bool, "strip non-ASCII codepoints"),
        "elongation_min_run": ("3", int, "min identical-letter run length to collapse"),
    },
    "vectorize": {
        "doc_mode": ("all_documents", DocMode.from_value, "all_documents or per_class_concatenated"),
        "word_ngram_min": ("1", int, "word n-gram lower bound"),
        "word_ngram_max": ("1", int, "word n-gram upper bound"),
        "char_ngram_min": ("2", int, "char n-gram lower bound"),
        "char_ngram_max": ("5", int, "char n-gram upper bound"),
    },
    "train": {
        "model": ("svm", ModelKind.from_value, "classifier: lr, mnb or svm"),
        "l2_lambda": ("0.0001", float, "L2 regularization strength"),
        "learning_rate": ("", float, "step size (default: 0.1 for lr, 0.05 for svm)"),
        "epochs": ("50", int, "training epochs"),
        "batch_size": ("32", int, "mini-batch size"),
        "mnb_alpha": ("1.0", float, "MNB Laplace smoothing"),
        "seed": ("0", int, "RNG seed for deterministic training"),
    },
    "output": {
        "dir": ("out", str, "directory for artifacts"),
    },
}

Settings = dict[tuple[str, str], str]


def _collect_settings(args: argparse.Namespace) -> Settings:
    """Merge the config file and the --section.key overrides, which win."""
    settings: Settings = {}
    if config_path := args.config:
        if not os.path.isfile(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        # No section is configparser's default section (a header is never empty), so [DEFAULT] is refused
        # as unknown like any other instead of copying its keys into every section.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            with open(config_path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {config_path}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                settings[(section, key)] = value
    for section, keys in _SCHEMA.items():
        for key in keys:
            raw = getattr(args, f"{section}__{key}", None)
            if raw is not None:
                settings[(section, key)] = raw
    return settings


@dataclass
class RunConfig:
    pipeline: PipelineConfig
    train: TrainConfig
    word_analyzer: Analyzer
    char_analyzer: Analyzer
    values: dict[str, object]  # canonical "section.key" -> parsed value
    resolved: dict[str, str]  # canonical "section.key" -> the text the manifest records

    @property
    def config_sha256(self) -> str:
        text = "\n".join(f"{key}={self.resolved[key]}" for key in sorted(self.resolved))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _build_run_config(settings: Settings) -> RunConfig:
    resolved: dict[str, str] = {}
    sections: dict[str, dict[str, object]] = {}
    for section, keys in _SCHEMA.items():
        parsed = sections[section] = {}
        for key, (default, parse, _help) in keys.items():
            raw = settings.get((section, key))
            text = resolved[f"{section}.{key}"] = (default if raw is None else raw).strip()
            if "\n" in text:  # the manifest records each setting on one line
                raise ConfigError(f"{section}.{key} must fit on one line, got {raw!r}")
            try:
                parsed[key] = parse(text) if raw is not None or default else None
            except ValueError:
                raise ConfigError(f"invalid value {raw!r} for {section}.{key}") from None
    train = dict(sections["train"])
    vectorize = sections["vectorize"]
    return RunConfig(
        pipeline=PipelineConfig(**sections["preprocess"]),
        train=TrainConfig(model_kind=train.pop("model"), **train),
        word_analyzer=Analyzer(AnalyzerKind.WORD, vectorize["word_ngram_min"], vectorize["word_ngram_max"]),
        char_analyzer=Analyzer(AnalyzerKind.CHAR, vectorize["char_ngram_min"], vectorize["char_ngram_max"]),
        values={f"{section}.{key}": value for section, parsed in sections.items() for key, value in parsed.items()},
        resolved=resolved,
    )


def _require_file(path: str, what: str) -> None:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} does not exist: {path}")


def _load_lexicon(config: RunConfig) -> EmojiLexicon:
    if config.values["data.lexicon"]:
        _require_file(config.values["data.lexicon"], "data.lexicon")
        return EmojiLexicon.from_file(config.values["data.lexicon"])
    return default_lexicon()


def _load_block_dataset(path: str, what: str, name: str | None = None) -> Dataset:
    """The block-format dataset in path, named name or else after the file; a missing file is refused naming what."""
    _require_file(path, what)
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_conll(handle.read(), name=name or Path(path).stem)


def _load_training_data(config: RunConfig) -> Dataset:
    train_path, aux_path = config.values["data.train"], config.values["data.aux_csv"]
    if not train_path:
        raise ConfigError("data.train is required")
    dataset = _load_block_dataset(train_path, "data.train", "train")
    if aux_path:
        _require_file(aux_path, "data.aux_csv")
        with open(aux_path, encoding="utf-8", newline="") as handle:
            aux = parse_monolingual_csv(
                handle.read(),
                label_column=config.values["data.aux_label_column"],
                text_column=config.values["data.aux_text_column"],
                lang=config.values["data.aux_lang"],
                name="aux",
            )
        dataset = concat_datasets(dataset, aux)
    return dataset


def _preprocess_texts(config: RunConfig, dataset: Dataset, lexicon: EmojiLexicon) -> list[str]:
    return [run_pipeline(tweet.text, config.pipeline, lexicon) for tweet in dataset]


def _featurize(config: RunConfig, dataset: Dataset, texts: list[str]) -> tuple[TfIdfModel, csr_matrix]:
    """Fit the configured doc mode's vectorizer and return it with the TF-IDF rows of texts."""
    mode = config.values["vectorize.doc_mode"]
    docs = prepare_documents(dataset, mode, texts)
    if mode is DocMode.ALL_DOCUMENTS:
        return fit_transform(docs, mode, config.word_analyzer, config.char_analyzer)
    tfidf = fit_tfidf(docs, mode, config.word_analyzer, config.char_analyzer)
    return tfidf, transform_batch(tfidf, texts)


def _manifest_lines(config: RunConfig, tfidf: TfIdfModel, model: LinearModel, n_train: int) -> list[str]:
    """The manifest of a run, line by line: the only definition of its layout, which _predict_dataset enforces."""
    return [
        "manifest v1",
        f"config_sha256={config.config_sha256}",
        f"run.char_vocab_size={len(tfidf.char_vocab)}",
        f"run.dimension={tfidf.dim}",
        f"run.doc_mode={tfidf.mode.value}",
        f"run.model={model.kind.value}",
        f"run.n_train_tweets={n_train}",
        f"run.seed={config.train.seed}",
        f"run.word_vocab_size={len(tfidf.word_vocab)}",
        *(f"config.{key}={config.resolved[key]}" for key in sorted(config.resolved)),
    ]


def _write_artifacts(
    config: RunConfig, tfidf: TfIdfModel, model: LinearModel, n_train: int, out_dir: str, tfidf_text: str | None = None
) -> None:
    """Remove any stale manifest, write the tfidf (tfidf_text if given) and model, then a manifest of them."""
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, MANIFEST_FILE))
    save_tfidf(tfidf, os.path.join(out_dir, TFIDF_FILE), tfidf_text)
    save_model(model, os.path.join(out_dir, MODEL_FILE))
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(_manifest_lines(config, tfidf, model, n_train)) + "\n")


def _read_manifest(manifest_path: str) -> tuple[RunConfig, int, list[str]]:
    """The run config of a manifest's config.* settings, its run.n_train_tweets and its lines."""
    with open(manifest_path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines.pop():  # the text after the last line feed
        raise DataError(f"manifest does not end in a line feed: {manifest_path}")
    values = dict(line.partition("=")[::2] for line in reversed(lines))  # each key's value on its first line
    settings: Settings = {}
    for section, keys in _SCHEMA.items():
        for key, (default, _parse, _help) in keys.items():
            value = values.get(f"config.{section}.{key}")
            # An empty value stands for an unset optional key, but is itself the value of any other.
            if value is not None and (value or default):
                settings[(section, key)] = value
    config = _build_run_config(settings)
    n_train = values.get("run.n_train_tweets", "")
    if not n_train.isdecimal():
        raise DataError(f"manifest run.n_train_tweets is {n_train!r}, not a tweet count: {manifest_path}")
    return config, int(n_train), lines


def _predict_dataset(model_dir: str, dataset: Dataset) -> list:
    """Score dataset with the artifacts in model_dir.  The manifest, an artifact dir's commit marker, is read
    first and the lexicon loaded next, both in this process.  Then (_side_by_side) one step normalizes the
    tweets and the next parses model.txt, while this process parses tfidf.txt and transforms the normalized
    texts once they arrive.  The first failure in this order is raised: a missing artifact file, the manifest's
    final line feed, config and run.n_train_tweets, the lexicon, the tfidf.txt parse, preprocessing and
    transform, the model.txt parse, the dimensions, then a manifest that is not exactly the _manifest_lines of
    that config, these artifacts and that count (quoting the first line that differs)."""
    tfidf_path, model_path, manifest_path = (
        os.path.join(model_dir, name) for name in (TFIDF_FILE, MODEL_FILE, MANIFEST_FILE)
    )
    _require_file(tfidf_path, "vectorizer artifact")
    _require_file(model_path, "model artifact")
    _require_file(manifest_path, "manifest")
    config, n_train, lines = _read_manifest(manifest_path)
    lexicon = _load_lexicon(config)  # loaded here, a fork inherits it and default_lexicon() keeps its cache

    def featurize(results: Iterator[object]) -> tuple[TfIdfModel, csr_matrix]:
        tfidf = load_tfidf(tfidf_path)
        return tfidf, transform_batch(tfidf, next(results))

    (tfidf, features), (_, classifier) = _side_by_side(
        featurize,
        [functools.partial(_preprocess_texts, config, dataset, lexicon), functools.partial(load_model, model_path)],
        "the process normalizing the tweets and parsing model.txt",
    )
    if tfidf.dim != classifier.dim:
        raise DataError(f"vectorizer dimension {tfidf.dim} does not match model dimension {classifier.dim}")
    expected = _manifest_lines(config, tfidf, classifier, n_train)
    quoted = itertools.zip_longest(map(repr, lines), map(repr, expected), fillvalue="end of file")
    for number, (found, line) in enumerate(quoted, start=1):
        if found != line:
            raise DataError(f"manifest line {number} is {found}, expected {line}: {manifest_path}")
    return predict_batch(classifier, features)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _build_run_config(_collect_settings(args))
    dataset = _load_training_data(config)
    labels = require_labels(dataset)
    tfidf, features = _featurize(config, dataset, _preprocess_texts(config, dataset, _load_lexicon(config)))
    classifier = fit(features, labels, config.train)
    _write_artifacts(config, tfidf, classifier, len(dataset), config.values["output.dir"])
    print(f"trained {config.train.model_kind.value} model on {len(dataset)} tweets")
    print(f"artifacts written to {config.values['output.dir']}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    dataset = _load_block_dataset(args.data, "evaluation data")
    report = score(require_labels(dataset), _predict_dataset(args.model_dir, dataset))
    print(render_report(report))
    print()
    for line in machine_lines(report):
        print(line)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    dataset = _load_block_dataset(args.data, "input data")
    predictions = _predict_dataset(args.model_dir, dataset)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        for tweet, prediction in zip(dataset, predictions):
            handle.write(f"{tweet.id}\t{prediction.label}\n")
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    config = _build_run_config(_collect_settings(args))
    dataset = _load_block_dataset(args.data, "input data")
    lexicon = _load_lexicon(config)
    for text in _preprocess_texts(config, dataset, lexicon):
        print(text)
    return 0


# Every model kind x doc mode, in the order the table and the grid.* lines print them.
_GRID_CELLS = [(kind, mode) for kind in ModelKind for mode in DocMode]
_LINEAR_KINDS = (ModelKind.LR, ModelKind.SVM)


def _grid_mode(
    configs: dict[tuple[ModelKind, DocMode], RunConfig],
    dataset: Dataset,
    labels: list[Sentiment],
    texts: list[str],
    gold: list[Sentiment],
    dev_texts: list[str],
    mode: DocMode,
) -> dict[ModelKind, EvalReport]:
    """Featurize, train, write and score one doc mode's cells, in kind order; its first failure stops it."""
    tfidf, features = _featurize(configs[ModelKind.LR, mode], dataset, texts)
    tfidf_text = format_tfidf(tfidf)  # the mode's three cells share one tfidf.txt
    # LR and SVM advance over one batch stream, which depends only on the matrix and the shared
    # seed, epochs and batch size; MNB is closed form.
    trained = fit_all(features, labels, [configs[kind, mode].train for kind in _LINEAR_KINDS])
    linear = dict(zip(_LINEAR_KINDS, trained))
    dev_features = None  # built after the first write: held through that write it raised peak RSS ~2%
    reports: dict[ModelKind, EvalReport] = {}
    for kind in ModelKind:
        config = configs[kind, mode]
        classifier = linear[kind] if kind in linear else fit(features, labels, config.train)
        cell_dir = os.path.join(config.values["output.dir"], "grid", f"{kind.value}_{mode.value}")
        _write_artifacts(config, tfidf, classifier, len(dataset), cell_dir, tfidf_text)
        if dev_features is None:
            dev_features = transform_batch(tfidf, dev_texts)
        reports[kind] = score(gold, predict_batch(classifier, dev_features))
    return reports


def _side_by_side(
    here: Callable[[Iterator[object]], object], there: Sequence[Callable[[], object]], process: str
) -> tuple[object, list[object]]:
    """here(results)'s result and the list of the steps' results, or the first failure among them: here()'s
    own (a step's exception it lets through included), then the steps' in order.  results yields the results
    of the steps in there in their order, and raises a step's exception in place of its result.  Where the
    platform can fork and this process may use two or more CPUs, the steps run in order in a forked child,
    which inherits their inputs and sends back each step's result, or the exception it raised, as soon as
    that step is done, while this process runs here(); a thread of this process receives each outcome as it
    arrives, so the child never waits on a full pipe for here() to ask.  Every outcome is received and the
    child joined before this returns or raises, and a child that dies before it has sent a step's outcome
    whole is a ChildProcessError naming it as process.  Elsewhere each step runs in this process when results
    reaches it, and the steps here() did not reach run after it.  No failure stops here() or a later step."""

    def outcome(run: Callable[[], object]) -> object:
        try:
            return run()
        except Exception as exc:  # noqa: BLE001 - raised below once every step has run
            return exc

    outcomes: list[object] = []

    def results() -> Iterator[object]:
        while len(outcomes) < len(there):
            outcomes.append(value := next_outcome())
            if isinstance(value, Exception):
                raise value
            yield value

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with contextlib.ExitStack() as cleanup:
        if cpus < 2 or "fork" not in multiprocessing.get_all_start_methods():

            def next_outcome() -> object:
                return outcome(there[len(outcomes)])

        else:
            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)

            def report_each() -> None:
                receiver.close()  # else a send to a pipe this process closed below could block for good
                for step in there:
                    sender.send(outcome(step))

            child = context.Process(target=report_each)
            child.start()
            sender.close()  # with only the child's copy open, recv() meets the end of file once the child is gone
            arrived: queue.SimpleQueue[object] = queue.SimpleQueue()

            def receive() -> object:
                try:
                    return receiver.recv()
                except (EOFError, OSError):  # OSError: the child died inside a send
                    child.join()
                    return ChildProcessError(f"{process} exited with code {child.exitcode} before it reported")

            def receive_each() -> None:  # started after the fork, which copies only the thread that calls it
                for _ in there:
                    arrived.put(outcome(receive))

            reader = threading.Thread(target=receive_each, daemon=True)
            reader.start()
            cleanup.callback(child.join)
            cleanup.callback(receiver.close)
            cleanup.callback(reader.join)  # runs first: it ends once every outcome has arrived
            next_outcome = arrived.get

        mine = outcome(lambda: here(results()))
        while len(outcomes) < len(there):
            outcomes.append(next_outcome())
    for value in (mine, *outcomes):
        if isinstance(value, Exception):
            raise value
    return mine, outcomes


def _cmd_grid(args: argparse.Namespace) -> int:
    base = _collect_settings(args)
    configs: dict[tuple[ModelKind, DocMode], RunConfig] = {}
    for kind, mode in _GRID_CELLS:
        overrides = {("train", "model"): kind.value, ("vectorize", "doc_mode"): mode.value}
        configs[kind, mode] = _build_run_config({**base, **overrides})
    config = configs[_GRID_CELLS[0]]  # the cells differ only in train.model and vectorize.doc_mode
    dev_path = config.values["data.dev"]
    if not dev_path:
        raise ConfigError("data.dev is required for grid")
    _require_file(dev_path, "data.dev")  # a missing dev file is reported ahead of anything in the train load
    dataset = _load_training_data(config)
    dev = _load_block_dataset(dev_path, "data.dev")
    labels, gold = require_labels(dataset), require_labels(dev)
    lexicon = _load_lexicon(config)
    texts, dev_texts = (_preprocess_texts(config, data, lexicon) for data in (dataset, dev))
    run_mode = functools.partial(_grid_mode, configs, dataset, labels, texts, gold, dev_texts)
    first, last = DocMode
    first_cells, (last_cells,) = _side_by_side(
        lambda _results: run_mode(first), [functools.partial(run_mode, last)], f"the {last.value} doc mode's process"
    )
    by_mode = zip(DocMode, (first_cells, last_cells))
    reports = {(kind, mode): report for mode, cells in by_mode for kind, report in cells.items()}
    rows = [GridRow(kind.value.upper(), mode.display_label, reports[kind, mode]) for kind, mode in _GRID_CELLS]
    print(comparison_grid(rows))
    print()
    for kind, mode in _GRID_CELLS:
        print(f"grid.{kind.value}.{mode.value}={reports[kind, mode].macro_f1:.6f}")
    print(f"grid.best_macro_f1={max(report.macro_f1 for report in reports.values()):.6f}")
    return 0


def _add_setting_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (flat key = value with [section]s)")
    group = parser.add_argument_group("config overrides")
    for section, keys in _SCHEMA.items():
        for key, (_default, _parse, help_text) in keys.items():
            group.add_argument(
                f"--{section}.{key}", dest=f"{section}__{key}", metavar="VALUE", help=help_text
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codemix",
        description="Sentiment classification for code-mixed (Spanglish) social media text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit the vectorizer and a classifier, persist artifacts")
    _add_setting_args(train)
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="score a trained model on a labeled dataset")
    evaluate.add_argument("--model-dir", required=True, help="directory with trained artifacts")
    evaluate.add_argument("--data", required=True, help="labeled dataset in block format")
    evaluate.set_defaults(func=_cmd_eval)

    predict = sub.add_parser("predict", help="write id<TAB>label predictions for a dataset")
    predict.add_argument("--model-dir", required=True, help="directory with trained artifacts")
    predict.add_argument("--data", required=True, help="dataset in block format")
    predict.add_argument("--out", required=True, help="output prediction file")
    predict.set_defaults(func=_cmd_predict)

    preprocess_cmd = sub.add_parser("preprocess", help="print normalized text, one line per tweet")
    _add_setting_args(preprocess_cmd)
    preprocess_cmd.add_argument("--data", required=True, help="dataset in block format")
    preprocess_cmd.set_defaults(func=_cmd_preprocess)

    grid = sub.add_parser("grid", help="train and evaluate all six model x doc-mode cells")
    _add_setting_args(grid)
    grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"data error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 3


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
