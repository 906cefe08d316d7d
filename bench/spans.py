"""Span recording around the layer entry points that ``codemix.cli`` calls.

The benchmark treats the program as a black box: it edits nothing in it.
Instead it rebinds the public functions that ``codemix.cli`` imports to
wrappers that record a span per call (name, start, end, parent, call id and
a few counts taken from the arguments or result).  The per-tweet
``run_pipeline`` calls are not recorded one by one: they are summed into a
single span per parent with a call count and a busy total.

An entry point that ``codemix.cli`` no longer has is reported as absent,
and its layer metrics read zero.
"""

import os
import time
from dataclasses import dataclass, field

# Entry point -> layer module, as the ``codemix`` package lays them out.
ENTRY_POINTS = {
    "parse_conll": "corpus",
    "run_pipeline": "preprocess",
    "prepare_documents": "vectorize",
    "fit_tfidf": "vectorize",
    "transform_batch": "vectorize",
    "save_tfidf": "vectorize",
    "load_tfidf": "vectorize",
    "fit": "models",
    "predict_batch": "models",
    "save_model": "models",
    "load_model": "models",
    "score": "evaluation",
}
AGGREGATED = {"run_pipeline"}


@dataclass
class Span:
    id: int
    name: str
    call: int
    parent: int | None
    start: float
    end: float = 0.0
    busy: float = 0.0  # end - start, or the summed time of an aggregated span
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; the caller writes them out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._aggregates: dict[tuple[int, str], Span] = {}
        self.call = -1
        self.overhead = 0.0  # seconds the wrappers spent outside the calls they time

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.call, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Fold one short call into the aggregated span under the current parent."""
        parent = self._stack[-1].id if self._stack else None
        key = (parent if parent is not None else -1, name)
        span = self._aggregates.get(key)
        if span is None:
            span = Span(len(self.spans), name, self.call, parent, start, attrs={"calls": 0})
            self.spans.append(span)
            self._aggregates[key] = span
        span.end = end
        span.busy += end - start
        span.attrs["calls"] += 1
        for key_name, value in counts.items():
            span.attrs[key_name] = span.attrs.get(key_name, 0) + value


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _nnz(vectors) -> int:
    if hasattr(vectors, "nnz"):
        return int(vectors.nnz)
    return sum(len(getattr(vector, "indices", ())) for vector in vectors)


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name == "parse_conll":
        return {"tweets": len(result)}
    if name == "fit_tfidf":
        return {
            "dim": int(result.dim),
            "word_vocab": len(result.word_vocab),
            "char_vocab": len(result.char_vocab),
        }
    if name == "transform_batch":
        return {"nnz": _nnz(result)}
    if name in ("save_tfidf", "save_model"):
        return {"bytes": _file_size(args[1] if len(args) > 1 else kwargs.get("path"))}
    if name in ("load_tfidf", "load_model"):
        return {"bytes": _file_size(args[0] if args else kwargs.get("path"))}
    if name == "predict_batch":
        return {"predictions": len(result)}
    return {}


def _fit_attrs(args, kwargs) -> dict:
    config = args[2] if len(args) > 2 else kwargs.get("cfg")
    kind = getattr(getattr(config, "model_kind", None), "value", "unknown")
    return {"kind": kind, "epochs": int(getattr(config, "epochs", 0) or 0)}


def instrument(cli_module, recorder: Recorder) -> list[str]:
    """Wrap every entry point ``cli_module`` has; return the names it lacks."""
    absent = []
    for name in ENTRY_POINTS:
        original = getattr(cli_module, name, None)
        if original is None:
            absent.append(name)
            continue
        setattr(cli_module, name, _wrap(name, original, recorder))
    return absent


def _wrap(name: str, original, recorder: Recorder):
    span_name = f"{ENTRY_POINTS[name]}.{name}"
    if name in AGGREGATED:

        def aggregated(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            text = args[0] if args else kwargs.get("text", "")
            recorder.add(span_name, start, end, chars_in=len(text), chars_out=len(result))
            recorder.overhead += time.perf_counter() - end
            return result

        return aggregated

    def wrapped(*args, **kwargs):
        entered = time.perf_counter()
        span = recorder.begin(span_name, **(_fit_attrs(args, kwargs) if name == "fit" else {}))
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(span)
        try:
            span.attrs.update(_counts(name, args, kwargs, result))
        except (AttributeError, TypeError, IndexError):
            pass  # a changed signature costs the counts, not the run
        recorder.overhead += time.perf_counter() - entered - span.busy
        return result

    return wrapped


def self_times(spans: list[dict]) -> dict[int, float]:
    """Busy time of each span minus the busy time of its direct children."""
    own = {span["id"]: span["busy"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["busy"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds and counts summed over the spans of a run."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for span in spans:
        name, attrs, seconds = span["name"], span["attrs"], own[span["id"]]
        if name.startswith("cli."):
            add("cli.self.s", seconds)
            continue
        if name == "models.fit":
            kind = attrs.get("kind", "unknown")
            add(f"models.fit.{kind}.s", seconds)
            add(f"models.fit.{kind}.epochs", attrs.get("epochs", 0))
            continue
        add(f"{name}.s", seconds)
        if name == "preprocess.run_pipeline":
            add("preprocess.calls", attrs["calls"])
            add("preprocess.chars_in", attrs["chars_in"])
            add("preprocess.chars_out", attrs["chars_out"])
        elif name == "corpus.parse_conll":
            add("corpus.tweets", attrs.get("tweets", 0))
        elif name == "vectorize.transform_batch":
            add("vectorize.nnz", attrs.get("nnz", 0))
        elif name == "vectorize.fit_tfidf":
            # Sizes of the largest feature space fitted in the run.
            for key in ("dim", "word_vocab", "char_vocab"):
                out[f"vectorize.{key}"] = max(out.get(f"vectorize.{key}", 0), attrs.get(key, 0))
        elif name in ("vectorize.save_tfidf", "vectorize.load_tfidf"):
            out["vectorize.tfidf_bytes"] = max(out.get("vectorize.tfidf_bytes", 0), attrs.get("bytes", 0))
        elif name in ("models.save_model", "models.load_model"):
            out["models.model_bytes"] = max(out.get("models.model_bytes", 0), attrs.get("bytes", 0))
    epochs = out.get("models.fit.svm.epochs", 0)
    out["models.fit.svm.s_per_epoch"] = out.get("models.fit.svm.s", 0.0) / epochs if epochs else 0.0
    return out
