"""codemix benchmark: one command, three workloads, every metric by name.

Usage (from the root of a checkout):

    python3 bench/run.py --workload train_svm --seed 1 --seconds 24 --trace 0

It generates a deterministic SemEval-shaped corpus from ``--seed``, runs the
workload through the ``codemix`` CLI (``codemix.cli.main``, in a separate
closed-loop client process), checks every output, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload's own calls run once with span recording around the layer
entry points and the metrics are the per-layer ones.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import synth_corpus  # noqa: E402

WORKLOADS = ("train_svm", "score_shards", "grid_small")
# The key of the calls each workload is about; the traced run makes only these.
FOCUS = {"train_svm": "train", "score_shards": "eval", "grid_small": "grid"}
SETUP_REPS = 3
# Each measured client makes at least this many rounds, and enough of them
# for this many eval calls, whatever the window: every timing is a median
# over repeats, and the eval tail has ten samples beyond it.
MIN_ROUNDS = 2
MIN_EVALS = 20
# Timings are wall seconds scaled to a machine that runs the reference
# workload (synth_corpus.time_reference) in this many seconds; see speed().
REFERENCE_SECONDS = 0.04
LONG_CALL_SECONDS = 20.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CLIENT_TIMEOUT_S = 170


@dataclass(frozen=True)
class Scale:
    svm_train: int  # train_svm: training tweets
    svm_dev: int  # train_svm: dev tweets of the trained model's check
    svm_epochs: int
    shard_train: int  # score_shards: training tweets of the set-up model
    shard_epochs: int
    shard_size: int
    shards: int
    grid_train: int
    grid_dev: int
    grid_epochs: int
    side_train: int  # the small grid that gives grid_s (and eval timings on train_svm) outside grid_small
    side_dev: int
    side_epochs: int
    learning_rate: float
    f1_floor: float


SCALES = {
    "full": Scale(
        svm_train=12_000, svm_dev=300, svm_epochs=1,
        shard_train=400, shard_epochs=20, shard_size=200, shards=4,
        grid_train=300, grid_dev=150, grid_epochs=20,
        side_train=40, side_dev=20, side_epochs=5,
        learning_rate=2.0, f1_floor=0.5,
    ),
    "smoke": Scale(
        svm_train=300, svm_dev=40, svm_epochs=20,
        shard_train=200, shard_epochs=20, shard_size=40, shards=4,
        grid_train=200, grid_dev=80, grid_epochs=20,
        side_train=40, side_dev=20, side_epochs=10,
        learning_rate=2.0, f1_floor=0.4,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_call_p50_s": "s",
    "eval_call_tail_s": "s",
    "score_tweets_per_s": "tweets/s",
    "grid_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "bytes",
    "macro_f1": "ratio",
}
PER_LAYER = {
    "models.fit.svm.s": "s",
    "models.fit.svm.s_per_epoch": "s",
    "models.fit.lr.s": "s",
    "models.fit.mnb.s": "s",
    "vectorize.transform_batch.s": "s",
    "vectorize.nnz": "count",
    "vectorize.fit_tfidf.s": "s",
    "vectorize.dim": "count",
    "vectorize.word_vocab": "count",
    "vectorize.char_vocab": "count",
    "preprocess.run_pipeline.s": "s",
    "preprocess.calls": "count",
    "preprocess.chars_in": "count",
    "preprocess.chars_out": "count",
    "vectorize.load_tfidf.s": "s",
    "models.load_model.s": "s",
    "vectorize.tfidf_bytes": "bytes",
    "models.model_bytes": "bytes",
    "vectorize.save_tfidf.s": "s",
    "models.save_model.s": "s",
    "models.predict_batch.s": "s",
    "corpus.parse_conll.s": "s",
    "corpus.tweets": "count",
    "evaluation.score.s": "s",
    "cli.self.s": "s",
    "trace.overhead_s": "s",
    "error_rate": "failed/attempted",
}

_CONFUSION_ROW = re.compile(r"^\s*(negative|neutral|positive)\s+(\d+)\s+(\d+)\s+(\d+)\s*$", re.MULTILINE)
_MACRO_LINE = re.compile(r"^metric\.macro_f1=([0-9.]+)$", re.MULTILINE)
_GRID_LINE = re.compile(r"^grid\.(lr|mnb|svm)\.(all_documents|per_class_concatenated)=([0-9.]+)$", re.MULTILINE)
_BEST_LINE = re.compile(r"^grid\.best_macro_f1=([0-9.]+)$", re.MULTILINE)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed program call)."""


@dataclass
class Call:
    key: str
    round: int
    argv: list
    exit: int
    start: float
    wall: float
    output: str
    failures: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


@dataclass
class ClientRun:
    calls: list
    refs: list
    spans: list
    absent: list
    overhead: float
    peak_rss_mb: float

    def keyed(self, prefix: str) -> list:
        return [call for call in self.calls if call.key.split(":")[0] == prefix]


class Run:
    """Set-up, calls and checks of one workload run; counts every call made."""

    def __init__(self, workload: str, scale: Scale, seed: int, seconds: float, work: Path):
        self.workload, self.scale, self.seed, self.seconds, self.work = workload, scale, seed, seconds, work
        self.calls: list[Call] = []
        self.env = _client_env()
        self._expected: dict = {}

    def expected(self, tweets, doc_mode: str) -> dict:
        """Expected manifest counts; every training set is a prefix of the train split."""
        key = (tweets[0].id, len(tweets), doc_mode)
        if key not in self._expected:
            counts = synth_corpus.expected_vocab(tweets, doc_mode)
            self._expected[key] = dict(counts, n_train_tweets=len(tweets))
        return self._expected[key]

    # -- processes -------------------------------------------------------
    def client(self, name: str, prologue: list, rounds: list = (), once: bool = False, trace: bool = False,
               reference: bool = False) -> ClientRun:
        """Run the calls in a fresh client process: the prologue once, then rounds for the window.

        With ``once`` the round runs a single time; with ``reference`` the
        reference workload runs between the calls.
        """
        job_path, result_path = self.work / f"{name}.job.json", self.work / f"{name}.result.json"
        job = {
            "src": str(SRC), "bench": str(BENCH), "prologue": prologue, "rounds": list(rounds),
            "seconds": 0 if once else self.seconds, "min_rounds": 1 if once else _min_rounds(prologue, rounds), "trace": trace,
            "reference": reference,
        }
        job_path.write_text(json.dumps(job), encoding="utf-8")
        process = subprocess.Popen(
            [sys.executable, str(BENCH / "client.py"), str(job_path), str(result_path)],
            env=self.env, stdin=subprocess.DEVNULL,
        )
        try:
            status, rusage = _wait(process, CLIENT_TIMEOUT_S)
        finally:
            if process.returncode is None:
                process.kill()
                process.wait()
        if status != 0 or not result_path.is_file():
            raise BenchError(f"client {name} exited with status {status}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        made = [Call(c["key"], c["round"], c["argv"], c["exit"], c["start"], c["wall"], c["output"]) for c in result["calls"]]
        for call in made:
            if call.exit != 0:
                call.fail(f"exit code {call.exit}: {call.output.strip()[-300:]}")
        self.calls.extend(made)
        return ClientRun(made, result["refs"], result["spans"], result["absent"], result["overhead"],
                         rusage.ru_maxrss / 1024.0)

    # -- checks ------------------------------------------------------------
    def check_train_dir(self, call: Call, out_dir: Path, tweets, doc_mode: str) -> None:
        manifest = _read_manifest(out_dir / "manifest.txt")
        if manifest is None:
            call.fail(f"no manifest in {out_dir}")
            return
        for key, value in self.expected(tweets, doc_mode).items():
            if manifest.get(f"run.{key}") != str(value):
                call.fail(f"manifest run.{key}={manifest.get(f'run.{key}')} but expected {value}")

    def check_eval(self, call: Call, n_tweets: int) -> list[list[int]] | None:
        """One prediction per tweet and a macro-F1 line that matches the confusion matrix."""
        if call.exit != 0:
            return None
        rows = {m.group(1): [int(m.group(i)) for i in (2, 3, 4)] for m in _CONFUSION_ROW.finditer(call.output)}
        if len(rows) != 3:
            call.fail("eval printed no confusion matrix")
            return None
        confusion = [rows[label] for label in synth_corpus.SENTIMENTS]
        if sum(map(sum, confusion)) != n_tweets:
            call.fail(f"{sum(map(sum, confusion))} predictions for {n_tweets} tweets")
        printed = _MACRO_LINE.search(call.output)
        if printed is None or abs(float(printed.group(1)) - macro_f1(confusion)) > 1e-6:
            call.fail("metric.macro_f1 does not match the confusion matrix")
        return confusion

    def check_floor(self, call: Call, value: float) -> None:
        if not value >= self.scale.f1_floor:
            call.fail(f"macro-F1 {value:.4f} below the floor {self.scale.f1_floor}")

    def check_grid(self, call: Call, out_dir: Path, train) -> dict[str, float]:
        """Six cells and a best line; every cell's manifest matches the expected vocabulary."""
        if call.exit != 0:
            return {}
        cells = {f"{m.group(1)}.{m.group(2)}": float(m.group(3)) for m in _GRID_LINE.finditer(call.output)}
        best = _BEST_LINE.search(call.output)
        if len(cells) != 6 or best is None or abs(float(best.group(1)) - max(cells.values())) > 1e-9:
            call.fail("grid did not print six cells and their best")
            return cells
        for cell in cells:
            kind, mode = cell.split(".")
            self.check_train_dir(call, out_dir / "grid" / f"{kind}_{mode}", train, mode)
        return cells

    @property
    def failed(self) -> int:
        return sum(1 for call in self.calls if call.failures)


def _client_env() -> dict:
    """Cap numeric-library threads at the number of usable cores."""
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(int(env.get(var, cores)), cores)
        except ValueError:
            cap = cores
        env[var] = str(max(cap, 1))
    return env


def _wait(process: subprocess.Popen, timeout: float):
    """Wait for the child and return its exit status and resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(process.pid, os.WNOHANG)
        if pid == process.pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, rusage
        if time.monotonic() > deadline:
            raise BenchError(f"client did not finish within {timeout} s")
        time.sleep(0.02)


def _read_manifest(path: Path) -> dict | None:
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines[1:] if "=" in line)


def macro_f1(confusion: list[list[int]]) -> float:
    """Unweighted mean of per-class F1, rows gold and columns predicted, 0/0 -> 0."""
    total = 0.0
    for c in range(3):
        tp = confusion[c][c]
        predicted = sum(row[c] for row in confusion)
        gold = sum(confusion[c])
        precision = tp / predicted if predicted else 0.0
        recall = tp / gold if gold else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / 3


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Below twenty samples that percentile would fall under the median, so
    the maximum (percentile 100) stands for the tail instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _min_rounds(prologue: list, rounds: list) -> int:
    """Rounds enough for MIN_ROUNDS and for MIN_EVALS eval calls with the prologue's."""
    def evals(calls):
        return sum(key.split(":")[0] == "eval" for key, _ in calls)

    per_round = evals(rounds)
    missing = max(MIN_EVALS - evals(prologue), 0)
    return max(MIN_ROUNDS, -(-missing // per_round) if per_round else 0)


def scaled(timed: list[tuple[float, float]], refs: list[list[float]]) -> list[float]:
    """Wall seconds of each ``(start, wall)``, scaled to the reference machine.

    The machine is shared: other work on it slows every call by up to a
    half, for seconds to minutes.  The reference workload ran between the
    calls (``refs`` holds ``[moment, seconds]`` pairs) and slowed with
    them, so each wall time is multiplied by REFERENCE_SECONDS over the
    median reference time within one call length, and at least a second,
    of the call.  A short call takes the two references around it.  A call
    of LONG_CALL_SECONDS or more keeps its wall time: no reference runs
    while it does, and over that long the load averages out.
    """
    out = []
    for start, wall in timed:
        if wall >= LONG_CALL_SECONDS:
            out.append(wall)
            continue
        margin = max(wall, 1.0)
        near = [seconds for moment, seconds in refs if start - margin <= moment <= start + wall + margin]
        out.append(wall * REFERENCE_SECONDS / statistics.median(near))
    return out


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def _write_config(path: Path, train: Path, dev: Path, epochs: int, scale: Scale, seed: int) -> None:
    lines = [
        "[data]", f"train = {train}", f"dev = {dev}",
        "[train]", "model = svm", f"epochs = {epochs}", f"learning_rate = {scale.learning_rate}", f"seed = {seed}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pool(confusions) -> list[list[int]]:
    pooled = [[0] * 3 for _ in range(3)]
    for confusion in confusions:
        for r, row in enumerate(confusion or []):
            for c, count in enumerate(row):
                pooled[r][c] += count
    return pooled


# -- workloads ---------------------------------------------------------------


@dataclass
class Inputs:
    corpus: synth_corpus.Corpus
    files: dict
    setup_calls: list = field(default_factory=list)


def setup(run: Run, rep: int) -> Inputs:
    """Generate the workload's files; score_shards also trains its model here."""
    scale, seed = run.scale, run.seed
    folder = run.work / f"setup-{rep}"
    folder.mkdir()
    sizes = {
        "train_svm": (scale.svm_train, scale.svm_dev),
        "score_shards": (scale.shard_train, scale.shard_size * scale.shards),
        "grid_small": (scale.grid_train, scale.grid_dev),
    }[run.workload]
    corpus = synth_corpus.generate(seed, *sizes)
    files = {"train": folder / "train.txt", "dev": folder / "dev.txt", "config": folder / "run.ini"}
    synth_corpus.write_blocks(files["train"], corpus.train)
    synth_corpus.write_blocks(files["dev"], corpus.dev)
    epochs = {"train_svm": scale.svm_epochs, "score_shards": scale.shard_epochs, "grid_small": scale.grid_epochs}
    _write_config(files["config"], files["train"], files["dev"], epochs[run.workload], scale, seed)
    inputs = Inputs(corpus, files)
    if run.workload == "grid_small":
        return inputs
    if run.workload == "score_shards":
        files["shards"] = [folder / f"shard-{i}.txt" for i in range(scale.shards)]
        for i, path in enumerate(files["shards"]):
            synth_corpus.write_blocks(path, corpus.dev[i * scale.shard_size : (i + 1) * scale.shard_size])
    # The small grid that gives grid_s on the workloads that are not about grid.
    files["side_train"], files["side_dev"], files["side_config"] = (
        folder / "side_train.txt", folder / "side_dev.txt", folder / "side.ini",
    )
    synth_corpus.write_blocks(files["side_train"], corpus.train[: scale.side_train])
    synth_corpus.write_blocks(files["side_dev"], corpus.dev[: scale.side_dev])
    _write_config(files["side_config"], files["side_train"], files["side_dev"], scale.side_epochs, scale, seed)
    if run.workload == "score_shards":
        files["model"] = folder / "model"
        trained = run.client(f"setup-{rep}", [["train", _train(files["config"], files["model"])]])
        for call in trained.calls:
            run.check_train_dir(call, files["model"], corpus.train, "all_documents")
        inputs.setup_calls = trained.calls
    return inputs


def _train(config: Path, out_dir, *overrides: str) -> list:
    return ["train", "--config", str(config), *overrides, "--output.dir", str(out_dir)]


def _eval(model_dir, data: Path) -> list:
    return ["eval", "--model-dir", str(model_dir), "--data", str(data)]


def _grid(config: Path, out_dir) -> list:
    return ["grid", "--config", str(config), "--output.dir", str(out_dir)]


def plan(run: Run, inputs: Inputs, folder: Path) -> tuple[list, list]:
    """The measured client's prologue and round, as ``[key, argv]`` pairs.

    Each workload repeats calls of the other commands between its own, so
    that every end-to-end metric has a value on every workload, with
    repeats spread over the run, and the workload's outputs are checked
    with the program's other commands.  An ``eval`` outside score_shards
    scores the SVM / all_documents cell of its round's grid.
    """
    files = inputs.files
    if run.workload == "grid_small":
        # The standalone train writes beside the grid's cells: its manifest
        # names the output directory, which must be the grid's for the bytes to match.
        out = folder / "grid-{i}"
        train = _train(files["config"], out, "--train.model", "svm", "--vectorize.doc_mode", "all_documents")
        evaluations = [["eval", _eval(out, files["dev"])]] * 5
        return [], [["train", train], *evaluations, ["grid", _grid(files["config"], out)], *evaluations]
    cell = folder / "side-{i}" / "grid" / "svm_all_documents"
    side = [["grid", _grid(files["side_config"], folder / "side-{i}")]] + [["eval", _eval(cell, files["side_dev"])]] * 5
    if run.workload == "train_svm":
        # One round of the small grid and its evals goes before the long
        # train, the rest after it, so that their repeats fall at moments far
        # apart.  The trained model's own eval is a check, not a timing.
        before = [[key, [arg.replace("{i}", "first") for arg in argv]] for key, argv in side]
        model = folder / "out"
        return before + [["train", _train(files["config"], model)], ["check", _eval(model, files["dev"])]], side
    shards = [[f"eval:{i}", _eval(files["model"], shard)] for i, shard in enumerate(files["shards"])]
    return [], shards[:2] + side[:1] + shards[2:]


def _arg(call: Call, flag: str) -> Path:
    return Path(call.argv[call.argv.index(flag) + 1])


def check(run: Run, inputs: Inputs, client: ClientRun, folder: Path) -> dict:
    """Check each call; return the macro-F1 and artifact size the metrics need."""
    corpus, scale, workload = inputs.corpus, run.scale, run.workload
    grid_train = corpus.train if workload == "grid_small" else corpus.train[: scale.side_train]
    cells = {}  # grid output directory -> the macro-F1 of each cell it printed
    for grid in client.keyed("grid"):
        out = _arg(grid, "--output.dir")
        cells[out] = run.check_grid(grid, out, grid_train)
    eval_size = {"train_svm": scale.side_dev, "score_shards": scale.shard_size, "grid_small": scale.grid_dev}[workload]
    confusions: dict[str, list] = {}
    for call in client.keyed("eval"):
        confusion = run.check_eval(call, eval_size)
        if confusion is None:
            continue
        if confusions.setdefault(call.key, confusion) != confusion:
            call.fail("eval of the same model and data gave another confusion matrix")
        if workload != "score_shards":
            model_dir = _arg(call, "--model-dir")
            grid_dir = model_dir if workload == "grid_small" else model_dir.parent.parent
            cell_f1 = cells.get(grid_dir, {}).get("svm.all_documents")
            if cell_f1 is None or abs(macro_f1(confusion) - cell_f1) > 1e-6:
                call.fail("eval of the grid's SVM / all_documents cell disagrees with the grid")
    for call in client.keyed("train"):
        out = _arg(call, "--output.dir")
        run.check_train_dir(call, out, corpus.train, "all_documents")
        if workload == "grid_small":
            # A standalone train of one cell must reproduce the grid's cell byte for byte.
            cell = out / "grid" / "svm_all_documents"
            for name in ("tfidf.txt", "model.txt", "manifest.txt"):
                if not (out / name).is_file() or (out / name).read_bytes() != (cell / name).read_bytes():
                    call.fail(f"standalone train {name} differs from the grid cell")
    if workload == "grid_small":
        best = 0.0
        for grid in client.keyed("grid"):
            printed = cells[_arg(grid, "--output.dir")]
            if printed:
                run.check_floor(grid, max(printed.values()))
                best = max(best, *printed.values())
        return {"macro_f1": best, "artifact_bytes": _dir_bytes(folder / "grid-0" / "grid")}
    if workload == "score_shards":
        found = {"macro_f1": macro_f1(_pool(confusions.values())), "artifact_bytes": _dir_bytes(inputs.files["model"])}
        for call in client.keyed("eval")[:1]:
            run.check_floor(call, found["macro_f1"])
        return found
    found = {"macro_f1": 0.0, "artifact_bytes": _dir_bytes(folder / "out")}
    for call in client.keyed("check"):
        confusion = run.check_eval(call, scale.svm_dev)
        found["macro_f1"] = macro_f1(confusion) if confusion else 0.0
        run.check_floor(call, found["macro_f1"])
    return found


def end_to_end(run: Run, setups: dict, client: ClientRun, found: dict) -> tuple[dict, list]:
    """Each timing is a median over the run's scaled calls of its command."""
    measured = dict(zip(map(id, client.calls), scaled([(call.start, call.wall) for call in client.calls], client.refs)))

    def times(key: str) -> list[float]:
        return [measured[id(call)] for call in client.keyed(key)]

    # score_shards trains only in its set-ups, which the reference brackets too.
    trains = scaled([(call.start, call.wall) for call in setups["trains"]], setups["refs"]) if setups["trains"] else times("train")
    evals = times("eval")
    tweets = {"train_svm": run.scale.side_dev, "score_shards": run.scale.shard_size, "grid_small": run.scale.grid_dev}
    percentile, tail_value = tail(evals)
    values = {
        "setup_s": statistics.median(scaled(setups["walls"], setups["refs"])),
        "train_s": statistics.median(trains),
        "eval_call_p50_s": statistics.median(evals),
        "eval_call_tail_s": tail_value,
        "score_tweets_per_s": tweets[run.workload] * len(evals) / sum(evals),
        "grid_s": statistics.median(times("grid")),
        "peak_rss_mb": client.peak_rss_mb,
        "artifact_bytes": found["artifact_bytes"],
        "macro_f1": found["macro_f1"],
    }
    counts = {key: len(client.keyed(key)) for key in ("train", "eval", "grid", "check")}
    raw = {key: round(statistics.median(call.wall for call in calls), 4) for key, calls in (
        ("train", setups["trains"] or client.keyed("train")), ("eval", client.keyed("eval")), ("grid", client.keyed("grid")))}
    raw["setup"] = round(statistics.median(wall for _, wall in setups["walls"]), 4)
    return values, [
        f"eval_call_tail_s is p{percentile:.1f} of {len(evals)} eval calls",
        f"measured calls: {counts}, in {1 + max(call.round for call in client.calls)} rounds",
        f"reference workload: median {statistics.median(s for _, s in client.refs):.4f} s over {len(client.refs)} runs "
        f"between the calls, {statistics.median(s for _, s in setups['refs']):.4f} s around the set-ups",
        f"unscaled medians, s: {raw}",
    ]


def per_layer(run: Run, traced: ClientRun) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    layer = spans.layer_metrics(traced.spans)
    values.update({name: value for name, value in layer.items() if name in values})
    values["trace.overhead_s"] = traced.overhead
    values["error_rate"] = run.failed / len(run.calls)
    return values


def execute(run: Run, trace: bool) -> tuple[dict, list]:
    """Untraced: set-ups, the measured client, checks, end-to-end metrics.

    Traced: one set-up, then the workload's own calls once, with span
    recording, and the per-layer metrics; set-up is never traced.
    """
    setups = {"walls": [], "trains": [], "refs": [] if trace else [synth_corpus.time_reference()]}
    for rep in range(1 if trace else SETUP_REPS):
        start = time.perf_counter()
        inputs = setup(run, rep)
        setups["walls"].append((start, time.perf_counter() - start))
        setups["trains"] += inputs.setup_calls
        if not trace:
            setups["refs"].append(synth_corpus.time_reference())
    measure = run.work / "measure"
    measure.mkdir()
    prologue, rounds = plan(run, inputs, measure)
    if trace:
        focus = [[call for call in calls if call[0].split(":")[0] == FOCUS[run.workload]] for calls in (prologue, rounds)]
        client = run.client("measure", *focus, once=True, trace=True)
    else:
        client = run.client("measure", prologue, rounds, reference=True)
    found = check(run, inputs, client, measure)
    shape = synth_corpus.shape(inputs.corpus.train)
    expected = run.expected(inputs.corpus.train, "all_documents")
    notes = [
        f"corpus: {shape['tweets']} train tweets, {shape['tokens']} tokens, {shape['types']} types, "
        f"labels {shape['labels']}, tags {shape['tags']}",
        f"feature space of the train split (all_documents): dimension {expected['dimension']}",
    ]
    if trace:
        if client.absent:
            notes.append(f"absent layer entry points: {', '.join(client.absent)}")
        (ROOT / ".bench_results").mkdir(exist_ok=True)
        trace_path = ROOT / ".bench_results" / f"trace-{run.workload}-{run.seed}.json"
        trace_path.write_text(json.dumps({"spans": client.spans, "absent": client.absent}), encoding="utf-8")
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        values = per_layer(run, client)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, notes
    values, more = end_to_end(run, setups, client, found)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, notes + more


def environment() -> str:
    env = _client_env()
    caps = ", ".join(f"{var}={env[var]}" for var in THREAD_VARS)
    return (
        f"env: nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
        f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}, {caps}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    # Exit through the finally blocks, which stop a running client, when asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "codemix" / "cli.py").is_file():
        print(f"bench: no codemix sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, SCALES[args.scale], args.seed, args.seconds, work)
    try:
        print(environment())
        metrics, notes = execute(run, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in notes:
        print(note)
    for call in run.calls:
        for reason in call.failures:
            print(f"FAILED {' '.join(call.argv[:1])}: {reason}")
    print(json.dumps({"correct": run.failed == 0, "attempted": len(run.calls), "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
