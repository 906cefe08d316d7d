"""Closed-loop client: runs ``codemix`` CLI calls one after another in this process.

Usage: python3 client.py JOB.json RESULT.json

The job names the checkout's ``src`` directory, a prologue of calls made
once, a round of calls repeated in order, a measuring window in seconds,
the least number of rounds and whether to trace.  Each call is a
``[key, argv]`` pair: the key names what the call measures, and calls with
the same key have the same inputs.  Each call goes through
``codemix.cli.main`` exactly as the ``codemix`` console script does, with
its standard streams captured.  The next call starts only after the
previous one returned, and garbage left by one call is collected before
the next one starts, outside its timing.

Rounds repeat until the next one would end past the window, counted from
the first call, and at least the least number of rounds run.  With
``reference`` set, the benchmark's fixed reference workload runs before
the first call and after each call, outside the calls' timings, and its
run times are returned with the moments they were taken: they tell how
fast the machine ran meanwhile.  A ``{i}`` in
an argument is replaced by the round's index so that repeated calls write
to fresh directories.

The result file lists, per call, its key, round, arguments, exit code,
start, wall time and captured output, plus the reference times, the
spans recorded when tracing and the time the recording itself took.
"""

import contextlib
import gc
import io
import json
import sys
import time
import traceback
from dataclasses import asdict


def _run(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crashing call is a failed call, not a crashed client
            traceback.print_exc()
            code = 1
    return int(code or 0), out.getvalue()


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, job["bench"])
    from codemix import cli

    import spans
    import synth_corpus

    recorder = spans.Recorder()
    absent = spans.instrument(cli, recorder) if job["trace"] else []
    calls, refs = [], []

    def reference() -> None:
        if job["reference"]:
            refs.append(synth_corpus.time_reference())

    def call(key: str, argv: list[str], round_: int) -> None:
        gc.collect()
        recorder.call = len(calls)
        root = recorder.begin(f"cli.{argv[0]}") if job["trace"] else None
        start = time.perf_counter()
        code, output = _run(cli, argv)
        wall = time.perf_counter() - start
        if root is not None:
            recorder.end(root)
        calls.append({"key": key, "round": round_, "argv": argv, "exit": code, "start": start, "wall": wall,
                      "output": output})
        reference()

    reference()
    began = time.perf_counter()
    for key, argv in job["prologue"]:
        call(key, argv, -1)
    rounds = 0
    while job["rounds"]:
        round_began = time.perf_counter()
        for key, template in job["rounds"]:
            call(key, [arg.replace("{i}", str(rounds)) for arg in template], rounds)
        rounds += 1
        now = time.perf_counter()
        if rounds >= job["min_rounds"] and now + (now - round_began) - began > job["seconds"]:
            break
    with open(result_path, "w", encoding="utf-8") as handle:
        spans_ = [asdict(span) for span in recorder.spans]
        json.dump({"calls": calls, "refs": refs, "spans": spans_, "absent": absent, "overhead": recorder.overhead}, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
