"""Golden bytes: the sha256 of every artifact that train writes and of preprocess's stdout.

The properties elsewhere compare the library with frozen oracles in the same environment, so they
still pass if a numpy or scipy release moves the bits. These digests pin the bytes themselves. They
depend on the numpy and scipy behaviour that README's "Reproducibility" section lists.

To re-record them after a deliberate change of the bytes, run this file as a script from the
repository root (``PYTHONPATH=src python tests/test_golden.py``) and paste what it prints.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import codemix
from codemix import cli

DATA = Path(__file__).parent / "data"
# seed_corpus.txt: 8 ASCII tweets. synth_corpus.txt: bench synth_corpus.generate(1, 120, 0).train,
# with emoji, accents and @, # and www. tokens, which every normalizer rule acts on.
CORPORA = ("seed_corpus", "synth_corpus")
KINDS = ("lr", "svm")
MODES = ("all_documents", "per_class_concatenated")
EPOCHS = 3
ARTIFACTS = ("tfidf.txt", "model.txt")

GOLDEN_TRAIN = {
    ("seed_corpus", "lr", "all_documents"): {
        "tfidf.txt": "bfe415cdef08dbba514b3c23bdb34f36dadb0b625e43add05f99225242cb4a82",
        "model.txt": "5dc91f29079d410d043cc518e2bf09053594498cca2c51a234c4fa32ff5bbf38",
    },
    ("seed_corpus", "lr", "per_class_concatenated"): {
        "tfidf.txt": "680974f4221096ae3d15e07c1b0a1a2869d797c5afcc696cce55063498e95107",
        "model.txt": "82b1c2d16b15df88621ac172342360f413ba4072ed095d3fbea1c5dc8e9b0af3",
    },
    ("seed_corpus", "svm", "all_documents"): {
        "tfidf.txt": "bfe415cdef08dbba514b3c23bdb34f36dadb0b625e43add05f99225242cb4a82",
        "model.txt": "66e9166b0328891d7be6cb7e117d6fada09f05d9713b1b1eb08d3861604e4f0d",
    },
    ("seed_corpus", "svm", "per_class_concatenated"): {
        "tfidf.txt": "680974f4221096ae3d15e07c1b0a1a2869d797c5afcc696cce55063498e95107",
        "model.txt": "a1caeb231c9ea78d0b3d136e72ba6eb71ee32561b00999c23ee021d2f57e0a93",
    },
    ("synth_corpus", "lr", "all_documents"): {
        "tfidf.txt": "b1a0c2cd67b127f1eba07e8f4588fe1a65404032f3a4dd57c1fc26af4cf86c6b",
        "model.txt": "5d447f1dad958ada61ee33cc7e06eb6cddf4a057a780cb66a0b7d3ac0187c5d1",
    },
    ("synth_corpus", "lr", "per_class_concatenated"): {
        "tfidf.txt": "76d8660e3038b9af93316968f5d881c3a83a3c7b8d6ab691e9770857479195a9",
        "model.txt": "337949b4246bd8a7068d679d969c21cb56af348831b6cad677fb2bce7fce68a7",
    },
    ("synth_corpus", "svm", "all_documents"): {
        "tfidf.txt": "b1a0c2cd67b127f1eba07e8f4588fe1a65404032f3a4dd57c1fc26af4cf86c6b",
        "model.txt": "2ab97e3eac9f9c95068bf7121cbe911e5f61a635a108fa5b5f6390827cc456e9",
    },
    ("synth_corpus", "svm", "per_class_concatenated"): {
        "tfidf.txt": "76d8660e3038b9af93316968f5d881c3a83a3c7b8d6ab691e9770857479195a9",
        "model.txt": "77295028befeb1a862e027c7810389252d18b76440659da45cf7a821b100dbc7",
    },
}
GOLDEN_PREPROCESS = {
    "seed_corpus": "7ddf6da5dcfa901b257f585f91f45547125f00d3d2d27746358d441cfec61b6d",
    "synth_corpus": "02c88d2a6f3874b60bf2939c1b4ce452440ac87d3f854ecd3689a584e6959c0c",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_digests(corpus: str, kind: str, mode: str, out_dir: Path) -> dict[str, str]:
    args = [
        "train", "--data.train", str(DATA / f"{corpus}.txt"), "--train.model", kind,
        "--vectorize.doc_mode", mode, "--train.epochs", str(EPOCHS), "--output.dir", str(out_dir),
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    return {name: _sha256((out_dir / name).read_bytes()) for name in ARTIFACTS}


def preprocess_digest(corpus: str) -> str:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["preprocess", "--data", str(DATA / f"{corpus}.txt")]) == 0
    return _sha256(stdout.getvalue().encode("utf-8"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("corpus", CORPORA)
def test_train_writes_the_golden_bytes(tmp_path, corpus, kind, mode):
    assert train_digests(corpus, kind, mode, tmp_path) == GOLDEN_TRAIN[corpus, kind, mode]


@pytest.mark.parametrize("corpus", CORPORA)
def test_preprocess_prints_the_golden_bytes(corpus):
    assert preprocess_digest(corpus) == GOLDEN_PREPROCESS[corpus]


def avx512_dispatch_targets() -> list[str]:
    """The AVX-512 targets that numpy dispatches to on this host, by the names NPY_DISABLE_CPU_FEATURES takes."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [
        name
        for name in umath.__cpu_dispatch__
        if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)
    ]


@pytest.mark.parametrize("kind", ["lr", "mnb"])
def test_model_bytes_do_not_depend_on_numpy_simd(tmp_path, kind):
    # numpy picks its exp and log code by CPU at run time, and its AVX-512 code differs from libm's in
    # the last bit. The widest n-grams give MNB enough distinct likelihoods to hit such a value.
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("numpy runs no AVX-512 code here: the CPU lacks it, or NPY_DISABLE_CPU_FEATURES turned it off")
    args = [
        "train", "--data.train", str(DATA / "synth_corpus.txt"), "--train.model", kind, "--train.epochs", str(EPOCHS),
        "--vectorize.word_ngram_max", "3", "--vectorize.char_ngram_min", "1", "--vectorize.char_ngram_max", "8",
    ]
    with redirect_stdout(io.StringIO()):
        assert cli.main([*args, "--output.dir", str(tmp_path / "simd")]) == 0
    path = os.pathsep.join(filter(None, [str(Path(codemix.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets), "PYTHONPATH": path}
    command = [sys.executable, "-m", "codemix.cli", *args, "--output.dir", str(tmp_path / "libm")]
    subprocess.run(command, env=env, check=True, capture_output=True)
    for name in ARTIFACTS:
        assert (tmp_path / "simd" / name).read_bytes() == (tmp_path / "libm" / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN_TRAIN = {")
        for corpus in CORPORA:
            for kind in KINDS:
                for mode in MODES:
                    digests = train_digests(corpus, kind, mode, Path(workdir) / f"{corpus}_{kind}_{mode}")
                    print(f'    ("{corpus}", "{kind}", "{mode}"): {{')
                    for name, digest in digests.items():
                        print(f'        "{name}": "{digest}",')
                    print("    },")
        print("}")
    print("GOLDEN_PREPROCESS = {")
    for corpus in CORPORA:
        print(f'    "{corpus}": "{preprocess_digest(corpus)}",')
    print("}")
