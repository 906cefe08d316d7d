"""Golden bytes: the sha256 of every artifact that train writes and of preprocess's stdout.

The properties elsewhere compare the library with frozen oracles in the same environment, so they
still pass if a numpy or scipy release moves the bits. These digests pin the bytes themselves. They
depend on the numpy and scipy behaviour that README's "Reproducibility" section lists.

To re-record them after a deliberate change of the bytes, run this file as a script from the
repository root (``PYTHONPATH=src python tests/test_golden.py``) and paste what it prints.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

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
        "model.txt": "4804e1f3affb9a00dfcad79cb10adcc198a324101228c4dbb6493b847bda995b",
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
        "model.txt": "a6428fc19ec191e399fef92e2f912d6307949869eac8150670f82c96c3c21fba",
    },
    ("synth_corpus", "lr", "per_class_concatenated"): {
        "tfidf.txt": "76d8660e3038b9af93316968f5d881c3a83a3c7b8d6ab691e9770857479195a9",
        "model.txt": "fc2a8896b8ed8818701a82a057fac8ff69dce0360badda1bba246e6b29a42679",
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
