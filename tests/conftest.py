import pytest
from hypothesis import settings

from codemix.preprocess import default_lexicon

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failure prints the blob that replays it locally (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()
