import functools
import importlib.util
from pathlib import Path

import pytest

from liegeom.catalog import abelian_control, berger, loads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def berger_alg():
    return berger()


@pytest.fixture(scope="session")
def abelian_alg():
    return abelian_control()


@pytest.fixture(scope="session")
def bench_corpus():
    """The module ``bench/corpus.py``, loaded by path once per session."""
    path = ROOT / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


@pytest.fixture(scope="session")
def corpus_alg(bench_corpus):
    """The benchmark corpus algebra with a given key, parsed from the text in
    ``bench/corpus.py`` once per session."""
    return functools.cache(lambda key: loads(bench_corpus.TEXTS[key]))
