"""EXPERIMENTS.md is exactly what its generator builds from the results.

A hand edit to EXPERIMENTS.md, or a committed result file or generator
text that the document does not reflect, fails here; rerun
``python benchmarks/make_experiments_md.py`` and commit the result.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_committed_document_matches_generator():
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md", ROOT / "benchmarks" / "make_experiments_md.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.render() == (ROOT / "EXPERIMENTS.md").read_text()
