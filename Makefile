# Development targets for the DeepPlan reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full examples regolden clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Paper-sized serving experiments (full 3-hour trace, 1000+ requests per
# point); expect a multi-hour run.
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate tests/golden/paper_figures.json after a deliberate
# cost-model recalibration; review and commit the diff.
regolden:
	PYTHONPATH=src $(PYTHON) tests/make_golden.py

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
