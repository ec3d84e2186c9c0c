.PHONY: check test lint typecheck invariants invariants-all sarif

PYTHON ?= python

# The full local gate: everything CI runs, in one command.
check: invariants invariants-all lint typecheck test

test:
	$(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/e2e/test_helpers.py

lint:
	ruff check .

# Strict on the paper-critical layers (core algorithm, streaming
# engine, observability, sequence models, baselines), baseline
# strictness (from pyproject [tool.mypy]) on the rest.
typecheck:
	mypy --strict src/repro/core src/repro/obs src/repro/stream src/repro/shard src/repro/sequences src/repro/baselines
	mypy src/repro

# Repo-specific invariants (CLQ001-CLQ010, two-pass whole-program
# analysis); stdlib-only, always runnable even where ruff/mypy are
# not installed. The committed baseline is empty: src/repro is clean.
invariants:
	$(PYTHON) -m tools.checkers src/repro --baseline tools/checkers/baseline.json

# The relaxed sweep over test and benchmark code (package-scoped rules
# no-op there; CLQ004 and the inline-leak check still apply).
invariants-all:
	$(PYTHON) -m tools.checkers src/repro tests benchmarks --baseline tools/checkers/baseline.json

# SARIF export for GitHub code scanning (CI uploads this artifact).
sarif:
	$(PYTHON) -m tools.checkers src/repro tests benchmarks --baseline tools/checkers/baseline.json --sarif cluseq.sarif || true
	@echo "wrote cluseq.sarif"
