# Convenience targets for the TIBFIT reproduction.

PYTHON ?= python

.PHONY: install test perfbench-test bench bench-save bench-compare bench-e2e bench-e2e-compare bench-e2e-save bench-service bench-service-compare bench-service-save profile profile-e2e examples figures golden-save chaos serve clean

install:
	pip install -e '.[test]'

# Tier-1 verification, exactly as ROADMAP.md specifies -- PYTHONPATH
# keeps it working without an editable install.
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q

# The benchmark's own suite (perfbench/README.md): shares partition
# time, inputs are seed-determined, and every layer entry point exists.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Save the kernel microbench medians as the perf baseline
# (BENCH_kernel.json), and compare a fresh run against it -- fails on
# a >25% regression in any bench.
bench-save:
	$(PYTHON) benchmarks/bench_baseline.py save

bench-compare:
	$(PYTHON) benchmarks/bench_baseline.py compare

# End-to-end wall-time benches: one fixed sweep point per experiment
# through the production run_point/run_decay path (BENCH_e2e.json).
# `bench-e2e` compares against the saved medians; `bench-e2e-save`
# re-records them (prior numbers are kept in the file's history).
bench-e2e: bench-e2e-compare

bench-e2e-compare:
	$(PYTHON) benchmarks/bench_e2e.py compare

bench-e2e-save:
	$(PYTHON) benchmarks/bench_e2e.py save

# Trust-service load benches: resident-session scale, ingest
# throughput/latency, and HTTP round trips (BENCH_service.json).
bench-service: bench-service-compare

bench-service-compare:
	$(PYTHON) benchmarks/bench_service.py compare

bench-service-save:
	$(PYTHON) benchmarks/bench_service.py save

# cProfile one representative Experiment 2 sweep point and print the
# top-20 cumulative functions -- the next hot spot, one command away.
profile:
	PYTHONPATH=src $(PYTHON) benchmarks/profile_hotspots.py

# cProfile every BENCH_e2e.json sweep point (top-25 cumulative each),
# stamped with the decision backend in effect.
profile-e2e:
	$(PYTHON) benchmarks/bench_e2e.py profile

# Run every example script in sequence.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/perimeter_watch.py
	$(PYTHON) examples/seismic_decay.py
	$(PYTHON) examples/ch_failover.py
	$(PYTHON) examples/rotating_clusters.py
	$(PYTHON) examples/multihop_watch.py
	$(PYTHON) examples/target_tracking.py
	$(PYTHON) examples/chaos_campaign.py

# Regenerate the golden-run regression fixtures (tests/golden/*.json).
# Only after an INTENTIONAL behaviour change; review and commit the diff.
golden-save:
	PYTHONPATH=src $(PYTHON) -m tests.golden.generate

# Serve the trust-session engine over HTTP (see docs/service.md).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve

# Quick deterministic fault-injection campaign (see docs/chaos.md).
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 2 --rounds 10

# Regenerate every figure's data series via the CLI (fast settings).
figures:
	$(PYTHON) -m repro fig 10
	$(PYTHON) -m repro fig 11
	$(PYTHON) -m repro fig 2 --trials 1
	$(PYTHON) -m repro fig 3 --trials 1

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
