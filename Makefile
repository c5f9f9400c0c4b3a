.PHONY: install test bench bench-josim bench-pulse bench-cpu bench-service serve experiments examples quick all lint-netlists lvs

install:
	pip install -e .

test:
	pytest tests/

# Static SFQ netlist verification (same gate CI runs): structural rules,
# pulse-timing races, budget cross-checks and schedule validation over
# every built-in register-file design.
lint-netlists:
	PYTHONPATH=src python -m repro.lint --fail-on error

# Netlist interchange round-trip gate (same as the CI lvs job): every
# built-in design is lowered to structural Verilog and a JoSIM/SPICE
# deck, parsed back, and LVS-compared against the in-memory graph;
# seeded defects (pin swap, dropped wire, duplicated instance, renamed
# net) must be *detected* by the same comparison.
lvs:
	PYTHONPATH=src python -m repro.interchange lvs --with-mutations

bench:
	pytest benchmarks/ --benchmark-only

# Tracks the RCSJ solver speedup trajectory across PRs: writes machine-
# readable timings (incl. the reference-solver baseline) to BENCH_josim.json.
bench-josim:
	PYTHONPATH=src pytest benchmarks/bench_josim.py --benchmark-only \
		--benchmark-json=BENCH_josim.json

# Tracks the compiled pulse-engine backend against the reference event
# loop (DRO column, HC-DRO/LoopBuffer traffic, 32x32 op mix) and the
# build-once netlist cache: writes BENCH_pulse.json.
bench-pulse:
	PYTHONPATH=src pytest benchmarks/bench_pulse_engine.py --benchmark-only \
		--benchmark-json=BENCH_pulse.json

# Tracks the CPU tier on the Figure 14 programs: the cold tape build
# (OpTape.from_program against the Executor + OpTape.from_ops oracle,
# tapes asserted equal) and the compiled op-tape replay against the
# reference pipeline on the multi-design sweep (trace cache warm):
# writes BENCH_cpu.json, including both enforced >= 3x speedups.
bench-cpu:
	PYTHONPATH=src pytest benchmarks/bench_cpu.py --benchmark-only \
		--benchmark-json=BENCH_cpu.json

# Tracks the coalescing simulation service against naive per-request
# execution on a mixed 200-request workload with overlapping keys:
# writes BENCH_service.json, including the enforced >= 3x jobs/sec
# speedup and bitwise artifact identity.
bench-service:
	PYTHONPATH=src pytest benchmarks/bench_service.py --benchmark-only \
		--benchmark-json=BENCH_service.json

# Run the coalescing simulation job service (JSON over HTTP).
serve:
	PYTHONPATH=src python -m repro.service

experiments:
	hiperrf-experiments all

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

quick:
	hiperrf-experiments table1 table3 fullchip

all: install test bench experiments
