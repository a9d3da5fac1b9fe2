# Developer entry points. CI runs the same targets so local runs and the
# pipeline cannot drift.

.PHONY: build test vet race fmt-check loc bench bench-sqlexec bench-server bench-storage bench-loadgen bench-enumerate

# DATA_DIR is the segment store the load-harness invocations share: the
# first run persists each generated database under its spec content
# address, later runs (and later targets in the same CI job) cold-start
# from disk instead of regenerating. Point it somewhere persistent to keep
# the cache across invocations; it is safe to delete at any time.
DATA_DIR ?= /tmp/duoquest-segments

build:
	go build ./...

test: build
	go test ./...

vet:
	go vet ./...

race:
	go test -race -short ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean;
# CI runs it so formatting drift cannot land.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints the line ledger ROADMAP.md and CHANGES.md quote: non-test Go
# lines, then test Go lines (the last line of each wc is the total).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | tail -1
	@find . -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | tail -1

# bench runs every recorded benchmark once (equivalence self-checks run
# regardless of -benchtime) and records machine-readable results into
# BENCH_*.json so the perf trajectory is tracked in-repo and the benchmarks
# cannot bit-rot. All targets pass -benchmem so allocation wins are
# recorded alongside ns/op (benchjson promotes B/op and allocs/op).
bench: bench-sqlexec bench-storage bench-server bench-loadgen bench-enumerate

bench-sqlexec:
	@go test ./internal/sqlexec -run '^$$' -bench 'BenchmarkExists|BenchmarkExecute' -benchtime 5x -benchmem > bench.out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat bench.out; rm -f bench.out; exit $$status; fi; \
	go run ./cmd/benchjson -out BENCH_sqlexec.json < bench.out; \
	status=$$?; rm -f bench.out; exit $$status

# bench-storage measures the streaming pipeline on three probe workloads
# (flat, grouped, and the MAS end-to-end verification workload), each
# self-checked probe for probe against the materializing reference before it
# is timed. The BenchmarkMorsel* family rides along at a lower -benchtime (the 300k/1M-row
# sweep databases make each iteration expensive): the morsel fan-out at
# explicit worker counts, each configuration equivalence-checked against the
# single-threaded columnar pipeline before timing. BenchmarkSegment{Write,
# Load,Rebuild} record the durable segment store's cold-start economics:
# persist cost, cold-start load cost (fingerprint-verified), and the
# regenerate-from-spec alternative the load replaces — Load vs Rebuild at
# 1M rows is the cold-start speedup EXPERIMENTS.md tracks.
bench-storage:
	@{ go test ./internal/sqlexec -run '^$$' -bench 'BenchmarkColumnar' -benchtime 20x -benchmem && go test ./internal/sqlexec -run '^$$' -bench 'BenchmarkMorsel' -benchtime 3x -benchmem && go test ./internal/storage/segment -run '^$$' -bench 'BenchmarkSegment' -benchtime 5x -benchmem; } > bench.out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat bench.out; rm -f bench.out; exit $$status; fi; \
	go run ./cmd/benchjson -out BENCH_storage.json < bench.out; \
	status=$$?; rm -f bench.out; exit $$status

# bench-loadgen records the synthetic-workload family: the paired
# bulk-vs-row ingestion benchmarks (with the byte-identical equivalence
# self-check), the data-scale verification sweep (rows vs ns/op over
# generated databases), and the closed-loop service load harness
# (cmd/duoquest-loadtest), whose bench-format stdout is appended to the
# same artifact. The harness runs with pinned concurrency (-c 4) so the
# recorded closed-loop latency does not track the recording machine's
# core count, keeping the CI regression gate comparable across hosts.
bench-loadgen:
	@{ go test ./internal/loadgen ./internal/sqlexec -run '^$$' -bench 'BenchmarkLoadgen' -benchtime 3x -benchmem && go run ./cmd/duoquest-loadtest -scale small -c 4 -data-dir $(DATA_DIR); } > bench.out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat bench.out; rm -f bench.out; exit $$status; fi; \
	go run ./cmd/benchjson -out BENCH_loadgen.json < bench.out; \
	status=$$?; rm -f bench.out; exit $$status

# bench-server measures concurrent mixed-database serving through the HTTP
# layer: per-request caches (baseline) vs the shared cold and warm engine —
# plus the chaos harness's cancel-to-return sweep (cmd/duoquest-loadtest
# -chaos), which both gates clean-vs-faulty result equivalence and records
# the deadline-fire-to-return quantiles at each data scale, and the mixed
# read/write epoch scenario (-write-frac 0.1): live Engine.Append traffic
# interleaved with reads, recording the read p95 under ingest as
# BenchmarkLoadtestMixedRW (its ns/op IS the mixed p95, so the benchjson
# gate regresses it like any other benchmark; the harness also warns when
# it exceeds 1.5x the same run's read-only baseline).
bench-server:
	@{ go test ./cmd/duoquest-server -run '^$$' -bench BenchmarkServerThroughput -benchtime 5x -benchmem && go run ./cmd/duoquest-loadtest -chaos -scale small -c 4 -data-dir $(DATA_DIR) && go run ./cmd/duoquest-loadtest -scale small -c 4 -requests 192 -write-frac 0.1 -sweep "" -data-dir $(DATA_DIR); } > bench.out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat bench.out; rm -f bench.out; exit $$status; fi; \
	go run ./cmd/benchjson -out BENCH_server.json < bench.out; \
	status=$$?; rm -f bench.out; exit $$status

# bench-enumerate records what one explored GPQE state costs on the
# repository benchmark's own Spider inputs (197 tasks, with and without the
# TSQ, warm shared caches, default pool size): ns/op is one pass over the
# tasks, and the custom metrics give ns, bytes and allocations per state.
bench-enumerate:
	@go test ./internal/enumerate -run '^$$' -bench 'BenchmarkEnumerateSpider' -benchtime 5x -benchmem > bench.out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat bench.out; rm -f bench.out; exit $$status; fi; \
	go run ./cmd/benchjson -out BENCH_enumerate.json < bench.out; \
	status=$$?; rm -f bench.out; exit $$status
