# Developer entry points. CI's test job runs fmt-check and loc; the other
# targets are the commands its steps spell out.

.PHONY: build test vet race fmt-check loc bench

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

# bench runs the repository benchmark (BENCHMARK.json, bench/README.md):
# all four workloads, untraced then traced. For one workload, run
# `sh bench/run.sh --workload W --seed N --seconds 10 --trace 0` directly.
bench:
	sh bench/run.sh
