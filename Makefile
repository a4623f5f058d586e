# Convenience targets for the s3wlan reproduction.

GO ?= go

.PHONY: all build fmt-check vet test race bench-selftest bench-ab loc chaos federation-chaos overload-soak flight-smoke bench experiments analyses ablations clean

all: build fmt-check vet test

build:
	$(GO) build ./...

# gofmt -l prints the files it would rewrite; any output fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a module of its own that compiles against internal/...; its
# self-test catches an internal API change that would break the benchmark.
bench-selftest:
	$(GO) -C bench test ./...

# A/B of this checkout against PARENT on workload W: N alternating pairs
# of `bench/run.sh --seed 1 --seconds 12`, medians, quartiles, k/N ahead
# and the verdict against BENCHMARK.json's bounds (scripts/bench-ab.sh).
PARENT ?= HEAD
W ?= paperfigs
N ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(W) $(N)

# Churn + fault-injection soak of the live controller (smoke check).
CHAOS_DUR ?= 5s
chaos:
	$(GO) run ./cmd/s3proto -chaos -chaos-dur $(CHAOS_DUR) -policy llf

# Cluster partition/kill/rejoin chaos: the 3-node kill -9 + oracle-replay
# suite under the race detector. The torn-tail takeover runs ten times:
# it once failed one run in ~22 (a record count that straddled the tear).
federation-chaos:
	$(GO) test -race -count=1 -v -run 'TestFederationChaos|TestRelayPartitioned|TestClusterSettles' ./internal/federation
	$(GO) test -race -count=10 -run 'TestFederationTornTail' ./internal/federation

# Flash-crowd overload soak under -race: admission shedding, panic
# containment, breaker trip/probe, shed-conservation oracle, and the
# scripted-fault soak with its SLOs.
overload-soak:
	$(GO) test -race -count=1 -v -run 'TestAdmission|TestShed|TestHelloTimeout|TestPanicContainment|TestOverloadSoak|TestBreaker|TestReportQueue' ./internal/protocol ./internal/federation
	$(GO) test -race -count=1 -v ./internal/faults ./internal/protocol/faultconn ./internal/journal/faultfile

# Record a chaos soak into a flight ring, then decode and health-check it.
FLIGHT_DIR ?= /tmp/s3flight
flight-smoke:
	rm -rf $(FLIGHT_DIR)
	$(GO) run ./cmd/s3proto -chaos -chaos-dur $(CHAOS_DUR) -flight-dir $(FLIGHT_DIR) -flight-every 100ms
	$(GO) run ./cmd/s3diag -dir $(FLIGHT_DIR) -check
	$(GO) run ./cmd/s3diag -dir $(FLIGHT_DIR) -format summary -match protocol.

# Non-test Go lines per top-level package and in total, bench/ excluded
# (and .bench_build/, where bench-ab checks out the parent): the size
# ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | \
		awk -F/ '{ pkg = ($$2 == "internal" || $$2 == "cmd" || $$2 == "examples") ? $$2 "/" $$3 : "." ; \
			while ((getline line < $$0) > 0) n[pkg]++; close($$0) } \
		END { for (p in n) { printf "%6d  %s\n", n[p], p; total += n[p] } printf "%6d  total\n", total }' | sort -k2

# One benchmark per paper table/figure plus module micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation figures on the default campus.
experiments:
	$(GO) run ./cmd/s3sim -generate -all

# Regenerate the measurement study (Figs 2-8, Table I).
analyses:
	$(GO) run ./cmd/s3analyze -generate -all

ablations:
	$(GO) run ./cmd/s3sim -generate -ablation all

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
