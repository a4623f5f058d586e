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

# Churn + fault-injection soak of the live controller under the race
# detector: a faulty listener, self-closing re-dialing agents and
# churning stations.
chaos:
	$(GO) test -race -count=1 -run TestChaosSoakRace ./internal/protocol

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
	$(GO) test -race -count=1 -v ./internal/faults

# Record a flight ring from a controller while `s3proto -drive` loads it, stop
# the controller with SIGTERM, then decode and health-check the ring.
FLIGHT_DIR ?= /tmp/s3flight
FLIGHT_ADDR ?= 127.0.0.1:4790
flight-smoke:
	rm -rf $(FLIGHT_DIR) $(FLIGHT_DIR)-bin
	$(GO) build -o $(FLIGHT_DIR)-bin/ ./cmd/s3proto ./cmd/s3diag
	$(FLIGHT_DIR)-bin/s3proto -listen $(FLIGHT_ADDR) -flight-dir $(FLIGHT_DIR) -flight-every 100ms > $(FLIGHT_DIR)-bin/ctl.log & CTL=$$!; \
		until grep -q listening $(FLIGHT_DIR)-bin/ctl.log; do kill -0 $$CTL || exit 1; sleep 0.1; done; \
		$(FLIGHT_DIR)-bin/s3proto -drive $(FLIGHT_ADDR) -drive-hold 3s; \
		kill -TERM $$CTL; wait $$CTL
	$(FLIGHT_DIR)-bin/s3diag -dir $(FLIGHT_DIR) -check
	$(FLIGHT_DIR)-bin/s3diag -dir $(FLIGHT_DIR) -format summary -match protocol.

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
