# Convenience targets for the s3wlan reproduction.

GO ?= go

.PHONY: all build fmt-check vet test race fma-check bench-selftest bench-ab bench-record loc paper-scale chaos federation-chaos overload-soak flight-smoke bench experiments analyses ablations clean

all: build fmt-check vet test

build:
	$(GO) build ./...

# gofmt -l prints the files it would rewrite; any output fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# No fused multiply-add in any non-test package. Go may fuse x*y + z into
# one instruction on arm64, ppc64le, s390x and riscv64 (never on amd64),
# which skips the rounding of x*y, and one ULP in the balance index flips
# Algorithm 1's placements; such a product is written float64(x*y). This
# fails on any fused mnemonic, float64 or float32 form, in the packages'
# assembly for each GOARCH:mnemonics pair below (kept in a .txt: a .s
# file at the root would be assembled into the root package).
FMA_ARCHS = 'arm64:FN?M(ADD|SUB)[DS]' 'ppc64le:FN?M(ADD|SUB)S?' \
	's390x:FN?M(ADD|SUB)S?' 'riscv64:FN?M(ADD|SUB)[DS]'
fma-check:
	@for spec in $(FMA_ARCHS); do arch=$${spec%%:*} ops=$${spec#*:}; \
	  GOARCH=$$arch $(GO) build -gcflags=-S ./... > fma-$$arch.txt 2>&1 || { tail -20 fma-$$arch.txt; exit 1; }; \
	  grep -q TEXT fma-$$arch.txt || { echo "fma-check: no $$arch assembly in fma-$$arch.txt"; exit 1; }; \
	  if grep -wE "$$ops" fma-$$arch.txt; then echo "fma-check: fused multiply-add on $$arch above; round the product as float64(x*y)"; exit 1; fi; \
	done

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
# with its exact sign-test p and the verdict against BENCHMARK.json's
# bounds, then one traced run per side; it fails if the two sides'
# driver.assign_hash differ (scripts/bench-ab.sh).
PARENT ?= HEAD
W ?= paperfigs
N ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(W) $(N)

# One point of the perf trajectory, written to BENCH_OUT: every workload
# run once untraced and once traced (`bench/run.sh --workload all`, seed
# 1, 12 s), host facts, the four driver.assign_hash, `make loc`'s rows
# and the pairs any bench-ab run left in .bench_build/ab-<W>/
# (scripts/bench-record.sh).
BENCH_OUT ?= BENCH.json
bench-record:
	bash scripts/bench-record.sh $(BENCH_OUT)

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

# Record a flight ring from a controller while `s3 proto -drive` loads it, stop
# the controller with SIGTERM, then decode and health-check the ring.
FLIGHT_DIR ?= /tmp/s3flight
FLIGHT_ADDR ?= 127.0.0.1:4790
flight-smoke:
	rm -rf $(FLIGHT_DIR) $(FLIGHT_DIR)-bin
	$(GO) build -o $(FLIGHT_DIR)-bin/ ./cmd/s3
	$(FLIGHT_DIR)-bin/s3 proto -listen $(FLIGHT_ADDR) -flight-dir $(FLIGHT_DIR) -flight-every 100ms > $(FLIGHT_DIR)-bin/ctl.log & CTL=$$!; \
		until grep -q listening $(FLIGHT_DIR)-bin/ctl.log; do kill -0 $$CTL || exit 1; sleep 0.1; done; \
		$(FLIGHT_DIR)-bin/s3 proto -drive $(FLIGHT_ADDR) -drive-hold 3s; \
		kill -TERM $$CTL; wait $$CTL
	$(FLIGHT_DIR)-bin/s3 diag -dir $(FLIGHT_DIR) -check
	$(FLIGHT_DIR)-bin/s3 diag -dir $(FLIGHT_DIR) -format summary -match protocol.

# Non-test Go lines per top-level package and in total, bench/ excluded
# (and .bench_build/, where bench-ab checks out the parent): the size
# ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | \
		awk -F/ '{ pkg = ($$2 == "internal" || $$2 == "cmd") ? $$2 "/" $$3 : "." ; \
			while ((getline line < $$0) > 0) n[pkg]++; close($$0) } \
		END { for (p in n) { printf "%6d  %s\n", n[p], p; total += n[p] } printf "%6d  total\n", total }' | sort -k2

# The paper-scale campus (synth's "paper" preset: 12 374 users, 330 APs,
# 90 days) prepared once, as experiments.Prepare does it: wall time and the
# peak HeapInuse sampled every 20 ms (BenchmarkPreparePaper).
paper-scale:
	$(GO) test -run '^$$' -bench PreparePaper -benchtime 1x ./internal/experiments

# One benchmark per paper table/figure plus module micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation figures on the default campus.
experiments:
	$(GO) run ./cmd/s3 sim -generate -all

# Regenerate the measurement study (Figs 2-8, Table I).
analyses:
	$(GO) run ./cmd/s3 analyze -generate -all

ablations:
	$(GO) run ./cmd/s3 sim -generate -ablation all

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
