GO ?= go

.PHONY: all test race bench bench-check fuzz vet fmt experiments fsm examples dashboard-check clean

all: vet test

test:
	$(GO) test ./...

race:
	$(GO) test -race ./... ./rsm

bench:
	$(GO) test -bench=. -benchmem ./...

# bench/ is its own module: the root vet/test do not build it.
bench-check:
	$(GO) vet -C bench . && $(GO) test -C bench .

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzSplitGrouped -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzGossipRoundTrip -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzRecord -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzSnapshotBody -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzRecoverScan -fuzztime=30s ./internal/durable

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

experiments:
	$(GO) run ./cmd/twbench

fsm:
	$(GO) run ./cmd/twfsm

dashboard-check:
	$(GO) run ./cmd/twdashcheck docs/grafana/timewheel.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/replicated-counter
	$(GO) run ./examples/partition-healing
	$(GO) run ./examples/fail-aware
	$(GO) run ./examples/udp-cluster

clean:
	$(GO) clean -testcache
