GO ?= go

.PHONY: all build vet lint test race deflake clean

all: build vet test

build:
	$(GO) build ./...

# vet runs the stock go vet plus all six gammavet analyzers repo-wide —
# determinism, costcharge, faultpoint, unitflow, leakcheck, wallclock — each
# over the packages in its analysis.Analyzer Scope (docs/STATIC_ANALYSIS.md).
# Any diagnostic fails the build.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/gammavet ./...

# lint is the historical alias for vet.
lint: vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# deflake is the flakiness audit: the whole test suite 5x under the race
# detector, TestGolden's pinned gammabench rows and TestSimBaseline's
# benchmark cases included; any run-to-run variance fails it.
deflake:
	$(GO) test -count=5 -race ./...

clean:
	$(GO) clean ./...
