# Convenience entry points mirroring the CI gates. Each target is a
# plain go/gofmt one-liner, so everything here also works without make.

.PHONY: lint lint-json lint-sarif fmt test bench profile verify loc

# The compile-time invariant gate: formatting, go vet, plus the
# hybridlint analyzer suite (same as CI's lint job, minus govulncheck
# which needs network access to the vuln DB).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "unformatted files:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/hybridlint ./...

# Machine-readable lint reports (out/lint/). The SARIF file is what CI
# uploads to code scanning.
lint-json:
	mkdir -p out/lint
	go run ./cmd/hybridlint -json ./... > out/lint/hybridlint.json; \
		status=$$?; cat out/lint/hybridlint.json; exit $$status

lint-sarif:
	mkdir -p out/lint
	go run ./cmd/hybridlint -sarif ./... > out/lint/hybridlint.sarif; \
		status=$$?; echo "wrote out/lint/hybridlint.sarif"; exit $$status

fmt:
	gofmt -w .

test:
	go build ./...
	go test ./...

bench:
	go test -bench=. -benchtime=1x -run '^$$' .

# CPU + heap profiles of BenchmarkTable1, the quick Table-I sweep of the
# root package's benchmarks (perfbench has no profile flag yet). Inspect
# with `go tool pprof out/pprof/cpu.out` (then `top`, `list <func>`, `web`).
profile:
	mkdir -p out/pprof
	go test -bench 'BenchmarkTable1$$' -benchtime=1x -run '^$$' \
		-cpuprofile out/pprof/cpu.out -memprofile out/pprof/mem.out \
		-o out/pprof/bench.test .
	@echo "profiles written to out/pprof/ (cpu.out, mem.out; binary bench.test)"

# Tracked Go source size: non-test and test line counts, perfbench/ excluded.
loc:
	@git ls-files '*.go' ':!:perfbench/*' | xargs wc -l | awk '$$2 != "total" { if ($$2 ~ /_test\.go$$/) t += $$1; else n += $$1 } END { printf "non-test %d\ntest %d\n", n, t }'

# Everything CI checks, in order.
verify: lint test
	go test -run TestSweepDeterminism -race ./internal/experiments/
	cd perfbench && go vet ./... && go test ./...
