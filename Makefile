GO ?= go
# FUZZTIME is the per-target budget of fuzz-smoke; CI raises it on the
# nightly schedule.
FUZZTIME ?= 10s
# BENCHCOUNT is how many times bench-compare repeats each benchmark before
# averaging; raise it for quieter numbers.
BENCHCOUNT ?= 3
# Soak shape: ISSUE 6's acceptance floor is 4 sessions × 64 clients over
# real TCP with churn + floor contention; CI's nightly job raises DURATION.
SOAK_SESSIONS ?= 4
SOAK_CLIENTS ?= 64
SOAK_DURATION ?= 20s
SOAK_OUT ?= bench-soak.json
SOAK_FLAGS ?=
# Observer-tier soak shape: ISSUE 8's interest-management scenario — one
# steering session, a 4k observer fleet of which 1% subscribed to the live
# echo channel, coalesced observer-tier delivery.
SOAK_OBS_CLIENTS ?= 4096
SOAK_OBS_INTEREST ?= 0.01
SOAK_OBS_DURATION ?= 20s
SOAK_OBS_OUT ?= bench-soak-observer.json
SOAK_OBS_FLAGS ?=

.PHONY: check vet lint steervet staticcheck vulncheck build test test-framedebug loc bench steerbench steerbench-test bench-hotpath bench-smoke bench-compare fuzz-smoke cover soak soak-observer

check: vet lint build test test-framedebug bench-smoke

vet:
	$(GO) vet ./...

# lint is the static-analysis gate: steervet (the in-tree go/analysis suite
# that machine-checks the hot path's hand-maintained invariants — FrameBuf
# refcount balance, //steer:hotpath allocation freedom, atomic-field access
# discipline) always runs; staticcheck and govulncheck run when installed
# (the dev container is offline, CI installs them).
lint: steervet staticcheck vulncheck

steervet:
	$(GO) run ./cmd/steervet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'lint: staticcheck not installed, skipping (CI runs it)'; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo 'lint: govulncheck not installed, skipping (CI runs it nightly)'; \
	fi

# build also builds and vets bench/, its own module: ./... never reaches it,
# so an engine change that deletes surface the benchmark uses fails here.
# bench's tests run under steerbench-test, not here.
build:
	$(GO) build ./...
	cd bench && $(GO) build ./... && $(GO) vet ./...

test:
	$(GO) test ./...

# test-framedebug re-runs the packages that enforce buffer lifetime rules
# with poisoning compiled in: a FrameBuf read past its last Release, or a
# pixel.Tile's Pix kept past the DecodeTiles callback that lent it, fails
# deterministically instead of racing the pool's next user. internal/hub is
# here because the daemons and steerbench drain every frame through it.
# -race matches the CI step over the same packages.
test-framedebug:
	$(GO) test -race -tags framedebug ./internal/core ./internal/hub ./internal/journal \
		./internal/pixel ./internal/vnc ./internal/vizserver

# loc prints non-test Go line counts for internal/core, internal/hub,
# internal/sim/pepc (the benchmark's app) and the module outside bench/ (its
# own module), so a change that collapses code reports one reproducible delta.
loc:
	@for d in internal/core internal/hub internal/sim/pepc; do \
		printf '%-18s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-18s %6d\n' 'repo w/o bench' \
		$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

bench:
	$(GO) test -bench=. -benchmem .

# steerbench is the repository's one pinned benchmark (BENCHMARK.json,
# bench/README.md): every workload untraced then traced, one child process
# per run. bench/ is its own module, so ./... above never reaches it;
# steerbench-test runs its tests. Not in `check` or CI yet: TestSmoke's
# last observe.hall assertion (observer deliver >= 5x steering deliver)
# describes the hold the steer push-through removed and fails until a
# benchmark-only change updates bench/bench_test.go.
steerbench:
	$(GO) run -C bench repro/bench

steerbench-test:
	cd bench && $(GO) test ./...

# bench-hotpath is the broadcast hot-path measurement from DESIGN.md §4.1:
# allocs/op must sit at 0 in the steady state, and ns/op should fall as
# -cpu grows (no session lock on the path).
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BroadcastHotPath|BroadcastContention' -benchmem -cpu 1,4,16 ./internal/core

# cover writes coverage.out and prints the total statement coverage; CI
# surfaces the same line in the job summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# bench-smoke compiles and runs every benchmark exactly once so bench bitrot
# fails the build without paying for a full measurement run. The final step
# asserts the journal benchmarks still exist by name (`-bench` with a
# non-matching pattern exits 0, so the sweep alone would not notice the
# durability subsystem's benches being renamed away). `-list` sees only
# top-level benchmarks, so the pooled journal tap leg is run by name.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	@out=$$($(GO) test -run '^$$' -list 'Benchmark(JournalAppend|CatchupReplay)' ./internal/journal); \
	echo "$$out" | grep -q BenchmarkJournalAppend && echo "$$out" | grep -q BenchmarkCatchupReplay \
		|| { echo 'bench-smoke: journal benchmarks missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -bench 'JournalAppend/pooled' -benchtime 1x ./internal/journal); \
	echo "$$out" | grep -q 'BenchmarkJournalAppend/pooled' \
		|| { echo 'bench-smoke: pooled journal tap benchmark missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -list 'Benchmark(BroadcastHotPath|BroadcastContention|BroadcastInterest|EgressWritev)' ./internal/core); \
	echo "$$out" | grep -q BenchmarkBroadcastHotPath && echo "$$out" | grep -q 'BenchmarkBroadcastContention$$' \
		&& echo "$$out" | grep -q BenchmarkBroadcastContention1k \
		&& echo "$$out" | grep -q 'BenchmarkBroadcastInterest$$' \
		&& echo "$$out" | grep -q BenchmarkEgressWritev \
		|| { echo 'bench-smoke: broadcast hot-path benchmarks missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -list 'Benchmark(EnvelopeDecode|ProtocolCodec)' ./internal/core); \
	echo "$$out" | grep -q 'BenchmarkEnvelopeDecode$$' && echo "$$out" | grep -q 'BenchmarkProtocolCodec$$' \
		|| { echo 'bench-smoke: envelope codec benchmarks missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -list 'BenchmarkE12_CollaborationScaling' .); \
	echo "$$out" | grep -q BenchmarkE12_CollaborationScaling \
		|| { echo 'bench-smoke: E12 live-hub collaboration benchmark missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -list 'BenchmarkTileCodec' ./internal/pixel); \
	echo "$$out" | grep -q BenchmarkTileCodec \
		|| { echo 'bench-smoke: pixel tile codec benchmark missing'; exit 1; }
	@out=$$($(GO) test -run '^$$' -list 'BenchmarkStep' ./internal/sim/pepc); \
	echo "$$out" | grep -q 'BenchmarkStep$$' \
		|| { echo 'bench-smoke: pepc step benchmark missing'; exit 1; }

# bench-compare re-measures the benchmarks recorded in the committed
# baselines and prints benchstat-style delta tables (cmd/benchcompare is
# the stdlib-only comparator): the fan-out/broadcast suite against
# BENCH_4.json, the interest-management suite against BENCH_8.json, the
# vectored-egress suite against BENCH_9.json (-filter because those
# baselines also carry soak latency keys, which only the steerload soaks
# can re-measure), then the E12 live-hub collaboration-scaling suite
# against BENCH_10.json. Informational by default; set
# BENCHCOMPARE_FLAGS='-max-regress 1.3' to gate.
bench-compare:
	$(GO) test -run '^$$' -bench 'HubFanout|SessionFanoutBaseline' -benchmem -count $(BENCHCOUNT) . > bench-new.txt
	$(GO) test -run '^$$' -bench 'BroadcastHotPath|BroadcastContention' -benchmem -count $(BENCHCOUNT) ./internal/core >> bench-new.txt
	$(GO) run ./cmd/benchcompare -baseline BENCH_4.json -new bench-new.txt $(BENCHCOMPARE_FLAGS) | tee bench-compare.txt
	$(GO) test -run '^$$' -bench 'BroadcastInterest' -benchmem -count $(BENCHCOUNT) ./internal/core > bench-interest.txt
	$(GO) run ./cmd/benchcompare -baseline BENCH_8.json -new bench-interest.txt \
		-filter '^BenchmarkBroadcastInterest/' $(BENCHCOMPARE_FLAGS) | tee -a bench-compare.txt
	$(GO) test -run '^$$' -bench 'EgressWritev' -benchmem -count $(BENCHCOUNT) ./internal/core > bench-egress.txt
	$(GO) run ./cmd/benchcompare -baseline BENCH_9.json -new bench-egress.txt \
		-filter '^BenchmarkEgressWritev/' $(BENCHCOMPARE_FLAGS) | tee -a bench-compare.txt
	$(GO) test -run '^$$' -bench 'E12_CollaborationScaling' -benchmem -count $(BENCHCOUNT) . > bench-e12.txt
	$(GO) run ./cmd/benchcompare -baseline BENCH_10.json -new bench-e12.txt \
		-filter '^BenchmarkE12_CollaborationScaling/' $(BENCHCOMPARE_FLAGS) | tee -a bench-compare.txt

# fuzz-smoke gives the protocol fuzz targets a short exploration budget
# (the seed corpora already run as plain tests in `make test`). All targets
# always run — a crasher in the first must not mask the others — and the
# exit status reports any failure after all have finished.
fuzz-smoke:
	@status=0; \
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/wire || status=1; \
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeRoundTrip -fuzztime $(FUZZTIME) ./internal/core || status=1; \
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeStream -fuzztime $(FUZZTIME) ./internal/core || status=1; \
	$(GO) test -run '^$$' -fuzz FuzzFloorFrames -fuzztime $(FUZZTIME) ./internal/core || status=1; \
	$(GO) test -run '^$$' -fuzz FuzzDecodeTiles -fuzztime $(FUZZTIME) ./internal/pixel || status=1; \
	exit $$status

# soak drives the steerload harness against an in-process hub over real
# loopback TCP — 4 sessions × 64 clients with attach/detach churn, floor
# contention and journaled replay by default — and writes the
# benchcompare-compatible latency histograms to bench-soak.json. Gate against
# the committed baseline with SOAK_FLAGS='-baseline BENCH_6.json -max-regress 3'
# (steerload refuses an -out that names its -baseline).
soak:
	$(GO) run ./cmd/steerload -sessions $(SOAK_SESSIONS) -clients $(SOAK_CLIENTS) \
		-duration $(SOAK_DURATION) -churn -floor -journal -out $(SOAK_OUT) $(SOAK_FLAGS)

# soak-observer is the interest-management soak from ISSUE 8: one steered
# session with a 4096-observer fleet at the observer tier, 1% of it
# subscribed to the live echo channel. The steer→observe p99 it records is
# the end-to-end cost of coalesced relay delivery under a fan-out two
# orders past the steering tier's. Gate against the committed baseline with
# SOAK_OBS_FLAGS='-baseline BENCH_8.json -max-regress 3'.
soak-observer:
	$(GO) run ./cmd/steerload -sessions 1 -clients $(SOAK_OBS_CLIENTS) \
		-duration $(SOAK_OBS_DURATION) -observer-tier -observer-interest $(SOAK_OBS_INTEREST) \
		-out $(SOAK_OBS_OUT) $(SOAK_OBS_FLAGS)
