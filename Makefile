# Tier-1 gate: `make check` is what CI and pre-merge runs — build, vet,
# the full test suite, the whole tree again under the race detector
# (`make race`), and a -count=50 stress of the cross-datacenter hand-off
# tests that pin the visibility contract (DESIGN.md §7), of the pipeline's
# work-paced hand-off tests (DESIGN.md §3.3) — the ones a lost wake-up breaks —
# and of the resync and garbage-collection reads by position and the collected
# bound every read path and restart honours (DESIGN.md §7.5).
GO ?= go

# Per-target budget for the fuzz smoke pass (long campaigns run manually).
FUZZTIME ?= 5s

.PHONY: build test race vet fmt-check check fuzz-smoke bench-smoke bench-read bench-scale bench-durability bench-elastic bench-e2e bench-storage trace-smoke api-snapshot api-check loc timers

# The public surface of the client-facing packages, as sorted declaration
# lines from `go doc -all`. api-check fails when the surface drifts from
# the committed snapshot; regenerate deliberately with api-snapshot. The
# third snapshot, api/protocol.txt, is the bytes of the wire protocol;
# TestProtocolGolden (part of `make test`) is its check.
API_PKGS = flstore chariots
api_decl = $(GO) doc -all ./internal/$(1) | grep -E '^(func|type|var|const)' | LC_ALL=C sort

api-snapshot:
	@mkdir -p api
	@for p in $(API_PKGS); do \
		$(call api_decl,$$p) > api/$$p.txt || exit 1; \
		echo "api/$$p.txt written"; \
	done
	@UPDATE_PROTOCOL=1 $(GO) test -count=1 -run '^TestProtocolGolden$$' ./internal/cluster >/dev/null
	@echo "api/protocol.txt written"

api-check:
	@for p in $(API_PKGS); do \
		$(call api_decl,$$p) > api/$$p.txt.got || exit 1; \
		if ! diff -u api/$$p.txt api/$$p.txt.got; then \
			rm -f api/$$p.txt.got; \
			echo "API surface of internal/$$p drifted from api/$$p.txt."; \
			echo "Run 'make api-snapshot' and commit if the change is intended."; \
			exit 1; \
		fi; \
		rm -f api/$$p.txt.got; \
	done
	@echo "api surface matches snapshots"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file of either module.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would change:"; echo "$$out"; exit 1; fi

check: build vet fmt-check test api-check trace-smoke bench-scale bench-durability bench-elastic bench-e2e race
	$(GO) test -count=50 -run 'TestCausalPropagationAcrossDCs|TestFigure2Scenario' ./internal/hyksos
	$(GO) test -count=50 -run 'TestTokenRestsOnBlockedRecord|TestRingAppliesInputAtNonHolder|TestTableShipmentsConvergeThenQuiesce|TestSenderShipsBatchesAndHeartbeats|TestMsgFuturesCommitsOnChangeDrivenTables|TestResyncShipsExactlyTheOracleRecords|TestCollectGarbageProgression|TestRestartAfterCollectionKeepsTheHead|TestRestartAfterCollectionKeepsTheTOIds|TestRestartFinishesAnInterruptedCollection|TestCollectedPositionsAbsentOnEveryReadPath' ./internal/chariots

# trace-smoke proves the tracing layer end to end: the tracelat row, run
# at the test size, must record append traces whose stage rows sum to the
# covered time, its span trees must cover client → pipeline → maintainer →
# replica ack and attribute >= 90% of the measured append latency (its
# bars), and the untraced append path must stay inside its allocation
# budgets.
trace-smoke:
	$(GO) test -run 'TestMeasuredRows/tracelat' -count=1 ./internal/cluster
	$(GO) test -run 'AllocBudget' -count=1 ./internal/flstore ./internal/chariots

# bench-scale is the scale-harness smoke: a reduced steady run over the
# emulated 2-DC WAN plus the partition/heal replay (two same-seed runs
# must produce byte-identical event logs and converge after heal). The
# full-size scenarios (>= 10K sessions) run via `repro -exp scale`.
bench-scale:
	$(GO) test -run 'TestScaleSteadySmoke|TestScalePartitionHealReplay' -count=1 ./internal/scale

# bench-durability is the durability-tier smoke: the durability row at the
# test size — per-batch vs group-commit fsync arms (the group arm offered
# more than one batch per injected fsync time must collapse fsyncs/op
# below 1; below that rate there is nothing to coalesce) and the three
# quorum-ack cluster arms — failing on any broken ledger or shape
# invariant. The acceptance ratios (group p99 <= 0.5x per-batch at 64
# appenders, slow-disk quorum p99 <= 2x healthy) are bars, enforced by
# `repro -exp durability` at its full window.
bench-durability:
	$(GO) test -run 'TestMeasuredRows/durability' -count=1 ./internal/cluster

# bench-elastic is the live-elasticity smoke: the elastic row at the test
# size — its three phases shrink with -dur, its rates do not — where the
# offered load doubles past the old member set's capacity, the autoscaler
# fires an online epoch switchover, and the run must end with an intact
# log (no lost or duplicated LIds, migration complete) and bounded
# post-flip append p99. The full-size run is `repro -exp elastic`.
bench-elastic:
	$(GO) test -run 'TestMeasuredRows/elastic' -count=1 ./internal/cluster

# bench-e2e is the repository benchmark's own smoke (bench/ is a module of
# its own, so `go test ./...` at the root does not see it): all four
# workloads of BENCHMARK.json, end to end and traced, at reduced length,
# with their output checks, plus the driver's unit tests.
bench-e2e:
	cd bench && $(GO) test ./...

# fuzz-smoke runs each codec fuzz target briefly: enough to catch decoder
# regressions on corrupt input without a long campaign.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecodeRecord$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz='^FuzzDecodeRecords$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz='^FuzzProtocolRows$$' -fuzztime=$(FUZZTIME) ./internal/flstore
	$(GO) test -fuzz='^FuzzSegmentTableDecode$$' -fuzztime=$(FUZZTIME) ./internal/storage

# bench-smoke runs the allocation-budget benchmarks once; the AllocsPerRun
# assertions in the regular tests enforce the budgets, this shows the numbers.
bench-smoke:
	$(GO) test -run='^$$' -bench='Allocs$$' -benchmem -benchtime=100x ./internal/flstore ./internal/chariots

# bench-read runs the read-path benchmarks: batched range read vs single
# reads, cached tail reads, and the tail subscription. The corresponding
# budgets are enforced by TestReadRangeAllocBudget / TestTailCachedReadAllocBudget.
# The readpath row at the test size drives the push/poll tail, the range
# reads and the replica-count sweep (R=1..3 over real TCP) end to end; its
# bars (>= 5x tail speedup, >= 2x read scaling) are enforced by
# `repro -exp readpath` at its full window.
bench-read:
	$(GO) test -run='^$$' -bench='ReadRange|SingleReads|TailCached|Tail$$' -benchmem -benchtime=100x ./internal/flstore
	$(GO) test -run 'TestMeasuredRows/readpath' -count=1 ./internal/cluster

# loc is the ROADMAP item 2 ledger: non-test Go lines of the three trees
# the "one of each" bar is stated over, against the 11,427-line re-anchor
# baseline (the bar is -15%, i.e. <= 9,712).
LOC_BASELINE = 11427
LOC_DIRS = internal/flstore internal/cluster cmd
loc:
	@total=0; for d in $(LOC_DIRS); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-18s %6d\n' $$d $$n; total=$$((total + n)); \
	done; \
	awk -v t=$$total -v b=$(LOC_BASELINE) 'BEGIN { printf "%-18s %6d  (%+.1f%% of the %d baseline)\n", "sum", t, (t-b)*100/b, b }'

# bench-storage is the ROADMAP item 2 ledger: what the LId index costs per
# record (asserted where stores hold every position, printed for the
# geometries they do not), what reopening a 13-segment store costs per GB,
# and what a cold 256-record window read costs per record.
bench-storage:
	@$(GO) test -run 'TestIndexBytesPerRecord' -count=1 -v ./internal/storage | grep -o 'index: .*'
	@$(GO) test -run '^$$' -bench 'SegmentStoreRecovery|SegmentStoreScanCold' -benchtime=20x ./internal/storage | grep '^Benchmark'

# timers is the ledger for ROADMAP items 3(c) and 4 ("fewer timers than
# today"): call sites in non-test internal/ that wait on or schedule by the
# wall clock, per package and in total. Every one is a place where
# something waits out a duration instead of an event, and a site virtual
# time will have to reach.
TIMER_CALLS = time\.(NewTicker|NewTimer|After|AfterFunc|Sleep|Tick)\(
timers:
	@total=0; for d in $$(find internal -type d | LC_ALL=C sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -E -o '$(TIMER_CALLS)' {} + | wc -l); \
		if [ $$n -gt 0 ]; then printf '%-24s %4d\n' $$d $$n; fi; \
		total=$$((total + n)); \
	done; \
	printf '%-24s %4d\n' total $$total
