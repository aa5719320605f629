# Standard developer entry points. `make check` is the tier-1 gate:
# everything it runs must pass before a change lands.

GO ?= go

.PHONY: check vet build test race cover fuzz fuzz-search fuzz-cache fuzz-extract fuzz-checksum fuzz-constraints fuzz-submit fuzz-tune fuzz-eco bench-json bench-smoke bench-shard-smoke bench-tune-smoke bench-constraint-smoke bench-eco-smoke serve-smoke clean

check: vet build race cover bench-tune-smoke bench-eco-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage floors: internal/obs >= 90%, internal/core no worse than its
# pre-observability level (see scripts/cover.sh and docs/OBSERVABILITY.md).
cover:
	sh scripts/cover.sh

# Short fuzz session over the bookshelf parser (satellite of the
# robustness work; see docs/ROBUSTNESS.md).
fuzz:
	$(GO) test ./internal/bookshelf -fuzz FuzzRead -fuzztime 30s

# Short fuzz session over the best-first-vs-exhaustive search equivalence
# property (docs/PERFORMANCE.md §5).
fuzz-search:
	$(GO) test ./internal/core -run FuzzBestFirstMatchesExhaustive \
		-fuzz FuzzBestFirstMatchesExhaustive -fuzztime 30s

# Short fuzz session over the extraction-cache soundness property: a
# snapshot accepted by validation must equal a fresh extraction after any
# Insert/Remove/ShiftX interleaving (docs/PERFORMANCE.md §6).
fuzz-cache:
	$(GO) test ./internal/core -run FuzzCachedExtractionMatchesFresh \
		-fuzz FuzzCachedExtractionMatchesFresh -fuzztime 30s

# Short fuzz session over the extraction-equivalence property: the
# window-proportional extraction must reproduce the original map-based
# reference exactly on random grids — blockages, fixed cells, 1–4-row
# cells, off-die windows, gap-inflating constraint sets and designs grown
# by session inserts (docs/PERFORMANCE.md §10).
fuzz-extract:
	$(GO) test ./internal/core -run FuzzExtractMatchesReference \
		-fuzz FuzzExtractMatchesReference -fuzztime 30s

# Short fuzz session over the placement-checksum equivalence property:
# the zero-byte-skipping PlacementChecksum must equal the byte-serial
# FNV-1a reference on arbitrary rosters — negative and 64-bit
# coordinates, wide IDs, unplaced/dead/fixed cells, every Orient byte
# (docs/PERFORMANCE.md §11).
fuzz-checksum:
	$(GO) test ./internal/design -run FuzzPlacementChecksumMatchesReference \
		-fuzz FuzzPlacementChecksumMatchesReference -fuzztime 30s

# Short fuzz session over the constraint-plugin admissibility property:
# every plugin's lower-bound term must stay below the realized horizontal
# cost of any candidate its own filters admit, and the best-first search
# under an armed set must reproduce the exhaustive sweep bit for bit
# (docs/CONSTRAINTS.md).
fuzz-constraints:
	$(GO) test ./internal/core -run FuzzConstraintLowerBound \
		-fuzz FuzzConstraintLowerBound -fuzztime 30s

# Constraint-plugin differential smoke (CI gate): each plugin alone and
# all three composed must produce byte-identical placements across
# workers x shards x search modes under the race detector, pass the
# plugins' verify.Check oracles with zero violations, and never leak a
# cached verdict across rule configurations (docs/CONSTRAINTS.md).
bench-constraint-smoke:
	$(GO) test -race -short ./internal/core \
		-run 'TestConstraintPluginsMatchAcrossModes|TestConstraintFiltersActuallyFire|TestConstraintLowerBoundProperty|TestCacheConstraintEpochIsolation'
	$(GO) test -race ./internal/experiments -run TestGoldenConstraintPlacements

# Regenerate the benchmark artifacts: BENCH_parallel.json (scale-400
# Table-1 flow once per worker count), BENCH_prune.json (best-first search
# vs exhaustive sweep), BENCH_cache.json (extraction cache off vs on),
# BENCH_shard.json (spatial sharding size x K sweep), BENCH_tune.json
# (adaptive search guidance: exhaustive / static / online / replay) and
# BENCH_eco.json (incremental session delta batches vs full
# relegalization); see docs/PERFORMANCE.md. Results depend on the
# machine; num_cpu, go_max_procs and speedup_valid are recorded in the
# parallel, shard and eco artifacts. The parallel and shard speedups are
# suppressed on a single-CPU box; the eco speedups (serial vs serial) are
# suppressed for runs whose repeat spreads overlap.
bench-json:
	$(GO) run ./cmd/mrbench -experiment parallel -scale 400 -workers 1,2,4 \
		-json BENCH_parallel.json -no-progress
	$(GO) run ./cmd/mrbench -experiment prune -scale 400 \
		-json BENCH_prune.json -no-progress
	$(GO) run ./cmd/mrbench -experiment cache -scale 200 -rx 4 -ry 1 \
		-json BENCH_cache.json -no-progress
	$(GO) run ./cmd/mrbench -experiment shard -sizes 5000,20000 -shards 1,2,4,8 \
		-json BENCH_shard.json -no-progress
	$(GO) run ./cmd/mrbench -experiment tune -scale 400 -rx 60 -ry 10 \
		-json BENCH_tune.json -no-progress
	$(GO) run ./cmd/mrbench -experiment eco -sizes 5000,20000 \
		-delta-fracs 0.001,0.01,0.05 -json BENCH_eco.json -no-progress

# Shard-parity smoke (CI gate): a small design legalized with 4 spatial
# shards under the race detector must be byte-identical to the serial
# run across both search modes and cache states, with zero claim-board
# traffic (docs/PERFORMANCE.md §7).
bench-shard-smoke:
	$(GO) test -race -short ./internal/core \
		-run 'TestShardMatchesSerialAcrossK|TestShardZeroClaimTraffic'

# Search-guidance equivalence smoke (CI gate): Tune=off must hold the
# pinned golden checksums, the tune unit suite must pass, and a replayed
# policy log must reproduce the online run's placement checksum across
# workers {1,4} x shards {1,4} under the race detector
# (docs/PERFORMANCE.md §8).
bench-tune-smoke:
	$(GO) test -race ./internal/tune
	$(GO) test -race ./internal/experiments \
		-run 'TestTuneReplayMatchesOnline|TestTuneOffMatchesUntuned|TestGoldenPlacements'

# Short fuzz session over the policy-log round-trip property: decoding
# arbitrary bytes never panics, and an accepted log re-encodes to the
# same decision sequence (docs/PERFORMANCE.md §8).
fuzz-tune:
	$(GO) test ./internal/tune -run FuzzPolicyLogRoundTrip \
		-fuzz FuzzPolicyLogRoundTrip -fuzztime 30s

# Short fuzz session over the job-submission decoder — the boundary
# between the network and the engine (docs/SERVICE.md).
fuzz-submit:
	$(GO) test ./internal/service -run FuzzDecodeSubmit \
		-fuzz FuzzDecodeSubmit -fuzztime 30s

# Short fuzz session over the ECO delta-frame decoder: malformed frames
# and hostile JSON must map to stable bad_request errors, never a panic
# (docs/SERVICE.md §8).
fuzz-eco:
	$(GO) test ./internal/service -run FuzzDecodeDelta \
		-fuzz FuzzDecodeDelta -fuzztime 30s

# ECO-equivalence smoke (CI gate): on a Table-1 subset, session delta
# batches applied over designs legalized with workers {1,4} x extraction
# cache on/off must stay legal, pass the fixed-point oracle, and produce
# cache-independent placements; plus the session engine's own suite and
# the eco benchmark plumbing, all under the race detector
# (docs/PERFORMANCE.md §9).
bench-eco-smoke:
	$(GO) test -race -short ./internal/core -run 'TestSession'
	$(GO) test -race ./internal/experiments -run 'TestEcoEquivalence|TestRunEcoSmoke'
	$(GO) test -race ./internal/service -run 'TestSession'

# End-to-end exercise of the job server: build mrserve, submit a bench
# over HTTP, compare the placement checksum against a direct library
# call, and require a clean SIGTERM drain (docs/SERVICE.md; CI gate).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Quick allocation/latency smoke over the MLL hot path (CI gate), plus
# the row-length scaling of extraction (docs/PERFORMANCE.md §10) and the
# 20k-cell placement checksum, which must stay at 0 allocs/op
# (docs/PERFORMANCE.md §11).
bench-smoke:
	$(GO) test -run xxx -bench 'SingleMLLCall|RegionExtraction|InsertionPointEnumeration|ExtractRowScaling' \
		-benchtime 100x -benchmem .
	$(GO) test -run xxx -bench 'PlacementChecksum$$' -benchtime 100x -benchmem ./internal/design

clean:
	$(GO) clean ./...
