# Tier-1: the gate every change must keep green.
.PHONY: check
check:
	go build ./... && go test ./...

# Tier-1.5: formatting, static analysis, and the race detector over the
# parallel stages (profile merging, rendering the listing, symbol tables
# shared by concurrent analyses). Any file gofmt would rewrite fails the
# target.
.PHONY: race
race:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./... && go test -race ./...

# The linearity gate alone, verbose, so one command prints every row's
# time and byte ratios with the host's GOMAXPROCS and CPU count. The
# rows run each stage at n and 2n: gmon.ReadFile (v1, 2^20 buckets and
# arcs), gmon.MergeAll (width 1, four profiles of 2^15 arcs),
# object.ReadImageFile (2^20 words), callgraph.BuildCtx, scc.Analyze,
# propagate.RunCtx, model.Build and core.RunFrom on its base's
# structure (synth.Tier(5*10^4, 1)), the full
# listing and the index alone (synth.Tier(10^4, 1), the index's names
# shuffled) and gprofd's window fold, gmon.Profile.Merge
# (synth.Tier(5*10^4, 1)). A row fails when the median CPU-time ratio
# t(2n)/t(n) over 11 pairs exceeds 3, or the heap bytes of one run at
# 2n exceed 2.5x those at n; linear reads 2 on both.
.PHONY: linear
linear:
	go test -run 'TestStagesScaleLinearly' -v -count=1 ./internal/core

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...

# Parallel-stage benchmarks only: the -jobs scaling story.
.PHONY: bench-parallel
bench-parallel:
	go test -run xxx -bench 'Parallel' .

# Quick bench sanity pass for CI: every benchmark runs exactly once.
.PHONY: bench-smoke
bench-smoke:
	go test -run xxx -bench . -benchtime=1x ./...

# The benchmark of record (bench/, run by bash bench/run.sh) is its own
# Go module, so the root go build/go test never compile it. Vet and
# short-test it here, so an internal API change that breaks the
# benchmark pipeline fails CI too.
.PHONY: bench-module
bench-module:
	cd bench && go vet ./... && go test -short ./...

# Self-observability smoke: a profiled run and an analysis under
# -stats/-tracefile/-runreport, with both artifacts validated by
# tracecheck and stdout checked against an unobserved run. The vmrun
# step ignores the exit status because vmrun propagates the workload
# program's own exit code.
.PHONY: stats-smoke
stats-smoke:
	rm -rf .stats-smoke && mkdir -p .stats-smoke
	go build -o .stats-smoke/ ./cmd/vmrun ./cmd/gprof ./cmd/tracecheck
	cd .stats-smoke && (./vmrun -p -q -stats -workload sort || true)
	cd .stats-smoke && ./gprof -jobs 1 a.out gmon.out > plain.txt
	cd .stats-smoke && ./gprof -jobs 1 -stats -tracefile t.json -runreport r.json a.out gmon.out > observed.txt
	cmp .stats-smoke/plain.txt .stats-smoke/observed.txt
	cd .stats-smoke && ./tracecheck t.json r.json
	rm -rf .stats-smoke

# Regenerate the pinned presentation goldens (text reports and JSON
# profiles) under testdata/golden, and figures_output.txt (the figures
# harness's summary table). The -update flag lives in the root
# package's golden tests only, so restrict to '.'.
.PHONY: golden
golden:
	go test -run 'TestGolden' -update .

# Short fuzzing pass over the two binary decoders (profile data and
# executables): corrupt input must error, never panic. FuzzMerge checks
# the profile fold against its map-fold oracle on arbitrary decoded
# pairs; FuzzBuild checks the linear call-graph construction against
# its map-keyed oracle on arbitrary tables and arc records; FuzzFixed
# checks the listing's number formatter against fmt on arbitrary
# floats; FuzzListingOrder checks the listing numbers, flat order,
# never-called list and index against their stable-sort references on
# small graphs with colliding names and tied ticks; FuzzAnalyze checks
# the column call graph's component analysis, cycle breaking,
# propagation and listing numbers against the pointer-graph reference,
# floats bit for bit, on small graphs with cycles, self, spontaneous
# and static arcs, and removed arcs; FuzzRunFrom checks that an
# analysis built on an earlier one's structure renders the bytes of a
# fresh one, and reuses it exactly when the record keys match.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run xxx -fuzz 'FuzzRead$$' -fuzztime 20s ./internal/gmon
	go test -run xxx -fuzz 'FuzzMerge$$' -fuzztime 20s ./internal/gmon
	go test -run xxx -fuzz 'FuzzReadImage$$' -fuzztime 20s ./internal/object
	go test -run xxx -fuzz 'FuzzBuild$$' -fuzztime 20s ./internal/callgraph
	go test -run xxx -fuzz 'FuzzFixed$$' -fuzztime 20s ./internal/report
	go test -run xxx -fuzz 'FuzzListingOrder$$' -fuzztime 20s ./internal/model
	go test -run xxx -fuzz 'FuzzAnalyze$$' -fuzztime 20s ./internal/core
	go test -run xxx -fuzz 'FuzzRunFrom$$' -fuzztime 20s ./internal/core

# End-to-end smoke of the continuous-profiling service: start gprofd,
# replay the workload corpus from concurrent agents via gprofload, and
# -verify byte-compares every fingerprint's merged profile against an
# offline gmon.MergeAll of the same uploads. gprofload exits nonzero on
# any upload error, a zero rate, or a verify mismatch.
.PHONY: gprofd-smoke
gprofd-smoke:
	rm -rf .gprofd-smoke && mkdir -p .gprofd-smoke
	go build -o .gprofd-smoke/ ./cmd/gprofd ./cmd/gprofload
	./.gprofd-smoke/gprofd -addr 127.0.0.1:7421 & echo $$! > .gprofd-smoke/pid
	./.gprofd-smoke/gprofload -addr http://127.0.0.1:7421 -agents 8 -uploads 50 -verify; \
		rc=$$?; kill `cat .gprofd-smoke/pid` 2>/dev/null; rm -rf .gprofd-smoke; exit $$rc

# Query-path smoke: mixed read/write traffic against a live gprofd —
# reader agents hit /v1/flat and /v1/profile while uploads invalidate
# underneath them. gprofload exits nonzero on any reader failure, a
# verify mismatch, or (with -readers) a server whose incremental
# caches served no hits or evicted an entry: the corpus asks one query
# shape per fingerprint, far fewer than the default -querycache slots.
.PHONY: query-smoke
query-smoke:
	rm -rf .query-smoke && mkdir -p .query-smoke
	go build -o .query-smoke/ ./cmd/gprofd ./cmd/gprofload
	./.query-smoke/gprofd -addr 127.0.0.1:7423 & echo $$! > .query-smoke/pid
	./.query-smoke/gprofload -addr http://127.0.0.1:7423 -agents 8 -uploads 50 -readers 4 -verify; \
		rc=$$?; kill `cat .query-smoke/pid` 2>/dev/null; rm -rf .query-smoke; exit $$rc

# Scale smoke: a 10^5-routine synthetic workload through the whole
# stack — generate real artifacts, run the in-process pipeline under a
# throughput floor, then run the actual gprof binary over the generated
# image + profile pair. The listing must be identical at -jobs 1 and
# -jobs 2 and match its pinned SHA-256, so a render drift that only
# shows at scale fails here; the listing of the v2 copy of the profile,
# whose arc records arrive in sorted order rather than file order, is
# pinned too (SCALE_V2_SHA256), and so is the JSON profile of the v1
# pair (SCALE_JSON_SHA256), whose arcs name their endpoints only at
# encode. The full listing (headers on) must read the same at -jobs 1
# and -jobs 4, and so must -jobs 2 under GOMAXPROCS=1, where the
# renderer clamps its pool to one worker.
# Render is the only stage that clamps to GOMAXPROCS; the profile
# merge starts up to -jobs workers, capped by the number of files, and
# with one file it starts none.
# Summing a v1-first mix of v1 and v2 copies of the profile (duplicate
# arc keys included) must give the same bytes at -jobs 1 and -jobs 4.
# Bounded by timeout so a scaling regression fails fast instead of
# hanging CI.
SCALE_SHA256 = 91e977d085206792a9f4ef04e8894be98fcdcddfec193248b8a85bea9b61ed98
SCALE_V2_SHA256 = b6d7c1f503ab81a787b052bc74d5775b44c5116d19b8f0dc69fe32b90bbfd91b
SCALE_JSON_SHA256 = 3483543a6af7690222d616d11755b68b04f29720ffdc94cbfd2ca3b1c402c0da
.PHONY: scale-smoke
scale-smoke:
	rm -rf .scale-smoke && mkdir -p .scale-smoke
	go build -o .scale-smoke/ ./cmd/synthgen ./cmd/gprof
	timeout 120 ./.scale-smoke/synthgen -nodes 100000 -seed 1 \
		-image .scale-smoke/a.out -o .scale-smoke/gmon.out -analyze -minrate 20000
	timeout 120 ./.scale-smoke/gprof -brief -jobs 1 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/report.txt
	timeout 120 ./.scale-smoke/gprof -brief -jobs 2 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/report2.txt
	cmp .scale-smoke/report.txt .scale-smoke/report2.txt
	echo "$(SCALE_SHA256)  .scale-smoke/report.txt" | sha256sum -c -
	timeout 120 ./.scale-smoke/gprof -json -jobs 1 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/profile.json
	echo "$(SCALE_JSON_SHA256)  .scale-smoke/profile.json" | sha256sum -c -
	timeout 120 ./.scale-smoke/gprof -jobs 1 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/full1.txt
	timeout 120 ./.scale-smoke/gprof -jobs 4 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/full4.txt
	cmp .scale-smoke/full1.txt .scale-smoke/full4.txt
	GOMAXPROCS=1 timeout 120 ./.scale-smoke/gprof -brief -jobs 2 .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/clamped.txt
	cmp .scale-smoke/report.txt .scale-smoke/clamped.txt
	timeout 120 ./.scale-smoke/synthgen -nodes 100000 -seed 1 -format 2 -o .scale-smoke/gmon.v2
	timeout 120 ./.scale-smoke/gprof -brief -jobs 1 .scale-smoke/a.out .scale-smoke/gmon.v2 > .scale-smoke/report.v2.txt
	echo "$(SCALE_V2_SHA256)  .scale-smoke/report.v2.txt" | sha256sum -c -
	cd .scale-smoke && timeout 120 ./gprof -jobs 1 -sum sum1 -format 2 \
		gmon.out gmon.v2 gmon.out gmon.out gmon.v2 gmon.out gmon.v2 gmon.v2
	cd .scale-smoke && timeout 120 ./gprof -jobs 4 -sum sum4 -format 2 \
		gmon.out gmon.v2 gmon.out gmon.out gmon.v2 gmon.out gmon.v2 gmon.v2
	cmp .scale-smoke/sum1 .scale-smoke/sum4
	rm -rf .scale-smoke

# Whole-stack pipeline smoke: collect stacks from the E8 workload into
# v3 profile data, render it with gprof as folded stacks plus the
# gzipped pprof protobuf, then validate the pprof stream with the
# in-repo decoder and check that pricey() — the routine the arc view
# famously underestimates — tops the measured table. The vmrun step
# ignores the exit status because vmrun propagates the workload
# program's own exit code.
.PHONY: pprof-smoke
pprof-smoke:
	rm -rf .pprof-smoke && mkdir -p .pprof-smoke
	go build -o .pprof-smoke/ ./cmd/vmrun ./cmd/gprof ./cmd/pprofcheck ./cmd/gmondump
	cd .pprof-smoke && (./vmrun -stacks -q -tick 200 -workload unequal -o stacks.gmon > table.txt || true)
	cd .pprof-smoke && ./gprof -folded -pprof stacks.pb.gz a.out stacks.gmon > folded.txt
	test -s .pprof-smoke/folded.txt
	cd .pprof-smoke && ./gmondump stacks.gmon | grep -q 'stacks:'
	cd .pprof-smoke && ./pprofcheck stacks.pb.gz > top.txt
	grep -q pricey .pprof-smoke/top.txt
	rm -rf .pprof-smoke

# Production-observability smoke: start gprofd, replay the corpus with
# the observability prober (-metrics: concurrent /metrics scrapes must
# parse and validate, /healthz and /readyz must hold 200) while fetching
# /v1/self as pprof — each request captures one second on demand, and
# an idle capture answers 503, so curl retries until one lands under
# the replay's load. Then take two /metrics dumps across a second
# replay and metricscheck them — per-file structural validation plus
# cross-dump counter/histogram monotonicity — round-trip the self
# profile through pprofcheck, and /debug/flightrec through tracecheck.
# A second gprofd runs traced (-stats, -tracefile, -runreport) under a
# replay and is stopped with SIGINT, the signal that lets it write its
# summary and files; tracecheck validates both files.
.PHONY: metrics-smoke
metrics-smoke:
	rm -rf .metrics-smoke && mkdir -p .metrics-smoke
	go build -o .metrics-smoke/ ./cmd/gprofd ./cmd/gprofload ./cmd/metricscheck ./cmd/pprofcheck ./cmd/tracecheck
	./.metrics-smoke/gprofd -addr 127.0.0.1:7427 & echo $$! > .metrics-smoke/pid
	rc=0; \
	curl -sf --retry 10 --retry-delay 1 --retry-connrefused 'http://127.0.0.1:7427/v1/self?view=pprof' \
		-o .metrics-smoke/self.pb.gz & spid=$$!; \
	./.metrics-smoke/gprofload -addr http://127.0.0.1:7427 -agents 8 -duration 3s -metrics -verify || rc=$$?; \
	wait $$spid || rc=$$?; \
	curl -sf http://127.0.0.1:7427/metrics > .metrics-smoke/m1.prom || rc=$$?; \
	./.metrics-smoke/gprofload -addr http://127.0.0.1:7427 -agents 4 -uploads 25 -metrics || rc=$$?; \
	curl -sf http://127.0.0.1:7427/metrics > .metrics-smoke/m2.prom || rc=$$?; \
	./.metrics-smoke/metricscheck .metrics-smoke/m1.prom .metrics-smoke/m2.prom || rc=$$?; \
	./.metrics-smoke/pprofcheck .metrics-smoke/self.pb.gz > /dev/null || rc=$$?; \
	curl -sf http://127.0.0.1:7427/debug/flightrec > .metrics-smoke/flight.json || rc=$$?; \
	./.metrics-smoke/tracecheck .metrics-smoke/flight.json || rc=$$?; \
	./.metrics-smoke/gprofd -addr 127.0.0.1:7428 -stats -tracefile .metrics-smoke/traced.json \
		-runreport .metrics-smoke/traced-report.json 2> .metrics-smoke/traced.log & tpid=$$!; \
	./.metrics-smoke/gprofload -addr http://127.0.0.1:7428 -agents 4 -uploads 25 -readers 2 -verify || rc=$$?; \
	kill -INT $$tpid; wait $$tpid || rc=$$?; \
	grep -q 'http /v1/ingest' .metrics-smoke/traced.log || rc=1; \
	./.metrics-smoke/tracecheck .metrics-smoke/traced.json .metrics-smoke/traced-report.json || rc=$$?; \
	kill `cat .metrics-smoke/pid` 2>/dev/null; rm -rf .metrics-smoke; exit $$rc

.PHONY: figures
figures:
	go run ./cmd/figures -all
