GO ?= go

.PHONY: build test verify chaos bench bench-json bench-mapping bench-resize bench-shm bench-bounded bench-fft bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# chaos is the short randomized fault-injection suite: the injector's
# determinism properties, the transport-level chaos regressions, and the
# property-based redistribution harness (reduced case count, fixed
# seeds), all under the race detector. See TESTING.md.
chaos:
	$(GO) test -race -short ./internal/chaos/ ./internal/ddrtest/
	$(GO) test -race -short -run 'Chaos|Partial|WaitCtxAbandon' ./internal/mpi/

# verify is the pre-merge gate. Every exchange shape (alltoallw, p2p
# rounds, fused, bounded steps, delta, multi) lowers to one step schedule
# run by one interpreter, so the interpreter gate runs by name: the
# golden wire trace (each shape's per-link tags and per-peer bytes on a
# fixed 4-rank geometry), the per-exchange peak-staging reset, the
# interpreter's differential sweep (depths 1/2/4 byte-identical across
# seeded geometries, modes, and budget tiers, incl. composition with the
# bounded step schedule), the pipelined planted-bug self-tests (core and
# harness — a staging buffer recycled one step early must be caught;
# these run WITHOUT -race because the planted bug is a genuine data race
# the detector would fail before the harness's own check fires), the
# budget depth clamp, the per-step Pack/Wire/Unpack timing contract, the
# zero-alloc steady-state guards, the short pipelined chaos property
# schedule, the distributed-FFT workload suite under race, a
# one-iteration FFT bench smoke, and a brief fuzz of both geometry
# decoders (the bytes every SetupDataMapping allgathers from peers).
#
# The memory-bounded compiler gate runs by
# name: the differential sweep (bounded plans byte-identical to the
# brute oracle across seeded geometries x exchange modes x budget tiers
# down to the one-chunk minimum, with measured peak staging enforced
# against the budget), the meter-enforcement self-test, the planted-bug
# self-tests (core and harness), the golden bounded step fixtures, the
# bounded zero-alloc steady-state guard, the short bounded chaos
# property schedule, and a one-iteration bounded bench smoke.
#
# verify is the pre-merge gate. On top of the long-standing checks
# (described below), the topology-aware data path gate runs by name: the
# shm ring suite under race (concurrent storm, wraparound, chunked
# interleave, sever/stall chaos, scrape-under-load), the 2-node x 4-rank
# hierarchical smoke that asserts O(nodes²) leader flows via the
# endpoint stats, the autotune-cache smoke (at most one probe per plan x
# transport x direction, decision visible in /metrics, topology-keyed
# plan fingerprints), the shm zero-alloc steady-state guard, and a brief
# fuzz of the shm ring-record decoder.
#
# Long-standing checks: static analysis over the whole module,
# the race detector on the packages with concurrent machinery (lock-free
# counters, mailbox gauges, TCP wire counters, the pack/unpack worker
# pool and staging-buffer arena, and the parallel plan compiler — the
# compiler-equivalence differential tests run under race explicitly so a
# data race in the ForkJoin'd construction fails the gate by name), the
# chaos suite, the golden-plan fixtures, a brief fuzz of both TCP wire
# decoders, and one-iteration smokes of the exchange-engine and mapping
# benchmarks so every measured configuration stays runnable. The
# observability gate runs by name: the merged-trace round trip (4-rank
# exchange -> gathered, clock-corrected Perfetto timeline with a track
# per rank), the scrape-while-writing race, and the detached-cost guards
# (no tracer attached => zero allocations, no wire growth). The elastic
# gate runs the resize differential/lifecycle tests under race, a
# one-iteration resize bench smoke, and deprlint — which fails the build
# if internal code reaches a deprecated launcher entry point (Run,
# RunChaos, RunTCP*) or a removed descriptor constructor.
verify: chaos
	$(GO) vet ./...
	$(GO) run ./cmd/deprlint -root .
	$(GO) test -race ./internal/obs/... ./internal/mpi/... ./internal/trace/... ./internal/core/... ./internal/datatype/... ./internal/fft/...
	$(GO) test -race -run 'TestCompilerEquivalence' ./internal/core/
	$(GO) test -race -run 'TestTraceMergeRoundTrip|TestGatherTrace' ./internal/core/ ./internal/mpi/
	$(GO) test -race -run 'TestMetricsScrapeWhileWriting|TestFlightRecHandler' ./internal/obs/
	$(GO) test -run 'TestZeroAllocSteadyState|TestBoundedZeroAllocSteadyState|TestPipelineZeroAllocSteadyState|TestTracingDetachedZeroAlloc|TestFlightRecorderRecordZeroAlloc|TestTCPUntracedWireIdentical' ./internal/core/ ./internal/obs/ ./internal/mpi/
	$(GO) test -race -run 'TestRegridderReconnect' ./internal/transit/
	$(GO) test -race -run 'TestRegridderResize|TestRegridderConnectFailureResetsState' ./internal/transit/
	$(GO) test -race -run 'TestCompileDelta|TestDeltaCompilerCollective|TestDeltaExchange' ./internal/core/
	$(GO) test -race -short -run 'TestResize' ./internal/ddrtest/
	$(GO) test -run 'TestGoldenPlans|TestGoldenWireTrace' ./internal/core/
	$(GO) test -race -run 'TestGoldenWireTrace|TestLastPeakStagingResetsPerExchange|TestMulti|TestCompileDeltaPlantedBug' ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeGeometry -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBoxLists -fuzztime 10s ./internal/core/
	$(GO) test -race -run 'TestBoundedDifferentialSweep|TestBoundedMeterHasTeeth|TestBoundedHarnessCatchesPlantedBug|TestBoundedBudgetTooSmall|TestBoundedPlanCacheKeyedByBudget|TestBoundedCachedPlanReplays|TestSingleShotFootprintClassRounded' ./internal/core/
	$(GO) test -run 'TestGoldenBoundedPlans' ./internal/core/
	$(GO) test -race -short -run 'TestBoundedProperty|TestHarnessCatchesBoundedPlantedBug' ./internal/ddrtest/
	$(GO) test -run '^$$' -bench BenchmarkBoundedExchange -benchtime 1x ./internal/core/
	$(GO) test -race -run 'TestPipelineDifferentialSweep|TestPipelineDepthClampedByBudget|TestPipelineTimingsSubDurations|TestWithPipelineDepthValidation' ./internal/core/
	$(GO) test -race -short -run 'TestPipelinedProperty' ./internal/ddrtest/
	$(GO) test -run 'TestPipelineHarnessCatchesPlantedBug' ./internal/core/
	$(GO) test -short -run 'TestHarnessCatchesPipelinePlantedBug' ./internal/ddrtest/
	$(GO) test -run '^$$' -bench BenchmarkFFT2DStep -benchtime 1x ./internal/fft/
	$(GO) test -race -run 'TestShmConcurrentStorm|TestShmRingWraparound|TestShmChunkedInterleave|TestShmChaosSchedules|TestShmScrapeUnderLoad|TestTransportOptionsValidation' ./internal/mpi/
	$(GO) test -race -run 'TestHierSmoke|TestHierLargeChunkedRelay|TestHierCollectivesAndSplit|TestHierErrorPropagation' ./internal/mpi/
	$(GO) test -race -run 'TestAutotuneProbesOnce|TestPackStrategiesByteIdentical|TestTopologyKeyedPlanFingerprint|TestTwoLevelSchedule' ./internal/core/
	$(GO) test -run 'TestShmZeroAllocSteadyState' ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzShmRingHeader -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTCPSeqFrameDecoder -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -bench BenchmarkReorganizeEngine -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkTCPExchange -benchtime 1x ./internal/mpi/
	$(GO) test -run '^$$' -bench 'BenchmarkSetupMapping/(schedule|plan)/P=64' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkRegridderReconnect -benchtime 1x ./internal/transit/
	$(GO) test -run '^$$' -bench BenchmarkRegridderResize -benchtime 1x ./internal/transit/

bench:
	$(GO) test -run XXX -bench BenchmarkReorganizeTelemetry -benchmem ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkReorganizeEngine|BenchmarkPackUnpackPool' -benchmem ./internal/core/

# bench-json snapshots the transport and exchange-engine benchmarks as a
# JSON artifact (BENCH_tcp.json) for checking in and diffing across
# commits. Pass BASELINE=<file> to embed a prior snapshot for
# before/after ratios.
bench-json:
	{ $(GO) test -run '^$$' -bench BenchmarkTCPExchange -benchmem -benchtime 3s ./internal/mpi/ && \
	  $(GO) test -run '^$$' -bench BenchmarkReorganizeEngine -benchmem ./internal/core/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -o BENCH_tcp.json
	@echo wrote BENCH_tcp.json

# bench-shm snapshots the topology-aware data path: the shm-vs-TCP
# transport pair on the storm and 64 MiB bulk shapes, and the 64-rank /
# 4-node hierarchical storm against flat TCP and flat shm — as
# BENCH_shm.json. Pass BASELINE=<file> to embed a prior snapshot for
# before/after ratios.
bench-shm:
	{ $(GO) test -run '^$$' -bench BenchmarkShmExchange -benchmem -benchtime 2s -count 3 ./internal/mpi/ && \
	  $(GO) test -run '^$$' -bench BenchmarkHierExchange -benchmem -benchtime 3x -count 3 ./internal/mpi/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "shm rings vs TCP loopback vs inproc; 64-rank/4-node two-level leader relay vs flat transports" \
	  -o BENCH_shm.json
	@echo wrote BENCH_shm.json

# bench-compare diffs two benchjson snapshots and fails on regressions
# beyond 10%:  make bench-compare OLD=BENCH_tcp.json NEW=new.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# bench-mapping snapshots the mapping-engine benchmarks — indexed vs
# brute-force plan compilation across process counts, and the plan-cache
# cold/warm reconnect pair — as BENCH_mapping.json. Pass BASELINE=<file>
# to embed a prior snapshot for before/after ratios.
bench-mapping:
	{ $(GO) test -run '^$$' -bench BenchmarkSetupMapping -benchtime 5x ./internal/core/ && \
	  $(GO) test -run '^$$' -bench BenchmarkRegridderReconnect -benchtime 5x ./internal/transit/ ; } | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "mapping engine: indexed sparse compiler vs brute-force baseline; plan-cache reconnect" \
	  -o BENCH_mapping.json
	@echo wrote BENCH_mapping.json

# bench-resize snapshots the elastic-resize benchmarks — the incremental
# delta compiler vs a from-scratch CompileSchedule of the same grow, the
# back-to-back compile_speedup ratio, the moved_frac share of the new
# need that crosses the wire, and the full collective Resize exchange —
# as BENCH_resize.json. Pass BASELINE=<file> to embed a prior snapshot
# for before/after ratios.
bench-resize:
	$(GO) test -run '^$$' -bench BenchmarkRegridderResize -benchmem -benchtime 20x ./internal/transit/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "elastic 64->65 grow: incremental delta compile vs from-scratch schedule; moved_frac vs a cold full re-exchange" \
	  -o BENCH_resize.json
	@echo wrote BENCH_resize.json

# bench-bounded snapshots the memory-bounded exchange against the
# one-shot backend on the same 16-rank regrid: wall time, peak staging
# bytes (the live meter's high-water mark), bounded step count, and
# process peak RSS — as BENCH_bounded.json. Pass BASELINE=<file> to
# embed a prior snapshot for before/after ratios.
bench-bounded:
	$(GO) test -run '^$$' -bench BenchmarkBoundedExchange -benchmem -benchtime 10x -count 3 ./internal/core/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "memory-bounded step schedule vs one-shot exchange, 16-rank 256x256 regrid; peak-staging-B is the measured arena high-water mark, peak-rss-B the process VmHWM" \
	  -o BENCH_bounded.json
	@echo wrote BENCH_bounded.json

# bench-fft snapshots the distributed 2D FFT workload: the full spectral
# timestep (four FFT passes + two slab<->pencil transposes) and the
# transpose phase alone, on 16 ranks over links slowed by an injected
# per-message transfer delay, with the DDR exchange at depth 1 (serial),
# the default double buffer (depth2), the full-ring pipeline
# (pipelined), and the hand-written one-message-per-peer transpose —
# as BENCH_fft.json. The overlap-ratio column is the share of wire time
# the pipelined schedule hid under pack/unpack. Pass BASELINE=<file> to
# embed a prior snapshot for before/after ratios.
bench-fft:
	$(GO) test -run '^$$' -bench BenchmarkFFT2D -benchtime 5x -count 3 ./internal/fft/ | \
	  $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) \
	  -note "16-rank 256x256 distributed FFT over a 200us-per-message wire: pipelined DDR transpose vs serial rounds vs hand-written transpose; overlap-ratio = hidden wire share" \
	  -o BENCH_fft.json
	@echo wrote BENCH_fft.json
