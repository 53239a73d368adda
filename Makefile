# Developer conveniences. CI runs the equivalent steps directly (see
# .github/workflows/ci.yml); these targets exist for local loops.

GO      ?= go
COUNT   ?= 10
BENCHOUT ?= bench-write.txt

.PHONY: test race stress torture lint test-invariants bench-write bench-shards bench-evict bench-smoke fig5 ablation7 ablation8

test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# stress flushes timing- and order-dependent tests: package by package,
# 20 runs each at GOMAXPROCS 1, 2 and 4 in shuffled order. It stops at
# the first failing package and prints the command, with the shuffle
# seed, that reruns it in the same order.
stress:
	@seed=$$(date +%s); \
	for p in $$($(GO) list ./...); do \
		$(GO) test -count=20 -cpu 1,2,4 -shuffle=$$seed -timeout 60m $$p || { \
			echo "stress: $$p failed; rerun: $(GO) test -count=20 -cpu 1,2,4 -shuffle=$$seed $$p"; \
			exit 1; }; \
	done; \
	echo "stress: every package passed (-shuffle=$$seed)"

# torture hammers the concurrency torture tests (every test whose name
# contains Torture, in every package): 200 runs each at GOMAXPROCS 2
# and 4, first plain, then with -tags=invariants so every resize step
# the tests drive re-validates the table's structure live. Races that
# show up once in a few hundred runs (a duplicate key from a lock-free
# insert racing a striped one, say) surface here.
torture:
	$(GO) test -count=200 -cpu 2,4 -timeout 0 -run Torture ./...
	$(GO) test -tags=invariants -count=200 -cpu 2,4 -timeout 0 -run Torture ./...

# lint runs the in-tree RCU-discipline analyzers (cmd/rplint) over
# the whole module, both standalone and through the `go vet -vettool`
# protocol (the two drivers load packages differently; CI runs both,
# so the local loop should too). Findings are fix-or-justify: a
# deliberate exception needs `//lint:allow rplint/<name> <reason>`
# on or above the flagged line.
lint:
	$(GO) build -o bin/rplint ./cmd/rplint
	./bin/rplint ./...
	$(GO) vet -vettool=$$(pwd)/bin/rplint ./...

# test-invariants mirrors the CI invariants step: resize steps
# re-validate the table's structural invariants live, racing real
# writers, on every expansion and shrink the torture tests drive.
test-invariants:
	$(GO) test -tags=invariants -run 'Torture|Invariant|Resize|Churn' ./internal/core/

# bench-write produces benchstat-friendly output for the write-path
# benchmarks (striped vs single-lock upserts, resize contention,
# batch writes). Typical before/after flow:
#
#   git stash            # or check out the baseline commit
#   make bench-write BENCHOUT=old.txt
#   git stash pop
#   make bench-write BENCHOUT=new.txt
#   benchstat old.txt new.txt
#
# COUNT=10 repetitions give benchstat enough samples for a
# significance test; raise it on noisy machines.
bench-write:
	$(GO) test -run='^$$' -bench='Write' -benchmem -count=$(COUNT) \
		./internal/core ./internal/shard | tee $(BENCHOUT)

# bench-shards is the shard-layer diet sweep: shards=1 vs the default
# shard count on pure-upsert and 90/10 mixed workloads, striped
# tables. Feed the two series to benchstat to decide
# whether DefaultShards still earns its keep on your hardware (the
# README records the reference result).
bench-shards:
	$(GO) test -run='^$$' -bench='Shards' -benchmem -count=$(COUNT) \
		./internal/shard | tee bench-shards.txt

# bench-evict produces benchstat-friendly output for the cache's
# evicting Set at 4 k and 256 k entries per shard. Eviction is
# O(sample): the two sizes must stay within a cache-miss factor of
# each other (a sampler that walks the shard shows a 100× gap), and
# scanned/evict must read 16. For a before/after benchstat, copy
# bench-evict.txt aside between the two runs.
bench-evict:
	$(GO) test -run='^$$' -bench='CacheSetEvict' -benchmem -count=$(COUNT) \
		./internal/cache | tee bench-evict.txt

# bench-smoke mirrors CI: every benchmark once, so bench code cannot rot.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# fig5 runs the write-scaling figure (striped table vs single-mutex
# ablation vs sharded map vs lock baselines) and writes BENCH_fig5.json.
fig5:
	$(GO) run ./cmd/rphash-bench -fig 5 -json

# ablation7 runs the lock-free write fast-path ablation (locked vs
# CAS insert, striped vs CAS value RMW, uniform and zipf writers) and
# writes BENCH_ablation7.json.
ablation7:
	$(GO) run ./cmd/rphash-bench -caswrite -json

# ablation8 runs the bucket-engine ablation (flat cache-line groups vs
# relativistic chains: read-uniform/read-zipf/mixed throughput plus
# bytes/element) and writes BENCH_ablation8.json.
ablation8:
	$(GO) run ./cmd/rphash-bench -flatengine -json
