# Developer entry points. PYTHONPATH is set instead of requiring an
# editable install so the targets work on a bare checkout.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-backends test-shards test-chaos \
	test-elastic test-service test-mutation test-durability \
	bench-smoke bench-index bench-sharding \
	bench-chaos bench-elastic bench-service bench-mutation \
	bench-durability bench-e2e bench-e2e-smoke bench-e2e-trace-smoke \
	scale-smoke paper docs-check lint-imports loc

## Tier-1 verification: the whole test suite, stop on first failure.
## Honours REPRO_INDEX_BACKEND (merge/bitset/adaptive; unset = bitset).
test:
	$(PYTHON) -m pytest -x -q

## The full backend matrix locally: tier-1 once per posting-list
## representation (what CI runs as a matrix).
test-backends:
	REPRO_INDEX_BACKEND=merge $(PYTHON) -m pytest -x -q
	REPRO_INDEX_BACKEND=bitset $(PYTHON) -m pytest -x -q
	REPRO_INDEX_BACKEND=adaptive $(PYTHON) -m pytest -x -q

## Shard-executor smoke: the pool subsystem across all three backends
## (wire format, row-range shards and their kernel, framing, handshake,
## the one shard pool's subtree jobs over its local workers — the
## coordinator's plan shipped, the funnel only when asked, a malformed
## job refused as a typed QERROR —, parity) — the tier-1 subset CI's
## shard-smoke job runs.
SHARD_TESTS = tests/test_process_executor.py tests/test_sharding.py \
	tests/test_wire_format.py \
	tests/test_transport.py tests/test_net_executor.py \
	tests/test_frontier_kernel.py tests/test_subtree_jobs.py
test-shards:
	REPRO_INDEX_BACKEND=merge $(PYTHON) -m pytest -x -q $(SHARD_TESTS)
	REPRO_INDEX_BACKEND=bitset $(PYTHON) -m pytest -x -q $(SHARD_TESTS)
	REPRO_INDEX_BACKEND=adaptive $(PYTHON) -m pytest -x -q $(SHARD_TESTS)

## Fault-injection smoke: the deterministic chaos harness plus the
## recovery ladder of the shard pool (handshakes, mid-job
## kill/sever/garble failover, slow members, dropped-reply deadlines,
## last-member fail-fast, a stopped last member failed on the silence
## budget, a session that lasts exactly as long as its connection) —
## each fault once under a solo job and once with two query channels
## in flight on the one pool; a lost member's part is re-sent to a
## survivor.
test-chaos:
	$(PYTHON) -m pytest -x -q tests/test_chaos.py tests/test_net_executor.py \
		tests/test_subtree_jobs.py

## Elastic-runtime smoke: restarts under the cluster's one restart
## policy (a budget and backoff per slot; a restart keeps its port, so a
## fixed-address pool reaches it; a worker dying on every job costs a
## bounded number of respawns), and live grow/shrink of the pool
## (admit/drain, silence-detected mid-job failover).
test-elastic:
	$(PYTHON) -m pytest -x -q tests/test_supervisor.py tests/test_elastic.py

## Match-service smoke: many query channels on the one shard pool
## (frame parity with a solo job), the always-on service (admission
## BUSY, deadlines, cancellation, cache, drain, query-pinned chaos
## isolation), the inline route for cheap misses and the line-JSON
## daemon/client (a query file against a dataset name is a typed
## refusal, never a silent 0; kept-alive connections reused safely),
## standing deltas delivered by callback only, the journal set by its
## constructor only, and the retired service surfaces pinned gone.
## Also the front door every served query passes: the native parser's
## typed refusals (test_io), the plan (test_plan) and the estimate that
## routes a miss inline or to the pool, with the index statistics it
## reads kept through mutations (test_estimation).
test-service:
	$(PYTHON) -m pytest -x -q tests/test_service.py tests/test_inline_route.py \
		tests/test_match_client.py tests/test_transport.py \
		tests/test_mutation_service.py tests/test_journal.py \
		tests/test_io.py tests/test_plan.py tests/test_estimation.py

## Dynamic-graph smoke: mutation semantics (tombstoned layouts,
## atomic batches, incremental store maintenance), the differential
## mutation oracle across backends x executors (honours
## REPRO_MUTATION_SCHEDULES), codec fuzzing (REPRO_FUZZ_CASES) and
## the service-level cache-invalidation / standing-query contract.
test-mutation:
	$(PYTHON) -m pytest -x -q tests/test_dynamic.py \
		tests/test_mutation_oracle.py tests/test_codec_fuzz.py \
		tests/test_mutation_service.py

## Durability smoke: the journal codec (torn tails vs mid-log
## corruption), snapshots (their graph records, crc and golden bytes,
## v1 snapshots still recovering), the crash-point recovery oracle, the
## service/daemon journal seam (drain persists, restart recovers, and
## an in-process restore_standing(callback=) resumes the stream), commits that ride CATCHUP and never
## fail for a lost worker, and the CATCHUP rejoin paths of the shard
## pool.
test-durability:
	$(PYTHON) -m pytest -x -q tests/test_journal.py \
		tests/test_persistence.py tests/test_dynamic.py::TestGoldenBytes \
		tests/test_mutation_service.py tests/test_elastic.py \
		tests/test_chaos.py tests/test_service.py

## One fast benchmark as a smoke signal: the three-backend index
## comparison (merge/bitset/adaptive + mask-native pipeline, >= 2x
## gates) and the expand_step row (Algorithm 4 + 5 per parent on
## bitset, set-algebra vs per-candidate validation, >= 1.3x gate);
## also regenerates BENCH_index_backends.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_index_backends.py

## Alias kept for discoverability.
bench-index: bench-smoke

## Shard pool benchmark: the parity gate on the Fig. 8 trace
## (subtree jobs and count_bfs vs sequential, three backends);
## sequential vs the four root parts on threads vs on processes is
## recorded, not gated (regenerates BENCH_sharding.json).
bench-sharding:
	$(PYTHON) benchmarks/bench_sharding.py

## Pool fault gate: kill a worker mid-job on a four-member pool and
## require bit-identical counts on all three backends, plus a typed
## SchedulerError within 2 s when the last member dies or is stopped
## (regenerates BENCH_chaos.json; failover overhead recorded, not
## gated).
bench-chaos:
	$(PYTHON) benchmarks/bench_chaos.py

## Elastic reconfiguration gate: grow a pool mid-lifetime,
## lose-and-readmit a member, restart a killed worker under the
## cluster's restart policy, drop a stopped worker on missed heartbeats
## and hold a member dying on every job to the restart budget — all
## with bit-identical counts on every backend (regenerates
## BENCH_elastic.json; reconfiguration wall-clock and the crash loop's
## respawns and query p50 recorded).
bench-elastic:
	$(PYTHON) benchmarks/bench_elastic.py

## Match-service gate: N concurrent queries multiplexed on the shard
## pool bit-identical to solo runs on all three backends, BUSY refusal at the depth
## limit, cache hits answered without touching the pool, and isolation
## of a query-pinned chaos fault (regenerates BENCH_service.json;
## concurrent throughput and cache-hit latency recorded, not gated).
bench-service:
	$(PYTHON) benchmarks/bench_service.py

## Dynamic-graph gate: a stream of small mutation batches against a
## 9k-edge graph — incremental index maintenance must agree with a
## from-scratch rebuild after every batch and land >= 3x faster in
## total, per backend (regenerates BENCH_mutation.json).
bench-mutation:
	$(PYTHON) benchmarks/bench_mutation.py

## Durability gate: SIGKILL a journalling serve-match daemon
## mid-schedule (idle *and* mid-commit), recover from the journal
## alone — fingerprint and query counts bit-identical to the longest
## committed prefix on all three backends — restart, finish the
## schedule; plus the catch-up rejoin parity gate for a stale
## respawned worker (regenerates BENCH_durability.json; recovery and
## catch-up wall-clock recorded, not gated).
bench-durability:
	$(PYTHON) benchmarks/bench_durability.py

## The end-to-end benchmark (BENCHMARK.json): five workloads, seven
## bounded metrics each, ~2 min; add `--trace 1` by hand for the
## per-layer breakdown, `--out FILE` + tools/bench_trajectory.py to
## append a row to BENCH_trajectory.jsonl.  See benchmarks/e2e/README.md.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

## The same five workloads at tiny scale (~10 s): a does-it-run gate.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

## The frozen layer trace at tiny scale on the two engine workloads:
## fails on a non-zero exit or on a "layer surface missing or changed"
## note (a layer function the trace drives went missing or changed).
bench-e2e-trace-smoke:
	@for workload in enum_seq enum_shards; do \
		out=$$($(PYTHON) benchmarks/e2e/run.py --workload $$workload --smoke \
			--seconds 0.2 --trace 1 2>&1) || { echo "$$out"; exit 1; }; \
		if echo "$$out" | grep "layer surface missing or changed"; then \
			exit 1; \
		fi; \
		echo "$$workload: every layer surface traced"; \
	done

## Scale smoke: a TC-shaped graph at 10^5 hyperedges generated, saved
## and re-loaded as native text, indexed on bitset and asked one sampled
## query, the whole run under 120 s (the path the scale tier's
## workloads will take; ~4 s on 2 vCPUs, of which ~2 s generation).
scale-smoke:
	timeout 120 $(PYTHON) benchmarks/scale_smoke.py

## The paper's figures and tables under their own pytest gates, as
## the bench modules assert them (Fig. 6-12, Tables II and IV, the
## three ablations and the §VII-D case study; ~4 min on 2 vCPUs).  Each
## writes its report to benchmarks/reports/; fig11_memory.txt and
## ablation_matching_order.txt are committed and must regenerate
## byte-identical (CI's paper job diffs them).
PAPER_BENCHES = benchmarks/bench_fig*.py benchmarks/bench_table*.py \
	benchmarks/bench_ablation_*.py benchmarks/bench_case_study.py
paper:
	$(PYTHON) -m pytest -q $(PAPER_BENCHES)

## Documentation checks: the WIRE_FORMAT.md doctests (the byte-level
## spec is executable), the §2.1 message-kind table cross-check
## against transport.MSG_*, a link check over docs/ + README, and a
## check that every *.md named under src/, benchmarks/*.py and
## examples/ exists.
docs-check:
	$(PYTHON) tools/docs_check.py

## Layering check (stdlib ast walk, parses every file under src/):
## core/ and hypergraph/ never import parallel/ or service/ at module
## level, parallel/ never imports service/, and no production package
## imports baselines/bench/joins.
lint-imports:
	$(PYTHON) tools/lint_imports.py

## Source size: the `src/` line count ROADMAP and CHANGES.md quote.
loc:
	@find src -name '*.py' | xargs cat | wc -l
