GO ?= go

.PHONY: build test check vet gatevet vet-fix faults serve-smoke chaos chaos-long bench perfbench-check perfbench-smoke race loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole module under the race detector (the parallel group
# workers in internal/core are the most race-sensitive code, but lint and
# propagation share netlist storage too).
race:
	$(GO) test -race ./...

# gatevet runs the repo's contract analyzers (internal/anlz/passes) over the
# whole module: determinism (mapdet, norand), cancellation (ctxpoll), fault
# isolation (guardgo), the closed obs schema (obskeys), and leaf-lock
# discipline (lockbal). Exit 1 means findings; fix them or add a justified
# //anlz:ignore.
gatevet:
	$(GO) run ./cmd/gatevet .

# vet-fix is the triage loop for gatevet findings: deterministic JSON on
# stdout (file/line/analyzer/message per finding), for piping into an editor
# or review tooling. Exit codes match gatevet (0 clean / 1 findings / 2
# analysis error).
vet-fix:
	$(GO) run ./cmd/gatevet -json .

# check is the full pre-commit gate, a list of the gates below, each run
# once, in this order: vet and formatting, the contract analyzers, the
# race-detector test pass (which subsumes the plain test pass — every test
# runs exactly once, instrumented), the fault-injection matrix, the daemon
# smoke, the chaos soak, and the benchmark module's vet, tests and workload
# smoke. gatevet runs before the test passes: contract findings are cheaper
# to surface than a full race run.
# CI runs the same targets as separate steps instead of calling check.
check: vet gatevet race faults serve-smoke chaos perfbench-check perfbench-smoke

# vet runs go vet and fails on any file gofmt would change.
vet:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# perfbench-check vets and tests the repository benchmark (perfbench/, see
# BENCHMARK.json). It is a nested module outside ./..., so no other target
# compiles it, yet it imports the internal packages it measures (~2s).
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# perfbench-smoke runs each gated benchmark workload for 2 s, untraced, and
# b14 once more traced, and fails unless every result line reports
# "correct":true and "failed":0. The benchmark checks its own output outside
# the timed window (sequential against Workers: 2 reports, served against
# direct reports, journal replay, exact counter repeats in traced runs), so
# this keeps those checks running on every change (~20s after the build).
perfbench-smoke:
	@for args in "b14 --trace 0" "audit --trace 0" "serve --trace 0" "b14 --trace 1"; do \
		line=$$(bash perfbench/run.sh --seconds 2 --workload $$args | tail -n 1); \
		echo "perfbench --workload $$args: $$line"; \
		echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -Eq '"failed":0[,}]' || \
			{ echo "perfbench-smoke: --workload $$args failed its checks"; exit 1; }; \
	done

# faults runs the fault-injection matrix under the race detector: the guard
# package's own tests, every stage-level injection point (TestFaultMatrix
# fires each of match/ctrlsig/trial/verify in both the sequential and the
# parallel path), the budget-degradation contract, the CLI's fail-fast and
# summary exits, and the b14-analog isolation test (surviving groups'
# words byte-identical to a clean run).
faults:
	$(GO) test -race ./internal/guard/
	$(GO) test -race -run '^TestFault' ./internal/core/ ./cmd/wordid/ .

# serve-smoke boots the wordidd daemon end to end under the race detector:
# listen on an ephemeral port, submit a benchmark job over HTTP, poll it to
# completion, resubmit its exact body (a hit without a JSON decode) and a
# re-spaced copy (a hit through the decode), check /metrics balances, then
# drain via SIGTERM and require exit 0.
serve-smoke:
	$(GO) test -race -count=1 -run '^TestServeSmoke$$' -v ./cmd/wordidd/

# chaos is the bounded (~60s) live chaos soak: the wordidd daemon is built
# with the race detector and driven through overload bursts, load shedding,
# slowloris/oversize clients, a SIGKILL mid-load with a journal-replay
# restart, and a poison input tripping and recovering the quarantine
# breaker. Asserts no accepted job is ever lost, stuck, or served different
# bytes after a crash. chaos-long is the full soak (more kill/restart
# cycles, bigger bursts) for pre-release runs.
chaos:
	WORDIDD_CHAOS=1 $(GO) test -count=1 -run '^TestChaos$$' -v -timeout 300s ./cmd/wordidd/

chaos-long:
	WORDIDD_CHAOS=long $(GO) test -count=1 -run '^TestChaos$$' -v -timeout 900s ./cmd/wordidd/

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# loc reports a change's size: lines added, removed and net since BASE
# (default HEAD~1; the working tree's tracked files are compared, so
# uncommitted edits count), from git diff --numstat, in three rows: non-test
# Go, Go tests, and every other file. Binary files count as 0 lines.
# Usage: make loc BASE=<rev>
BASE ?= HEAD~1
loc:
	@stat="$$(git diff --numstat $(BASE))" || exit 1; \
	printf '%s\n' "$$stat" | awk -F '\t' ' \
		NF == 3 { k = "other"; if ($$3 ~ /_test\.go$$/) k = "tests"; else if ($$3 ~ /\.go$$/) k = "go"; \
			if ($$1 != "-") { add[k] += $$1; del[k] += $$2 } } \
		END { n = split("go tests other", ks, " "); split("non-test .go|_test.go|other", label, "|"); \
			printf "%-14s %8s %8s %8s\n", "", "added", "removed", "net"; \
			for (i = 1; i <= n; i++) { k = ks[i]; \
				printf "%-14s %8d %8d %+8d\n", label[i], add[k], del[k], add[k] - del[k] } }'
