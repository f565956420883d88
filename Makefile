# Development entry points. `make ci` is the full gate a change must pass;
# the individual targets exist for quick iteration.

GO ?= go

.PHONY: all build vet test race race-harness bench-compare bench-smoke golden tracestat-golden resume-smoke ipexd-smoke obs-smoke remote-smoke lint fuzz ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the crash-safety layer (worker pool, supervisor,
# journal, cell plumbing), the remote-execution client + chaos proxy
# (hedge races, breaker transitions, concurrent fault injection), ipexd
# (the /v1/batch handler, and batch frames racing per-cell hedges) and
# internal/trace (the clock, sleep and timer seam all of them wait on).
# `make race` covers these too; this is the quick iteration loop while
# touching the harness.
race-harness:
	$(GO) test -race -count=2 ./internal/harness ./internal/experiments \
		./internal/remote ./internal/faultnet ./internal/trace ./cmd/ipexd

# Paired comparison of the working tree against BASE on the repository
# benchmark: every BENCHMARK.json workload and BenchmarkLoops in 10 pairs
# with alternated order. It fails when a median paired ratio is worse than
# its bound, a run's output is wrong, or the change fails a larger share of
# its work, and writes every run and verdict to OUT. CLAIM=<workload>/<metric>
# adds a verdict on the gain a change claims: it must win at least 9 of the
# 10 pairs with a median ratio better than 1 by more than the base IQR. It
# takes about 40 minutes and needs a BASE, so `ci` does not run it.
bench-compare:
	@[ -n "$(BASE)" ] && [ -n "$(OUT)" ] \
		|| { echo "usage: make bench-compare BASE=<rev> OUT=BENCH_<slug>.json [CLAIM=<workload>/<metric>]"; exit 2; }
	$(GO) run ./cmd/benchcompare $(if $(CLAIM),-claim $(CLAIM)) $(BASE) $(OUT)

# The repository benchmark (bench/) is its own Go module, so `go build ./...`
# and `go test ./...` at the root never compile it. Its tests keep a harness
# or experiments API change from silently breaking it.
bench-smoke:
	cd bench && $(GO) test ./...

# The golden gate: simulator results must stay bit-identical to
# testdata/golden_rfhome.json (20 apps x 3 configs, captured before the
# hot-loop optimization) and testdata/golden_loops.json (every observer and
# ablation corner of the simulator loop, through both the Cursor and the
# Generator workload paths).
golden:
	$(GO) test -run '^TestGolden' .

# The trace-analyzer golden gate: tracestat's rendered report for a pinned
# traced run must stay byte-identical to its committed fixture (regenerate
# with `go test ./internal/tracestat -run TestGoldenReport -update`).
tracestat-golden:
	$(GO) test -run TestGoldenReport ./internal/tracestat

# Resume smoke: run–interrupt–resume–diff against the real binary. The
# resumed sweep's -json output must be byte-identical to an uninterrupted
# run (the tentpole guarantee of the crash-safe harness). A second,
# multi-experiment pass checks that a journaled -all run prints the same
# bytes as an unjournaled one, that each of them simulates each distinct
# cell key once, and that its interrupt-and-resume round trip is
# byte-identical too.
resume-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	args="-exp fig11 -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$args >$$tmp/golden.json || exit 1; \
	$$tmp/experiments $$args -journal $$tmp/sweep.jsonl -interrupt-after 2 \
		>$$tmp/partial.json 2>$$tmp/interrupt.log; \
	status=$$?; \
	if [ $$status -ne 130 ]; then \
		echo "resume-smoke: interrupted run exited $$status, want 130"; \
		cat $$tmp/interrupt.log; exit 1; \
	fi; \
	$$tmp/experiments $$args -journal $$tmp/sweep.jsonl -resume >$$tmp/resumed.json || exit 1; \
	diff -u $$tmp/golden.json $$tmp/resumed.json \
		|| { echo "resume-smoke: resumed output differs from golden"; exit 1; }; \
	all="-all -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$all >$$tmp/all.json 2>$$tmp/all-plain.log \
		|| { cat $$tmp/all-plain.log; exit 1; }; \
	$$tmp/experiments $$all -journal $$tmp/all.jsonl >$$tmp/all-journaled.json 2>$$tmp/all.log \
		|| { cat $$tmp/all.log; exit 1; }; \
	diff -u $$tmp/all.json $$tmp/all-journaled.json \
		|| { echo "resume-smoke: journaled -all output differs from unjournaled"; exit 1; }; \
	distinct=$$(grep -o '"key":"[0-9a-f]*"' $$tmp/all.jsonl | sort -u | wc -l); \
	for log in all-plain.log all.log; do \
		executed=$$(sed -n 's/^supervision: \([0-9]*\) cell(s) executed.*/\1/p' $$tmp/$$log); \
		if [ -z "$$executed" ] || [ "$$executed" -ne "$$distinct" ]; then \
			echo "resume-smoke: -all ($$log) executed '$$executed' cell(s), want one per distinct journal key ($$distinct)"; \
			cat $$tmp/$$log; exit 1; \
		fi; \
	done; \
	$$tmp/experiments $$all -journal $$tmp/all2.jsonl -interrupt-after 40 \
		>/dev/null 2>$$tmp/all-interrupt.log; \
	status=$$?; \
	if [ $$status -ne 130 ]; then \
		echo "resume-smoke: interrupted -all run exited $$status, want 130"; \
		cat $$tmp/all-interrupt.log; exit 1; \
	fi; \
	$$tmp/experiments $$all -journal $$tmp/all2.jsonl -resume >$$tmp/all-resumed.json || exit 1; \
	diff -u $$tmp/all.json $$tmp/all-resumed.json \
		|| { echo "resume-smoke: resumed -all output differs from unjournaled"; exit 1; }; \
	echo "resume-smoke: resumed sweeps are byte-identical to uninterrupted runs; -all simulated each of its $$distinct distinct cells once, journaled or not"

# Service smoke: start a real ipexd, prove the miss-then-hit contract over
# HTTP (second identical request is a cache hit, byte-identical to the fresh
# response, and survives in the disk tier), then SIGINT it and require a
# clean drain (exit 0).
ipexd-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/cache 2>$$tmp/log & \
	pid=$$!; \
	addr=""; i=0; while [ $$i -lt 100 ]; do \
		addr=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/log); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "ipexd-smoke: server died at startup:"; cat $$tmp/log; exit 1; }; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$addr" ] || { echo "ipexd-smoke: server never announced its address"; cat $$tmp/log; exit 1; }; \
	req='{"app":"fft","scale":0.02,"config":{"ipex":"both"}}'; \
	curl -sfS -D $$tmp/h1 -o $$tmp/b1 -X POST "http://$$addr/v1/run" -d "$$req" \
		|| { echo "ipexd-smoke: fresh request failed"; exit 1; }; \
	grep -qi '^X-Ipex-Cache: miss' $$tmp/h1 \
		|| { echo "ipexd-smoke: fresh request was not a miss:"; cat $$tmp/h1; exit 1; }; \
	curl -sfS -D $$tmp/h2 -o $$tmp/b2 -X POST "http://$$addr/v1/run" -d "$$req" \
		|| { echo "ipexd-smoke: repeat request failed"; exit 1; }; \
	grep -qi '^X-Ipex-Cache: hit' $$tmp/h2 \
		|| { echo "ipexd-smoke: repeat request was not a hit:"; cat $$tmp/h2; exit 1; }; \
	cmp -s $$tmp/b1 $$tmp/b2 \
		|| { echo "ipexd-smoke: cache hit is not byte-identical to the fresh response"; exit 1; }; \
	[ -n "$$(ls $$tmp/cache 2>/dev/null)" ] \
		|| { echo "ipexd-smoke: disk tier is empty after a computed result"; exit 1; }; \
	kill -INT $$pid; wait $$pid; status=$$?; \
	if [ $$status -ne 0 ]; then \
		echo "ipexd-smoke: drain exited $$status, want 0"; cat $$tmp/log; exit 1; \
	fi; \
	echo "ipexd-smoke: miss-then-hit byte-identical; SIGINT drained cleanly"

# Observability smoke: a real sweep under -listen and a real ipexd, scraped
# live over HTTP. The sweep's /metrics must expose the cell-lifecycle
# latency histograms and render through ipextop; its -json output must stay
# byte-identical to a run with telemetry off (observing a sweep never
# perturbs its results). ipexd's /metrics must expose request-latency
# buckets and the derived cache gauges after a miss-then-hit pair.
obs-smoke:
	@tmp=$$(mktemp -d); pid=; dpid=; \
	trap 'kill -9 $$pid $$dpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	$(GO) build -o $$tmp/ipextop ./cmd/ipextop || exit 1; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	args="-exp fig11 -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$args >$$tmp/golden.json || exit 1; \
	$$tmp/experiments $$args -listen 127.0.0.1:0 -telemetry-linger 5s \
		>$$tmp/observed.json 2>$$tmp/sweep.log & pid=$$!; \
	addr=""; i=0; while [ $$i -lt 100 ]; do \
		addr=$$(sed -n 's#^telemetry listening on http://\([^/ ]*\)/metrics.*#\1#p' $$tmp/sweep.log); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "obs-smoke: sweep died at startup:"; cat $$tmp/sweep.log; exit 1; }; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$addr" ] || { echo "obs-smoke: sweep never announced its telemetry address"; cat $$tmp/sweep.log; exit 1; }; \
	$$tmp/ipextop -n 1 "$$addr" >$$tmp/frame.txt \
		|| { echo "obs-smoke: ipextop scrape failed"; cat $$tmp/sweep.log; exit 1; }; \
	grep -q 'harness_attempt_seconds' $$tmp/frame.txt \
		|| { echo "obs-smoke: ipextop frame missing the attempt latency row:"; cat $$tmp/frame.txt; exit 1; }; \
	curl -sfS "http://$$addr/metrics" >$$tmp/scrape.txt \
		|| { echo "obs-smoke: telemetry scrape failed"; exit 1; }; \
	grep -q '^# TYPE ipex_harness_attempt_seconds histogram' $$tmp/scrape.txt \
		|| { echo "obs-smoke: /metrics missing the attempt histogram"; exit 1; }; \
	grep -q '^# TYPE ipex_harness_queue_wait_seconds histogram' $$tmp/scrape.txt \
		|| { echo "obs-smoke: /metrics missing the queue-wait histogram"; exit 1; }; \
	wait $$pid || { echo "obs-smoke: observed sweep failed:"; cat $$tmp/sweep.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/observed.json \
		|| { echo "obs-smoke: telemetry perturbed the sweep results"; exit 1; }; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/cache 2>$$tmp/ipexd.log & dpid=$$!; \
	daddr=""; i=0; while [ $$i -lt 100 ]; do \
		daddr=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/ipexd.log); \
		[ -n "$$daddr" ] && break; \
		kill -0 $$dpid 2>/dev/null || { echo "obs-smoke: ipexd died at startup:"; cat $$tmp/ipexd.log; exit 1; }; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$daddr" ] || { echo "obs-smoke: ipexd never announced its address"; cat $$tmp/ipexd.log; exit 1; }; \
	req='{"app":"fft","scale":0.02,"config":{"ipex":"both"}}'; \
	curl -sfS -o /dev/null -X POST "http://$$daddr/v1/run" -d "$$req" || exit 1; \
	curl -sfS -o /dev/null -X POST "http://$$daddr/v1/run" -d "$$req" || exit 1; \
	curl -sfS "http://$$daddr/metrics" >$$tmp/dscrape.txt || exit 1; \
	grep -q '^ipex_ipexd_run_seconds_bucket{le="+Inf"} 2' $$tmp/dscrape.txt \
		|| { echo "obs-smoke: ipexd run latency buckets wrong after 2 requests:"; grep run_seconds $$tmp/dscrape.txt; exit 1; }; \
	grep -q '^ipex_ipexd_cache_hit_ratio 0.5' $$tmp/dscrape.txt \
		|| { echo "obs-smoke: ipexd hit ratio not 0.5 after miss+hit:"; grep hit_ratio $$tmp/dscrape.txt; exit 1; }; \
	kill -INT $$dpid; wait $$dpid \
		|| { echo "obs-smoke: ipexd drain failed"; cat $$tmp/ipexd.log; exit 1; }; \
	echo "obs-smoke: live latency histograms on both endpoints; telemetry left sweep results byte-identical"

# Short fuzzing passes over the untrusted-input surfaces: the simulator
# configuration validator, the harvest-trace parser, the journal line
# parser behind -resume, the /v1/run request decoder every ipexd exposes
# to the network, the /v1/batch frame reader every fleet client runs on
# server bytes, and the one-pass result decoder held to encoding/json's
# strict decode. `go test -fuzz` accepts one target per
# invocation, hence one line each. A canonical result body is at least
# 1.4 KB, and shrinking each new interesting one under the default 60 s
# minimization budget would take the whole pass, so FuzzDecodeResult
# minimizes for 2 s.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) ./internal/nvp/
	$(GO) test -run=NONE -fuzz=FuzzHarvestTraceParse -fuzztime=$(FUZZTIME) ./internal/power/
	$(GO) test -run=NONE -fuzz=FuzzJournalLine -fuzztime=$(FUZZTIME) ./internal/harness/
	$(GO) test -run=NONE -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzBatchFrames -fuzztime=$(FUZZTIME) ./internal/remote/
	$(GO) test -run=NONE -fuzz=FuzzDecodeResult -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/remote/

# Formatting and determinism lint. Every Go file in the repository must be
# as gofmt writes it. Simulator internals must not read the wall clock (Now,
# Since, After, Sleep, or timer construction) or the global math/rand stream
# — both would break replayable, seed-stable results. The one exception is
# internal/trace/clock.go: the wall-clock Clock every latency span injects,
# plus the real sleeps, timers and deadlines that retry backoff, hedging,
# batch-stream stalls and chaos-proxy holds wait on. None of them touch
# simulated results.
lint: vet
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "lint: files gofmt would change (run gofmt -w on them):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'time\.(Now|Since|After|Sleep|NewTimer|NewTicker)' internal/ --include='*.go' \
		| grep -v '^internal/trace/clock\.go:' \
		| grep -v '_test\.go'); \
	if [ -n "$$bad" ]; then \
		echo "lint: wall-clock use in simulator internals (only internal/trace/clock.go may read the clock, sleep or arm a timer):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"math/rand"' internal/ --include='*.go'); \
	if [ -n "$$bad" ]; then \
		echo "lint: math/rand import in internal/ (use the seeded PRNG in internal/rng):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '"net/http"\|"expvar"' internal/ *.go --include='*.go' \
		| grep -v '^internal/remote/'); \
	if [ -n "$$bad" ]; then \
		echo "lint: net/http or expvar outside cmd/ and internal/remote (servers and process vars belong to the command layer; the fleet client is the one library whose job is the wire):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'time\.(Now|Since|After|Sleep|NewTimer|NewTicker)' cmd/ --include='*.go' \
		| grep -v '_test\.go' \
		| grep -vE '^cmd/[a-z]+/main\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "lint: wall-clock use in cmd/ outside process mains (uptime, poll intervals, drain deadlines live in main.go and never touch simulated results; everything else takes a trace.Clock):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'http\.Server|ListenAndServe' internal/ cmd/ *.go --include='*.go' \
		| grep -v '_test\.go' | grep -v '^cmd/internal/httpd/'); \
	if [ -n "$$bad" ]; then \
		echo "lint: http.Server construction outside cmd/internal/httpd (every listener shares its timeouts and graceful-drain contract):"; \
		echo "$$bad"; exit 1; \
	fi

# Remote-execution smoke: a real sweep farmed to a real two-server ipexd
# fleet, each server behind a seeded faultnet chaos proxy (blackholes, 429
# storms, truncation, corruption), with one server SIGKILLed mid-sweep. The
# sweep output must stay byte-identical to the purely local golden, with
# zero failed cells, and the remote summary must show the resilience
# machinery actually fired (hedges under blackholes, remote cells despite
# the kill, cells answered from /v1/batch frames). A -listen sweep against
# the surviving server must print the same bytes and still batch: an
# observer changes neither the memo nor batching. -metrics with -servers
# must be refused, since its dump would hold only the client's series. A
# local -resume of the chaos sweep's journal must then re-execute zero cells
# and print the same bytes. A last pass against a dead fleet must degrade
# every cell to local execution — same bytes again.
remote-smoke:
	@tmp=$$(mktemp -d); d1=; d2=; f1=; f2=; \
	trap 'kill -9 $$d1 $$d2 $$f1 $$f2 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments || exit 1; \
	$(GO) build -o $$tmp/ipexd ./cmd/ipexd || exit 1; \
	$(GO) build -o $$tmp/faultnet ./cmd/faultnet || exit 1; \
	args="-exp fig11 -scale 0.02 -apps fft,gsme -json"; \
	$$tmp/experiments $$args >$$tmp/golden.json || exit 1; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/c1 2>$$tmp/d1.log & d1=$$!; \
	$$tmp/ipexd -listen 127.0.0.1:0 -cache-dir $$tmp/c2 2>$$tmp/d2.log & d2=$$!; \
	a1=""; a2=""; i=0; while [ $$i -lt 100 ]; do \
		a1=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/d1.log); \
		a2=$$(sed -n 's#^ipexd listening on http://\([^ ]*\).*#\1#p' $$tmp/d2.log); \
		[ -n "$$a1" ] && [ -n "$$a2" ] && break; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$a1" ] && [ -n "$$a2" ] \
		|| { echo "remote-smoke: ipexd servers never announced their addresses"; cat $$tmp/d1.log $$tmp/d2.log; exit 1; }; \
	$$tmp/faultnet -listen 127.0.0.1:0 -upstream "$$a1" -seed 11 \
		-blackhole 0.25 -max-hold 2s -reject429 0.15 -truncate 0.1 -corrupt 0.1 2>$$tmp/f1.log & f1=$$!; \
	$$tmp/faultnet -listen 127.0.0.1:0 -upstream "$$a2" -seed 12 \
		-blackhole 0.25 -max-hold 2s -reject429 0.15 -truncate 0.1 -corrupt 0.1 2>$$tmp/f2.log & f2=$$!; \
	p1=""; p2=""; i=0; while [ $$i -lt 100 ]; do \
		p1=$$(sed -n 's#^faultnet listening on \([^ ]*\).*#\1#p' $$tmp/f1.log); \
		p2=$$(sed -n 's#^faultnet listening on \([^ ]*\).*#\1#p' $$tmp/f2.log); \
		[ -n "$$p1" ] && [ -n "$$p2" ] && break; \
		sleep 0.1; i=$$((i+1)); done; \
	[ -n "$$p1" ] && [ -n "$$p2" ] \
		|| { echo "remote-smoke: faultnet proxies never announced their addresses"; cat $$tmp/f1.log $$tmp/f2.log; exit 1; }; \
	$$tmp/experiments $$args -servers "http://$$p1,http://$$p2" \
		-remote-retries 8 -hedge-after 100ms -journal $$tmp/sweep.jsonl \
		>$$tmp/remote.json 2>$$tmp/sweep.log & spid=$$!; \
	i=0; while [ $$i -lt 200 ]; do \
		n=$$(wc -l 2>/dev/null <$$tmp/sweep.jsonl) || n=0; \
		[ "$$n" -ge 2 ] && break; \
		kill -0 $$spid 2>/dev/null || break; \
		sleep 0.05; i=$$((i+1)); done; \
	kill -9 $$d1 2>/dev/null; \
	wait $$spid; status=$$?; \
	if [ $$status -ne 0 ]; then \
		echo "remote-smoke: chaos sweep exited $$status"; cat $$tmp/sweep.log; exit 1; \
	fi; \
	diff -u $$tmp/golden.json $$tmp/remote.json \
		|| { echo "remote-smoke: chaos sweep output differs from local golden"; cat $$tmp/sweep.log; exit 1; }; \
	grep -Eq '^remote: cells=[1-9]' $$tmp/sweep.log \
		|| { echo "remote-smoke: no cell executed remotely under chaos:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	grep -Eq ' failed=0 ' $$tmp/sweep.log \
		|| { echo "remote-smoke: chaos sweep failed cells:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	grep -Eq ' hedges=[1-9]' $$tmp/sweep.log \
		|| { echo "remote-smoke: blackholes never triggered a hedge:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	grep -Eq ' batched=[1-9]' $$tmp/sweep.log \
		|| { echo "remote-smoke: no cell was answered from a /v1/batch frame:"; grep '^remote:' $$tmp/sweep.log; exit 1; }; \
	$$tmp/experiments $$args -servers "http://$$a2" -listen 127.0.0.1:0 \
		-journal $$tmp/observed.jsonl >$$tmp/observed.json 2>$$tmp/observed.log \
		|| { echo "remote-smoke: observed sweep failed"; cat $$tmp/observed.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/observed.json \
		|| { echo "remote-smoke: observed sweep output differs from local golden"; exit 1; }; \
	grep -Eq ' batched=[1-9]' $$tmp/observed.log \
		|| { echo "remote-smoke: an observed sweep batched no cell:"; grep '^remote:' $$tmp/observed.log; exit 1; }; \
	if $$tmp/experiments $$args -servers "http://$$a2" -metrics $$tmp/m.json \
		>/dev/null 2>$$tmp/metrics.log; then \
		echo "remote-smoke: -servers with -metrics was accepted, want a refusal"; exit 1; \
	fi; \
	grep -q 'incompatible with -trace/-tracedir/-metrics' $$tmp/metrics.log \
		|| { echo "remote-smoke: -servers with -metrics failed for another reason:"; cat $$tmp/metrics.log; exit 1; }; \
	$$tmp/experiments $$args -journal $$tmp/sweep.jsonl -resume \
		>$$tmp/resumed.json 2>$$tmp/resume.log || { cat $$tmp/resume.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/resumed.json \
		|| { echo "remote-smoke: local resume of the fleet journal differs from golden"; exit 1; }; \
	grep -q 'supervision: 0 cell(s) executed' $$tmp/resume.log \
		|| { echo "remote-smoke: resume re-executed cells the fleet completed:"; cat $$tmp/resume.log; exit 1; }; \
	$$tmp/experiments $$args -servers http://127.0.0.1:1 -remote-retries 1 \
		>$$tmp/down.json 2>$$tmp/down.log \
		|| { echo "remote-smoke: dead-fleet sweep failed"; cat $$tmp/down.log; exit 1; }; \
	diff -u $$tmp/golden.json $$tmp/down.json \
		|| { echo "remote-smoke: dead-fleet sweep output differs from local golden"; exit 1; }; \
	grep -Eq '^remote: cells=0 (fallback=[1-9]|fallback=0 unroutable=[1-9])' $$tmp/down.log \
		|| { echo "remote-smoke: dead fleet did not degrade to local:"; grep '^remote:' $$tmp/down.log; exit 1; }; \
	echo "remote-smoke: chaos + SIGKILL sweep byte-identical to local, batched cells included, observed too; its resume executed 0 cells; dead fleet degraded cleanly; -metrics refused"

ci: build lint race golden tracestat-golden resume-smoke ipexd-smoke obs-smoke remote-smoke fuzz bench-smoke
	$(GO) test -run=NONE -bench=BenchmarkFig10 -benchtime=1x ./...

clean:
	$(GO) clean -testcache
