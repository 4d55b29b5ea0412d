# Contributor entry points for what .github/workflows/ci.yml checks; the
# fuzz-, obs-, scale-, serve- and merge-smoke and perfbench-check CI jobs
# run these targets as they are, so CI is reproducible locally with one
# command.  Tool-dependent targets (fmt, doc) skip with a notice when the
# tool is not installed rather than failing, matching the CI jobs that
# install them explicitly.

.PHONY: all build test fmt doc bench fuzz-smoke obs-smoke scale-smoke serve-smoke merge-smoke perfbench-check ci clean

all: build

build:
	dune build

test: build
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed — skipping (CI runs it)"; \
	fi

doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "doc: odoc not installed — skipping (CI runs it)"; \
	fi

# Full evaluation tables (slow); see bench/main.ml for flags.
bench:
	dune exec bench/main.exe

# Fuzz smoke, run as-is by the fuzz-smoke CI job: deterministic seed-42
# campaigns of 200 mutants per language against the scan pipeline plus the
# metamorphic oracles.  Exits non-zero on any crash or oracle violation;
# minimized reproducers land under _build/fuzz-crashes/<lang>/<bucket>/.
fuzz-smoke: build
	@set -eu; \
	for lang in python java; do \
	  _build/default/bin/namer_cli.exe fuzz --lang $$lang --seed 42 --iters 200 \
	    --no-ledger --out _build/fuzz-crashes/$$lang; \
	done

# Observability smoke, run as-is by the obs-smoke CI job: train + two
# cached --jobs 4 scans into a throwaway state dir, then assert 3 ledger
# records, event logs whose every line is JSON with a trace/span context,
# a --quiet warm scan that is silent on stderr yet logs its cache line and
# hits >= 90% of files with identical output, OpenMetrics exports that
# validate, a report that shows both scans without flagging them, and a
# --trace scan (own ledger) whose Chrome trace parses and holds one parse
# event per file its ledger record counts in frontend.files_parsed.
obs-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	export XDG_STATE_HOME="$$state"; \
	namer=_build/default/bin/namer_cli.exe; \
	"$$namer" corpus --files 600 --out "$$state/corpus"; \
	"$$namer" train "$$state/corpus" --model "$$state/m.nmdl" --log-json "$$state/train.jsonl"; \
	"$$namer" scan --model "$$state/m.nmdl" --cache-dir "$$state/cache" --jobs 4 \
	  --metrics-out "$$state/cold.prom" --log-json "$$state/scan1.jsonl" "$$state/corpus" \
	  > "$$state/s1.out"; \
	"$$namer" scan --model "$$state/m.nmdl" --cache-dir "$$state/cache" --jobs 4 --quiet \
	  --metrics-out "$$state/warm.prom" --log-json "$$state/scan2.jsonl" "$$state/corpus" \
	  > "$$state/s2.out" 2> "$$state/s2.err"; \
	diff "$$state/s1.out" "$$state/s2.out"; \
	test ! -s "$$state/s2.err"; \
	hits=$$(grep -o 'cache: [0-9]* hits' "$$state/scan2.jsonl" | grep -o '[0-9]*'); \
	misses=$$(grep -o '[0-9]* misses' "$$state/scan2.jsonl" | grep -o '[0-9]*'); \
	test "$$hits" -gt 0; \
	test $$((hits * 10)) -ge $$(((hits + misses) * 9)); \
	python3 -c 'import json, sys; bad = [l for f in sys.argv[1:] for l in open(f) if not all(json.loads(l).get(k) for k in ("trace", "span", "level"))]; sys.exit("bad event lines: %s" % bad if bad else 0)' \
	  "$$state/train.jsonl" "$$state/scan1.jsonl" "$$state/scan2.jsonl"; \
	test "$$(wc -l < "$$state/namer/ledger.jsonl")" -eq 3; \
	grep -q '^# EOF$$' "$$state/cold.prom"; \
	grep -q 'namer_scan_cache_hits_total' "$$state/warm.prom"; \
	"$$namer" stats --openmetrics > "$$state/stats.prom"; \
	grep -q '^# EOF$$' "$$state/stats.prom"; \
	"$$namer" report --check > "$$state/report.txt"; \
	cat "$$state/report.txt"; \
	test "$$(grep -c ' scan ' "$$state/report.txt")" -eq 2; \
	"$$namer" scan --model "$$state/m.nmdl" --jobs 2 --quiet --trace "$$state/trace.json" \
	  --ledger "$$state/trace-ledger" "$$state/corpus" > /dev/null; \
	python3 -c 'import json, sys; events = json.load(open(sys.argv[1]))["traceEvents"]; parsed = json.loads(open(sys.argv[2]).readlines()[-1])["counters"]["frontend.files_parsed"]; n = sum(e["name"] == "parse" for e in events); print("trace: %d parse events, %d files parsed" % (n, parsed)); sys.exit(0 if n == parsed > 0 else "trace parse events differ from frontend.files_parsed")' \
	  "$$state/trace.json" "$$state/trace-ledger/ledger.jsonl"; \
	echo "obs-smoke: OK ($$hits/$$((hits + misses)) warm cache hits)"

# Scale smoke, run as-is by the scale-smoke CI job: the paper-scale
# streaming path end to end.  Generate a deterministic 20,000-file corpus,
# train and scan it under address-space ceilings that an O(corpus)-resident
# frontend would blow through (training retains per-file digests — linear
# but lean, ~2.3 GB top-heap, so 6 GiB passes with headroom but kills
# source retention; the scan retains only reports, ~140 MB top-heap, so
# 1.5 GiB is an order of magnitude of headroom).  Train and scan each at
# jobs=4 and jobs=1: the two models must be byte-identical (cmp) and the
# two scans must report byte-identically.  The jobs=4 scan is held to a
# 500 files/s floor, which catches a complexity cliff without pinning
# runner-dependent timings.  Build speedup: the in-process build of the
# 15-repo Python demo corpus (the `build` row of `namer demo --metrics`,
# best of 3 per job count, interleaved) must be no slower at jobs=4 than
# at jobs=1 on 2+ cores and at least 2.5x faster on 4+ cores.  The 20k
# train and scan pairs' ratios are reported, not gated.  Wall times have
# sub-second resolution; the runs write no ledger row, so the times hold
# no re-read of the corpus for the row's digest.  The speedup is checked
# last, so a miss there still shows every other result.  Outputs and
# summary.txt land in _build/scale-smoke/.
scale-smoke: build
	@set -eu; \
	out=_build/scale-smoke; rm -rf "$$out"; mkdir -p "$$out"; \
	namer=_build/default/bin/namer_cli.exe; \
	now() { date +%s.%N; }; \
	calc() { awk "BEGIN { printf \"%.2f\", $$1 }"; }; \
	below() { awk "BEGIN { exit !($$1 < $$2) }"; }; \
	build_ms() { XDG_STATE_HOME="$$out/state" "$$namer" demo --repos 15 --jobs "$$1" --metrics \
	  --no-ledger 2>&1 >/dev/null | awk '$$1 == "build" { print $$3; exit }'; }; \
	best() { printf '%s\n' "$$@" | sort -g | head -n 1; }; \
	b1=; b4=; \
	for _ in 1 2 3; do b1="$$b1 $$(build_ms 1)"; b4="$$b4 $$(build_ms 4)"; done; \
	build1=$$(best $$b1); build4=$$(best $$b4); \
	if [ -z "$$build1" ] || [ -z "$$build4" ]; then \
	  echo "FAIL: namer demo --metrics printed no build row"; exit 1; \
	fi; \
	"$$namer" corpus --files 20000 --out "$$out/corpus"; \
	du -sh "$$out/corpus"; \
	t0=$$(now); \
	( ulimit -v 6291456; \
	  "$$namer" train --jobs 4 --no-ledger --model "$$out/scale.nmdl" "$$out/corpus" ); \
	t1=$$(now); \
	( ulimit -v 6291456; \
	  "$$namer" train --jobs 1 --no-ledger --model "$$out/scale1.nmdl" "$$out/corpus" ); \
	t2=$$(now); \
	if ! cmp "$$out/scale.nmdl" "$$out/scale1.nmdl"; then \
	  echo "FAIL: jobs=4 model differs from jobs=1"; exit 1; \
	fi; \
	( ulimit -v 1572864; \
	  "$$namer" scan --model "$$out/scale.nmdl" --jobs 4 --no-ledger --max-reports 100000 \
	    "$$out/corpus" > "$$out/scan4.out" 2> "$$out/scan4.err" ); \
	t3=$$(now); \
	( ulimit -v 1572864; \
	  "$$namer" scan --model "$$out/scale.nmdl" --jobs 1 --no-ledger --max-reports 100000 \
	    "$$out/corpus" > "$$out/scan1.out" 2> "$$out/scan1.err" ); \
	t4=$$(now); \
	if ! diff "$$out/scan4.out" "$$out/scan1.out"; then \
	  echo "FAIL: jobs=4 scan differs from jobs=1"; exit 1; \
	fi; \
	train4=$$(calc "$$t1 - $$t0"); train1=$$(calc "$$t2 - $$t1"); \
	scan4=$$(calc "$$t3 - $$t2"); scan1=$$(calc "$$t4 - $$t3"); \
	fps=$$(calc "20000 / $$scan4"); \
	build_ratio=$$(calc "$$build1 / $$build4"); \
	train_ratio=$$(calc "$$train1 / $$train4"); scan_ratio=$$(calc "$$scan1 / $$scan4"); \
	cores=$$(nproc); floor=0; \
	[ "$$cores" -lt 2 ] || floor=1.0; [ "$$cores" -lt 4 ] || floor=2.5; \
	{ echo "20000 files, $${scan4}s scan ($${fps} files/s), $$(wc -l < "$$out/scan4.out") report lines"; \
	  echo "demo build: jobs=1 $${build1} ms, jobs=4 $${build4} ms, best of 3 ($${build_ratio}x, floor $${floor}x on $${cores} cores)"; \
	  echo "train: jobs=1 $${train1}s, jobs=4 $${train4}s ($${train_ratio}x, not gated)"; \
	  echo "scan: jobs=1 $${scan1}s, jobs=4 $${scan4}s ($${scan_ratio}x, not gated)"; \
	  echo "jobs=4 vs jobs=1: byte-identical models and reports"; \
	  grep -m1 'files' "$$out/scan4.err" || true; } > "$$out/summary.txt"; \
	cat "$$out/summary.txt"; \
	rm -rf "$$out/corpus"; \
	if below "$$fps" 500; then \
	  echo "FAIL: scan rate $${fps} files/s below the 500 files/s floor"; exit 1; \
	fi; \
	if below "$$build_ratio" "$$floor"; then \
	  echo "FAIL: jobs=4 demo build only $${build_ratio}x faster than jobs=1 on $${cores} cores (floor $${floor}x)"; exit 1; \
	fi; \
	echo "scale-smoke: OK"

# Serve smoke, run as-is by the serve-smoke CI job: start the daemon on a
# Unix socket, fire 50 concurrent requests (with a model hot-swap
# mid-traffic) through bench/loadtest.exe, and require the responses to
# be byte-identical to `namer scan --model`, the name-path interner sizes
# in `status` to be the same before and after the run (scans never grow
# it), `status` to show --jobs 4 as a pool of 3 workers (the I/O domain
# is the fourth) and to count the 50 scans with no errors, a clean
# SIGTERM drain, and a serve row in the run ledger.  Cache
# sharing across processes: a CLI scan of a second corpus into the live
# daemon's cache dir, after which the daemon scans that corpus with no
# misses (it indexed the CLI's appends) and the CLI's exact text, and
# `status` reports the pack's entries and bytes.  Per-file isolation: a
# `files` request naming that corpus's files plus one missing path gives
# the CLI's text for the corpus and counts the missing path as one
# skipped file.
serve-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	namer=_build/default/bin/namer_cli.exe; \
	loadtest=_build/default/bench/loadtest.exe; \
	"$$namer" corpus --files 600 --out "$$state/corpus" 2>/dev/null; \
	"$$namer" train "$$state/corpus" --model "$$state/m.nmdl" 2>/dev/null; \
	"$$namer" serve --model "$$state/m.nmdl" --socket "$$state/namer.sock" \
	  --cache-dir "$$state/cache" --jobs 4 --ledger "$$state/ledger" \
	  2> "$$state/daemon.err" & pid=$$!; \
	trap '{ kill "$$pid" && wait "$$pid"; } 2>/dev/null || true; rm -rf "$$state"' EXIT; \
	for _ in $$(seq 1 100); do [ -S "$$state/namer.sock" ] && break; sleep 0.1; done; \
	[ -S "$$state/namer.sock" ]; \
	status() { python3 -c 'import socket, sys; s = socket.socket(socket.AF_UNIX); s.connect(sys.argv[1]); s.sendall(b"{\"op\":\"status\"}\n"); sys.stdout.write(s.makefile().readline())' "$$state/namer.sock"; }; \
	interner() { status | python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["interner"], sort_keys=True))'; }; \
	before=$$(interner); \
	"$$loadtest" --socket "$$state/namer.sock" --dir "$$state/corpus" \
	  --clients 8 --requests 50 --max-reports 100000 \
	  --reload-at 25 --reload-model "$$state/m.nmdl" \
	  --expect-identical --dump-text "$$state/serve.txt" --out "$$state/loadtest.json"; \
	after=$$(interner); \
	echo "interner before: $$before, after: $$after"; \
	[ "$$before" = "$$after" ]; \
	status | python3 -c 'import json, sys; st = json.load(sys.stdin); pool = st["pool"] or {}; print("status: jobs %s, pool size %s, %d scans, %d errors" % (st["jobs"], pool.get("size"), st["scans"], st["errors"])); st["jobs"] == 4 and pool.get("size") == 3 or sys.exit("--jobs 4 must run 3 pool workers beside the I/O domain"); st["scans"] >= 50 and st["errors"] == 0 or sys.exit("status must count the 50 scans, and no errors")'; \
	"$$namer" scan --model "$$state/m.nmdl" --max-reports 100000 "$$state/corpus" \
	  > "$$state/cli.txt" 2>/dev/null; \
	diff "$$state/serve.txt" "$$state/cli.txt"; \
	"$$namer" corpus --files 200 --seed 7 --out "$$state/corpus2" 2>/dev/null; \
	"$$namer" scan --model "$$state/m.nmdl" --cache-dir "$$state/cache" --max-reports 100000 \
	  "$$state/corpus2" > "$$state/cli2.txt" 2>/dev/null; \
	"$$loadtest" --socket "$$state/namer.sock" --dir "$$state/corpus2" \
	  --clients 1 --requests 1 --max-reports 100000 \
	  --dump-text "$$state/serve2.txt" --dump-json "$$state/serve2.json" > /dev/null; \
	python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); print("daemon scan after the CLI: %d hits, %d misses" % (r["cache_hits"], r["cache_misses"])); sys.exit(0 if r["cache_hits"] > 0 and r["cache_misses"] == 0 else "the daemon missed entries the CLI appended")' \
	  "$$state/serve2.json"; \
	diff "$$state/serve2.txt" "$$state/cli2.txt"; \
	files=$$(python3 -c 'import json, os, sys; d = sys.argv[1]; ps = sorted(os.path.join(r, f) for r, _, fs in os.walk(d) for f in fs if f.endswith(".py")); print(json.dumps({"op": "scan", "files": ps + [os.path.join(d, "missing.py")], "max_reports": 100000}))' "$$state/corpus2"); \
	"$$loadtest" --socket "$$state/namer.sock" --payload "$$files" --clients 1 --requests 1 \
	  --dump-text "$$state/serve3.txt" --dump-json "$$state/serve3.json" > /dev/null; \
	python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); print("files request: %d files, %d skipped" % (r["files"], r["files_skipped"])); sys.exit(0 if r["files_skipped"] == 1 else "the missing path must be one skipped file")' \
	  "$$state/serve3.json"; \
	diff "$$state/serve3.txt" "$$state/cli2.txt"; \
	status | python3 -c 'import json, sys; c = json.load(sys.stdin)["cache"]; print("cache: %d entries, %d pack bytes" % (c["entries"], c["pack_bytes"])); sys.exit(0 if c["entries"] > 0 and c["pack_bytes"] > 0 else "status lacks cache entries")'; \
	kill -TERM "$$pid"; wait "$$pid"; \
	[ ! -e "$$state/namer.sock" ]; \
	grep -q '"cmd":"serve"' "$$state/ledger/ledger.jsonl"; \
	cat "$$state/daemon.err"; \
	echo "serve-smoke: OK"

# Merge smoke, run as-is by the merge-smoke CI job: deal a generated corpus's
# repos into two symlink-farm halves, train each into a partial, merge
# the partials into a model, and require it to scan the corpus
# byte-identically to a direct train over everything; then check the
# --update incremental path lands on the same reports, that its ledger row
# counts exactly half2's files in frontend.files_parsed (folding new files
# into a partial digests only them, never the trained half), and that the
# merge runs left cmd:"merge" rows in the run ledger.
merge-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	namer=_build/default/bin/namer_cli.exe; \
	"$$namer" corpus --files 2000 --out "$$state/corpus" 2>/dev/null; \
	mkdir -p "$$state/half1" "$$state/half2"; \
	i=0; for d in "$$state"/corpus/*/; do \
	  i=$$((i + 1)); \
	  ln -s "$$(readlink -f "$$d")" "$$state/half$$((i % 2 + 1))/$$(basename "$$d")"; \
	done; \
	"$$namer" train "$$state/half1" --partial "$$state/h1.nprt" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train "$$state/half2" --partial "$$state/h2.nprt" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train --merge "$$state/h1.nprt" "$$state/h2.nprt" \
	  --model "$$state/merged.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train "$$state/corpus" --model "$$state/full.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" scan "$$state/corpus" --model "$$state/merged.nmdl" --max-reports 100000 \
	  > "$$state/merged.txt" 2>/dev/null; \
	"$$namer" scan "$$state/corpus" --model "$$state/full.nmdl" --max-reports 100000 \
	  > "$$state/full.txt" 2>/dev/null; \
	diff "$$state/merged.txt" "$$state/full.txt"; \
	cp "$$state/h1.nprt" "$$state/inc.nprt"; \
	"$$namer" train --update "$$state/inc.nprt" --add "$$state/half2" \
	  --model "$$state/inc.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	python3 -c 'import json, sys; n = json.loads(open(sys.argv[1]).readlines()[-1])["counters"]["frontend.files_parsed"]; want = int(sys.argv[2]); print("update: parsed %d files, %d under half2" % (n, want)); sys.exit(0 if n == want else "--update must parse only the added files")' \
	  "$$state/ledger/ledger.jsonl" "$$(find -L "$$state/half2" -type f -name '*.py' | wc -l)"; \
	"$$namer" scan "$$state/corpus" --model "$$state/inc.nmdl" --max-reports 100000 \
	  > "$$state/inc.txt" 2>/dev/null; \
	diff "$$state/inc.txt" "$$state/full.txt"; \
	test "$$(grep -c '"cmd":"merge"' "$$state/ledger/ledger.jsonl")" -eq 2; \
	"$$namer" report --dir "$$state/ledger" | grep -q ' merge '; \
	echo "merge-smoke: OK"

# Repo benchmark output checks, run as-is by the perfbench-check CI job:
# one short untraced pass of every perfbench workload.  run.py exits
# non-zero when an output check fails: the pinned seed-1 scan20k report
# count and MD5, the pinned train1k patterns/violations/precision, or the
# 16 serve-java responses that must match an in-process scan.
perfbench-check: build
	python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

# Everything the CI workflow checks, in order.
ci: build test fmt doc fuzz-smoke obs-smoke scale-smoke serve-smoke merge-smoke perfbench-check

clean:
	dune clean
