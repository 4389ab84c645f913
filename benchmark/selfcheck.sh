#!/usr/bin/env bash
# Does what the driver does: ten untraced runs per workload on ten seeds,
# twice, with the command and bounds of BENCHMARK.json. Prints, per metric x
# workload and per set, median, quartiles and IQR / median, and fails if a
# spread (setup_s excepted) or the second set's drift exceeds the metric's
# bound, if any run fails an op, or if a seed's digest does not repeat.
#
#   benchmark/selfcheck.sh [runs-per-set, default 10]   # from anywhere
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" <<'PY'
import json, statistics, subprocess, sys, time

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]
seeds = list(range(1, runs + 1))
results = {}  # (set, workload) -> list of {metric: value}
digests = {}  # (workload, seed) -> digest
ok = True
started = time.time()

for set_no in (1, 2):
    for w in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"FAIL set {set_no} {w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                ok = False
                continue
            r = json.loads(lines[-1])
            if not r["correct"] or r["failed"] != 0:
                print(f"FAIL set {set_no} {w} seed {seed}: correct={r['correct']} failed={r['failed']}")
                ok = False
            digest = next(l.split("digest=")[1] for l in lines if "digest=" in l)
            if digests.setdefault((w, seed), digest) != digest:
                print(f"FAIL {w} seed {seed}: digest {digest} != {digests[(w, seed)]}")
                ok = False
            results.setdefault((set_no, w), []).append({k: v["value"] for k, v in r["metrics"].items()})
            print(f"# set {set_no} {w} seed {seed}: {time.time() - t:.1f} s", file=sys.stderr)

print(f"{runs} runs per workload and set, run_seconds {spec['run_seconds']}, "
      f"seeds {seeds[0]}..{seeds[-1]}, {time.time() - started:.0f} s in all\n")
print("| workload | metric | set | median | q1 | q3 | IQR/median | bound | drift of set 2 | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in (w["name"] for w in spec["workloads"]):
    for m in metrics:
        medians = {}
        for set_no in (1, 2):
            values = [r[m["name"]] for r in results.get((set_no, w), [])]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            medians[set_no] = med
            spread = (q3 - q1) / med
            drift = ""
            verdict = "ok"
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdict = "SPREAD"
            if set_no == 2 and 1 in medians:
                worse = (med - medians[1]) / medians[1]
                if m["better"] == "higher":
                    worse = -worse
                drift = f"{worse:+.2%}"
                if worse > m["bound"]:
                    verdict = "DRIFT"
            if verdict != "ok":
                ok = False
            print(f"| {w} | {m['name']} | {set_no} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.2%} | {m['bound']:.0%} | {drift} | {verdict} |")

print("\nselfcheck:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
