#!/usr/bin/env python3
"""Repository benchmark for gcr: host time and memory of the simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload hpl_campaign|scale|resilience \
        [--seed N] [--seconds S] [--trace 0|1] [--record]

The first call configures and builds perfbench/ (the gcr library plus the
gcr_perfbench program, Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. Every later call reuses the build.

--trace 0 (the end-to-end pass) puts only wall clocks and RSS readings
around the timed phase. --trace 1 (the traced pass) adds per-job timers and
runs each control pair: a unit against its twin with one layer switched off
or swapped, which attributes that layer's host time and events from outside
the simulator. The report goes to stdout, one metric per line with its
unit; the last line is one JSON object with the keys correct, attempted,
failed and metrics. --record rewrites perfbench/digests.txt for the
workload (default seed only). See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
WORKLOADS = ("hpl_campaign", "scale", "resilience")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 60  # one simulated run; a hang past this counts as failed
SETUP_REPS = 7  # set-up processes per call; setup_s is their median

# Run-record counters summed into per-layer metrics.
COUNTERS = {
    "core.recovery.injected": "injected",
    "core.recovery.completed": "completed",
    "core.recovery.aborted": "aborted",
    "core.recovery.absorbed": "absorbed",
    "core.elastic.drains": "drains",
    "core.elastic.reclaims_clean": "reclaims_clean",
    "core.elastic.reclaims_forced": "reclaims_forced",
    "core.elastic.joins": "joins",
    "core.elastic.merges": "merges",
    "ckpt.images_staged": "images_staged",
    "ckpt.drains_completed": "drains_completed",
    "ckpt.evictions": "evictions",
    "ckpt.writer_stalls": "writer_stalls",
    "ckpt.reads.node": "reads_node",
    "ckpt.reads.bb": "reads_bb",
    "ckpt.reads.pfs": "reads_pfs",
}

# Control-pair kind -> (host-seconds metric, events metric or None).
PAIR_METRICS = {
    "ckpt": ("core.ckpt_host_s", "core.ckpt_events"),
    "routed": ("sim.net.routed_host_s", "sim.net.routed_events"),
    "faults": ("core.recovery.host_s", None),
    "churn": ("core.recovery.host_s", None),
    "tier": ("ckpt.tier_host_s", None),
}


class HarnessError(Exception):
    """The benchmark itself could not do its job (not a failed run)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds gcr_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise HarnessError("no gcr sources beside perfbench/ (want ../src)")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gcr_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise HarnessError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "gcr_perfbench")


class Program:
    """Runs gcr_perfbench commands, one process each."""

    def __init__(self, binary, workload, seed, group_dir):
        self.binary = binary
        self.common = ["--workload", workload, "--seed", str(seed),
                       "--dir", group_dir]

    def call(self, args):
        """Returns (record, ""), or (None, failure reason) when the process
        crashed or hung. A failed run's record carries only `run_s`: the
        host seconds its process ran, which the workload spent on it."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run([self.binary] + args + self.common,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return ({"run_s": time.monotonic() - t0},
                    "hang: no result after %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0:
            tail = [l for l in proc.stderr.strip().splitlines() if l.strip()]
            why = " | ".join(l.strip() for l in tail[-3:])
            return ({"run_s": time.monotonic() - t0},
                    "crash: exit %d: %s" % (proc.returncode, why))
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), ""
        except (ValueError, IndexError):
            raise HarnessError("unreadable gcr_perfbench output for %s" % args)

    def must(self, args):
        rec, why = self.call(args)
        if why:
            raise HarnessError("%s failed: %s" % (args[0], why))
        return rec


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile; 0 for no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Books:
    """Per-unit samples, digests and failures of one call."""

    def __init__(self):
        self.run_s = {}     # unit -> [host s]
        self.records = {}   # unit -> first record (counters, events, RSS)
        self.digests = {}   # unit -> set of digests ("crash" for no result)
        self.failures = []  # (unit, reason)
        self.attempted = 0

    def add(self, unit, rec, why):
        self.attempted += 1
        if rec["run_s"] >= 0:
            self.run_s.setdefault(unit, []).append(rec["run_s"])
        if why:
            self.digests.setdefault(unit, set()).add("crash")
            self.failures.append((unit, why))
            return
        self.records.setdefault(unit, rec)
        self.digests.setdefault(unit, set()).add(rec["digest"])
        if rec["reason"]:
            self.failures.append((unit, rec["reason"]))

    def med(self, unit):
        return median(self.run_s.get(unit, []))

    def absorb(self, other):
        """Takes over another call's digests, failures and attempts, so one
        check covers a unit run both in the campaign and alone."""
        for u, ds in other.digests.items():
            self.digests.setdefault(u, set()).update(ds)
        self.failures += other.failures
        self.attempted += other.attempted


def standalone_pass(prog, books, units):
    """Runs units one process each; returns the share of the pass's host
    seconds spent inside the simulations."""
    t0 = time.monotonic()
    busy = 0.0
    for u in units:
        rec, why = prog.call(["run", "--unit", u])
        books.add(u, rec, why)
        busy += rec["run_s"]
    return busy / (time.monotonic() - t0)


def memory_metrics(books, units, pairs):
    """Peak RSS and per-rank RSS of the largest run, and the checkpoint
    layer's share of that run's memory (its ckpt_off twin)."""
    done = [(books.records[u]["ranks"], books.records[u]["hwm_kb"], u)
            for u in units if u in books.records]
    if not done:
        return {}
    peak_kb = max(hwm for _, hwm, _ in done)
    _, hwm, big = max(done)
    rec = books.records[big]
    out = {
        "peak_rss_mb": peak_kb / 1024.0,
        "rss_per_rank_kb": (hwm - rec["rss_pre_kb"]) / rec["ranks"],
        "largest": big,
        "mem.ckpt_rss_mb": 0.0,
    }
    for p in pairs:
        if p["kind"] == "ckpt" and p["unit"] == big and \
                p["twin"] in books.records:
            out["mem.ckpt_rss_mb"] = \
                (hwm - books.records[p["twin"]]["hwm_kb"]) / 1024.0
    return out


def pair_metrics(books, pairs, report):
    """Sums each control pair's host-time and event deltas by layer."""
    out = {}
    for p in pairs:
        secs, events = PAIR_METRICS[p["kind"]]
        out.setdefault(secs, 0.0)
        if events:
            out.setdefault(events, 0)
        u, t = p["unit"], p["twin"]
        if u not in books.records or t not in books.records:
            report.append("pair %s %s/%s: skipped, a side failed"
                          % (p["kind"], u, t))
            continue
        d = books.med(u) - books.med(t)
        out[secs] += d
        report.append("%s.%s = %.6f s  (%s minus %s)" % (secs, u, d, u, t))
        if events:
            de = books.records[u]["events"] - books.records[t]["events"]
            out[events] += de
            report.append("%s.%s = %d count" % (events, u, de))
    return out


def counter_metrics(books, units):
    out = {m: 0 for m in COUNTERS}
    for u in units:
        if u in books.records:
            for m, key in COUNTERS.items():
                out[m] += books.records[u]["counters"][key]
    return out


def run_setups(prog):
    """Runs the set-up SETUP_REPS times, each in a fresh process, and
    returns the median figures. Each process writes the group files the
    runs load."""
    setups = [prog.must(["setup"]) for _ in range(SETUP_REPS)]
    return {
        "setup_s": median([s["setup_s"] for s in setups]),
        "group.profile_s": median([s["profile_s"] for s in setups]),
        "group.form_s": median([s["form_s"] for s in setups]),
        "group.trace_records": setups[0]["trace_records"],
    }


def run_standalone_workload(prog, spec, seconds, trace, report):
    """scale and resilience: every run in its own process. The
    exp.campaign.* figures are those of this one-worker sequential pass."""
    setup = run_setups(prog)
    mains = [u["name"] for u in spec["units"] if not u["trace_only"]]
    twins = [u["name"] for u in spec["units"] if u["trace_only"]]
    books = Books()
    busy = []
    deadline = time.monotonic() + seconds
    passes = 0
    while passes == 0 or time.monotonic() < deadline:
        busy.append(standalone_pass(prog, books, mains))
        if trace:
            standalone_pass(prog, books, twins)
        passes += 1
    report.append("passes = %d" % passes)

    wall = sum(books.med(u) for u in mains)
    m = {"wall_s": wall}
    m.update(setup)
    mem = memory_metrics(books, mains, spec["pairs"])
    m.update({k: v for k, v in mem.items() if k != "largest"})
    m["mem.rss_per_rank_kb"] = m.get("rss_per_rank_kb", 0.0)
    if mem:
        report.append("largest run: %s" % mem["largest"])

    job_s = [books.med(u) for u in mains if u in books.run_s]
    events = sum(books.records[u]["events"] for u in mains
                 if u in books.records)
    m.update({
        "exp.campaign.jobs": len(mains),
        "exp.campaign.job_s.p50": percentile(job_s, 0.5),
        "exp.campaign.job_s.p90": percentile(job_s, 0.9),
        "exp.campaign.busy_share": median(busy),
        "exp.campaign.tail_s": books.med(mains[-1]),
        "exp.run_s": wall,
        "sim.events": events,
        "sim.events_per_s": events / wall if wall > 0 else 0.0,
    })
    m.update(counter_metrics(books, mains))
    if trace:
        m["trace.overhead_s"] = sum(books.med(u) for u in twins)
        m.update(pair_metrics(books, spec["pairs"], report))
        for u in mains + twins:
            if u in books.records:
                report.append("exp.run_s.%s = %.6f s" % (u, books.med(u)))
                rec = books.records[u]
                report.append("sim.events.%s = %d count" % (u, rec["events"]))
                if books.med(u) > 0:
                    report.append("sim.events_per_s.%s = %.1f 1/s"
                                  % (u, rec["events"] / books.med(u)))
                report.append("mem.rss_per_rank_kb.%s = %.3f kB" % (
                    u, (rec["hwm_kb"] - rec["rss_pre_kb"]) / rec["ranks"]))
    return m, books


def run_campaign_workload(prog, spec, seconds, trace, report):
    """hpl_campaign: the grid through exp::run_campaign, one process per
    pass; the largest runs also alone, for per-run memory."""
    setup = run_setups(prog)
    units = spec["units"]
    probes = [u["name"] for u in units
              if u["standalone"] and not u["trace_only"]]
    twins = [u["name"] for u in units if u["trace_only"]]
    books = Books()  # campaign jobs
    alone = Books()  # the same units, each in its own process
    standalone_pass(prog, alone, probes)

    passes = {0: [], 1: []}  # timers -> campaign outputs
    crashed = []  # host seconds of campaign processes that died
    pair_s = []
    deadline = time.monotonic() + seconds
    while not (passes[0] or crashed) or time.monotonic() < deadline:
        for timers in ((0, 1) if trace else (0,)):
            out, why = prog.call(["campaign", "--timers", str(timers)])
            if why:
                crashed.append(out["run_s"])
                for u in units:
                    if not u["trace_only"]:
                        books.add(u["name"], {"run_s": -1}, "campaign " + why)
                continue
            passes[timers].append(out)
            for rec in out["records"]:
                books.add(rec["unit"], rec, "")
        if trace:
            t0 = time.monotonic()
            standalone_pass(prog, alone, probes + twins)
            pair_s.append(time.monotonic() - t0)
    all_passes = passes[0] + passes[1]
    report.append("campaign passes = %d (workers %s)" % (
        len(all_passes),
        all_passes[0]["workers"] if all_passes else "n/a"))

    e2e = passes[0]
    m = {"wall_s": median([p["wall_s"] for p in e2e] or crashed)}
    m.update(setup)
    if e2e:
        report.append("mem.campaign_process_peak_rss_mb = %.3f MB"
                      % (max(p["hwm_kb"] for p in e2e) / 1024.0))
    mem = memory_metrics(alone, probes, spec["pairs"])
    m.update({k: v for k, v in mem.items() if k != "largest"})
    m["mem.rss_per_rank_kb"] = m.get("rss_per_rank_kb", 0.0)
    if mem:
        report.append("largest run: %s" % mem["largest"])

    jobs = [u["name"] for u in units if not u["trace_only"]]
    events = sum(books.records[u]["events"] for u in jobs
                 if u in books.records)
    m.update({
        "exp.campaign.jobs": len(jobs),
        "sim.events": events,
    })
    m.update(counter_metrics(books, jobs))
    timed = passes[1]
    if timed:
        def per_pass(f):
            return median([f(p) for p in timed])

        def job_times(p):
            return [r["run_s"] for r in p["records"]]

        def tail(p):
            last = max(p["records"], key=lambda r: r["job_end"])
            return last["job_end"] - last["job_start"]
        run_s = sum(books.med(u) for u in jobs)
        m.update({
            "exp.campaign.job_s.p50": per_pass(
                lambda p: percentile(job_times(p), 0.5)),
            "exp.campaign.job_s.p90": per_pass(
                lambda p: percentile(job_times(p), 0.9)),
            "exp.campaign.busy_share": per_pass(
                lambda p: sum(job_times(p)) / (p["workers"] * p["wall_s"])),
            "exp.campaign.tail_s": per_pass(tail),
            "exp.run_s": run_s,
            "sim.events_per_s": events / run_s if run_s > 0 else 0.0,
            "trace.overhead_s": per_pass(lambda p: p["wall_s"]) +
                median(pair_s) - m["wall_s"],
        })
        m.update(pair_metrics(alone, spec["pairs"], report))
        for u in probes + twins:
            if u in alone.records:
                report.append("exp.run_s.%s = %.6f s  (alone)"
                              % (u, alone.med(u)))
                report.append("sim.events.%s = %d count"
                              % (u, alone.records[u]["events"]))
    books.absorb(alone)
    return m, books


def check_digests(workload, seed, books, report, record):
    """Returns (digests_changed, unstable units)."""
    unstable = sorted(u for u, ds in books.digests.items() if len(ds) > 1)
    for u in unstable:
        books.failures.append((u, "digest differs between runs of one call: "
                               + ", ".join(sorted(books.digests[u]))))
    current = {u: next(iter(ds)) for u, ds in books.digests.items()
               if len(ds) == 1}
    lines = []
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            lines = [l.split() for l in f if l.strip() and l[0] != "#"]
    recorded = {u: d for w, u, d in lines if w == workload}
    if record:
        if seed != DEFAULT_SEED:
            raise HarnessError("--record needs the default seed %d"
                               % DEFAULT_SEED)
        merged = dict(recorded)
        merged.update(current)
        keep = [l for l in lines if l[0] != workload]
        keep += [[workload, u, merged[u]] for u in sorted(merged)]
        with open(DIGESTS, "w") as f:
            f.write("# workload unit digest (seed %d; crash = no result)\n"
                    % DEFAULT_SEED)
            for l in sorted(keep):
                f.write(" ".join(l) + "\n")
        report.append("digests recorded: %d units" % len(current))
        return 0, unstable
    if seed != DEFAULT_SEED:
        report.append("digests_changed = n/a (record is for seed %d; "
                      "checked run-to-run only)" % DEFAULT_SEED)
        return 0, unstable
    changed = sorted(u for u, d in current.items()
                     if u in recorded and recorded[u] != d)
    missing = sorted(u for u in current if u not in recorded)
    for u in changed:
        report.append("digest changed: %s %s -> %s"
                      % (u, recorded[u], current[u]))
    if missing:
        report.append("no recorded digest for: " + ", ".join(missing))
    report.append("digests_changed = %d count" % len(changed))
    return len(changed) + len(missing), unstable


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's recorded digests")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
        group_dir = os.path.join(os.path.dirname(binary), "groups",
                                 args.workload)
        os.makedirs(group_dir, exist_ok=True)
        prog = Program(binary, args.workload, args.seed, group_dir)
        spec = prog.must(["units"])
        with open(SPEC) as f:
            bench = json.load(f)
        report = []
        runner = run_campaign_workload if args.workload == "hpl_campaign" \
            else run_standalone_workload
        metrics, books = runner(prog, spec, args.seconds, bool(args.trace),
                                report)
        changed, unstable = check_digests(args.workload, args.seed, books,
                                          report, args.record)
    except (HarnessError, OSError) as e:
        log("perfbench: " + str(e))
        return 1

    failed = len(books.failures)
    attempted = max(books.attempted, 1)
    metrics["runs_ok_share"] = (attempted - failed) / attempted

    print("== gcr perfbench: workload %s, seed %d, %g s, trace %d =="
          % (args.workload, args.seed, args.seconds, args.trace))
    for line in report:
        print(line)
    print("runs = %d count" % books.attempted)
    print("runs_failed = %d count" % failed)
    seen = {}
    for unit, why in books.failures:
        seen[(unit, why)] = seen.get((unit, why), 0) + 1
    for (unit, why), n in seen.items():
        print("  failed: %s (%dx): %s" % (unit, n, why))
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] in metrics:
            print("%s = %r %s" % (m["name"], metrics[m["name"]], m["unit"]))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": changed == 0 and not unstable,
        "attempted": books.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
