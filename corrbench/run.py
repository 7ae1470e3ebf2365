#!/usr/bin/env python3
"""corrbench: the corrob benchmark.

    python3 corrbench/run.py --workload heu-10src --seed 1 --seconds 25 --trace 0

Run from the root of a corrob checkout. The first run builds `corrob`,
`corrobd` and the harness into .bench_build/; later runs reuse them.
With --trace 0 the last stdout line is a JSON object with every
end-to-end metric; with --trace 1 it has every per-layer metric instead.
corrbench/README.md describes the workloads and metrics.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CORROB_TREE = BUILD / "corrob"
HARNESS_TREE = BUILD / "harness"
CORROB = CORROB_TREE / "src" / "cli" / "corrob"
CORROBD = CORROB_TREE / "src" / "server" / "corrobd"
HARNESS = HARNESS_TREE / "corrbench_harness"

SETUP_REPEATS = 5
# A failed or shed operation counts as this long when a percentile lands
# on it: the longest any driver here waits for one answer.
FAILURE_MS = 60000.0
# Batch jobs replayed in-process by a traced run.
TRACED_JOBS = 6

# Every batch job writes and then corroborates its own corpus, from a
# generator seed derived from the run seed and the job's index.
BATCH = {
    # IncEstHeu's ΔH scan dominates; one thread, because multi-threaded
    # runs of this shape are bimodal on a 4-core host. Two lanes: on that
    # host five seeds gave a read median of 1007 ms with 7% spread and a
    # p80 tail at two lanes, against 1023 ms, 21% spread and a p52-p66
    # tail at one lane, where a 25 s run holds only ~23 jobs.
    "heu-10src": {"facts": 10000, "sources": 10, "threads": 1,
                  "algorithms": ["IncEstHeu"], "lanes": 2},
    # CSV parse, Dataset build and the per-run VoteMatrix copy dominate.
    # ThreeEstimate twice per TwoEstimate, so the median and the tail
    # both fall inside ThreeEstimate's mode, not in the gap between the
    # two algorithms' modes.
    "fixpoint-100k": {"facts": 100000, "sources": 10, "threads": 4,
                      "algorithms": ["TwoEstimate", "ThreeEstimate",
                                     "ThreeEstimate"], "lanes": 1},
}

# serve-rw serves the paper-shaped restaurant corpus (the generator's
# own default seed); the run seed drives the read keys and the deltas.
# Reads spread uniformly over 32 cache keys (2 algorithms x 16 round
# budgets); every write bumps the generation and so turns the next read
# of every key cold. Both rates are about half of what saturated a
# 4-core host (reads ~250/s, writes ~12/s). At 6 writes/s about three
# reads in four miss the cache, which puts the read median inside the
# cold-run mode rather than between it and the cache-hit mode. The recorder holds
# every request of a run, so none is evicted before the join.
SERVE = {"facts": 36916, "corpus_seed": 2012, "sources": 6,
         "read_rate": 120.0, "write_rate": 6.0, "keys": 32,
         "cache_entries": 256,
         "recorder_entries": 65536, "warmup_seconds": 2.0,
         "traced_batches": 40}

END_TO_END_UNITS = {
    "setup_s": "s", "read_ms.p50": "ms", "read_ms.tail": "ms",
    "write_ms.p50": "ms", "write_ms.tail": "ms", "accuracy": "frac",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "data.parse_csv_ms": "ms", "data.rows_loaded": "count",
    "core.vote_matrix_build_ms": "ms", "core.vote_matrix.builds": "count",
    "core.fixpoint_sweep_ms": "ms", "core.fixpoint.iterations": "count",
    "core.fact_groups_build_ms": "ms", "core.fact_groups": "count",
    "core.inc.run_ms": "ms", "core.inc.delta_h_ns": "ns",
    "core.inc.rounds": "count", "core.inc.delta_h_scans": "count",
    "core.inc.delta_h_candidates": "count",
    "core.delta_apply_ms": "ms", "data.wal_append_ms": "ms",
    "data.wal_bytes_per_delta": "B",
    "server.cache.hit_frac": "frac", "server.cache.lookups": "count",
    "server.cache.invalidations_per_write": "count",
    "server.service_ms.p50.cold": "ms",
    "server.service_ms.p50.cache_hit": "ms",
    "server.service_ms.p50.coalesced": "ms",
    "server.admission_wait_ms.p99": "ms", "server.shed": "count",
    "server.transport_ms.p50": "ms", "server.unjoined": "count",
    "server.protocol.encode_us": "us", "server.protocol.decode_us": "us",
    "cli.residual_ms": "ms", "driver.late_ms.p99": "ms",
    "driver.issued_vs_offered": "frac", "trace.overhead_ms": "ms",
    "self_ms.data": "ms", "self_ms.core": "ms", "self_ms.cli": "ms",
    "self_ms.server": "ms", "failed_frac": "frac",
}

LAYERS = ("data", "core", "cli")


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build


def run_quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        log(done.stdout[-4000:])
        raise SystemExit(f"corrbench: command failed: {' '.join(map(str, cmd))}")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (CORROB_TREE / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(CORROB_TREE),
                   "-DCMAKE_BUILD_TYPE=Release", "-DCORROB_BUILD_TESTS=OFF",
                   "-DCORROB_BUILD_BENCHMARKS=OFF",
                   "-DCORROB_BUILD_EXAMPLES=OFF"])
    run_quiet(["cmake", "--build", str(CORROB_TREE), "--target", "corrob",
               "corrobd", "-j", jobs])
    if not (HARNESS_TREE / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT / "corrbench"), "-B",
                   str(HARNESS_TREE), "-DCMAKE_BUILD_TYPE=Release",
                   f"-DCORROB_ROOT={ROOT}", f"-DCORROB_BUILD={CORROB_TREE}"])
    run_quiet(["cmake", "--build", str(HARNESS_TREE), "-j", jobs])


# ---------------------------------------------------------------------
# Processes


def timed_child(cmd):
    """Runs `cmd` to completion. Returns (exit code, wall ms, max RSS MB)."""
    start = time.perf_counter_ns()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stderr.close()
    wall_ms = (time.perf_counter_ns() - start) / 1e6
    if child.returncode != 0:
        log(f"corrbench: {cmd[1] if len(cmd) > 1 else cmd[0]} exited "
            f"{child.returncode}: {stderr.decode(errors='replace')[-500:]}")
    return child.returncode, wall_ms, usage.ru_maxrss / 1024.0


def harness(args, cwd=None):
    """Runs a harness subcommand and returns its JSON output."""
    done = subprocess.run([str(HARNESS)] + [str(a) for a in args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"harness {args[0]} failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint(path):
    """CRC-32 and size of a file, as the harness prints them."""
    data = Path(path).read_bytes()
    return f"{zlib.crc32(data):08x}:{len(data)}"


class Daemon:
    """A corrobd serving one corpus from `workdir`, stopped on exit."""

    def __init__(self, workdir, corpus):
        self.workdir = workdir
        self.log = open(workdir / "corrobd.log", "wb")
        self.process = subprocess.Popen(
            [str(CORROBD), "--socket", "c.sock",
             "--dataset", f"serve={corpus}",
             "--cache-entries", str(SERVE["cache_entries"]),
             "--flight-recorder-entries", str(SERVE["recorder_entries"]),
             "--wal", "wal", "--wal-fsync", "always",
             # Two run slots leave the other cores to a delta rebuild,
             # the driver and the transfers.
             "--max-concurrency", "2"],
            cwd=workdir, stdout=self.log, stderr=subprocess.STDOUT)

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


# ---------------------------------------------------------------------
# Batch workloads: heu-10src, fixpoint-100k


def batch_setup(spec, first_seed, workdir):
    """Set-up: generate, save and reload the first job's corpus."""
    times = []
    for i in range(SETUP_REPEATS):
        out = workdir / f"setup{i}.csv"
        start = time.perf_counter()
        harness(["setup", "--kind", "synthetic", "--facts", spec["facts"],
                 "--sources", spec["sources"], "--seed", first_seed,
                 "--out", out])
        times.append(time.perf_counter() - start)
        out.unlink()
    return benchlib.median(times)


def run_job(spec, seed, j, workdir, keep):
    """One batch job: write its corpus, then corroborate it."""
    job_seed = benchlib.derive_seed(seed, "job", j)
    algorithm = spec["algorithms"][j % len(spec["algorithms"])]
    corpus = workdir / f"job{j}.csv"
    decisions = workdir / f"job{j}.out.csv"
    # The write: `corrob generate` makes this job's corpus.
    write_code, write_ms, write_rss = timed_child(
        [str(CORROB), "generate", "--kind", "synthetic",
         "--facts", str(spec["facts"]), "--sources", str(spec["sources"]),
         "--seed", str(job_seed), "--output", str(corpus)])
    # The read: `corrob run` corroborates it.
    read_code, read_ms, read_rss = timed_child(
        [str(CORROB), "run", "--input", str(corpus), "--algorithm",
         algorithm, "--threads", str(spec["threads"]),
         "--output", str(decisions)])
    job = {"seed": job_seed, "algorithm": algorithm,
           "write_ok": write_code == 0, "write_ms": write_ms,
           "read_ok": read_code == 0, "read_ms": read_ms,
           "rss_mb": max(write_rss, read_rss), "corpus": corpus,
           "corpus_fp": fingerprint(corpus) if write_code == 0 else "-",
           "decisions_fp": fingerprint(decisions) if read_code == 0 else "-"}
    if decisions.exists():
        decisions.unlink()
    if not keep and corpus.exists():
        corpus.unlink()
    return job


def run_batch(workload, seed, seconds, trace, workdir):
    spec = BATCH[workload]
    setup_s = batch_setup(spec, benchlib.derive_seed(seed, "job", 0), workdir)

    # `lanes` jobs run side by side, each one process at a time.
    results = {}
    next_job = itertools.count()
    deadline = time.perf_counter() + seconds

    errors = []

    def lane():
        try:
            while time.perf_counter() < deadline:
                j = next(next_job)
                results[j] = run_job(spec, seed, j, workdir,
                                     keep=trace and j < TRACED_JOBS)
        except Exception as error:  # re-raised once every lane has ended
            errors.append(error)

    lanes = [threading.Thread(target=lane) for _ in range(spec["lanes"])]
    for thread in lanes:
        thread.start()
    for thread in lanes:
        thread.join()
    if errors:
        raise errors[0]
    jobs = [results[j] for j in sorted(results)]

    jobs_file = workdir / "jobs.tsv"
    jobs_file.write_text("".join(
        f"{job['seed']} {job['algorithm']} {spec['facts']} {spec['sources']} "
        f"{job['corpus_fp']} {job['decisions_fp']} {job['corpus']}\n"
        for job in jobs))
    verified = harness(["verify-batch", "--jobs", jobs_file])["jobs"]
    mismatched = 0
    for job, check in zip(jobs, verified):
        if job["write_ok"] and not check["corpus_ok"]:
            job["write_ok"] = False
            mismatched += 1
        if job["read_ok"] and not check["decisions_ok"]:
            job["read_ok"] = False
            mismatched += 1
        job["accuracy"] = check["accuracy"]

    attempted = 2 * len(jobs)
    failed = sum((not job["write_ok"]) + (not job["read_ok"]) for job in jobs)
    read_p50, read_tail, read_level, reads = benchlib.latency_summary(
        [job["read_ms"] for job in jobs if job["read_ok"]],
        sum(not job["read_ok"] for job in jobs), FAILURE_MS)
    write_p50, write_tail, write_level, writes = benchlib.latency_summary(
        [job["write_ms"] for job in jobs if job["write_ok"]],
        sum(not job["write_ok"] for job in jobs), FAILURE_MS)
    log(f"corrbench: {workload}: {reads} jobs; read tail = p{read_level:.0f}, "
        f"write tail = p{write_level:.0f}" if read_level and write_level
        else f"corrbench: {workload}: only {reads} jobs; tail is the maximum")
    ok_jobs = [job for job in jobs if job["read_ok"]]
    metrics = {
        "setup_s": setup_s,
        "read_ms.p50": read_p50, "read_ms.tail": read_tail,
        "write_ms.p50": write_p50, "write_ms.tail": write_tail,
        "accuracy": (sum(job["accuracy"] for job in ok_jobs)
                     / max(1, len(ok_jobs))),
        "peak_rss_mb": max(job["rss_mb"] for job in jobs),
        "ok_frac": 1.0 - failed / attempted,
    }
    if trace:
        metrics = trace_batch(workload, seed, jobs_file, workdir,
                              failed / attempted)
    return mismatched == 0, attempted, failed, metrics


def trace_batch(workload, seed, jobs_file, workdir, failed_frac):
    spans_path = BUILD / "traces" / f"{workload}-seed{seed}.spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    layers = harness(["trace-batch", "--jobs", jobs_file,
                      "--max-jobs", TRACED_JOBS, "--spans", spans_path,
                      "--scratch-output", workdir / "replay.csv",
                      "--corrob", CORROB])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics = zero_layer_metrics()
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER_UNITS})
    self_ms = benchlib.layer_self_ms(spans, LAYERS)
    metrics.update({
        "driver.issued_vs_offered": 1.0,
        "self_ms.data": self_ms["data"], "self_ms.core": self_ms["core"],
        "self_ms.cli": self_ms["cli"], "failed_frac": failed_frac,
    })
    log(f"corrbench: replayed {layers['jobs']} jobs in-process; spans in "
        f"{spans_path}")
    return metrics


def zero_layer_metrics():
    """Per-layer metrics of layers a workload never enters read 0."""
    return {name: 0.0 for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------
# serve-rw


def serve_setup(workdir):
    """Set-up: generate, save and reload the corpus, then start corrobd
    and wait for its first ping. Repeated; the last daemon is kept."""
    times = []
    daemon = None
    for i in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        home = workdir / f"serve{i}"
        home.mkdir()
        start = time.perf_counter()
        harness(["setup", "--kind", "restaurant", "--facts", SERVE["facts"],
                 "--sources", SERVE["sources"], "--seed",
                 SERVE["corpus_seed"], "--out",
                 home / "corpus.csv"])
        daemon = Daemon(home, "corpus.csv")
        try:
            harness(["ping", "--socket", "c.sock"], cwd=home)
        except Exception:
            daemon.stop()
            raise
        times.append(time.perf_counter() - start)
    return benchlib.median(times), daemon


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        for key in ("sched_ns", "send_ns", "recv_ns"):
            row[key] = int(row[key])
        row["accuracy"] = float(row["accuracy"])
        rows.append(row)
    return rows


def run_serve(seed, seconds, trace, workdir):
    setup_s, daemon = serve_setup(workdir)
    home = daemon.workdir
    try:
        served = harness(
            ["serve", "--socket", "c.sock", "--corpus", "corpus.csv",
             "--delta-seed", benchlib.derive_seed(seed, "deltas"),
             "--read-seed", benchlib.derive_seed(seed, "reads"),
             "--seconds", seconds, "--read-rate", SERVE["read_rate"],
             "--write-rate", SERVE["write_rate"], "--keys", SERVE["keys"],
             "--warmup-seconds", SERVE["warmup_seconds"],
             "--out-prefix", "out."], cwd=home)
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    window_ns = int(seconds * 1e9)
    rows = read_rows(home / "out.rows.tsv")
    reads = [row for row in rows if row["kind"] == "read"]
    writes = [row for row in rows if row["kind"] == "write"]
    summaries = {}
    failed = 0
    attempted = 0
    late_ms = []
    issued_total = 0
    for name, ops in (("read", reads), ("write", writes)):
        offered, issued, late, op_failed = benchlib.open_loop_accounting(
            ops, window_ns)
        ok = [(op["recv_ns"] - op["sched_ns"]) / 1e6 for op in ops
              if 0 <= op["sched_ns"] < window_ns and op["status"] == "ok"]
        summaries[name] = benchlib.latency_summary(ok, op_failed, FAILURE_MS)
        failed += op_failed
        attempted += offered
        issued_total += issued
        late_ms += late
    ok_reads = [row for row in reads
                if 0 <= row["sched_ns"] < window_ns and row["status"] == "ok"]
    correct = served["mismatched"] == 0 and served["generations_ok"]
    log(f"corrbench: serve-rw: {summaries['read'][3]} reads "
        f"(tail = p{summaries['read'][2]:.0f}), {summaries['write'][3]} "
        f"writes (tail = p{summaries['write'][2]:.0f}), "
        f"{served['generations']} generations, "
        f"{served['mismatched']} mismatched reads")
    metrics = {
        "setup_s": setup_s,
        "read_ms.p50": summaries["read"][0],
        "read_ms.tail": summaries["read"][1],
        "write_ms.p50": summaries["write"][0],
        "write_ms.tail": summaries["write"][1],
        "accuracy": (sum(row["accuracy"] for row in ok_reads)
                     / max(1, len(ok_reads))),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    if trace:
        metrics = trace_serve(seed, home, reads, writes, late_ms,
                              issued_total / attempted, failed / attempted)
    return correct, attempted, failed, metrics


def counter_delta(before, after, name):
    """How much a counter of two corrob.introspect/1 dumps grew."""
    def value(dump):
        found = dump.get("metrics", {}).get("counters", {}).get(name, 0)
        return found if isinstance(found, (int, float)) else 0
    return value(after) - value(before)


def trace_serve(seed, home, reads, writes, late_ms, issued_vs_offered,
                failed_frac):
    stats_before = json.loads((home / "out.stats_before.json").read_text())
    stats_after = json.loads((home / "out.stats_after.json").read_text())
    introspect_before = json.loads(
        (home / "out.introspect_before.json").read_text())
    introspect = json.loads((home / "out.introspect_after.json").read_text())
    records = {record["id"]: record
               for record in introspect["recorder"]["recent"]
               if record["id"]}

    # Join each answered read with the daemon's own record of it.
    by_role = {"cold": [], "cache_hit": [], "coalesced": []}
    role_group = {"leader": "cold", "cold": "cold", "promoted": "cold",
                  "cache_hit": "cache_hit", "follower": "coalesced"}
    transport_ms, admission_ms, server_self_ms = [], [], []
    unjoined = 0
    answered = [row for row in reads if row["sched_ns"] >= 0
                and row["status"] not in ("transport_error", "not_issued")]
    for row in answered:
        record = records.get(row["id"])
        if record is None:
            unjoined += 1
            continue
        total_ms = record["total_nanos"] / 1e6
        group = role_group.get(record["role"])
        if group is not None:
            by_role[group].append(total_ms)
        if group == "cold":
            admission_ms.append(record["admission_wait_nanos"] / 1e6)
        transport_ms.append((row["recv_ns"] - row["send_ns"]) / 1e6 - total_ms)
        server_self_ms.append(total_ms - record["service_nanos"] / 1e6)

    cache_before, cache_after = stats_before["cache"], stats_after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    invalidations = cache_after["invalidations"] - cache_before["invalidations"]
    acked_writes = sum(1 for row in writes if row["status"] == "ok")
    cold_runs = len(by_role["cold"])

    spans_path = BUILD / "traces" / f"serve-rw-seed{seed}.spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    wal_dir = home / "trace-wal"
    layers = harness(
        ["trace-serve", "--corpus", home / "corpus.csv",
         "--delta-seed", benchlib.derive_seed(seed, "deltas"),
         "--batches", min(SERVE["traced_batches"], max(1, acked_writes)),
         "--wal-dir", wal_dir, "--spans", spans_path])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    self_ms = benchlib.layer_self_ms(spans, LAYERS)

    def p50(values):
        return benchlib.median(values) if values else 0.0

    def p99(values):
        if not values:
            return 0.0
        ordered = sorted(values)
        return ordered[math.ceil(0.99 * len(ordered)) - 1]

    metrics = zero_layer_metrics()
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER_UNITS})
    metrics.update({
        "core.vote_matrix.builds":
            counter_delta(introspect_before, introspect,
                          "corrob.vote_matrix.builds") / max(1, cold_runs),
        "server.cache.hit_frac": hits / max(1, lookups),
        "server.cache.lookups": lookups,
        "server.cache.invalidations_per_write":
            invalidations / max(1, acked_writes),
        "server.service_ms.p50.cold": p50(by_role["cold"]),
        "server.service_ms.p50.cache_hit": p50(by_role["cache_hit"]),
        "server.service_ms.p50.coalesced": p50(by_role["coalesced"]),
        "server.admission_wait_ms.p99": p99(admission_ms),
        "server.shed": counter_delta(introspect_before, introspect,
                                     "corrobd.requests.shed"),
        "server.transport_ms.p50": p50(transport_ms),
        "server.unjoined": unjoined,
        "driver.late_ms.p99": p99(late_ms),
        "driver.issued_vs_offered": issued_vs_offered,
        "self_ms.data": self_ms["data"], "self_ms.core": self_ms["core"],
        "self_ms.server": p50(server_self_ms), "failed_frac": failed_frac,
    })
    log(f"corrbench: serve-rw joined {len(answered) - unjoined} of "
        f"{len(answered)} answered reads with the daemon's records; "
        f"spans in {spans_path}")
    return metrics


# ---------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BATCH) + ["serve-rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its daemon and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        if args.workload == "serve-rw":
            correct, attempted, failed, metrics = run_serve(
                args.seed, args.seconds, args.trace, workdir)
        else:
            correct, attempted, failed, metrics = run_batch(
                args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name in units:
        log(f"  {name:40s} {metrics[name]:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
